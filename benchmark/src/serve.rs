//! `serve_mixed`: closed-loop clients against an in-process `ola-serve`.
//!
//! Two keep-alive clients each send a fixed request schedule. Every 20th
//! request is cold: a fresh seeded query (kinds rotating
//! sweep/sta/dsp/verify/pareto over random dyadic-coefficient
//! expressions) that misses the result cache and the compile memo. Every
//! other request cycles through a hot set warmed during set-up, which the
//! cache answers without simulating. Cold keys outnumber the cache's
//! entries, so LRU eviction runs.

use crate::layers::{random_stimulus, ProbeSubject};
use crate::record::Metric;
use crate::round::{Clock, Ctx, Outcome};
use crate::stats::reportable;
use ola_core::cache::CacheConfig;
use ola_core::obs::json::{self, JsonValue};
use ola_core::obs::{self, sha256, SpanRecord};
use ola_netlist::{analyze, FpgaDelay};
use ola_serve::http::{self, HttpLimits, Request, Response};
use ola_serve::{Server, ServerConfig};
use ola_synth::{
    elaborate, optimize, parse_dfg, ts_grid, AdderStructure, ElabOptions, InputFmt, Style,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Instant;

const CLIENTS: usize = 2;
const REQUESTS_PER_CLIENT: usize = 1_000;
/// One request in this many is cold.
const COLD_EVERY: usize = 20;
const HOT_QUERIES: usize = 16;
/// Result-cache entries: fewer than the round's distinct keys, so LRU
/// eviction runs, while the hot set, touched every few requests, stays.
const CACHE_ENTRIES: usize = 64;
const _: () = assert!(CACHE_ENTRIES < HOT_QUERIES + CLIENTS * REQUESTS_PER_CLIENT / COLD_EVERY);
/// Requests between span-ring drains in a traced round: two clients
/// drain long before the program's 4096-entry ring fills.
const DRAIN_EVERY: usize = 256;
const KINDS: [&str; 5] = ["sweep", "sta", "dsp", "verify", "pareto"];

/// The measurements only this workload makes, as `(name, unit)`. Every
/// other workload reports them as 0 from 0 samples, so all runs report
/// the same metric set.
pub const METRICS: [(&str, &str); 10] = [
    ("serve_qps", "1/s"),
    ("serve_hit_p50_us", "us"),
    ("serve_hit_p99_us", "us"),
    ("serve_cold_p50_ms", "ms"),
    ("serve_cold_p90_ms", "ms"),
    ("serve.cold_p50_ms.sweep", "ms"),
    ("serve.cold_p50_ms.sta", "ms"),
    ("serve.cold_p50_ms.dsp", "ms"),
    ("serve.cold_p50_ms.verify", "ms"),
    ("serve.cold_p50_ms.pareto", "ms"),
];

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// The connect or socket-option failure, as text.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { reader, writer: stream })
    }

    /// Posts `query` to `/query` and reads the response.
    ///
    /// # Errors
    ///
    /// A transport failure or a closed connection, as text.
    pub fn query(&mut self, query: &str) -> Result<Response, String> {
        let req = Request {
            method: "POST".into(),
            path: "/query".into(),
            headers: vec![],
            body: query.as_bytes().to_vec(),
        };
        http::write_request(&mut self.writer, &req).map_err(|e| format!("write: {e}"))?;
        http::read_response(&mut self.reader, &HttpLimits::default())
            .map_err(|e| format!("read: {e}"))?
            .ok_or_else(|| "connection closed".to_owned())
    }
}

/// An expression of `terms` terms with seeded two-digit dyadic
/// coefficients and signs.
fn expression(terms: usize, rng: &mut ChaCha8Rng) -> String {
    // Every coefficient has two nonzero binary digits, so each term costs
    // the same whatever the seed draws.
    const COEFFS: [&str; 6] = ["0.75", "0.375", "0.625", "0.3125", "0.5625", "0.1875"];
    let mut e = String::from("y =");
    for (t, var) in ["a", "b", "c", "d"].iter().take(terms).enumerate() {
        let sign = if t == 0 {
            ""
        } else if rng.gen() {
            " +"
        } else {
            " -"
        };
        e.push_str(&format!("{sign} {var} * {}", COEFFS[rng.gen_range(0..COEFFS.len())]));
    }
    e
}

/// Query `slot` of a schedule, with its kind and the key two queries must
/// not share (the datapath, so no query hits another's compile memo
/// entry). Its shape — kind, term count, width, kernel — is a function of
/// the slot alone, so every seed asks for the same amount of work;
/// coefficients, signs and sampling seeds come from `rng`.
fn query(slot: usize, rng: &mut ChaCha8Rng) -> (&'static str, String, String) {
    let kind = KINDS[slot % KINDS.len()];
    let k = slot / KINDS.len();
    let width = 4 + k % 3;
    let terms = 2 + k / 3 % 3;
    let seed: u64 = rng.gen();
    if kind == "dsp" {
        let kernel = ["fir", "conv2d", "matvec"][k / 9 % 3];
        let fusion = ["fused", "unfused"][k % 2];
        let q = format!(
            r#"{{"kind":"dsp","kernel":"{kernel}","size":{terms},"rows":2,"fusion":"{fusion}","width":{width},"ts_points":8,"samples":64,"seed":{seed}}}"#
        );
        return (kind, q.clone(), q);
    }
    let expr = expression(terms, rng);
    let q = match kind {
        "sweep" => format!(
            r#"{{"kind":"sweep","expr":"{expr}","width":{width},"ts_points":8,"samples":64,"seed":{seed}}}"#
        ),
        "sta" => format!(r#"{{"kind":"sta","expr":"{expr}","width":{width},"ts_points":12}}"#),
        "verify" => format!(r#"{{"kind":"verify","expr":"{expr}","width":{width},"ts_points":8}}"#),
        _ => format!(
            r#"{{"kind":"pareto","expr":"{expr}","widths":[{width}],"ts_points":6,"samples":32,"seed":{seed}}}"#
        ),
    };
    (kind, q, format!("{expr}/{width}"))
}

/// `count` queries for consecutive slots, re-drawing any whose datapath
/// an earlier query already uses.
fn queries(
    count: usize,
    rng: &mut ChaCha8Rng,
    seen: &mut HashSet<String>,
) -> Vec<(&'static str, String)> {
    (0..count)
        .map(|slot| loop {
            let (kind, q, datapath) = query(slot, rng);
            if seen.insert(datapath) {
                break (kind, q);
            }
        })
        .collect()
}

/// What one client saw.
#[derive(Default)]
struct Tally {
    hot_us: Vec<f64>,
    cold_ms: Vec<(&'static str, f64)>,
    failed: Vec<String>,
    spans: Vec<SpanRecord>,
}

/// First body seen per cache key: the reference every later response
/// for the key must match byte for byte.
type Bodies = Mutex<BTreeMap<String, Vec<u8>>>;

/// Sends `q`, checks the response, and returns the elapsed time.
fn request(conn: &mut Conn, q: &str, bodies: &Bodies) -> Result<f64, String> {
    let started = Instant::now();
    let resp = conn.query(q)?;
    let secs = started.elapsed().as_secs_f64();
    if resp.status != 200 {
        return Err(format!("status {} for {q}", resp.status));
    }
    let key =
        http::header(&resp.headers, "x-ola-key").ok_or("response lacks X-Ola-Key")?.to_owned();
    let mut bodies = bodies.lock().expect("no client panics while holding the body map");
    match bodies.get(&key) {
        Some(first) if *first != resp.body => Err(format!("body for key {key} changed")),
        Some(_) => Ok(secs),
        None => {
            bodies.insert(key, resp.body);
            Ok(secs)
        }
    }
}

/// Checks a first-seen body — the manifest's recorded SHA-256 of the
/// result must match a re-hash of the rendered result — and returns that
/// SHA-256.
fn result_sha(body: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let doc = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let result = doc.get("result").ok_or("body lacks a result")?;
    let recorded = doc
        .get("manifest")
        .and_then(|m| m.get("outputs"))
        .and_then(JsonValue::as_array)
        .and_then(|o| o.first())
        .and_then(|o| o.get("sha256"))
        .and_then(JsonValue::as_str)
        .ok_or("manifest lacks outputs[0].sha256")?;
    let actual = sha256::hex_digest(result.render().as_bytes());
    if recorded == actual {
        Ok(actual)
    } else {
        Err(format!("manifest records {recorded}, result hashes to {actual}"))
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, clock: &mut Clock) -> Outcome {
    let cold_per_client = REQUESTS_PER_CLIENT / COLD_EVERY;
    let mut out = Outcome::new(vec![
        ("clients", CLIENTS as u64),
        ("requests_per_client", REQUESTS_PER_CLIENT as u64),
        ("cold_every", COLD_EVERY as u64),
        ("hot_queries", HOT_QUERIES as u64),
        ("workers", 2),
        ("cache_capacity", CACHE_ENTRIES as u64),
    ]);
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed_for(0x5E7E));
    let mut seen = HashSet::new();
    let hot = queries(HOT_QUERIES, &mut rng, &mut seen);
    // Cold slots are dealt round-robin, so both clients see every kind.
    let mut cold: Vec<Vec<(&'static str, String)>> = vec![Vec::new(); CLIENTS];
    for (slot, q) in queries(CLIENTS * cold_per_client, &mut rng, &mut seen).into_iter().enumerate()
    {
        cold[slot % CLIENTS].push(q);
    }

    let cache = CacheConfig { capacity: CACHE_ENTRIES, ..CacheConfig::default() };
    let server = Server::start(ServerConfig { workers: 2, cache, ..ServerConfig::default() })
        .expect("bind a loopback port");
    let bodies: Bodies = Mutex::new(BTreeMap::new());
    match Conn::open(server.addr()) {
        Ok(mut conn) => {
            for (_, q) in &hot {
                let r = request(&mut conn, q, &bodies);
                out.check(r.is_ok(), || format!("warm-up: {}", r.err().unwrap_or_default()));
            }
        }
        Err(e) => out.check(false, || format!("warm-up: {e}")),
    }

    clock.begin();
    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (hot, cold, bodies) = (&hot, &cold[c], &bodies);
                let addr = server.addr();
                scope.spawn(move || client(ctx, addr, c, hot, cold, bodies))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    clock.end();
    server.drain_and_join();

    let mut hot_us = Vec::new();
    let mut cold_ms = Vec::new();
    for t in tallies {
        hot_us.extend(t.hot_us);
        cold_ms.extend(t.cold_ms);
        out.attempted += REQUESTS_PER_CLIENT as u64;
        out.failed.extend(t.failed);
        out.spans.extend(t.spans);
    }
    for (key, body) in bodies.into_inner().expect("client threads have ended") {
        match result_sha(&body) {
            Ok(sha) => {
                out.digest.str(&key);
                out.digest.str(&sha);
            }
            Err(e) => out.failed.push(format!("key {key}: {e}")),
        }
    }

    let completed = (hot_us.len() + cold_ms.len()) as u64;
    out.extra
        .push(Metric::new("serve_qps", completed as f64 / elapsed, "1/s").with_samples(completed));
    let hot_n = hot_us.len() as u64;
    for (name, p) in [("serve_hit_p50_us", 50.0), ("serve_hit_p99_us", 99.0)] {
        if let Some(v) = reportable(&mut hot_us, p) {
            out.extra.push(Metric::new(name, v, "us").with_samples(hot_n));
        }
    }
    let mut all: Vec<f64> = cold_ms.iter().map(|&(_, ms)| ms).collect();
    let cold_n = all.len() as u64;
    for (name, p) in [("serve_cold_p50_ms", 50.0), ("serve_cold_p90_ms", 90.0)] {
        if let Some(v) = reportable(&mut all, p) {
            out.extra.push(Metric::new(name, v, "ms").with_samples(cold_n));
        }
    }
    for kind in KINDS {
        let mut per: Vec<f64> =
            cold_ms.iter().filter(|(k, _)| *k == kind).map(|&(_, ms)| ms).collect();
        let n = per.len() as u64;
        if let Some(v) = reportable(&mut per, 50.0) {
            out.extra
                .push(Metric::new(&format!("serve.cold_p50_ms.{kind}"), v, "ms").with_samples(n));
        }
    }

    if ctx.traced {
        out.probe = Some(probe_subject(ctx, &cold[0][0].1, &hot[0].1));
    }
    out
}

/// One closed-loop client: the next request leaves when the previous
/// response has arrived.
fn client(
    ctx: &Ctx,
    addr: SocketAddr,
    c: usize,
    hot: &[(&'static str, String)],
    cold: &[(&'static str, String)],
    bodies: &Bodies,
) -> Tally {
    let mut t = Tally::default();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            t.failed.extend((0..REQUESTS_PER_CLIENT).map(|_| format!("client {c}: {e}")));
            return t;
        }
    };
    for i in 0..REQUESTS_PER_CLIENT {
        let is_cold = i % COLD_EVERY == COLD_EVERY - 1;
        let (kind, q) = if is_cold { &cold[i / COLD_EVERY] } else { &hot[(i + c) % hot.len()] };
        match ctx.layer("layer.http", || request(&mut conn, q, bodies)) {
            Ok(secs) if is_cold => t.cold_ms.push((kind, secs * 1e3)),
            Ok(secs) => t.hot_us.push(secs * 1e6),
            Err(e) => {
                t.failed.push(format!("client {c}: {e}"));
                if let Ok(fresh) = Conn::open(addr) {
                    conn = fresh;
                }
            }
        }
        if ctx.traced && i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            t.spans.extend(obs::drain_spans());
        }
    }
    t
}

/// The probes run on the first cold sweep's datapath and serve the first
/// hot query.
fn probe_subject(ctx: &Ctx, cold_sweep: &str, hot: &str) -> ProbeSubject {
    let doc = json::parse(cold_sweep).expect("generated queries are JSON");
    let expr = doc.get("expr").and_then(JsonValue::as_str).expect("sweeps carry an expression");
    let width =
        doc.get("width").and_then(JsonValue::as_u64).expect("sweeps carry a width") as usize;
    let dfg = parse_dfg(expr, InputFmt { msd_pos: 1, digits: width })
        .expect("generated expressions parse");
    let dp =
        elaborate(&optimize(&dfg, AdderStructure::BalancedTree), &ElabOptions::new(Style::Online));
    let critical = analyze(&dp.netlist, &FpgaDelay::default()).critical_path().max(1);
    ProbeSubject {
        wires: dp.output_wires(),
        stimulus: random_stimulus(dp.netlist.inputs().len(), 256, ctx.seed_for(0x9A0B)),
        netlist: dp.netlist,
        grid: ts_grid(critical, 8),
        jitter: None,
        event_vectors: 3,
        query: hot.to_owned(),
    }
}
