//! `ola-loadgen` — closed-loop load generator for `ola-serve`.
//!
//! ```text
//! ola-loadgen --addr HOST:PORT [--clients N] [--requests N]
//!             [--min-qps N] [--materialize DIR]
//! ```
//!
//! Each client thread holds one keep-alive connection and sends queries
//! back-to-back (closed loop: the next request leaves when the previous
//! response lands). The query mix cycles through a small set of distinct
//! analyses, so after a one-pass warmup almost every request is a cache
//! hit — this measures the **sustained cached-query throughput** the
//! acceptance gate cares about, with cold fill cost isolated in the
//! warmup numbers.
//!
//! Three invariants are enforced while measuring, any violation is an
//! error counted in the summary line (and a non-zero exit):
//!
//! * every response is `200` with parseable `{"manifest":..,"result":..}`,
//! * **bit-identity**: all bodies for one `X-Ola-Key` are byte-identical
//!   to the first body seen for that key — cache hits reproduce the cold
//!   computation exactly, manifest artifact hashes included,
//! * the embedded manifest's recorded SHA-256 matches a re-hash of the
//!   re-rendered result.
//!
//! With `--materialize DIR`, one response per unique key is written out
//! as `DIR/results/serve/<experiment>.result.json` plus
//! `DIR/results/manifests/<experiment>.json`, in exactly the layout the
//! unmodified `manifest_check` binary validates — CI closes the loop by
//! running it against these files.
//!
//! The summary line on stderr gives sustained QPS, latency percentiles and
//! cache hits and misses.

use ola_core::obs::json::{parse, JsonValue};
use ola_core::obs::sha256;
use ola_serve::http::{self, HttpLimits, Request};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The query mix: distinct analyses, all cheap enough to serve from cache
/// at four-digit QPS. Width and expression variety exercise distinct
/// cache keys.
const QUERIES: [&str; 7] = [
    r#"{"kind":"lint","expr":"y = a * 0.5 + b","width":3}"#,
    r#"{"kind":"lint","expr":"y = (a + b) * 0.25","width":4}"#,
    r#"{"kind":"sta","expr":"y = a + b","width":2,"ts_points":4}"#,
    r#"{"kind":"sta","expr":"y = a * 0.5 + b","width":3,"ts_points":4}"#,
    r#"{"kind":"sweep","expr":"y = a * 0.5 + b","width":2,"ts_points":3,"samples":8}"#,
    r#"{"kind":"sweep","expr":"y = (a + b) * 0.5","width":2,"ts_points":3,"samples":8}"#,
    r#"{"kind":"verify","expr":"y = a * 0.5 + b","width":2,"ts_points":3}"#,
];

struct Baseline {
    body: Vec<u8>,
    experiment: String,
}

#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    hits: u64,
    misses: u64,
    errors: Vec<String>,
}

struct SharedState {
    /// First body seen per content address — the bit-identity reference.
    baselines: Mutex<HashMap<String, Baseline>>,
    errors_seen: Mutex<Vec<String>>,
}

fn usage() -> ! {
    eprintln!("usage: ola-loadgen --addr HOST:PORT [flags]");
    eprintln!("flags:");
    eprintln!("  --clients N       concurrent closed-loop clients (default 4)");
    eprintln!("  --requests N      total measured requests (default 2000)");
    eprintln!("  --min-qps N       exit 1 if sustained QPS falls below N");
    eprintln!("  --materialize DIR write result files + manifests for manifest_check");
    eprintln!("exit codes: 0 ok, 1 errors or below --min-qps, 2 usage");
    std::process::exit(2);
}

fn connect(addr: &str) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((reader, stream))
}

/// Sends one query on the connection; validates the response; returns
/// (latency, cache label) or an error description.
fn one_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    query: &str,
    shared: &SharedState,
) -> Result<(u64, String), String> {
    let started = Instant::now();
    http::write_request(
        writer,
        &Request {
            method: "POST".into(),
            path: "/query".into(),
            headers: vec![],
            body: query.as_bytes().to_vec(),
        },
    )
    .map_err(|e| format!("write: {e}"))?;
    let resp = http::read_response(reader, &HttpLimits::default())
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "connection closed mid-run".to_string())?;
    let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    if resp.status != 200 {
        return Err(format!("status {} for {query}", resp.status));
    }
    let key = http::header(&resp.headers, "x-ola-key")
        .ok_or_else(|| "missing X-Ola-Key".to_string())?
        .to_owned();
    let label = http::header(&resp.headers, "x-ola-cache").unwrap_or("?").to_owned();

    let mut baselines = shared.baselines.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(baseline) = baselines.get(&key) {
        if baseline.body != resp.body {
            return Err(format!("bit-identity violation for key {key}: cached body differs"));
        }
    } else {
        // First sighting: deep-check the body once, then freeze it as the
        // reference every later response must match byte-for-byte.
        let text = std::str::from_utf8(&resp.body).map_err(|_| "body not utf-8".to_string())?;
        let doc = parse(text).map_err(|e| format!("body not JSON: {e}"))?;
        let manifest = doc.get("manifest").ok_or("no manifest in body")?;
        let result = doc.get("result").ok_or("no result in body")?;
        let experiment = manifest
            .get("experiment")
            .and_then(JsonValue::as_str)
            .ok_or("manifest missing experiment")?
            .to_owned();
        let rendered = result.render();
        let outputs = manifest.get("outputs").and_then(JsonValue::as_array).ok_or("no outputs")?;
        let rec = outputs.first().ok_or("empty outputs")?;
        let recorded = rec.get("sha256").and_then(JsonValue::as_str).ok_or("no sha256")?;
        let actual = sha256::hex_digest(rendered.as_bytes());
        if recorded != actual {
            return Err(format!(
                "manifest hash mismatch for {experiment}: recorded {recorded}, actual {actual}"
            ));
        }
        baselines.insert(key, Baseline { body: resp.body, experiment });
    }
    Ok((latency_us, label))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::new();
    let mut clients = 4usize;
    let mut requests = 2000usize;
    let mut min_qps = 0.0f64;
    let mut materialize: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--clients" => {
                i += 1;
                clients = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--requests" => {
                i += 1;
                requests = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--min-qps" => {
                i += 1;
                min_qps = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--materialize" => {
                i += 1;
                materialize = Some(PathBuf::from(args.get(i).cloned().unwrap_or_else(|| usage())));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
        i += 1;
    }
    if addr.is_empty() {
        eprintln!("--addr is required");
        usage();
    }
    let clients = clients.max(1);

    let shared = Arc::new(SharedState {
        baselines: Mutex::new(HashMap::new()),
        errors_seen: Mutex::new(Vec::new()),
    });

    // Warmup: one pass over the query mix on a single connection fills
    // the cache (cold cost isolated here) and freezes the baselines.
    let warmup_started = Instant::now();
    {
        let Ok((mut reader, mut writer)) = connect(&addr) else {
            eprintln!("ola-loadgen: cannot connect to {addr}");
            std::process::exit(2);
        };
        for query in QUERIES {
            if let Err(e) = one_request(&mut reader, &mut writer, query, &shared) {
                eprintln!("ola-loadgen: warmup failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let warmup_secs = warmup_started.elapsed().as_secs_f64();
    eprintln!("warmup: {} queries in {warmup_secs:.3}s", QUERIES.len());

    // Measured phase: closed-loop clients over keep-alive connections.
    let per_client = requests.div_ceil(clients);
    let measure_started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let addr = addr.clone();
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let mut tally = Tally::default();
            let Ok((mut reader, mut writer)) = connect(&addr) else {
                tally.errors.push(format!("client {c}: connect failed"));
                return tally;
            };
            for n in 0..per_client {
                let query = QUERIES[(c + n) % QUERIES.len()];
                match one_request(&mut reader, &mut writer, query, &shared) {
                    Ok((us, label)) => {
                        tally.latencies_us.push(us);
                        if label == "miss" {
                            tally.misses += 1;
                        } else {
                            tally.hits += 1;
                        }
                    }
                    Err(e) => {
                        tally.errors.push(format!("client {c}: {e}"));
                        // Reconnect once after an error; a dead server
                        // will just keep accumulating errors.
                        if let Ok(conn) = connect(&addr) {
                            (reader, writer) = conn;
                        }
                    }
                }
            }
            tally
        }));
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    for h in handles {
        let tally = h.join().unwrap_or_default();
        latencies.extend(tally.latencies_us);
        hits += tally.hits;
        misses += tally.misses;
        errors.extend(tally.errors);
    }
    errors.extend(shared.errors_seen.lock().unwrap_or_else(PoisonError::into_inner).drain(..));
    let elapsed = measure_started.elapsed().as_secs_f64().max(1e-9);
    let completed = latencies.len();
    #[allow(clippy::cast_precision_loss)]
    let qps = completed as f64 / elapsed;
    latencies.sort_unstable();
    let (p50, p90, p99) =
        (percentile(&latencies, 0.50), percentile(&latencies, 0.90), percentile(&latencies, 0.99));

    // Materialize one result document + manifest per unique key, in the
    // exact layout `manifest_check` validates.
    if let Some(root) = &materialize {
        let serve_dir = root.join("results/serve");
        let manifest_dir = root.join("results/manifests");
        for dir in [&serve_dir, &manifest_dir] {
            if let Err(e) = std::fs::create_dir_all(dir) {
                errors.push(format!("materialize: mkdir {}: {e}", dir.display()));
            }
        }
        let baselines = shared.baselines.lock().unwrap_or_else(PoisonError::into_inner);
        for baseline in baselines.values() {
            let text = String::from_utf8_lossy(&baseline.body);
            let Ok(doc) = parse(&text) else { continue };
            let (Some(manifest), Some(result)) = (doc.get("manifest"), doc.get("result")) else {
                continue;
            };
            let exp = &baseline.experiment;
            let result_path = serve_dir.join(format!("{exp}.result.json"));
            let manifest_path = manifest_dir.join(format!("{exp}.json"));
            let wrote = std::fs::write(&result_path, result.render())
                .and_then(|()| std::fs::write(&manifest_path, manifest.render()));
            if let Err(e) = wrote {
                errors.push(format!("materialize {exp}: {e}"));
            }
        }
    }

    eprintln!(
        "ola-loadgen: {completed} requests in {elapsed:.3}s = {qps:.0} req/s \
         (p50 {p50}us p90 {p90}us p99 {p99}us; {hits} hits / {misses} misses)"
    );
    for e in errors.iter().take(10) {
        eprintln!("  error: {e}");
    }
    if !errors.is_empty() {
        eprintln!("ola-loadgen: {} error(s)", errors.len());
        std::process::exit(1);
    }
    if min_qps > 0.0 && qps < min_qps {
        eprintln!("ola-loadgen: sustained {qps:.0} req/s below the --min-qps {min_qps:.0} gate");
        std::process::exit(1);
    }
}
