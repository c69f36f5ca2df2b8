//! The analysis server: accept loop, bounded worker pool, backpressure,
//! rate limiting, per-request deadlines, and graceful drain.
//!
//! ## Architecture
//!
//! One accept thread polls a non-blocking listener and pushes accepted
//! connections onto a **bounded** queue; `workers` threads pop
//! connections and speak keep-alive HTTP/1.1 on them. A full queue is
//! answered with `429 Too Many Requests` + `Retry-After` *on the accept
//! thread* — overload sheds load at the door instead of growing an
//! unbounded backlog. Per-peer token buckets ([`crate::limiter`]) shape
//! abusive clients the same way.
//!
//! ## Deadlines and panics
//!
//! Every query runs under an ambient [`CancelToken`] with a latching
//! deadline (`request_deadline`), installed exactly as the `repro` driver
//! installs its budget token: the sampling engines and the
//! [`ola_core::parallel`] pool poll it cooperatively, so a runaway query
//! unwinds with the typed cancellation payload and becomes a `503`. A
//! genuine worker panic (including the `OLA_CHAOS_SERVE_PANIC` injection)
//! is caught per request, answered with `500`, counted
//! (`ola.serve.panics`) — and the worker lives on.
//!
//! ## Drain
//!
//! `unsafe_code = "forbid"` rules out a real SIGTERM handler (no libc),
//! so graceful shutdown is exposed as the SIGTERM-equivalent
//! `POST /admin/drain` endpoint plus [`Server::drain_and_join`] (the
//! `ola-serve` binary also drains on stdin EOF, so `kill`-ing the
//! supervisor pipe drains the server). Draining stops new work at the
//! door (`503`), lets queued and in-flight requests finish, then joins
//! every thread.

use crate::http::{self, HttpLimits, Request, Response};
use crate::limiter::{RateConfig, RateDecision, RateLimiter};
use crate::wire;
use ola_core::cache::{CacheConfig, ContentCache};
use ola_core::obs::json;
use ola_core::resilience::{chaos, install_ambient, is_cancel_payload};
use ola_core::{CacheKey, CancelToken};
use ola_synth::{Limits, Query, QueryError};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded connection-queue depth; a full queue sheds with 429.
    pub queue_depth: usize,
    /// Per-request compute deadline (cooperative, via the ambient token).
    pub request_deadline: Duration,
    /// Socket read timeout while waiting for a request on a keep-alive
    /// connection.
    pub read_timeout: Duration,
    /// Per-peer token-bucket parameters; `None` disables rate limiting.
    pub rate: Option<RateConfig>,
    /// Result-cache configuration (capacity, optional disk tier).
    pub cache: CacheConfig,
    /// Query work limits.
    pub limits: Limits,
    /// HTTP message limits.
    pub http: HttpLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 256,
            request_deadline: Duration::from_secs(10),
            read_timeout: Duration::from_secs(5),
            rate: None,
            cache: CacheConfig::default(),
            limits: Limits::default(),
            http: HttpLimits::default(),
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    cache: ContentCache,
    limiter: Option<RateLimiter>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    draining: AtomicBool,
}

impl Shared {
    fn counter(&self, name: &str) {
        ola_core::obs::registry().counter(name).inc();
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`Server::drain_and_join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the server (accept thread + worker pool).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration io errors.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        ola_core::obs::init();
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            limiter: cfg.rate.map(RateLimiter::new),
            cache: ContentCache::new(cfg.cache.clone()),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ola-serve-accept".into())
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ola-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Server { addr, shared, threads })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain was requested (endpoint or handle).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Initiates graceful drain and blocks until every queued and
    /// in-flight request has been answered and all threads exited.
    pub fn drain_and_join(self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.counter("ola.serve.drains");
        self.shared.queue_cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.counter("ola.serve.connections");
                if shared.draining.load(Ordering::SeqCst) {
                    refuse(stream, 503, "draining", None);
                    continue;
                }
                let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
                if queue.len() >= shared.cfg.queue_depth {
                    drop(queue);
                    shared.counter("ola.serve.rejected_queue_full");
                    refuse(stream, 429, "server saturated", Some(1));
                    continue;
                }
                queue.push_back(stream);
                let depth = queue.len();
                drop(queue);
                #[allow(clippy::cast_possible_wrap)]
                ola_core::obs::registry().gauge("ola.serve.queue_depth").set(depth as i64);
                shared.queue_cv.notify_one();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Best-effort one-shot rejection on the accept thread: blocking write of
/// a tiny response, then close.
fn refuse(stream: TcpStream, status: u16, message: &str, retry_after: Option<u64>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut resp = Response::json(status, wire::error_body(message));
    if let Some(secs) = retry_after {
        resp.headers.push(("Retry-After".into(), secs.to_string()));
    }
    resp.headers.push(("Connection".into(), "close".into()));
    let mut stream = stream;
    let _ = http::write_response(&mut stream, &resp);
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _timeout) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
            }
        };
        let Some(stream) = stream else { return };
        serve_connection(shared, stream);
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(()) = stream.set_nonblocking(false) else { return };
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    // Responses larger than one MSS would otherwise pay Nagle + delayed
    // ACK (~40 ms) on their trailing segment.
    let _ = stream.set_nodelay(true);
    let peer: Option<IpAddr> = stream.peer_addr().ok().map(|a| a.ip());
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        let req = match http::read_request(&mut reader, &shared.cfg.http) {
            Ok(Some(req)) => req,
            // Clean EOF, malformed framing, or read timeout: drop the
            // connection (a malformed message gets one parting 400).
            Ok(None) => return,
            Err(http::HttpError::Malformed(m)) => {
                shared.counter("ola.serve.malformed");
                let mut resp = Response::json(400, wire::error_body(&m));
                resp.headers.push(("Connection".into(), "close".into()));
                let _ = http::write_response(&mut writer, &resp);
                return;
            }
            Err(http::HttpError::Io(_)) => return,
        };
        let close_after = http::wants_close(&req.headers) || shared.draining.load(Ordering::SeqCst);
        let started = Instant::now();
        shared.counter("ola.serve.requests");
        let mut resp = handle(shared, peer, &req);
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        ola_core::obs::registry().histogram("ola.serve.request_us").observe(us);
        shared.counter(match resp.status {
            200..=299 => "ola.serve.responses_2xx",
            400..=499 => "ola.serve.responses_4xx",
            _ => "ola.serve.responses_5xx",
        });
        let close_after = close_after || shared.draining.load(Ordering::SeqCst);
        if close_after {
            resp.headers.push(("Connection".into(), "close".into()));
        }
        if http::write_response(&mut writer, &resp).is_err() || close_after {
            return;
        }
    }
}

fn handle(shared: &Arc<Shared>, peer: Option<IpAddr>, req: &Request) -> Response {
    if let (Some(limiter), Some(ip)) = (shared.limiter.as_ref(), peer) {
        if let RateDecision::Deny { retry_after_secs } = limiter.check(ip) {
            shared.counter("ola.serve.rejected_rate_limited");
            let mut resp = Response::json(429, wire::error_body("rate limit exceeded"));
            resp.headers.push(("Retry-After".into(), retry_after_secs.to_string()));
            return resp;
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            json::JsonValue::Object(vec![
                ("ok".into(), json::JsonValue::Bool(true)),
                ("draining".into(), json::JsonValue::Bool(shared.draining.load(Ordering::SeqCst))),
            ])
            .render(),
        ),
        ("GET", "/metrics") => Response::json(200, wire::metrics_body()),
        ("POST", "/admin/drain") => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.counter("ola.serve.drains");
            shared.queue_cv.notify_all();
            Response::json(
                200,
                json::JsonValue::Object(vec![("draining".into(), json::JsonValue::Bool(true))])
                    .render(),
            )
        }
        ("POST", "/query") => handle_query(shared, req),
        ("GET" | "POST", _) => Response::json(404, wire::error_body("no such endpoint")),
        _ => Response::json(405, wire::error_body("method not allowed")),
    }
}

fn handle_query(shared: &Arc<Shared>, req: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::json(400, wire::error_body("body must be utf-8 JSON"));
    };
    let parsed = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::json(400, wire::error_body(&format!("invalid JSON: {e}"))),
    };
    let query = match Query::from_json(&parsed, &shared.cfg.limits) {
        Ok(q) => q,
        Err(QueryError::BadRequest(m)) => return Response::json(400, wire::error_body(&m)),
    };
    let key = query.cache_key();
    // The whole compute path — chaos injection, deadline, cache fill — is
    // unwind-isolated: a panic answers this request with 500 and the
    // worker thread lives on.
    let outcome = catch_unwind(AssertUnwindSafe(|| run_query(shared, &query, &key)));
    match outcome {
        Ok(Ok((bytes, lookup))) => {
            let mut resp = Response {
                status: 200,
                headers: vec![
                    ("Content-Type".into(), "application/json".into()),
                    ("X-Ola-Cache".into(), lookup.label().into()),
                    ("X-Ola-Key".into(), key.hex().into()),
                ],
                body: (*bytes).clone(),
            };
            if lookup.is_hit() {
                shared.counter("ola.serve.cache_served");
            }
            resp.headers.push(("X-Ola-Experiment".into(), wire::experiment_name(&query, &key)));
            resp
        }
        Ok(Err(QueryError::BadRequest(m))) => Response::json(400, wire::error_body(&m)),
        Err(payload) if is_cancel_payload(payload.as_ref()) => {
            shared.counter("ola.serve.deadline_cancelled");
            Response::json(503, wire::error_body("deadline exceeded"))
        }
        Err(_) => {
            shared.counter("ola.serve.panics");
            Response::json(500, wire::error_body("internal error (worker panic)"))
        }
    }
}

type QueryOutcome = Result<(Arc<Vec<u8>>, ola_core::Lookup), QueryError>;

fn run_query(shared: &Arc<Shared>, query: &Query, key: &CacheKey) -> QueryOutcome {
    if chaos::serve_panic_forced() {
        panic!("chaos: forced worker panic (OLA_CHAOS_SERVE_PANIC)");
    }
    let token = CancelToken::with_deadline(shared.cfg.request_deadline);
    let _guard = install_ambient(token);
    shared.cache.get_or_compute(key, || wire::fill_body(query, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn start_test_server(cfg: ServerConfig) -> Server {
        Server::start(cfg).expect("bind test server")
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
        request(addr, "POST", path, body)
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        http::write_request(
            &mut writer,
            &Request {
                method: method.into(),
                path: path.into(),
                headers: vec![("Connection".into(), "close".into())],
                body: body.as_bytes().to_vec(),
            },
        )
        .unwrap();
        http::read_response(&mut reader, &HttpLimits::default()).unwrap().expect("response")
    }

    const QUERY: &str = r#"{"kind":"lint","expr":"y = a * 0.5 + b","width":3}"#;

    #[test]
    fn end_to_end_query_hits_cache_on_second_request() {
        let server = start_test_server(ServerConfig::default());
        let addr = server.addr();

        let health = request(addr, "GET", "/healthz", "");
        assert_eq!(health.status, 200);

        let first = post(addr, "/query", QUERY);
        assert_eq!(first.status, 200, "{:?}", String::from_utf8_lossy(&first.body));
        assert_eq!(http::header(&first.headers, "x-ola-cache"), Some("miss"));

        let second = post(addr, "/query", QUERY);
        assert_eq!(second.status, 200);
        let how = http::header(&second.headers, "x-ola-cache").unwrap();
        assert!(how == "hit" || how == "coalesced", "cached: {how}");
        assert_eq!(second.body, first.body, "cache hit is bit-identical, manifest included");
        assert_eq!(
            http::header(&first.headers, "x-ola-key"),
            http::header(&second.headers, "x-ola-key")
        );

        let bad = post(addr, "/query", r#"{"kind":"nope","expr":"y = a"}"#);
        assert_eq!(bad.status, 400);
        let event = post(addr, "/query", r#"{"kind":"sweep","expr":"y = a","backend":"event"}"#);
        assert_eq!(event.status, 400, "the event engine is not served");
        let missing = request(addr, "GET", "/nowhere", "");
        assert_eq!(missing.status, 404);

        server.drain_and_join();
    }

    #[test]
    fn drain_endpoint_stops_new_work_and_joins_cleanly() {
        let server = start_test_server(ServerConfig::default());
        let addr = server.addr();
        assert_eq!(post(addr, "/query", QUERY).status, 200);

        let drain = post(addr, "/admin/drain", "");
        assert_eq!(drain.status, 200);
        assert!(server.is_draining());

        // New connections are refused while draining.
        std::thread::sleep(Duration::from_millis(20));
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let _ = http::write_request(
                &mut writer,
                &Request {
                    method: "GET".into(),
                    path: "/healthz".into(),
                    headers: vec![],
                    body: vec![],
                },
            );
            if let Ok(Some(resp)) = http::read_response(&mut reader, &HttpLimits::default()) {
                assert_eq!(resp.status, 503, "draining server refuses new connections");
            }
        }
        server.drain_and_join();
    }

    #[test]
    fn worker_panic_yields_500_and_the_server_survives() {
        let server = start_test_server(ServerConfig::default());
        let addr = server.addr();

        std::env::set_var(chaos::SERVE_PANIC, "1");
        let crashed = post(addr, "/query", QUERY);
        std::env::remove_var(chaos::SERVE_PANIC);
        assert_eq!(crashed.status, 500, "panic becomes a 500");

        // Same worker pool still answers.
        let after = post(addr, "/query", QUERY);
        assert_eq!(after.status, 200, "server survived the panic");
        server.drain_and_join();
    }

    #[test]
    fn rate_limit_sheds_with_429_and_retry_after() {
        let server = start_test_server(ServerConfig {
            rate: Some(RateConfig { capacity: 2.0, refill_per_sec: 0.001 }),
            ..ServerConfig::default()
        });
        let addr = server.addr();
        assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
        assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
        let shed = request(addr, "GET", "/healthz", "");
        assert_eq!(shed.status, 429);
        assert!(http::header(&shed.headers, "retry-after").is_some());
        server.drain_and_join();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = start_test_server(ServerConfig::default());
        let addr = server.addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for _ in 0..5 {
            http::write_request(
                &mut writer,
                &Request {
                    method: "POST".into(),
                    path: "/query".into(),
                    headers: vec![],
                    body: QUERY.as_bytes().to_vec(),
                },
            )
            .unwrap();
            let resp = http::read_response(&mut reader, &HttpLimits::default())
                .unwrap()
                .expect("kept alive");
            assert_eq!(resp.status, 200);
        }
        drop(writer);
        server.drain_and_join();
    }
}
