//! Chaos harness for the resilient execution engine.
//!
//! Spawns the `repro` binary (a sibling of this executable) in scratch
//! working directories, injects faults through the `OLA_CHAOS_*`
//! environment hooks (see [`ola_core::resilience::chaos`]) plus one
//! manual on-disk corruption, and asserts the recovery invariants the
//! checkpoint/resume design promises:
//!
//! 1. **abort/resume** — a process killed at a clean frame boundary
//!    (exit 86) resumes with `--resume` and produces CSVs *bit-identical*
//!    to an uninterrupted run;
//! 2. **torn frame** — a process killed mid-append leaves half a frame;
//!    resume quarantines the damaged tail (`repro.ckpt.quarantined`),
//!    records it in every manifest of the resumed run
//!    (`resilience.quarantined`), and still completes bit-identically;
//! 3. **tamper** — a flipped byte inside a committed frame fails its
//!    SHA-256 check; the damaged suffix is quarantined, never replayed;
//! 4. **panic** — an injected panic inside one experiment yields partial
//!    results (exit 1); `--resume` completes the run bit-identically.
//! 5. **serve panic** — a worker panic mid-request (`OLA_CHAOS_SERVE_PANIC`)
//!    against a live in-process `ola-serve` answers that request with 500
//!    and the server keeps serving;
//! 6. **cache rot** — a tampered cache entry (`OLA_CHAOS_CACHE_TAMPER`
//!    flips a stored byte) fails its SHA-256 re-check on read, is
//!    recomputed, and the served *result* matches the pre-rot answer —
//!    rot is never served.
//!
//! Exit 0 when every scenario holds, 1 otherwise. The scratch root,
//! `$TMPDIR/ola_chaos_<pid>`, is removed on every exit, a panic included;
//! `repro`'s inherited output is the transcript. CI runs this after the
//! test suite; it needs no network (the serve scenarios bind loopback)
//! and about as long as a handful of `repro --quick sta` runs.

use ola_serve::http::{self, HttpLimits, Request};
use ola_serve::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// A completed `repro` invocation: exit code plus every `results/*.csv`.
struct RunResult {
    code: i32,
    csvs: BTreeMap<String, Vec<u8>>,
}

fn repro_bin() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let repro = me.with_file_name(if cfg!(windows) { "repro.exe" } else { "repro" });
    assert!(repro.exists(), "repro binary not found next to chaos_check at {}", repro.display());
    repro
}

/// Runs `repro` with `args` in `dir`, with the given extra environment,
/// inheriting stdout/stderr (the transcript is the debugging artifact).
fn run_repro(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> RunResult {
    std::fs::create_dir_all(dir).expect("scratch dir");
    let mut cmd = Command::new(repro_bin());
    cmd.args(args).current_dir(dir);
    // Chaos hooks must never leak between scenarios.
    for var in [
        ola_core::resilience::chaos::ABORT_AFTER_FRAMES,
        ola_core::resilience::chaos::TORN_FRAME,
        ola_core::resilience::chaos::PANIC,
        ola_core::resilience::chaos::SERVE_PANIC,
        ola_core::resilience::chaos::CACHE_TAMPER,
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    let status = cmd.status().expect("spawn repro");
    RunResult { code: status.code().unwrap_or(-1), csvs: read_csvs(dir) }
}

fn read_csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let results = dir.join("results");
    let Ok(entries) = std::fs::read_dir(&results) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path
                .file_name()
                .expect("read_dir entries carry file names")
                .to_string_lossy()
                .into_owned();
            out.insert(name, std::fs::read(&path).expect("read csv"));
        }
    }
    out
}

/// True when `dir` holds run manifests and each carries annotation `key`.
fn manifests_annotate(dir: &Path, key: &str) -> bool {
    let Ok(entries) = std::fs::read_dir(dir.join("results").join("manifests")) else {
        return false;
    };
    let annotated = |path: &Path| {
        let doc = ola_core::obs::json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
        doc.get("annotations")?.get(key).map(|_| ())
    };
    let paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    !paths.is_empty() && paths.iter().all(|p| annotated(p).is_some())
}

fn ckpt(dir: &Path) -> PathBuf {
    dir.join("results").join("checkpoints").join("repro.ckpt")
}

/// Compares two CSV sets byte-for-byte, reporting every difference.
fn identical(
    label: &str,
    got: &BTreeMap<String, Vec<u8>>,
    want: &BTreeMap<String, Vec<u8>>,
) -> bool {
    let mut ok = true;
    for (name, bytes) in want {
        match got.get(name) {
            None => {
                eprintln!("  [{label}] missing CSV {name}");
                ok = false;
            }
            Some(b) if b != bytes => {
                eprintln!("  [{label}] CSV {name} differs ({} vs {} bytes)", b.len(), bytes.len());
                ok = false;
            }
            Some(_) => {}
        }
    }
    for name in got.keys() {
        if !want.contains_key(name) {
            eprintln!("  [{label}] unexpected extra CSV {name}");
            ok = false;
        }
    }
    ok
}

/// The analysis query both serve scenarios use (small enough to compute
/// in milliseconds, real enough to exercise the full pipeline).
const SERVE_QUERY: &str =
    r#"{"kind":"sweep","expr":"y = a * 0.5 + b","width":3,"ts_points":3,"samples":8}"#;

/// POSTs one query to the in-process server over loopback and returns the
/// response (`Connection: close`, one exchange per connection).
fn post_query(addr: std::net::SocketAddr, query: &str) -> ola_serve::Response {
    let stream = TcpStream::connect(addr).expect("connect to chaos serve");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    http::write_request(
        &mut writer,
        &Request {
            method: "POST".into(),
            path: "/query".into(),
            headers: vec![("Connection".into(), "close".into())],
            body: query.as_bytes().to_vec(),
        },
    )
    .expect("send query");
    http::read_response(&mut reader, &HttpLimits::default())
        .expect("read response")
        .expect("one response")
}

/// The rendered `result` portion of a serve response body (the manifest
/// portion legitimately differs between fills — its timestamp is frozen
/// per fill, not per query).
fn result_portion(body: &[u8]) -> Option<String> {
    let doc = ola_core::obs::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some(doc.get("result")?.render())
}

struct Harness {
    root: PathBuf,
    failures: Vec<String>,
}

impl Harness {
    fn check(&mut self, scenario: &str, ok: bool) {
        if ok {
            eprintln!("[chaos] {scenario}: PASS");
        } else {
            eprintln!("[chaos] {scenario}: FAIL");
            self.failures.push(scenario.to_owned());
        }
    }

    fn dir(&self, scenario: &str) -> PathBuf {
        self.root.join(scenario)
    }
}

/// The scratch root goes on every exit: a pass, a failed check, or a
/// panicking scenario.
impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let root = std::env::temp_dir().join(format!("ola_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut h = Harness { root, failures: Vec::new() };

    // Ground truth: one uninterrupted quick STA run.
    eprintln!("[chaos] baseline: repro --quick sta");
    let baseline = run_repro(&h.dir("baseline"), &["--quick", "sta"], &[]);
    h.check("baseline exit 0", baseline.code == 0);
    h.check("baseline produced CSVs", !baseline.csvs.is_empty());

    // 1. Abort at a clean frame boundary, then resume.
    // Frames for `--quick sta`: header, unit n8, unit n16, done — abort
    // after the second (the first completed unit).
    {
        let dir = h.dir("abort");
        let killed = run_repro(
            &dir,
            &["--quick", "sta"],
            &[(ola_core::resilience::chaos::ABORT_AFTER_FRAMES, "2")],
        );
        h.check(
            "abort: chaos exit 86",
            killed.code == ola_core::resilience::checkpoint::CHAOS_EXIT,
        );
        let resumed = run_repro(&dir, &["--quick", "sta", "--resume"], &[]);
        h.check("abort: resume exit 0", resumed.code == 0);
        let ok = identical("abort", &resumed.csvs, &baseline.csvs);
        h.check("abort: resumed CSVs bit-identical to baseline", ok);
    }

    // 2. Kill mid-append: half a frame on disk. Resume must quarantine
    // the torn tail and still finish bit-identically.
    {
        let dir = h.dir("torn");
        let killed =
            run_repro(&dir, &["--quick", "sta"], &[(ola_core::resilience::chaos::TORN_FRAME, "2")]);
        h.check("torn: chaos exit 86", killed.code == ola_core::resilience::checkpoint::CHAOS_EXIT);
        let resumed = run_repro(&dir, &["--quick", "sta", "--resume"], &[]);
        h.check("torn: resume exit 0", resumed.code == 0);
        let quarantined = ola_core::resilience::checkpoint::quarantine_path(&ckpt(&dir)).exists();
        h.check("torn: damaged tail quarantined", quarantined);
        let recorded = manifests_annotate(&dir, "resilience.quarantined");
        h.check("torn: resumed manifests record the quarantine", recorded);
        let ok = identical("torn", &resumed.csvs, &baseline.csvs);
        h.check("torn: resumed CSVs bit-identical to baseline", ok);
    }

    // 3. Bit-rot: flip one byte inside a committed frame's payload. The
    // frame digest must catch it and resume must not replay the damage.
    {
        let dir = h.dir("tamper");
        let first = run_repro(&dir, &["--quick", "sta"], &[]);
        h.check("tamper: setup run exit 0", first.code == 0);
        let path = ckpt(&dir);
        let mut bytes = std::fs::read(&path).expect("checkpoint exists");
        // Flip a byte well inside the *second* frame's payload region so
        // the header frame stays valid and the run parameters still match.
        let first_len = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice")) as usize;
        let second_payload = 40 + first_len + 40;
        assert!(second_payload + 8 < bytes.len(), "checkpoint long enough to tamper");
        bytes[second_payload + 8] ^= 0x40;
        std::fs::write(&path, &bytes).expect("tamper write");
        let resumed = run_repro(&dir, &["--quick", "sta", "--resume"], &[]);
        h.check("tamper: resume exit 0", resumed.code == 0);
        h.check(
            "tamper: damaged suffix quarantined",
            ola_core::resilience::checkpoint::quarantine_path(&path).exists(),
        );
        let ok = identical("tamper", &resumed.csvs, &baseline.csvs);
        h.check("tamper: recomputed CSVs bit-identical to baseline", ok);
    }

    // 4. Injected panic inside one experiment: partial results (exit 1),
    // the sibling experiment still completes, and resume finishes the job.
    {
        let dir = h.dir("panic");
        let crashed = run_repro(
            &dir,
            &["--quick", "sta", "lint"],
            &[(ola_core::resilience::chaos::PANIC, "sta")],
        );
        h.check("panic: injected panic yields partial results (exit 1)", crashed.code == 1);
        h.check("panic: sibling experiment still wrote CSVs", !crashed.csvs.is_empty());
        let resumed = run_repro(&dir, &["--quick", "sta", "lint", "--resume"], &[]);
        h.check("panic: resume exit 0", resumed.code == 0);
        // Only the sta CSVs have a baseline; lint's CSV came from the
        // crashed run's own (successful) lint pass.
        let sta_ok = baseline
            .csvs
            .iter()
            .all(|(name, bytes)| resumed.csvs.get(name).is_some_and(|b| b == bytes));
        h.check("panic: resumed sta CSVs bit-identical to baseline", sta_ok);
    }

    // 5. Worker panic mid-request against a live server: the poisoned
    // request answers 500, the worker survives, and the very next request
    // on the same pool answers 200.
    {
        let server = Server::start(ServerConfig::default()).expect("bind chaos serve");
        let addr = server.addr();
        std::env::set_var(ola_core::resilience::chaos::SERVE_PANIC, "1");
        let crashed = post_query(addr, SERVE_QUERY);
        std::env::remove_var(ola_core::resilience::chaos::SERVE_PANIC);
        h.check("serve panic: poisoned request answers 500", crashed.status == 500);
        let after = post_query(addr, SERVE_QUERY);
        h.check("serve panic: server stays up and answers 200", after.status == 200);
        server.drain_and_join();
    }

    // 6. Cache rot: the tamper hook flips a byte inside the *stored* cache
    // entry at fill time. The integrity re-hash on the next read must
    // reject the entry (never serve rot) and recompute; the recomputed
    // result matches the clean answer bit-for-bit (only the embedded
    // manifest timestamp may differ between fills).
    {
        let server = Server::start(ServerConfig::default()).expect("bind chaos serve");
        let addr = server.addr();
        std::env::set_var(ola_core::resilience::chaos::CACHE_TAMPER, "1");
        let clean = post_query(addr, SERVE_QUERY);
        h.check("cache rot: tampered fill still answers the caller clean", clean.status == 200);
        let reread = post_query(addr, SERVE_QUERY);
        std::env::remove_var(ola_core::resilience::chaos::CACHE_TAMPER);
        h.check("cache rot: re-read answers 200", reread.status == 200);
        let recomputed = http::header(&reread.headers, "x-ola-cache") == Some("miss");
        h.check("cache rot: rotten entry rejected and recomputed, not served", recomputed);
        h.check(
            "cache rot: recomputed result identical to the clean answer",
            result_portion(&clean.body) == result_portion(&reread.body)
                && result_portion(&clean.body).is_some(),
        );
        let tamper_rejected = ola_core::obs::registry()
            .snapshot()
            .counters
            .get("ola.cache.tamper_rejected")
            .copied()
            .unwrap_or(0);
        h.check("cache rot: integrity check counted the rejection", tamper_rejected >= 1);
        server.drain_and_join();
    }

    if h.failures.is_empty() {
        eprintln!("[chaos] all scenarios passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("[chaos] {} scenario check(s) FAILED:", h.failures.len());
        for f in &h.failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}
