//! End-to-end resume gate: a `repro` run killed by a chaos hook at a
//! frame boundary and resumed with `--resume` must emit CSVs that are
//! bit-identical to an uninterrupted run's. This is the acceptance
//! criterion of the crash-safe execution engine, held by `cargo test`
//! (the `chaos_check` binary covers the wider scenario matrix).

// Integration-test helpers sit outside `#[test]` fns, so clippy's
// `allow-unwrap-in-tests` doesn't reach them; a loud panic is still the
// right failure mode here.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ola_resume_repro")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).current_dir(dir);
    cmd.env_remove("OLA_CHAOS_ABORT_AFTER_FRAMES");
    for (k, v) in env {
        cmd.env(k, v);
    }
    // Quiet: the tables also land in results/, which is what we assert on.
    cmd.stdout(std::process::Stdio::null());
    cmd.stderr(std::process::Stdio::null());
    cmd.status().expect("spawn repro").code().unwrap_or(-1)
}

fn csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("results")).expect("results dir").flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "csv") {
            out.insert(
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            );
        }
    }
    out
}

#[test]
fn killed_run_resumes_bit_identically() {
    // Ground truth: one uninterrupted quick STA run.
    let clean = scratch("clean");
    assert_eq!(run(&clean, &["--quick", "sta"], &[]), 0, "clean run must succeed");
    let want = csvs(&clean);
    assert!(!want.is_empty(), "clean run must emit CSVs");

    // Kill after the first completed unit frame (header + unit n8 = 2),
    // then resume. Exit 86 is the chaos hooks' deliberate-abort code.
    let killed = scratch("killed");
    assert_eq!(
        run(&killed, &["--quick", "sta"], &[("OLA_CHAOS_ABORT_AFTER_FRAMES", "2")]),
        86,
        "chaos abort must exit 86"
    );
    assert_eq!(run(&killed, &["--quick", "sta", "--resume"], &[]), 0, "resume must succeed");

    let got = csvs(&killed);
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "resumed run must emit the same CSV set"
    );
    for (name, bytes) in &want {
        assert_eq!(&got[name], bytes, "{name} differs between clean and resumed run");
    }

    // Only this test's own directories: the tests run concurrently and
    // share the parent.
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&killed);
}

#[test]
fn resume_with_different_flags_discards_the_checkpoint() {
    // A checkpoint written by a --quick run must not splice into a resumed
    // run with different parameters (here: full scale, which analyzes one
    // more word length and a denser Ts grid).
    let full = scratch("mismatch_full");
    assert_eq!(run(&full, &["sta"], &[]), 0, "clean full run must succeed");
    let want = csvs(&full);

    let dir = scratch("mismatch");
    assert_eq!(run(&dir, &["--quick", "sta"], &[]), 0);
    let quick = csvs(&dir);
    assert_ne!(quick, want, "quick and full sta must differ for the test to bite");
    assert_eq!(
        run(&dir, &["sta", "--resume"], &[]),
        0,
        "mismatched resume still completes (fresh)"
    );
    // Spliced, the resumed run would replay the quick tables; discarded,
    // it recomputes every full-scale table. STA is simulation-free, so the
    // check stays fast.
    assert_eq!(csvs(&dir), want, "resumed run must equal a clean full run");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&full);
}
