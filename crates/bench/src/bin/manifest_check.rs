//! Validates the run manifests a `repro` invocation left behind.
//!
//! For every `results/manifests/*.json` (or the manifests named on the
//! command line), this checks that:
//!
//! * the document parses as JSON and carries the expected
//!   [`ola_core::obs::SCHEMA`] identifier,
//! * the full top-level field set is present (golden schema),
//! * every listed output file still exists, has the recorded size, and
//!   re-hashes to the recorded SHA-256.
//!
//! Exit codes: `0` all manifests valid, `1` at least one check failed,
//! `2` usage error (e.g. the manifests directory is missing). CI runs
//! this right after `repro --quick` to catch schema drift and silent
//! output corruption.

use ola_core::obs::json::{parse, JsonValue};
use ola_core::obs::{sha256, SCHEMA};
use std::path::{Path, PathBuf};

/// Top-level fields every `ola.run-manifest/v1` document must carry, in
/// schema order. Kept in sync with `RunManifest::to_json` by the golden
/// test in `ola-bench`.
const FIELDS: [&str; 13] = [
    "schema",
    "experiment",
    "created_unix_ms",
    "git",
    "backend",
    "scale",
    "seeds",
    "ola_threads",
    "trace",
    "annotations",
    "spans",
    "metrics",
    "outputs",
];

/// One manifest's validation: returns the list of problems found.
fn check_manifest(path: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => return vec![format!("JSON parse error: {e}")],
    };
    let Some(fields) = doc.as_object() else {
        return vec!["top level is not an object".to_string()];
    };

    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => problems.push(format!("schema {s:?}, expected {SCHEMA:?}")),
        None => problems.push("missing string field \"schema\"".to_string()),
    }
    for want in FIELDS {
        if !fields.iter().any(|(k, _)| k == want) {
            problems.push(format!("missing field {want:?}"));
        }
    }
    for (k, _) in fields {
        if !FIELDS.contains(&k.as_str()) {
            problems.push(format!("unexpected field {k:?} (schema drift?)"));
        }
    }

    let outputs = doc.get("outputs").and_then(JsonValue::as_array);
    match outputs {
        None => problems.push("\"outputs\" is not an array".to_string()),
        Some(outputs) => {
            for (i, rec) in outputs.iter().enumerate() {
                let ctx = |what: &str| format!("outputs[{i}]: {what}");
                let Some(file) = rec.get("path").and_then(JsonValue::as_str) else {
                    problems.push(ctx("missing string \"path\""));
                    continue;
                };
                let (Some(bytes), Some(digest)) = (
                    rec.get("bytes").and_then(JsonValue::as_u64),
                    rec.get("sha256").and_then(JsonValue::as_str),
                ) else {
                    problems.push(ctx(&format!("{file}: missing \"bytes\" or \"sha256\"")));
                    continue;
                };
                match std::fs::metadata(file) {
                    Err(e) => problems.push(ctx(&format!("{file}: missing ({e})"))),
                    Ok(meta) if meta.len() != bytes => problems.push(ctx(&format!(
                        "{file}: size {} != recorded {bytes}",
                        meta.len()
                    ))),
                    Ok(_) => match sha256::file_digest(Path::new(file)) {
                        Err(e) => problems.push(ctx(&format!("{file}: unreadable ({e})"))),
                        Ok(actual) if actual != digest => problems.push(ctx(&format!(
                            "{file}: SHA-256 mismatch\n      recorded {digest}\n      actual   {actual}"
                        ))),
                        Ok(_) => {}
                    },
                }
            }
        }
    }
    problems
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: manifest_check [MANIFEST.json ...]");
        eprintln!("       (default: every results/manifests/*.json)");
        eprintln!("exit codes: 0 = all valid, 1 = check failed, 2 = usage/environment error");
        return;
    }
    let manifests: Vec<PathBuf> = if args.is_empty() {
        let dir = Path::new("results/manifests");
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cannot read {}: {e} (run `repro` first)", dir.display());
                std::process::exit(2);
            }
        };
        let mut found: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        found.sort();
        found
    } else {
        args.iter().map(PathBuf::from).collect()
    };
    if manifests.is_empty() {
        eprintln!("no manifests found under results/manifests/ (run `repro` first)");
        std::process::exit(2);
    }

    let mut bad = 0usize;
    for path in &manifests {
        let problems = check_manifest(path);
        if problems.is_empty() {
            eprintln!("OK   {}", path.display());
        } else {
            bad += 1;
            eprintln!("FAIL {}", path.display());
            for p in problems {
                eprintln!("    {p}");
            }
        }
    }
    if bad > 0 {
        eprintln!("{bad} of {} manifest(s) failed validation", manifests.len());
        std::process::exit(1);
    }
    eprintln!("all {} manifest(s) valid", manifests.len());
}
