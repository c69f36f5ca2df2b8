//! Per-experiment run manifests.
//!
//! A [`RunManifest`] certifies one `repro` experiment run: what was run
//! (experiment name, backend, scale, seeds), in what environment (git
//! describe, `OLA_THREADS` resolution, trace mode), what happened (span
//! timings, metric snapshot deltas, free-form annotations), and exactly
//! which bytes were produced ([`OutputRecord`] with size and SHA-256 per
//! emitted file). The schema is versioned ([`SCHEMA`]) and covered by a
//! golden test in `ola-bench`; the CI `manifest_check` binary re-parses
//! every manifest and re-hashes every listed output.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::obs::json::JsonValue;
use crate::obs::registry::MetricSnapshot;
use crate::obs::sha256;
use crate::obs::trace::SpanRecord;

/// The manifest schema identifier. Bump the suffix on breaking changes.
pub const SCHEMA: &str = "ola.run-manifest/v1";

/// One emitted results file: where it is, how big, and its SHA-256.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputRecord {
    /// Path as recorded (relative to the repo root in `repro` runs).
    pub path: String,
    /// File size in bytes at hashing time.
    pub bytes: u64,
    /// Lowercase hex SHA-256 of the file contents.
    pub sha256: String,
}

impl OutputRecord {
    /// Hashes the file at `path`, recording it under `label`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (missing file, permissions).
    pub fn capture(label: &str, path: &Path) -> io::Result<OutputRecord> {
        let bytes = std::fs::metadata(path)?.len();
        let sha256 = sha256::file_digest(path)?;
        Ok(OutputRecord { path: label.to_owned(), bytes, sha256 })
    }
}

/// How `OLA_THREADS` resolved for this run.
///
/// Kept in the manifest — never in the metrics registry — so metric
/// snapshots stay bit-identical across thread counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadsRecord {
    /// The raw environment value, if set.
    pub raw: Option<String>,
    /// The worker count actually used.
    pub resolved: u64,
    /// True when `raw` was present but unusable and the hardware default
    /// was substituted.
    pub fallback: bool,
}

/// A complete run manifest for one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Experiment name (e.g. `fig4`).
    pub experiment: String,
    /// Wall-clock creation time, milliseconds since the Unix epoch.
    pub created_unix_ms: u64,
    /// `git describe --always --dirty` of the working tree, or `unknown`.
    pub git: String,
    /// The engine that ran: [`engine_label`] of the experiment's metric
    /// delta in `repro` runs, the query's engine label (or `none`) in
    /// served ones.
    pub backend: String,
    /// The `--scale` factor the run used.
    pub scale: f64,
    /// Named master seeds, in registration order.
    pub seeds: Vec<(String, u64)>,
    /// `OLA_THREADS` resolution.
    pub ola_threads: ThreadsRecord,
    /// Trace mode label (`off` / `pretty` / `json`).
    pub trace: String,
    /// Free-form `key = value` annotations (Ts grids, sweep shapes, …).
    pub annotations: Vec<(String, String)>,
    /// Spans recorded during the experiment (drained from the ring).
    pub spans: Vec<SpanRecord>,
    /// Metric snapshot delta attributable to this experiment.
    pub metrics: MetricSnapshot,
    /// Every results file the experiment emitted, hashed.
    pub outputs: Vec<OutputRecord>,
}

impl RunManifest {
    /// Creation timestamp helper: now, in Unix milliseconds.
    #[must_use]
    pub fn now_unix_ms() -> u64 {
        let ms = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_millis();
        u64::try_from(ms).unwrap_or(u64::MAX)
    }

    /// The manifest as a JSON document (stable field order).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let seeds = JsonValue::Object(
            self.seeds.iter().map(|(k, v)| (k.clone(), JsonValue::U64(*v))).collect(),
        );
        let threads = JsonValue::Object(vec![
            ("raw".into(), self.ola_threads.raw.clone().map_or(JsonValue::Null, JsonValue::Str)),
            ("resolved".into(), JsonValue::U64(self.ola_threads.resolved)),
            ("fallback".into(), JsonValue::Bool(self.ola_threads.fallback)),
        ]);
        let annotations = JsonValue::Object(
            self.annotations.iter().map(|(k, v)| (k.clone(), JsonValue::str(v.clone()))).collect(),
        );
        let spans = JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::Object(vec![
                        ("name".into(), JsonValue::str(s.name.to_string())),
                        ("thread".into(), JsonValue::U64(s.thread)),
                        ("depth".into(), JsonValue::U64(u64::from(s.depth))),
                        ("start_unix_ms".into(), JsonValue::U64(s.start_unix_ms)),
                        ("start_us".into(), JsonValue::U64(s.start_us)),
                        ("dur_us".into(), JsonValue::U64(s.dur_us)),
                    ])
                })
                .collect(),
        );
        let metrics = JsonValue::Object(vec![
            (
                "counters".into(),
                JsonValue::Object(
                    self.metrics
                        .counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), JsonValue::U64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                JsonValue::Object(
                    self.metrics
                        .gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), JsonValue::int(v)))
                        .collect(),
                ),
            ),
        ]);
        let outputs = JsonValue::Array(
            self.outputs
                .iter()
                .map(|o| {
                    JsonValue::Object(vec![
                        ("path".into(), JsonValue::str(o.path.clone())),
                        ("bytes".into(), JsonValue::U64(o.bytes)),
                        ("sha256".into(), JsonValue::str(o.sha256.clone())),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("schema".into(), JsonValue::str(SCHEMA)),
            ("experiment".into(), JsonValue::str(self.experiment.clone())),
            ("created_unix_ms".into(), JsonValue::U64(self.created_unix_ms)),
            ("git".into(), JsonValue::str(self.git.clone())),
            ("backend".into(), JsonValue::str(self.backend.clone())),
            ("scale".into(), JsonValue::F64(self.scale)),
            ("seeds".into(), seeds),
            ("ola_threads".into(), threads),
            ("trace".into(), JsonValue::str(self.trace.clone())),
            ("annotations".into(), annotations),
            ("spans".into(), spans),
            ("metrics".into(), metrics),
            ("outputs".into(), outputs),
        ])
    }

    /// Writes `<dir>/<experiment>.json` (pretty-printed, trailing newline),
    /// creating `dir` first. Returns the path written.
    ///
    /// The write is atomic (tmp file + rename), so a crash mid-write never
    /// leaves a truncated manifest for `manifest_check` to choke on.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        let mut text = self.to_json().render_pretty();
        text.push('\n');
        crate::resilience::atomic_write(&path, text.as_bytes())?;
        Ok(path)
    }
}

/// The engines a run used, read from its metric delta: `batch` or `event`
/// when only that engine's run counter (`ola.batch.runs`,
/// `ola.sim.event.runs`) moved, `batch+event` when both did, and `none`
/// when neither did.
#[must_use]
pub fn engine_label(metrics: &MetricSnapshot) -> &'static str {
    let ran = |name: &str| metrics.counters.get(name).is_some_and(|&runs| runs > 0);
    match (ran("ola.batch.runs"), ran("ola.sim.event.runs")) {
        (true, false) => "batch",
        (false, true) => "event",
        (true, true) => "batch+event",
        (false, false) => "none",
    }
}

/// `git describe --always --dirty` of the current working tree, or
/// `"unknown"` when git is unavailable (e.g. a source tarball).
#[must_use]
pub fn git_describe() -> String {
    let out = std::process::Command::new("git").args(["describe", "--always", "--dirty"]).output();
    match out {
        Ok(o) if o.status.success() => {
            let s = String::from_utf8_lossy(&o.stdout).trim().to_owned();
            if s.is_empty() {
                "unknown".to_owned()
            } else {
                s
            }
        }
        _ => "unknown".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;
    use std::borrow::Cow;

    fn sample() -> RunManifest {
        RunManifest {
            experiment: "unit".into(),
            created_unix_ms: 1_700_000_000_000,
            git: "abc1234-dirty".into(),
            backend: "batch".into(),
            scale: 0.25,
            seeds: vec![("mc".into(), 2014)],
            ola_threads: ThreadsRecord { raw: Some("4".into()), resolved: 4, fallback: false },
            trace: "off".into(),
            annotations: vec![("ts_grid".into(), "10..200 step 10".into())],
            spans: vec![SpanRecord {
                name: Cow::Borrowed("experiment.unit"),
                thread: 1,
                depth: 0,
                start_unix_ms: 1_700_000_000_000,
                start_us: 12,
                dur_us: 3_456,
            }],
            metrics: {
                let mut m = MetricSnapshot::default();
                m.counters.insert("ola.sim.event.runs".into(), 7);
                m.gauges.insert("ola.batch.depth".into(), 19);
                m
            },
            outputs: vec![OutputRecord {
                path: "results/unit.csv".into(),
                bytes: 10,
                sha256: "0".repeat(64),
            }],
        }
    }

    #[test]
    fn manifest_json_has_the_full_schema_field_set() {
        let v = sample().to_json();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
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
                "outputs"
            ]
        );
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(v.get("seeds").unwrap().get("mc").unwrap().as_u64(), Some(2014));
        let threads = v.get("ola_threads").unwrap();
        assert_eq!(threads.get("resolved").unwrap().as_u64(), Some(4));
        assert_eq!(threads.get("fallback"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn write_then_parse_roundtrips() {
        let dir = std::env::temp_dir().join(format!("ola_manifest_{}", std::process::id()));
        let m = sample();
        let path = m.write(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = json::parse(&text).unwrap();
        assert_eq!(parsed, m.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn output_record_hashes_real_bytes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ola_manifest_out_{}.bin", std::process::id()));
        std::fs::write(&path, b"hello manifest").unwrap();
        let rec = OutputRecord::capture("results/x.bin", &path).unwrap();
        assert_eq!(rec.path, "results/x.bin");
        assert_eq!(rec.bytes, 14);
        assert_eq!(rec.sha256, sha256::hex_digest(b"hello manifest"));
        let _ = std::fs::remove_file(&path);
        assert!(OutputRecord::capture("gone", &path).is_err());
    }

    #[test]
    fn git_describe_never_panics() {
        let s = git_describe();
        assert!(!s.is_empty());
    }

    #[test]
    fn engine_label_names_the_engines_whose_runs_moved() {
        let delta = |batch: u64, event: u64| MetricSnapshot {
            counters: [("ola.batch.runs".into(), batch), ("ola.sim.event.runs".into(), event)]
                .into(),
            ..MetricSnapshot::default()
        };
        assert_eq!(engine_label(&delta(3, 0)), "batch");
        assert_eq!(engine_label(&delta(0, 5)), "event");
        assert_eq!(engine_label(&delta(3, 5)), "batch+event");
        assert_eq!(engine_label(&delta(0, 0)), "none");
    }
}
