//! Checkpoint/resume plumbing for the `repro` driver.
//!
//! A reproduction run appends every completed *work unit* (one or more
//! finished [`Table`]s plus any files the unit registered via
//! [`ola_core::obs::note_output`]) to a SHA-256-framed checkpoint file
//! (see [`ola_core::resilience::checkpoint`]). After a crash, `repro
//! --resume` replays the valid frames: experiments re-run with the same
//! [`ExperimentCtx`], and every unit that already has a frame returns its
//! recorded tables instantly instead of recomputing. Experiments whose
//! *done* frame landed are short-circuited entirely — the driver rebuilds
//! their tables straight from the checkpoint. Because unit seeds are
//! deterministic and [`Table::to_json`] is lossless, a resumed run's CSVs
//! are bit-identical to an uninterrupted run's.
//!
//! ## Frame kinds
//!
//! * `header` — binds the checkpoint to `(scale, all)` under header
//!   schema [`HEADER_SCHEMA`]; a mismatched or older header on `--resume`
//!   discards the checkpoint (resuming a quick run into a full run would
//!   splice tables from different sample counts);
//! * `unit` — `{experiment, unit, tables, noted}`: one completed work
//!   unit;
//! * `done` — `{experiment}`: every unit of the experiment landed and the
//!   driver persisted its CSVs.

use crate::report::Table;
use ola_core::obs::json::JsonValue;
use ola_core::obs::AnnotationScope;
use ola_core::resilience::checkpoint::{open_resumable, CheckpointWriter};
use ola_core::resilience::ResilienceError;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// The checkpoint header schema. Schema 1 also bound a `backend` label;
/// its checkpoints read as a mismatch and are discarded, not spliced.
pub const HEADER_SCHEMA: u64 = 2;

/// The checkpoint header: the run parameters that change what every
/// experiment computes. A resumed run must match them exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunHeader {
    /// Scale label (`quick` / `full`).
    pub scale: String,
    /// Extended lint coverage flag.
    pub all: bool,
}

impl RunHeader {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("kind".into(), JsonValue::str("header")),
            ("schema".into(), JsonValue::U64(HEADER_SCHEMA)),
            ("scale".into(), JsonValue::str(self.scale.clone())),
            ("all".into(), JsonValue::Bool(self.all)),
        ])
    }

    /// `None` for anything but a [`HEADER_SCHEMA`] header frame.
    fn from_json(v: &JsonValue) -> Option<RunHeader> {
        if v.get("schema")?.as_u64()? != HEADER_SCHEMA {
            return None;
        }
        Some(RunHeader {
            scale: v.get("scale")?.as_str()?.to_owned(),
            all: matches!(v.get("all")?, JsonValue::Bool(true)),
        })
    }
}

/// One replayable work unit: the tables it produced and the output files
/// it registered.
#[derive(Clone, Debug, Default)]
pub struct ReplayUnit {
    /// The unit's finished tables, in production order.
    pub tables: Vec<Table>,
    /// `(label, path)` pairs the unit registered via `note_output`.
    pub noted: Vec<(String, PathBuf)>,
}

struct Inner {
    /// `None` after an unrecoverable append failure: the run continues,
    /// it just stops being resumable (and says so once).
    writer: Option<CheckpointWriter>,
    units: HashMap<(String, String), ReplayUnit>,
    /// `(experiment, unit)` keys in frame-append order — replay order.
    unit_order: Vec<(String, String)>,
    done: BTreeSet<String>,
}

/// Shared, thread-safe checkpoint state for one `repro` invocation.
pub struct RunState {
    inner: Mutex<Inner>,
}

fn lock(state: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RunState {
    /// Starts a fresh checkpoint at `path` (truncating any previous one)
    /// and writes the header frame. Checkpointing failures are demoted to
    /// a warning — reproduction results matter more than resumability.
    #[must_use]
    pub fn fresh(path: &Path, header: &RunHeader) -> Arc<RunState> {
        let writer = CheckpointWriter::create(path)
            .and_then(|mut w| w.append(&header.to_json()).map(|()| w));
        let writer = match writer {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("[resume] checkpointing disabled: {e}");
                None
            }
        };
        RunState::from_writer(writer)
    }

    /// Opens `path` for resumption: quarantines a damaged tail, replays
    /// the valid frames, and verifies the header matches `header`. On a
    /// missing or mismatched header the checkpoint is discarded with a
    /// warning and the run starts fresh — silently splicing results from
    /// a run with different parameters would corrupt the artifacts.
    #[must_use]
    pub fn resume(path: &Path, header: &RunHeader) -> Arc<RunState> {
        let (outcome, writer) = match open_resumable(path) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("[resume] cannot open checkpoint {}: {e}", path.display());
                return RunState::fresh(path, header);
            }
        };
        let recorded = outcome.frames.first().and_then(RunHeader::from_json);
        if recorded.as_ref() != Some(header) {
            // Nothing to resume, or a run with other parameters.
            if !outcome.frames.is_empty() {
                eprintln!(
                    "[resume] checkpoint {} was written by a run with different \
                     parameters ({recorded:?} vs {header:?}); starting fresh",
                    path.display()
                );
            }
            drop(writer);
            return RunState::fresh(path, header);
        }

        let mut units = HashMap::new();
        let mut unit_order = Vec::new();
        let mut done = BTreeSet::new();
        for frame in &outcome.frames[1..] {
            match frame.get("kind").and_then(JsonValue::as_str) {
                Some("unit") => {
                    let Some(unit) = parse_unit(frame) else {
                        eprintln!("[resume] skipping unreadable unit frame (will recompute)");
                        continue;
                    };
                    let (key, unit) = unit;
                    if !units.contains_key(&key) {
                        unit_order.push(key.clone());
                    }
                    units.insert(key, unit);
                }
                Some("done") => {
                    if let Some(name) = frame.get("experiment").and_then(JsonValue::as_str) {
                        done.insert(name.to_owned());
                    }
                }
                _ => eprintln!("[resume] ignoring unknown frame kind"),
            }
        }
        let replayable = units.len();
        eprintln!(
            "[resume] checkpoint {}: {} unit(s) replayable, {} experiment(s) complete",
            path.display(),
            replayable,
            done.len()
        );
        ola_core::obs::registry().counter("ola.resilience.units_replayable").add(replayable as u64);
        Arc::new(RunState {
            inner: Mutex::new(Inner { writer: Some(writer), units, unit_order, done }),
        })
    }

    /// A state with nothing to replay, appending to `writer` if any.
    fn from_writer(writer: Option<CheckpointWriter>) -> Arc<RunState> {
        Arc::new(RunState {
            inner: Mutex::new(Inner {
                writer,
                units: HashMap::new(),
                unit_order: Vec::new(),
                done: BTreeSet::new(),
            }),
        })
    }

    /// Whether `experiment` already completed (its `done` frame landed).
    #[must_use]
    pub fn is_done(&self, experiment: &str) -> bool {
        lock(&self.inner).done.contains(experiment)
    }

    /// Rebuilds a completed experiment's tables and noted outputs from the
    /// checkpoint, in original production order.
    #[must_use]
    pub fn replay_done(&self, experiment: &str) -> ReplayUnit {
        let inner = lock(&self.inner);
        let mut all = ReplayUnit::default();
        for key in &inner.unit_order {
            if key.0 == experiment {
                let unit = &inner.units[key];
                all.tables.extend(unit.tables.iter().cloned());
                all.noted.extend(unit.noted.iter().cloned());
            }
        }
        all
    }

    /// Appends the `done` frame for `experiment`.
    pub fn mark_done(&self, experiment: &str) {
        let mut inner = lock(&self.inner);
        let frame = JsonValue::Object(vec![
            ("kind".into(), JsonValue::str("done")),
            ("experiment".into(), JsonValue::str(experiment)),
        ]);
        append_or_disable(&mut inner, &frame);
        inner.done.insert(experiment.to_owned());
    }

    fn replay(&self, key: &(String, String)) -> Option<ReplayUnit> {
        lock(&self.inner).units.get(key).cloned()
    }

    fn record(&self, key: (String, String), unit: ReplayUnit) {
        let mut inner = lock(&self.inner);
        let frame = unit_frame(&key, &unit);
        append_or_disable(&mut inner, &frame);
        if !inner.units.contains_key(&key) {
            inner.unit_order.push(key.clone());
        }
        inner.units.insert(key, unit);
    }
}

fn append_or_disable(inner: &mut Inner, frame: &JsonValue) {
    let result: Result<(), ResilienceError> = match inner.writer.as_mut() {
        Some(w) => w.append(frame),
        None => Ok(()),
    };
    if let Err(e) = result {
        eprintln!("[resume] checkpoint append failed ({e}); checkpointing disabled for this run");
        ola_core::obs::registry().counter("ola.resilience.checkpoint_disabled").inc();
        inner.writer = None;
    }
}

fn unit_frame(key: &(String, String), unit: &ReplayUnit) -> JsonValue {
    JsonValue::Object(vec![
        ("kind".into(), JsonValue::str("unit")),
        ("experiment".into(), JsonValue::str(key.0.clone())),
        ("unit".into(), JsonValue::str(key.1.clone())),
        ("tables".into(), JsonValue::Array(unit.tables.iter().map(Table::to_json).collect())),
        (
            "noted".into(),
            JsonValue::Array(
                unit.noted
                    .iter()
                    .map(|(label, path)| {
                        JsonValue::Array(vec![
                            JsonValue::str(label.clone()),
                            JsonValue::str(path.display().to_string()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parse_unit(frame: &JsonValue) -> Option<((String, String), ReplayUnit)> {
    let experiment = frame.get("experiment")?.as_str()?.to_owned();
    let unit = frame.get("unit")?.as_str()?.to_owned();
    let tables: Vec<Table> =
        frame.get("tables")?.as_array()?.iter().map(Table::from_json).collect::<Option<_>>()?;
    let noted: Vec<(String, PathBuf)> = frame
        .get("noted")?
        .as_array()?
        .iter()
        .map(|pair| {
            let pair = pair.as_array()?;
            Some((pair.first()?.as_str()?.to_owned(), PathBuf::from(pair.get(1)?.as_str()?)))
        })
        .collect::<Option<_>>()?;
    Some(((experiment, unit), ReplayUnit { tables, noted }))
}

/// Per-experiment handle the driver passes into every experiment: names
/// the experiment and carries the shared checkpoint state.
pub struct ExperimentCtx {
    experiment: String,
    state: Arc<RunState>,
}

impl ExperimentCtx {
    /// A context for `experiment` backed by `state`.
    #[must_use]
    pub fn new(experiment: impl Into<String>, state: Arc<RunState>) -> ExperimentCtx {
        ExperimentCtx { experiment: experiment.into(), state }
    }

    /// A context with no checkpointing at all — for tests and library
    /// callers that invoke experiments directly.
    #[must_use]
    pub fn ephemeral(experiment: impl Into<String>) -> ExperimentCtx {
        ExperimentCtx { experiment: experiment.into(), state: RunState::from_writer(None) }
    }

    /// The experiment this context belongs to.
    #[must_use]
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// Runs (or replays) one work unit. If the checkpoint already holds a
    /// frame for `(experiment, label)`, its tables are returned without
    /// computing and its noted outputs are re-registered; otherwise `f`
    /// runs, and on success the unit is appended to the checkpoint.
    ///
    /// `f` runs under its own [`AnnotationScope`]: the output files it
    /// registers via [`ola_core::obs::note_output`] are recorded in the
    /// unit's frame, so replays keep the run manifest's output hashes
    /// complete, and its annotations and outputs are then re-recorded in
    /// the enclosing scope.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; replays never fail.
    pub fn unit<F>(&self, label: &str, f: F) -> Result<Vec<Table>, String>
    where
        F: FnOnce() -> Result<Vec<Table>, String>,
    {
        let key = (self.experiment.clone(), label.to_owned());
        if let Some(unit) = self.state.replay(&key) {
            ola_core::obs::registry().counter("ola.resilience.units_replayed").inc();
            eprintln!("  [{}] unit {label}: replayed from checkpoint", self.experiment);
            for (l, p) in &unit.noted {
                ola_core::obs::note_output(l.clone(), p);
            }
            return Ok(unit.tables);
        }
        ola_core::resilience::check_cancelled();
        // The unit's own scope attributes its noted outputs to this frame;
        // everything it captured then passes on to the enclosing scope.
        let scope = AnnotationScope::new();
        let result = {
            let _guard = scope.install();
            f()
        };
        for (k, v) in scope.drain() {
            ola_core::obs::annotate(k, v);
        }
        let noted = scope.drain_outputs();
        for (l, p) in &noted {
            ola_core::obs::note_output(l.clone(), p);
        }
        let tables = result?;
        ola_core::obs::registry().counter("ola.resilience.units_computed").inc();
        self.state.record(key, ReplayUnit { tables: tables.clone(), noted });
        Ok(tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ola_resume_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.ckpt", std::process::id()))
    }

    fn header() -> RunHeader {
        RunHeader { scale: "quick".into(), all: false }
    }

    fn table(tag: &str) -> Table {
        let mut t = Table::new(format!("T {tag}"), &["a", "b"]);
        t.push_row(vec![tag.to_owned(), "1".into()]);
        t
    }

    #[test]
    fn units_compute_once_then_replay() {
        let path = tmp("compute_once");
        let state = RunState::fresh(&path, &header());
        let ctx = ExperimentCtx::new("demo", state.clone());
        let mut runs = 0;
        let first = ctx
            .unit("u1", || {
                runs += 1;
                Ok(vec![table("u1")])
            })
            .unwrap();
        state.mark_done("demo");
        drop(state);

        // Same process resume: a fresh state from the same file replays.
        let resumed = RunState::resume(&path, &header());
        assert!(resumed.is_done("demo"));
        let ctx2 = ExperimentCtx::new("demo", resumed.clone());
        let replayed = ctx2
            .unit("u1", || {
                runs += 1;
                Err("must not recompute".into())
            })
            .unwrap();
        assert_eq!(runs, 1);
        assert_eq!(replayed[0].rows, first[0].rows);
        let done = resumed.replay_done("demo");
        assert_eq!(done.tables.len(), 1);
        assert_eq!(done.tables[0].title, "T u1");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_mismatch_discards_the_checkpoint() {
        let path = tmp("header_mismatch");
        let state = RunState::fresh(&path, &header());
        ExperimentCtx::new("demo", state.clone()).unit("u1", || Ok(vec![table("x")])).unwrap();
        state.mark_done("demo");
        drop(state);

        let full = RunHeader { scale: "full".into(), ..header() };
        let resumed = RunState::resume(&path, &full);
        assert!(!resumed.is_done("demo"), "mismatched runs must not splice");
        let ctx = ExperimentCtx::new("demo", resumed);
        let mut recomputed = false;
        ctx.unit("u1", || {
            recomputed = true;
            Ok(vec![table("y")])
        })
        .unwrap();
        assert!(recomputed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn schema_1_checkpoints_are_discarded_not_spliced() {
        // A checkpoint from before the header dropped its `backend` label:
        // its scale and flags match, but it must still start fresh.
        let path = tmp("schema_1");
        let legacy = JsonValue::Object(vec![
            ("kind".into(), JsonValue::str("header")),
            ("schema".into(), JsonValue::U64(1)),
            ("scale".into(), JsonValue::str("quick")),
            ("backend".into(), JsonValue::str("auto")),
            ("all".into(), JsonValue::Bool(false)),
        ]);
        let unit = ReplayUnit { tables: vec![table("old")], noted: Vec::new() };
        let mut w = CheckpointWriter::create(&path).unwrap();
        for frame in [
            legacy,
            unit_frame(&("demo".to_owned(), "u1".to_owned()), &unit),
            JsonValue::Object(vec![
                ("kind".into(), JsonValue::str("done")),
                ("experiment".into(), JsonValue::str("demo")),
            ]),
        ] {
            w.append(&frame).unwrap();
        }
        drop(w);

        let resumed = RunState::resume(&path, &header());
        assert!(!resumed.is_done("demo"), "a schema-1 checkpoint must not splice");
        let mut recomputed = false;
        ExperimentCtx::new("demo", resumed)
            .unit("u1", || {
                recomputed = true;
                Ok(vec![table("new")])
            })
            .unwrap();
        assert!(recomputed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn noted_outputs_are_recorded_in_the_unit_frame() {
        let path = tmp("noted");
        let state = RunState::fresh(&path, &header());
        let experiment = AnnotationScope::new();
        {
            let _guard = experiment.install();
            ExperimentCtx::new("demo", state.clone())
                .unit("u1", || {
                    ola_core::obs::note_output("results/x.pgm", "/tmp/x.pgm");
                    ola_core::obs::annotate("demo.key", 1);
                    Ok(vec![table("u1")])
                })
                .unwrap();
        }
        state.mark_done("demo");
        drop(state);
        let x = vec![("results/x.pgm".to_owned(), PathBuf::from("/tmp/x.pgm"))];
        assert_eq!(experiment.drain_outputs(), x, "the enclosing scope gets the output");
        assert_eq!(experiment.drain(), vec![("demo.key".to_owned(), "1".to_owned())]);

        let resumed = RunState::resume(&path, &header());
        assert_eq!(resumed.replay_done("demo").noted, x);
        // A replayed unit re-registers its outputs in the enclosing scope.
        let replay = AnnotationScope::new();
        {
            let _guard = replay.install();
            ExperimentCtx::new("demo", resumed).unit("u1", || Err("replays".into())).unwrap();
        }
        assert_eq!(replay.drain_outputs(), x);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ephemeral_contexts_memoize_but_write_nothing() {
        let ctx = ExperimentCtx::ephemeral("demo");
        let mut runs = 0;
        for _ in 0..2 {
            ctx.unit("u1", || {
                runs += 1;
                Ok(vec![table("u1")])
            })
            .unwrap();
        }
        assert_eq!(runs, 1, "in-memory memoization still applies");
    }
}
