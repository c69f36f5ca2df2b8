//! The `ola.bench/v1` record, the aggregation of rounds into one record,
//! and the one-line run summary.

use crate::round::Outcome;
use crate::stats::median;
use crate::Workload;
use ola_core::obs::json::{self, JsonValue};
use ola_core::parallel::thread_config;

/// Schema identifier of every record this harness prints.
pub const SCHEMA: &str = "ola.bench/v1";

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `us`, `MB`, `count`, `ratio`, `1/s`).
    pub unit: String,
    /// Samples the value summarizes (requests, probe calls, spans,
    /// rounds); 1 for a single measurement.
    pub samples: u64,
}

impl Metric {
    /// A single measurement.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric { name: name.to_owned(), value, unit: unit.to_owned(), samples: 1 }
    }

    /// The same measurement, summarizing `samples` samples.
    #[must_use]
    pub fn with_samples(mut self, samples: u64) -> Metric {
        self.samples = samples;
        self
    }
}

/// One `ola.bench/v1` record: a single round, or the aggregate of a run's
/// rounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// The `--seed` of the run.
    pub seed: u64,
    /// Untraced rounds summarized.
    pub untraced: u64,
    /// Traced rounds summarized.
    pub traced: u64,
    /// Every metric, by name.
    pub metrics: Vec<Metric>,
    /// Deterministic counters of the timed region.
    pub counters: Vec<(String, u64)>,
    /// SHA-256 result digest.
    pub digest: String,
    /// The digest pinned for the default seed, when the run used it.
    pub pinned: Option<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// What failed, one entry per failed operation.
    pub failed: Vec<String>,
    /// The resolved configuration.
    pub config: JsonValue,
}

impl Record {
    /// The record of one round.
    #[must_use]
    pub fn round(
        w: &Workload,
        seed: u64,
        traced: bool,
        metrics: Vec<Metric>,
        counters: &crate::layers::Counters,
        outcome: Outcome,
    ) -> Record {
        let digest = outcome.digest.hex();
        let pinned = (seed == crate::DEFAULT_SEED).then(|| w.pinned.to_owned());
        let mut failed = outcome.failed;
        if let Some(p) = pinned.as_ref().filter(|p| **p != digest) {
            failed.push(format!("digest {digest} differs from the pinned {p}"));
        }
        let config = JsonValue::Object(vec![
            ("git".into(), JsonValue::str(git_describe())),
            ("nproc".into(), JsonValue::U64(nproc())),
            ("threads".into(), threads_json()),
            ("engine".into(), JsonValue::str(counters.engines())),
            ("lane_capacity".into(), JsonValue::U64(crate::layers::lane_capacity())),
            ("env".into(), ola_env()),
            ("seed".into(), JsonValue::U64(seed)),
            ("sizes".into(), JsonValue::Object(outcome.sizes)),
        ]);
        Record {
            workload: w.name.to_owned(),
            seed,
            untraced: u64::from(!traced),
            traced: u64::from(traced),
            metrics,
            counters: counters.deterministic(),
            digest,
            pinned,
            attempted: outcome.attempted + 1,
            failed,
            config,
        }
    }

    /// The record as JSON.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = JsonValue::Object(vec![
                    ("value".into(), JsonValue::F64(m.value)),
                    ("unit".into(), JsonValue::str(&m.unit)),
                    ("samples".into(), JsonValue::U64(m.samples)),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        JsonValue::Object(vec![
            ("schema".into(), JsonValue::str(SCHEMA)),
            ("workload".into(), JsonValue::str(&self.workload)),
            ("seed".into(), JsonValue::U64(self.seed)),
            (
                "rounds".into(),
                JsonValue::Object(vec![
                    ("untraced".into(), JsonValue::U64(self.untraced)),
                    ("traced".into(), JsonValue::U64(self.traced)),
                ]),
            ),
            ("metrics".into(), JsonValue::Object(metrics)),
            (
                "counters".into(),
                JsonValue::Object(
                    self.counters.iter().map(|(k, v)| (k.clone(), JsonValue::U64(*v))).collect(),
                ),
            ),
            (
                "digest".into(),
                JsonValue::Object(vec![
                    ("sha256".into(), JsonValue::str(&self.digest)),
                    ("pinned".into(), self.pinned.as_ref().map_or(JsonValue::Null, JsonValue::str)),
                ]),
            ),
            ("attempted".into(), JsonValue::U64(self.attempted)),
            ("failed".into(), JsonValue::Array(self.failed.iter().map(JsonValue::str).collect())),
            ("config".into(), self.config.clone()),
        ])
    }

    /// Reads a record back from its JSON text.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Record, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("record lacks {k:?}"));
        if field("schema")?.as_str() != Some(SCHEMA) {
            return Err(format!("record schema is not {SCHEMA}"));
        }
        let u64_of = |v: &JsonValue, what: &str| {
            v.as_u64().ok_or_else(|| format!("{what} is not an integer"))
        };
        let obj = |k: &str| field(k)?.as_object().ok_or_else(|| format!("{k:?} is not an object"));
        let rounds = field("rounds")?;
        let metrics = obj("metrics")?
            .iter()
            .map(|(name, m)| {
                let value = match m.get("value") {
                    Some(JsonValue::F64(v)) => *v,
                    Some(v) => {
                        v.as_u64().ok_or_else(|| format!("{name} value is not a number"))? as f64
                    }
                    None => return Err(format!("{name} has no value")),
                };
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or_default();
                let samples = m.get("samples").and_then(JsonValue::as_u64).unwrap_or(1);
                Ok(Metric { name: name.clone(), value, unit: unit.to_owned(), samples })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = obj("counters")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), u64_of(v, k)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let digest = field("digest")?;
        Ok(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_owned(),
            seed: u64_of(field("seed")?, "seed")?,
            untraced: rounds.get("untraced").and_then(JsonValue::as_u64).unwrap_or(0),
            traced: rounds.get("traced").and_then(JsonValue::as_u64).unwrap_or(0),
            metrics,
            counters,
            digest: digest.get("sha256").and_then(JsonValue::as_str).unwrap_or_default().to_owned(),
            pinned: digest.get("pinned").and_then(JsonValue::as_str).map(str::to_owned),
            attempted: u64_of(field("attempted")?, "attempted")?,
            failed: field("failed")?
                .as_array()
                .unwrap_or_default()
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect(),
            config: field("config")?.clone(),
        })
    }

    /// The metric `name`, when the record has it.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Folds a run's round records into one: every metric is the median
    /// over the untraced rounds that report it (end-to-end numbers come
    /// only from untraced rounds), else over the traced ones. Digests and
    /// deterministic counters must agree across all rounds; a
    /// disagreement is a failure.
    #[must_use]
    pub fn aggregate(rounds: &[Record]) -> Option<Record> {
        let first = rounds.first()?;
        let mut out = first.clone();
        out.untraced = rounds.iter().map(|r| r.untraced).sum();
        out.traced = rounds.iter().map(|r| r.traced).sum();
        out.attempted = rounds.iter().map(|r| r.attempted).sum();
        out.failed = rounds.iter().flat_map(|r| r.failed.iter().cloned()).collect();
        for r in rounds {
            if r.digest != first.digest {
                out.failed
                    .push(format!("digest {} differs from round 1's {}", r.digest, first.digest));
            }
            if r.counters != first.counters {
                out.failed.push("deterministic counters differ between rounds".to_owned());
            }
        }

        let mut names: Vec<&Metric> = Vec::new();
        for m in rounds.iter().flat_map(|r| &r.metrics) {
            if !names.iter().any(|n| n.name == m.name) {
                names.push(m);
            }
        }
        out.metrics = names
            .into_iter()
            .map(|proto| {
                let from = |traced: bool| -> Vec<&Metric> {
                    rounds
                        .iter()
                        .filter(|r| (r.traced > 0) == traced)
                        .filter_map(|r| r.metric(&proto.name))
                        .collect()
                };
                let mut used = from(false);
                if used.is_empty() {
                    used = from(true);
                }
                let values: Vec<f64> = used.iter().map(|m| m.value).collect();
                Metric {
                    value: median(&values).unwrap_or(proto.value),
                    samples: used.iter().map(|m| m.samples).sum(),
                    ..proto.clone()
                }
            })
            .collect();

        let wall = |traced: bool| {
            let v: Vec<f64> = rounds
                .iter()
                .filter(|r| (r.traced > 0) == traced)
                .filter_map(|r| r.metric("wall_s").map(|m| m.value))
                .collect();
            median(&v)
        };
        if let (Some(traced), Some(untraced)) = (wall(true), wall(false)) {
            out.metrics.push(
                Metric::new("trace.overhead_ratio", traced / untraced, "ratio")
                    .with_samples(out.traced + out.untraced),
            );
        }
        Some(out)
    }

    /// The run's last output line: `correct`, `attempted`, `failed` and
    /// the metrics named in `wanted`.
    #[must_use]
    pub fn summary(&self, wanted: &[String]) -> JsonValue {
        let metrics = wanted
            .iter()
            .filter_map(|name| self.metric(name))
            .map(|m| {
                let v = JsonValue::Object(vec![
                    ("value".into(), JsonValue::F64(m.value)),
                    ("unit".into(), JsonValue::str(&m.unit)),
                ]);
                (m.name.clone(), v)
            })
            .collect::<Vec<_>>();
        let complete = metrics.len() == wanted.len();
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(self.failed.is_empty() && complete)),
            ("attempted".into(), JsonValue::U64(self.attempted)),
            ("failed".into(), JsonValue::U64(self.failed.len() as u64)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
    }
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn threads_json() -> JsonValue {
    let t = thread_config().record();
    JsonValue::Object(vec![
        ("raw".into(), t.raw.map_or(JsonValue::Null, JsonValue::Str)),
        ("resolved".into(), JsonValue::U64(t.resolved)),
        ("fallback".into(), JsonValue::Bool(t.fallback)),
    ])
}

/// Every `OLA_*` environment variable that is set, sorted by name.
fn ola_env() -> JsonValue {
    let mut vars: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("OLA_")).collect();
    vars.sort();
    JsonValue::Object(vars.into_iter().map(|(k, v)| (k, JsonValue::Str(v))).collect())
}

/// `git describe --always --dirty` of the working directory, looking no
/// higher than it; `unknown` outside a git checkout.
fn git_describe() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}
