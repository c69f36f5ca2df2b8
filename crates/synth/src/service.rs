//! Typed query entry points for the `ola-serve` analysis service.
//!
//! A [`Query`] is the service's unit of work: a datapath written in the
//! expression language plus the analysis to run on it. Six analyses are
//! served, mirroring the CLI surfaces:
//!
//! * **pareto** — the full design-space exploration ([`explore`]):
//!   style × allocation × width with the Pareto frontier marked;
//! * **sweep** — the empirical latency–accuracy error curve of *one*
//!   variant ([`variant_error_curve`]), sharing the explorer's exact
//!   sampling discipline;
//! * **sta** — static timing + the per-digit certification report
//!   ([`ola_netlist::sta::certify()`]);
//! * **lint** — the netlist lint catalogue
//!   ([`ola_netlist::sta::lint`]);
//! * **verify** — the formal story for one variant: the optimizer
//!   pipeline is *proved* value-preserving via the staged equivalence
//!   checker ([`crate::verify`]), and the abstract interpreter
//!   ([`crate::absint`]) reports sound settled and per-`Ts` sampling
//!   error bounds;
//! * **dsp** — a named DSP kernel ([`crate::dsp`]: FIR bank, separable
//!   conv2d, mat-vec) compiled in *both* MAC fusion flavours, reporting
//!   area and rated timing for each plus the overclocking error curve of
//!   the requested flavour. Takes no `expr` — the kernel is generated.
//!
//! Queries are **canonicalizable**: [`Query::canonical`] renders a fully
//! defaulted, field-ordered JSON form, and [`Query::cache_key`] is the
//! SHA-256 of exactly those bytes — the content address under which the
//! result is deduplicated by [`ola_core::cache::ContentCache`]. Two
//! requests that differ only in field order or omitted defaults share a
//! key; anything that changes the answer changes the key.
//!
//! Every analysis is deterministic (seeded sampling, fixed grids), which
//! is what makes content-addressed caching *sound*: a cached body is
//! bit-identical to what a recompute would produce.
//!
//! Request limits ([`Limits`]) bound the work a single query may ask for;
//! violations surface as [`QueryError::BadRequest`] before any compute
//! runs.

use crate::dsp::MacFusion;
use crate::elab::{elaborate, ElabOptions, Style, SynthesizedDatapath};
use crate::explore::{explore, variant_error_curve, ExploreConfig};
use crate::parser::parse_dfg;
use crate::passes::{optimize, AdderStructure};
use crate::verify::conventional_caps_ok;
use crate::{Dfg, InputFmt};
use ola_core::obs::json::JsonValue;
use ola_core::{CacheKey, SimBackend};
use ola_netlist::sta::lint;
use ola_netlist::{analyze, FpgaDelay};

/// Default online selection granularity for service queries.
pub const DEFAULT_FRAC_DIGITS: i32 = 3;
/// Default Ts-grid size for sweep/STA queries.
pub const DEFAULT_TS_POINTS: usize = 12;
/// Default Monte-Carlo samples per (variant, Ts).
pub const DEFAULT_SAMPLES: usize = 48;
/// Default RNG seed.
pub const DEFAULT_SEED: u64 = 2024;

/// Hard per-query work bounds, enforced before any compute runs.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Longest accepted expression, bytes.
    pub max_expr_len: usize,
    /// Largest accepted digit width.
    pub max_width: usize,
    /// Most widths one pareto query may enumerate.
    pub max_widths: usize,
    /// Largest accepted Ts-grid size.
    pub max_ts_points: usize,
    /// Largest accepted sample count.
    pub max_samples: usize,
    /// Largest accepted DSP kernel dimension (FIR taps, conv2d edge,
    /// mat-vec rows/columns).
    pub max_kernel: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_expr_len: 4096,
            max_width: 16,
            max_widths: 4,
            max_ts_points: 64,
            max_samples: 4096,
            max_kernel: 32,
        }
    }
}

/// A query rejection: the request was malformed or over the limits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The request is invalid as stated; re-sending it will fail again.
    BadRequest(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

fn bad(msg: impl Into<String>) -> QueryError {
    QueryError::BadRequest(msg.into())
}

/// Rejects an optimized graph that `style` cannot lower: the conventional
/// lowering caps multiplier operands at 31 bits and constants at 63
/// ([`conventional_caps_ok`]), and elaborating past them panics.
fn check_lowerable(opt: &Dfg, style: Style) -> Result<(), QueryError> {
    if style == Style::Conventional && !conventional_caps_ok(opt) {
        return Err(bad("expression too wide for the conventional lowering \
             (multiplier operands over 31 bits or constants over 63)"));
    }
    Ok(())
}

/// One concrete datapath variant: the expression plus every knob that
/// selects a single compiled netlist.
#[derive(Clone, Debug, PartialEq)]
pub struct VariantSpec {
    /// Expression-language source (`"y = a * 0.25 + b"`).
    pub expr: String,
    /// Most significant digit position of the inputs.
    pub msd_pos: i32,
    /// Input digit width.
    pub width: usize,
    /// Arithmetic style.
    pub style: Style,
    /// Adder allocation.
    pub allocation: AdderStructure,
    /// Online selection granularity `t` (≥ 3).
    pub frac_digits: i32,
}

impl VariantSpec {
    fn compile(&self) -> Result<SynthesizedDatapath, QueryError> {
        let fmt = InputFmt { msd_pos: self.msd_pos, digits: self.width };
        let dfg = parse_dfg(&self.expr, fmt).map_err(|e| bad(format!("expression: {e}")))?;
        let opt = optimize(&dfg, self.allocation);
        check_lowerable(&opt, self.style)?;
        let opts = ElabOptions::new(self.style).with_frac_digits(self.frac_digits);
        Ok(elaborate(&opt, &opts))
    }

    fn canonical_fields(&self) -> Vec<(String, JsonValue)> {
        vec![
            ("expr".into(), JsonValue::str(&self.expr)),
            ("msd_pos".into(), JsonValue::int(i64::from(self.msd_pos))),
            ("width".into(), JsonValue::U64(self.width as u64)),
            ("style".into(), JsonValue::str(self.style.name())),
            ("allocation".into(), JsonValue::str(self.allocation.name())),
            ("frac_digits".into(), JsonValue::int(i64::from(self.frac_digits))),
        ]
    }
}

/// A parsed, validated service query.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Full design-space exploration with Pareto marking.
    Pareto {
        /// Expression-language source.
        expr: String,
        /// Most significant digit position of the inputs.
        msd_pos: i32,
        /// Digit widths to enumerate.
        widths: Vec<usize>,
        /// Online selection granularity.
        frac_digits: i32,
        /// Ts-grid size.
        ts_points: usize,
        /// Samples per (variant, Ts).
        samples: usize,
        /// Base RNG seed.
        seed: u64,
        /// Engine label, `auto` or `batch` (the same batch engine).
        backend: SimBackend,
    },
    /// Error curve of a single variant over its own Ts grid.
    Sweep {
        /// The variant to sweep.
        spec: VariantSpec,
        /// Ts-grid size.
        ts_points: usize,
        /// Samples per Ts point.
        samples: usize,
        /// RNG seed.
        seed: u64,
        /// Engine label, `auto` or `batch` (the same batch engine).
        backend: SimBackend,
    },
    /// Static timing + per-digit certification of a single variant.
    Sta {
        /// The variant to analyze.
        spec: VariantSpec,
        /// Ts-grid size for the certification sweep.
        ts_points: usize,
    },
    /// Lint verdicts for a single variant's netlist.
    Lint {
        /// The variant to lint.
        spec: VariantSpec,
    },
    /// Formal verification of a single variant: optimizer-pipeline
    /// equivalence proof plus abstract-interpretation error bounds.
    Verify {
        /// The variant to verify.
        spec: VariantSpec,
        /// Ts-grid size for the sampling-bound sweep.
        ts_points: usize,
    },
    /// DSP kernel analysis: a generated kernel compiled in both MAC
    /// fusion flavours, with the requested flavour's error curve.
    Dsp {
        /// Kernel family: `fir`, `conv2d`, or `matvec`.
        kernel: String,
        /// Kernel size: FIR taps / conv2d kernel edge / mat-vec columns.
        size: usize,
        /// Mat-vec row count (ignored by `fir` and `conv2d`).
        rows: usize,
        /// Fusion flavour whose overclocking curve is swept.
        fusion: MacFusion,
        /// Most significant digit position of the inputs.
        msd_pos: i32,
        /// Input digit width.
        width: usize,
        /// Arithmetic style.
        style: Style,
        /// Adder allocation.
        allocation: AdderStructure,
        /// Online selection granularity.
        frac_digits: i32,
        /// Ts-grid size.
        ts_points: usize,
        /// Samples per Ts point.
        samples: usize,
        /// RNG seed.
        seed: u64,
        /// Engine label, `auto` or `batch` (the same batch engine).
        backend: SimBackend,
    },
}

fn field_u64(obj: &JsonValue, key: &str, default: u64) -> Result<u64, QueryError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => {
            v.as_u64().ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer")))
        }
    }
}

fn field_i64(obj: &JsonValue, key: &str, default: i64) -> Result<i64, QueryError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_i64().ok_or_else(|| bad(format!("field {key:?} must be an integer"))),
    }
}

fn field_str<'a>(obj: &'a JsonValue, key: &str, default: &'a str) -> Result<&'a str, QueryError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_str().ok_or_else(|| bad(format!("field {key:?} must be a string"))),
    }
}

fn parse_style(name: &str) -> Result<Style, QueryError> {
    match name {
        "online" => Ok(Style::Online),
        "conventional" => Ok(Style::Conventional),
        other => Err(bad(format!("unknown style {other:?} (want online|conventional)"))),
    }
}

fn parse_allocation(name: &str) -> Result<AdderStructure, QueryError> {
    match name {
        "chain" => Ok(AdderStructure::LinearChain),
        "tree" => Ok(AdderStructure::BalancedTree),
        "online-chain" => Ok(AdderStructure::OnlineChained),
        other => Err(bad(format!("unknown allocation {other:?} (want chain|tree|online-chain)"))),
    }
}

/// Served queries run the batch engine. `auto` and `batch` name it alike
/// and stay distinct spellings, because the canonical form (and so every
/// cache key) hashes the label. The event engine is a test oracle and is
/// not served.
fn parse_backend(name: &str) -> Result<SimBackend, QueryError> {
    match name {
        "auto" => Ok(SimBackend::Auto),
        "batch" => Ok(SimBackend::Batch),
        "event" => Err(bad("backend \"event\" is not served (want auto|batch)")),
        other => Err(bad(format!("unknown backend {other:?} (want auto|batch)"))),
    }
}

fn parse_fusion(name: &str) -> Result<MacFusion, QueryError> {
    match name {
        "fused" => Ok(MacFusion::Fused),
        "unfused" => Ok(MacFusion::Unfused),
        other => Err(bad(format!("unknown fusion {other:?} (want fused|unfused)"))),
    }
}

impl Query {
    /// Parses and validates a wire-format JSON request body under
    /// `limits`. Unknown `kind`s, malformed fields, and limit violations
    /// are all [`QueryError::BadRequest`].
    ///
    /// # Errors
    ///
    /// [`QueryError::BadRequest`] with an operator-readable reason.
    pub fn from_json(body: &JsonValue, limits: &Limits) -> Result<Query, QueryError> {
        if body.as_object().is_none() {
            return Err(bad("request body must be a JSON object"));
        }
        let kind = body
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing string field \"kind\""))?;
        // The dsp kind generates its datapath; every other kind states one.
        let expr = match body.get("expr") {
            None if kind == "dsp" => "",
            None => return Err(bad("missing string field \"expr\"")),
            Some(v) => v.as_str().ok_or_else(|| bad("field \"expr\" must be a string"))?,
        };
        if expr.len() > limits.max_expr_len {
            return Err(bad(format!(
                "expr too long ({} > {} bytes)",
                expr.len(),
                limits.max_expr_len
            )));
        }
        let msd_pos = i32::try_from(field_i64(body, "msd_pos", 1)?)
            .map_err(|_| bad("msd_pos out of range"))?;
        let frac_digits =
            i32::try_from(field_i64(body, "frac_digits", i64::from(DEFAULT_FRAC_DIGITS))?)
                .map_err(|_| bad("frac_digits out of range"))?;
        if frac_digits < 3 {
            return Err(bad("frac_digits must be ≥ 3"));
        }
        let ts_points = usize::try_from(field_u64(body, "ts_points", DEFAULT_TS_POINTS as u64)?)
            .map_err(|_| bad("ts_points out of range"))?;
        if ts_points == 0 || ts_points > limits.max_ts_points {
            return Err(bad(format!("ts_points must be in 1..={}", limits.max_ts_points)));
        }
        let samples = usize::try_from(field_u64(body, "samples", DEFAULT_SAMPLES as u64)?)
            .map_err(|_| bad("samples out of range"))?;
        if samples == 0 || samples > limits.max_samples {
            return Err(bad(format!("samples must be in 1..={}", limits.max_samples)));
        }
        let seed = field_u64(body, "seed", DEFAULT_SEED)?;
        let backend = parse_backend(field_str(body, "backend", "auto")?)?;

        let width_field = |default: u64| -> Result<usize, QueryError> {
            let w = usize::try_from(field_u64(body, "width", default)?)
                .map_err(|_| bad("width out of range"))?;
            if w == 0 || w > limits.max_width {
                return Err(bad(format!("width must be in 1..={}", limits.max_width)));
            }
            Ok(w)
        };
        let spec = |body: &JsonValue| -> Result<VariantSpec, QueryError> {
            Ok(VariantSpec {
                expr: expr.to_owned(),
                msd_pos,
                width: width_field(4)?,
                style: parse_style(field_str(body, "style", "online")?)?,
                allocation: parse_allocation(field_str(body, "allocation", "tree")?)?,
                frac_digits,
            })
        };

        match kind {
            "pareto" => {
                let widths = match body.get("widths") {
                    None => vec![4, 8],
                    Some(v) => {
                        let arr = v.as_array().ok_or_else(|| bad("widths must be an array"))?;
                        arr.iter()
                            .map(|w| {
                                w.as_u64()
                                    .and_then(|w| usize::try_from(w).ok())
                                    .filter(|&w| w > 0 && w <= limits.max_width)
                                    .ok_or_else(|| {
                                        bad(format!(
                                            "each width must be in 1..={}",
                                            limits.max_width
                                        ))
                                    })
                            })
                            .collect::<Result<Vec<_>, _>>()?
                    }
                };
                if widths.is_empty() || widths.len() > limits.max_widths {
                    return Err(bad(format!("widths must list 1..={} entries", limits.max_widths)));
                }
                Ok(Query::Pareto {
                    expr: expr.to_owned(),
                    msd_pos,
                    widths,
                    frac_digits,
                    ts_points,
                    samples,
                    seed,
                    backend,
                })
            }
            "sweep" => Ok(Query::Sweep { spec: spec(body)?, ts_points, samples, seed, backend }),
            "sta" => Ok(Query::Sta { spec: spec(body)?, ts_points }),
            "lint" => Ok(Query::Lint { spec: spec(body)? }),
            "verify" => Ok(Query::Verify { spec: spec(body)?, ts_points }),
            "dsp" => {
                let kernel = field_str(body, "kernel", "fir")?;
                if !matches!(kernel, "fir" | "conv2d" | "matvec") {
                    return Err(bad(format!("unknown kernel {kernel:?} (want fir|conv2d|matvec)")));
                }
                let dim = |key: &str, default: u64| -> Result<usize, QueryError> {
                    let v = usize::try_from(field_u64(body, key, default)?)
                        .map_err(|_| bad(format!("{key} out of range")))?;
                    if v == 0 || v > limits.max_kernel {
                        return Err(bad(format!("{key} must be in 1..={}", limits.max_kernel)));
                    }
                    Ok(v)
                };
                Ok(Query::Dsp {
                    kernel: kernel.to_owned(),
                    size: dim("size", 4)?,
                    rows: dim("rows", 2)?,
                    fusion: parse_fusion(field_str(body, "fusion", "fused")?)?,
                    msd_pos,
                    width: width_field(4)?,
                    style: parse_style(field_str(body, "style", "online")?)?,
                    allocation: parse_allocation(field_str(body, "allocation", "tree")?)?,
                    frac_digits,
                    ts_points,
                    samples,
                    seed,
                    backend,
                })
            }
            other => {
                Err(bad(format!("unknown kind {other:?} (want pareto|sweep|sta|lint|verify|dsp)")))
            }
        }
    }

    /// Stable lowercase query-kind label.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Pareto { .. } => "pareto",
            Query::Sweep { .. } => "sweep",
            Query::Sta { .. } => "sta",
            Query::Lint { .. } => "lint",
            Query::Verify { .. } => "verify",
            Query::Dsp { .. } => "dsp",
        }
    }

    /// The canonical JSON form: every field present (defaults filled in),
    /// in one fixed order. Semantically identical requests render to
    /// byte-identical canonical forms — the property the cache key rests
    /// on.
    #[must_use]
    pub fn canonical(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> =
            vec![("kind".into(), JsonValue::str(self.kind()))];
        match self {
            Query::Pareto {
                expr,
                msd_pos,
                widths,
                frac_digits,
                ts_points,
                samples,
                seed,
                backend,
            } => {
                fields.push(("expr".into(), JsonValue::str(expr)));
                fields.push(("msd_pos".into(), JsonValue::int(i64::from(*msd_pos))));
                fields.push((
                    "widths".into(),
                    JsonValue::Array(widths.iter().map(|&w| JsonValue::U64(w as u64)).collect()),
                ));
                fields.push(("frac_digits".into(), JsonValue::int(i64::from(*frac_digits))));
                fields.push(("ts_points".into(), JsonValue::U64(*ts_points as u64)));
                fields.push(("samples".into(), JsonValue::U64(*samples as u64)));
                fields.push(("seed".into(), JsonValue::U64(*seed)));
                fields.push(("backend".into(), JsonValue::str(backend.label())));
            }
            Query::Sweep { spec, ts_points, samples, seed, backend } => {
                fields.extend(spec.canonical_fields());
                fields.push(("ts_points".into(), JsonValue::U64(*ts_points as u64)));
                fields.push(("samples".into(), JsonValue::U64(*samples as u64)));
                fields.push(("seed".into(), JsonValue::U64(*seed)));
                fields.push(("backend".into(), JsonValue::str(backend.label())));
            }
            Query::Sta { spec, ts_points } => {
                fields.extend(spec.canonical_fields());
                fields.push(("ts_points".into(), JsonValue::U64(*ts_points as u64)));
            }
            Query::Lint { spec } => {
                fields.extend(spec.canonical_fields());
            }
            Query::Verify { spec, ts_points } => {
                fields.extend(spec.canonical_fields());
                fields.push(("ts_points".into(), JsonValue::U64(*ts_points as u64)));
            }
            Query::Dsp {
                kernel,
                size,
                rows,
                fusion,
                msd_pos,
                width,
                style,
                allocation,
                frac_digits,
                ts_points,
                samples,
                seed,
                backend,
            } => {
                fields.push(("kernel".into(), JsonValue::str(kernel)));
                fields.push(("size".into(), JsonValue::U64(*size as u64)));
                fields.push(("rows".into(), JsonValue::U64(*rows as u64)));
                fields.push(("fusion".into(), JsonValue::str(fusion.name())));
                fields.push(("msd_pos".into(), JsonValue::int(i64::from(*msd_pos))));
                fields.push(("width".into(), JsonValue::U64(*width as u64)));
                fields.push(("style".into(), JsonValue::str(style.name())));
                fields.push(("allocation".into(), JsonValue::str(allocation.name())));
                fields.push(("frac_digits".into(), JsonValue::int(i64::from(*frac_digits))));
                fields.push(("ts_points".into(), JsonValue::U64(*ts_points as u64)));
                fields.push(("samples".into(), JsonValue::U64(*samples as u64)));
                fields.push(("seed".into(), JsonValue::U64(*seed)));
                fields.push(("backend".into(), JsonValue::str(backend.label())));
            }
        }
        JsonValue::Object(fields)
    }

    /// The content address of this query: SHA-256 of the canonical JSON
    /// bytes.
    #[must_use]
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::of(self.canonical().render().as_bytes())
    }

    /// Executes the query and returns its result document. Deterministic:
    /// the same query always produces byte-identical rendered JSON.
    ///
    /// # Errors
    ///
    /// [`QueryError::BadRequest`] when the expression fails to parse or
    /// names an impossible variant.
    pub fn run(&self) -> Result<JsonValue, QueryError> {
        let _span = ola_core::obs::span("serve.query");
        match self {
            Query::Pareto {
                expr,
                msd_pos,
                widths,
                frac_digits,
                ts_points,
                samples,
                seed,
                backend: _,
            } => {
                let fmt = InputFmt { msd_pos: *msd_pos, digits: widths[0] };
                let dfg = parse_dfg(expr, fmt).map_err(|e| bad(format!("expression: {e}")))?;
                let cfg = ExploreConfig {
                    widths: widths.clone(),
                    frac_digits: *frac_digits,
                    ts_points: *ts_points,
                    samples: *samples,
                    seed: *seed,
                    ..ExploreConfig::default()
                };
                for &width in &cfg.widths {
                    for &allocation in &cfg.allocations {
                        let opt = optimize(&dfg.with_input_digits(width), allocation);
                        check_lowerable(&opt, Style::Conventional)?;
                    }
                }
                let res = explore(&dfg, &cfg);
                let points: Vec<JsonValue> = res
                    .points
                    .iter()
                    .map(|p| {
                        JsonValue::Object(vec![
                            ("label".into(), JsonValue::str(p.label())),
                            ("style".into(), JsonValue::str(p.style.name())),
                            ("allocation".into(), JsonValue::str(p.allocation.name())),
                            ("width".into(), JsonValue::U64(p.width as u64)),
                            ("luts".into(), JsonValue::U64(p.area.luts as u64)),
                            (
                                "rated_period".into(),
                                p.rated_period.map_or(JsonValue::Null, JsonValue::U64),
                            ),
                            (
                                "rated_mhz".into(),
                                p.rated_mhz.map_or(JsonValue::Null, JsonValue::F64),
                            ),
                            ("mean_error".into(), JsonValue::F64(p.mean_error)),
                            ("worst_violation_rate".into(), JsonValue::F64(p.worst_violation_rate)),
                            ("certified_skipped".into(), JsonValue::U64(p.certified_skipped)),
                            ("pareto".into(), JsonValue::Bool(p.pareto)),
                        ])
                    })
                    .collect();
                Ok(JsonValue::Object(vec![
                    ("kind".into(), JsonValue::str("pareto")),
                    (
                        "ts_grid".into(),
                        JsonValue::Array(res.ts_grid.iter().map(|&t| JsonValue::U64(t)).collect()),
                    ),
                    ("points".into(), JsonValue::Array(points)),
                    ("frontier_size".into(), JsonValue::U64(res.frontier().len() as u64)),
                ]))
            }
            Query::Sweep { spec, ts_points, samples, seed, backend } => {
                let dp = spec.compile()?;
                let delay = FpgaDelay::default();
                if dp.netlist.logic_gate_count() == 0 {
                    return Ok(JsonValue::Object(vec![
                        ("kind".into(), JsonValue::str("sweep")),
                        ("untimed".into(), JsonValue::Bool(true)),
                        ("critical_path".into(), JsonValue::U64(0)),
                        ("ts".into(), JsonValue::Array(Vec::new())),
                        ("mean_abs_error".into(), JsonValue::Array(Vec::new())),
                        ("violation_rate".into(), JsonValue::Array(Vec::new())),
                    ]));
                }
                let critical = analyze(&dp.netlist, &delay).critical_path().max(1);
                let ts_grid = crate::explore::ts_grid(critical, *ts_points);
                let (curve, stats) =
                    variant_error_curve(&dp, &delay, &ts_grid, *samples, *seed, *backend);
                Ok(JsonValue::Object(vec![
                    ("kind".into(), JsonValue::str("sweep")),
                    ("untimed".into(), JsonValue::Bool(false)),
                    ("critical_path".into(), JsonValue::U64(curve.critical_path)),
                    ("max_settle".into(), JsonValue::U64(curve.max_settle)),
                    ("samples".into(), JsonValue::U64(curve.samples as u64)),
                    (
                        "ts".into(),
                        JsonValue::Array(curve.ts.iter().map(|&t| JsonValue::U64(t)).collect()),
                    ),
                    (
                        "mean_abs_error".into(),
                        JsonValue::Array(
                            curve.mean_abs_error.iter().map(|&e| JsonValue::F64(e)).collect(),
                        ),
                    ),
                    (
                        "violation_rate".into(),
                        JsonValue::Array(
                            curve.violation_rate.iter().map(|&v| JsonValue::F64(v)).collect(),
                        ),
                    ),
                    ("sta_skipped_points".into(), JsonValue::U64(stats.sta_skipped_points)),
                ]))
            }
            Query::Sta { spec, ts_points } => {
                let dp = spec.compile()?;
                let delay = FpgaDelay::default();
                let report = analyze(&dp.netlist, &delay);
                let critical = report.critical_path();
                let grid_span = critical.max(1);
                let ts_grid = crate::explore::ts_grid(grid_span, *ts_points);
                let digits = dp.output_digit_groups();
                let cert = ola_core::memo::certification(&dp.netlist, &delay, &digits, &ts_grid);
                let rows: Vec<JsonValue> = ts_grid
                    .iter()
                    .enumerate()
                    .map(|(i, &ts)| {
                        JsonValue::Object(vec![
                            ("ts".into(), JsonValue::U64(ts)),
                            ("certified".into(), JsonValue::U64(cert.certified_count(i) as u64)),
                            ("all_certified".into(), JsonValue::Bool(cert.all_certified(i))),
                            (
                                "at_risk".into(),
                                JsonValue::Array(
                                    cert.at_risk(i)
                                        .iter()
                                        .map(|&k| JsonValue::U64(k as u64))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                Ok(JsonValue::Object(vec![
                    ("kind".into(), JsonValue::str("sta")),
                    ("critical_path".into(), JsonValue::U64(critical)),
                    (
                        "rated_mhz".into(),
                        report.rated_frequency().map_or(JsonValue::Null, JsonValue::F64),
                    ),
                    ("digits".into(), JsonValue::U64(cert.digits() as u64)),
                    ("certification".into(), JsonValue::Array(rows)),
                ]))
            }
            Query::Lint { spec } => {
                let dp = spec.compile()?;
                let issues: Vec<JsonValue> = lint::check(&dp.netlist)
                    .iter()
                    .map(|issue| {
                        JsonValue::Object(vec![
                            ("code".into(), JsonValue::str(issue.code())),
                            ("message".into(), JsonValue::str(issue.to_string())),
                        ])
                    })
                    .collect();
                Ok(JsonValue::Object(vec![
                    ("kind".into(), JsonValue::str("lint")),
                    ("clean".into(), JsonValue::Bool(issues.is_empty())),
                    ("issues".into(), JsonValue::Array(issues)),
                ]))
            }
            Query::Verify { spec, ts_points } => {
                let fmt = InputFmt { msd_pos: spec.msd_pos, digits: spec.width };
                let dfg =
                    parse_dfg(&spec.expr, fmt).map_err(|e| bad(format!("expression: {e}")))?;
                let opt = optimize(&dfg, spec.allocation);
                check_lowerable(&opt, spec.style)?;

                // Pipeline proof: the optimized graph computes exactly the
                // source graph's outputs. A mismatch is a compiler bug; the
                // service reports it rather than panicking.
                let proof = crate::verify::prove_pass_equivalence(&dfg, &opt);
                let (verdict, method, cex) = match &proof {
                    None => ("skipped", JsonValue::Null, JsonValue::Null),
                    Some(v) => (
                        match v {
                            v if v.is_proof() && v.is_equivalent() => "equivalent",
                            v if v.is_equivalent() => "probably-equivalent",
                            _ => "mismatch",
                        },
                        JsonValue::str(v.method().name()),
                        match v {
                            ola_netlist::EquivVerdict::Mismatch { counterexample, .. } => {
                                JsonValue::str(counterexample.to_string())
                            }
                            _ => JsonValue::Null,
                        },
                    ),
                };

                // Abstract interpretation: settled bounds on the IR plus
                // per-Ts sampling bounds on the elaborated netlist.
                let report = crate::absint::interpret(&opt, spec.style);
                let settled: Vec<JsonValue> = report
                    .settled_error_bounds()
                    .iter()
                    .map(|q| JsonValue::F64(q.to_f64()))
                    .collect();
                let elab_opts = ElabOptions::new(spec.style).with_frac_digits(spec.frac_digits);
                let dp = elaborate(&opt, &elab_opts);
                let delay = FpgaDelay::default();
                let (ts_grid, per_ts) = if dp.netlist.logic_gate_count() == 0 {
                    (Vec::new(), Vec::new())
                } else {
                    let critical = analyze(&dp.netlist, &delay).critical_path().max(1);
                    let grid = crate::explore::ts_grid(critical, *ts_points);
                    let bounds = crate::absint::sampling_bounds(&dp, &delay, &grid);
                    let rows: Vec<JsonValue> =
                        (0..grid.len()).map(|i| JsonValue::F64(bounds.total_f64(i))).collect();
                    (grid, rows)
                };
                ola_core::obs::registry().counter("ola.verify.service_queries").add(1);
                Ok(JsonValue::Object(vec![
                    ("kind".into(), JsonValue::str("verify")),
                    ("passes_verdict".into(), JsonValue::str(verdict)),
                    ("method".into(), method),
                    ("counterexample".into(), cex),
                    ("settled_exact".into(), JsonValue::Bool(report.settled_exact())),
                    ("settled_error_bounds".into(), JsonValue::Array(settled)),
                    (
                        "ts".into(),
                        JsonValue::Array(ts_grid.iter().map(|&t| JsonValue::U64(t)).collect()),
                    ),
                    ("error_bound".into(), JsonValue::Array(per_ts)),
                ]))
            }
            Query::Dsp {
                kernel,
                size,
                rows,
                fusion,
                msd_pos,
                width,
                style,
                allocation,
                frac_digits,
                ts_points,
                samples,
                seed,
                backend,
            } => {
                let fmt = InputFmt { msd_pos: *msd_pos, digits: *width };
                let build = |f: MacFusion| match kernel.as_str() {
                    "fir" => crate::dsp::fir_bank(*size, f, fmt),
                    "conv2d" => crate::dsp::conv2d_separable(*size, f, fmt),
                    "matvec" => crate::dsp::matvec(*rows, *size, f, fmt),
                    other => unreachable!("kernel {other:?} validated at parse"),
                };
                let delay = FpgaDelay::default();
                let compile = |f: MacFusion| {
                    let opt = optimize(&build(f), *allocation);
                    let opts = ElabOptions::new(*style).with_frac_digits(*frac_digits);
                    elaborate(&opt, &opts)
                };
                // Both flavours are reported so the fused-vs-unfused
                // contrast is one query away; the curve runs on the
                // requested flavour only.
                let flavour_doc = |dp: &SynthesizedDatapath| {
                    let report = analyze(&dp.netlist, &delay);
                    JsonValue::Object(vec![
                        (
                            "luts".into(),
                            JsonValue::U64(ola_netlist::area::estimate(&dp.netlist, 4).luts as u64),
                        ),
                        ("critical_path".into(), JsonValue::U64(report.critical_path())),
                        (
                            "rated_mhz".into(),
                            report.rated_frequency().map_or(JsonValue::Null, JsonValue::F64),
                        ),
                    ])
                };
                let fused_dp = compile(MacFusion::Fused);
                let unfused_dp = compile(MacFusion::Unfused);
                let swept = match fusion {
                    MacFusion::Fused => &fused_dp,
                    MacFusion::Unfused => &unfused_dp,
                };
                let critical = analyze(&swept.netlist, &delay).critical_path().max(1);
                let ts_grid = crate::explore::ts_grid(critical, *ts_points);
                let (curve, stats) =
                    variant_error_curve(swept, &delay, &ts_grid, *samples, *seed, *backend);
                ola_core::obs::registry().counter("ola.dsp.service_queries").add(1);
                Ok(JsonValue::Object(vec![
                    ("kind".into(), JsonValue::str("dsp")),
                    ("kernel".into(), JsonValue::str(kernel)),
                    ("size".into(), JsonValue::U64(*size as u64)),
                    ("fusion".into(), JsonValue::str(fusion.name())),
                    ("fused".into(), flavour_doc(&fused_dp)),
                    ("unfused".into(), flavour_doc(&unfused_dp)),
                    (
                        "ts".into(),
                        JsonValue::Array(curve.ts.iter().map(|&t| JsonValue::U64(t)).collect()),
                    ),
                    (
                        "mean_abs_error".into(),
                        JsonValue::Array(
                            curve.mean_abs_error.iter().map(|&e| JsonValue::F64(e)).collect(),
                        ),
                    ),
                    (
                        "violation_rate".into(),
                        JsonValue::Array(
                            curve.violation_rate.iter().map(|&v| JsonValue::F64(v)).collect(),
                        ),
                    ),
                    ("sta_skipped_points".into(), JsonValue::U64(stats.sta_skipped_points)),
                ]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_core::obs::json;

    fn parse_query(body: &str) -> Result<Query, QueryError> {
        Query::from_json(&json::parse(body).expect("valid JSON"), &Limits::default())
    }

    const EXPR: &str = "y = a * 0.25 + b * 0.5";

    #[test]
    fn defaults_fill_in_and_canonicalization_is_order_insensitive() {
        let sparse = parse_query(&format!(r#"{{"kind":"sweep","expr":"{EXPR}"}}"#)).unwrap();
        let explicit = parse_query(&format!(
            r#"{{"seed":2024,"samples":48,"expr":"{EXPR}","style":"online","allocation":"tree",
               "ts_points":12,"kind":"sweep","width":4,"msd_pos":1,"frac_digits":3,"backend":"auto"}}"#
        ))
        .unwrap();
        assert_eq!(sparse, explicit);
        assert_eq!(sparse.cache_key(), explicit.cache_key());
        // Any semantic change moves the key.
        let other =
            parse_query(&format!(r#"{{"kind":"sweep","expr":"{EXPR}","width":5}}"#)).unwrap();
        assert_ne!(sparse.cache_key(), other.cache_key());
        // Canonical form round-trips through the JSON layer byte-exactly.
        let c = sparse.canonical().render();
        assert_eq!(json::parse(&c).unwrap().render(), c);
    }

    #[test]
    fn validation_rejects_malformed_and_oversized_requests() {
        for (body, why) in [
            (r#"[1,2]"#.to_owned(), "not an object"),
            (r#"{"expr":"y = a"}"#.to_owned(), "missing kind"),
            (r#"{"kind":"sweep"}"#.to_owned(), "missing expr"),
            (r#"{"kind":"mystery","expr":"y = a"}"#.to_owned(), "unknown kind"),
            (r#"{"kind":"sweep","expr":"y = a","style":"octal"}"#.to_owned(), "unknown style"),
            (
                r#"{"kind":"sweep","expr":"y = a","allocation":"star"}"#.to_owned(),
                "unknown allocation",
            ),
            (r#"{"kind":"sweep","expr":"y = a","backend":"gpu"}"#.to_owned(), "unknown backend"),
            (r#"{"kind":"sweep","expr":"y = a","backend":"event"}"#.to_owned(), "event not served"),
            (r#"{"kind":"sweep","expr":"y = a","width":99}"#.to_owned(), "width over limit"),
            (r#"{"kind":"sweep","expr":"y = a","samples":0}"#.to_owned(), "zero samples"),
            (
                r#"{"kind":"sweep","expr":"y = a","ts_points":1000}"#.to_owned(),
                "ts_points over limit",
            ),
            (
                r#"{"kind":"sweep","expr":"y = a","frac_digits":1}"#.to_owned(),
                "frac_digits too small",
            ),
            (r#"{"kind":"pareto","expr":"y = a","widths":[]}"#.to_owned(), "empty widths"),
            (r#"{"kind":"pareto","expr":"y = a","widths":[2,0]}"#.to_owned(), "zero width"),
            (format!(r#"{{"kind":"sweep","expr":"{}"}}"#, "a".repeat(5000)), "expr too long"),
        ] {
            assert!(parse_query(&body).is_err(), "must reject: {why}");
        }
    }

    #[test]
    fn served_engine_labels_keep_their_cache_keys() {
        // `auto` and `batch` run the same engine but stay distinct
        // spellings in the canonical form, so the keys of existing cache
        // entries (and the benchmark's pinned serve digest) hold.
        for (backend, key) in [
            ("auto", "97c11786b44a0f59ad32283c9893feb6087c4ed667351de6dd85ecc0d32f7b49"),
            ("batch", "8c73001ac1c87e8882986d9011619e963e302d57cdb99f8af9ebb3959d2590d0"),
        ] {
            let q = parse_query(&format!(
                r#"{{"kind":"sweep","expr":"{EXPR}","backend":"{backend}"}}"#
            ))
            .unwrap();
            assert_eq!(q.cache_key().hex(), key, "{backend}");
        }
    }

    #[test]
    fn overflowing_constants_are_bad_requests_not_wrong_answers() {
        for expr in [
            // Fits an i128, but no datapath can carry it.
            "y = a + 99999999999999999999999999999999999999",
            // 2^64 · 2^64 = 2^128 does not fit an i128 numerator.
            "y = a + 18446744073709551616 * 18446744073709551616",
        ] {
            for kind in ["sweep", "sta", "lint", "verify"] {
                let q = parse_query(&format!(r#"{{"kind":"{kind}","expr":"{expr}"}}"#)).unwrap();
                assert!(
                    matches!(q.run(), Err(QueryError::BadRequest(_))),
                    "{kind} query on {expr:?} must be a bad request"
                );
            }
        }
    }

    #[test]
    fn conventional_width_caps_are_bad_requests_not_panics() {
        // Two 16-digit products are 34 bits wide: past the 31-bit cap of
        // the conventional multiplier.
        let expr = "y = a * b * c";
        for body in [
            format!(r#"{{"kind":"lint","expr":"{expr}","style":"conventional","width":16}}"#),
            format!(r#"{{"kind":"verify","expr":"{expr}","style":"conventional","width":16}}"#),
            format!(r#"{{"kind":"pareto","expr":"{expr}","widths":[4,16]}}"#),
        ] {
            let q = parse_query(&body).unwrap();
            assert!(matches!(q.run(), Err(QueryError::BadRequest(_))), "{body}");
        }
        // The online lowering has no such cap.
        let q = parse_query(&format!(r#"{{"kind":"lint","expr":"{expr}","width":16}}"#)).unwrap();
        assert!(q.run().is_ok());
    }

    #[test]
    fn sweep_runs_and_is_deterministic() {
        let q = parse_query(&format!(
            r#"{{"kind":"sweep","expr":"{EXPR}","width":2,"ts_points":4,"samples":6}}"#
        ))
        .unwrap();
        let a = q.run().unwrap().render();
        let b = q.run().unwrap().render();
        assert_eq!(a, b, "sweep results are bit-identical across runs");
        let doc = json::parse(&a).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("sweep"));
        assert_eq!(doc.get("ts").unwrap().as_array().unwrap().len(), 4);
        assert!(doc.get("critical_path").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn sta_and_lint_answer_without_simulation() {
        let q =
            parse_query(&format!(r#"{{"kind":"sta","expr":"{EXPR}","width":3,"ts_points":5}}"#))
                .unwrap();
        let doc = q.run().unwrap();
        assert!(doc.get("digits").unwrap().as_u64().unwrap() > 0);
        let rows = doc.get("certification").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 5);
        // The last grid point is the critical path: everything certifies.
        assert_eq!(rows.last().unwrap().get("all_certified"), Some(&JsonValue::Bool(true)));

        let q = parse_query(&format!(r#"{{"kind":"lint","expr":"{EXPR}","width":3}}"#)).unwrap();
        let doc = q.run().unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("lint"));
        assert!(doc.get("clean").is_some());
    }

    #[test]
    fn pareto_query_matches_explorer_shape() {
        let q = parse_query(&format!(
            r#"{{"kind":"pareto","expr":"{EXPR}","widths":[2,3],"ts_points":4,"samples":6}}"#
        ))
        .unwrap();
        let doc = q.run().unwrap();
        let points = doc.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 2 * 3 * 2, "styles × allocations × widths");
        assert!(doc.get("frontier_size").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn verify_query_proves_the_pipeline_and_bounds_the_error() {
        let q =
            parse_query(&format!(r#"{{"kind":"verify","expr":"{EXPR}","width":3,"ts_points":4}}"#))
                .unwrap();
        let a = q.run().unwrap().render();
        assert_eq!(a, q.run().unwrap().render(), "verify results are deterministic");
        let doc = json::parse(&a).unwrap();
        assert_eq!(doc.get("passes_verdict").unwrap().as_str(), Some("equivalent"));
        assert_eq!(doc.get("counterexample"), Some(&JsonValue::Null));
        let ts = doc.get("ts").unwrap().as_array().unwrap();
        let bounds = doc.get("error_bound").unwrap().as_array().unwrap();
        assert_eq!(ts.len(), 4);
        assert_eq!(bounds.len(), 4);
        // Bounds shrink (weakly) as Ts approaches the critical path.
        let b: Vec<f64> = bounds
            .iter()
            .map(|v| match v {
                JsonValue::F64(f) => *f,
                other => panic!("bound must be a float, got {other:?}"),
            })
            .collect();
        assert!(b.windows(2).all(|w| w[1] <= w[0]), "monotone bounds: {b:?}");
        // Distinct kind ⇒ distinct cache key versus an identical sta query.
        let sta =
            parse_query(&format!(r#"{{"kind":"sta","expr":"{EXPR}","width":3,"ts_points":4}}"#))
                .unwrap();
        assert_ne!(q.cache_key(), sta.cache_key());
    }

    #[test]
    fn dsp_query_needs_no_expr_and_reports_both_fusion_flavours() {
        let q = parse_query(
            r#"{"kind":"dsp","kernel":"fir","size":4,"width":3,"ts_points":4,"samples":6}"#,
        )
        .unwrap();
        let a = q.run().unwrap().render();
        assert_eq!(a, q.run().unwrap().render(), "dsp results are deterministic");
        let doc = json::parse(&a).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("dsp"));
        let fused = doc.get("fused").unwrap();
        let unfused = doc.get("unfused").unwrap();
        let cp = |d: &JsonValue| d.get("critical_path").unwrap().as_u64().unwrap();
        assert!(cp(fused) > 0 && cp(unfused) > 0);
        // The fused online accumulator has no selection chains: shorter
        // settled latency than the tree of online multipliers.
        assert!(cp(fused) < cp(unfused), "fused {} vs unfused {}", cp(fused), cp(unfused));
        assert_eq!(doc.get("ts").unwrap().as_array().unwrap().len(), 4);

        // Fusion selection changes the cache key.
        let uq = parse_query(
            r#"{"kind":"dsp","kernel":"fir","size":4,"width":3,"ts_points":4,"samples":6,
               "fusion":"unfused"}"#,
        )
        .unwrap();
        assert_ne!(q.cache_key(), uq.cache_key());
    }

    #[test]
    fn dsp_query_validates_kernel_and_dimensions() {
        for (body, why) in [
            (r#"{"kind":"dsp","kernel":"fft"}"#, "unknown kernel"),
            (r#"{"kind":"dsp","size":0}"#, "zero size"),
            (r#"{"kind":"dsp","size":4096}"#, "size over limit"),
            (r#"{"kind":"dsp","kernel":"matvec","rows":0}"#, "zero rows"),
            (r#"{"kind":"dsp","fusion":"partial"}"#, "unknown fusion"),
            (r#"{"kind":"sweep"}"#, "non-dsp kinds still require expr"),
        ] {
            assert!(parse_query(body).is_err(), "must reject: {why}");
        }
        // All three kernels parse and run at small sizes.
        for kernel in ["fir", "conv2d", "matvec"] {
            let q = parse_query(&format!(
                r#"{{"kind":"dsp","kernel":"{kernel}","size":2,"width":2,"ts_points":3,"samples":4}}"#
            ))
            .unwrap();
            assert_eq!(q.kind(), "dsp");
            assert!(q.run().is_ok(), "{kernel} runs");
        }
    }

    #[test]
    fn bad_expression_is_a_bad_request_not_a_panic() {
        let q = parse_query(r#"{"kind":"lint","expr":"y = = ("}"#).unwrap();
        let err = q.run().expect_err("parse failure surfaces as BadRequest");
        assert!(matches!(err, QueryError::BadRequest(_)));
        assert!(err.to_string().contains("bad request"));
    }
}
