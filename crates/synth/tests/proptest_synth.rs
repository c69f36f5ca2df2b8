//! Property-based tests for the datapath synthesis compiler: random
//! bounded-depth DAGs must elaborate to netlists that are bit-true
//! against the IR's reference evaluators in both styles, and every
//! optimization pass must preserve the exact semantics of every output.
//! Random expression text must compile or fail with a typed error, never
//! panic, and so must random service query bodies.

use ola_core::obs::json::{self, JsonValue};
use ola_redundant::{BsVector, Q};
use ola_synth::{
    allocate_adders, constant_fold, conventional_caps_ok, cse, elaborate, eliminate_dead, optimize,
    parse_dfg, AdderStructure, Dfg, ElabOptions, InputFmt, Limits, NodeId, Query, QueryError,
    Style,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One random operation in a DAG spec. Operand slots are raw draws taken
/// modulo the number of already-built nodes, so every spec is a valid
/// DAG by construction.
#[derive(Clone, Debug)]
struct OpSpec {
    kind: u8,
    a: usize,
    b: usize,
    num: i128,
    scale: u32,
}

/// A bounded random DAG: input formats, a topologically ordered op list,
/// one extra output pick, plus the value-draw seed.
#[derive(Clone, Debug)]
struct DagSpec {
    inputs: Vec<InputFmt>,
    ops: Vec<OpSpec>,
    extra_output: usize,
    seed: u64,
    frac: i32,
}

fn fmt_strategy() -> impl Strategy<Value = InputFmt> {
    (-1i32..=2, 2usize..=4).prop_map(|(msd_pos, digits)| InputFmt { msd_pos, digits })
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    (0u8..6, 0usize..64, 0usize..64, -9i128..=9, 0u32..=3)
        .prop_map(|(kind, a, b, num, scale)| OpSpec { kind, a, b, num, scale })
}

fn dag_strategy() -> impl Strategy<Value = DagSpec> {
    (
        prop::collection::vec(fmt_strategy(), 1..=3),
        prop::collection::vec(op_strategy(), 1..=7),
        0usize..64,
        any::<u64>(),
        3i32..=5,
    )
        .prop_map(|(inputs, ops, extra_output, seed, frac)| DagSpec {
            inputs,
            ops,
            extra_output,
            seed,
            frac,
        })
}

/// Conventional operand width of `id` in the graph built so far; used to
/// keep random multiplies inside the Baugh–Wooley array's width cap.
fn tc_width(d: &Dfg, id: NodeId) -> usize {
    d.tc_formats()[id.index()].0
}

fn build(spec: &DagSpec) -> Dfg {
    let mut d = Dfg::new();
    let mut nodes: Vec<NodeId> =
        spec.inputs.iter().enumerate().map(|(i, &fmt)| d.input(&format!("x{i}"), fmt)).collect();
    for op in &spec.ops {
        let a = nodes[op.a % nodes.len()];
        let b = nodes[op.b % nodes.len()];
        let c = Q::new(op.num, op.scale);
        let node = match op.kind {
            0 => d.add(a, b),
            1 => d.sub(a, b),
            2 => d.neg(a),
            3 if tc_width(&d, a).max(tc_width(&d, b)) <= 20 => d.mul(a, b),
            3 => d.add(a, b), // too wide for the array cap: degrade to add
            4 => d.const_mul(c, a),
            _ => d.constant(c),
        };
        nodes.push(node);
    }
    let last = *nodes.last().expect("ops is non-empty");
    d.mark_output("y", last);
    let extra = nodes[spec.extra_output % nodes.len()];
    if extra != last {
        d.mark_output("z", extra);
    }
    d
}

/// Random exact input values, one per input port, inside each port's
/// two's-complement format.
fn random_tc_inputs(d: &Dfg, rng: &mut ChaCha8Rng) -> Vec<Q> {
    d.inputs()
        .iter()
        .map(|&(_, _, fmt)| {
            let frac = fmt.msd_pos + fmt.digits as i32 - 1;
            let bound = 1i128 << fmt.digits;
            let units = rng.gen_range(-bound..bound);
            if frac >= 0 {
                Q::new(units, frac as u32)
            } else {
                Q::new(units, 0) << (-frac) as u32
            }
        })
        .collect()
}

/// Random borrow-save input vectors, one per input port, matching each
/// port's window. Digits are raw `(p, n)` bit pairs, so non-canonical
/// encodings (including the `(1, 1)` zero) are exercised.
fn random_online_inputs(d: &Dfg, rng: &mut ChaCha8Rng) -> Vec<BsVector> {
    d.inputs()
        .iter()
        .map(|&(_, _, fmt)| {
            let mut v = BsVector::zero(fmt.msd_pos, fmt.digits);
            for i in 0..fmt.digits {
                v.set_bits(fmt.msd_pos + i as i32, rng.gen(), rng.gen());
            }
            v
        })
        .collect()
}

/// Asserts that `dp` (a conventional elaboration of `dfg`) computes
/// exactly `reference.eval_exact` on `trials` random input draws.
fn check_conventional(
    dfg: &Dfg,
    reference: &Dfg,
    rng: &mut ChaCha8Rng,
    trials: usize,
) -> Result<(), TestCaseError> {
    let dp = elaborate(dfg, &ElabOptions::new(Style::Conventional));
    let wires = dp.output_wires();
    for _ in 0..trials {
        let ins = random_tc_inputs(dfg, rng);
        let want = reference.eval_exact(&ins);
        let vals = dp.netlist.eval(&dp.encode_inputs_tc(&ins));
        let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
        for (pi, w) in want.iter().enumerate() {
            prop_assert_eq!(&dp.decode_output(pi, &bits), w, "port {} inputs {:?}", pi, ins);
        }
    }
    Ok(())
}

/// Asserts that the online elaboration of `dfg` is bit-identical to
/// `dfg.eval_online` — digit plane for digit plane, truncation included —
/// on `trials` random input draws.
fn check_online(
    dfg: &Dfg,
    frac: i32,
    rng: &mut ChaCha8Rng,
    trials: usize,
) -> Result<(), TestCaseError> {
    let dp = elaborate(dfg, &ElabOptions::new(Style::Online).with_frac_digits(frac));
    let wires = dp.output_wires();
    for _ in 0..trials {
        let ins = random_online_inputs(dfg, rng);
        let want = dfg.eval_online(&ins, frac);
        let vals = dp.netlist.eval(&dp.encode_inputs_online(&ins));
        let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
        for (pi, w) in want.iter().enumerate() {
            prop_assert_eq!(&dp.decode_output_bs(pi, &bits), w, "port {} inputs {:?}", pi, ins);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite (b), conventional half: random DAGs lower to
    /// two's-complement netlists that settle to the exact rational
    /// semantics of the IR.
    #[test]
    fn conventional_netlists_are_exact_on_random_dags(spec in dag_strategy()) {
        let dfg = build(&spec);
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        check_conventional(&dfg, &dfg, &mut rng, 4)?;
    }

    /// Satellite (b), online half: random DAGs lower to borrow-save
    /// netlists bit-true against the IR's online reference evaluator —
    /// multiplier truncation and non-canonical digits included.
    #[test]
    fn online_netlists_are_bit_true_on_random_dags(spec in dag_strategy()) {
        let dfg = build(&spec);
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x9e37_79b9);
        check_online(&dfg, spec.frac, &mut rng, 4)?;
    }

    /// Every pass — individually and composed through `optimize` with
    /// each adder structure — preserves `eval_exact` on every output.
    #[test]
    fn passes_preserve_exact_semantics(spec in dag_strategy()) {
        let dfg = build(&spec);
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x51f1);
        let variants: Vec<(&str, Dfg)> = vec![
            ("constant_fold", constant_fold(&dfg)),
            ("cse", cse(&dfg)),
            ("eliminate_dead", eliminate_dead(&dfg)),
            ("alloc/chain", allocate_adders(&dfg, AdderStructure::LinearChain)),
            ("alloc/tree", allocate_adders(&dfg, AdderStructure::BalancedTree)),
            ("optimize/chain", optimize(&dfg, AdderStructure::LinearChain)),
            ("optimize/tree", optimize(&dfg, AdderStructure::BalancedTree)),
            ("optimize/online-chain", optimize(&dfg, AdderStructure::OnlineChained)),
        ];
        for _ in 0..4 {
            let ins = random_tc_inputs(&dfg, &mut rng);
            let want = dfg.eval_exact(&ins);
            for (name, v) in &variants {
                prop_assert_eq!(&v.eval_exact(&ins), &want, "pass {} inputs {:?}", name, ins);
            }
        }
    }

    /// The composition theorem the explorer relies on: graphs that went
    /// through the full `optimize` pipeline still elaborate bit-true in
    /// both styles (conventional against the *original* graph's exact
    /// semantics; online against the optimized graph's own bit-level
    /// reference, since restructuring changes digit windows but not
    /// values).
    #[test]
    fn optimized_dags_still_elaborate_bit_true(spec in dag_strategy()) {
        let dfg = build(&spec);
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xabcd);
        for s in [AdderStructure::LinearChain, AdderStructure::BalancedTree] {
            let opt = optimize(&dfg, s);
            check_conventional(&opt, &dfg, &mut rng, 2)?;
            check_online(&opt, spec.frac, &mut rng, 2)?;
        }
    }
}

/// A random literal: an integer of 1 to 39 digits (39 is one past what an
/// `i128` always holds), a power of two up to 2^127 or just inside the
/// 64-bit constant range (whose products leave it), zero, or a decimal
/// fraction that may or may not be dyadic.
fn random_literal(rng: &mut ChaCha8Rng) -> String {
    match rng.gen_range(0..5) {
        0 => {
            let len = rng.gen_range(1..=39);
            (0..len).map(|i| char::from(b'0' + rng.gen_range(u8::from(i == 0)..10))).collect()
        }
        1 => (1u128 << rng.gen_range(0u32..128)).to_string(),
        2 => (1u128 << rng.gen_range(40u32..64)).to_string(),
        3 => "0".to_owned(),
        _ => {
            let frac = ["5", "25", "125", "0625", "1"][rng.gen_range(0usize..5)];
            format!("{}.{frac}", rng.gen_range(0..4))
        }
    }
}

/// A random expression over the parser's alphabet. `ops` budgets binary
/// operators so netlists stay small; unary minus and parentheses nest up
/// to `depth` levels.
fn random_expr(rng: &mut ChaCha8Rng, ops: &mut usize, depth: usize) -> String {
    match rng.gen_range(0..10) {
        0 if depth > 0 => format!("-{}", random_expr(rng, ops, depth - 1)),
        1 if depth > 0 => format!("({})", random_expr(rng, ops, depth - 1)),
        2..=4 if *ops > 0 => {
            *ops -= 1;
            let lhs = random_expr(rng, ops, depth);
            let rhs = random_expr(rng, ops, depth);
            format!("{lhs} {} {rhs}", ["+", "-", "*"][rng.gen_range(0usize..3)])
        }
        5 | 6 => ["a", "b", "c"][rng.gen_range(0usize..3)].to_owned(),
        _ => random_literal(rng),
    }
}

/// A one- or two-statement program, sometimes wrapped in a `-(…)` chain
/// that crosses the parser's 256-level nesting bound.
fn random_program(seed: u64) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ops = rng.gen_range(0..=6);
    let mut body = random_expr(&mut rng, &mut ops, 8);
    if rng.gen_bool(0.2) {
        let n = rng.gen_range(1..=160);
        body = format!("{}{body}{}", "-(".repeat(n), ")".repeat(n));
    }
    if rng.gen_bool(0.3) {
        format!("t = {body}; y = t * {}", random_expr(&mut rng, &mut 1, 2))
    } else {
        format!("y = {body}")
    }
}

/// Parses, optimizes and elaborates `src` in both styles; the only way
/// out other than success is a typed parse error, or a graph the
/// conventional lowering declines by its documented width caps.
fn compile_every_way(src: &str, width: usize) {
    let Ok(dfg) = parse_dfg(src, InputFmt { msd_pos: 1, digits: width }) else {
        return;
    };
    for s in
        [AdderStructure::LinearChain, AdderStructure::BalancedTree, AdderStructure::OnlineChained]
    {
        let opt = optimize(&dfg, s);
        let _ = elaborate(&opt, &ElabOptions::new(Style::Online));
        if conventional_caps_ok(&opt) {
            let _ = elaborate(&opt, &ElabOptions::new(Style::Conventional));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Expression text crosses a trust boundary (served queries): any
    /// program over the grammar's alphabet — huge literals, deep nesting,
    /// constant products past `i128` — ends in `Ok` or a `ParseError`.
    /// The test profile keeps overflow checks on, so a silent wrap fails
    /// here as a panic too.
    #[test]
    fn random_expressions_never_panic(seed in any::<u64>(), width in 1usize..=4) {
        let src = random_program(seed);
        let outcome = std::panic::catch_unwind(|| compile_every_way(&src, width));
        prop_assert!(outcome.is_ok(), "panicked on {:?}", src);
    }
}

/// The fields a query body may carry, with a few well-typed values each.
const QUERY_FIELDS: [(&str, &[&str]); 15] = [
    ("expr", &["\"y = a * 0.25 + b\"", "\"y = a\"", "\"t = a; y = t * t\"", "\"y = \""]),
    ("msd_pos", &["1", "0", "-3", "40"]),
    ("frac_digits", &["3", "5", "2"]),
    ("ts_points", &["4", "12", "64"]),
    ("samples", &["1", "48", "4096"]),
    ("seed", &["0", "2024"]),
    ("backend", &["\"auto\"", "\"batch\"", "\"event\"", "\"gpu\""]),
    ("width", &["1", "4", "16"]),
    ("style", &["\"online\"", "\"conventional\"", "\"octal\""]),
    ("allocation", &["\"chain\"", "\"tree\"", "\"online-chain\"", "\"star\""]),
    ("widths", &["[4,8]", "[2]", "[]", "[4,0]", "[1,2,3,4,5,6,7,8,9]"]),
    ("kernel", &["\"fir\"", "\"conv2d\"", "\"matvec\"", "\"fft\""]),
    ("size", &["1", "4", "16"]),
    ("rows", &["1", "2", "16"]),
    ("fusion", &["\"fused\"", "\"unfused\"", "\"half\""]),
];

/// Values of the wrong type or size for any field: out-of-range and
/// boundary integers, a float, an over-long string, and the other types.
const JUNK_VALUES: [&str; 12] = [
    "18446744073709551615",
    "-9223372036854775808",
    "4294967296",
    "-1",
    "1.5e308",
    "true",
    "null",
    "\"\"",
    "\"\\u00e9\\n\"",
    "{}",
    "[null]",
    "{\"kind\":\"sweep\"}",
];

/// A random JSON value nested up to `depth` levels.
fn random_junk(rng: &mut ChaCha8Rng, depth: usize) -> String {
    match rng.gen_range(0..4) {
        0 if depth > 0 => {
            let items: Vec<String> =
                (0..rng.gen_range(0..3)).map(|_| random_junk(rng, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        1 if depth > 0 => {
            let k = QUERY_FIELDS[rng.gen_range(0..QUERY_FIELDS.len())].0;
            format!("{{\"{k}\":{}}}", random_junk(rng, depth - 1))
        }
        _ => JUNK_VALUES[rng.gen_range(0..JUNK_VALUES.len())].to_owned(),
    }
}

/// A random request body as JSON text: every `kind`, plus missing,
/// unknown and wrong-typed kinds; each field missing, well-typed,
/// wrong-typed, huge or nested junk; sometimes deep nesting or a
/// non-object document.
fn random_query_body(seed: u64) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    if rng.gen_bool(0.05) {
        return random_junk(&mut rng, 4);
    }
    let mut fields: Vec<String> = Vec::new();
    match rng.gen_range(0..20) {
        0 => {}
        1 => fields.push(format!("\"kind\":{}", random_junk(&mut rng, 2))),
        2 => fields.push("\"kind\":\"mystery\"".to_owned()),
        _ => {
            let kind =
                ["pareto", "sweep", "sta", "lint", "verify", "dsp"][rng.gen_range(0usize..6)];
            fields.push(format!("\"kind\":\"{kind}\""));
        }
    }
    // Half the bodies are mostly well-formed, so parsing gets past the
    // first bad field often enough to reach `canonical`.
    let junk_rate = if rng.gen_bool(0.5) { 0.02 } else { 0.3 };
    for (key, good) in QUERY_FIELDS {
        let value = if key != "expr" && rng.gen_bool(0.4) {
            continue;
        } else if !rng.gen_bool(junk_rate) {
            good[rng.gen_range(0..good.len())].to_owned()
        } else if rng.gen_bool(0.5) {
            random_junk(&mut rng, 3)
        } else if key == "expr" {
            format!("\"y = {}\"", "a + ".repeat(rng.gen_range(900..1100)))
        } else {
            JUNK_VALUES[rng.gen_range(0usize..3)].to_owned()
        };
        fields.push(format!("\"{key}\":{value}"));
    }
    if rng.gen_bool(0.2) {
        fields.push(format!("\"extra\":{}", random_junk(&mut rng, 5)));
    }
    if rng.gen_bool(0.05) {
        // Nesting around the JSON reader's depth bound, or far past it.
        let n = if rng.gen_bool(0.5) { rng.gen_range(120..140) } else { 200_000 };
        fields.push(format!("\"deep\":{}{}", "[".repeat(n), "]".repeat(n)));
    }
    if !fields.is_empty() {
        // Field order must not matter, `kind` included.
        let j = rng.gen_range(0..fields.len());
        fields.swap(0, j);
    }
    format!("{{{}}}", fields.join(","))
}

/// Drives one body through `Query::from_json` → `canonical` →
/// `cache_key`. A parsed query must canonicalize to a fixed point (its
/// canonical form parses back to the same query and key) and never names
/// the event engine.
fn check_query_body(text: &str) -> Result<(), String> {
    let Ok(body) = json::parse(text) else {
        return Ok(()); // the server answers 400 "invalid JSON"
    };
    let asks_for_event = body.get("backend") == Some(&JsonValue::str("event"));
    match Query::from_json(&body, &Limits::default()) {
        Err(QueryError::BadRequest(_)) => Ok(()),
        Ok(_) if asks_for_event => Err("the event engine was accepted".to_owned()),
        Ok(q) => {
            let canonical = q.canonical();
            let key = q.cache_key();
            let backend = canonical.get("backend").and_then(JsonValue::as_str);
            if !matches!(backend, None | Some("auto" | "batch")) {
                return Err(format!("canonical backend {backend:?}"));
            }
            let again =
                json::parse(&canonical.render()).map_err(|e| e.to_string()).and_then(|c| {
                    Query::from_json(&c, &Limits::default()).map_err(|e| e.to_string())
                })?;
            if again != q || again.cache_key() != key {
                return Err(format!("canonical form is not a fixed point: {canonical:?}"));
            }
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Query bodies cross the service's trust boundary: any body ends in a
    /// parsed query or `QueryError::BadRequest`, never a panic.
    #[test]
    fn random_query_bodies_never_panic(seed in any::<u64>()) {
        let text = random_query_body(seed);
        let outcome = std::panic::catch_unwind(|| check_query_body(&text));
        prop_assert!(outcome.is_ok(), "panicked on {}", text);
        let verdict = outcome.unwrap_or(Ok(()));
        prop_assert!(verdict.is_ok(), "{:?} on {}", verdict, text);
    }
}
