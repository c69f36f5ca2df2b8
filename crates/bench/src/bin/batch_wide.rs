//! Measures the wide-lane batch engine, with the sampled faulty pass fault
//! campaigns run, against the 64-lane full-resimulation baseline and
//! writes `BENCH_batch.json`.
//!
//! The workload is the fault-campaign Monte-Carlo sweep shape: batches
//! of random input vectors get one clean pass, a multi-`Ts` sweep of
//! every output, and then one faulty pass + sweep per injection site.
//! Three arms run the identical workload:
//!
//! * `lanes64_full` — the pre-wide-lane baseline: legacy `u64` words
//!   (64 lanes), every faulty pass a full resimulation.
//! * `lanes256_full` — `LaneBlock<4>` words (256 lanes), full faulty
//!   passes: isolates the wide-lane contribution.
//! * `lanes256_sampled` — 256 lanes, every faulty pass a sampled pass
//!   ([`BatchProgram::run_bus_at`] at the grid's times), the pass fault
//!   campaigns run: each net keeps only the steps that can still reach a
//!   register at one of those times.
//!
//! Every arm folds its swept sample bits into a lane-order-canonical
//! digest, so bit-identity across lane widths and faulty-pass kinds is
//! checked, not assumed. Each arm runs once to warm up and then three
//! timed times; its time is the median of the three, and
//! `BENCH_batch.json` records every timed run.
//!
//! ```sh
//! cargo run --release -p ola-bench --bin batch_wide
//! ```
//!
//! Exit code 0 when every run of every arm is bit-identical and the
//! sampled arm's median is at least 2x the 64-lane baseline's, 1
//! otherwise.

use ola_arith::synth::online_multiplier;
use ola_core::obs::json::JsonValue;
use ola_netlist::batch::{BatchProgram, LaneBlock, LaneFaultSet, LaneInputs, LaneWord};
use ola_netlist::{analyze, FaultPlan, FpgaDelay, NetId, Netlist};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const N_DIGITS: usize = 16;
const SAMPLES: usize = 1024;
const TS_POINTS: u64 = 20;
const FAULT_SITES: usize = 12;
const SEED: u64 = 20_14;

fn ts_grid(rated: u64) -> Vec<u64> {
    (1..=TS_POINTS).map(|k| (rated * k).div_ceil(TS_POINTS).max(1)).collect()
}

/// Deterministic stimulus: `SAMPLES` random input vectors (from-zero
/// transitions, the campaign access pattern).
fn stimulus(num_inputs: usize) -> Vec<Vec<bool>> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    (0..SAMPLES).map(|_| (0..num_inputs).map(|_| rng.gen::<bool>()).collect()).collect()
}

/// Fault sites spread evenly over the netlist's gate nets.
fn fault_sites(nl: &Netlist) -> Vec<NetId> {
    let gates: Vec<NetId> = nl.nets().filter(|n| !nl.inputs().contains(n)).collect();
    (0..FAULT_SITES).map(|i| gates[i * gates.len() / FAULT_SITES]).collect()
}

/// FNV-style hash of one sampled lane, bound to its global position so
/// the digest is sensitive to which sample/pass/grid point produced the
/// bits, yet independent of chunk boundaries (arms fold the same
/// per-position hashes with a commutative sum regardless of lane width).
fn position_hash(sample: usize, pass: usize, ti: usize, bits: &[bool]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (sample as u64) << 32 ^ (pass as u64) << 16 ^ ti as u64;
    for &b in bits {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b) + 1);
    }
    h
}

/// One full workload pass at lane word `B`: per batch a clean run +
/// sweep, then per fault site a faulty pass (a sampled pass when asked)
/// swept at the grid. Returns the lane-order-canonical digest of every
/// swept sample bit, which must not depend on `B` or on `sampled`.
fn workload<B: LaneWord>(
    prog: &BatchProgram,
    nl: &Netlist,
    bus: &[NetId],
    vecs: &[Vec<bool>],
    grid: &[u64],
    sites: &[NetId],
    sampled: bool,
) -> u64 {
    let mut digest = 0u64;
    for (ci, chunk) in vecs.chunks(B::LANES as usize).enumerate() {
        let chunk_start = ci * B::LANES as usize;
        let lanes = chunk.len() as u32;
        let prev = LaneInputs::<B>::zeros(nl.inputs().len(), lanes).expect("lane cap");
        let new = LaneInputs::<B>::pack(chunk).expect("lane cap");
        let clean = prog.run(&prev, &new).expect("clean pass");
        let sweep =
            clean.bus_waves(bus).expect("bus").try_sweep(grid).expect("grid has no duplicates");
        for lane in 0..lanes {
            for ti in 0..grid.len() {
                let bits = sweep.lane_bits(ti, lane);
                digest =
                    digest.wrapping_add(position_hash(chunk_start + lane as usize, 0, ti, &bits));
            }
        }
        for (k, &site) in sites.iter().enumerate() {
            let plan = FaultPlan::new().transient(site, grid[k % grid.len()] / 2, 3);
            let plans = vec![plan; lanes as usize];
            let faults = LaneFaultSet::<B>::compile(&plans, nl.len()).expect("sites are in range");
            let sweep = if sampled {
                prog.run_bus_at(&prev, &new, Some(&faults), bus, grid)
                    .expect("sampled faulty pass")
                    .sweep()
                    .clone()
            } else {
                prog.run_with_faults(&prev, &new, &faults)
                    .expect("faulty pass")
                    .bus_waves(bus)
                    .expect("bus")
                    .try_sweep(grid)
                    .expect("grid has no duplicates")
            };
            for lane in 0..lanes {
                for ti in 0..grid.len() {
                    let bits = sweep.lane_bits(ti, lane);
                    digest = digest.wrapping_add(position_hash(
                        chunk_start + lane as usize,
                        k + 1,
                        ti,
                        &bits,
                    ));
                }
            }
        }
    }
    digest
}

/// Timed runs per arm; an arm's time is their median.
const RUNS: usize = 3;

struct Arm {
    name: &'static str,
    lanes: u64,
    runs: Vec<f64>,
    secs: f64,
    digests: Vec<u64>,
}

#[allow(clippy::too_many_arguments)]
fn measure<B: LaneWord>(
    name: &'static str,
    prog: &BatchProgram,
    nl: &Netlist,
    bus: &[NetId],
    vecs: &[Vec<bool>],
    grid: &[u64],
    sites: &[NetId],
    sampled: bool,
) -> Arm {
    // One warm pass so no arm pays first-touch allocator costs.
    let _ = workload::<B>(prog, nl, bus, vecs, grid, sites, sampled);
    let mut runs = Vec::with_capacity(RUNS);
    let mut digests = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        digests.push(workload::<B>(prog, nl, bus, vecs, grid, sites, sampled));
        runs.push(start.elapsed().as_secs_f64());
    }
    let mut sorted = runs.clone();
    sorted.sort_by(f64::total_cmp);
    let secs = sorted[RUNS / 2];
    eprintln!("  [{name}] median {secs:.3}s of {runs:.3?} digest={:016x}", digests[0]);
    Arm { name, lanes: u64::from(B::LANES), runs, secs, digests }
}

fn main() {
    let delay = FpgaDelay::default();
    let circuit = online_multiplier(N_DIGITS, 3);
    let nl = &circuit.netlist;
    let prog = BatchProgram::compile(nl, &delay).expect("FpgaDelay is batch-exact");
    let grid = ts_grid(analyze(nl, &delay).critical_path());
    let bus: Vec<NetId> = nl.outputs().flat_map(|(_, nets)| nets.iter().copied()).collect();
    let vecs = stimulus(nl.inputs().len());
    let sites = fault_sites(nl);
    eprintln!(
        "batch_wide: N={N_DIGITS} samples={SAMPLES} ts_points={TS_POINTS} sites={}",
        sites.len()
    );

    let arms = [
        measure::<u64>("lanes64_full", &prog, nl, &bus, &vecs, &grid, &sites, false),
        measure::<LaneBlock<4>>("lanes256_full", &prog, nl, &bus, &vecs, &grid, &sites, false),
        measure::<LaneBlock<4>>("lanes256_sampled", &prog, nl, &bus, &vecs, &grid, &sites, true),
    ];

    let identical = arms.iter().flat_map(|a| &a.digests).all(|&d| d == arms[0].digests[0]);
    let baseline = arms[0].secs;
    let speedup = baseline / arms[2].secs;

    let mut fields = vec![
        ("bench".into(), JsonValue::str("wide-lane sampled batch vs 64-lane full resim")),
        ("workload".into(), JsonValue::str("online multiplier N=16 fault-campaign mc sweep")),
        ("samples".into(), JsonValue::U64(SAMPLES as u64)),
        ("ts_points".into(), JsonValue::U64(TS_POINTS)),
        ("fault_sites".into(), JsonValue::U64(FAULT_SITES as u64)),
        ("seed".into(), JsonValue::U64(SEED)),
    ];
    for a in &arms {
        fields.push((format!("{}_secs", a.name), JsonValue::F64(a.secs)));
        let runs = a.runs.iter().map(|&r| JsonValue::F64(r)).collect();
        fields.push((format!("{}_runs_secs", a.name), JsonValue::Array(runs)));
        fields.push((format!("{}_lanes", a.name), JsonValue::U64(a.lanes)));
    }
    fields.push(("speedup_vs_baseline".into(), JsonValue::F64(speedup)));
    fields.push(("wide_lane_only_speedup".into(), JsonValue::F64(baseline / arms[1].secs)));
    fields.push(("bit_identical".into(), JsonValue::Bool(identical)));
    let json = JsonValue::Object(fields);
    let path = "BENCH_batch.json";
    if let Err(e) = std::fs::write(path, format!("{}\n", json.render())) {
        eprintln!("  write {path} failed: {e}");
        std::process::exit(1);
    }
    eprintln!("  wrote {path}: speedup {speedup:.1}x, bit_identical={identical}");

    if !identical {
        eprintln!("FAIL: arms disagree on swept sample bits");
        std::process::exit(1);
    }
    if speedup < 2.0 {
        eprintln!("FAIL: sampled arm is only {speedup:.2}x the 64-lane baseline (need >= 2x)");
        std::process::exit(1);
    }
}
