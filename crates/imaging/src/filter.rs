//! The overclocked Gaussian image filter (Section 4 of the paper).
//!
//! One [`Filter`] type builds the same `N`-digit multiply-accumulate
//! datapath in either arithmetic:
//!
//! * [`Filter::online`] — digit-parallel online multipliers feeding a tree
//!   of online (signed-digit) adders;
//! * [`Filter::traditional`] — two's-complement array multipliers feeding a
//!   tree of ripple-carry adders (the Core-Generator stand-in).
//!
//! Both are synthesized to gate level and overclocked identically: the
//! multiplier bank and the adder tree are register-separated stages clocked
//! with period `Ts`, simulated on the batch timing engine under a jittered
//! FPGA delay model (lane for lane identical to the event-driven simulator,
//! which the tests keep as the oracle). Errors are measured against the
//! same design's *settled* output — exactly the paper's "overclocking
//! error".
//!
//! Coefficients are fixed and pixels are 8-bit, so the multiplier bank is
//! one bus-only batch pass per distinct coefficient whose 256 lanes are the
//! 256 pixel values. Those product waveforms are kept for the filter's
//! lifetime and can be sampled at any clock period for free; each period
//! then costs one adder-tree pass per 256-pixel chunk, fed with the
//! sampled product bits.

use crate::{Image, Kernel};
use ola_arith::online::DELTA;
use ola_arith::synth::{
    array_multiplier, bits, decode_planes_value, online_multiplier, ArrayMultiplierCircuit,
    OnlineMultiplierCircuit,
};
use ola_core::metrics;
use ola_netlist::batch::{BatchProgram, LaneBlock, LaneBusWaves, LaneInputs, LaneWord};
use ola_netlist::{analyze, FpgaDelay, JitteredDelay, NetId, Netlist};
use ola_redundant::{SdNumber, Q};
use ola_synth::{allocate_adders, elaborate, eliminate_dead};
use ola_synth::{AdderStructure, Dfg, ElabOptions, InputFmt, Style};
use std::sync::OnceLock;

/// The lane word of every filter pass: 256 lanes, one per 8-bit pixel value
/// in a product pass and one per output pixel in a tree pass.
type Word = LaneBlock<4>;

/// Configuration shared by both filter implementations.
#[derive(Clone, Debug)]
pub struct FilterConfig {
    /// Operand digit count `N` (the paper uses 8).
    pub digits: usize,
    /// The convolution kernel (quantized to `2^-digits`).
    pub kernel: Kernel,
    /// Delay jitter amplitude (stand-in for place-and-route variation).
    pub jitter_amplitude: u64,
    /// Delay jitter seed.
    pub jitter_seed: u64,
}

impl FilterConfig {
    /// The paper's setup: `N = 8`, 3×3 Gaussian (σ = 1) quantized to 8
    /// fractional bits, moderate delay jitter.
    #[must_use]
    pub fn paper_default() -> Self {
        FilterConfig {
            digits: 8,
            kernel: Kernel::gaussian(3, 1.0, 8),
            jitter_amplitude: 15,
            jitter_seed: 2014,
        }
    }
}

/// Output of one overclocked run at a single clock period.
#[derive(Clone, Debug)]
pub struct FilterRun {
    /// The clock period.
    pub ts: u64,
    /// The output image produced at this period.
    pub image: Image,
    /// Per-pixel sampled values (normalized to `[0, 1)`).
    pub sampled: Vec<f64>,
    /// Mean relative error vs the settled output, in percent (Eq. 13).
    pub mre_percent: f64,
    /// SNR of the sampled output against the settled output, in dB.
    pub snr_db: f64,
    /// Number of pixels that differ from the settled output.
    pub wrong_pixels: usize,
}

/// A sweep of one image over several clock periods.
#[derive(Clone, Debug)]
pub struct FilterSweep {
    /// The design's settled (timing-correct) output image.
    pub settled_image: Image,
    /// Per-pixel settled values.
    pub settled: Vec<f64>,
    /// One run per requested period.
    pub runs: Vec<FilterRun>,
    /// The design's rated period (structural STA over both stages).
    pub rated_period: u64,
}

/// What differs between the two arithmetics: the multiplier, the encoded
/// distinct coefficients, and how products and tree sums are encoded and
/// decoded.
enum Arith {
    Online {
        mult: OnlineMultiplierCircuit,
        coeffs: Vec<SdNumber>,
        /// Weight position of the tree output's most significant digit.
        sum_msd_pos: i32,
    },
    Traditional {
        mult: ArrayMultiplierCircuit,
        coeffs: Vec<i64>,
    },
}

impl Arith {
    fn multiplier(&self) -> &Netlist {
        match self {
            Arith::Online { mult, .. } => &mult.netlist,
            Arith::Traditional { mult, .. } => &mult.netlist,
        }
    }

    /// The multiplier's output bus (online: the `zp` plane, then `zn`).
    fn product_bus(&self) -> Vec<NetId> {
        let nl = self.multiplier();
        match self {
            Arith::Online { .. } => [nl.output("zp"), nl.output("zn")].concat(),
            Arith::Traditional { .. } => nl.output("product").to_vec(),
        }
    }

    /// The multiplier input vector of `pixel × coeffs[coeff]`.
    fn encode(&self, pixel: u8, coeff: usize) -> Vec<bool> {
        match self {
            Arith::Online { mult, coeffs, .. } => {
                let x = SdNumber::from_value(Q::new(i128::from(pixel), 8), mult.n)
                    .expect("pixels are representable");
                mult.encode_inputs(&x, &coeffs[coeff])
            }
            Arith::Traditional { mult, coeffs } => {
                mult.encode_inputs(i64::from(pixel), coeffs[coeff])
            }
        }
    }

    /// The exact value of a product bus.
    fn product(&self, bus: &[bool]) -> Q {
        match self {
            // Product digit k has weight 2^-(k-δ+1): MSD position 1 − δ.
            Arith::Online { .. } => planes_value(1 - DELTA as i32, bus),
            Arith::Traditional { mult, .. } => {
                Q::new(i128::from(bits::decode_signed(bus)), 2 * (mult.width as u32 - 1))
            }
        }
    }

    /// The value of the tree's output bus.
    fn sum(&self, bus: &[bool]) -> f64 {
        match self {
            Arith::Online { sum_msd_pos, .. } => planes_value(*sum_msd_pos, bus).to_f64(),
            Arith::Traditional { mult, .. } => {
                bits::decode_signed(bus) as f64 / (2.0f64).powi(2 * (mult.width as i32 - 1))
            }
        }
    }
}

/// The value of an online bus sampled as its `p` plane, then its `n` plane.
fn planes_value(msd_pos: i32, bus: &[bool]) -> Q {
    let (p, n) = bus.split_at(bus.len() / 2);
    decode_planes_value(msd_pos, p, n)
}

/// The compiled tree and the product waveforms, built on the first sweep.
struct Sim {
    tree: BatchProgram,
    /// One bus-only pass per distinct coefficient: lane `p` of entry `c`
    /// is the product bus of pixel value `p` times coefficient `c`.
    products: Vec<LaneBusWaves<Word>>,
}

/// A gate-level filter datapath that can be overclocked: a bank of
/// multipliers by the kernel's fixed coefficients, summed by a balanced
/// adder tree.
pub struct Filter {
    arith: Arith,
    kernel_size: usize,
    tree: Netlist,
    sum_bus: Vec<NetId>,
    delay: JitteredDelay<FpgaDelay>,
    /// The distinct-coefficient index of each kernel tap.
    taps: Vec<usize>,
    rated_period: u64,
    sim: OnceLock<Sim>,
}

impl Filter {
    /// Builds the online-arithmetic filter for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if a kernel coefficient is not representable in `N` digits.
    #[must_use]
    pub fn online(cfg: &FilterConfig) -> Self {
        let n = cfg.digits;
        let values: Vec<SdNumber> = cfg
            .kernel
            .coefficients()
            .iter()
            .map(|&c| SdNumber::from_value(c, n).expect("kernel coefficient fits N digits"))
            .collect();
        let (taps, coeffs) = distinct(&values);
        let (tree, sum_msd_pos) = build_online_tree(n, taps.len());
        let sum_bus = [tree.output("sump"), tree.output("sumn")].concat();
        let arith = Arith::Online { mult: online_multiplier(n, 3), coeffs, sum_msd_pos };
        Filter::build(cfg, arith, taps, tree, sum_bus)
    }

    /// Builds the conventional two's-complement filter. The multiplier is
    /// `N+1` bits wide so its two's-complement range matches the `N`-digit
    /// signed-digit range (the paper's fairness note).
    ///
    /// # Panics
    ///
    /// Panics if a kernel coefficient is not representable.
    #[must_use]
    pub fn traditional(cfg: &FilterConfig) -> Self {
        let w = cfg.digits + 1;
        let values: Vec<i64> = cfg
            .kernel
            .coefficients()
            .iter()
            .map(|&c| {
                c.scaled_to(cfg.digits as u32).expect("kernel coefficient fits N bits") as i64
            })
            .collect();
        let (taps, coeffs) = distinct(&values);
        let tree = build_tc_tree(2 * w, taps.len());
        let sum_bus = tree.output("sum").to_vec();
        let arith = Arith::Traditional { mult: array_multiplier(w), coeffs };
        Filter::build(cfg, arith, taps, tree, sum_bus)
    }

    fn build(
        cfg: &FilterConfig,
        arith: Arith,
        taps: Vec<usize>,
        tree: Netlist,
        sum_bus: Vec<NetId>,
    ) -> Self {
        let delay = JitteredDelay::new(FpgaDelay::default(), cfg.jitter_amplitude, cfg.jitter_seed);
        let rated_period = analyze(arith.multiplier(), &delay)
            .critical_path()
            .max(analyze(&tree, &delay).critical_path());
        Filter {
            arith,
            kernel_size: cfg.kernel.size(),
            tree,
            sum_bus,
            delay,
            taps,
            rated_period,
            sim: OnceLock::new(),
        }
    }

    /// Human-readable arithmetic name ("online" / "traditional").
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.arith {
            Arith::Online { .. } => "online",
            Arith::Traditional { .. } => "traditional",
        }
    }

    /// The structural rated period of the slowest pipeline stage.
    #[must_use]
    pub fn rated_period(&self) -> u64 {
        self.rated_period
    }

    /// The synthesized multiplier netlist (for area/STA reports).
    #[must_use]
    pub fn multiplier_netlist(&self) -> &Netlist {
        self.arith.multiplier()
    }

    /// The adder-tree netlist (for area/STA reports).
    #[must_use]
    pub fn tree_netlist(&self) -> &Netlist {
        &self.tree
    }

    /// The compiled tree and the product waveforms, built on first use.
    fn sim(&self) -> &Sim {
        self.sim.get_or_init(|| {
            let _span = ola_core::obs::span("filter.products");
            let compile = |nl| BatchProgram::compile(nl, &self.delay).expect("netlists are DAGs");
            let prog = compile(self.arith.multiplier());
            let bus = self.arith.product_bus();
            // Every distinct coefficient sits on at least one tap.
            let coeffs = self.taps.iter().max().map_or(0, |&c| c + 1);
            let products = (0..coeffs)
                .map(|c| {
                    let vectors: Vec<Vec<bool>> =
                        (0..=u8::MAX).map(|p| self.arith.encode(p, c)).collect();
                    run_from_zero(&prog, &vectors, &bus).bus().clone()
                })
                .collect();
            Sim { tree: compile(&self.tree), products }
        })
    }

    /// The window pixel values of every output pixel, row-major, one
    /// value per kernel tap.
    fn windows(&self, img: &Image) -> Vec<u8> {
        let half = (self.kernel_size / 2) as isize;
        let mut out = Vec::with_capacity(img.width() * img.height() * self.taps.len());
        for y in 0..img.height() as isize {
            for x in 0..img.width() as isize {
                for dy in -half..=half {
                    for dx in -half..=half {
                        out.push(img.get_clamped(x + dx, y + dy));
                    }
                }
            }
        }
        out
    }

    /// Filters `img` once per clock period in `ts_points`.
    #[must_use]
    pub fn apply_sweep(&self, img: &Image, ts_points: &[u64]) -> FilterSweep {
        let sim = self.sim();
        let windows = self.windows(img);
        let taps = self.taps.len();
        // Settled output: the exact sum of settled products.
        let settled_products: Vec<Vec<Q>> = sim
            .products
            .iter()
            .map(|b| (0..Word::LANES).map(|p| self.arith.product(&b.settled_lane(p))).collect())
            .collect();
        let settled: Vec<f64> = windows
            .chunks(taps)
            .map(|win| {
                win.iter()
                    .zip(&self.taps)
                    .map(|(&p, &c)| settled_products[c][usize::from(p)])
                    .fold(Q::ZERO, |a, v| a + v)
                    .to_f64()
            })
            .collect();
        // Overclocked: the tree fed with the products sampled at Ts, and
        // sampled at Ts itself, 256 pixels per pass.
        let _span = ola_core::obs::span("filter.tree");
        let sampled = ts_points
            .iter()
            .map(|&ts| {
                let words: Vec<Vec<Word>> =
                    sim.products.iter().map(|b| b.sample_words(ts)).collect();
                let mut values = Vec::with_capacity(settled.len());
                for chunk in windows.chunks(taps * Word::LANES as usize) {
                    // Tree input order follows bus declaration order: each
                    // tap's product bus in turn.
                    let vectors: Vec<Vec<bool>> = chunk
                        .chunks(taps)
                        .map(|win| {
                            win.iter()
                                .zip(&self.taps)
                                .flat_map(|(&p, &c)| {
                                    words[c].iter().map(move |w| w.bit(u32::from(p)))
                                })
                                .collect()
                        })
                        .collect();
                    let res = run_from_zero(&sim.tree, &vectors, &self.sum_bus);
                    values.extend(
                        (0..res.bus().lanes())
                            .map(|l| self.arith.sum(&res.bus().sample_lane(l, ts))),
                    );
                }
                values
            })
            .collect();
        finish_sweep(img, settled, sampled, ts_points, self.rated_period)
    }
}

/// Deduplicates `values`: the distinct index of each value, and the
/// distinct values in first-seen order.
fn distinct<T: Clone + PartialEq>(values: &[T]) -> (Vec<usize>, Vec<T>) {
    let mut uniq: Vec<T> = Vec::new();
    let index = values
        .iter()
        .map(|v| {
            uniq.iter().position(|u| u == v).unwrap_or_else(|| {
                uniq.push(v.clone());
                uniq.len() - 1
            })
        })
        .collect();
    (index, uniq)
}

/// One bus-only pass from the all-zero reset state to `vectors` (one per
/// lane), keeping the waveforms of `bus`, on
/// [`pass_workers`](ola_core::parallel::pass_workers) threads.
fn run_from_zero(
    prog: &BatchProgram,
    vectors: &[Vec<bool>],
    bus: &[NetId],
) -> ola_netlist::batch::LaneBusResult<Word> {
    let new = LaneInputs::<Word>::pack(vectors).expect("at most 256 full input vectors");
    let prev = LaneInputs::<Word>::zeros(prog.num_inputs(), new.lanes()).expect("lanes fit");
    let workers = ola_core::parallel::pass_workers::<Word>();
    prog.run_bus(&prev, &new, bus, None, workers).expect("vectors and bus match the netlist")
}

/// The tap-sum dataflow graph `sum = t0 + … + t{taps−1}`, allocated as
/// the classic pairwise-reduction tree. The balanced allocation matches
/// the hand-wired seed tree gate for gate (the elaborator composes the
/// same adder cores in the same order), which `filter.rs` tests pin down.
fn tap_sum_dfg(taps: usize, fmt: InputFmt) -> Dfg {
    let mut d = Dfg::new();
    let terms: Vec<_> = (0..taps).map(|k| d.input(&format!("t{k}"), fmt)).collect();
    let mut acc = terms[0];
    for &t in &terms[1..] {
        acc = d.add(acc, t);
    }
    d.mark_output("sum", acc);
    // Re-associate the chain into the balanced tree, then drop the dead
    // chain adders so the netlist carries only live gates.
    eliminate_dead(&allocate_adders(&d, AdderStructure::BalancedTree))
}

/// The online adder tree and the weight position of its output's MSD.
fn build_online_tree(n: usize, taps: usize) -> (Netlist, i32) {
    let width = n + DELTA;
    // Digit k of a product has weight 2^-(k-δ+1): MSD position −δ+1.
    let fmt = InputFmt { msd_pos: 1 - DELTA as i32, digits: width };
    let dfg = tap_sum_dfg(taps, fmt);
    // No pruning: the delay model downstream is net-id-keyed (jittered),
    // so the netlist must be gate-index-stable against the seed layout.
    let dp = elaborate(&dfg, &ElabOptions::new(Style::Online).with_prune(false));
    let ola_synth::PortShape::Online { msd_pos, .. } = dp.outputs[0].shape else {
        unreachable!("online elaboration yields online ports")
    };
    (dp.netlist, msd_pos)
}

fn build_tc_tree(width_in: usize, taps: usize) -> Netlist {
    // `width_in`-bit two's-complement products: a (width_in − 1)-digit
    // window elaborates to exactly `width_in` bits; the fractional weight
    // is uniform across taps so no alignment padding is emitted.
    let fmt = InputFmt { msd_pos: 0, digits: width_in - 1 };
    let dfg = tap_sum_dfg(taps, fmt);
    elaborate(&dfg, &ElabOptions::new(Style::Conventional).with_prune(false)).netlist
}

// ---------------------------------------------------------------------------
// Shared post-processing
// ---------------------------------------------------------------------------

fn finish_sweep(
    img: &Image,
    settled: Vec<f64>,
    sampled: Vec<Vec<f64>>,
    ts_points: &[u64],
    rated_period: u64,
) -> FilterSweep {
    let settled_image = to_image(img.width(), img.height(), &settled);
    let runs = ts_points
        .iter()
        .zip(sampled)
        .map(|(&ts, values)| {
            let image = to_image(img.width(), img.height(), &values);
            let wrong =
                values.iter().zip(&settled).filter(|(a, b)| (*a - *b).abs() > 1e-12).count();
            FilterRun {
                ts,
                // Shapes are equal by construction here; a degenerate
                // (empty) sweep degrades to NaN columns instead of tearing
                // the filter run down.
                mre_percent: metrics::mre_percent(&settled, &values).unwrap_or(f64::NAN),
                snr_db: metrics::snr_db(&settled, &values).unwrap_or(f64::NAN),
                wrong_pixels: wrong,
                sampled: values,
                image,
            }
        })
        .collect();
    FilterSweep { settled_image, settled, runs, rated_period }
}

fn to_image(width: usize, height: usize, values: &[f64]) -> Image {
    let pixels = values.iter().map(|&v| (v * 256.0).round().clamp(0.0, 255.0) as u8).collect();
    Image::from_pixels(width, height, pixels)
}

/// The ideal (infinite-precision settled) Gaussian filter, for reference
/// images and SNR-vs-ideal comparisons.
#[must_use]
pub fn filter_exact(img: &Image, kernel: &Kernel) -> Image {
    let half = (kernel.size() / 2) as isize;
    let mut out = Image::new(img.width(), img.height());
    for y in 0..img.height() {
        for x in 0..img.width() {
            let mut acc = Q::ZERO;
            for dy in -half..=half {
                for dx in -half..=half {
                    let p = img.get_clamped(x as isize + dx, y as isize + dy);
                    acc += kernel.at(dx, dy) * Q::new(i128::from(p), 8);
                }
            }
            let v = (acc.to_f64() * 256.0).round().clamp(0.0, 255.0) as u8;
            out.set(x, y, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::Benchmark;
    use ola_arith::synth::BsSignals;
    use ola_netlist::{simulate_from_zero, SimResult};
    use std::collections::HashMap;

    fn tiny_cfg() -> FilterConfig {
        FilterConfig {
            digits: 8,
            kernel: Kernel::gaussian(3, 1.0, 8),
            // No delay jitter in most unit tests: the multiplier passes
            // settle in fewer steps and the correctness properties are
            // identical. The event-reference test covers jitter.
            jitter_amplitude: 0,
            jitter_seed: 3,
        }
    }

    /// Filters are expensive to warm up (multiplier product passes), so
    /// the whole test module shares one instance of each design.
    fn shared_online() -> &'static Filter {
        static S: OnceLock<Filter> = OnceLock::new();
        S.get_or_init(|| Filter::online(&tiny_cfg()))
    }

    fn shared_trad() -> &'static Filter {
        static S: OnceLock<Filter> = OnceLock::new();
        S.get_or_init(|| Filter::traditional(&tiny_cfg()))
    }

    /// The per-pixel event-driven reference: each product and each tree
    /// evaluation is one `simulate_from_zero` run (products memoized per
    /// pixel value and coefficient), sampled at every period.
    fn event_sweep(f: &Filter, img: &Image, ts_points: &[u64]) -> FilterSweep {
        let product_bus = f.arith.product_bus();
        let mut memo: HashMap<(u8, usize), SimResult> = HashMap::new();
        let mut settled = Vec::new();
        let mut sampled = vec![Vec::new(); ts_points.len()];
        for win in f.windows(img).chunks(f.taps.len()) {
            for (&p, &c) in win.iter().zip(&f.taps) {
                memo.entry((p, c)).or_insert_with(|| {
                    simulate_from_zero(f.arith.multiplier(), &f.delay, &f.arith.encode(p, c))
                });
            }
            let products: Vec<&SimResult> =
                win.iter().zip(&f.taps).map(|(&p, &c)| &memo[&(p, c)]).collect();
            settled.push(
                products
                    .iter()
                    .map(|r| f.arith.product(&r.final_bus(&product_bus)))
                    .fold(Q::ZERO, |a, v| a + v)
                    .to_f64(),
            );
            for (ti, &ts) in ts_points.iter().enumerate() {
                let inputs: Vec<bool> =
                    products.iter().flat_map(|r| r.sample_bus(&product_bus, ts)).collect();
                let res = simulate_from_zero(&f.tree, &f.delay, &inputs);
                sampled[ti].push(f.arith.sum(&res.sample_bus(&f.sum_bus, ts)));
            }
        }
        finish_sweep(img, settled, sampled, ts_points, f.rated_period)
    }

    /// Sweeps `img` on the batch engine and the event reference at
    /// periods below, at and above the rated period, and requires equal
    /// settled values, sampled values and images. The two shortest
    /// periods cut into the adder tree's own settling, which the rest of
    /// the grid leaves alone.
    fn assert_matches_event_reference(f: &Filter, img: &Image) {
        let rated = f.rated_period();
        let tree = analyze(&f.tree, &f.delay).critical_path();
        let ts = [
            tree / 3,
            tree * 2 / 3,
            rated / 2,
            rated * 3 / 4,
            rated * 9 / 10,
            rated,
            rated + rated / 10,
        ];
        let batch = f.apply_sweep(img, &ts);
        let event = event_sweep(f, img, &ts);
        let what = f.name();
        assert_eq!(batch.settled, event.settled, "{what}: settled values");
        assert_eq!(batch.settled_image, event.settled_image, "{what}: settled image");
        for (b, e) in batch.runs.iter().zip(&event.runs) {
            assert_eq!(b.ts, e.ts);
            assert_eq!(b.sampled, e.sampled, "{what}: sampled values at Ts={}", b.ts);
            assert_eq!(b.image, e.image, "{what}: image at Ts={}", b.ts);
        }
        // The grid must actually overclock somewhere, or the comparison
        // only covers settled outputs.
        assert!(batch.runs[0].wrong_pixels > 0, "{what}: Ts={} is error-free", ts[0]);
    }

    #[test]
    fn batch_sweep_matches_event_reference_with_jittered_delays() {
        let cfg = FilterConfig { jitter_amplitude: 15, jitter_seed: 2014, ..tiny_cfg() };
        // Four gray levels on a diagonal pattern: few distinct products
        // keep the jittered event reference cheap, and every window mixes
        // levels.
        let levels = [3u8, 96, 171, 250];
        let img = Image::from_pixels(5, 5, (0..25).map(|i| levels[(i + i / 5) % 4]).collect());
        for f in [Filter::online(&cfg), Filter::traditional(&cfg)] {
            assert_matches_event_reference(&f, &img);
        }
        // Jitter-free designs too.
        for f in [shared_online(), shared_trad()] {
            assert_matches_event_reference(f, &img);
        }
    }

    #[test]
    fn batch_sweep_matches_event_reference_across_tree_chunks() {
        // 17 × 16 = 272 pixels: one full 256-lane tree pass and one
        // 16-lane pass per period.
        let cfg = FilterConfig { jitter_amplitude: 15, jitter_seed: 2014, ..tiny_cfg() };
        let img = Benchmark::Uniform.generate(17, 16, 12);
        assert_matches_event_reference(&Filter::traditional(&cfg), &img);
    }

    #[test]
    fn distinct_coefficients_share_one_product_pass() {
        // The 3×3 Gaussian has three distinct coefficients: corner, edge
        // and center.
        for f in [shared_online(), shared_trad()] {
            assert_eq!(f.taps, [0, 1, 0, 1, 2, 1, 0, 1, 0], "{}", f.name());
            assert_eq!(f.sim().products.len(), 3, "{}", f.name());
        }
    }

    #[test]
    fn settled_sweep_is_error_free_both_designs() {
        let img = Benchmark::LenaLike.generate(8, 8, 1);
        let online = shared_online();
        let trad = shared_trad();
        for f in [online, trad] {
            let rated = f.rated_period();
            let sweep = f.apply_sweep(&img, &[rated]);
            assert_eq!(sweep.runs[0].mre_percent, 0.0, "{}", f.name());
            assert_eq!(sweep.runs[0].wrong_pixels, 0, "{}", f.name());
            assert_eq!(sweep.runs[0].image, sweep.settled_image);
        }
    }
    #[test]
    fn settled_output_tracks_ideal_filter() {
        let img = Benchmark::PepperLike.generate(8, 8, 2);
        let cfg = tiny_cfg();
        let online = shared_online();
        let ideal = filter_exact(&img, &cfg.kernel);
        let sweep = online.apply_sweep(&img, &[online.rated_period()]);
        // Quantization differences only: every pixel within a few LSBs.
        for (a, b) in sweep.settled_image.pixels().iter().zip(ideal.pixels()) {
            assert!((i16::from(*a) - i16::from(*b)).abs() <= 8, "settled {a} vs ideal {b}");
        }
    }

    #[test]
    fn overclocking_degrades_online_less_than_traditional() {
        let img = Benchmark::LenaLike.generate(8, 8, 3);
        let online = shared_online();
        let trad = shared_trad();
        // Sample each design at 60% of its own rated period: deep
        // overclocking for both.
        let o_ts = online.rated_period() * 6 / 10;
        let t_ts = trad.rated_period() * 6 / 10;
        let o = online.apply_sweep(&img, &[o_ts]);
        let t = trad.apply_sweep(&img, &[t_ts]);
        let (o_mre, t_mre) = (o.runs[0].mre_percent, t.runs[0].mre_percent);
        assert!(o_mre < t_mre, "online MRE {o_mre}% must beat traditional {t_mre}%");
        assert!(
            o.runs[0].snr_db > t.runs[0].snr_db,
            "online SNR {} vs traditional {}",
            o.runs[0].snr_db,
            t.runs[0].snr_db
        );
    }

    #[test]
    fn signed_kernels_flow_through_both_datapaths() {
        // Sobel has negative coefficients; both arithmetics must agree with
        // the ideal response on their settled outputs.
        let img = Benchmark::SailboatLike.generate(6, 6, 9);
        let cfg = FilterConfig { kernel: Kernel::sobel_x(), ..tiny_cfg() };
        let online = Filter::online(&cfg);
        let trad = Filter::traditional(&cfg);
        let o = online.apply_sweep(&img, &[online.rated_period()]);
        let t = trad.apply_sweep(&img, &[trad.rated_period()]);
        for (a, b) in o.settled.iter().zip(&t.settled) {
            assert!((a - b).abs() < 0.02, "online {a} vs traditional {b}");
        }
        // Edge response must actually be signed somewhere.
        assert!(o.settled.iter().any(|&v| v < -0.01));
        assert!(o.settled.iter().any(|&v| v > 0.01));
    }

    /// The hand-wired online adder tree exactly as the pre-`ola-synth`
    /// seed built it — kept as the reference the compiler-built tree is
    /// pinned against.
    fn hand_wired_online_tree(n: usize, taps: usize) -> Netlist {
        use ola_arith::synth::bs_add_gates;
        let mut nl = Netlist::new();
        let width = n + DELTA;
        let mut level: Vec<BsSignals> = (0..taps)
            .map(|k| {
                let p = nl.input_bus(&format!("p{k}"), width);
                let nn = nl.input_bus(&format!("n{k}"), width);
                BsSignals::from_nets(1 - DELTA as i32, p, nn)
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        bs_add_gates(&mut nl, &pair[0], &pair[1])
                    } else {
                        pair[0].clone()
                    }
                })
                .collect();
        }
        let out = level.pop().expect("at least one tap");
        let (p, nn) = out.flat_nets();
        nl.set_output("sump", p);
        nl.set_output("sumn", nn);
        nl
    }

    /// The hand-wired conventional adder tree of the seed.
    fn hand_wired_tc_tree(width_in: usize, taps: usize) -> Netlist {
        let mut nl = Netlist::new();
        let mut level: Vec<Vec<ola_netlist::NetId>> =
            (0..taps).map(|k| nl.input_bus(&format!("t{k}"), width_in)).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        bits::add_signed(&mut nl, &pair[0], &pair[1])
                    } else {
                        pair[0].clone()
                    }
                })
                .collect();
        }
        let out = level.pop().expect("at least one tap");
        nl.set_output("sum", out);
        nl
    }

    /// Net-for-net structural equality: same gate kinds, same gate input
    /// nets, same primary-input count, same named output buses. Identical
    /// structure under the net-id-keyed jittered delay model implies
    /// bit-identical waveforms — and therefore bit-identical error and
    /// SNR curves — at every clock period.
    fn assert_netlists_identical(a: &Netlist, b: &Netlist, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: net count");
        assert_eq!(a.inputs().len(), b.inputs().len(), "{what}: input count");
        for (x, y) in a.nets().zip(b.nets()) {
            assert_eq!(a.kind(x), b.kind(y), "{what}: gate kind at {x:?}");
            assert_eq!(a.gate_inputs(x), b.gate_inputs(y), "{what}: gate inputs at {x:?}");
        }
        let ao: Vec<_> = a.outputs().collect();
        let bo: Vec<_> = b.outputs().collect();
        assert_eq!(ao, bo, "{what}: output buses");
    }

    #[test]
    fn synth_built_trees_match_hand_wired_seed_gate_for_gate() {
        for taps in [1usize, 2, 3, 9] {
            for n in [4usize, 8] {
                let (synth, _) = build_online_tree(n, taps);
                let hand = hand_wired_online_tree(n, taps);
                assert_netlists_identical(&synth, &hand, &format!("online tree n={n} taps={taps}"));
                let w_in = 2 * (n + 1);
                let synth = build_tc_tree(w_in, taps);
                let hand = hand_wired_tc_tree(w_in, taps);
                assert_netlists_identical(&synth, &hand, &format!("tc tree w={w_in} taps={taps}"));
            }
        }
    }

    #[test]
    fn synth_built_tree_is_waveform_identical_under_jittered_delay() {
        // Belt and braces on top of the structural identity: simulate
        // both netlists under the paper's jittered delay model and sample
        // every output net at several overclocked periods — the sampled
        // bits (hence any error curve computed from them) must be equal.
        let (n, taps) = (4usize, 3usize);
        let (synth, _) = build_online_tree(n, taps);
        let hand = hand_wired_online_tree(n, taps);
        let delay = JitteredDelay::new(FpgaDelay::default(), 15, 2014);
        let width = n + DELTA;
        let mut inputs = vec![false; 2 * taps * width];
        for (i, b) in inputs.iter_mut().enumerate() {
            *b = i % 3 == 0; // arbitrary but fixed pattern
        }
        let rs = simulate_from_zero(&synth, &delay, &inputs);
        let rh = simulate_from_zero(&hand, &delay, &inputs);
        let rated = analyze(&synth, &delay).critical_path();
        for ts in [rated / 3, rated / 2, (rated * 3) / 4, rated] {
            for (name, bus) in synth.outputs() {
                let hb = hand.output(name);
                for (sn, hn) in bus.iter().zip(hb) {
                    assert_eq!(
                        rs.value_at(*sn, ts),
                        rh.value_at(*hn, ts),
                        "net {sn:?} of {name} at Ts={ts}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_filter_smooths() {
        let img = Benchmark::Uniform.generate(10, 10, 4);
        let k = Kernel::gaussian(3, 1.0, 8);
        let filtered = filter_exact(&img, &k);
        assert!(filtered.stddev() < img.stddev(), "Gaussian must reduce variance");
        assert!((filtered.mean() - img.mean()).abs() < 10.0, "unity DC gain");
    }
}
