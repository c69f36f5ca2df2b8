//! The overclocked Gaussian image filter (Section 4 of the paper).
//!
//! Two implementations of the same `N`-digit multiply-accumulate datapath:
//!
//! * [`OnlineFilter`] — digit-parallel online multipliers feeding a tree of
//!   online (signed-digit) adders;
//! * [`TraditionalFilter`] — two's-complement array multipliers feeding a
//!   tree of ripple-carry adders (the Core-Generator stand-in).
//!
//! Both are synthesized to gate level and overclocked identically: the
//! multiplier bank and the adder tree are register-separated stages clocked
//! with period `Ts`, simulated with the event-driven timing simulator under
//! a jittered FPGA delay model. Errors are measured against the same
//! design's *settled* output — exactly the paper's "overclocking error".
//!
//! Multiplier output *waveforms* are memoized per `(pixel value,
//! coefficient)` — coefficients are fixed, pixels are 8-bit — so the
//! multiplier bank is simulated a few hundred times total per design and
//! can then be sampled at any clock period for free; only the small
//! adder-tree simulation runs per pixel and period.

use crate::{Image, Kernel};
use ola_arith::online::{digits_value, DELTA};
use ola_arith::synth::{
    array_multiplier, bits, online_multiplier, ArrayMultiplierCircuit, BsSignals,
    OnlineMultiplierCircuit,
};
use ola_core::metrics;
use ola_netlist::{analyze, simulate_from_zero, BusWaveforms, FpgaDelay, JitteredDelay, Netlist};
use ola_redundant::{Digit, SdNumber, Q};
use ola_synth::{allocate_adders, elaborate, eliminate_dead};
use ola_synth::{AdderStructure, Dfg, ElabOptions, InputFmt, Style};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

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

/// A gate-level filter datapath that can be overclocked.
pub trait OverclockedFilter {
    /// Human-readable arithmetic name ("online" / "traditional").
    fn name(&self) -> &'static str;

    /// The structural rated period of the slowest pipeline stage.
    fn rated_period(&self) -> u64;

    /// Filters `img` once per clock period in `ts_points`.
    fn apply_sweep(&self, img: &Image, ts_points: &[u64]) -> FilterSweep;
}

// ---------------------------------------------------------------------------
// Online filter
// ---------------------------------------------------------------------------

/// The online-arithmetic filter datapath.
pub struct OnlineFilter {
    cfg: FilterConfig,
    mult: OnlineMultiplierCircuit,
    tree: OnlineTree,
    delay: JitteredDelay<FpgaDelay>,
    coeffs: Vec<SdNumber>,
    memo: Mutex<HashMap<(u8, Q), std::sync::Arc<BusWaveforms>>>,
}

struct OnlineTree {
    netlist: Netlist,
    out: BsSignals,
}

impl OnlineFilter {
    /// Builds the online filter for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if a kernel coefficient is not representable in `N` digits.
    #[must_use]
    pub fn new(cfg: FilterConfig) -> Self {
        let n = cfg.digits;
        let coeffs: Vec<SdNumber> = cfg
            .kernel
            .coefficients()
            .iter()
            .map(|&c| SdNumber::from_value(c, n).expect("kernel coefficient fits N digits"))
            .collect();
        let mult = online_multiplier(n, 3);
        let tree = build_online_tree(n, cfg.kernel.taps());
        let delay = JitteredDelay::new(FpgaDelay::default(), cfg.jitter_amplitude, cfg.jitter_seed);
        OnlineFilter { cfg, mult, tree, delay, coeffs, memo: Mutex::new(HashMap::new()) }
    }

    /// The synthesized multiplier (for area/STA reports).
    #[must_use]
    pub fn multiplier(&self) -> &OnlineMultiplierCircuit {
        &self.mult
    }

    /// The adder-tree netlist (for area/STA reports).
    #[must_use]
    pub fn tree_netlist(&self) -> &Netlist {
        &self.tree.netlist
    }

    fn pixel_operand(&self, p: u8) -> SdNumber {
        SdNumber::from_value(Q::new(i128::from(p), 8), self.cfg.digits)
            .expect("pixels are representable")
    }

    /// The memoized output waveforms of `pixel × coeff` (both digit planes
    /// concatenated: zp bus then zn bus).
    fn product_waves(&self, p: u8, coeff: &SdNumber) -> std::sync::Arc<BusWaveforms> {
        let key = (p, coeff.value());
        if let Some(e) = self.memo.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            return e.clone();
        }
        let x = self.pixel_operand(p);
        let inputs = self.mult.encode_inputs(&x, coeff);
        let res = simulate_from_zero(&self.mult.netlist, &self.delay, &inputs);
        let mut bus = self.mult.netlist.output("zp").to_vec();
        bus.extend_from_slice(self.mult.netlist.output("zn"));
        let waves = std::sync::Arc::new(res.bus_waveforms(&bus));
        self.memo.lock().unwrap_or_else(PoisonError::into_inner).insert(key, waves.clone());
        waves
    }
}

fn digits_of(bits: &[bool]) -> Vec<Digit> {
    let half = bits.len() / 2;
    bits[..half].iter().zip(&bits[half..]).map(|(&p, &n)| Digit::from_bits(p, n)).collect()
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

fn build_online_tree(n: usize, taps: usize) -> OnlineTree {
    let width = n + DELTA;
    // Digit k of a product has weight 2^-(k-δ+1): MSD position −δ+1.
    let fmt = InputFmt { msd_pos: 1 - DELTA as i32, digits: width };
    let dfg = tap_sum_dfg(taps, fmt);
    // No pruning: the delay model downstream is net-id-keyed (jittered),
    // so the netlist must be gate-index-stable against the seed layout.
    let dp = elaborate(&dfg, &ElabOptions::new(Style::Online).with_prune(false));
    let p = dp.netlist.output("sump").to_vec();
    let nn = dp.netlist.output("sumn").to_vec();
    let ola_synth::PortShape::Online { msd_pos, .. } = dp.outputs[0].shape else {
        unreachable!("online elaboration yields online ports")
    };
    let out = BsSignals::from_nets(msd_pos, p, nn);
    OnlineTree { netlist: dp.netlist, out }
}

impl OverclockedFilter for OnlineFilter {
    fn name(&self) -> &'static str {
        "online"
    }

    fn rated_period(&self) -> u64 {
        let m = analyze(&self.mult.netlist, &self.delay).critical_path();
        let t = analyze(&self.tree.netlist, &self.delay).critical_path();
        m.max(t)
    }

    fn apply_sweep(&self, img: &Image, ts_points: &[u64]) -> FilterSweep {
        let taps = self.cfg.kernel.taps();
        let half = (self.cfg.kernel.size() / 2) as isize;
        let pixels = img.width() * img.height();

        let mut settled = vec![0.0f64; pixels];
        let mut sampled = vec![vec![0.0f64; pixels]; ts_points.len()];

        for y in 0..img.height() {
            for x in 0..img.width() {
                let idx = y * img.width() + x;
                // Gather the 9 window pixels' memoized product waveforms.
                let mut products = Vec::with_capacity(taps);
                let mut tap = 0usize;
                for dy in -half..=half {
                    for dx in -half..=half {
                        let p = img.get_clamped(x as isize + dx, y as isize + dy);
                        products.push(self.product_waves(p, &self.coeffs[tap]));
                        tap += 1;
                    }
                }
                // Settled output: exact sum of settled products.
                settled[idx] = products
                    .iter()
                    .map(|m| digits_value(&digits_of(&m.settled())))
                    .fold(Q::ZERO, |a, v| a + v)
                    .to_f64();
                // Overclocked: adder tree simulated at each period.
                for (ti, &ts) in ts_points.iter().enumerate() {
                    // Input order follows bus declaration order: p0,n0,p1,n1…
                    let mut ordered = Vec::with_capacity(2 * taps * (self.cfg.digits + DELTA));
                    for m in &products {
                        ordered.extend(m.sample(ts));
                    }
                    let res = simulate_from_zero(&self.tree.netlist, &self.delay, &ordered);
                    let v = self.tree.out.sample(&res, ts).value().to_f64();
                    sampled[ti][idx] = v;
                }
            }
        }
        finish_sweep(img, settled, sampled, ts_points, self.rated_period())
    }
}

// ---------------------------------------------------------------------------
// Traditional filter
// ---------------------------------------------------------------------------

/// The conventional two's-complement filter datapath.
pub struct TraditionalFilter {
    cfg: FilterConfig,
    mult: ArrayMultiplierCircuit,
    tree: TcTree,
    delay: JitteredDelay<FpgaDelay>,
    coeff_raw: Vec<i64>,
    memo: Mutex<HashMap<(u8, i64), std::sync::Arc<BusWaveforms>>>,
}

struct TcTree {
    netlist: Netlist,
    width_in: usize,
    taps: usize,
}

impl TraditionalFilter {
    /// Builds the traditional filter. The multiplier is `N+1` bits wide so
    /// its two's-complement range matches the `N`-digit signed-digit range
    /// (the paper's fairness note).
    ///
    /// # Panics
    ///
    /// Panics if a kernel coefficient is not representable.
    #[must_use]
    pub fn new(cfg: FilterConfig) -> Self {
        let w = cfg.digits + 1;
        let coeff_raw: Vec<i64> = cfg
            .kernel
            .coefficients()
            .iter()
            .map(|&c| {
                c.scaled_to(cfg.digits as u32).expect("kernel coefficient fits N bits") as i64
            })
            .collect();
        let mult = array_multiplier(w);
        let tree = build_tc_tree(2 * w, cfg.kernel.taps());
        let delay = JitteredDelay::new(FpgaDelay::default(), cfg.jitter_amplitude, cfg.jitter_seed);
        TraditionalFilter { cfg, mult, tree, delay, coeff_raw, memo: Mutex::new(HashMap::new()) }
    }

    /// The synthesized multiplier (for area/STA reports).
    #[must_use]
    pub fn multiplier(&self) -> &ArrayMultiplierCircuit {
        &self.mult
    }

    /// The adder-tree netlist (for area/STA reports).
    #[must_use]
    pub fn tree_netlist(&self) -> &Netlist {
        &self.tree.netlist
    }

    fn product_waves(&self, p: u8, coeff: i64) -> std::sync::Arc<BusWaveforms> {
        let key = (p, coeff);
        if let Some(e) = self.memo.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            return e.clone();
        }
        let inputs = self.mult.encode_inputs(i64::from(p), coeff);
        let res = simulate_from_zero(&self.mult.netlist, &self.delay, &inputs);
        let waves = std::sync::Arc::new(res.bus_waveforms(self.mult.netlist.output("product")));
        self.memo.lock().unwrap_or_else(PoisonError::into_inner).insert(key, waves.clone());
        waves
    }
}

fn build_tc_tree(width_in: usize, taps: usize) -> TcTree {
    // `width_in`-bit two's-complement products: a (width_in − 1)-digit
    // window elaborates to exactly `width_in` bits; the fractional weight
    // is uniform across taps so no alignment padding is emitted.
    let fmt = InputFmt { msd_pos: 0, digits: width_in - 1 };
    let dfg = tap_sum_dfg(taps, fmt);
    let dp = elaborate(&dfg, &ElabOptions::new(Style::Conventional).with_prune(false));
    TcTree { netlist: dp.netlist, width_in, taps }
}

impl OverclockedFilter for TraditionalFilter {
    fn name(&self) -> &'static str {
        "traditional"
    }

    fn rated_period(&self) -> u64 {
        let m = analyze(&self.mult.netlist, &self.delay).critical_path();
        let t = analyze(&self.tree.netlist, &self.delay).critical_path();
        m.max(t)
    }

    fn apply_sweep(&self, img: &Image, ts_points: &[u64]) -> FilterSweep {
        let taps = self.tree.taps;
        let half = (self.cfg.kernel.size() / 2) as isize;
        let pixels = img.width() * img.height();
        let scale = (2.0f64).powi(2 * self.cfg.digits as i32); // frac bits of products

        let mut settled = vec![0.0f64; pixels];
        let mut sampled = vec![vec![0.0f64; pixels]; ts_points.len()];

        for y in 0..img.height() {
            for x in 0..img.width() {
                let idx = y * img.width() + x;
                let mut products = Vec::with_capacity(taps);
                let mut tap = 0usize;
                for dy in -half..=half {
                    for dx in -half..=half {
                        let p = img.get_clamped(x as isize + dx, y as isize + dy);
                        products.push(self.product_waves(p, self.coeff_raw[tap]));
                        tap += 1;
                    }
                }
                settled[idx] =
                    products.iter().map(|m| bits::decode_signed(&m.settled()) as f64).sum::<f64>()
                        / scale;
                for (ti, &ts) in ts_points.iter().enumerate() {
                    let mut inputs = Vec::with_capacity(taps * self.tree.width_in);
                    for m in &products {
                        inputs.extend(m.sample(ts));
                    }
                    let res = simulate_from_zero(&self.tree.netlist, &self.delay, &inputs);
                    let bus = self.tree.netlist.output("sum");
                    let raw = bits::decode_signed(&res.sample_bus(bus, ts));
                    sampled[ti][idx] = raw as f64 / scale;
                }
            }
        }
        finish_sweep(img, settled, sampled, ts_points, self.rated_period())
    }
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
    use std::sync::OnceLock;

    fn tiny_cfg() -> FilterConfig {
        FilterConfig {
            digits: 8,
            kernel: Kernel::gaussian(3, 1.0, 8),
            // No delay jitter in unit tests: the multiplier memo builds an
            // order of magnitude faster (fewer glitch events) and the
            // correctness properties are identical.
            jitter_amplitude: 0,
            jitter_seed: 3,
        }
    }

    /// Filters are expensive to warm up (multiplier waveform memo), so the
    /// whole test module shares one instance of each design.
    fn shared_online() -> &'static OnlineFilter {
        static S: OnceLock<OnlineFilter> = OnceLock::new();
        S.get_or_init(|| OnlineFilter::new(tiny_cfg()))
    }

    fn shared_trad() -> &'static TraditionalFilter {
        static S: OnceLock<TraditionalFilter> = OnceLock::new();
        S.get_or_init(|| TraditionalFilter::new(tiny_cfg()))
    }

    #[test]
    fn settled_sweep_is_error_free_both_designs() {
        let img = Benchmark::LenaLike.generate(8, 8, 1);
        let online = shared_online();
        let trad = shared_trad();
        for f in [online as &dyn OverclockedFilter, trad] {
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
        let online = OnlineFilter::new(cfg.clone());
        let trad = TraditionalFilter::new(cfg.clone());
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
                let synth = build_online_tree(n, taps);
                let hand = hand_wired_online_tree(n, taps);
                assert_netlists_identical(
                    &synth.netlist,
                    &hand,
                    &format!("online tree n={n} taps={taps}"),
                );
                let w_in = 2 * (n + 1);
                let synth = build_tc_tree(w_in, taps);
                let hand = hand_wired_tc_tree(w_in, taps);
                assert_netlists_identical(
                    &synth.netlist,
                    &hand,
                    &format!("tc tree w={w_in} taps={taps}"),
                );
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
        let synth = build_online_tree(n, taps).netlist;
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
