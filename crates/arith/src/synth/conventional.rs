//! Netlist generators for the conventional two's-complement baselines.
//!
//! These stand in for the Xilinx Core Generator operators of the paper's
//! "traditional arithmetic" design: a ripple-carry adder and a
//! (Baugh-Wooley) array multiplier. Both have LSB-first carry propagation,
//! so overclocking errors strike the most significant bits.

use crate::synth::bits::ripple_add;
use ola_netlist::cells::full_adder;
use ola_netlist::sta::prune_dead;
use ola_netlist::{NetId, Netlist};

/// A synthesized ripple-carry adder.
#[derive(Clone, Debug)]
pub struct RippleAdderCircuit {
    /// Netlist. Inputs: `a`, `b` (LSB-first). Outputs: `sum` (LSB-first,
    /// same width) and `cout`.
    pub netlist: Netlist,
    /// Operand bit width.
    pub width: usize,
}

/// Synthesizes a `width`-bit ripple-carry adder.
///
/// # Panics
///
/// Panics if `width == 0`.
#[must_use]
pub fn ripple_carry_adder(width: usize) -> RippleAdderCircuit {
    assert!(width > 0, "adder width must be positive");
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let zero = nl.constant(false);
    let (sum, cout) = ripple_add(&mut nl, &a, &b, zero);
    nl.set_output("sum", sum);
    nl.set_output("cout", vec![cout]);
    let nl = prune_dead(&nl);
    RippleAdderCircuit { netlist: nl, width }
}

/// A synthesized two's-complement array multiplier.
#[derive(Clone, Debug)]
pub struct ArrayMultiplierCircuit {
    /// Netlist. Inputs: `a`, `b` (LSB-first two's complement). Output:
    /// `product` (`2·width` bits, LSB-first two's complement).
    pub netlist: Netlist,
    /// Operand bit width.
    pub width: usize,
}

impl ArrayMultiplierCircuit {
    /// Encodes an operand pair as the simulator input vector.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit `width` bits.
    #[must_use]
    pub fn encode_inputs(&self, a: i64, b: i64) -> Vec<bool> {
        let w = self.width;
        let lim = 1i64 << (w - 1);
        assert!(a >= -lim && a < lim && b >= -lim && b < lim, "operand out of range");
        let mut bits = Vec::with_capacity(2 * w);
        for i in 0..w {
            bits.push(a >> i & 1 == 1);
        }
        for i in 0..w {
            bits.push(b >> i & 1 == 1);
        }
        bits
    }

    /// Decodes a sampled product bus into a signed integer.
    #[must_use]
    pub fn decode_product(&self, bits: &[bool]) -> i64 {
        crate::synth::bits::decode_signed(bits)
    }
}

/// Synthesizes a `width × width → 2·width` two's-complement array
/// multiplier (modified Baugh-Wooley partial products, carry-save rows,
/// ripple column merge).
///
/// # Panics
///
/// Panics if `width == 0` or `width > 31`.
#[must_use]
pub fn array_multiplier(width: usize) -> ArrayMultiplierCircuit {
    assert!(width > 0 && width <= 31, "unsupported multiplier width");
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let product = array_multiplier_core(&mut nl, &a, &b);
    nl.set_output("product", product);
    let nl = prune_dead(&nl);
    ArrayMultiplierCircuit { netlist: nl, width }
}

/// Emits the Baugh-Wooley array for arbitrary operand nets (inputs or
/// constants); returns the `2·width` product bits, LSB first. Used by
/// [`array_multiplier`] and the `ola-synth` elaborator.
///
/// # Panics
///
/// Panics if the operand widths differ.
pub fn array_multiplier_core(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "operand widths must match");
    let n = a.len();

    // Column bit lists for the 2n-bit product.
    let mut cols: Vec<Vec<NetId>> = vec![Vec::new(); 2 * n];

    // Modified Baugh-Wooley partial products:
    //   a_i b_j           for i, j < n−1 and for (n−1, n−1)
    //   NOT(a_i b_j)      when exactly one index is n−1
    //   +1 at columns n and 2n−1.
    for i in 0..n {
        for j in 0..n {
            let raw = nl.and(a[i], b[j]);
            let invert = (i == n - 1) ^ (j == n - 1);
            let pp = if invert { nl.not(raw) } else { raw };
            cols[i + j].push(pp);
        }
    }
    if n > 1 {
        let one = nl.constant(true);
        cols[n].push(one);
        cols[2 * n - 1].push(one);
    } else {
        // 1×1: a·b = a0 b0 with both correction ones landing at column 1.
        let one = nl.constant(true);
        cols[1].push(one);
        cols[1].push(one);
    }

    // Column-serial reduction, LSB first: full adders compress each column,
    // pushing carries into the next — the ripple behaviour of a real array.
    let zero = nl.constant(false);
    let mut product = Vec::with_capacity(2 * n);
    for c in 0..2 * n {
        while cols[c].len() > 1 {
            if cols[c].len() >= 3 {
                let x = cols[c].pop().expect("len ≥ 3");
                let y = cols[c].pop().expect("len ≥ 2");
                let z = cols[c].pop().expect("len ≥ 1");
                let (s, carry) = full_adder(nl, x, y, z);
                cols[c].push(s);
                if c + 1 < 2 * n {
                    cols[c + 1].push(carry);
                }
            } else {
                let x = cols[c].pop().expect("len ≥ 2");
                let y = cols[c].pop().expect("len ≥ 1");
                let s = nl.xor(x, y);
                let carry = nl.and(x, y);
                cols[c].push(s);
                if c + 1 < 2 * n {
                    cols[c + 1].push(carry);
                }
            }
        }
        product.push(cols[c].pop().unwrap_or(zero));
    }
    product
}

/// A synthesized carry-select adder.
#[derive(Clone, Debug)]
pub struct CarrySelectAdderCircuit {
    /// Netlist. Inputs: `a`, `b` (LSB-first). Outputs: `sum`, `cout`.
    pub netlist: Netlist,
    /// Operand bit width.
    pub width: usize,
    /// Select-block size.
    pub block: usize,
}

/// Synthesizes a `width`-bit carry-select adder with `block`-bit blocks:
/// each block computes both carry-in hypotheses with ripple adders and a
/// mux chain selects — the classic speed/area trade the vendor tools make.
/// Still LSB-first: overclocking it still breaks MSBs, just later.
///
/// # Panics
///
/// Panics if `width == 0` or `block == 0`.
#[must_use]
pub fn carry_select_adder(width: usize, block: usize) -> CarrySelectAdderCircuit {
    assert!(width > 0 && block > 0, "width and block must be positive");
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let zero = nl.constant(false);
    let one = nl.constant(true);

    let mut sum = Vec::with_capacity(width);
    let mut carry = zero;
    let mut lo = 0usize;
    let mut first = true;
    while lo < width {
        let hi = (lo + block).min(width);
        if first {
            // First block: carry-in is known (0); plain ripple.
            let (s, c) = ripple_add(&mut nl, &a[lo..hi], &b[lo..hi], zero);
            sum.extend(s);
            carry = c;
            first = false;
        } else {
            let (s0, c0) = ripple_add(&mut nl, &a[lo..hi], &b[lo..hi], zero);
            let (s1, c1) = ripple_add(&mut nl, &a[lo..hi], &b[lo..hi], one);
            for (x0, x1) in s0.iter().zip(&s1) {
                let m = nl.mux(carry, *x1, *x0);
                sum.push(m);
            }
            carry = nl.mux(carry, c1, c0);
        }
        lo = hi;
    }
    nl.set_output("sum", sum);
    nl.set_output("cout", vec![carry]);
    let nl = prune_dead(&nl);
    CarrySelectAdderCircuit { netlist: nl, width, block }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_netlist::{analyze, simulate_from_zero, UnitDelay};

    #[test]
    fn ripple_adder_is_exact() {
        let circuit = ripple_carry_adder(5);
        for a in 0..32u64 {
            for b in 0..32u64 {
                let mut inputs = Vec::new();
                for i in 0..5 {
                    inputs.push(a >> i & 1 == 1);
                }
                for i in 0..5 {
                    inputs.push(b >> i & 1 == 1);
                }
                let vals = circuit.netlist.eval(&inputs);
                let mut sum = 0u64;
                for (i, net) in circuit.netlist.output("sum").iter().enumerate() {
                    if vals[net.index()] {
                        sum |= 1 << i;
                    }
                }
                if vals[circuit.netlist.output("cout")[0].index()] {
                    sum |= 1 << 5;
                }
                assert_eq!(sum, a + b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn adder_critical_path_grows_with_width() {
        let d4 = analyze(&ripple_carry_adder(4).netlist, &UnitDelay).critical_path();
        let d16 = analyze(&ripple_carry_adder(16).netlist, &UnitDelay).critical_path();
        assert!(d16 > 2 * d4, "ripple delay must grow linearly: {d4} vs {d16}");
    }

    #[test]
    fn array_multiplier_exhaustive_small_widths() {
        for width in 1..=4usize {
            let circuit = array_multiplier(width);
            let lim = 1i64 << (width - 1);
            for a in -lim..lim {
                for b in -lim..lim {
                    let inputs = circuit.encode_inputs(a, b);
                    let vals = circuit.netlist.eval(&inputs);
                    let bits: Vec<bool> =
                        circuit.netlist.output("product").iter().map(|n| vals[n.index()]).collect();
                    assert_eq!(circuit.decode_product(&bits), a * b, "width={width} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn array_multiplier_random_width_8() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let circuit = array_multiplier(8);
        for _ in 0..300 {
            let a = rng.gen_range(-128i64..128);
            let b = rng.gen_range(-128i64..128);
            let inputs = circuit.encode_inputs(a, b);
            let vals = circuit.netlist.eval(&inputs);
            let bits: Vec<bool> =
                circuit.netlist.output("product").iter().map(|n| vals[n.index()]).collect();
            assert_eq!(circuit.decode_product(&bits), a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn overclocked_array_multiplier_errs_in_high_bits() {
        // Sample the multiplier mid-settling: the stale bits should include
        // high-significance positions (the salt-and-pepper mechanism).
        let circuit = array_multiplier(8);
        let inputs = circuit.encode_inputs(127, 127);
        let res = simulate_from_zero(&circuit.netlist, &UnitDelay, &inputs);
        let out = circuit.netlist.output("product");
        let settle = res.settle_time_of(out);
        assert!(settle > 0);
        let early: Vec<bool> = res.sample_bus(out, settle / 3);
        let correct: Vec<bool> = res.final_bus(out);
        let e = circuit.decode_product(&early);
        let c = circuit.decode_product(&correct);
        assert_eq!(c, 127 * 127);
        assert_ne!(e, c, "mid-settling sample must be wrong for worst case");
    }

    #[test]
    fn multiplier_settling_exceeds_adder_settling() {
        let add = analyze(&ripple_carry_adder(8).netlist, &UnitDelay).critical_path();
        let mul = analyze(&array_multiplier(8).netlist, &UnitDelay).critical_path();
        assert!(mul > add);
    }

    #[test]
    fn carry_select_adder_is_exact() {
        for (width, block) in [(8usize, 3usize), (10, 4), (6, 6), (7, 2)] {
            let circuit = carry_select_adder(width, block);
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
            for _ in 0..200 {
                let a: u64 = rng.gen_range(0..1u64 << width);
                let b: u64 = rng.gen_range(0..1u64 << width);
                let mut inputs = Vec::new();
                for i in 0..width {
                    inputs.push(a >> i & 1 == 1);
                }
                for i in 0..width {
                    inputs.push(b >> i & 1 == 1);
                }
                let vals = circuit.netlist.eval(&inputs);
                let mut sum = 0u64;
                for (i, net) in circuit.netlist.output("sum").iter().enumerate() {
                    if vals[net.index()] {
                        sum |= 1 << i;
                    }
                }
                if vals[circuit.netlist.output("cout")[0].index()] {
                    sum |= 1 << width;
                }
                assert_eq!(sum, a + b, "w={width} blk={block} a={a} b={b}");
            }
        }
    }

    #[test]
    fn carry_select_is_faster_than_ripple() {
        let ripple = analyze(&ripple_carry_adder(32).netlist, &UnitDelay).critical_path();
        let select = analyze(&carry_select_adder(32, 4).netlist, &UnitDelay).critical_path();
        assert!(select < ripple, "carry-select {select} should beat ripple {ripple}");
    }
}
