//! A closed-form timing oracle for the 8-bit ripple-carry adder under
//! [`UnitDelay`], independent of both simulation engines.
//!
//! From all-zero inputs every operand bit rises or stays low at `t = 0`,
//! so every carry only rises. With gate delay `d`, bit `i`'s propagate
//! `p_i = a_i ⊕ b_i` and generate `g_i = a_i·b_i` settle at `d`, and the
//! carry `c_i` into bit `i` rises at `first + 2d·r`:
//!
//! * `r` is the run of propagates directly below bit `i`;
//! * the bit below that run must generate; `first` is `d` when it is bit 0
//!   (a half adder: the builder folds the constant carry-in) and `2d`
//!   otherwise (an AND then the carry OR);
//! * with no generating bit below the run, `c_i` stays low.
//!
//! Sum bit 0 is `p_0` itself. Sum bit `i ≥ 1` is one XOR after its inputs,
//! so at `T` it reads `p_i ⊕ c_i` as they stood at `T − d`; the carry-out
//! is `c_8`. The oracle is checked against the batch engine's full sweep
//! (`run_bus`) and sampled pass (`run_bus_at`) on all 65 536 input pairs
//! at 41 sample times, against `settled_bus` for the settled value, and
//! against the event engine on a fixed 1 024-input subsample.

#![allow(clippy::unwrap_used)]

use ola_arith::synth::ripple_carry_adder;
use ola_netlist::batch::{BatchProgram, LaneBlock, LaneInputs, LaneWord};
use ola_netlist::{simulate_from_zero, NetId, UnitDelay};

const W: usize = 8;
const D: u64 = UnitDelay::UNIT;
type Word = LaneBlock<4>;

/// Every half gate delay from 0 to `20d`: both the transition instants
/// (multiples of `d`) and the points between them.
fn sample_times() -> Vec<u64> {
    (0..=40).map(|k| k * D / 2).collect()
}

/// When the carry into bit `i` rises, or `None` if it stays low.
fn carry_rise(a: u32, b: u32, i: usize) -> Option<u64> {
    let p = |j: usize| (a ^ b) >> j & 1 == 1;
    let g = |j: usize| (a & b) >> j & 1 == 1;
    let run = (0..i).rev().take_while(|&j| p(j)).count() as u64;
    let below = i.checked_sub(run as usize + 1)?;
    if !g(below) {
        return None;
    }
    let first = if below == 0 { D } else { 2 * D };
    Some(first + 2 * D * run)
}

/// The bus `sum[0..8] ++ [cout]` at time `t`.
fn oracle(a: u32, b: u32, t: u64) -> Vec<bool> {
    let p_at = |i: usize, t: u64| (a ^ b) >> i & 1 == 1 && t >= D;
    let c_at = |i: usize, t: u64| carry_rise(a, b, i).is_some_and(|r| t >= r);
    let mut bus: Vec<bool> = (0..W)
        .map(|i| match (i, t.checked_sub(D)) {
            (0, _) => p_at(0, t),
            (_, Some(before)) => p_at(i, before) ^ c_at(i, before),
            (_, None) => false,
        })
        .collect();
    bus.push(c_at(W, t));
    bus
}

/// The oracle's settled bus, long after the last carry.
fn oracle_settled(a: u32, b: u32) -> Vec<bool> {
    oracle(a, b, u64::MAX / 2)
}

fn operands(v: u32) -> (u32, u32) {
    (v & 0xff, v >> 8)
}

fn inputs(v: u32) -> Vec<bool> {
    (0..2 * W).map(|i| v >> i & 1 == 1).collect()
}

fn adder_bus() -> (ola_netlist::Netlist, Vec<NetId>) {
    let nl = ripple_carry_adder(W).netlist;
    let mut bus = nl.output("sum").to_vec();
    bus.extend_from_slice(nl.output("cout"));
    (nl, bus)
}

#[test]
fn settled_oracle_is_the_sum() {
    for v in 0..1u32 << 16 {
        let (a, b) = operands(v);
        let bits = oracle_settled(a, b);
        let value: u32 = bits.iter().enumerate().map(|(i, &bit)| u32::from(bit) << i).sum();
        assert_eq!(value, a + b, "a={a} b={b}");
    }
}

#[test]
fn batch_engine_matches_the_closed_form_on_every_input() {
    let (nl, bus) = adder_bus();
    let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
    let times = sample_times();
    let vectors: Vec<u32> = (0..1u32 << 16).collect();
    for group in vectors.chunks(Word::LANES as usize) {
        let vecs: Vec<Vec<bool>> = group.iter().map(|&v| inputs(v)).collect();
        let prev = LaneInputs::<Word>::zeros(2 * W, group.len() as u32).unwrap();
        let new = LaneInputs::<Word>::pack(&vecs).unwrap();
        let full = prog.run_bus(&prev, &new, &bus, None, 1).unwrap();
        let swept = full.bus().sweep(&times);
        let sampled = prog.run_bus_at(&prev, &new, None, &bus, &times).unwrap();
        let settled = prog.settled_bus(&new, &bus).unwrap();
        for (lane, &v) in group.iter().enumerate() {
            let (a, b) = operands(v);
            let l = lane as u32;
            for (ti, &t) in times.iter().enumerate() {
                let want = oracle(a, b, t);
                assert_eq!(swept.lane_bits(ti, l), want, "run_bus a={a} b={b} T={t}");
                assert_eq!(sampled.sweep().lane_bits(ti, l), want, "run_bus_at a={a} b={b} T={t}");
            }
            let want = oracle_settled(a, b);
            assert_eq!(full.bus().settled_lane(l), want, "run_bus settled a={a} b={b}");
            let words: Vec<bool> = settled.iter().map(|w| w.bit(l)).collect();
            assert_eq!(words, want, "settled_bus a={a} b={b}");
        }
    }
}

#[test]
fn event_engine_matches_the_closed_form_on_a_subsample() {
    let (nl, bus) = adder_bus();
    let times = sample_times();
    for i in 0..1024u32 {
        let v = i * 64 + i * 37 % 64;
        let (a, b) = operands(v);
        let res = simulate_from_zero(&nl, &UnitDelay, &inputs(v));
        for &t in &times {
            assert_eq!(res.sample_bus(&bus, t), oracle(a, b, t), "event a={a} b={b} T={t}");
        }
        assert_eq!(res.final_bus(&bus), oracle_settled(a, b), "event settled a={a} b={b}");
    }
}
