//! Latency-accuracy trade-off explorer: given an error budget, how much can
//! each arithmetic be overclocked? (The Table-3 question at operator level.)
//!
//! ```sh
//! cargo run --release --example error_budget
//! ```

use ola::arith::synth::{array_multiplier, online_multiplier};
use ola::core::empirical::{array_gate_level_curve, om_gate_level_curve};
use ola::core::{timing, InputModel};
use ola::netlist::{analyze, JitteredDelay, UnitDelay};

fn main() {
    let n = 8;
    let samples = 150;
    let delay = JitteredDelay::new(UnitDelay, 20, 7);

    let om = online_multiplier(n, 3);
    let am = array_multiplier(n + 1); // equal representable range

    let om_rated = analyze(&om.netlist, &delay).critical_path();
    let am_rated = analyze(&am.netlist, &delay).critical_path();
    println!("rated periods:   online {om_rated}  traditional {am_rated} (time units)");

    // Dense period sweeps for both operators.
    let grid = |rated: u64| -> Vec<u64> { (1..=40).map(|k| rated * k / 40).collect() };
    let om_ts = grid(om_rated);
    let am_ts = grid(am_rated);
    let om_curve = om_gate_level_curve(&om, &delay, InputModel::UniformValue, &om_ts, samples, 1);
    let am_curve = array_gate_level_curve(&am, &delay, &am_ts, samples, 1);

    // Max error-free frequency for each design.
    let f0 = |ts: &[u64], err: &[f64]| -> u64 {
        ts.iter()
            .zip(err)
            .find(|(_, &e)| e == 0.0)
            .map_or(*ts.last().expect("the Ts grid is nonempty"), |(&t, _)| t)
    };
    let om_f0 = f0(&om_curve.ts, &om_curve.mean_abs_error);
    let am_f0 = f0(&am_curve.ts, &am_curve.mean_abs_error);
    println!("error-free periods: online {om_f0}  traditional {am_f0}");
    println!(
        "free headroom vs rated: online {:.1}%  traditional {:.1}%",
        timing::frequency_speedup_percent(om_rated, om_f0),
        timing::frequency_speedup_percent(am_rated, am_f0),
    );

    println!("\nmax frequency speedup (vs own error-free f0) within error budget:");
    println!("{:>10} {:>12} {:>12}", "budget", "online", "traditional");
    for budget in [1e-5, 1e-4, 1e-3, 1e-2] {
        let within = |ts: &[u64], err: &[f64], base: u64| -> String {
            ts.iter().zip(err).find(|(_, &e)| e <= budget).map_or_else(
                || "N/A".to_owned(),
                |(&t, _)| format!("{:+.2}%", timing::frequency_speedup_percent(base, t)),
            )
        };
        println!(
            "{:>10.0e} {:>12} {:>12}",
            budget,
            within(&om_curve.ts, &om_curve.mean_abs_error, om_f0),
            within(&am_curve.ts, &am_curve.mean_abs_error, am_f0),
        );
    }
    println!(
        "\nThe online design sustains far deeper overclocking within every\n\
         budget because its timing-violation errors carry LSD weight."
    );
}
