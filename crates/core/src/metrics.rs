//! Error metrics used by the paper's evaluation.
//!
//! All comparison metrics return `Result` instead of panicking on
//! degenerate input (empty sample sets, mismatched lengths): experiment
//! drivers feed these functions with data of run-time provenance (CSV
//! rows, image buffers), so shape errors are *conditions to report*, not
//! programmer bugs. [`MetricsError`] carries enough context to point at
//! the offending input.

use std::fmt;

/// A degenerate input to one of the comparison metrics.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricsError {
    /// The sample sets are empty — no metric is defined.
    Empty,
    /// The reference and test sets differ in length.
    LengthMismatch {
        /// Length of the reference (correct) set.
        reference: usize,
        /// Length of the test (actual) set.
        test: usize,
    },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::Empty => write!(f, "empty sample set"),
            MetricsError::LengthMismatch { reference, test } => {
                write!(f, "length mismatch: {reference} reference vs {test} test samples")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

/// Validates that two sample sets are non-empty and of equal length.
fn check_pair(reference: &[f64], test: &[f64]) -> Result<(), MetricsError> {
    if reference.len() != test.len() {
        return Err(MetricsError::LengthMismatch { reference: reference.len(), test: test.len() });
    }
    if reference.is_empty() {
        return Err(MetricsError::Empty);
    }
    Ok(())
}

/// Mean relative error in percent (Eq. (13)):
/// `MRE = |E_error / E_out| × 100`, with `E_error` the mean error magnitude
/// and `E_out` the mean magnitude of the correct outputs.
///
/// A zero-magnitude reference with a non-zero error yields
/// `f64::INFINITY` (the relative error is unbounded); an all-zero match
/// yields `0.0`.
///
/// # Examples
///
/// ```
/// use ola_core::metrics::mre_percent;
/// let correct = [1.0, 2.0, 3.0];
/// let actual = [1.0, 2.2, 2.9];
/// let mre = mre_percent(&correct, &actual).unwrap();
/// assert!((mre - 5.0).abs() < 1e-9); // mean |err| 0.1, mean |out| 2.0
/// ```
///
/// # Errors
///
/// [`MetricsError::LengthMismatch`] / [`MetricsError::Empty`] on
/// degenerate input.
pub fn mre_percent(correct: &[f64], actual: &[f64]) -> Result<f64, MetricsError> {
    check_pair(correct, actual)?;
    let mean_err: f64 = correct.iter().zip(actual).map(|(&c, &a)| (a - c).abs()).sum::<f64>()
        / correct.len() as f64;
    let mean_out: f64 = correct.iter().map(|&c| c.abs()).sum::<f64>() / correct.len() as f64;
    Ok(if mean_out == 0.0 {
        if mean_err == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        mean_err / mean_out * 100.0
    })
}

/// Signal-to-noise ratio in dB: `10·log10(Σ ref² / Σ (ref − test)²)`.
///
/// **Zero-noise policy:** identical signals have no noise power, so the
/// ratio is unbounded and this function returns `f64::INFINITY` — by
/// design, not by accident. Callers that need a finite number (e.g. for a
/// CSV column) should clamp explicitly.
///
/// # Errors
///
/// [`MetricsError::LengthMismatch`] / [`MetricsError::Empty`] on
/// degenerate input.
pub fn snr_db(reference: &[f64], test: &[f64]) -> Result<f64, MetricsError> {
    check_pair(reference, test)?;
    let signal: f64 = reference.iter().map(|&r| r * r).sum();
    let noise: f64 = reference.iter().zip(test).map(|(&r, &t)| (r - t) * (r - t)).sum();
    Ok(if noise == 0.0 { f64::INFINITY } else { 10.0 * (signal / noise).log10() })
}

/// Eq. (14): the relative reduction of MRE achieved by online arithmetic,
/// `(MRE_trad − MRE_ol) / MRE_trad × 100`.
#[must_use]
pub fn mre_reduction_percent(mre_trad: f64, mre_ol: f64) -> f64 {
    if mre_trad == 0.0 {
        0.0
    } else {
        (mre_trad - mre_ol) / mre_trad * 100.0
    }
}

/// Geometric mean of strictly positive values (used for the tables' summary
/// columns). Non-positive entries are skipped, matching the paper's
/// treatment of `N/A` cells.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mre_handles_exact_outputs() {
        assert_eq!(mre_percent(&[1.0, 2.0], &[1.0, 2.0]), Ok(0.0));
    }

    #[test]
    fn mre_is_scale_invariant() {
        let c = [1.0, 2.0, 4.0];
        let a = [1.1, 2.1, 4.1];
        let c2: Vec<f64> = c.iter().map(|v| v * 7.0).collect();
        let a2: Vec<f64> = a.iter().map(|v| v * 7.0).collect();
        assert!((mre_percent(&c, &a).unwrap() - mre_percent(&c2, &a2).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn mre_zero_signal_edge_cases() {
        assert_eq!(mre_percent(&[0.0], &[0.0]), Ok(0.0));
        assert_eq!(mre_percent(&[0.0], &[1.0]), Ok(f64::INFINITY));
    }

    /// Regression (observability PR): degenerate inputs used to `assert!`
    /// and tear the whole experiment down; they are now typed errors.
    #[test]
    fn degenerate_inputs_are_errors_not_panics() {
        assert_eq!(mre_percent(&[], &[]), Err(MetricsError::Empty));
        assert_eq!(snr_db(&[], &[]), Err(MetricsError::Empty));
        assert_eq!(
            mre_percent(&[1.0, 2.0], &[1.0]),
            Err(MetricsError::LengthMismatch { reference: 2, test: 1 })
        );
        assert_eq!(
            snr_db(&[1.0], &[1.0, 2.0]),
            Err(MetricsError::LengthMismatch { reference: 1, test: 2 })
        );
        // Errors render with context.
        let msg = MetricsError::LengthMismatch { reference: 2, test: 1 }.to_string();
        assert!(msg.contains('2') && msg.contains('1'), "{msg}");
    }

    #[test]
    fn snr_increases_as_noise_decreases() {
        let r = [1.0, -1.0, 0.5, -0.5];
        let noisy = [1.1, -0.9, 0.6, -0.4];
        let cleaner = [1.01, -0.99, 0.51, -0.49];
        assert!(snr_db(&r, &cleaner).unwrap() > snr_db(&r, &noisy).unwrap());
        assert_eq!(snr_db(&r, &r), Ok(f64::INFINITY), "documented zero-noise policy");
    }

    #[test]
    fn snr_known_value() {
        // Signal power 1, noise power 0.01 → 20 dB.
        let r = [1.0];
        let t = [0.9];
        assert!((snr_db(&r, &t).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_percent_matches_paper_shape() {
        assert!((mre_reduction_percent(10.0, 1.0) - 90.0).abs() < 1e-12);
        assert_eq!(mre_reduction_percent(0.0, 0.0), 0.0);
        assert!(mre_reduction_percent(1.0, 2.0) < 0.0, "online worse → negative");
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12); // skips 0
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
