//! Gaussian convolution kernels quantized for the fixed-point datapaths.

use ola_redundant::Q;

/// A square convolution kernel with exactly-representable (dyadic)
/// coefficients.
///
/// # Examples
///
/// ```
/// use ola_imaging::Kernel;
///
/// let k = Kernel::gaussian(3, 1.0, 8);
/// assert_eq!(k.size(), 3);
/// // Quantized weights still sum to ≈ 1 (unity DC gain).
/// let sum: f64 = k.coefficients().iter().map(|c| c.to_f64()).sum();
/// assert!((sum - 1.0).abs() < 0.05);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Kernel {
    size: usize,
    coeffs: Vec<Q>,
}

impl Kernel {
    /// A `size × size` Gaussian kernel with standard deviation `sigma`,
    /// quantized to multiples of `2^-frac_bits` (round to nearest).
    ///
    /// # Panics
    ///
    /// Panics if `size` is even or zero, `sigma ≤ 0`, or `frac_bits` is not
    /// in `1..=30`.
    #[must_use]
    pub fn gaussian(size: usize, sigma: f64, frac_bits: u32) -> Self {
        assert!(size % 2 == 1 && size > 0, "kernel size must be odd");
        assert!(sigma > 0.0, "sigma must be positive");
        assert!((1..=30).contains(&frac_bits), "unsupported quantization");
        let half = (size / 2) as isize;
        let mut raw = Vec::with_capacity(size * size);
        let mut total = 0.0;
        for dy in -half..=half {
            for dx in -half..=half {
                let w = (-((dx * dx + dy * dy) as f64) / (2.0 * sigma * sigma)).exp();
                raw.push(w);
                total += w;
            }
        }
        let scale = f64::from(1u32 << frac_bits);
        let coeffs = raw
            .iter()
            .map(|w| {
                let q = (w / total * scale).round() as i128;
                Q::new(q, frac_bits)
            })
            .collect();
        Kernel { size, coeffs }
    }

    /// The horizontal Sobel edge-detection kernel, scaled by 1/8 so the
    /// response of a `[0, 1)` image stays within `(−1, 1)`:
    /// `[−1 0 1; −2 0 2; −1 0 1] / 8`. Exercises negative (signed-digit /
    /// two's-complement) coefficients in the filter datapaths.
    #[must_use]
    pub fn sobel_x() -> Self {
        let c = |v: i128| Q::new(v, 3);
        Kernel { size: 3, coeffs: vec![c(-1), c(0), c(1), c(-2), c(0), c(2), c(-1), c(0), c(1)] }
    }

    /// Kernel side length.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of taps (`size²`).
    #[must_use]
    pub fn taps(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficients, row-major.
    #[must_use]
    pub fn coefficients(&self) -> &[Q] {
        &self.coeffs
    }

    /// The coefficient at kernel offset `(dx, dy)` from the center.
    ///
    /// # Panics
    ///
    /// Panics if the offset is outside the kernel.
    #[must_use]
    pub fn at(&self, dx: isize, dy: isize) -> Q {
        let half = (self.size / 2) as isize;
        assert!(dx.abs() <= half && dy.abs() <= half, "offset outside kernel");
        let idx = (dy + half) * self.size as isize + (dx + half);
        self.coeffs[idx as usize]
    }

    /// Sum of all coefficients (DC gain).
    #[must_use]
    pub fn dc_gain(&self) -> Q {
        self.coeffs.iter().fold(Q::ZERO, |a, &c| a + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_is_symmetric_and_peaked() {
        let k = Kernel::gaussian(3, 1.0, 8);
        assert_eq!(k.at(-1, 0), k.at(1, 0));
        assert_eq!(k.at(0, -1), k.at(0, 1));
        assert_eq!(k.at(-1, -1), k.at(1, 1));
        assert!(k.at(0, 0) > k.at(1, 0));
        assert!(k.at(1, 0) > k.at(1, 1));
    }

    #[test]
    fn coefficients_are_nontrivial_fractions() {
        // The σ=1 kernel must not degenerate to an all-power-of-two kernel
        // like [1 2 1]/16 (which would make every product a pure shift).
        let k = Kernel::gaussian(3, 1.0, 8);
        let nontrivial = k.coefficients().iter().filter(|c| c.numerator() != 1).count();
        assert!(
            nontrivial * 2 > k.taps(),
            "most taps must be non-power-of-two: {:?}",
            k.coefficients()
        );
        for &c in k.coefficients() {
            assert!(c > Q::ZERO);
        }
    }

    #[test]
    fn dc_gain_close_to_unity() {
        for (size, sigma) in [(3usize, 0.8), (3, 1.0), (5, 1.2)] {
            let k = Kernel::gaussian(size, sigma, 8);
            let gain = k.dc_gain().to_f64();
            assert!((gain - 1.0).abs() < 0.05, "size={size} σ={sigma}: {gain}");
        }
    }

    #[test]
    fn five_by_five_has_25_taps() {
        let k = Kernel::gaussian(5, 1.5, 10);
        assert_eq!(k.taps(), 25);
        assert_eq!(k.size(), 5);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_rejected() {
        let _ = Kernel::gaussian(4, 1.0, 8);
    }

    #[test]
    fn sobel_is_antisymmetric_with_zero_gain() {
        let k = Kernel::sobel_x();
        assert_eq!(k.dc_gain(), Q::ZERO);
        assert_eq!(k.at(-1, 0), -k.at(1, 0));
        assert_eq!(k.at(-1, -1), Q::new(-1, 3));
        assert_eq!(k.at(0, 0), Q::ZERO);
    }
}
