//! Procedural benchmark images.
//!
//! The paper's "real inputs" are the classic Lena / Pepper / Sailboat /
//! Tiffany test images, which we cannot redistribute; what its experiments
//! actually rely on is that natural images are *spatially correlated* and
//! not digit-uniform, so the multipliers see far fewer long residual
//! chains. These generators synthesize deterministic images matching each
//! benchmark's coarse statistics (brightness, contrast, correlation
//! length, edge content) — same code path, same statistical mechanism.

use crate::Image;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the procedural generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyntheticSpec {
    /// Target mean brightness (0–255).
    pub brightness: f64,
    /// Target contrast (pixel standard deviation).
    pub contrast: f64,
    /// Cell size of the coarsest noise octave; larger = smoother.
    pub correlation: usize,
    /// Number of value-noise octaves.
    pub octaves: u32,
    /// Strength of hard edges (0 = none, 1 = strong).
    pub edges: f64,
}

/// The named benchmark lookalikes plus the uniform-noise input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Uniform i.i.d. pixels — the paper's "UI inputs".
    Uniform,
    /// Portrait-like: mid-bright, smooth, moderate edges.
    LenaLike,
    /// Dark, high-contrast blobs.
    PepperLike,
    /// Structured scene with strong edges.
    SailboatLike,
    /// Bright, low-contrast.
    TiffanyLike,
}

impl Benchmark {
    /// Every benchmark, in the paper's table order.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::Uniform,
        Benchmark::LenaLike,
        Benchmark::PepperLike,
        Benchmark::SailboatLike,
        Benchmark::TiffanyLike,
    ];

    /// Table row label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Uniform => "Uniform",
            Benchmark::LenaLike => "Lena-like",
            Benchmark::PepperLike => "Pepper-like",
            Benchmark::SailboatLike => "Sailboat-like",
            Benchmark::TiffanyLike => "Tiffany-like",
        }
    }

    /// The generator parameters for this benchmark.
    #[must_use]
    pub fn spec(self) -> Option<SyntheticSpec> {
        match self {
            Benchmark::Uniform => None,
            Benchmark::LenaLike => Some(SyntheticSpec {
                brightness: 124.0,
                contrast: 47.0,
                correlation: 16,
                octaves: 4,
                edges: 0.25,
            }),
            Benchmark::PepperLike => Some(SyntheticSpec {
                brightness: 105.0,
                contrast: 55.0,
                correlation: 12,
                octaves: 3,
                edges: 0.5,
            }),
            Benchmark::SailboatLike => Some(SyntheticSpec {
                brightness: 125.0,
                contrast: 64.0,
                correlation: 10,
                octaves: 5,
                edges: 0.6,
            }),
            Benchmark::TiffanyLike => Some(SyntheticSpec {
                brightness: 180.0,
                contrast: 35.0,
                correlation: 20,
                octaves: 3,
                edges: 0.15,
            }),
        }
    }

    /// Generates the benchmark image (deterministic in `(self, size, seed)`).
    #[must_use]
    pub fn generate(self, width: usize, height: usize, seed: u64) -> Image {
        match self.spec() {
            // I.i.d. uniform pixels — the "UI inputs".
            None => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let pixels = (0..width * height).map(|_| rng.gen::<u8>()).collect();
                Image::from_pixels(width, height, pixels)
            }
            Some(spec) => synthesize(width, height, seed, spec),
        }
    }
}

/// Multi-octave value noise with optional hard edges, normalized to the
/// target brightness/contrast.
#[must_use]
pub fn synthesize(width: usize, height: usize, seed: u64, spec: SyntheticSpec) -> Image {
    assert!(spec.correlation >= 2, "correlation cell must be ≥ 2");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut field = vec![0.0f64; width * height];

    // Smooth base: octaves of bilinear value noise.
    let mut amplitude = 1.0;
    let mut cell = spec.correlation;
    for _ in 0..spec.octaves {
        add_value_noise(&mut field, width, height, cell.max(2), amplitude, &mut rng);
        amplitude *= 0.5;
        cell = (cell / 2).max(2);
    }

    // Hard structure: a few random half-plane / blob edges.
    if spec.edges > 0.0 {
        let count = 2 + (spec.edges * 6.0) as usize;
        for _ in 0..count {
            let cx = rng.gen_range(0.0..width as f64);
            let cy = rng.gen_range(0.0..height as f64);
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            let (nx, ny) = (angle.cos(), angle.sin());
            let step = rng.gen_range(-1.0..1.0) * spec.edges;
            let blob = rng.gen_bool(0.5);
            let radius = rng.gen_range(0.15..0.4) * width.min(height) as f64;
            for y in 0..height {
                for x in 0..width {
                    let inside = if blob {
                        let dx = x as f64 - cx;
                        let dy = y as f64 - cy;
                        (dx * dx + dy * dy).sqrt() < radius
                    } else {
                        (x as f64 - cx) * nx + (y as f64 - cy) * ny > 0.0
                    };
                    if inside {
                        field[y * width + x] += step;
                    }
                }
            }
        }
    }

    // Normalize to the requested brightness and contrast.
    let mean = field.iter().sum::<f64>() / field.len() as f64;
    let var = field.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / field.len() as f64;
    let std = var.sqrt().max(1e-9);
    let pixels = field
        .iter()
        .map(|v| {
            let z = (v - mean) / std;
            (spec.brightness + z * spec.contrast).clamp(0.0, 255.0).round() as u8
        })
        .collect();
    Image::from_pixels(width, height, pixels)
}

fn add_value_noise(
    field: &mut [f64],
    width: usize,
    height: usize,
    cell: usize,
    amplitude: f64,
    rng: &mut ChaCha8Rng,
) {
    let gw = width / cell + 2;
    let gh = height / cell + 2;
    let grid: Vec<f64> = (0..gw * gh).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for y in 0..height {
        for x in 0..width {
            let fx = x as f64 / cell as f64;
            let fy = y as f64 / cell as f64;
            let (ix, iy) = (fx as usize, fy as usize);
            let (tx, ty) = (fx - ix as f64, fy - iy as f64);
            // Smoothstep for C1-continuous interpolation.
            let sx = tx * tx * (3.0 - 2.0 * tx);
            let sy = ty * ty * (3.0 - 2.0 * ty);
            let g = |gx: usize, gy: usize| grid[gy * gw + gx];
            let top = g(ix, iy) * (1.0 - sx) + g(ix + 1, iy) * sx;
            let bot = g(ix, iy + 1) * (1.0 - sx) + g(ix + 1, iy + 1) * sx;
            field[y * width + x] += amplitude * (top * (1.0 - sy) + bot * sy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for b in Benchmark::ALL {
            assert_eq!(b.generate(32, 32, 7), b.generate(32, 32, 7), "{b:?}");
        }
        assert_ne!(
            Benchmark::LenaLike.generate(32, 32, 1),
            Benchmark::LenaLike.generate(32, 32, 2)
        );
    }

    #[test]
    fn natural_images_are_correlated_noise_is_not() {
        let lena = Benchmark::LenaLike.generate(64, 64, 3);
        let noise = Benchmark::Uniform.generate(64, 64, 3);
        assert!(lena.autocorrelation() > 0.8, "natural-like: {}", lena.autocorrelation());
        assert!(noise.autocorrelation().abs() < 0.15, "white noise: {}", noise.autocorrelation());
    }

    #[test]
    fn statistics_roughly_match_spec() {
        for b in [Benchmark::LenaLike, Benchmark::PepperLike, Benchmark::TiffanyLike] {
            let spec = b.spec().unwrap();
            let img = b.generate(96, 96, 11);
            assert!(
                (img.mean() - spec.brightness).abs() < 20.0,
                "{b:?}: mean {} vs {}",
                img.mean(),
                spec.brightness
            );
            assert!(
                (img.stddev() - spec.contrast).abs() < 25.0,
                "{b:?}: σ {} vs {}",
                img.stddev(),
                spec.contrast
            );
        }
    }

    #[test]
    fn tiffany_is_brighter_than_pepper() {
        let t = Benchmark::TiffanyLike.generate(48, 48, 5);
        let p = Benchmark::PepperLike.generate(48, 48, 5);
        assert!(t.mean() > p.mean() + 30.0);
    }

    #[test]
    fn names_are_stable_table_labels() {
        let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["Uniform", "Lena-like", "Pepper-like", "Sailboat-like", "Tiffany-like"]);
    }

    #[test]
    fn all_pixels_exercised_by_noise() {
        let img = Benchmark::Uniform.generate(64, 64, 9);
        let mut seen = [false; 256];
        for &p in img.pixels() {
            seen[p as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 200);
    }
}
