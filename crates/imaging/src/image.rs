//! Grayscale images with PGM I/O.

use std::fmt;
use std::io::{self, Read, Write};

/// An 8-bit grayscale image.
///
/// # Examples
///
/// ```
/// use ola_imaging::Image;
///
/// let mut img = Image::new(4, 3);
/// img.set(1, 2, 200);
/// assert_eq!(img.get(1, 2), 200);
/// assert_eq!(img.get_clamped(-5, 99), img.get(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Image {
    /// An all-black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image { width, height, pixels: vec![0; width * height] }
    }

    /// Builds an image from row-major pixel data.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`.
    #[must_use]
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image { width, height, pixels }
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major pixel data.
    #[must_use]
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// The pixel at `(x, y)` with replicate (clamp-to-edge) boundary
    /// handling — the convolution boundary policy.
    #[must_use]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let xc = x.clamp(0, self.width as isize - 1) as usize;
        let yc = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[yc * self.width + xc]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = value;
    }

    /// Mean pixel value.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.pixels.iter().map(|&p| f64::from(p)).sum::<f64>() / self.pixels.len() as f64
    }

    /// Pixel standard deviation (contrast).
    #[must_use]
    pub fn stddev(&self) -> f64 {
        let m = self.mean();
        let var = self.pixels.iter().map(|&p| (f64::from(p) - m).powi(2)).sum::<f64>()
            / self.pixels.len() as f64;
        var.sqrt()
    }

    /// Horizontal lag-1 autocorrelation — near 1 for natural images, near 0
    /// for white noise. Returns 0 for constant images.
    #[must_use]
    pub fn autocorrelation(&self) -> f64 {
        let m = self.mean();
        let mut num = 0.0;
        let mut den = 0.0;
        for y in 0..self.height {
            for x in 0..self.width {
                let a = f64::from(self.get(x, y)) - m;
                den += a * a;
                if x + 1 < self.width {
                    let b = f64::from(self.get(x + 1, y)) - m;
                    num += a * b;
                }
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Writes the image as a binary PGM (P5).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_pgm<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "P5\n{} {}\n255\n", self.width, self.height)?;
        w.write_all(&self.pixels)
    }

    /// Reads a binary PGM (P5) image.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed headers or truncated data.
    pub fn read_pgm<R: Read>(mut r: R) -> io::Result<Self> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        let mut pos = 0usize;
        let mut token = || -> io::Result<String> {
            while pos < data.len() && data[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < data.len() && data[pos] == b'#' {
                while pos < data.len() && data[pos] != b'\n' {
                    pos += 1;
                }
                while pos < data.len() && data[pos].is_ascii_whitespace() {
                    pos += 1;
                }
            }
            let start = pos;
            while pos < data.len() && !data[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if start == pos {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated header"));
            }
            Ok(String::from_utf8_lossy(&data[start..pos]).into_owned())
        };
        if token()? != "P5" {
            return Err(bad("not a binary PGM"));
        }
        let width: usize = token()?.parse().map_err(|_| bad("bad width"))?;
        let height: usize = token()?.parse().map_err(|_| bad("bad height"))?;
        let maxval: usize = token()?.parse().map_err(|_| bad("bad maxval"))?;
        if maxval != 255 {
            return Err(bad("only 8-bit PGM supported"));
        }
        pos += 1; // single whitespace after maxval
        if data.len() < pos + width * height {
            return Err(bad("truncated pixel data"));
        }
        Ok(Image::from_pixels(width, height, data[pos..pos + width * height].to_vec()))
    }
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Image({}x{}, mean {:.1}, σ {:.1})",
            self.width,
            self.height,
            self.mean(),
            self.stddev()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut img = Image::new(5, 4);
        img.set(4, 3, 77);
        assert_eq!(img.get(4, 3), 77);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.width(), 5);
        assert_eq!(img.height(), 4);
    }

    #[test]
    fn clamped_access_replicates_edges() {
        let mut img = Image::new(3, 3);
        img.set(0, 0, 10);
        img.set(2, 2, 20);
        assert_eq!(img.get_clamped(-2, -2), 10);
        assert_eq!(img.get_clamped(9, 9), 20);
        assert_eq!(img.get_clamped(1, 1), img.get(1, 1));
    }

    #[test]
    fn stats_of_known_image() {
        let img = Image::from_pixels(2, 2, vec![0, 0, 255, 255]);
        assert!((img.mean() - 127.5).abs() < 1e-12);
        assert!((img.stddev() - 127.5).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_constant_rows_is_high() {
        // Rows of identical values → perfect horizontal correlation up to
        // the estimator's edge bias: 3 of 4 columns have a right neighbour,
        // so the biased lag-1 estimate is exactly 3/4.
        let img = Image::from_pixels(4, 2, vec![10, 10, 10, 10, 200, 200, 200, 200]);
        assert!((img.autocorrelation() - 0.75).abs() < 1e-12);
        // A wide image approaches 1.
        let wide = Image::from_pixels(64, 1, [10u8, 200].repeat(32));
        assert!(wide.autocorrelation() < 0.0, "alternating rows anticorrelate");
    }

    #[test]
    fn pgm_round_trip() {
        let mut img = Image::new(7, 5);
        for y in 0..5 {
            for x in 0..7 {
                img.set(x, y, (x * 31 + y * 17) as u8);
            }
        }
        let mut buf = Vec::new();
        img.write_pgm(&mut buf).unwrap();
        let back = Image::read_pgm(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pgm_rejects_garbage() {
        assert!(Image::read_pgm(&b"P6\n2 2\n255\nxxxx"[..]).is_err());
        assert!(Image::read_pgm(&b"P5\n2 2\n255\nxx"[..]).is_err()); // truncated
        assert!(Image::read_pgm(&b"P5\n2 2\n65535\nxxxxxxxx"[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let img = Image::new(2, 2);
        let _ = img.get(2, 0);
    }
}
