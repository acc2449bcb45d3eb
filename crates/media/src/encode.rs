//! Image-resolution policy model (Policy 1 of the paper).
//!
//! Policy 1 sets the *average* number of pixels per frame as a fraction of
//! the native 640x480. The UE resizes with OpenCV and JPEG-encodes before
//! transmission; we model the resulting byte size as a fixed container
//! overhead plus a compressed-bytes-per-pixel term, calibrated so a 100%
//! frame is ≈ 225 kB (≈ 1.8 Mb), the size the paper's quoted 2.8 Mb/s
//! peak offered load implies for its ~0.65 s full-res round trips.

use crate::scene::{FRAME_HEIGHT, FRAME_WIDTH};

/// Byte-size and timing model of the UE-side encoder.
#[derive(Debug, Clone)]
pub struct EncodeModel {
    /// JPEG container/header overhead in bytes.
    pub overhead_bytes: f64,
    /// Compressed bytes per pixel at the configured JPEG quality.
    pub bytes_per_pixel: f64,
    /// Fixed UE-side pre-processing latency (capture + colour conversion),
    /// in seconds.
    pub preproc_fixed_s: f64,
    /// Resolution-dependent pre-processing latency at 100% resolution
    /// (resize + encode), in seconds; scales linearly with pixel count.
    pub preproc_per_full_frame_s: f64,
}

impl Default for EncodeModel {
    fn default() -> Self {
        EncodeModel {
            overhead_bytes: 2_048.0,
            // (225_000 - 2_048) / (640*480) ≈ 0.726 B/px: high-quality JPEG.
            bytes_per_pixel: 0.726,
            preproc_fixed_s: 0.015,
            preproc_per_full_frame_s: 0.025,
        }
    }
}

/// The result of encoding one frame at a given resolution policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedImage {
    /// Resolution policy fraction in (0, 1].
    pub resolution: f64,
    /// Encoded payload size in bytes.
    pub bytes: f64,
    /// UE-side pre-processing time in seconds.
    pub preproc_s: f64,
}

impl EncodeModel {
    /// Pixel count at a resolution fraction (`res` scales pixel count, per
    /// Policy 1).
    ///
    /// # Panics
    /// Panics if `res` is outside `(0, 1]`.
    pub fn pixels(&self, res: f64) -> f64 {
        assert!(res > 0.0 && res <= 1.0, "resolution fraction must be in (0,1]");
        FRAME_WIDTH * FRAME_HEIGHT * res
    }

    /// Encodes a frame at resolution fraction `res`.
    pub fn encode(&self, res: f64) -> EncodedImage {
        let px = self.pixels(res);
        EncodedImage {
            resolution: res,
            bytes: self.overhead_bytes + self.bytes_per_pixel * px,
            preproc_s: self.preproc_fixed_s + self.preproc_per_full_frame_s * res,
        }
    }

    /// Encoded size in bits, convenience for the radio layer.
    pub fn bits(&self, res: f64) -> f64 {
        self.encode(res).bytes * 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_res_frame_close_to_calibration_target() {
        let m = EncodeModel::default();
        let e = m.encode(1.0);
        assert!((e.bytes - 225_000.0).abs() < 5_000.0, "bytes {}", e.bytes);
        assert!((m.bits(1.0) / 1e6 - 1.8).abs() < 0.1, "Mb {}", m.bits(1.0) / 1e6);
    }

    #[test]
    fn bytes_monotone_in_resolution() {
        let m = EncodeModel::default();
        let mut prev = 0.0;
        for i in 1..=10 {
            let b = m.encode(i as f64 / 10.0).bytes;
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    fn quarter_resolution_is_quarter_payload_plus_overhead() {
        let m = EncodeModel::default();
        let full = m.encode(1.0).bytes - m.overhead_bytes;
        let quarter = m.encode(0.25).bytes - m.overhead_bytes;
        assert!((quarter * 4.0 - full).abs() < 1e-9);
    }

    #[test]
    fn preproc_time_grows_with_resolution() {
        let m = EncodeModel::default();
        assert!(m.encode(1.0).preproc_s > m.encode(0.25).preproc_s);
        assert!(m.encode(0.1).preproc_s >= m.preproc_fixed_s);
    }

    #[test]
    #[should_panic(expected = "resolution fraction")]
    fn rejects_zero_resolution() {
        let _ = EncodeModel::default().encode(0.0);
    }
}
