//! Small vector kernels used across the workspace.
//!
//! These are the inner loops of the GP posterior computation, so they are
//! written to be auto-vectorization friendly (plain indexed loops over
//! slices of equal, asserted length).

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Applies the plane (Givens) rotation `(a_i, b_i) <- (c*a_i + s*b_i,
/// c*b_i - s*a_i)` to two equal-length slices (BLAS `drot`).
///
/// This is the inner loop of the delete-row Cholesky downdate: the two
/// slices are adjacent rows of the transposed working factor, so the loop
/// streams over contiguous memory and auto-vectorizes.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rot(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "rot: length mismatch");
    for i in 0..a.len() {
        let ai = a[i];
        let bi = b[i];
        a[i] = c * ai + s * bi;
        b[i] = c * bi - s * ai;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist2: length mismatch");
    let mut acc = 0.0;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Arithmetic mean. Returns 0 for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance. Returns 0 for slices with fewer than two elements.
#[inline]
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / a.len() as f64
}

/// Index of the minimum value (first occurrence). `None` when empty or all
/// values are NaN.
pub fn argmin(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the maximum value (first occurrence). `None` when empty or all
/// values are NaN.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Clamps `v` into `[lo, hi]`.
#[inline]
pub fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    v.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn rot_is_an_isometry() {
        // A rotation by the (3,4,5) angle preserves norms and maps
        // (4, 3) onto (5, 0) in the first component pair.
        let (c, s) = (0.8, 0.6);
        let mut a = vec![4.0, 1.0];
        let mut b = vec![3.0, -2.0];
        let before = dot(&a, &a) + dot(&b, &b);
        rot(c, s, &mut a, &mut b);
        assert!((a[0] - 5.0).abs() < 1e-12);
        assert!(b[0].abs() < 1e-12);
        let after = dot(&a, &a) + dot(&b, &b);
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn norms_and_distances() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn argmin_argmax() {
        assert_eq!(argmin(&[3.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmax(&[3.0, 1.0, 2.0]), Some(0));
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[f64::NAN, 2.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), None);
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }
}
