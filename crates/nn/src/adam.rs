//! The Adam optimizer (Kingma & Ba, 2015) over a flat parameter vector.

/// Adam state for one parameter vector.
///
/// Keeps first/second moment estimates and the step counter; `step`
/// applies one bias-corrected update in place.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `n` parameters with the standard
    /// `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
    ///
    /// # Panics
    /// Panics if `lr` is not strictly positive and finite.
    pub fn new(n: usize, lr: f64) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: vec![0.0; n], v: vec![0.0; n], t: 0 }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Adjusts the learning rate (e.g., for decay schedules).
    ///
    /// # Panics
    /// Panics if `lr` is not strictly positive and finite.
    pub fn set_lr(&mut self, lr: f64) {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        self.lr = lr;
    }

    /// Number of updates applied so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one descent step: `params -= lr * m_hat / (sqrt(v_hat) + eps)`.
    ///
    /// # Panics
    /// Panics if `params` or `grads` disagree with the optimizer size.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_convex_quadratic() {
        // f(x) = (x0-1)^2 + (x1+2)^2
        let mut x = vec![5.0, 5.0];
        let mut opt = Adam::new(2, 0.1);
        for _ in 0..2000 {
            let g = vec![2.0 * (x[0] - 1.0), 2.0 * (x[1] + 2.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 1.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 2.0).abs() < 1e-3, "{x:?}");
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // With bias correction, the very first Adam step is ~lr * sign(g).
        let mut x = vec![0.0];
        let mut opt = Adam::new(1, 0.01);
        opt.step(&mut x, &[123.0]);
        assert!((x[0] + 0.01).abs() < 1e-6, "{}", x[0]);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn zero_grad_is_noop_after_reset_state() {
        let mut x = vec![1.0, 2.0];
        let mut opt = Adam::new(2, 0.1);
        opt.step(&mut x, &[0.0, 0.0]);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn set_lr_changes_step_size() {
        let mut opt = Adam::new(1, 0.1);
        opt.set_lr(1e-3);
        assert_eq!(opt.lr(), 1e-3);
        let mut x = vec![0.0];
        opt.step(&mut x, &[1.0]);
        assert!(x[0].abs() < 2e-3);
    }

    #[test]
    #[should_panic(expected = "param count mismatch")]
    fn rejects_mismatched_sizes() {
        let mut opt = Adam::new(2, 0.1);
        let mut x = vec![0.0];
        opt.step(&mut x, &[1.0]);
    }
}
