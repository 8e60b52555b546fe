//! Adam optimizer (Kingma & Ba, 2015).

use crate::nn::Mlp;

/// Adam state and hyperparameters for one network.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the usual defaults (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one Adam step using the gradients `net`'s last backward pass
    /// wrote, element by element in the parameters' storage order.
    pub fn step(&mut self, net: &mut Mlp) {
        if self.m.is_empty() {
            // Lazily size the moment buffers to the network.
            net.visit_storage(|_, p, _| {
                self.m.push(vec![0.0; p.len()]);
                self.v.push(vec![0.0; p.len()]);
            });
        }
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (ms, vs) = (&mut self.m, &mut self.v);
        net.visit_storage(|idx, params, grads| {
            let moments = ms[idx].iter_mut().zip(vs[idx].iter_mut());
            for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
                *m = b1 * flush_subnormal(*m) + (1.0 - b1) * g;
                *v = b2 * flush_subnormal(*v) + (1.0 - b2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// A subnormal moment reads as zero. The first moment of a parameter whose
/// gradient stopped decays by `β₁` per step into the subnormal range, where
/// rounding keeps it stuck a few ulps above zero, and every arithmetic
/// operation on it takes the CPU's slow path. Its contribution to the update
/// (≈ 1e-45 · lr / ε) is far below any parameter's ulp, so flushing it
/// changes no parameter of a trained network in practice.
#[inline]
fn flush_subnormal(x: f32) -> f32 {
    if x.is_subnormal() {
        0.0
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Adam must drive a tiny regression problem's loss down.
    #[test]
    fn optimizes_least_squares() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = Mlp::new(&[2, 16, 1], &mut rng);
        let mut adam = Adam::new(1e-2);
        // Target function: y = x0 - 2·x1.
        let xs = Mat::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let targets = [0.0f32, 1.0, -2.0, -1.0];
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..400 {
            let y = net.forward_train(&xs);
            let mut grad = Mat::zeros(4, 1);
            let mut loss = 0.0;
            for (i, &target) in targets.iter().enumerate() {
                let d = y.get(i, 0) - target;
                loss += d * d;
                grad.set(i, 0, 2.0 * d);
            }
            net.backward(&grad);
            adam.step(&mut net);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(last_loss < first_loss.unwrap() * 0.05, "loss {last_loss}");
        assert_eq!(adam.steps(), 400);
    }

    #[test]
    fn subnormal_moments_decay_to_zero() {
        // One parameter gets a gradient once, then none: its first moment
        // decays by β₁ per step and, unflushed, would stick at a few
        // subnormal ulps forever.
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = Mlp::new(&[1, 1], &mut rng);
        let mut adam = Adam::new(1e-3);
        let x = Mat::from_vec(1, 1, vec![1.0]);
        net.forward_train(&x);
        net.backward(&Mat::from_vec(1, 1, vec![1.0]));
        adam.step(&mut net);
        net.backward(&Mat::zeros(1, 1));
        for _ in 0..2000 {
            adam.step(&mut net);
        }
        for m in adam.m.iter().flatten() {
            assert!(
                !m.is_subnormal(),
                "moment {m:e} stuck in the subnormal range"
            );
            assert_eq!(*m, 0.0);
        }
        assert_eq!(flush_subnormal(f32::MIN_POSITIVE / 2.0), 0.0);
        assert_eq!(flush_subnormal(f32::MIN_POSITIVE), f32::MIN_POSITIVE);
        assert_eq!(flush_subnormal(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn zero_gradient_is_a_noop_direction() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Mlp::new(&[2, 4, 1], &mut rng);
        let mut adam = Adam::new(1e-2);
        let x = Mat::from_vec(1, 2, vec![0.3, 0.4]);
        let before = net.forward(&x).get(0, 0);
        adam.step(&mut net); // a new network's gradients are all zero
        let after = net.forward(&x).get(0, 0);
        assert!((before - after).abs() < 1e-5);
    }
}
