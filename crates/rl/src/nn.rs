//! Multi-layer perceptron with manual backpropagation.

use crate::tensor::Mat;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::OnceLock;

/// One fully-connected layer `y = x·Wᵀ + b` with gradient accumulators.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    /// Weights, `out × in` row-major. Private, so that no write to it can
    /// leave `wt` stale.
    w: Mat,
    /// `wᵀ` (`in × out`), so the forward kernel reads contiguous rows of
    /// outputs. Whenever set, it equals the transpose of `w`: built on the
    /// first forward pass (new or deserialized layers), rebuilt by an
    /// optimizer step, copied along with `w` by a target sync.
    #[serde(skip)]
    wt: OnceLock<Mat>,
    /// Bias, length `out`.
    pub b: Vec<f32>,
    /// Accumulated weight gradients (same shape as `w`).
    pub grad_w: Mat,
    /// Accumulated bias gradients.
    pub grad_b: Vec<f32>,
}

impl Linear {
    /// He-initialized layer (`N(0, √(2/in))`, suitable for ReLU networks).
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let std = (2.0 / in_dim as f32).sqrt();
        let mut w = Mat::zeros(out_dim, in_dim);
        for v in w.data_mut() {
            *v = sample_normal(rng) * std;
        }
        Linear {
            w,
            wt: OnceLock::new(),
            b: vec![0.0; out_dim],
            grad_w: Mat::zeros(out_dim, in_dim),
            grad_b: vec![0.0; out_dim],
        }
    }

    /// Weights, `out × in` row-major.
    pub fn w(&self) -> &Mat {
        &self.w
    }

    /// Re-derive `wᵀ` after a write to `w`. The writer pays for the
    /// transpose, not whichever forward pass comes next.
    fn refresh_wt(&mut self) {
        self.wt = OnceLock::from(self.w.transpose());
    }

    /// Forward pass for a batch (`batch × in`) → (`batch × out`): one
    /// [`Mat::matmul`] against `wᵀ`, then the bias. Each output element is
    /// the same `k`-ascending sum as `x.matmul_t(w)`, bit for bit.
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut out = x.matmul(self.wt.get_or_init(|| self.w.transpose()));
        out.add_row_bias(&self.b);
        out
    }

    /// Backward pass, parameter half: given `x` (the forward input) and
    /// `grad_out` (`batch × out`), accumulate `dW = grad_outᵀ · x` and
    /// `db = Σ_batch grad_out`.
    pub(crate) fn accumulate_grads(&mut self, x: &Mat, grad_out: &Mat) {
        let dw = grad_out.t_matmul(x);
        for (g, d) in self.grad_w.data_mut().iter_mut().zip(dw.data()) {
            *g += d;
        }
        for r in 0..grad_out.rows() {
            for (gb, &g) in self.grad_b.iter_mut().zip(grad_out.row(r)) {
                *gb += g;
            }
        }
    }

    /// Backward pass, input half: `grad_in = grad_out · W` (`batch × in`).
    pub(crate) fn input_grad(&self, grad_out: &Mat) -> Mat {
        grad_out.matmul(&self.w)
    }

    /// Reset accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad_w.data_mut() {
            *g = 0.0;
        }
        for g in &mut self.grad_b {
            *g = 0.0;
        }
    }
}

/// Box–Muller standard normal sample.
fn sample_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// An MLP with ReLU activations between layers (none after the last).
///
/// `forward` runs inference only; `forward_train` additionally caches the
/// per-layer inputs needed by `backward`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    /// Cached inputs to each layer from the last `forward_train` call
    /// (`cache[0]` = network input, `cache[i]` = post-ReLU input of layer i).
    #[serde(skip)]
    cache: Vec<Mat>,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `[in, h, h, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            cache: Vec::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].w.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        // Invariant: `Mlp::new` rejects empty layer stacks.
        #[allow(clippy::expect_used)]
        self.layers.last().expect("non-empty").w.rows()
    }

    /// Inference forward pass (no caches touched).
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            h.relu_inplace();
            h = layer.forward(&h);
        }
        h
    }

    /// Forward pass caching intermediates for [`Mlp::backward`].
    pub fn forward_train(&mut self, x: &Mat) -> Mat {
        self.cache.clear();
        self.cache.push(x.clone());
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            h.relu_inplace();
            let out = layer.forward(&h);
            self.cache.push(h);
            h = out;
        }
        h
    }

    /// Backpropagate `grad_out` (gradient w.r.t. the network output of the
    /// last `forward_train` batch), accumulating parameter gradients. The
    /// gradient w.r.t. the network input is not computed: nothing reads it.
    ///
    /// # Panics
    /// Panics if `forward_train` has not been called.
    pub fn backward(&mut self, grad_out: &Mat) {
        assert_eq!(
            self.cache.len(),
            self.layers.len(),
            "call forward_train first"
        );
        let mut grad = grad_out.clone();
        for i in (0..self.layers.len()).rev() {
            self.layers[i].accumulate_grads(&self.cache[i], &grad);
            if i == 0 {
                break;
            }
            grad = self.layers[i].input_grad(&grad);
            // Through the ReLU that produced layer i's input: its output
            // (the cached input) is zero exactly where the gradient stops.
            for (g, &y) in grad.data_mut().iter_mut().zip(self.cache[i].data()) {
                if y <= 0.0 {
                    *g = 0.0;
                }
            }
        }
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visit each parameter tensor with its gradient:
    /// `f(tensor_index, params, grads)`. Weights come `out × in` row-major.
    pub fn visit_params(&mut self, mut f: impl FnMut(usize, &mut [f32], &[f32])) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            f(2 * i, layer.w.data_mut(), layer.grad_w.data());
            layer.refresh_wt();
            f(2 * i + 1, &mut layer.b, &layer.grad_b);
        }
    }

    /// Number of parameter tensors (for optimizer state sizing).
    pub fn num_tensors(&self) -> usize {
        self.layers.len() * 2
    }

    /// Copy another MLP's parameters into this one (target-network sync).
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.w = src.w.clone();
            dst.wt = src.wt.clone();
            dst.b = src.b.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[4, 8, 3], &mut rng);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 3);
        let x = Mat::zeros(5, 4);
        let y = mlp.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[3, 6, 2], &mut rng);
        let x = Mat::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.0, 1.0, -0.5]);
        let a = mlp.forward(&x);
        let b = mlp.forward_train(&x);
        assert_eq!(a, b);
    }

    /// Finite-difference gradient check on a scalar loss L = Σ y².
    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[3, 5, 2], &mut rng);
        let x = Mat::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.9, 0.1, -0.4]);

        let loss = |m: &Mlp| -> f32 { m.forward(&x).data().iter().map(|v| v * v).sum() };

        // Analytic gradients: dL/dy = 2y.
        mlp.zero_grad();
        let y = mlp.forward_train(&x);
        let grad_out = Mat::from_vec(
            y.rows(),
            y.cols(),
            y.data().iter().map(|v| 2.0 * v).collect(),
        );
        mlp.backward(&grad_out);

        // Collect analytic grads, then perturb each weight of layer 0.
        let analytic_w0 = mlp.layers[0].grad_w.clone();
        let analytic_b1 = mlp.layers[1].grad_b.clone();
        let eps = 1e-3f32;
        for idx in [0usize, 3, 7] {
            let orig = mlp.layers[0].w.data()[idx];
            let set_w0 = |mlp: &mut Mlp, v: f32| {
                mlp.layers[0].w.data_mut()[idx] = v;
                mlp.layers[0].refresh_wt();
            };
            set_w0(&mut mlp, orig + eps);
            let lp = loss(&mlp);
            set_w0(&mut mlp, orig - eps);
            let lm = loss(&mlp);
            set_w0(&mut mlp, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = analytic_w0.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "w0[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        for idx in [0usize, 1] {
            let orig = mlp.layers[1].b[idx];
            mlp.layers[1].b[idx] = orig + eps;
            let lp = loss(&mlp);
            mlp.layers[1].b[idx] = orig - eps;
            let lm = loss(&mlp);
            mlp.layers[1].b[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = analytic_b1[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "b1[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut mlp = Mlp::new(&[2, 4, 1], &mut rng);
        let x = Mat::from_vec(1, 2, vec![1.0, -1.0]);
        let y = mlp.forward_train(&x);
        mlp.backward(&Mat::from_vec(1, 1, vec![2.0 * y.get(0, 0)]));
        mlp.zero_grad();
        assert!(mlp.layers[0].grad_w.data().iter().all(|&g| g == 0.0));
        assert!(mlp.layers[1].grad_b.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn copy_params_syncs_networks() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Mlp::new(&[3, 4, 2], &mut rng);
        let mut b = Mlp::new(&[3, 4, 2], &mut rng);
        let x = Mat::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        assert_ne!(a.forward(&x), b.forward(&x));
        b.copy_params_from(&a);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn deterministic_under_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(6);
            let mlp = Mlp::new(&[4, 8, 2], &mut rng);
            mlp.forward(&Mat::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]))
                .data()
                .to_vec()
        };
        assert_eq!(build(), build());
    }
}
