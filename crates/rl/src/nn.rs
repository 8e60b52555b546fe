//! Multi-layer perceptron with manual backpropagation.

use crate::tensor::Mat;
use rand::rngs::StdRng;
use rand::Rng;
use serde::value::Value;

/// One fully-connected layer `y = x·Wᵀ + b` with its gradients.
///
/// The weights are stored as `Wᵀ` (`in × out` row-major), the layout the
/// forward kernel reads, and their gradient in the same layout; the saved
/// document and [`Mlp::visit_params`] present `W` as `out × in`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// `Wᵀ`, `in × out` row-major.
    wt: Mat,
    /// Bias, length `out`.
    pub b: Vec<f32>,
    /// The last batch's weight gradient, in the layout of `wt`.
    grad_wt: Mat,
    /// The last batch's bias gradient.
    pub grad_b: Vec<f32>,
}

/// The saved form of a [`Linear`]: weights and weight gradient `out × in`.
#[derive(serde::Serialize, serde::Deserialize)]
struct LinearDoc {
    w: Mat,
    b: Vec<f32>,
    grad_w: Mat,
    grad_b: Vec<f32>,
}

impl serde::Serialize for Linear {
    fn to_value(&self) -> Value {
        LinearDoc {
            w: self.w(),
            b: self.b.clone(),
            grad_w: self.grad_wt.transpose(),
            grad_b: self.grad_b.clone(),
        }
        .to_value()
    }
}

impl serde::Deserialize for Linear {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let doc = LinearDoc::from_value(v)?;
        Ok(Linear {
            wt: doc.w.transpose(),
            b: doc.b,
            grad_wt: doc.grad_w.transpose(),
            grad_b: doc.grad_b,
        })
    }
}

impl Linear {
    /// He-initialized layer (`N(0, √(2/in))`, suitable for ReLU networks).
    /// `W` is drawn in `out × in` row-major order, each draw stored at its
    /// place in `Wᵀ`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let std = (2.0 / in_dim as f32).sqrt();
        let mut wt = Mat::zeros(in_dim, out_dim);
        for j in 0..out_dim {
            for k in 0..in_dim {
                wt.set(k, j, sample_normal(rng) * std);
            }
        }
        Linear {
            wt,
            b: vec![0.0; out_dim],
            grad_wt: Mat::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
        }
    }

    /// The weights `W`, `out × in`, as a new matrix.
    pub fn w(&self) -> Mat {
        self.wt.transpose()
    }

    /// Forward pass for a batch (`batch × in`) → (`batch × out`): one
    /// [`Mat::matmul`] against `Wᵀ`, then the bias. Each output element is
    /// the same `k`-ascending sum as `x.matmul_t(&w)`, bit for bit.
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut out = x.matmul(&self.wt);
        out.add_row_bias(&self.b);
        out
    }

    /// Backward pass, parameter half: given `x` (the forward input) and
    /// `grad_out` (`batch × out`), write `dWᵀ = xᵀ · grad_out` and `db =
    /// Σ_batch grad_out`, each summed over the batch from `+0.0`.
    pub(crate) fn write_grads(&mut self, x: &Mat, grad_out: &Mat) {
        self.grad_wt = x.t_matmul(grad_out);
        self.grad_b.fill(0.0);
        for r in 0..grad_out.rows() {
            for (gb, &g) in self.grad_b.iter_mut().zip(grad_out.row(r)) {
                *gb += g;
            }
        }
    }

    /// Backward pass, input half: `grad_in = grad_out · W` (`batch × in`).
    pub(crate) fn input_grad(&self, grad_out: &Mat) -> Mat {
        grad_out.matmul_t_fast(&self.wt)
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
/// per-layer inputs needed by `backward`. It saves as `{"layers": [...]}`,
/// each layer as `{"w", "b", "grad_w", "grad_b"}` with `W` `out × in`.
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
        self.layers[0].wt.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        // Invariant: `Mlp::new` rejects empty layer stacks.
        #[allow(clippy::expect_used)]
        self.layers.last().expect("non-empty").wt.cols()
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
    /// last `forward_train` batch), writing every parameter gradient (the
    /// previous batch's are overwritten, not added to). The gradient w.r.t.
    /// the network input is not computed: nothing reads it.
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
            self.layers[i].write_grads(&self.cache[i], &grad);
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

    /// Visit each parameter tensor with its gradient:
    /// `f(tensor_index, params, grads)`. Weights come `out × in` row-major:
    /// this transposes them out and back, and is not on any hot path.
    pub fn visit_params(&mut self, mut f: impl FnMut(usize, &mut [f32], &[f32])) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let mut w = layer.w();
            f(2 * i, w.data_mut(), layer.grad_wt.transpose().data());
            layer.wt = w.transpose();
            f(2 * i + 1, &mut layer.b, &layer.grad_b);
        }
    }

    /// [`Mlp::visit_params`] in storage order: weights come as `Wᵀ`, `in ×
    /// out`. For element-wise updates (Adam).
    pub(crate) fn visit_storage(&mut self, mut f: impl FnMut(usize, &mut [f32], &[f32])) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            f(2 * i, layer.wt.data_mut(), layer.grad_wt.data());
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
            dst.wt.clone_from(&src.wt);
            dst.b.clone_from(&src.b);
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
        let y = mlp.forward_train(&x);
        let grad_out = Mat::from_vec(
            y.rows(),
            y.cols(),
            y.data().iter().map(|v| 2.0 * v).collect(),
        );
        mlp.backward(&grad_out);

        // Collect analytic grads, then perturb each weight of layer 0 (`Wᵀ`
        // and its gradient share one layout).
        let analytic_w0 = mlp.layers[0].grad_wt.clone();
        let analytic_b1 = mlp.layers[1].grad_b.clone();
        let eps = 1e-3f32;
        for idx in [0usize, 3, 7] {
            let orig = mlp.layers[0].wt.data()[idx];
            let set_w0 = |mlp: &mut Mlp, v: f32| mlp.layers[0].wt.data_mut()[idx] = v;
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
    fn backward_overwrites_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut mlp = Mlp::new(&[2, 4, 1], &mut rng);
        let x = Mat::from_vec(1, 2, vec![1.0, -1.0]);
        let y = mlp.forward_train(&x);
        let grad = Mat::from_vec(1, 1, vec![2.0 * y.get(0, 0)]);
        mlp.backward(&grad);
        let first = (mlp.layers[0].grad_wt.clone(), mlp.layers[1].grad_b.clone());
        mlp.backward(&grad);
        assert_eq!(
            (mlp.layers[0].grad_wt.clone(), mlp.layers[1].grad_b.clone()),
            first
        );
        mlp.backward(&Mat::zeros(1, 1));
        assert!(mlp.layers[0].grad_wt.data().iter().all(|&g| g == 0.0));
        assert!(mlp.layers[1].grad_b.iter().all(|&g| g == 0.0));
    }

    /// `visit_params` lends `W` as `out × in` and writes it back.
    #[test]
    fn visit_params_presents_out_by_in() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut mlp = Mlp::new(&[3, 2], &mut rng);
        let w = mlp.layers[0].w();
        assert_eq!((w.rows(), w.cols()), (2, 3));
        let mut seen = Vec::new();
        mlp.visit_params(|i, p, _| {
            if i == 0 {
                seen = p.to_vec();
                p[1] = 9.0;
            }
        });
        assert_eq!(seen, w.data());
        assert_eq!(mlp.layers[0].w().get(0, 1), 9.0);
        assert_eq!(mlp.layers[0].wt.get(1, 0), 9.0);
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
