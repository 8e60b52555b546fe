//! Property-based tests for the RL substrate.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_rl::nn::Linear;
use er_rl::{Mat, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Mat::from_vec(rows, cols, data))
}

/// A `rows × cols` matrix in which each row is either one-hot-like (1–6
/// entries of 1.0 over exact `+0.0`) or a mix of `+0.0`, `-0.0` and values
/// in `[-2, 2)`.
fn sparse_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let mut row = vec![0.0f32; cols];
        if rng.gen_range(0..2u8) == 0 {
            for _ in 0..rng.gen_range(1..7usize) {
                row[rng.gen_range(0..cols)] = 1.0;
            }
        } else {
            for v in &mut row {
                *v = match rng.gen_range(0..4u8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                };
            }
        }
        data.extend(row);
    }
    Mat::from_vec(rows, cols, data)
}

/// A `rows × cols` output gradient: either [`sparse_mat`]'s mix, a dense
/// ReLU-masked one (about half `±0.0`), or a sparse one whose rows hold 1
/// to `most` nonzero entries among `+0.0` and `-0.0`. With `most == 1`,
/// every row has exactly one nonzero: DQN's output gradient.
fn grad_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
    let most = match rng.gen_range(0..4u8) {
        0 => return sparse_mat(rows, cols, rng),
        1 => {
            let data = (0..rows * cols)
                .map(|_| match rng.gen_range(0..4u8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-0.1f32..0.1),
                })
                .collect();
            return Mat::from_vec(rows, cols, data);
        }
        2 => 1,
        _ => 4,
    };
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let mut row: Vec<f32> = (0..cols)
            .map(|_| {
                if rng.gen_range(0..2u8) == 0 {
                    0.0
                } else {
                    -0.0
                }
            })
            .collect();
        for _ in 0..rng.gen_range(1..=most) {
            row[rng.gen_range(0..cols)] = rng.gen_range(-0.05f32..0.05) + 1e-3;
        }
        data.extend(row);
    }
    Mat::from_vec(rows, cols, data)
}

fn bits(m: &Mat) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Batch sizes around the DQN's 32, and odd widths up to Covid's 210/211.
fn shapes() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (
        prop::sample::select(vec![1usize, 2, 31, 32, 33]),
        prop::sample::select(vec![1usize, 3, 7, 33, 210]),
        prop::sample::select(vec![1usize, 3, 7, 33, 211]),
        any::<u64>(),
    )
}

/// Property cases for the kernel suites: a quick budget under the debug
/// test profile, a larger one when the suite is built `--release`.
const KERNEL_CASES: u32 = if cfg!(debug_assertions) { 256 } else { 10_000 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(KERNEL_CASES))]

    /// The forward kernel (`x · Wᵀ` as `matmul` against the transposed
    /// weight, skipping zero inputs, four terms per pass) equals the naive
    /// single-accumulator, `k`-ascending dot product bit for bit.
    #[test]
    fn forward_kernel_is_bit_exact(shape in shapes()) {
        let (batch, width, out, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = sparse_mat(batch, width, &mut rng);
        let w = sparse_mat(out, width, &mut rng);
        prop_assert_eq!(bits(&x.matmul(&w.transpose())), bits(&x.matmul_t(&w)));
    }

    /// A layer's forward pass is the reference product plus the bias, bit
    /// for bit.
    #[test]
    fn linear_forward_is_bit_exact(shape in shapes()) {
        let (batch, width, out, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(width, out, &mut rng);
        for b in &mut layer.b {
            *b = rng.gen_range(-1.0f32..1.0);
        }
        let x = sparse_mat(batch, width, &mut rng);
        let mut want = x.matmul_t(&layer.w());
        want.add_row_bias(&layer.b);
        prop_assert_eq!(bits(&layer.forward(&x)), bits(&want));
    }

    /// The weight-gradient kernel `xᵀ · g` sums over the batch in row order
    /// exactly as the reference dot product over transposed operands, on
    /// one-hot and dense inputs and on dense and one-nonzero-per-row
    /// gradients.
    #[test]
    fn weight_gradient_kernel_is_bit_exact(shape in shapes()) {
        let (batch, width, out, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = sparse_mat(batch, width, &mut rng);
        let g = grad_mat(batch, out, &mut rng);
        let want = x.transpose().matmul_t(&g.transpose());
        prop_assert_eq!(bits(&x.t_matmul(&g)), bits(&want));
    }

    /// The input-gradient kernel `g · W`, read from the stored `Wᵀ`, equals
    /// the reference dot product `g · (Wᵀ)ᵀ` bit for bit.
    #[test]
    fn input_gradient_kernel_is_bit_exact(shape in shapes()) {
        let (batch, width, out, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = grad_mat(batch, out, &mut rng);
        let wt = sparse_mat(width, out, &mut rng);
        prop_assert_eq!(bits(&g.matmul_t_fast(&wt)), bits(&g.matmul_t(&wt)));
    }

    /// (A·B)·C == A·(B·C) up to float tolerance.
    #[test]
    fn matmul_associative(a in arb_mat(3, 4), b in arb_mat(4, 2), c in arb_mat(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// t_matmul and matmul_t agree with explicit transposition through
    /// matmul.
    #[test]
    fn transpose_products_agree(a in arb_mat(3, 4), b in arb_mat(3, 2)) {
        // aᵀ·b via t_matmul.
        let got = a.t_matmul(&b);
        // Explicit transpose of a.
        let mut at = Mat::zeros(4, 3);
        for r in 0..3 {
            for c in 0..4 {
                at.set(c, r, a.get(r, c));
            }
        }
        let want = at.matmul(&b);
        for (x, y) in got.data().iter().zip(want.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// MLP forward is deterministic and ReLU keeps hidden activations from
    /// producing NaN for finite inputs.
    #[test]
    fn mlp_forward_finite(x in arb_mat(2, 6), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&[6, 12, 3], &mut rng);
        let y1 = mlp.forward(&x);
        let y2 = mlp.forward(&x);
        prop_assert_eq!(&y1, &y2);
        prop_assert!(y1.data().iter().all(|v| v.is_finite()));
    }

    /// Gradient check against finite differences on random small networks
    /// and inputs (loss = sum of outputs).
    #[test]
    fn mlp_gradients_match_finite_differences(x in arb_mat(2, 3), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&[3, 4, 2], &mut rng);
        let loss = |m: &Mlp, x: &Mat| -> f32 { m.forward(x).data().iter().sum() };

        let y = mlp.forward_train(&x);
        let grad_out = Mat::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        mlp.backward(&grad_out);

        // Probe two weights in layer 0 via visit_params.
        let mut analytic: Vec<(usize, usize, f32)> = Vec::new();
        mlp.visit_params(|idx, _p, g| {
            if idx == 0 {
                analytic.push((idx, 0, g[0]));
                if g.len() > 5 {
                    analytic.push((idx, 5, g[5]));
                }
            }
        });
        let eps = 1e-2f32;
        let l0 = loss(&mlp, &x);
        for (idx, at, g) in analytic {
            let mut lp = 0.0;
            let mut lm = 0.0;
            mlp.visit_params(|i, p, _| {
                if i == idx {
                    p[at] += eps;
                }
            });
            lp += loss(&mlp, &x);
            mlp.visit_params(|i, p, _| {
                if i == idx {
                    p[at] -= 2.0 * eps;
                }
            });
            lm += loss(&mlp, &x);
            mlp.visit_params(|i, p, _| {
                if i == idx {
                    p[at] += eps; // restore
                }
            });
            let numeric = (lp - lm) / (2.0 * eps);
            // The loss is piecewise-linear in each weight (ReLU net, linear
            // loss): away from a kink the second difference is ~0. If the
            // perturbation crossed a ReLU kink, the central difference is
            // meaningless — skip that probe.
            let curvature = (lp + lm - 2.0 * l0).abs();
            if curvature > eps * 1e-2 {
                continue;
            }
            prop_assert!(
                (numeric - g).abs() < 0.05 * (1.0 + g.abs()),
                "tensor {idx}[{at}]: numeric {numeric} vs analytic {g}"
            );
        }
    }
}
