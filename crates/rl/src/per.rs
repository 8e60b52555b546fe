//! Prioritized experience replay (Schaul et al., 2016), proportional
//! variant.
//!
//! Rule discovery is a sparse-reward problem: most transitions carry the
//! −0.01 below-threshold penalty and a handful carry large utility rewards.
//! Uniform replay drowns the informative transitions; proportional PER
//! samples transitions with probability `p_i^α / Σ p^α` where `p_i` is the
//! last TD error, and corrects the induced bias with importance weights
//! `(N·P(i))^{-β}` annealed toward 1. A sum tree keeps sampling and
//! priority updates `O(log n)`.

use rand::rngs::StdRng;
use rand::Rng;

/// A fixed-capacity sum tree: leaves hold priorities, internal nodes hold
/// subtree sums, sampling walks down by prefix-sum.
#[derive(Debug, Clone)]
struct SumTree {
    /// Binary heap layout; `tree[0]` is the root sum. Leaves start at
    /// `capacity - 1`.
    tree: Vec<f64>,
    capacity: usize,
}

impl SumTree {
    fn new(capacity: usize) -> Self {
        SumTree {
            tree: vec![0.0; 2 * capacity - 1],
            capacity,
        }
    }

    fn total(&self) -> f64 {
        self.tree[0]
    }

    fn set(&mut self, leaf: usize, priority: f64) {
        debug_assert!(leaf < self.capacity);
        debug_assert!(priority >= 0.0);
        let mut idx = leaf + self.capacity - 1;
        let delta = priority - self.tree[idx];
        self.tree[idx] = priority;
        while idx > 0 {
            idx = (idx - 1) / 2;
            self.tree[idx] += delta;
        }
    }

    fn get(&self, leaf: usize) -> f64 {
        self.tree[leaf + self.capacity - 1]
    }

    /// Find the leaf whose cumulative-priority interval contains `value`.
    fn find(&self, mut value: f64) -> usize {
        let mut idx = 0usize;
        while idx < self.capacity - 1 {
            let left = 2 * idx + 1;
            if value <= self.tree[left] || self.tree[left + 1] == 0.0 {
                idx = left;
            } else {
                value -= self.tree[left];
                idx = left + 1;
            }
        }
        idx - (self.capacity - 1)
    }
}

/// Prioritized replay buffer.
#[derive(Debug, Clone)]
pub struct PrioritizedReplay<T> {
    items: Vec<T>,
    tree: SumTree,
    capacity: usize,
    next: usize,
    /// Priority exponent α (0 = uniform).
    pub alpha: f64,
    /// Importance-sampling exponent β (annealed toward 1 by the caller).
    pub beta: f64,
    /// Small constant keeping every priority positive.
    pub epsilon: f64,
    max_priority: f64,
}

impl<T> PrioritizedReplay<T> {
    /// Buffer of at most `capacity` transitions with the usual defaults
    /// (α = 0.6, β = 0.4).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        PrioritizedReplay {
            items: Vec::with_capacity(capacity.min(4096)),
            tree: SumTree::new(capacity),
            capacity,
            next: 0,
            alpha: 0.6,
            beta: 0.4,
            epsilon: 1e-3,
            max_priority: 1.0,
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert with maximal priority (new experience is always worth one
    /// look). Returns its slot.
    pub fn push(&mut self, item: T) -> usize {
        let priority = self.max_priority.powf(self.alpha);
        let slot = if self.items.len() < self.capacity {
            self.items.push(item);
            self.items.len() - 1
        } else {
            let slot = self.next;
            self.items[slot] = item;
            self.next = (slot + 1) % self.capacity;
            slot
        };
        self.tree.set(slot, priority);
        slot
    }

    /// Sample `n` indices proportionally to priority. Returns
    /// `(index, importance_weight)` pairs; weights are normalized so the
    /// largest is 1.
    pub fn sample(&self, n: usize, rng: &mut StdRng) -> Vec<(usize, f32)> {
        assert!(!self.items.is_empty(), "cannot sample from an empty buffer");
        let total = self.tree.total().max(f64::MIN_POSITIVE);
        let len = self.items.len() as f64;
        let mut out = Vec::with_capacity(n);
        let mut max_w = 0.0f64;
        let mut raw = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.gen_range(0.0..total);
            let idx = self.tree.find(v).min(self.items.len() - 1);
            let p = self.tree.get(idx) / total;
            let w = (len * p.max(1e-12)).powf(-self.beta);
            max_w = max_w.max(w);
            raw.push((idx, w));
        }
        for (idx, w) in raw {
            out.push((idx, (w / max_w) as f32));
        }
        out
    }

    /// Access an item by index.
    pub fn get(&self, idx: usize) -> &T {
        &self.items[idx]
    }

    /// Update a sampled transition's priority from its new TD error.
    pub fn update_priority(&mut self, idx: usize, td_error: f64) {
        let p = td_error.abs() + self.epsilon;
        self.max_priority = self.max_priority.max(p);
        self.tree.set(idx, p.powf(self.alpha));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sum_tree_totals_and_find() {
        let mut t = SumTree::new(4);
        t.set(0, 1.0);
        t.set(1, 2.0);
        t.set(2, 3.0);
        t.set(3, 4.0);
        assert!((t.total() - 10.0).abs() < 1e-12);
        assert_eq!(t.find(0.5), 0);
        assert_eq!(t.find(1.5), 1);
        assert_eq!(t.find(3.5), 2);
        assert_eq!(t.find(9.5), 3);
        t.set(1, 0.0);
        assert!((t.total() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn push_and_wrap() {
        let mut rb = PrioritizedReplay::new(3);
        for i in 0..5 {
            rb.push(i);
        }
        assert_eq!(rb.len(), 3);
        // Contents are {3, 4, 2} (ring), all reachable via sampling.
        let mut rng = StdRng::seed_from_u64(1);
        let seen: std::collections::HashSet<i32> = rb
            .sample(200, &mut rng)
            .into_iter()
            .map(|(i, _)| *rb.get(i))
            .collect();
        assert!(seen.contains(&2) && seen.contains(&3) && seen.contains(&4));
    }

    #[test]
    fn high_priority_items_sampled_more() {
        let mut rb = PrioritizedReplay::new(8);
        for i in 0..8 {
            rb.push(i);
        }
        // Give item 5 a huge TD error, others tiny.
        for i in 0..8 {
            rb.update_priority(i, if i == 5 { 10.0 } else { 0.01 });
        }
        let mut rng = StdRng::seed_from_u64(2);
        let samples = rb.sample(1000, &mut rng);
        let hits5 = samples.iter().filter(|(i, _)| *i == 5).count();
        assert!(hits5 > 500, "item 5 sampled {hits5}/1000");
    }

    #[test]
    fn importance_weights_compensate() {
        let mut rb = PrioritizedReplay::new(4);
        for i in 0..4 {
            rb.push(i);
        }
        rb.update_priority(0, 5.0);
        rb.update_priority(1, 0.01);
        rb.update_priority(2, 0.01);
        rb.update_priority(3, 0.01);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = rb.sample(500, &mut rng);
        // The over-sampled item gets the *smallest* weight.
        let w0: f32 = samples
            .iter()
            .filter(|(i, _)| *i == 0)
            .map(|(_, w)| *w)
            .fold(f32::MAX, f32::min);
        let w_rest: f32 = samples
            .iter()
            .filter(|(i, _)| *i != 0)
            .map(|(_, w)| *w)
            .fold(0.0, f32::max);
        assert!(w0 < w_rest, "w0 {w0} vs rest {w_rest}");
        // All weights in (0, 1].
        assert!(samples.iter().all(|(_, w)| *w > 0.0 && *w <= 1.0));
    }

    #[test]
    fn uniform_when_alpha_zero() {
        let mut rb = PrioritizedReplay::new(4);
        rb.alpha = 0.0;
        for i in 0..4 {
            rb.push(i);
        }
        for i in 0..4 {
            rb.update_priority(i, (i as f64 + 1.0) * 10.0);
        }
        let mut rng = StdRng::seed_from_u64(4);
        let samples = rb.sample(2000, &mut rng);
        let mut counts = [0usize; 4];
        for (i, _) in samples {
            counts[i] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 500.0).abs() < 150.0, "{counts:?}");
        }
    }
}
