//! Fixed-capacity experience replay buffer.

use rand::rngs::StdRng;
use rand::Rng;

/// A ring buffer of transitions with uniform random sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer<T> {
    buf: Vec<T>,
    capacity: usize,
    next: usize,
}

impl<T> ReplayBuffer<T> {
    /// Buffer holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            next: 0,
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Insert an item, evicting the oldest once full. Returns its slot.
    pub fn push(&mut self, item: T) -> usize {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
            self.buf.len() - 1
        } else {
            let slot = self.next;
            self.buf[slot] = item;
            self.next = (slot + 1) % self.capacity;
            slot
        }
    }

    /// Sample `n` slots uniformly with replacement.
    pub fn sample(&self, n: usize, rng: &mut StdRng) -> Vec<usize> {
        assert!(!self.buf.is_empty(), "cannot sample from an empty buffer");
        (0..n).map(|_| rng.gen_range(0..self.buf.len())).collect()
    }

    /// The item in `slot`.
    pub fn get(&self, slot: usize) -> &T {
        &self.buf[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fills_then_wraps() {
        let mut rb = ReplayBuffer::new(3);
        let slots: Vec<usize> = (0..5).map(|i| rb.push(i)).collect();
        assert_eq!(slots, [0, 1, 2, 0, 1]);
        assert_eq!(rb.len(), 3);
        // 0 and 1 evicted.
        let mut rng = StdRng::seed_from_u64(1);
        let sampled: Vec<i32> = rb
            .sample(100, &mut rng)
            .into_iter()
            .map(|s| *rb.get(s))
            .collect();
        assert!(sampled.iter().all(|&x| (2..5).contains(&x)));
    }

    #[test]
    fn sample_covers_contents() {
        let mut rb = ReplayBuffer::new(10);
        for i in 0..10 {
            rb.push(i);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let sampled: std::collections::HashSet<usize> =
            rb.sample(500, &mut rng).into_iter().collect();
        assert_eq!(sampled.len(), 10);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sampling_empty_panics() {
        let rb: ReplayBuffer<i32> = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        rb.sample(1, &mut rng);
    }
}
