#![forbid(unsafe_code)]
//! # er-par — the workspace concurrency layer
//!
//! Rule-measure evaluation dominates every scalability figure of the paper
//! (§V-C, Figs. 9–12), and it is embarrassingly parallel *across rules*:
//! EnuMiner evaluates each lattice level's children independently, RLMiner
//! re-evaluates harvested candidates independently, and a pattern-cover scan
//! partitions cleanly over row ranges. This crate provides the two shared
//! primitives that make those fan-outs safe and — crucially — deterministic:
//!
//! * [`WorkerPool`] — a scoped worker pool over [`std::thread::scope`] with a
//!   chunked atomic work queue. Workers steal fixed-size chunks of the input
//!   index space and return `(index, result)` pairs; the caller scatters them
//!   back into input order, so **the reduce is ordered**: output `i` is the
//!   result of input `i` no matter how the OS scheduled the workers. With one
//!   thread (or when already running inside a pool worker) the map runs
//!   inline, byte-identical to a plain sequential loop.
//! * [`ShardedMap`] — an N-way sharded `RwLock<HashMap>` so concurrent cache
//!   fills (the `Evaluator`'s measures cache and group-index cache) do not
//!   serialize on one global mutex. Shard selection hashes with fixed-key
//!   SipHash, so a key's shard is stable across runs and thread counts.
//!
//! No external framework (no rayon, no crossbeam): `std::thread::scope` plus
//! two atomics is all the machinery the miners need, and keeping it local
//! keeps the determinism contract auditable.
//!
//! ## Determinism contract
//!
//! Every operation in this crate is a *pure reordering* of work: given the
//! same inputs and a deterministic `f`, [`WorkerPool::map`] and
//! [`WorkerPool::ranges`] return the same output `Vec` at every thread
//! count. Callers preserve end-to-end determinism by doing all
//! order-sensitive reduction (float accumulation, candidate-list pushes,
//! counter updates) sequentially over those ordered results.
//!
//! ## Thread-count resolution
//!
//! [`resolve_threads`] maps a configured `0` ("auto") to the `ER_THREADS`
//! environment variable, defaulting to 1 (fully sequential) when unset.
//! Sequential-by-default keeps single-threaded runs free of any pool
//! overhead; CI exercises the parallel paths with `ER_THREADS=4`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;

/// Environment variable consulted by [`resolve_threads`] when the configured
/// thread count is `0` ("auto").
pub const THREADS_ENV: &str = "ER_THREADS";

/// Resolve a configured thread count: `0` means "auto" — take
/// [`THREADS_ENV`] if set to a positive integer, else 1 (sequential).
/// Explicit counts pass through unchanged.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

thread_local! {
    /// Set while a [`WorkerPool`] worker is executing its closure; nested
    /// `map` calls from inside a worker run inline instead of spawning a
    /// second layer of threads (which would oversubscribe the machine).
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A scoped worker pool: fan out a slice of work items over up to `threads`
/// OS threads and collect the results *in input order*.
///
/// The pool is a value, not a resource — it holds no threads between calls.
/// Each [`WorkerPool::map`] opens one [`std::thread::scope`], which lets the
/// work closure borrow from the caller's stack (the evaluator, the frontier,
/// the task) with no `Arc` plumbing, and joins every worker before
/// returning, so a panic in any work item propagates to the caller.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool that fans out over `threads` threads (clamped to at least 1);
    /// `0` resolves via [`resolve_threads`].
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: resolve_threads(threads).max(1),
        }
    }

    /// The single-threaded pool: every `map` runs inline.
    pub fn sequential() -> Self {
        WorkerPool { threads: 1 }
    }

    /// The number of worker threads this pool fans out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, returning results in input order.
    ///
    /// Work is distributed through a chunked atomic queue: workers claim
    /// contiguous index chunks with one `fetch_add` each, which keeps the
    /// queue contention negligible while still load-balancing uneven items
    /// (a chunk is at most ¼ of an even per-worker share). Runs inline when
    /// the pool is sequential, the input is tiny, or the caller is itself a
    /// pool worker (no nested fan-out).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 || IN_POOL_WORKER.with(|w| w.get()) {
            return items.iter().map(f).collect();
        }
        // ≥ 4 chunks per worker for load balancing, but never empty chunks.
        let chunk = (n / (workers * 4)).max(1);
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        IN_POOL_WORKER.with(|w| w.set(true));
                        let mut out = Vec::new();
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                                out.push((i, f(item)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    // A worker panicked: re-raise in the caller, exactly as
                    // the sequential loop would have.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        // Ordered reduce: scatter each worker's (index, result) pairs back
        // into input order.
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for part in parts {
            for (i, r) in part {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                // Invariant: the atomic queue hands every index in 0..n to
                // exactly one worker, and all workers joined above, so every
                // slot is filled exactly once.
                #[allow(clippy::unwrap_used)]
                slot.unwrap()
            })
            .collect()
    }

    /// Split `0..n` into contiguous chunks, apply `f` to each chunk in
    /// parallel, and return the per-chunk results in range order.
    ///
    /// Because the ranges partition `0..n` in order, concatenating the
    /// results of an order-preserving `f` (filter, scan, collect) yields
    /// exactly the sequential output — the chunk boundaries are invisible.
    pub fn ranges<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let chunks = chunk_ranges(n, self.threads * 4);
        self.map(&chunks, |r| f(r.clone()))
    }
}

impl Default for WorkerPool {
    /// The auto-resolved pool (`ER_THREADS` or sequential).
    fn default() -> Self {
        WorkerPool::new(0)
    }
}

/// Split `0..n` into at most `chunks` contiguous, non-empty ranges covering
/// `0..n` exactly, earlier ranges no shorter than later ones.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Number of shards a [`ShardedMap`] uses by default. A small power of two:
/// enough ways that 8 writers rarely collide, few enough that summing shard
/// lengths stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// An N-way sharded `RwLock<HashMap>`: a drop-in replacement for one global
/// `Mutex<HashMap>` cache that lets concurrent readers and writers of
/// *different* keys proceed without serializing.
///
/// Shard selection hashes the key with fixed-key SipHash
/// ([`std::collections::hash_map::DefaultHasher::new`] is specified to be
/// deterministic), so a key always lands in the same shard — across calls,
/// across runs, and across thread counts.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    /// `shards.len() - 1`; shard count is a power of two so selection is a
    /// mask, not a modulo.
    mask: u64,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// A map with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A map with `shards` shards (rounded up to a power of two, min 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key belongs to — stable across runs (fixed-key SipHash).
    pub fn shard_index<Q>(&self, key: &Q) -> usize
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + ?Sized,
    {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() & self.mask) as usize
    }

    /// Clone of the value under `key`, if present.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        self.shards[self.shard_index(key)].read().get(key).cloned()
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[self.shard_index(key)].read().contains_key(key)
    }

    /// Insert `value` under `key`, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shards[self.shard_index(&key)]
            .write()
            .insert(key, value)
    }

    /// Clone of the value under `key`, inserting `make()` first if absent.
    ///
    /// The check-then-insert races are resolved under the shard's write
    /// lock: when two threads miss simultaneously, exactly one `make()`
    /// result is stored and both return it. (`make` itself may run twice;
    /// wrap expensive builds in a `OnceLock` value to get
    /// at-most-one-builder semantics — see `Evaluator::group_index`.)
    pub fn get_or_insert_with<F>(&self, key: &K, make: F) -> V
    where
        K: Clone,
        V: Clone,
        F: FnOnce() -> V,
    {
        let shard = &self.shards[self.shard_index(key)];
        if let Some(v) = shard.read().get(key) {
            return v.clone();
        }
        let mut lock = shard.write();
        // Re-check under the write lock: another thread may have filled the
        // slot between our read miss and this write acquisition.
        lock.entry(key.clone()).or_insert_with(make).clone()
    }

    /// Total number of entries (sum over shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Run `f` over every `(shard index, shard contents)` pair, taking each
    /// shard's read lock in turn. Used by the `debug-invariants` audits.
    pub fn for_each_shard<F>(&self, mut f: F)
    where
        F: FnMut(usize, &HashMap<K, V>),
    {
        for (i, shard) in self.shards.iter().enumerate() {
            f(i, &shard.read());
        }
    }
}

impl<K: Hash + Eq, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn resolve_explicit_passes_through() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
    }

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.map(&items, |x| x * 2), expect, "threads={threads}");
        }
    }

    #[test]
    fn map_runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..537).collect();
        let out = WorkerPool::new(4).map(&items, |x| {
            hits.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 537);
        assert_eq!(out, items);
    }

    #[test]
    fn map_empty_and_singleton() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map(&[] as &[usize], |x| *x), Vec::<usize>::new());
        assert_eq!(pool.map(&[7usize], |x| x + 1), vec![8]);
    }

    #[test]
    fn nested_map_runs_inline() {
        // A map inside a worker must not deadlock or explode the thread
        // count; it runs inline and still returns ordered results.
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let out = pool.map(&items, |&x| {
            let inner: Vec<usize> = pool.map(&items, |&y| y + x);
            inner[x]
        });
        let expect: Vec<usize> = items.iter().map(|&x| 2 * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..100).collect();
        WorkerPool::new(4).map(&items, |&x| {
            assert!(x != 50, "boom");
            x
        });
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 100, 1001] {
            for chunks in [1usize, 3, 8, 200] {
                let rs = chunk_ranges(n, chunks);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} chunks={chunks}");
                let mut pos = 0;
                for r in &rs {
                    assert_eq!(r.start, pos);
                    assert!(!r.is_empty());
                    pos = r.end;
                }
            }
        }
    }

    #[test]
    fn ranges_concat_equals_sequential_scan() {
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool
            .ranges(1000, |r| r.filter(|x| x % 7 == 0).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect();
        let expect: Vec<usize> = (0..1000).filter(|x| x % 7 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn sharded_map_round_trip() {
        let m: ShardedMap<String, usize> = ShardedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a".into(), 1), None);
        assert_eq!(m.insert("a".into(), 2), Some(1));
        assert_eq!(m.get("a"), Some(2));
        assert_eq!(m.get("b"), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key("a"));
    }

    #[test]
    fn sharded_map_shard_is_stable() {
        let m: ShardedMap<u64, ()> = ShardedMap::new();
        for k in 0..100u64 {
            let s = m.shard_index(&k);
            assert_eq!(s, m.shard_index(&k));
            assert!(s < m.num_shards());
        }
    }

    #[test]
    fn get_or_insert_with_races_converge() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..200u64 {
                        let v = m.get_or_insert_with(&k, || k * 10);
                        assert_eq!(v, k * 10);
                    }
                });
            }
        });
        assert_eq!(m.len(), 200);
    }

    #[test]
    fn for_each_shard_visits_everything_in_its_shard() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shards(4);
        for k in 0..64u64 {
            m.insert(k, k);
        }
        let mut seen = 0;
        m.for_each_shard(|i, shard| {
            for k in shard.keys() {
                assert_eq!(m.shard_index(k), i, "key {k} stored in wrong shard");
                seen += 1;
            }
        });
        assert_eq!(seen, 64);
    }
}
