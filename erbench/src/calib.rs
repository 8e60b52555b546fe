//! Host-speed calibration of the timings that follow the host's speed.
//!
//! The reference host is a 2-vCPU virtual machine shared with other
//! tenants. Its speed drifts by 20 to 40% within minutes, so the wall-clock
//! median of a run sampled the host as much as the program: the
//! interquartile spread of ten runs of one workload reached 0.26 of the
//! median on `mine` and 0.36 on `bulk-csv`, past any bound the benchmark
//! may set.
//!
//! A fixed loop of this package's own code (FNV-1a hashing of a 256 KiB
//! comma- and newline-delimited buffer, eight times over, with one
//! hash-map update per field) is timed right before each timed operation,
//! while the program is idle. A calibrated time is the operation's time
//! scaled by [`REFERENCE_S`] over the loop's time: the time the operation
//! would take when the host runs the loop at its reference speed. A change
//! to the program moves it as it moves the wall time; a phase of the host
//! moves the loop and the operation together and largely cancels.
//!
//! Between two ten-run sets a quarter of an hour apart, the host ran the
//! second 22 to 32% faster on the wall clock for a mining run, a
//! `repair_csv` request and a `serve-interactive` engine build; the loop
//! ran 40 to 50% faster. Calibrated, the first two moved by 8% and 7%
//! (the loop over-corrects a little). These are calibrated: `mine` (mining
//! runs and `RlMiner::new`), `bulk-csv` requests and `serve-interactive`
//! engine builds. Two later sets of this choice agreed within 1% on each.
//!
//! Two timings did not follow the host's speed, and stay on the wall
//! clock. The `bulk-csv` engine build (2.5 ms on the paper master) read
//! 2.63, 2.59 and 2.52 ms over three sets wall clock (2.16 and 2.43 ms in
//! two later ones), and moved by 38% calibrated. The `serve-interactive` open loop overlaps its requests, so
//! no pass can precede each one, and its latency is mostly wake-ups, socket
//! hand-offs and queueing: scaled by passes taken around the loop, the
//! spread of its p50 over eight runs rose from 0.09 to 0.16.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Median time of [`loop_s`] on the reference host: 4.44 ms over 881
/// passes taken during sixteen runs of `mine` and `bulk-csv`, then over a
/// 2 MiB buffer hashed once. The two forms do the same work: over 400
/// alternating passes of each, their medians agreed within 2%.
pub const REFERENCE_S: f64 = 4.44e-3;

/// Bytes of the buffer the calibration loop hashes. It stays in L2 and
/// resident for the rest of the run, so it is kept small: it counts in
/// `peak_rss_mib`.
const LOOP_BYTES: usize = 256 << 10;

/// Times the loop hashes the buffer per pass: 2 MiB in all.
const LOOP_REPEATS: usize = 8;

/// Distinct keys the loop counts fields under.
const LOOP_KEYS: u64 = 4096;

fn loop_input() -> &'static [u8] {
    static INPUT: OnceLock<Vec<u8>> = OnceLock::new();
    INPUT.get_or_init(|| {
        (0..LOOP_BYTES)
            .map(|i| match i {
                _ if i % 13 == 0 => b',',
                _ if i % 97 == 0 => b'\n',
                _ => b'a' + (i * 31 % 26) as u8,
            })
            .collect()
    })
}

/// Time one pass of the calibration loop, seconds.
pub fn loop_s() -> f64 {
    let input = loop_input();
    let started = Instant::now();
    let mut fields: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..LOOP_REPEATS {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in black_box(input) {
            if byte == b',' || byte == b'\n' {
                *fields.entry(hash % LOOP_KEYS).or_insert(0) += 1;
                hash = 0xcbf2_9ce4_8422_2325;
            } else {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    black_box(fields.len());
    started.elapsed().as_secs_f64()
}

/// The factor that scales a wall-clock time measured now to the reference
/// host's median speed: [`REFERENCE_S`] over one pass of the loop.
pub fn factor() -> f64 {
    REFERENCE_S / loop_s()
}

/// Wall-clock times with the calibration factor measured before each.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    pub wall: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl Timings {
    /// Record a wall-clock time taken right after `factor` was measured.
    pub fn push(&mut self, wall: f64, factor: f64) {
        self.wall.push(wall);
        self.scaled.push(wall * factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_input_has_fields_on_both_delimiters() {
        let input = loop_input();
        assert_eq!(input.len(), LOOP_BYTES);
        assert!(input.contains(&b',') && input.contains(&b'\n'));
    }

    #[test]
    fn timings_scale_each_sample_by_its_own_factor() {
        let mut t = Timings::default();
        t.push(2.0, 0.5);
        t.push(3.0, 2.0);
        assert_eq!(t.wall, vec![2.0, 3.0]);
        assert_eq!(t.scaled, vec![1.0, 6.0]);
    }

    #[test]
    fn factor_is_positive_and_finite() {
        let f = factor();
        assert!(f.is_finite() && f > 0.0);
    }
}
