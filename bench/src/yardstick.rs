//! The host-speed yardstick. The build host is a few cores of a shared
//! machine whose speed changes by 1.3–1.6× in phases that last from seconds
//! to minutes (a neighbour on the sibling hyperthread, by the look of it:
//! CPU time equals wall time throughout). Identical code measured ten
//! minutes apart differed by 25–45 % on every workload, which no statistic
//! taken inside one run can remove.
//!
//! So every run measures the host beside the workload: a fixed piece of
//! bench-owned work — the yardstick — is timed between operations, every
//! [`PERIOD`], and each operation's latency is scaled by
//! `REFERENCE_NS / yardstick time around it`. Reported timings are therefore
//! "at reference host speed": on a host state where the yardstick takes
//! [`REFERENCE_NS`] they equal wall time. The yardstick calls nothing of the
//! system under test, so a change to the system cannot move it.
//!
//! What the yardstick does was chosen by measurement (`bench/README.md`,
//! *Host-speed normalisation*): of nine candidates (pointer chases over
//! 32 and 64 MiB, an FMA chain, streaming sums and copies, page faults,
//! string hashing) only two followed all four single-threaded workloads with
//! exponent ≈ 1 — allocation-heavy map/sort code and a dense product that
//! streams through L2 — and their sum did better than either.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use crate::stats::median;

/// Yardstick time that counts as host speed 1. About what the quiet build
/// host takes; its absolute value only sets the unit of the reported
/// timings.
pub const REFERENCE_NS: f64 = 1_400_000.0;
/// How often the yardstick is timed during a measured interval.
pub const PERIOD: Duration = Duration::from_millis(50);
/// An operation's host speed is the median of this many yardstick samples
/// before it and as many after it.
pub const WINDOW: usize = 5;

/// The fixed work. Takes ≈ 1.4 ms, so timing it every [`PERIOD`] costs under
/// 3 % of a run.
pub struct Yardstick {
    operand: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick { operand: (0..4096).map(|i| 1.0 + f64::from(i) * 1e-6).collect() }
    }

    /// Runs the yardstick once; nanoseconds it took.
    pub fn sample(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.maps_and_sort());
        std::hint::black_box(self.dense_product());
        t0.elapsed().as_nanos() as f64
    }

    /// Hash-map, B-tree, string and sort code over a few hundred KiB.
    fn maps_and_sort(&self) -> u64 {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut by_key: HashMap<u64, Vec<u32>> = HashMap::new();
        for i in 0..3000u32 {
            by_key.entry(next() % 700).or_default().push(i);
        }
        let mut names: BTreeMap<u64, String> = BTreeMap::new();
        for _ in 0..1500 {
            let k = next() % 4000;
            names.insert(k, format!("n{k}"));
        }
        let mut sorted: Vec<u64> = (0..6000).map(|_| next()).collect();
        sorted.sort_unstable();
        let mut acc = sorted[17];
        for (k, s) in &names {
            acc = acc.wrapping_add(*k + s.len() as u64);
        }
        for (k, l) in &by_key {
            acc = acc.wrapping_add(*k + l.len() as u64);
        }
        acc
    }

    /// A 160³ row-major product into freshly allocated matrices.
    fn dense_product(&self) -> f64 {
        const N: usize = 160;
        let a = &self.operand;
        let b: Vec<f64> = (0..N * N).map(|i| a[i % a.len()]).collect();
        let mut c = vec![0.0f64; N * N];
        for i in 0..N {
            let out = &mut c[i * N..(i + 1) * N];
            for k in 0..N {
                let aik = a[(i * N + k) % a.len()];
                let row = &b[k * N..(k + 1) * N];
                for j in 0..N {
                    out[j] += aik * row[j];
                }
            }
        }
        c[N + 1]
    }
}

/// The yardstick samples of one measured interval, each tagged with how
/// many operations had completed when it was taken.
pub struct HostSpeed {
    yardstick: Yardstick,
    last: Instant,
    ops_done: Vec<usize>,
    ns: Vec<f64>,
}

impl HostSpeed {
    /// Starts the log with one sample.
    pub fn start() -> Self {
        let mut h = HostSpeed {
            yardstick: Yardstick::new(),
            last: Instant::now(),
            ops_done: Vec::new(),
            ns: Vec::new(),
        };
        h.sample(0);
        h
    }

    /// Times the yardstick now. Call between operations only.
    pub fn sample(&mut self, ops_done: usize) {
        self.ns.push(self.yardstick.sample());
        self.ops_done.push(ops_done);
        self.last = Instant::now();
    }

    /// Times the yardstick if [`PERIOD`] has gone by since the last sample.
    pub fn tick(&mut self, ops_done: usize) {
        if self.last.elapsed() >= PERIOD {
            self.sample(ops_done);
        }
    }

    /// Per operation `0..n_ops`: the factor that scales its measured latency
    /// to reference host speed, `REFERENCE_NS / median(samples around it)`.
    pub fn factors(&self, n_ops: usize) -> Vec<f64> {
        let mut j = 0;
        (0..n_ops)
            .map(|op| {
                // Samples `..j` were taken before operation `op` started.
                while j < self.ops_done.len() && self.ops_done[j] <= op {
                    j += 1;
                }
                let window =
                    &self.ns[j.saturating_sub(WINDOW)..(j + WINDOW).min(self.ns.len())];
                REFERENCE_NS / median(window)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(ops_done: &[usize], ns: &[f64]) -> HostSpeed {
        HostSpeed {
            yardstick: Yardstick::new(),
            last: Instant::now(),
            ops_done: ops_done.to_vec(),
            ns: ns.to_vec(),
        }
    }

    #[test]
    fn an_operation_is_scaled_by_the_samples_around_it() {
        // Twelve samples: the host is at reference speed for ops 0..60 and
        // twice as slow from op 60 on.
        let ops_done: Vec<usize> = (0..12).map(|k| k * 10).collect();
        let ns: Vec<f64> =
            (0..12).map(|k| if k <= 6 { REFERENCE_NS } else { 2.0 * REFERENCE_NS }).collect();
        let f = log(&ops_done, &ns).factors(120);
        assert_eq!(f.len(), 120);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[20], 1.0);
        assert_eq!(f[119], 0.5);
        // Far enough into the slow stretch that most of the window is slow.
        assert_eq!(f[95], 0.5);
    }

    #[test]
    fn a_single_sample_covers_every_operation() {
        let f = log(&[0], &[REFERENCE_NS / 4.0]).factors(3);
        assert_eq!(f, vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn the_yardstick_does_the_same_work_every_time() {
        let y = Yardstick::new();
        assert_eq!(y.maps_and_sort(), y.maps_and_sort());
        assert_eq!(y.dense_product(), y.dense_product());
        assert!(y.sample() > 0.0);
    }
}
