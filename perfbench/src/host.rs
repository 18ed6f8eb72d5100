//! Host-side measurements that contain no program code: the drift
//! calibration kernel, peak resident memory, and order statistics.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Slots in the calibration ring: 4 MiB of `u32`, larger than the
/// per-core caches, so the kernel is bound by memory latency the way
/// the event loop's arena walks are.
const RING: usize = 1 << 20;
/// Steps per calibration measurement (about 40 ms on a 2-vCPU KVM
/// guest).
const STEPS: usize = 1 << 20;

/// Times a fixed pointer-chase kernel three times, in milliseconds.  It
/// moves with host drift (frequency, noisy neighbours, cache
/// contention) and never with a change to the program, so whoever reads
/// the numbers can tell the two apart.  Reported only: no metric is
/// rescaled by it.  The ring is freed before this returns, so it never
/// counts toward the workload's peak memory.
pub fn calibrate_ms() -> Vec<f64> {
    let next = ring();
    (0..3).map(|_| chase_ms(&next)).collect()
}

/// One single-cycle permutation (Sattolo's algorithm) from a fixed seed,
/// so every run chases the same ring.
fn ring() -> Vec<u32> {
    let mut next: Vec<u32> = (0..RING as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..RING).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

/// Times one chase of [`STEPS`] dependent loads, in milliseconds.
fn chase_ms(next: &[u32]) -> f64 {
    let next = black_box(next);
    let begin = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    black_box(at);
    begin.elapsed().as_secs_f64() * 1e3
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so that it counts only what is resident from here on.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// A memory figure of this process in megabytes (10^6 bytes) from
/// `/proc/self/status`: `VmHWM` is the peak resident set size, `VmRSS`
/// the current one.
pub fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let kib: f64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Nearest-rank percentile `p` in `(0, 100]` of unsorted samples;
/// `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of unsorted samples (mean of the middle pair for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), Some(95.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn calibration_ring_is_one_cycle() {
        let next = ring();
        let mut at = 0u32;
        for step in 1..=RING {
            at = next[at as usize];
            if at == 0 {
                assert_eq!(step, RING, "the ring closes only after visiting every slot");
            }
        }
        assert_eq!(at, 0);
    }
}
