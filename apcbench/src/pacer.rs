//! Open-loop pacing with sound-card semantics, and the order statistics
//! every metric is reported with.
//!
//! Slot `k` is due at `k · T` after the run's origin and must be handed to
//! the card by `(k + 1) · T`. A slot whose deadline passes while an earlier
//! packet is still being made is an **xrun**: counted and skipped, never
//! queued. Latency runs from a slot's due instant to the hand-over, so a
//! stall is charged to every slot it delays.

use std::time::{Duration, Instant};

/// Slot bookkeeping of one paced run. Pure in its inputs (times are
/// nanoseconds since the run's origin), so it can be driven by a
/// synthetic timeline as well as by the clock.
#[derive(Debug, Clone)]
pub struct Pacer {
    period_ns: u64,
    next: u64,
    xruns: u64,
}

impl Pacer {
    /// A card requesting one packet every `period_ns`.
    pub fn new(period_ns: u64) -> Self {
        assert!(period_ns > 0, "a card period must be positive");
        Pacer {
            period_ns,
            next: 0,
            xruns: 0,
        }
    }

    /// Claim the slot to serve when the producer is free at `now_ns`.
    /// Every not-yet-served slot whose deadline is already past is
    /// counted as an xrun and skipped. Returns `(slot, due_ns)`.
    pub fn claim(&mut self, now_ns: u64) -> (u64, u64) {
        while (self.next + 1) * self.period_ns <= now_ns {
            self.next += 1;
            self.xruns += 1;
        }
        let k = self.next;
        self.next += 1;
        (k, k * self.period_ns)
    }

    /// Slots that fell due so far (served plus skipped).
    pub fn slots(&self) -> u64 {
        self.next
    }

    /// Slots skipped because their deadline passed before production
    /// could start.
    pub fn xruns(&self) -> u64 {
        self.xruns
    }

    /// Was a packet for a slot due at `due_ns` and handed over at
    /// `done_ns` late (the card already replayed the previous packet)?
    pub fn is_late(&self, due_ns: u64, done_ns: u64) -> bool {
        done_ns.saturating_sub(due_ns) > self.period_ns
    }
}

/// The run's time origin: nanoseconds since construction, and a waiter
/// that sleeps most of the gap and spins the last stretch so slot starts
/// are not at the mercy of timer slack.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Spin (rather than sleep) when less than this is left.
    const SPIN_NS: u64 = 250_000;

    /// Start the clock now.
    pub fn start() -> Self {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Block until `due_ns`; returns the time actually reached.
    pub fn wait_until(&self, due_ns: u64) -> u64 {
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return now;
            }
            let left = due_ns - now;
            if left > Self::SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - Self::SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = rank(sorted.len(), q);
    sorted[rank - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Tail quantiles considered, highest first.
pub const TAIL_QUANTILES: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// The highest tail quantile with at least ten samples beyond its rank,
/// or `None` when even p90 has fewer (fewer than 100 samples).
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| n >= 1 && n - rank(n, q) >= 10)
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Ascending copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = 1_000;

    /// Drive a pacer with per-packet production times, starting each
    /// packet at its due instant or as soon as the producer is free.
    /// Returns `(slot, latency)` per served packet.
    fn replay(p: &mut Pacer, costs: &[u64]) -> Vec<(u64, u64)> {
        let mut now = 0;
        let mut out = Vec::new();
        for &c in costs {
            let (k, due) = p.claim(now);
            let start = now.max(due);
            now = start + c;
            out.push((k, now - due));
        }
        out
    }

    #[test]
    fn on_time_packets_take_consecutive_slots() {
        let mut p = Pacer::new(T);
        let served = replay(&mut p, &[400, 400, 400]);
        assert_eq!(served, vec![(0, 400), (1, 400), (2, 400)]);
        assert_eq!(p.xruns(), 0);
        assert_eq!(p.slots(), 3);
    }

    #[test]
    fn late_packet_delays_the_next_without_skipping() {
        // Packet 0 ends at 1500: slot 1 (due 1000, deadline 2000) is still
        // alive, starts 500 late and carries that wait in its latency.
        let mut p = Pacer::new(T);
        let served = replay(&mut p, &[1_500, 400]);
        assert_eq!(served, vec![(0, 1_500), (1, 900)]);
        assert_eq!(p.xruns(), 0);
        assert!(p.is_late(0, 1_500));
        assert!(!p.is_late(1_000, 1_900));
    }

    #[test]
    fn stall_skips_every_slot_whose_deadline_passed() {
        // Packet 0 ends at 3500: slots 1 (deadline 2000) and 2 (deadline
        // 3000) are xruns; slot 3 (due 3000) is served 500 late.
        let mut p = Pacer::new(T);
        let served = replay(&mut p, &[3_500, 100]);
        assert_eq!(served, vec![(0, 3_500), (3, 600)]);
        assert_eq!(p.xruns(), 2);
        assert_eq!(p.slots(), 4);
    }

    #[test]
    fn deadline_boundary_counts_as_passed() {
        // Free exactly at slot 1's deadline: slot 1 is gone.
        let mut p = Pacer::new(T);
        replay(&mut p, &[2_000]);
        let (k, due) = p.claim(2_000);
        assert_eq!((k, due), (2, 2_000));
        assert_eq!(p.xruns(), 1);
    }

    #[test]
    fn lateness_is_strictly_beyond_one_period() {
        let p = Pacer::new(T);
        assert!(!p.is_late(5_000, 6_000));
        assert!(p.is_late(5_000, 6_001));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_quantile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        // Exactly ten beyond the rank: 1000 samples, p99 rank 990.
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let q = tail_quantile(v.len()).unwrap();
        let at = percentile(&v, q);
        assert_eq!(v.iter().filter(|&&x| x > at).count(), 10);
    }
}
