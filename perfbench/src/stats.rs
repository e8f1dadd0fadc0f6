//! Harness arithmetic: the percentile rule, seeded arrival schedules,
//! due-time latency accounting and knee selection. Pure functions, so
//! every rule the report depends on is unit-tested here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest of p99.9, p99 and p90 that has at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 has too few.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median of unsorted values (the lower middle for even counts, so the
/// value is always one that was measured).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A latency population summary: median, one named tail percentile, and
/// how many samples back them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile reported, as a fraction (0.99 for p99).
    pub tail_q: f64,
    pub tail: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `values` at the fixed tail percentile `tail_q`. Returns
    /// `None` when the population is too small for `tail_q` to have
    /// [`MIN_BEYOND`] samples beyond it.
    pub fn at(values: &[f64], tail_q: f64) -> Option<Summary> {
        if values.is_empty() || beyond(values.len(), tail_q) < MIN_BEYOND {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            p50: quantile(&v, 0.5),
            tail_q,
            tail: quantile(&v, tail_q),
            max: v[v.len() - 1],
        })
    }

    /// Percentile label, e.g. `p99`.
    pub fn tail_label(&self) -> String {
        percentile_label(self.tail_q)
    }
}

/// One line for a latency population under the percentile rule: the
/// median and the highest percentile with [`MIN_BEYOND`] samples beyond
/// it, with the sample count.
pub fn describe(values: &[f64]) -> String {
    match tail_quantile(values.len()).and_then(|q| Summary::at(values, q)) {
        Some(s) => format!(
            "n={} p50={:.3} ms {}={:.3} ms ({} beyond) max={:.3} ms",
            s.n,
            s.p50,
            s.tail_label(),
            s.tail,
            beyond(s.n, s.tail_q),
            s.max
        ),
        None => format!(
            "n={}: too few samples for any tail percentile",
            values.len()
        ),
    }
}

/// `0.99` → `p99`, `0.999` → `p99.9`.
pub fn percentile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{pct:.1}")
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Poisson arrival offsets (seconds from the phase start) at `rate` per
/// second over `duration` seconds: exponential gaps from a seeded stream.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// What one open-loop request saw, in seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually wrote it.
    pub sent: f64,
    /// When its reply was read in full.
    pub done: f64,
}

impl Timing {
    /// Latency as a user arriving on schedule sees it: from the due time,
    /// so a generator or server stall is charged to every request that
    /// queued behind it, not hidden by a late send.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent this request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// The outcome of one ladder rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests the schedule offered.
    pub attempted: usize,
    /// Requests refused, malformed or divergent.
    pub failed: usize,
    /// Latencies of answered requests, ms, in arrival order.
    pub latencies: Vec<f64>,
    /// Worst generator lag on this rung, ms.
    pub lag_max_ms: f64,
    /// Answered requests per second from the first due time to the last
    /// reply.
    pub achieved_rps: f64,
}

impl Rung {
    /// The backlog grows when the last fifth of arrivals waits markedly
    /// longer than the first fifth: the server is not keeping up.
    pub fn backlog_growing(&self) -> bool {
        let n = self.latencies.len();
        if n < 10 {
            return false;
        }
        let fifth = n / 5;
        let head = median(&self.latencies[..fifth]);
        let tail = median(&self.latencies[n - fifth..]);
        tail > 2.0 * head + 5.0
    }

    /// Whether the rung meets the limit: zero failures, a tail percentile
    /// backed by enough samples and at or below `limit_ms`, no growing
    /// backlog, and a generator that kept to its schedule.
    pub fn passes(&self, tail_q: f64, limit_ms: f64, lag_limit_ms: f64) -> bool {
        self.failed == 0
            && self.lag_max_ms <= lag_limit_ms
            && !self.backlog_growing()
            && Summary::at(&self.latencies, tail_q).is_some_and(|s| s.tail <= limit_ms)
    }
}

/// Where an unsustainable rung (failures, growing backlog, lagging
/// generator) sits on the knee curve, as a multiple of the limit.
const KNEE_CAP: f64 = 10.0;

/// Non-decreasing least-squares fit (pool adjacent violators).
fn isotonic(values: &[f64]) -> Vec<f64> {
    // (mean, count) blocks, merged while they decrease.
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &v in values {
        blocks.push((v, 1));
        while blocks.len() > 1 && blocks[blocks.len() - 2].0 > blocks[blocks.len() - 1].0 {
            let (b_mean, b_n) = blocks.pop().expect("two blocks");
            let (a_mean, a_n) = blocks.pop().expect("two blocks");
            let n = a_n + b_n;
            blocks.push(((a_mean * a_n as f64 + b_mean * b_n as f64) / n as f64, n));
        }
    }
    blocks
        .into_iter()
        .flat_map(|(mean, n)| std::iter::repeat_n(mean, n))
        .collect()
}

/// The knee: the offered rate at which the rungs' tail latency crosses
/// `limit_ms`, read off a monotone fit.
///
/// Each rung (ascending by rate) contributes the log of its tail
/// percentile, capped at `KNEE_CAP × limit`. A rung that failed requests,
/// grew a backlog or ran a lagging generator enters at the cap: that rate
/// is not sustainable whatever its percentile says. Rungs too small to
/// back the percentile are left out. The fit is isotonic, so one lucky or
/// unlucky rung is pooled with its neighbours instead of deciding the
/// knee alone, and the crossing is interpolated between the two fitted
/// rungs around it. `None` when the lowest rung already misses the limit;
/// the top rate when no rung does (the ladder stops short of the knee).
pub fn knee_rps(rungs: &[Rung], tail_q: f64, limit_ms: f64, lag_limit_ms: f64) -> Option<f64> {
    let cap = KNEE_CAP * limit_ms;
    let points: Vec<(f64, f64)> = rungs
        .iter()
        .filter_map(|r| {
            let tail = Summary::at(&r.latencies, tail_q)?.tail;
            let sustainable = r.failed == 0 && !r.backlog_growing() && r.lag_max_ms <= lag_limit_ms;
            let tail = if sustainable { tail.min(cap) } else { cap };
            Some((r.rate, tail.max(1e-6).ln()))
        })
        .collect();
    let fit = isotonic(&points.iter().map(|p| p.1).collect::<Vec<_>>());
    let limit = limit_ms.ln();
    match fit.iter().position(|&v| v > limit) {
        Some(0) => None,
        Some(i) => {
            let (r0, r1) = (points[i - 1].0, points[i].0);
            Some(r0 + (r1 - r0) * (limit - fit[i - 1]) / (fit[i] - fit[i - 1]))
        }
        None => points.last().map(|p| p.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(0), None);
        assert!(describe(&[]).contains("too few"));
        assert!(Summary::at(&ramp(999), 0.99).is_none());
        let s = Summary::at(&ramp(1000), 0.99).expect("1000 samples back p99");
        assert_eq!((s.n, s.p50, s.tail, s.max), (1000, 500.0, 990.0, 1000.0));
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(percentile_label(0.999), "p99.9");
        assert!(
            describe(&ramp(1000)).starts_with("n=1000 p50=500.000 ms p99=990.000 ms (10 beyond)")
        );
        assert!(describe(&ramp(50)).contains("too few"));
    }

    #[test]
    fn schedules_replay_from_the_seed() {
        let a = poisson_schedule(7, 500.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 500.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 500.0, 2.0));
        // Rate is honoured within Poisson noise, offsets ascend and stay
        // inside the phase.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(1, 2), mix(1, 2));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // The generator stalled 30 ms and sent late; the server answered
        // 2 ms after the send. The user who arrived on time waited 32 ms.
        let t = Timing {
            due: 1.000,
            sent: 1.030,
            done: 1.032,
        };
        assert!((t.latency_ms() - 32.0).abs() < 1e-9);
        assert!((t.lag_ms() - 30.0).abs() < 1e-9);
        let early = Timing {
            due: 1.0,
            sent: 1.0,
            done: 1.001,
        };
        assert_eq!(early.lag_ms(), 0.0);
    }

    fn rung(rate: f64, latency: f64) -> Rung {
        Rung {
            rate,
            attempted: 2000,
            failed: 0,
            latencies: vec![latency; 2000],
            lag_max_ms: 0.1,
            achieved_rps: rate,
        }
    }

    #[test]
    fn isotonic_pools_violators() {
        assert_eq!(isotonic(&[1.0, 3.0, 2.0, 4.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(isotonic(&[3.0, 1.0]), vec![2.0, 2.0]);
        assert_eq!(isotonic(&[]), Vec::<f64>::new());
    }

    #[test]
    fn rung_limits() {
        let mut r = rung(100.0, 5.0);
        assert!(r.passes(0.99, 50.0, 20.0));
        // Saturated: latency grows through the rung.
        r.latencies = (0..2000).map(|i| 1.0 + i as f64 * 0.2).collect();
        assert!(r.backlog_growing() && !r.passes(0.99, 500.0, 20.0));
        let mut r = rung(100.0, 5.0);
        r.failed = 1;
        assert!(!r.passes(0.99, 50.0, 20.0));
        let mut r = rung(100.0, 5.0);
        r.lag_max_ms = 25.0;
        assert!(!r.passes(0.99, 50.0, 20.0));
        r.lag_max_ms = 0.0;
        r.latencies.truncate(500);
        assert!(!r.passes(0.99, 50.0, 20.0), "500 samples cannot back p99");
    }

    #[test]
    fn knee_interpolates_the_crossing() {
        // ln-latency rises from ln 5 to ln 500 between 300 and 400 rps:
        // the limit ln 50 sits halfway, at 350 rps.
        let rungs = vec![
            rung(100.0, 5.0),
            rung(200.0, 5.0),
            rung(300.0, 5.0),
            rung(400.0, 500.0),
        ];
        let knee = knee_rps(&rungs, 0.99, 50.0, 20.0).expect("crosses");
        assert!((knee - 350.0).abs() < 1e-6, "{knee}");
    }

    #[test]
    fn knee_pools_a_lucky_rung_with_its_neighbours() {
        // 300 rps failed, 400 rps passed by luck, 500 rps failed: the fit
        // pools 300-400, so the knee falls between 200 and 300, not at 400.
        let mut rungs: Vec<Rung> = [100.0, 200.0, 300.0, 400.0, 500.0]
            .iter()
            .map(|&r| rung(r, 5.0))
            .collect();
        rungs[2].failed = 3;
        rungs[3].latencies = vec![10.0; 2000];
        rungs[4].failed = 3;
        let knee = knee_rps(&rungs, 0.99, 50.0, 20.0).expect("crosses");
        assert!(knee > 200.0 && knee < 300.0, "{knee}");
        // With no failure the ladder never reaches the knee.
        let clean: Vec<Rung> = [100.0, 200.0].iter().map(|&r| rung(r, 5.0)).collect();
        assert_eq!(knee_rps(&clean, 0.99, 50.0, 20.0), Some(200.0));
        // A first rung over the limit leaves the knee undefined.
        let over = vec![rung(100.0, 80.0), rung(200.0, 90.0)];
        assert_eq!(knee_rps(&over, 0.99, 50.0, 20.0), None);
    }
}
