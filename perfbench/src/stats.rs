//! The benchmark's own statistics: percentiles with their sample support,
//! SLO accounting for served requests, open-loop lateness and the
//! `serve_max_ok_qps` ladder rule. Pure functions, unit-tested below.

use fast_telemetry::LatencyHistogram;

/// Nearest-rank percentile (`p` in `(0, 1]`) of ascending `sorted` samples:
/// the smallest sample with at least `p × n` samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Tail percentiles the benchmark reports, in ascending order.
pub const TAILS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The highest of [`TAILS`] that has at least ten samples beyond it in a
/// sample of `n`, or `None` when not even the median has.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of unsorted values (the lower one of the middle two for even
/// counts; `None` if empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Sorts a sample in place (total order) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Lower bound and width of bucket `idx` of a telemetry
/// [`LatencyHistogram`]: 16 exact buckets below 16 ns, then 8 equal
/// sub-buckets per power of two.
fn bucket_range(idx: usize) -> (f64, f64) {
    if idx < 16 {
        return (idx as f64, 1.0);
    }
    let b = 4 + (idx - 16) / 8;
    let sub = ((idx - 16) % 8) as u64;
    let width = 1u64 << (b - 3);
    (((1u64 << b) + sub * width) as f64, width as f64)
}

/// The `p` percentile of a server-side histogram in microseconds,
/// interpolated linearly inside the bucket the rank falls in (0 if the
/// histogram is empty). The histogram's own percentile is the bucket's
/// midpoint, which repeats exactly from run to run.
pub fn hist_percentile_us(h: &LatencyHistogram, p: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let rank = (p * total as f64).ceil().clamp(1.0, total as f64);
    let mut seen = 0.0f64;
    for (idx, c) in h.nonzero_buckets() {
        let c = c as f64;
        if seen + c >= rank {
            let (lo, width) = bucket_range(idx);
            return (lo + width * (rank - seen) / c) / 1e3;
        }
        seen += c;
    }
    0.0
}

/// How one open-loop request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Answered with a tensor equal to its reference output; the latency
    /// is measured from the scheduled arrival, in nanoseconds.
    Served(u64),
    /// Shed at admission by the server's deadline estimate.
    Shed,
    /// Dropped at dispatch after its deadline expired in the queue.
    Missed,
    /// Failed: a server error, or a response that differs from the
    /// reference output.
    Failed,
}

/// Per-rung tallies of an open-loop run against a latency SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTally {
    /// Requests submitted.
    pub submitted: usize,
    /// Requests served within the SLO (the only ones that count as good).
    pub ok_within_slo: usize,
    /// Requests served, but later than the SLO.
    pub served_late: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests dropped at dispatch with an expired deadline.
    pub missed: usize,
    /// Failed requests (errors or wrong outputs).
    pub failed: usize,
    /// Latencies of served requests (ns from scheduled arrival), ascending.
    pub served_ns: Vec<f64>,
}

impl SloTally {
    /// Tallies `fates` against `slo_ns`. A shed, missed or failed request
    /// counts as missing the SLO exactly like a late one.
    pub fn from_fates(fates: &[Fate], slo_ns: u64) -> Self {
        let mut t = SloTally {
            submitted: fates.len(),
            ok_within_slo: 0,
            served_late: 0,
            shed: 0,
            missed: 0,
            failed: 0,
            served_ns: Vec::with_capacity(fates.len()),
        };
        for fate in fates {
            match *fate {
                Fate::Served(ns) => {
                    if ns <= slo_ns {
                        t.ok_within_slo += 1;
                    } else {
                        t.served_late += 1;
                    }
                    t.served_ns.push(ns as f64);
                }
                Fate::Shed => t.shed += 1,
                Fate::Missed => t.missed += 1,
                Fate::Failed => t.failed += 1,
            }
        }
        t.served_ns.sort_by(f64::total_cmp);
        t
    }

    /// Share of submitted requests served within the SLO.
    pub fn useful_frac(&self) -> f64 {
        frac(self.ok_within_slo, self.submitted)
    }

    /// Share of submitted requests shed at admission.
    pub fn shed_frac(&self) -> f64 {
        frac(self.shed, self.submitted)
    }

    /// Share of submitted requests dropped with an expired deadline.
    pub fn missed_frac(&self) -> f64 {
        frac(self.missed, self.submitted)
    }

    /// Good responses per second over a window of `window_s` seconds.
    pub fn goodput(&self, window_s: f64) -> f64 {
        self.ok_within_slo as f64 / window_s
    }

    /// Nearest-rank percentile over *all submitted* requests, where a shed,
    /// missed or failed request counts as an infinitely late one. `None`
    /// when the percentile falls on such a request (or nothing was
    /// submitted).
    pub fn percentile_all_ns(&self, p: f64) -> Option<f64> {
        if self.submitted == 0 {
            return None;
        }
        let rank = ((p * self.submitted as f64).ceil() as usize).clamp(1, self.submitted);
        self.served_ns.get(rank - 1).copied()
    }

    /// Whether the rung meets the SLO: its p99 over all submitted requests
    /// is within `slo_ns` and at least 99% of them were served within it.
    pub fn meets_slo(&self, slo_ns: u64) -> bool {
        let p99_ok = self
            .percentile_all_ns(0.99)
            .is_some_and(|ns| ns <= slo_ns as f64);
        p99_ok && self.useful_frac() >= 0.99
    }
}

fn frac(n: usize, of: usize) -> f64 {
    if of == 0 {
        0.0
    } else {
        n as f64 / of as f64
    }
}

/// One open-loop request's timing, all as nanosecond offsets from the start
/// of its rung: when it was due, when the generator actually submitted it
/// and when the server resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalTiming {
    /// Scheduled arrival.
    pub scheduled_ns: u64,
    /// When `submit_request` was entered.
    pub submitted_ns: u64,
    /// Worker-stamped completion.
    pub finished_ns: u64,
}

impl ArrivalTiming {
    /// Latency charged to the request: from its *scheduled* arrival, so a
    /// generator stall is charged to every request it delayed.
    pub fn latency_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.scheduled_ns)
    }

    /// How late the generator submitted the request.
    pub fn generator_lag_ns(&self) -> u64 {
        self.submitted_ns.saturating_sub(self.scheduled_ns)
    }
}

/// A rung's requests split by scheduled arrival into equal sub-windows,
/// each tallied on its own. A rung's latency percentiles, goodput and SLO
/// verdict are medians over its windows, so one stall of the shared
/// machine moves at most one window.
#[derive(Debug, Clone, PartialEq)]
pub struct Windows {
    /// Per-window tallies, in time order.
    pub tallies: Vec<SloTally>,
    /// Length of one window in seconds.
    pub window_s: f64,
}

impl Windows {
    /// Splits `(scheduled_ns, fate)` pairs of a rung lasting `duration_ns`
    /// into `k` windows and tallies each against `slo_ns`.
    pub fn split(requests: &[(u64, Fate)], duration_ns: u64, k: usize, slo_ns: u64) -> Self {
        let mut buckets: Vec<Vec<Fate>> = vec![Vec::new(); k];
        let width = duration_ns.div_ceil(k as u64).max(1);
        for &(at, fate) in requests {
            let w = ((at / width) as usize).min(k - 1);
            buckets[w].push(fate);
        }
        Windows {
            tallies: buckets
                .iter()
                .map(|b| SloTally::from_fates(b, slo_ns))
                .collect(),
            window_s: width as f64 / 1e9,
        }
    }

    /// Median over windows of each window's served-latency percentile.
    pub fn median_percentile_ns(&self, p: f64) -> Option<f64> {
        let per: Vec<f64> = self
            .tallies
            .iter()
            .filter_map(|t| percentile(&t.served_ns, p))
            .collect();
        median(&per)
    }

    /// Median over windows of good responses per second.
    pub fn median_goodput(&self) -> Option<f64> {
        let per: Vec<f64> = self
            .tallies
            .iter()
            .map(|t| t.goodput(self.window_s))
            .collect();
        median(&per)
    }

    /// Whether a strict majority of windows meets the SLO.
    pub fn meets_slo(&self, slo_ns: u64) -> bool {
        let ok = self.tallies.iter().filter(|t| t.meets_slo(slo_ns)).count();
        2 * ok > self.tallies.len()
    }
}

/// One rung of the offered-rate ladder, as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// The offered rate named in the ladder (requests/s).
    pub offered_qps: f64,
    /// Requests submitted over the rung's arrival window, per second.
    pub achieved_qps: f64,
    /// Whether the rung met the SLO ([`Windows::meets_slo`]).
    pub meets_slo: bool,
}

/// `serve_max_ok_qps`: the achieved rate of the highest-offered rung that
/// meets the SLO, or `None` if no rung does.
pub fn max_ok_qps(rungs: &[Rung]) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.meets_slo)
        .max_by(|a, b| a.offered_qps.total_cmp(&b.offered_qps))
        .map(|r| r.achieved_qps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_the_highest_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(highest_supported_tail(100), Some(0.9));
        // 99 samples: p90 is rank 90, leaving 9 — only the median holds.
        assert_eq!(highest_supported_tail(99), Some(0.5));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(highest_supported_tail(19), None);
        assert_eq!(highest_supported_tail(20), Some(0.5));
    }

    #[test]
    fn shed_missed_and_failed_miss_the_slo_and_cut_goodput() {
        let slo = 1_000;
        let fates = [
            Fate::Served(500),
            Fate::Served(1_000),
            Fate::Served(1_001),
            Fate::Shed,
            Fate::Missed,
            Fate::Failed,
        ];
        let t = SloTally::from_fates(&fates, slo);
        assert_eq!(t.submitted, 6);
        assert_eq!(t.ok_within_slo, 2);
        assert_eq!(t.served_late, 1);
        assert_eq!((t.shed, t.missed, t.failed), (1, 1, 1));
        assert_eq!(t.useful_frac(), 2.0 / 6.0);
        assert_eq!(t.goodput(2.0), 1.0);
        // Only the two in-SLO responses count, whatever else was served.
        let all_ok = SloTally::from_fates(&[Fate::Served(1); 6], slo);
        assert!(t.goodput(2.0) < all_ok.goodput(2.0));
        // Over all submitted requests the unanswered ones are infinitely
        // late: p50 lands on a served one, p99 does not exist.
        assert_eq!(t.percentile_all_ns(0.5), Some(1_001.0));
        assert_eq!(t.percentile_all_ns(0.99), None);
        assert!(!t.meets_slo(slo));
    }

    #[test]
    fn one_shed_request_in_a_hundred_still_meets_but_two_do_not() {
        let slo = 1_000;
        let mut fates = vec![Fate::Served(10); 99];
        fates.push(Fate::Shed);
        assert!(SloTally::from_fates(&fates, slo).meets_slo(slo));
        fates[0] = Fate::Missed;
        assert!(!SloTally::from_fates(&fates, slo).meets_slo(slo));
    }

    #[test]
    fn latency_counts_from_the_scheduled_arrival() {
        // Due at 1 ms, submitted 3 ms late because the generator stalled,
        // answered 0.5 ms after submission.
        let t = ArrivalTiming {
            scheduled_ns: 1_000_000,
            submitted_ns: 4_000_000,
            finished_ns: 4_500_000,
        };
        assert_eq!(t.generator_lag_ns(), 3_000_000);
        assert_eq!(t.latency_ns(), 3_500_000);
        // An on-time request is charged only its service.
        let on_time = ArrivalTiming {
            scheduled_ns: 1_000_000,
            submitted_ns: 1_000_000,
            finished_ns: 1_500_000,
        };
        assert_eq!(on_time.generator_lag_ns(), 0);
        assert_eq!(on_time.latency_ns(), 500_000);
    }

    #[test]
    fn max_ok_qps_takes_the_highest_passing_rung() {
        let rung = |offered: f64, meets: bool| Rung {
            offered_qps: offered,
            achieved_qps: offered * 1.01,
            meets_slo: meets,
        };
        let ladder = [
            rung(1_000.0, true),
            rung(4_000.0, true),
            rung(12_000.0, false),
            rung(36_000.0, false),
        ];
        assert_eq!(max_ok_qps(&ladder), Some(4_040.0));
        // A noisy failure below a passing rung does not cap the answer.
        let bumpy = [
            rung(1_000.0, true),
            rung(4_000.0, false),
            rung(12_000.0, true),
            rung(36_000.0, false),
        ];
        assert_eq!(max_ok_qps(&bumpy), Some(12_120.0));
        assert_eq!(max_ok_qps(&[rung(1_000.0, false)]), None);
        assert_eq!(max_ok_qps(&[]), None);
    }

    #[test]
    fn windows_split_by_scheduled_arrival_and_take_medians() {
        let slo = 1_000;
        // Five 100 ns windows; the second one stalls: everything late.
        let mut reqs = Vec::new();
        for w in 0..5u64 {
            for i in 0..100u64 {
                let at = w * 100 + i;
                let ns = if w == 1 { 5_000 } else { 10 + i };
                reqs.push((at, Fate::Served(ns)));
            }
        }
        let win = Windows::split(&reqs, 500, 5, slo);
        assert_eq!(win.tallies.len(), 5);
        assert!(win.tallies.iter().all(|t| t.submitted == 100));
        assert!(!win.tallies[1].meets_slo(slo));
        // One stalled window neither fails the rung nor moves the medians.
        assert!(win.meets_slo(slo));
        assert_eq!(win.median_percentile_ns(0.99), Some(108.0));
        assert_eq!(win.median_goodput(), Some(100.0 / 100e-9));
        // Three stalled windows out of five do fail it.
        let bad: Vec<(u64, Fate)> = reqs
            .iter()
            .map(|&(at, f)| {
                if (200..400).contains(&at) {
                    (at, Fate::Shed)
                } else {
                    (at, f)
                }
            })
            .collect();
        assert!(!Windows::split(&bad, 500, 5, slo).meets_slo(slo));
    }

    #[test]
    fn histogram_percentiles_interpolate_inside_the_right_bucket() {
        for v in [
            3u64, 15, 16, 17, 100, 1_000, 1_023, 1_024, 123_456, 9_999_999,
        ] {
            let mut h = LatencyHistogram::default();
            h.record(v);
            let (lo, width) = bucket_range(
                (0..496)
                    .find(|&i| {
                        let (lo, w) = bucket_range(i);
                        lo <= v as f64 && (v as f64) < lo + w
                    })
                    .expect("a bucket holds every value"),
            );
            assert_eq!(h.nonzero_buckets().count(), 1);
            let got = hist_percentile_us(&h, 1.0) * 1e3;
            assert!(
                lo <= got && got <= lo + width,
                "{v}: {got} not in [{lo}, {})",
                lo + width
            );
            // The histogram files the value in the bucket the layout names.
            let idx = h.nonzero_buckets().next().unwrap().0;
            assert_eq!(bucket_range(idx), (lo, width), "{v}");
        }
        let mut h = LatencyHistogram::default();
        for v in 1_000..1_100u64 {
            h.record(v);
        }
        let p50 = hist_percentile_us(&h, 0.5) * 1e3;
        assert!((1_000.0..=1_100.0).contains(&p50), "{p50}");
        assert_eq!(hist_percentile_us(&LatencyHistogram::default(), 0.5), 0.0);
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
