//! Order statistics. Percentiles of a slice are computed from its full
//! sample vector, so a reported value is one the benchmark measured (or,
//! for quartiles, the interpolation Python's `statistics.quantiles`
//! defines). Percentiles of a whole window come from [`LatHist`], whose
//! memory is fixed, so the benchmark's own footprint does not grow with
//! the program's throughput.

use std::time::{Duration, Instant};

use crate::host;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` of all samples at or below it. `p` in `(0, 1]`.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median: the middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the benchmark's
/// run-to-run spread is judged by. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// `a / b`, or 0 when there is nothing to divide by (a layer the
/// workload never exercised reads 0, never NaN).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nanosecond samples to sorted microseconds.
pub fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Order statistics of one slice of a timed window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SliceStat {
    /// Samples that completed in the slice.
    pub count: u64,
    /// Their latency p50, µs. An empty slice reads the slice length:
    /// whatever was in flight waited at least that long.
    pub p50_us: f64,
    /// Their latency p99, µs (same rule for an empty slice).
    pub p99_us: f64,
    /// Share of the host's CPU time the hypervisor gave to other tenants
    /// while the slice was open (0 where the kernel does not report it).
    pub steal: f64,
}

/// Steal share below which a slice counts as quiet. `/proc/stat`
/// counts steal in 10 ms ticks, so a quiet 2 s slice on two CPUs reads
/// 0 to 2 ticks (up to 0.5%).
pub const QUIET_STEAL: f64 = 0.01;

/// The slices a window's medians are taken over: those whose steal is
/// at most [`QUIET_STEAL`] or at most the median slice's, so at least
/// half of them and, in a quiet run, all of them. A burst of steal
/// delays whatever is in flight on the host, whatever the program does;
/// choosing slices by the host's own count, never by their latency,
/// keeps a stall of the program in the medians.
pub fn least_stolen(slices: &[SliceStat]) -> Vec<SliceStat> {
    let steal: Vec<f64> = slices.iter().map(|s| s.steal).collect();
    match median(&steal) {
        Some(m) => {
            let limit = m.max(QUIET_STEAL);
            slices
                .iter()
                .copied()
                .filter(|s| s.steal <= limit)
                .collect()
        }
        None => Vec::new(),
    }
}

/// Cuts a window into equal slices as samples stream in, holding only
/// the open slice's samples, so the benchmark's own memory does not
/// grow with the program's throughput.
pub struct Slicer {
    start: Instant,
    slice: Duration,
    n: usize,
    buf: Vec<u64>,
    out: Vec<SliceStat>,
    whole: LatHist,
    /// Host CPU ticks when the open slice began.
    ticks: Option<(u64, u64)>,
}

/// A timed window's latencies: per slice, and over the whole window.
#[derive(Default)]
pub struct Window {
    /// One entry per slice.
    pub slices: Vec<SliceStat>,
    /// Every sample of every slice.
    pub whole: LatHist,
}

impl Slicer {
    /// Slices of `slice` covering `window` from `start` (a trailing
    /// partial slice is dropped).
    pub fn new(start: Instant, slice: Duration, window: Duration) -> Slicer {
        Slicer {
            start,
            slice,
            n: (window.as_nanos() / slice.as_nanos()).max(1) as usize,
            buf: Vec::new(),
            out: Vec::new(),
            whole: LatHist::default(),
            ticks: host::cpu_ticks(),
        }
    }

    /// Record a sample of latency `lat_ns` that completed at `done`.
    /// Samples arrive in completion order; one that arrives after a
    /// later slice was opened counts toward the open slice. Samples past
    /// the last whole slice are ignored.
    pub fn add(&mut self, done: Instant, lat_ns: u64) {
        let k = (done.saturating_duration_since(self.start).as_nanos() / self.slice.as_nanos())
            as usize;
        while self.out.len() < k.min(self.n) {
            self.close();
        }
        if k < self.n {
            self.buf.push(lat_ns);
            self.whole.add(lat_ns);
        }
    }

    fn close(&mut self) {
        let us = sorted_us(&self.buf);
        let empty = self.slice.as_nanos() as f64 / 1e3;
        let ticks = host::cpu_ticks();
        self.out.push(SliceStat {
            count: us.len() as u64,
            p50_us: percentile(&us, 0.5).unwrap_or(empty),
            p99_us: percentile(&us, 0.99).unwrap_or(empty),
            steal: host::steal_share(self.ticks, ticks).unwrap_or(0.0),
        });
        self.ticks = ticks;
        self.buf.clear();
    }

    /// Close every remaining slice and return the window.
    pub fn finish(mut self) -> Window {
        while self.out.len() < self.n {
            self.close();
        }
        Window {
            slices: self.out,
            whole: self.whole,
        }
    }
}

/// Sub-buckets per power of two above [`EXACT`]: a bucket's width is at
/// most 1/128 of its lower bound.
const SUB_BITS: u32 = 7;
/// Values below this (ns) each have a bucket of their own.
const EXACT: u64 = 2 << SUB_BITS;
const BUCKETS: usize = EXACT as usize + ((64 - SUB_BITS as usize - 1) << SUB_BITS);

/// A log-linear latency histogram of fixed size (about 60 KiB): exact
/// below 256 ns, within 1/128 of the value above. A percentile is
/// interpolated by rank inside its bucket.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl LatHist {
    /// Bucket of `ns` and the bucket's lower bound and width.
    fn bucket(ns: u64) -> (usize, u64, u64) {
        if ns < EXACT {
            return (ns as usize, ns, 1);
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        let mant = ns >> shift;
        let idx = EXACT as usize
            + (((shift - 1) as usize) << SUB_BITS)
            + (mant as usize - (1 << SUB_BITS));
        (idx, mant << shift, 1 << shift)
    }

    /// Lower bound and width of bucket `idx`.
    fn bounds(idx: usize) -> (u64, u64) {
        if idx < EXACT as usize {
            return (idx as u64, 1);
        }
        let rel = idx - EXACT as usize;
        let shift = (rel >> SUB_BITS) as u32 + 1;
        let mant = (rel & ((1 << SUB_BITS) - 1)) as u64 + (1 << SUB_BITS);
        (mant << shift, 1 << shift)
    }

    /// Record one latency, ns.
    pub fn add(&mut self, ns: u64) {
        self.counts[Self::bucket(ns).0] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `p` in `(0, 1]`, µs: the sample of rank
    /// `ceil(p n)`, placed inside its bucket by its rank there. `None`
    /// when empty.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (lo, width) = Self::bounds(idx);
                let within = (rank - below - 1) as f64 / c as f64;
                return Some((lo as f64 + width as f64 * within) / 1e3);
            }
            below += c;
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.99), Some(10.0));
        assert_eq!(percentile(&v, 0.01), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // 100 samples: p99 is the 99th, not the maximum.
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&h, 0.99), Some(99.0));
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the extremes.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn slicer_splits_by_completion_time() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut s = Slicer::new(t0, ms(10), ms(35));
        for i in 1..=100u64 {
            s.add(t0 + ms(1), i * 1000);
        }
        s.add(t0 + ms(12), 7000);
        // Nothing completes in the third slice; the fourth is partial
        // and dropped, like anything after it.
        s.add(t0 + ms(31), 1);
        let win = s.finish();
        assert_eq!(win.whole.count(), 101);
        let out = win.slices;
        assert_eq!(out.len(), 3);
        assert_eq!(
            (out[0].count, out[0].p50_us, out[0].p99_us),
            (100, 50.0, 99.0)
        );
        assert_eq!((out[1].count, out[1].p50_us, out[1].p99_us), (1, 7.0, 7.0));
        assert_eq!(
            (out[2].count, out[2].p50_us, out[2].p99_us),
            (0, 10_000.0, 10_000.0)
        );
    }

    #[test]
    fn least_stolen_keeps_the_quieter_half_whatever_their_latency() {
        let at = |p99_us, steal| SliceStat {
            count: 1,
            p50_us: 1.0,
            p99_us,
            steal,
        };
        let p99 = |v: Vec<SliceStat>| v.iter().map(|s| s.p99_us).collect::<Vec<_>>();
        // The slowest slice had no steal, so it stays; the stolen ones go.
        let slices = [at(1.0, 0.30), at(900.0, 0.0), at(2.0, 0.05), at(3.0, 0.20)];
        assert_eq!(p99(least_stolen(&slices)), vec![900.0, 2.0]);
        // A quiet run keeps every slice, including those whose steal is
        // above the median but below `QUIET_STEAL`.
        let quiet = [at(1.0, 0.0), at(2.0, 0.0), at(3.0, 0.005), at(4.0, 0.01)];
        assert_eq!(p99(least_stolen(&quiet)), vec![1.0, 2.0, 3.0, 4.0]);
        // Ties at the median all stay.
        let ties = [at(1.0, 0.1), at(2.0, 0.1), at(3.0, 0.1), at(4.0, 0.2)];
        assert_eq!(p99(least_stolen(&ties)), vec![1.0, 2.0, 3.0]);
        assert!(least_stolen(&[]).is_empty());
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        for ns in (0..5000).chain([1 << 20, (1 << 20) + 12_345, u64::MAX / 3, u64::MAX]) {
            let (idx, lo, width) = LatHist::bucket(ns);
            assert!(idx < BUCKETS);
            assert_eq!(LatHist::bounds(idx), (lo, width));
            assert!(lo <= ns && ns - lo < width, "{ns} in [{lo}, +{width})");
            assert!(width == 1 || width * 128 <= lo);
        }
        assert_eq!(LatHist::bucket(EXACT - 1).0 + 1, LatHist::bucket(EXACT).0);
    }

    #[test]
    fn histogram_percentiles_are_exact_below_256_ns_and_close_above() {
        let mut h = LatHist::default();
        assert_eq!(h.percentile_us(0.5), None);
        for ns in 1..=200 {
            h.add(ns);
        }
        assert_eq!(h.count(), 200);
        assert_eq!(h.percentile_us(0.5), Some(0.1));
        assert_eq!(h.percentile_us(0.99), Some(0.198));
        assert_eq!(h.percentile_us(1.0), Some(0.2));
        // 1..=100 µs: p99 is the 99th sample, within 1/128.
        let mut h = LatHist::default();
        for us in 1..=100u64 {
            h.add(us * 1000);
        }
        let p99 = h.percentile_us(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 99.0 / 128.0, "{p99}");
        // One slow sample in a hundred moves the p99 not at all; two do.
        let mut h = LatHist::default();
        for _ in 0..98 {
            h.add(10_000);
        }
        h.add(5_000_000);
        h.add(10_000);
        assert!(h.percentile_us(0.99).unwrap() < 10.1);
        h.add(5_000_000);
        assert!(h.percentile_us(0.99).unwrap() > 4900.0);
    }

    #[test]
    fn ratio_never_divides_by_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
