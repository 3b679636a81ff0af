//! Latency recording: a mergeable log-bucket histogram, the "ten samples
//! beyond" percentile rule, per-window series, and the small order
//! statistics (median, quartiles) every reported figure goes through.

/// Values below this are counted exactly, one bucket each.
const LINEAR: u64 = 128;
/// Sub-buckets per octave above the linear range: relative width 1/128.
const SUB_BITS: u32 = 7;
/// Values are clamped to 2^40 ns (18 minutes) — far past any deadline.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = LINEAR as usize + ((MAX_EXP - SUB_BITS) as usize) * (1 << SUB_BITS);

/// A histogram of nanosecond values with at most 0.8% relative bucket
/// width. Recording is an index computation and an add; two histograms
/// merge by adding counts.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(value: u64) -> usize {
    if value < LINEAR {
        return value as usize;
    }
    let value = value.min((1u64 << MAX_EXP) - 1);
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS
    let sub = (value >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    LINEAR as usize + ((exp - SUB_BITS) as usize) * (1 << SUB_BITS) + sub as usize
}

/// The midpoint of bucket `index`'s value range.
fn value_of(index: usize) -> f64 {
    if index < LINEAR as usize {
        return index as f64;
    }
    let above = index - LINEAR as usize;
    let exp = (above >> SUB_BITS) as u32 + SUB_BITS;
    let sub = (above & ((1 << SUB_BITS) - 1)) as u64;
    let low = (1u64 << exp) + (sub << (exp - SUB_BITS));
    let width = 1u64 << (exp - SUB_BITS);
    low as f64 + (width as f64 - 1.0) / 2.0
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The value at quantile `q` in `[0, 1]` (nearest rank), or `None`
    /// when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((self.total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count as u64;
            if seen > rank {
                return Some(value_of(index));
            }
        }
        Some(value_of(BUCKETS - 1))
    }

    /// Share of recorded values strictly above `nanos` (to bucket
    /// resolution).
    pub fn share_above(&self, nanos: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let above: u64 = self.counts[bucket_of(nanos) + 1..]
            .iter()
            .map(|&c| c as u64)
            .sum();
        above as f64 / self.total as f64
    }
}

/// The percentile ladder the benchmark reports from.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest quantile of the ladder with at least ten samples beyond it
/// among `samples`: 0.99 needs 1 000 samples, 0.999 needs 10 000. Fewer
/// than 20 samples support only the median.
pub fn highest_supported_quantile(samples: u64) -> f64 {
    let mut best = LADDER[0];
    for &q in &LADDER[1..] {
        // Tolerance: 1 - 0.99 is not exactly 0.01 in binary.
        if samples as f64 * (1.0 - q) >= 10.0 - 1e-6 {
            best = q;
        }
    }
    best
}

/// `quantile` capped by the ten-samples-beyond rule. Returns the quantile
/// actually used beside the value.
pub fn supported_quantile(hist: &Histogram, wanted: f64) -> Option<(f64, f64)> {
    let q = wanted.min(highest_supported_quantile(hist.len()));
    hist.quantile(q).map(|value| (q, value))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Events and latencies bucketed into fixed windows of a phase, so a burst
/// from a noisy neighbour costs one window and not the run.
pub struct WindowSeries {
    window_nanos: u64,
    windows: Vec<Window>,
}

#[derive(Default, Clone)]
struct Window {
    events: u64,
    latencies: Histogram,
}

impl WindowSeries {
    pub fn new(window_nanos: u64) -> WindowSeries {
        assert!(window_nanos > 0);
        WindowSeries {
            window_nanos,
            windows: Vec::new(),
        }
    }

    /// Record `events` completions at `at_nanos` since the phase began,
    /// one of which took `latency_nanos`.
    pub fn record(&mut self, at_nanos: u64, events: u64, latency_nanos: u64) {
        let index = (at_nanos / self.window_nanos) as usize;
        if index >= self.windows.len() {
            self.windows.resize_with(index + 1, Window::default);
        }
        let window = &mut self.windows[index];
        window.events += events;
        window.latencies.record(latency_nanos);
    }

    pub fn merge(&mut self, other: &WindowSeries) {
        assert_eq!(self.window_nanos, other.window_nanos);
        if other.windows.len() > self.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.events += theirs.events;
            mine.latencies.merge(&theirs.latencies);
        }
    }

    /// Windows that lie wholly inside a phase of `phase_nanos`.
    fn complete(&self, phase_nanos: u64) -> &[Window] {
        let whole = (phase_nanos / self.window_nanos) as usize;
        &self.windows[..whole.min(self.windows.len())]
    }

    /// Events per second of each complete window.
    pub fn rates(&self, phase_nanos: u64) -> Vec<f64> {
        let per_second = 1e9 / self.window_nanos as f64;
        self.complete(phase_nanos)
            .iter()
            .map(|w| w.events as f64 * per_second)
            .collect()
    }

    /// Each complete window's quantile `wanted`, capped per window by the
    /// ten-samples-beyond rule. Returns the lowest quantile any window had
    /// to fall back to beside the values.
    pub fn quantiles(&self, phase_nanos: u64, wanted: f64) -> (f64, Vec<f64>) {
        let mut used = wanted;
        let mut values = Vec::new();
        for window in self.complete(phase_nanos) {
            if let Some((q, value)) = supported_quantile(&window.latencies, wanted) {
                used = used.min(q);
                values.push(value);
            }
        }
        (used, values)
    }

    /// Every latency of every window, complete or not.
    pub fn all_latencies(&self) -> Histogram {
        let mut all = Histogram::new();
        for window in &self.windows {
            all.merge(&window.latencies);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
    }

    #[test]
    fn quantiles_are_within_one_percent_of_exact() {
        let mut rng = Rng::new(11);
        // Uniform, exponential-ish and heavy-tailed: three known shapes.
        let shapes: [fn(&mut Rng) -> u64; 3] = [
            |r| 1_000 + r.below(1_000_000),
            |r| (-(1.0 - r.unit()).ln() * 250_000.0) as u64 + 200,
            |r| (50_000.0 / (1.0 - r.unit()).powf(0.7)) as u64,
        ];
        for shape in &shapes {
            let mut hist = Histogram::new();
            let mut exact = Vec::new();
            for _ in 0..200_000 {
                let v = shape(&mut rng);
                hist.record(v);
                exact.push(v);
            }
            exact.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let want = exact_quantile(&exact, q);
                let got = hist.quantile(q).unwrap();
                assert!(
                    (got - want).abs() <= want * 0.01,
                    "q={q}: histogram {got} vs exact {want}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut hist = Histogram::new();
        for v in 0..100u64 {
            hist.record(v);
        }
        assert_eq!(hist.quantile(0.0), Some(0.0));
        assert_eq!(hist.quantile(1.0), Some(99.0));
        assert_eq!(hist.quantile(0.5), Some(50.0));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut rng = Rng::new(5);
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for i in 0..50_000 {
            let v = 100 + rng.below(10_000_000);
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.len(), whole.len());
        for q in [0.1, 0.5, 0.99, 0.9999] {
            assert_eq!(left.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_quantile(5), 0.5);
        assert_eq!(highest_supported_quantile(20), 0.5);
        assert_eq!(highest_supported_quantile(99), 0.5);
        assert_eq!(highest_supported_quantile(100), 0.9);
        assert_eq!(highest_supported_quantile(999), 0.9);
        assert_eq!(highest_supported_quantile(1_000), 0.99);
        assert_eq!(highest_supported_quantile(9_999), 0.99);
        assert_eq!(highest_supported_quantile(10_000), 0.999);
        assert_eq!(highest_supported_quantile(100_000), 0.9999);
        let mut hist = Histogram::new();
        for v in 0..500u64 {
            hist.record(v * 1_000);
        }
        // 500 samples cannot carry a p99: the rule falls back to p90.
        let (q, _) = supported_quantile(&hist, 0.99).unwrap();
        assert_eq!(q, 0.9);
    }

    #[test]
    fn window_medians_ignore_a_slow_window() {
        let window = 1_000_000_000u64;
        let mut series = WindowSeries::new(window);
        for w in 0..7u64 {
            // Window 3 is disturbed: a tenth of the events, 50x the latency.
            let (events, latency) = if w == 3 {
                (100, 5_000_000)
            } else {
                (1_000, 100_000)
            };
            for e in 0..events {
                series.record(w * window + e * 1_000, 1, latency);
            }
        }
        // A trailing partial window must not count either.
        series.record(7 * window + 10, 1, 100_000);
        let phase = 7 * window + window / 2;
        let rates = series.rates(phase);
        assert_eq!(rates.len(), 7);
        assert_eq!(median(&rates), Some(1_000.0));
        let (used, p50s) = series.quantiles(phase, 0.5);
        assert_eq!(used, 0.5);
        let p50 = median(&p50s).unwrap();
        assert!((p50 - 100_000.0).abs() < 1_000.0, "p50 {p50}");
        let mean = rates.iter().sum::<f64>() / 7.0;
        assert!(mean < 1_000.0 * 0.9, "the mean would have moved: {mean}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }
}
