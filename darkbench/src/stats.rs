//! Order statistics over latency samples in which failed operations count
//! as misses, and the sliced window every run files its observations in.

/// A percentile that lands on a failed, rejected or mismatched operation
/// has no finite value; it is reported as this many milliseconds.
pub const MISS_MS: f64 = 1e9;

/// Latency samples in milliseconds. A failure is an infinitely late
/// sample: it sorts above every measured one.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    samples: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    pub fn fail(&mut self) {
        self.samples.push(f64::INFINITY);
    }

    /// Operations behind every percentile, failures included.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Nearest-rank percentile, `q` in (0, 1]; infinite when it reaches a
    /// failure or there are no operations.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return f64::INFINITY;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank - 1]
    }
}

/// `ms`, or [`MISS_MS`] when it is a miss.
pub fn reported(ms: f64) -> f64 {
    if ms.is_finite() {
        ms
    } else {
        MISS_MS
    }
}

/// Length of the slices a run's latency samples are filed by.
pub const SLICE_NS: u64 = 1_000_000_000;

/// Slices with fewer latency samples than this do not get a percentile of
/// their own.
const MIN_SLICE_SAMPLES: usize = 20;

/// Which latency a sample measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A 10-frame chunk: available to the program → words cover it.
    Partial,
    /// An utterance: last frame available → final words.
    Final,
}

#[derive(Clone, Debug, Default)]
struct Slice {
    partial: Latencies,
    final_: Latencies,
}

impl Slice {
    fn latencies(&self, kind: Kind) -> &Latencies {
        match kind {
            Kind::Partial => &self.partial,
            Kind::Final => &self.final_,
        }
    }

    fn latencies_mut(&mut self, kind: Kind) -> &mut Latencies {
        match kind {
            Kind::Partial => &mut self.partial,
            Kind::Final => &mut self.final_,
        }
    }
}

/// A run's work and its latency samples, the samples filed by the
/// [`SLICE_NS`] slice in which they were observed. A latency percentile
/// is a miss when the run's failures, pooled, reach its rank; otherwise it
/// is the median over slices of each slice's percentile, so a stall
/// confined to one second of the run moves it little.
#[derive(Clone, Debug, Default)]
pub struct Window {
    start_ns: u64,
    frames: u64,
    busy_ns: u64,
    slices: Vec<Slice>,
}

impl Window {
    pub fn new(start_ns: u64) -> Self {
        Self {
            start_ns,
            ..Self::default()
        }
    }

    fn slice(&mut self, at_ns: u64) -> &mut Slice {
        let i = (at_ns.saturating_sub(self.start_ns) / SLICE_NS) as usize;
        if self.slices.len() <= i {
            self.slices.resize_with(i + 1, Slice::default);
        }
        &mut self.slices[i]
    }

    /// `frames` decoded by a call that took `busy_ns`.
    pub fn work(&mut self, frames: u64, busy_ns: u64) {
        self.frames += frames;
        self.busy_ns += busy_ns;
    }

    /// A latency observed at `at_ns`.
    pub fn latency(&mut self, kind: Kind, at_ns: u64, ms: f64) {
        self.slice(at_ns).latencies_mut(kind).push(ms);
    }

    /// An operation that failed at `at_ns`: an infinitely late sample.
    pub fn fail(&mut self, kind: Kind, at_ns: u64) {
        self.slice(at_ns).latencies_mut(kind).fail();
    }

    /// Turn every latency sample into a miss (an overloaded run).
    pub fn miss_all(&mut self) {
        for s in &mut self.slices {
            for kind in [Kind::Partial, Kind::Final] {
                let l = s.latencies_mut(kind);
                *l = Latencies {
                    samples: vec![f64::INFINITY; l.count()],
                };
            }
        }
    }

    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Latency samples of `kind`, failures included.
    pub fn samples(&self, kind: Kind) -> usize {
        self.slices.iter().map(|s| s.latencies(kind).count()).sum()
    }

    /// Frames per second spent inside the program's calls.
    pub fn decode_fps(&self) -> f64 {
        ratio(self.frames as f64, self.busy_ns as f64 / 1e9)
    }

    /// The `q`-percentile of `kind`. A miss when the percentile of every
    /// sample pooled lands on a failure; otherwise the median, over slices
    /// with at least `MIN_SLICE_SAMPLES` samples, of each slice's
    /// percentile, or the pooled percentile when no slice has that many.
    pub fn percentile(&self, kind: Kind, q: f64) -> f64 {
        let mut pooled = Latencies::default();
        for s in &self.slices {
            pooled.samples.extend_from_slice(&s.latencies(kind).samples);
        }
        let whole = pooled.percentile(q);
        if whole.is_infinite() {
            return whole;
        }
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.latencies(kind))
            .filter(|l| l.count() >= MIN_SLICE_SAMPLES)
            .map(|l| l.percentile(q))
            .collect();
        if per_slice.is_empty() {
            whole
        } else {
            median(&per_slice)
        }
    }
}

/// Middle value (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a layer the
/// workload never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut l = Latencies::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            l.push(v);
        }
        assert_eq!(l.percentile(0.5), 3.0);
        assert_eq!(l.percentile(0.2), 1.0);
        assert_eq!(l.percentile(1.0), 5.0);
        assert_eq!(l.count(), 5);
    }

    #[test]
    fn failures_count_as_misses() {
        let mut l = Latencies::default();
        for v in 1..=98 {
            l.push(v as f64);
        }
        l.fail();
        l.fail();
        // 100 operations: ranks 99 and 100 are the two failures.
        assert_eq!(l.count(), 100);
        assert_eq!(l.percentile(0.98), 98.0);
        assert!(l.percentile(0.99).is_infinite());
        assert_eq!(reported(l.percentile(0.99)), MISS_MS);
        // Failures move even the median once they are the majority.
        let mut m = Latencies::default();
        m.push(1.0);
        m.fail();
        m.fail();
        assert!(m.percentile(0.5).is_infinite());
    }

    #[test]
    fn no_operations_is_a_miss() {
        assert!(Latencies::default().percentile(0.5).is_infinite());
    }

    #[test]
    fn window_counts_work_and_pools_small_slices() {
        let mut w = Window::new(0);
        let at = |i: u64| i * SLICE_NS + 1;
        w.work(10, 10_000_000);
        w.work(10, 10_000_000);
        assert_eq!(w.frames(), 20);
        assert!((w.decode_fps() - 1000.0).abs() < 1e-6);
        // Too few samples per slice: one pooled percentile.
        w.latency(Kind::Final, at(0), 1.0);
        w.latency(Kind::Final, at(1), 2.0);
        w.latency(Kind::Final, at(2), 4.0);
        w.fail(Kind::Final, at(2));
        assert_eq!(w.samples(Kind::Final), 4);
        assert_eq!(w.percentile(Kind::Final, 0.25), 1.0);
        assert_eq!(w.percentile(Kind::Final, 0.75), 4.0);
        assert!(w.percentile(Kind::Final, 1.0).is_infinite());
        w.miss_all();
        assert_eq!(w.samples(Kind::Final), 4);
        assert!(w.percentile(Kind::Final, 0.25).is_infinite());
    }

    #[test]
    fn latency_percentiles_are_medians_over_slices() {
        let mut w = Window::new(0);
        let at = |i: u64| i * SLICE_NS + 1;
        // Three full slices; slice 1 stalls (every sample 100 ms) and
        // slice 2 lost a session.
        for i in 0..3 {
            for v in 1..=MIN_SLICE_SAMPLES {
                let ms = if i == 1 { 100.0 } else { v as f64 };
                w.latency(Kind::Partial, at(i), ms);
            }
        }
        w.fail(Kind::Partial, at(2));
        // p50 per slice: 10, 100, 11 → median 11.
        assert_eq!(w.percentile(Kind::Partial, 0.5), 11.0);
        // One failure in 61 operations stays below the p90 rank: per
        // slice 18, 100, 19 → median 19.
        assert_eq!(w.percentile(Kind::Partial, 0.9), 19.0);
        // A slice too small for its own percentile is left out.
        w.latency(Kind::Partial, at(3), 1000.0);
        assert_eq!(w.percentile(Kind::Partial, 0.5), 11.0);
    }

    #[test]
    fn failures_in_a_minority_of_slices_still_miss() {
        // Ten slices; the last three fail every operation: 30% of the run.
        let mut w = Window::new(0);
        let at = |i: u64| i * SLICE_NS + 1;
        for i in 0..10 {
            for v in 1..=MIN_SLICE_SAMPLES {
                if i < 7 {
                    w.latency(Kind::Final, at(i), v as f64);
                } else {
                    w.fail(Kind::Final, at(i));
                }
            }
        }
        // Seven of ten slices are clean, so their median alone would be
        // finite at every percentile; pooled, the failures reach p75.
        assert_eq!(w.percentile(Kind::Final, 0.5), 10.0);
        assert_eq!(w.percentile(Kind::Final, 0.7), 14.0);
        assert!(w.percentile(Kind::Final, 0.75).is_infinite());
        assert_eq!(reported(w.percentile(Kind::Final, 0.75)), MISS_MS);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
