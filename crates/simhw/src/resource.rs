//! Serializing resources (device timelines, link timelines).
//!
//! A [`Timeline`] models a resource that executes one occupancy at a time —
//! a device computing or a link carrying a transfer. List-scheduling
//! simulators reserve intervals; the timeline tracks the earliest free time
//! and accumulates busy time for utilization/energy accounting.

use crate::time::{Duration, SimTime};

/// A single-server resource in virtual time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    free_at: SimTime,
    busy: Duration,
    reservations: usize,
}

impl Timeline {
    /// A timeline free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest time a new occupancy can start.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total accumulated busy time.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Number of reservations made.
    pub fn reservations(&self) -> usize {
        self.reservations
    }

    /// Earliest completion if an occupancy of `duration` were requested at
    /// `ready` — without reserving.
    pub fn probe(&self, ready: SimTime, duration: Duration) -> (SimTime, SimTime) {
        let start = ready.max(self.free_at);
        (start, start + duration)
    }

    /// Reserves an occupancy of `duration` not earlier than `ready`.
    /// Returns the `(start, end)` actually granted.
    pub fn reserve(&mut self, ready: SimTime, duration: Duration) -> (SimTime, SimTime) {
        let (start, end) = self.probe(ready, duration);
        self.free_at = end;
        self.busy = self.busy + duration;
        self.reservations += 1;
        (start, end)
    }

    /// Utilization over `[0, horizon]`: busy / horizon (0 when horizon is 0).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.seconds() == 0.0 {
            0.0
        } else {
            (self.busy.seconds() / horizon.seconds()).min(1.0)
        }
    }
}

/// Upper bound on occupancy buckets a [`BucketedTimeline`] keeps; when a
/// reservation would land past the end, the bucket width doubles and
/// adjacent buckets fold together, so memory stays O(1) per link no matter
/// how long the simulated run is.
const MAX_OCCUPANCY_BUCKETS: usize = 256;

/// A [`Timeline`] that additionally tracks *where in virtual time* the
/// busy seconds landed, in fixed-width buckets.
///
/// The plain timeline collapses occupancy to a single scalar, which is
/// fine for end-of-run utilization but useless for million-task runs where
/// recording one trace span per transfer is the memory ceiling. The
/// bucketed variant keeps reserve O(1) amortized (same FIFO horizon rule)
/// while exposing a bounded occupancy profile: bucket width starts at
/// `initial_width` and doubles (folding the histogram) whenever the run
/// outgrows `MAX_OCCUPANCY_BUCKETS` — the same automatic width resizing
/// the calendar event queue applies to its buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketedTimeline {
    inner: Timeline,
    width: f64,
    busy_per_bucket: Vec<f64>,
}

impl Default for BucketedTimeline {
    fn default() -> Self {
        BucketedTimeline::new(1e-3)
    }
}

impl BucketedTimeline {
    /// A free timeline whose occupancy buckets start `initial_width`
    /// seconds wide.
    ///
    /// # Panics
    /// Panics if `initial_width` is not finite and positive.
    pub fn new(initial_width: f64) -> Self {
        assert!(
            initial_width.is_finite() && initial_width > 0.0,
            "bucket width must be finite and positive, got {initial_width}"
        );
        BucketedTimeline {
            inner: Timeline::new(),
            width: initial_width,
            busy_per_bucket: Vec::new(),
        }
    }

    /// Earliest time a new occupancy can start.
    pub fn free_at(&self) -> SimTime {
        self.inner.free_at()
    }

    /// Total accumulated busy time.
    pub fn busy_time(&self) -> Duration {
        self.inner.busy_time()
    }

    /// Number of reservations made.
    pub fn reservations(&self) -> usize {
        self.inner.reservations()
    }

    /// Earliest completion if an occupancy of `duration` were requested at
    /// `ready` — without reserving.
    pub fn probe(&self, ready: SimTime, duration: Duration) -> (SimTime, SimTime) {
        self.inner.probe(ready, duration)
    }

    /// Reserves an occupancy of `duration` not earlier than `ready`,
    /// attributing the busy seconds to the occupancy buckets they fall in.
    /// Returns the `(start, end)` actually granted.
    pub fn reserve(&mut self, ready: SimTime, duration: Duration) -> (SimTime, SimTime) {
        let (start, end) = self.inner.reserve(ready, duration);
        if duration.seconds() > 0.0 {
            while end.seconds() / self.width >= MAX_OCCUPANCY_BUCKETS as f64 {
                self.fold();
            }
            let first = (start.seconds() / self.width) as usize;
            let last = ((end.seconds() / self.width) as usize).min(MAX_OCCUPANCY_BUCKETS - 1);
            if self.busy_per_bucket.len() <= last {
                self.busy_per_bucket.resize(last + 1, 0.0);
            }
            for (b, slot) in self
                .busy_per_bucket
                .iter_mut()
                .enumerate()
                .take(last + 1)
                .skip(first)
            {
                let lo = (b as f64 * self.width).max(start.seconds());
                let hi = ((b + 1) as f64 * self.width).min(end.seconds());
                *slot += (hi - lo).max(0.0);
            }
        }
        (start, end)
    }

    /// Doubles the bucket width, folding adjacent buckets together.
    fn fold(&mut self) {
        self.width *= 2.0;
        let folded: Vec<f64> = self
            .busy_per_bucket
            .chunks(2)
            .map(|pair| pair.iter().sum())
            .collect();
        self.busy_per_bucket = folded;
    }

    /// Current bucket width in seconds.
    pub fn bucket_width(&self) -> f64 {
        self.width
    }

    /// Busy seconds per occupancy bucket (bucket `i` covers virtual time
    /// `[i * width, (i + 1) * width)`).
    pub fn occupancy(&self) -> &[f64] {
        &self.busy_per_bucket
    }

    /// Peak single-bucket occupancy as a fraction of the bucket width —
    /// 1.0 means some window of the run kept the resource saturated.
    pub fn peak_occupancy(&self) -> f64 {
        self.busy_per_bucket
            .iter()
            .fold(0.0f64, |acc, &b| acc.max(b / self.width))
            .min(1.0)
    }

    /// Utilization over `[0, horizon]`: busy / horizon (0 when horizon is 0).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.inner.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_occupancies() {
        let mut t = Timeline::new();
        let (s1, e1) = t.reserve(SimTime::ZERO, Duration::new(2.0));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1.seconds(), 2.0);
        // Second request at t=1 must wait until 2.
        let (s2, e2) = t.reserve(SimTime::new(1.0), Duration::new(1.0));
        assert_eq!(s2.seconds(), 2.0);
        assert_eq!(e2.seconds(), 3.0);
        assert_eq!(t.reservations(), 2);
    }

    #[test]
    fn respects_ready_time_gaps() {
        let mut t = Timeline::new();
        t.reserve(SimTime::ZERO, Duration::new(1.0));
        // Ready long after the resource is free: starts at ready.
        let (s, _) = t.reserve(SimTime::new(10.0), Duration::new(1.0));
        assert_eq!(s.seconds(), 10.0);
        // Busy time counts only occupancy, not gaps.
        assert_eq!(t.busy_time().seconds(), 2.0);
    }

    #[test]
    fn probe_does_not_reserve() {
        let t = Timeline::new();
        let (s, e) = t.probe(SimTime::new(5.0), Duration::new(1.0));
        assert_eq!(s.seconds(), 5.0);
        assert_eq!(e.seconds(), 6.0);
        assert_eq!(t.free_at(), SimTime::ZERO);
        assert_eq!(t.reservations(), 0);
        let _ = (s, e);
    }

    #[test]
    fn utilization() {
        let mut t = Timeline::new();
        t.reserve(SimTime::ZERO, Duration::new(2.0));
        assert_eq!(t.utilization(SimTime::new(4.0)), 0.5);
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
        // Clamped at 1 even if horizon < busy (caller picked a bad horizon).
        assert_eq!(t.utilization(SimTime::new(1.0)), 1.0);
    }

    #[test]
    fn zero_duration_reservations() {
        let mut t = Timeline::new();
        let (s, e) = t.reserve(SimTime::new(1.0), Duration::ZERO);
        assert_eq!(s, e);
        assert_eq!(t.busy_time(), Duration::ZERO);
    }

    #[test]
    fn bucketed_matches_scalar_horizon() {
        let mut plain = Timeline::new();
        let mut bucketed = BucketedTimeline::new(0.5);
        for (ready, dur) in [(0.0, 2.0), (1.0, 1.0), (10.0, 0.25)] {
            let a = plain.reserve(SimTime::new(ready), Duration::new(dur));
            let b = bucketed.reserve(SimTime::new(ready), Duration::new(dur));
            assert_eq!(a, b);
        }
        assert_eq!(plain.free_at(), bucketed.free_at());
        assert_eq!(plain.busy_time(), bucketed.busy_time());
        assert_eq!(plain.reservations(), bucketed.reservations());
        // All busy seconds are accounted for in the buckets.
        let total: f64 = bucketed.occupancy().iter().sum();
        assert!((total - bucketed.busy_time().seconds()).abs() < 1e-9);
    }

    #[test]
    fn bucketed_occupancy_lands_in_the_right_windows() {
        let mut t = BucketedTimeline::new(1.0);
        t.reserve(SimTime::new(0.5), Duration::new(1.0)); // spans buckets 0 and 1
        let occ = t.occupancy();
        assert!((occ[0] - 0.5).abs() < 1e-9);
        assert!((occ[1] - 0.5).abs() < 1e-9);
        assert!((t.peak_occupancy() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bucketed_width_doubles_instead_of_growing_unbounded() {
        let mut t = BucketedTimeline::new(1e-3);
        // A reservation far past the initial 256-bucket horizon forces
        // repeated folds; memory stays bounded and busy time is exact.
        t.reserve(SimTime::new(100.0), Duration::new(3.0));
        assert!(t.occupancy().len() <= MAX_OCCUPANCY_BUCKETS);
        assert!(t.bucket_width() > 1e-3);
        let total: f64 = t.occupancy().iter().sum();
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bucketed_saturated_window_peaks_at_one() {
        let mut t = BucketedTimeline::new(1.0);
        t.reserve(SimTime::ZERO, Duration::new(4.0));
        assert!((t.peak_occupancy() - 1.0).abs() < 1e-12);
    }
}
