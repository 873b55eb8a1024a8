//! History-based performance models.
//!
//! `StarPU` (which the paper's generated code targets) estimates task
//! execution times from per-(codelet, architecture, size) execution
//! histories. This module implements that mechanism: observations are
//! bucketed by size (powers of two), and the model answers with the running
//! mean. Schedulers consult it when a task carries no analytic cost
//! ([`crate::task::Task::flops`] of zero).

use simhw::time::Duration;
use std::collections::BTreeMap;

/// Running statistics of a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct BucketStats {
    /// Number of observations.
    pub count: u64,
    /// Mean observed duration in seconds.
    pub mean_s: f64,
}

impl BucketStats {
    fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.mean_s += (seconds - self.mean_s) / self.count as f64;
    }
}

/// A history-based performance model.
///
/// Buckets are stored codelet → arch → size-bucket so the hot scheduler
/// lookup path (`estimate`) works entirely on borrowed
/// `&str` keys, without allocating.
#[derive(Debug, Clone, Default)]
pub struct PerfModel {
    buckets: BTreeMap<String, BTreeMap<String, BTreeMap<u32, BucketStats>>>,
}

/// Buckets sizes by floor(log2): tasks within 2× of each other share a
/// bucket, as `StarPU`'s history models do.
fn size_bucket(size: f64) -> u32 {
    if size <= 1.0 {
        0
    } else {
        size.log2().floor() as u32
    }
}

impl PerfModel {
    /// An empty model.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records an observed execution.
    pub(crate) fn record(&mut self, codelet: &str, arch: &str, size: f64, duration: Duration) {
        // Allocation only on the cold path: a bucket's first observation.
        if let Some(archs) = self.buckets.get_mut(codelet) {
            if let Some(sizes) = archs.get_mut(arch) {
                sizes
                    .entry(size_bucket(size))
                    .or_default()
                    .record(duration.seconds());
                return;
            }
        }
        self.buckets
            .entry(codelet.to_string())
            .or_default()
            .entry(arch.to_string())
            .or_default()
            .entry(size_bucket(size))
            .or_default()
            .record(duration.seconds());
    }

    /// The bucket for a (codelet, arch, size) triple, looked up without
    /// allocating — this sits on the hot scheduler path.
    fn bucket(&self, codelet: &str, arch: &str, size: f64) -> Option<&BucketStats> {
        self.buckets
            .get(codelet)?
            .get(arch)?
            .get(&size_bucket(size))
    }

    /// Estimated duration, if the model has seen this (codelet, arch, size
    /// bucket) before.
    pub(crate) fn estimate(&self, codelet: &str, arch: &str, size: f64) -> Option<Duration> {
        self.bucket(codelet, arch, size)
            .filter(|s| s.count > 0)
            .map(|s| Duration::new(s.mean_s))
    }

    /// Number of populated buckets.
    pub fn len(&self) -> usize {
        self.buckets
            .values()
            .flat_map(|archs| archs.values())
            .map(std::collections::BTreeMap::len)
            .sum()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_running_mean() {
        let mut m = PerfModel::new();
        assert!(m.estimate("dgemm", "gpu", 1024.0).is_none());
        m.record("dgemm", "gpu", 1024.0, Duration::new(1.0));
        m.record("dgemm", "gpu", 1100.0, Duration::new(3.0)); // same bucket
        let est = m.estimate("dgemm", "gpu", 1500.0).unwrap(); // 2^10 bucket
        assert!((est.seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn buckets_partition_by_size_codelet_arch() {
        let mut m = PerfModel::new();
        m.record("dgemm", "gpu", 1024.0, Duration::new(1.0));
        // Different size bucket.
        assert!(m.estimate("dgemm", "gpu", 4096.0).is_none());
        // Different arch.
        assert!(m.estimate("dgemm", "x86", 1024.0).is_none());
        // Different codelet.
        assert!(m.estimate("vecadd", "gpu", 1024.0).is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn size_bucketing() {
        assert_eq!(size_bucket(0.0), 0);
        assert_eq!(size_bucket(1.0), 0);
        assert_eq!(size_bucket(2.0), 1);
        assert_eq!(size_bucket(1023.0), 9);
        assert_eq!(size_bucket(1024.0), 10);
        assert_eq!(size_bucket(2047.0), 10);
    }
}
