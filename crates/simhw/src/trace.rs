//! Execution traces: what ran where and when, in virtual time.
//!
//! The simulated runtime records one [`Span`] per computation and transfer;
//! the trace then answers makespan/utilization questions and renders a
//! text Gantt chart for the examples and EXPERIMENTS.md.

use crate::machine::DeviceId;
use crate::time::{Duration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Task execution on a device.
    Compute,
    /// Data movement to/from a device.
    Transfer,
}

/// One occupancy interval on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The device the span occupies.
    pub device: DeviceId,
    /// Human-readable label (task name, transfer description).
    pub label: String,
    /// Compute or transfer.
    pub kind: SpanKind,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl Span {
    /// Span length.
    pub(crate) fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// An append-only trace of spans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace with room for `spans` spans.
    pub fn with_capacity(spans: usize) -> Self {
        Trace {
            spans: Vec::with_capacity(spans),
        }
    }

    /// Records a span.
    pub fn record(
        &mut self,
        device: DeviceId,
        label: impl Into<String>,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
    ) {
        debug_assert!(end >= start);
        self.spans.push(Span {
            device,
            label: label.into(),
            kind,
            start,
            end,
        });
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Latest end time over all spans (zero for an empty trace).
    pub fn makespan(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Busy time per device (compute + transfer).
    pub fn busy_by_device(&self) -> BTreeMap<DeviceId, Duration> {
        let mut map: BTreeMap<DeviceId, Duration> = BTreeMap::new();
        for s in &self.spans {
            let e = map.entry(s.device).or_insert(Duration::ZERO);
            *e = *e + s.duration();
        }
        map
    }

    /// Count of spans of a kind.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Renders a fixed-width text Gantt chart with `width` columns,
    /// one row per device. Compute is `#`, transfer is `~`.
    pub fn gantt(&self, device_names: &[String], width: usize) -> String {
        let mut out = String::new();
        let makespan = self.makespan().seconds();
        if makespan == 0.0 || width == 0 {
            return out;
        }
        let scale = width as f64 / makespan;
        let n_devices = device_names.len();
        for (d, name) in device_names.iter().enumerate() {
            let mut row = vec![' '; width];
            for s in self.spans.iter().filter(|s| s.device.0 == d) {
                let a = (s.start.seconds() * scale) as usize;
                let b = ((s.end.seconds() * scale) as usize).clamp(a + 1, width);
                let ch = match s.kind {
                    SpanKind::Compute => '#',
                    SpanKind::Transfer => '~',
                };
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            let _ = writeln!(out, "{name:>10} |{}|", row.iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "{:>10}  0{}{makespan:.4}s  ({n_devices} devices)",
            "",
            " ".repeat(width.saturating_sub(8)),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn makespan_and_busy_accounting() {
        let mut tr = Trace::new();
        tr.record(DeviceId(0), "a", SpanKind::Compute, t(0.0), t(2.0));
        tr.record(DeviceId(0), "xfer", SpanKind::Transfer, t(2.0), t(2.5));
        tr.record(DeviceId(1), "b", SpanKind::Compute, t(1.0), t(4.0));
        assert_eq!(tr.makespan().seconds(), 4.0);
        let busy = tr.busy_by_device();
        assert_eq!(busy[&DeviceId(0)].seconds(), 2.5);
        assert_eq!(busy[&DeviceId(1)].seconds(), 3.0);
        assert_eq!(tr.count(SpanKind::Compute), 2);
        assert_eq!(tr.count(SpanKind::Transfer), 1);
    }

    #[test]
    fn empty_trace() {
        let tr = Trace::new();
        assert_eq!(tr.makespan(), SimTime::ZERO);
        assert!(tr.busy_by_device().is_empty());
        assert_eq!(tr.gantt(&["d0".into()], 40), "");
    }

    #[test]
    fn gantt_renders_rows() {
        let mut tr = Trace::new();
        tr.record(DeviceId(0), "a", SpanKind::Compute, t(0.0), t(1.0));
        tr.record(DeviceId(1), "x", SpanKind::Transfer, t(0.0), t(0.5));
        tr.record(DeviceId(1), "b", SpanKind::Compute, t(0.5), t(2.0));
        let g = tr.gantt(&["cpu0".into(), "gpu0".into()], 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("cpu0"));
        assert!(lines[0].contains('#'));
        assert!(lines[1].contains('~'));
        assert!(lines[1].contains('#'));
        assert!(lines[2].contains("2.0000s"));
    }

    #[test]
    fn span_duration() {
        let s = Span {
            device: DeviceId(0),
            label: "x".into(),
            kind: SpanKind::Compute,
            start: t(1.0),
            end: t(3.5),
        };
        assert_eq!(s.duration().seconds(), 2.5);
    }
}
