//! Streaming aggregation of events: the attribution workhorse.
//!
//! Where [`crate::RingRecorder`] keeps raw events for trace export,
//! [`AggRecorder`] folds them on arrival into per-key statistics —
//! count, sum, min, max, and a log2 histogram — keyed by
//! `(subsystem, kind, name, component)`. Aggregation is commutative, so
//! the result is independent of the arrival order of events from
//! parallel workers: the same property that makes the ordered-reduction
//! simulator deterministic makes this recorder's sums deterministic.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::event::{Component, Event, EventKind, Subsystem, Unit};
use crate::recorder::Recorder;

/// Number of log2 histogram buckets (covers the full f64 positive
/// exponent range of interest: bucket `i` holds values in
/// `[2^i, 2^(i+1))`, bucket 0 holds everything below 2).
const LOG2_BUCKETS: usize = 64;

/// Aggregated statistics for one event key.
#[derive(Debug, Clone, PartialEq)]
pub struct AggEntry {
    /// The emitting subsystem.
    pub subsystem: Subsystem,
    /// Event shape.
    pub kind: EventKind,
    /// Static event name.
    pub name: &'static str,
    /// Hardware component, if the events carried one.
    pub component: Option<Component>,
    /// Unit of the aggregated values (unit of the first event seen).
    pub unit: Unit,
    /// Events folded in.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
    /// Log2 bucket counts: bucket `i` counts values in `[2^i, 2^(i+1))`.
    pub log2_buckets: Box<[u64; LOG2_BUCKETS]>,
}

impl AggEntry {
    fn new(event: &Event) -> Self {
        AggEntry {
            subsystem: event.subsystem,
            kind: event.kind,
            name: event.name,
            component: event.component,
            unit: event.unit,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            log2_buckets: Box::new([0; LOG2_BUCKETS]),
        }
    }

    fn fold(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = if value < 2.0 {
            0
        } else {
            (value.log2() as usize).min(LOG2_BUCKETS - 1)
        };
        self.log2_buckets[bucket] += 1;
    }

    /// Mean of the folded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate percentile from the log2 histogram: the upper edge
    /// of the bucket containing the `p`-th percentile observation
    /// (nearest-rank), clamped to the recorded `[min, max]` so a
    /// quantile never exceeds the largest value actually seen. Good to
    /// a factor of 2, which is what a latency distribution sketch needs.
    pub fn approx_percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.log2_buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 2f64.powi(i as i32 + 1).max(self.min).min(self.max);
            }
        }
        self.max
    }
}

type Key = (Subsystem, EventKind, &'static str, Option<Component>, Unit);

/// A [`Recorder`] folding events into per-key [`AggEntry`] statistics.
///
/// ```
/// use bfree_obs::{AggRecorder, Recorder, Subsystem, Unit};
///
/// let rec = AggRecorder::new();
/// for v in [10.0, 20.0, 30.0] {
///     rec.histogram(Subsystem::Serve, "latency", v, Unit::Nanoseconds);
/// }
/// let entries = rec.snapshot();
/// assert_eq!(entries.len(), 1);
/// assert_eq!(entries[0].count, 3);
/// assert_eq!(entries[0].sum, 60.0);
/// ```
#[derive(Debug, Default)]
pub struct AggRecorder {
    entries: Mutex<BTreeMap<Key, AggEntry>>,
}

impl AggRecorder {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<Key, AggEntry>> {
        // A fold never leaves an entry half-updated in a way later
        // folds cannot absorb, so recover from poisoning.
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// All aggregated entries in deterministic key order.
    pub fn snapshot(&self) -> Vec<AggEntry> {
        self.lock().values().cloned().collect()
    }

    /// The summed value of one `(subsystem, name)` across kinds and
    /// components (0 when never recorded).
    pub fn sum(&self, subsystem: Subsystem, name: &str) -> f64 {
        self.lock()
            .iter()
            .filter(|((s, _, n, _, _), _)| *s == subsystem && *n == name)
            .map(|(_, e)| e.sum)
            .sum()
    }

    /// Total picojoules recorded per hardware component, across all
    /// subsystems and event names — the Fig. 2 / Fig. 12(d)-style
    /// attribution table.
    pub fn energy_by_component(&self) -> BTreeMap<Component, f64> {
        let mut out = BTreeMap::new();
        for ((_, _, _, component, unit), entry) in self.lock().iter() {
            if *unit == Unit::Picojoules {
                if let Some(c) = component {
                    *out.entry(*c).or_insert(0.0) += entry.sum;
                }
            }
        }
        out
    }

    /// Total nanoseconds recorded per hardware component.
    pub fn latency_by_component(&self) -> BTreeMap<Component, f64> {
        let mut out = BTreeMap::new();
        for ((_, kind, _, component, unit), entry) in self.lock().iter() {
            if *unit == Unit::Nanoseconds && *kind == EventKind::Counter {
                if let Some(c) = component {
                    *out.entry(*c).or_insert(0.0) += entry.sum;
                }
            }
        }
        out
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.lock().clear();
    }
}

impl Recorder for AggRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let mut entries = self.lock();
        entries
            .entry(event.key())
            .or_insert_with(|| AggEntry::new(&event))
            .fold(event.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_by_component_sums_across_names() {
        let rec = AggRecorder::new();
        rec.energy(Subsystem::Exec, "layer", Component::Dram, 100.0);
        rec.energy(Subsystem::Exec, "gather", Component::Dram, 50.0);
        rec.energy(Subsystem::Arch, "transfer", Component::Bce, 25.0);
        let by = rec.energy_by_component();
        assert_eq!(by[&Component::Dram], 150.0);
        assert_eq!(by[&Component::Bce], 25.0);
        assert_eq!(by.len(), 2);
    }

    #[test]
    fn latency_by_component_ignores_energy_and_spans() {
        let rec = AggRecorder::new();
        rec.latency(Subsystem::Exec, "phase", Component::Interconnect, 10.0);
        rec.energy(Subsystem::Exec, "phase", Component::Interconnect, 99.0);
        rec.span(Subsystem::Exec, "layer", 0.0, 77.0);
        let by = rec.latency_by_component();
        assert_eq!(by[&Component::Interconnect], 10.0);
        assert_eq!(by.len(), 1);
    }

    #[test]
    fn min_max_mean_track_extremes() {
        let rec = AggRecorder::new();
        for v in [5.0, 1.0, 9.0] {
            rec.histogram(Subsystem::Serve, "lat", v, Unit::Nanoseconds);
        }
        let e = &rec.snapshot()[0];
        assert_eq!(e.min, 1.0);
        assert_eq!(e.max, 9.0);
        assert_eq!(e.mean(), 5.0);
    }

    #[test]
    fn log2_percentile_brackets_the_true_value() {
        let rec = AggRecorder::new();
        for i in 1..=1000u32 {
            rec.histogram(Subsystem::Serve, "lat", f64::from(i), Unit::Nanoseconds);
        }
        let e = &rec.snapshot()[0];
        let p50 = e.approx_percentile(50.0);
        // True p50 = 500; the log2 sketch returns the bucket upper edge.
        assert!((500.0..=1024.0).contains(&p50), "p50 sketch {p50}");
        let p99 = e.approx_percentile(99.0);
        assert!((990.0..=1024.0).contains(&p99), "p99 sketch {p99}");
        // The 1024 edge lies above every recorded value: clamped to max.
        assert_eq!(p99, 1000.0);
    }

    #[test]
    fn aggregation_is_order_independent() {
        let forward = AggRecorder::new();
        let backward = AggRecorder::new();
        let values: Vec<f64> = (1..100).map(f64::from).collect();
        for &v in &values {
            forward.energy(Subsystem::Exec, "e", Component::Dram, v);
        }
        for &v in values.iter().rev() {
            backward.energy(Subsystem::Exec, "e", Component::Dram, v);
        }
        // Counts, extremes and buckets are exactly equal; sums agree to
        // f64 round-off (different addition order).
        let f = &forward.snapshot()[0];
        let b = &backward.snapshot()[0];
        assert_eq!(f.count, b.count);
        assert_eq!(f.min, b.min);
        assert_eq!(f.max, b.max);
        assert_eq!(f.log2_buckets, b.log2_buckets);
        assert!((f.sum - b.sum).abs() < 1e-9);
    }

    #[test]
    fn empty_percentile_and_mean_are_zero() {
        let e = AggEntry::new(&Event {
            subsystem: Subsystem::Par,
            kind: EventKind::Histogram,
            name: "x",
            detail: None,
            component: None,
            time_ns: 0.0,
            dur_ns: 0.0,
            value: 0.0,
            unit: Unit::Count,
        });
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.approx_percentile(99.0), 0.0);
    }
}
