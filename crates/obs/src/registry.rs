//! The named home for a process's metrics and span capture state.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::{Span, SpanEvent};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Captured events are bounded so a forgotten capture cannot grow without
/// limit; overflow is counted in the `span.events_dropped` counter.
const MAX_EVENTS: usize = 8192;

/// A registry of named [`Counter`]s, [`Gauge`]s and [`Histogram`]s plus
/// the span capture ring. Shared as `Arc<Registry>`; every accessor
/// get-or-creates, so instrument names are their identity.
///
/// Names are sorted (`BTreeMap`) so reports render deterministically.
pub struct Registry {
    epoch: Instant,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    capturing: AtomicBool,
    events: Mutex<Vec<SpanEvent>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("capturing", &self.capturing.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            epoch: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            capturing: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
        }
    }
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().expect("registry lock").get(name) {
        return Arc::clone(found);
    }
    let mut w = map.write().expect("registry lock");
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// An empty registry; its creation instant is the epoch span event
    /// offsets are measured from.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// A labeled histogram family rooted at `name`: every observation
    /// lands in both `name{label}` and the `name` total.
    pub fn histogram_family(self: &Arc<Self>, name: &str) -> HistogramFamily {
        HistogramFamily {
            reg: Arc::clone(self),
            name: name.to_string(),
            total: self.histogram(name),
        }
    }

    /// Enter a named span scope on this thread; the returned guard
    /// records on drop (see [`Span`]).
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::enter(self, name)
    }

    /// Record a span occurrence timed *externally* (e.g. the storage
    /// crate's query-observer hook, which reports a finished duration
    /// rather than holding a guard). Feeds the same `span.<name>`
    /// histogram and capture ring as [`Registry::span`], nested at the
    /// calling thread's current span depth.
    pub fn record_external_span(&self, name: &'static str, dur: Duration) {
        let start = Instant::now().checked_sub(dur).unwrap_or_else(Instant::now);
        self.record_span(
            name,
            crate::span::current_depth(),
            crate::span::current_thread(),
            start,
            dur,
        );
    }

    /// Start capturing span events (clears previously captured ones).
    pub fn start_capture(&self) {
        self.events.lock().expect("capture lock").clear();
        self.capturing.store(true, Ordering::Release);
    }

    /// Stop capturing and take the captured events.
    pub fn end_capture(&self) -> Vec<SpanEvent> {
        self.capturing.store(false, Ordering::Release);
        std::mem::take(&mut self.events.lock().expect("capture lock"))
    }

    pub(crate) fn record_span(
        &self,
        name: &'static str,
        depth: u16,
        thread: u64,
        start: Instant,
        dur: Duration,
    ) {
        self.histogram(&format!("span.{name}")).record_duration(dur);
        if !self.capturing.load(Ordering::Acquire) {
            return;
        }
        let start_us = start
            .saturating_duration_since(self.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let mut events = self.events.lock().expect("capture lock");
        if events.len() >= MAX_EVENTS {
            drop(events);
            self.counter("span.events_dropped").add(1);
            return;
        }
        events.push(SpanEvent {
            name,
            depth,
            thread,
            start_us,
            dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
        });
    }

    /// Every counter as `(name, value)`, name-sorted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// Every gauge as `(name, value)`, name-sorted.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect()
    }

    /// Every histogram as `(name, snapshot)`, name-sorted.
    pub fn histograms(&self) -> Vec<(String, crate::HistogramSnapshot)> {
        self.histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect()
    }
}

/// A histogram with per-label children plus a total, created by
/// [`Registry::histogram_family`]. Because [`HistogramFamily::record`]
/// writes both the child and the total, "total equals the sum of the
/// labels" holds by construction even under concurrent recording.
#[derive(Debug, Clone)]
pub struct HistogramFamily {
    reg: Arc<Registry>,
    name: String,
    total: Arc<Histogram>,
}

impl HistogramFamily {
    /// The family's base name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The child histogram for `label` (`name{label}`), created on first
    /// use. Record through [`HistogramFamily::record`] to keep the total
    /// consistent.
    pub fn labeled(&self, label: &str) -> Arc<Histogram> {
        self.reg.histogram(&format!("{}{{{label}}}", self.name))
    }

    /// The family total across all labels.
    pub fn total(&self) -> Arc<Histogram> {
        Arc::clone(&self.total)
    }

    /// A recorder for `label` with both histograms resolved once — for
    /// hot paths that would otherwise format the child's name and look it
    /// up on every observation.
    pub fn member(&self, label: &str) -> FamilyMember {
        FamilyMember {
            child: self.labeled(label),
            total: self.total(),
        }
    }

    /// Record `us` microseconds under `label` (and into the total).
    pub fn record(&self, label: &str, us: u64) {
        self.labeled(label).record(us);
        self.total.record(us);
    }

    /// Record a [`Duration`] under `label` (and into the total).
    pub fn record_duration(&self, label: &str, d: Duration) {
        self.record(label, d.as_micros().min(u64::MAX as u128) as u64);
    }
}

/// One label of a [`HistogramFamily`], created by
/// [`HistogramFamily::member`]: observations land in the label's child
/// and the family total, like [`HistogramFamily::record`].
#[derive(Debug, Clone)]
pub struct FamilyMember {
    child: Arc<Histogram>,
    total: Arc<Histogram>,
}

impl FamilyMember {
    /// Record `us` microseconds under this label (and into the total).
    pub fn record(&self, us: u64) {
        self.child.record(us);
        self.total.record(us);
    }

    /// Record a [`Duration`] under this label (and into the total).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_identified_by_name() {
        let reg = Registry::new();
        reg.counter("a").add(2);
        reg.counter("a").add(3);
        assert_eq!(reg.counter("a").get(), 5);
        reg.gauge("g").set(-4);
        assert_eq!(reg.gauge("g").get(), -4);
        reg.histogram("h").record(10);
        assert_eq!(reg.histogram("h").snapshot().count(), 1);
    }

    #[test]
    fn family_total_is_sum_of_labels() {
        let reg = Arc::new(Registry::new());
        let fam = reg.histogram_family("fetch");
        fam.record("l0", 100);
        fam.record("l0", 200);
        fam.record("l1", 50);
        let total = fam.total().snapshot();
        let merged = fam
            .labeled("l0")
            .snapshot()
            .merged(&fam.labeled("l1").snapshot());
        assert_eq!(total, merged);
        assert_eq!(total.count(), 3);
        // a pre-resolved member writes the same two histograms
        fam.member("l1").record(70);
        assert_eq!(fam.labeled("l1").snapshot().count(), 2);
        assert_eq!(fam.total().snapshot().count(), 4);
    }
}
