//! `jigsaw-obs`: zero-dependency, pay-for-what-you-use observability.
//!
//! The crate provides three metric primitives — monotonic [`Counter`]s,
//! signed [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s (suitable for
//! nanosecond latencies and search-step effort alike) — plus a bounded
//! in-memory [`Event`] ring for discrete happenings (job lifecycle,
//! backfill, rejections, journal fsyncs, snapshots). A [`Registry`] owns
//! everything and renders two expositions: Prometheus-style text
//! ([`Registry::render_prometheus`]) and JSON ([`Registry::render_json`]).
//!
//! # Enabled vs. disabled
//!
//! Every handle is an `Option<Arc<…>>` internally. [`Registry::new`]
//! hands out live handles; [`Registry::disabled`] hands out inert ones
//! whose every operation is a branch on `None` — no atomic traffic, and
//! crucially no `Instant::now()` syscalls from the timing helpers. The
//! `obs_overhead` criterion bench in `jigsaw-bench` keeps this honest:
//! an allocator instrumented against a disabled registry must be within
//! noise of the uninstrumented baseline, so the paper's Table 3 timings
//! are never perturbed by the instrumentation that reports them.
//!
//! # Example
//!
//! ```
//! use jigsaw_obs::{EventKind, Registry};
//!
//! let reg = Registry::new();
//! let grants = reg.counter_with("grants_total", "Granted jobs.", &[("scheme", "Jigsaw")]);
//! let latency = reg.histogram("alloc_ns", "Allocation latency (ns).");
//! let t0 = latency.start();
//! grants.inc();
//! latency.observe_since(t0);
//! reg.event(EventKind::JobStart, Some(7), format_args!("size={}", 4));
//! let text = reg.render_prometheus();
//! assert!(text.contains("grants_total{scheme=\"Jigsaw\"} 1"));
//! assert!(reg.render_json().contains("\"job_start\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod render;
mod ring;

pub use metrics::{bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, BUCKET_COUNT};
pub use ring::{Event, EventKind, EventRing, DEFAULT_RING_CAPACITY};

use metrics::HistogramCore;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64};
use std::sync::{Arc, Mutex};

/// Lock a registry mutex, tolerating poison. Observability must keep
/// working after an unrelated thread panics mid-record; every guarded
/// structure is valid at each unlock point, so the poisoned data is safe
/// to reuse.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The storage a registered metric name points at.
#[derive(Debug)]
pub(crate) enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

impl Slot {
    fn kind_name(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric: family name, help text, label set, storage.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) slot: Slot,
}

#[derive(Debug)]
struct Inner {
    entries: Mutex<Vec<Entry>>,
    ring: Mutex<EventRing>,
}

/// The metric and event registry.
///
/// Cheap to clone (it is an `Arc` underneath); clones share the same
/// metrics and ring. A disabled registry hands out inert handles and
/// renders empty expositions.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry with the default event-ring capacity.
    pub fn new() -> Registry {
        Registry::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled registry retaining at most `capacity` events.
    pub fn with_ring_capacity(capacity: usize) -> Registry {
        Registry {
            inner: Some(Arc::new(Inner {
                entries: Mutex::new(Vec::new()),
                ring: Mutex::new(EventRing::new(capacity)),
            })),
        }
    }

    /// A disabled registry: every handle it creates is a no-op.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// `true` when this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Slot,
        extract: impl Fn(&Slot) -> Option<T>,
    ) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut entries = lock(&inner.entries);
        if let Some(existing) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return Some(extract(&existing.slot).unwrap_or_else(|| {
                // jigsaw-lint: allow(R1) -- kind mismatch is a caller naming bug; a silent fallback would record into the wrong metric
                panic!(
                    "metric `{name}` re-registered as a different kind (was {})",
                    existing.slot.kind_name()
                )
            }));
        }
        let slot = make();
        let Some(handle) = extract(&slot) else {
            // `make`/`extract` pairs are written together below; a mismatch
            // cannot produce a usable handle, so behave as if disabled.
            return None;
        };
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            slot,
        });
        Some(handle)
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a counter with labels. Same name + same
    /// labels returns a handle to the same storage.
    ///
    /// # Panics
    /// If `name` + `labels` was already registered as a different kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.register(
            name,
            help,
            labels,
            || Slot::Counter(Arc::new(AtomicU64::new(0))),
            |s| match s {
                Slot::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        ))
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a gauge with labels.
    ///
    /// # Panics
    /// If `name` + `labels` was already registered as a different kind.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.register(
            name,
            help,
            labels,
            || Slot::Gauge(Arc::new(AtomicI64::new(0))),
            |s| match s {
                Slot::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        ))
    }

    /// Register (or look up) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Register (or look up) a histogram with labels.
    ///
    /// # Panics
    /// If `name` + `labels` was already registered as a different kind.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram(self.register(
            name,
            help,
            labels,
            || Slot::Histogram(Arc::new(HistogramCore::new())),
            |s| match s {
                Slot::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        ))
    }

    /// Record a discrete event. `detail` (a `format_args!`) is formatted
    /// only when the registry is enabled, and then into the buffer of the
    /// event the ring evicts, so a full ring records without allocating
    /// and a disabled registry never formats at all.
    pub fn event(&self, kind: EventKind, job: Option<u32>, detail: fmt::Arguments<'_>) {
        if let Some(inner) = &self.inner {
            lock(&inner.ring).push(kind, job, detail);
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => lock(&inner.ring).events().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// How many events were evicted from the ring.
    pub fn events_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| lock(&i.ring).dropped())
    }

    /// Prometheus-style text exposition. Empty when disabled.
    pub fn render_prometheus(&self) -> String {
        match &self.inner {
            Some(inner) => render::prometheus(&lock(&inner.entries)),
            None => String::new(),
        }
    }

    /// JSON exposition of metrics + events. Minimal empty document when
    /// disabled.
    pub fn render_json(&self) -> String {
        match &self.inner {
            Some(inner) => {
                let entries = lock(&inner.entries);
                let ring = lock(&inner.ring);
                render::json(&entries, &ring)
            }
            None => "{\"metrics\":[],\"events\":[],\"events_dropped\":0}".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("jobs_total", "Total jobs.");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        let g = reg.gauge("in_flight", "Jobs in flight.");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn same_name_same_labels_share_storage() {
        let reg = Registry::new();
        let a = reg.counter_with("x_total", "X.", &[("scheme", "Jigsaw")]);
        let b = reg.counter_with("x_total", "X.", &[("scheme", "Jigsaw")]);
        let other = reg.counter_with("x_total", "X.", &[("scheme", "TA")]);
        a.inc();
        b.inc();
        other.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(other.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _c = reg.counter("dual", "One.");
        let _g = reg.gauge("dual", "Two.");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        let c = reg.counter_with("req_total", "Requests.", &[("verb", "ALLOC")]);
        c.add(7);
        let h = reg.histogram("lat_ns", "Latency.");
        h.observe(0);
        h.observe(5);
        h.observe(1_000_000);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP req_total Requests."));
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{verb=\"ALLOC\"} 7"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"7\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum 1000005"));
        assert!(text.contains("lat_ns_count 3"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn json_exposition_shape() {
        let reg = Registry::with_ring_capacity(2);
        reg.counter("a_total", "A.").inc();
        reg.event(EventKind::JobArrival, Some(1), format_args!("size=4"));
        reg.event(EventKind::JobStart, Some(1), format_args!(""));
        reg.event(EventKind::JobComplete, Some(1), format_args!(""));
        let json = reg.render_json();
        assert!(json.contains("\"name\":\"a_total\""));
        assert!(json.contains("\"type\":\"counter\",\"value\":1"));
        // Ring capacity 2: the arrival was evicted.
        assert!(!json.contains("job_arrival"));
        assert!(json.contains("\"kind\":\"job_start\""));
        assert!(json.contains("\"events_dropped\":1"));
    }

    /// Notes when it is formatted.
    struct Probe<'a>(&'a std::cell::Cell<bool>);

    impl fmt::Display for Probe<'_> {
        fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.set(true);
            Ok(())
        }
    }

    #[test]
    fn disabled_registry_is_inert_and_cheap() {
        let reg = Registry::disabled();
        let c = reg.counter("x_total", "X.");
        assert!(!c.is_enabled());
        c.inc();
        assert_eq!(c.get(), 0);
        let h = reg.histogram("h_ns", "H.");
        assert!(h.start().is_none());
        let formatted = std::cell::Cell::new(false);
        let probe = Probe(&formatted);
        reg.event(EventKind::Snapshot, None, format_args!("{probe}"));
        assert!(
            !formatted.get(),
            "detail must not be formatted when disabled"
        );
        assert_eq!(reg.render_prometheus(), "");
        assert_eq!(
            reg.render_json(),
            "{\"metrics\":[],\"events\":[],\"events_dropped\":0}"
        );
    }

    #[test]
    fn enabled_events_format_their_detail() {
        let reg = Registry::with_ring_capacity(2);
        let formatted = std::cell::Cell::new(false);
        let probe = Probe(&formatted);
        reg.event(EventKind::Snapshot, None, format_args!("seq={}{probe}", 3));
        assert!(formatted.get());
        assert_eq!(reg.events()[0].detail, "seq=3");
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new();
        let c1 = reg.counter("shared_total", "S.");
        let reg2 = reg.clone();
        let c2 = reg2.counter("shared_total", "S.");
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
    }

    #[test]
    fn label_escaping() {
        let reg = Registry::new();
        reg.counter_with("esc_total", "E.", &[("msg", "a\"b\\c\nd")])
            .inc();
        let text = reg.render_prometheus();
        assert!(text.contains("msg=\"a\\\"b\\\\c\\nd\""));
    }
}
