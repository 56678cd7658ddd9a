//! `kyrix-obs` — dependency-free telemetry for the serving path.
//!
//! The paper's core promise is a 500 ms interaction budget (§1); keeping
//! that promise in production requires the server to account for its own
//! latency. This crate provides the three primitives the rest of the
//! workspace instruments with, implemented in-repo like the `vendor/`
//! stubs because the build environment is offline:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — lock-free
//!   atomics; histograms use 64 fixed log2 buckets of microseconds, so
//!   recording is a handful of relaxed atomic adds and merging two
//!   histograms is element-wise addition (associative and commutative —
//!   pinned by `tests/prop_histogram.rs`). Quantiles interpolate inside
//!   the bucket holding the rank, so `p50/p95/p99` are deterministic
//!   functions of the bucket counts and always lie within that bucket's
//!   bounds.
//! * **A [`Registry`]** — a named, shared home for metrics, so the
//!   server, client session, LoD maintenance and the bench harness all
//!   record into the *same* instruments. [`HistogramFamily`] records
//!   every observation into a per-label histogram *and* the family
//!   total, making "totals equal the sum of the parts" an invariant by
//!   construction (pinned by `tests/concurrency.rs` under 8 racing
//!   threads).
//! * **Spans** ([`Span`]) — scoped timers that record their duration
//!   into a `span.<name>` histogram on drop, track per-thread nesting
//!   depth, and (while a capture is active) append [`SpanEvent`]s to a
//!   bounded ring for a renderable text trace ([`render_trace`]) or the
//!   machine-readable JSON dump ([`Registry::to_json`]).
//!
//! ```
//! use kyrix_obs::Registry;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(Registry::new());
//! reg.counter("requests").add(1);
//! {
//!     let _span = reg.span("sql.execute");
//!     // ... timed work ...
//! }
//! let snap = reg.histogram("span.sql.execute").snapshot();
//! assert_eq!(snap.count(), 1);
//! assert!(reg.to_json().contains("span.sql.execute"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod registry;
mod report;
mod span;

pub use metrics::{bucket_bounds, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{FamilyMember, HistogramFamily, Registry};
pub use span::{render_trace, Span, SpanEvent};
