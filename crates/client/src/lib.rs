//! `kyrix-client`: a headless Kyrix frontend.
//!
//! The browser frontend of the original system is replaced by a [`Session`]
//! that owns the viewport and the frontend cache, asks a
//! [`kyrix_server::KyrixServer`] for each layer's region
//! ([`kyrix_server::KyrixServer::fetch_region`], which serves tiles or a
//! box per the layer's plan), executes pans and jumps, and renders
//! frames with `kyrix-render`. [`trace_runner`] replays the paper's
//! viewport movement traces and aggregates per-step response times;
//! [`linked`] implements the §4 coordinated-views extension.

pub mod cache;
pub mod error;
pub mod linked;
pub mod session;
pub mod trace_runner;
pub mod viewport;

pub use cache::FrontendCache;
pub use error::{ClientError, Result};
pub use linked::{Link, LinkMode, LinkedViews};
pub use session::{JumpOutcome, Session, StepReport};
pub use trace_runner::{run_trace, Move, TraceReport};
pub use viewport::Viewport;
