//! Trace replay: run a viewport movement trace through a session and
//! collect per-step response times — the measurement harness behind the
//! paper's Figures 6 and 7.

use crate::error::Result;
use crate::session::{Session, StepReport};

/// One viewport movement: pan by a delta or teleport to a center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Move {
    PanBy { dx: f64, dy: f64 },
    PanTo { cx: f64, cy: f64 },
}

/// Aggregated trace results.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    pub steps: Vec<StepReport>,
}

impl TraceReport {
    /// Average modeled response time per step, ms (the paper's Figures 6–7
    /// metric: "average response time (per step)").
    pub fn avg_modeled_ms(&self) -> f64 {
        avg(self.steps.iter().map(|s| s.modeled_ms))
    }

    /// Average measured wall-clock per step, ms.
    pub fn avg_measured_ms(&self) -> f64 {
        avg(self.steps.iter().map(|s| s.measured_ms))
    }

    /// Total backend requests across the trace.
    pub fn total_requests(&self) -> u64 {
        self.steps.iter().map(|s| s.fetch.requests).sum()
    }

    /// Total DBMS queries across the trace.
    pub fn total_queries(&self) -> u64 {
        self.steps.iter().map(|s| s.fetch.queries).sum()
    }

    /// Total tuples fetched across the trace.
    pub fn total_rows(&self) -> u64 {
        self.steps.iter().map(|s| s.fetch.rows).sum()
    }

    /// Total bytes shipped across the trace.
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.fetch.bytes).sum()
    }
}

fn avg(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Replay a trace. The initial load is *not* included in the report
/// (the paper measures per-step pan response times).
pub fn run_trace(session: &mut Session, moves: &[Move]) -> Result<TraceReport> {
    let mut report = TraceReport::default();
    for m in moves {
        let step = match *m {
            Move::PanBy { dx, dy } => session.pan_by(dx, dy)?,
            Move::PanTo { cx, cy } => session.pan_to(cx, cy)?,
        };
        report.steps.push(step);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::StepReport;

    #[test]
    fn aggregates() {
        let mut r = TraceReport::default();
        for ms in [10.0, 20.0, 600.0] {
            r.steps.push(StepReport {
                modeled_ms: ms,
                measured_ms: ms / 2.0,
                ..Default::default()
            });
        }
        assert!((r.avg_modeled_ms() - 210.0).abs() < 1e-9);
        assert!((r.avg_measured_ms() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_defaults() {
        let r = TraceReport::default();
        assert_eq!(r.avg_modeled_ms(), 0.0);
        assert_eq!(r.total_requests(), 0);
    }
}
