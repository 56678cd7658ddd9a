//! The network/DBMS cost model.
//!
//! The paper measures end-to-end response time on a browser ↔ backend ↔
//! PostgreSQL stack. This reproduction executes everything in-process, so
//! the per-request costs that penalize chatty fetching schemes (many small
//! tile queries) are modeled explicitly and *reported alongside* measured
//! execution time — see DESIGN.md §4.3 and EXPERIMENTS.md.

/// Cost model for one frontend↔backend↔DBMS round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Frontend↔backend round-trip latency per request, in ms.
    pub rtt_ms: f64,
    /// Backend↔DBMS per-query overhead (protocol, parsing, planning), ms.
    pub query_overhead_ms: f64,
    /// Transfer bandwidth in bytes/ms (e.g. 200 MB/s ≈ 200_000 bytes/ms).
    pub bytes_per_ms: f64,
}

impl CostModel {
    /// Validated constructor. Costs feed plan comparisons (the Figure 6/7
    /// tables rank fetch schemes by [`CostModel::cost_ms`]-derived totals),
    /// so every parameter is clamped to a value that keeps costs finite and
    /// non-negative: negative or non-finite per-request overheads become 0,
    /// and a zero, negative, or NaN bandwidth — which would make the bytes
    /// term `inf`, negative, or NaN and poison min-by comparisons — is
    /// treated as infinite bandwidth (no transfer cost), like
    /// [`CostModel::zero`].
    pub fn new(rtt_ms: f64, query_overhead_ms: f64, bytes_per_ms: f64) -> Self {
        let clamp = |v: f64| if v.is_finite() { v.max(0.0) } else { 0.0 };
        CostModel {
            rtt_ms: clamp(rtt_ms),
            query_overhead_ms: clamp(query_overhead_ms),
            bytes_per_ms: if bytes_per_ms > 0.0 {
                bytes_per_ms
            } else {
                f64::INFINITY
            },
        }
    }

    /// Defaults calibrated to a same-region EC2 deployment like the
    /// paper's m4.2xlarge + PostgreSQL setup: 1 ms HTTP RTT, 2 ms per-query
    /// overhead, 200 MB/s effective transfer.
    pub fn paper_default() -> Self {
        CostModel {
            rtt_ms: 1.0,
            query_overhead_ms: 2.0,
            bytes_per_ms: 200_000.0,
        }
    }

    /// No modeled costs: report raw measured time only.
    pub fn zero() -> Self {
        CostModel {
            rtt_ms: 0.0,
            query_overhead_ms: 0.0,
            bytes_per_ms: f64::INFINITY,
        }
    }

    /// Modeled cost in ms of `requests` frontend↔backend requests that ran
    /// `queries` DBMS queries and shipped `bytes` of data.
    ///
    /// The bytes term is skipped unless `bytes_per_ms` is finite *and*
    /// positive: the fields are public, so a hand-built model can carry a
    /// zero or negative bandwidth that [`CostModel::new`] would have
    /// clamped, and dividing by it would yield `inf`/negative costs that
    /// break cheapest-plan comparisons.
    pub fn cost_ms(&self, requests: u64, queries: u64, bytes: u64) -> f64 {
        requests as f64 * self.rtt_ms
            + queries as f64 * self.query_overhead_ms
            + if self.bytes_per_ms.is_finite() && self.bytes_per_ms > 0.0 {
                bytes as f64 / self.bytes_per_ms
            } else {
                0.0
            }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_free() {
        assert_eq!(CostModel::zero().cost_ms(100, 100, 1 << 30), 0.0);
    }

    #[test]
    fn chatty_schemes_pay_per_request() {
        let m = CostModel::paper_default();
        // 16 tile requests vs 1 box request for the same data volume
        let tiles = m.cost_ms(16, 16, 1_000_000);
        let dbox = m.cost_ms(1, 1, 1_000_000);
        assert!(tiles > dbox);
        assert_eq!(tiles - dbox, 15.0 * (1.0 + 2.0));
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let m = CostModel::paper_default();
        let small = m.cost_ms(1, 1, 0);
        let big = m.cost_ms(1, 1, 2_000_000);
        assert_eq!(big - small, 10.0);
    }

    #[test]
    fn degenerate_bandwidth_never_poisons_costs() {
        // regression: a zero/negative/NaN bytes_per_ms used to slip past the
        // is_finite() check and yield inf / negative / NaN costs, which break
        // min-by-cost plan comparisons (NaN ordering)
        for bpm in [0.0, -5.0, f64::NAN] {
            let m = CostModel {
                bytes_per_ms: bpm,
                ..CostModel::paper_default()
            };
            let c = m.cost_ms(2, 2, 1 << 20);
            assert!(c.is_finite(), "bytes_per_ms={bpm} gave {c}");
            assert_eq!(c, 2.0 * 1.0 + 2.0 * 2.0, "bytes term must drop out");
        }
    }

    #[test]
    fn constructor_clamps_invalid_parameters() {
        let m = CostModel::new(-1.0, f64::NAN, 0.0);
        assert_eq!(m.rtt_ms, 0.0);
        assert_eq!(m.query_overhead_ms, 0.0);
        assert_eq!(m.bytes_per_ms, f64::INFINITY);
        assert_eq!(m.cost_ms(10, 10, 1 << 30), 0.0);
        // NaN bandwidth is clamped too (NaN > 0.0 is false)
        assert_eq!(
            CostModel::new(1.0, 1.0, f64::NAN).bytes_per_ms,
            f64::INFINITY
        );
        // valid parameters pass through untouched
        let ok = CostModel::new(1.5, 2.5, 1000.0);
        assert_eq!(
            (ok.rtt_ms, ok.query_overhead_ms, ok.bytes_per_ms),
            (1.5, 2.5, 1000.0)
        );
    }
}
