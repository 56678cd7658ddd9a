//! End-to-end EXPLAIN for one served `(canvas, layer)`.
//!
//! The storage crate's `EXPLAIN SELECT ...` names the access path one
//! query takes; this module renders the *server* half of the same story:
//! which [`FetchPlan`] the layer resolved to, the policy that chose it,
//! and — closing the loop — the storage-level plan of the representative
//! fetch SQL the layer serves with. One report makes both halves of a
//! fetch debuggable: build it with [`crate::KyrixServer::explain`].

use crate::precompute::{FetchPlan, LayerStore};
use std::fmt;

/// Everything [`crate::KyrixServer::explain`] resolved for one layer,
/// rendered as a text report by [`fmt::Display`] (or
/// [`LayerExplain::render`]).
#[derive(Debug, Clone)]
pub struct LayerExplain {
    /// Canvas id.
    pub canvas: String,
    /// Layer index within the canvas.
    pub layer: usize,
    /// The fetch plan the layer is serving.
    pub plan: FetchPlan,
    /// Label of the policy that resolved it ([`crate::PlanPolicy::label`]):
    /// the rationale.
    pub policy_label: String,
    /// Representative fetch SQL the store serves with (None for static
    /// layers, which fetch nothing).
    pub fetch_sql: Option<String>,
    /// The storage executor's `EXPLAIN` lines for `fetch_sql`, naming the
    /// access path (e.g. `SpatialScan(..)`, `IndexJoin(..)`).
    pub storage_plan: Vec<String>,
}

/// The SQL one store answers fetches with, placeholders included: the
/// text of the very statement [`crate::fetch`] executes
/// ([`LayerStore::fetch_statement`]).
pub fn fetch_sql(store: &LayerStore) -> Option<String> {
    store.fetch_statement().map(|p| p.sql.clone())
}

impl LayerExplain {
    /// The report as text (same as the [`fmt::Display`] impl).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for LayerExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXPLAIN canvas={} layer={}", self.canvas, self.layer)?;
        writeln!(
            f,
            "  serving plan: {} (policy: {})",
            self.plan.label(),
            self.policy_label
        )?;
        match &self.fetch_sql {
            Some(sql) => {
                writeln!(f, "  fetch SQL: {sql}")?;
                writeln!(f, "  storage plan:")?;
                for line in &self.storage_plan {
                    writeln!(f, "    {line}")?;
                }
            }
            None => writeln!(f, "  fetch SQL: none (static layer)")?,
        }
        Ok(())
    }
}
