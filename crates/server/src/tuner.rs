//! Trace-cost-driven plan auto-tuning.
//!
//! The paper picks between precomputed tiles and dynamic boxes per
//! deployment by *measuring* end-to-end response time (§4, Figures 6/7),
//! and Kyrix-S extends that to per-level serving decisions. This module
//! automates it: when a server is launched with
//! [`PlanPolicy::Measured`], the tuner replays a representative
//! [`CalibrationTrace`] against *every* candidate [`FetchPlan`] of every
//! non-static `(canvas, layer)`, accumulates the per-candidate
//! [`FetchMetrics`], scores them with [`FetchMetrics::modeled_ms`] under
//! the server's [`CostModel`], and resolves the cheapest plan per layer.
//!
//! A layer's store does not depend on its plan, so the launch builds every
//! store first and the tuner measures every candidate on one pinned view
//! over them — one database or several shards, the calibration replay pays
//! exactly the serve the launched server will. Replay uses the cold-cache
//! serve (`fetch::fetch_plan_cold`): what the server's region fetch costs
//! with nothing cached, a multi-tile viewport under tiles included.
//!
//! The winning assignment is exposed through
//! [`crate::KyrixServer::tuning_report`] as a [`TuningReport`], which can
//! be frozen into a static [`PlanPolicy::PerLayer`] policy
//! ([`TuningReport::frozen_policy`]) so later launches skip the
//! calibration replay.

use crate::backend::SnapshotView;
use crate::cost::CostModel;
use crate::error::{Result, ServerError};
use crate::fetch::{cold_target, fetch_cold};
use crate::metrics::FetchMetrics;
use crate::policy::PlanPolicy;
use crate::precompute::{FetchPlan, LayerStore};
use kyrix_core::CompiledApp;
use kyrix_storage::fxhash::FxHashMap;
use kyrix_storage::Rect;

/// A representative sequence of `(canvas, viewport)` steps the tuner
/// replays to cost candidate plans. Steps on canvases the app does not
/// have are simply never consulted; a canvas with *no* steps cannot be
/// measured and falls back to the first candidate (candidate order is the
/// preference order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationTrace {
    steps: Vec<(String, Rect)>,
}

impl CalibrationTrace {
    /// An empty trace; fill it with [`CalibrationTrace::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from pre-assembled `(canvas, viewport)` steps (e.g.
    /// `kyrix_lod::lod_calibration_walk` output or a recorded session).
    pub fn from_steps(steps: Vec<(String, Rect)>) -> Self {
        CalibrationTrace { steps }
    }

    /// Append one step.
    pub fn push(&mut self, canvas: impl Into<String>, rect: Rect) {
        self.steps.push((canvas.into(), rect));
    }

    /// Total steps across all canvases.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace has no steps at all.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The viewports this trace visits on one canvas, in trace order.
    pub fn steps_for(&self, canvas: &str) -> Vec<Rect> {
        self.steps
            .iter()
            .filter(|(c, _)| c == canvas)
            .map(|(_, r)| *r)
            .collect()
    }
}

/// What one candidate plan cost on one layer's calibration steps.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCost {
    /// The candidate plan that was measured.
    pub plan: FetchPlan,
    /// Metrics accumulated over the layer's calibration steps (cold-cache
    /// protocol: every step pays its full fetch).
    pub metrics: FetchMetrics,
    /// [`FetchMetrics::modeled_ms`] of `metrics` under the tuning cost
    /// model — the quantity the tuner minimizes.
    pub modeled_ms: f64,
}

/// The tuning outcome for one `(canvas, layer)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTuning {
    /// Canvas id of the tuned layer.
    pub canvas: String,
    /// Layer index within the canvas.
    pub layer: usize,
    /// Calibration steps that were replayed for this layer (0 means the
    /// trace never visits the canvas and the first candidate won by
    /// default).
    pub steps: usize,
    /// Index into `candidates` of the winning plan. Ties keep the earliest
    /// candidate, so candidate order doubles as the preference order.
    pub chosen: usize,
    /// Every candidate's measured cost, in candidate (preference) order.
    pub candidates: Vec<CandidateCost>,
}

impl LayerTuning {
    /// The winning plan.
    pub fn chosen_plan(&self) -> FetchPlan {
        self.candidates[self.chosen].plan
    }

    /// The winning candidate's full measured cost.
    pub fn chosen_cost(&self) -> &CandidateCost {
        &self.candidates[self.chosen]
    }
}

/// The full per-layer assignment a `Measured` launch resolved, with every
/// candidate's measured cost kept for inspection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TuningReport {
    /// One entry per tuned (non-static) `(canvas, layer)`.
    pub layers: Vec<LayerTuning>,
}

impl TuningReport {
    /// The plan tuned for one `(canvas, layer)` (None for static layers
    /// and unknown canvases — those are not tuned).
    pub fn chosen(&self, canvas: &str, layer: usize) -> Option<FetchPlan> {
        self.layers
            .iter()
            .find(|l| l.canvas == canvas && l.layer == layer)
            .map(|l| l.chosen_plan())
    }

    /// Total modeled cost of the tuned assignment over the calibration
    /// trace: the sum of every layer's winning candidate cost. Because each
    /// layer's winner is the per-layer minimum of the *same* measurements,
    /// this total is ≤ [`TuningReport::uniform_modeled_ms`] of every
    /// candidate (it may tie, never lose).
    pub fn total_modeled_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.chosen_cost().modeled_ms).sum()
    }

    /// What serving *every* layer with one fixed candidate would have cost
    /// on the same calibration measurements. None when some layer did not
    /// measure `plan` (it was not among that launch's candidates).
    pub fn uniform_modeled_ms(&self, plan: &FetchPlan) -> Option<f64> {
        let mut total = 0.0;
        for layer in &self.layers {
            total += layer
                .candidates
                .iter()
                .find(|c| c.plan == *plan)?
                .modeled_ms;
        }
        Some(total)
    }

    /// Freeze the tuned assignment into a static [`PlanPolicy::PerLayer`]
    /// policy, so later launches of the same app reuse the measured
    /// decision without replaying the calibration trace. Every tuned
    /// `(canvas, layer)` carries its own override, so the frozen policy
    /// resolves each layer exactly as the tuner did — including canvases
    /// whose layers mix plans, which the earlier per-canvas freezing
    /// flattened to the first tuned layer's plan. Layers the tuner never
    /// saw (static layers, canvases added later) fall back to `default`.
    pub fn frozen_policy(&self, default: FetchPlan) -> PlanPolicy {
        PlanPolicy::PerLayer {
            default,
            overrides: self
                .layers
                .iter()
                .map(|l| ((l.canvas.clone(), l.layer), l.chosen_plan()))
                .collect(),
        }
    }

    /// One-line human-readable assignment, e.g.
    /// `level0/0→dbox exact, level1/0→tile spatial 1024`.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| format!("{}/{}→{}", l.canvas, l.layer, l.chosen_plan().label()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Replay calibration steps against one `(store, plan)` pair and
/// accumulate the cold-serve metrics (the tuner's measurement inner loop).
/// Reads go through a pinned [`SnapshotView`] — the same read surface the
/// launched server serves from, over one database or several shards.
pub fn measure_plan(
    snap: &dyn SnapshotView,
    store: &LayerStore,
    plan: &FetchPlan,
    canvas_bounds: &Rect,
    steps: &[Rect],
) -> Result<FetchMetrics> {
    measure_shared(
        snap,
        store,
        plan,
        canvas_bounds,
        steps,
        &mut Measured::default(),
    )
}

/// The cold fetches already measured on one store, by the part of their
/// target rectangle inside the canvas.
type Measured = FxHashMap<[u64; 4], FetchMetrics>;

/// [`measure_plan`], costing a fetch with the first measurement in
/// `measured` when an earlier step or candidate made the same fetch on
/// this store: the same rectangle within the canvas, returning as many
/// rows and bytes. (A tile or viewport larger than a small canvas and
/// the exact box clamped to that canvas are the same fetch.)
fn measure_shared(
    snap: &dyn SnapshotView,
    store: &LayerStore,
    plan: &FetchPlan,
    canvas_bounds: &Rect,
    steps: &[Rect],
    measured: &mut Measured,
) -> Result<FetchMetrics> {
    let mut totals = FetchMetrics::default();
    for rect in steps {
        let Some(target) = cold_target(snap, store, plan, canvas_bounds, rect)? else {
            continue;
        };
        let inside = target.intersection(canvas_bounds);
        let key = [inside.min_x, inside.min_y, inside.max_x, inside.max_y].map(f64::to_bits);
        let (_, fresh) = fetch_cold(snap, store, &target)?;
        let metrics = match measured.get(&key) {
            Some(first) if (first.rows, first.bytes) == (fresh.rows, fresh.bytes) => *first,
            _ => {
                measured.insert(key, fresh);
                fresh
            }
        };
        totals.merge(&metrics);
    }
    Ok(totals)
}

/// The plan each `(canvas, layer)` resolved to.
pub(crate) type LayerPlans = FxHashMap<(u32, u32), FetchPlan>;

/// Resolve a `Measured` policy: measure every candidate plan of every
/// non-static layer on the layer's calibration steps, against the layer's
/// one `store` on the pinned `view`, and keep the cheapest (strict `<`:
/// ties keep the earlier candidate, so candidate order is the preference
/// order). A fetch several candidates make — a cold multi-tile viewport
/// under tiles is the very fetch an exact box makes — is costed with its
/// first measurement on the layer, so candidates that fetch the same work
/// tie exactly instead of being told apart by DB-time noise. Static
/// layers take the first candidate. Because the measured cost is the
/// serve itself, a sharded launch resolves the same assignment as a
/// single-node launch whenever the shard fan-out does not change which
/// plan is cheapest.
pub(crate) fn tune(
    view: &dyn SnapshotView,
    app: &CompiledApp,
    stores: &FxHashMap<(u32, u32), LayerStore>,
    candidates: &[FetchPlan],
    trace: &CalibrationTrace,
    cost: &CostModel,
) -> Result<(LayerPlans, TuningReport)> {
    let Some(&first) = candidates.first() else {
        return Err(ServerError::Config(
            "Measured policy needs at least one candidate plan".to_string(),
        ));
    };
    let mut plans = FxHashMap::default();
    let mut tuning = TuningReport::default();
    for (ci, canvas) in app.canvases.iter().enumerate() {
        let bounds = canvas.bounds();
        for (li, layer) in canvas.layers.iter().enumerate() {
            let key = (ci as u32, li as u32);
            if layer.is_static {
                plans.insert(key, first);
                continue;
            }
            let store = stores.get(&key).ok_or_else(|| {
                ServerError::Config(format!("no store for layer {li} of `{}`", canvas.id))
            })?;
            let steps = trace.steps_for(&canvas.id);
            let mut measured = Measured::default();
            let mut costs: Vec<CandidateCost> = Vec::with_capacity(candidates.len());
            let mut chosen = 0;
            for plan in candidates {
                let metrics = measure_shared(view, store, plan, &bounds, &steps, &mut measured)?;
                let modeled_ms = metrics.modeled_ms(cost);
                if !costs.is_empty() && modeled_ms < costs[chosen].modeled_ms {
                    chosen = costs.len();
                }
                costs.push(CandidateCost {
                    plan: *plan,
                    metrics,
                    modeled_ms,
                });
            }
            plans.insert(key, costs[chosen].plan);
            tuning.layers.push(LayerTuning {
                canvas: canvas.id.clone(),
                layer: li,
                steps: steps.len(),
                chosen,
                candidates: costs,
            });
        }
    }
    Ok((plans, tuning))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbox::BoxPolicy;
    use crate::precompute::TileDesign;

    const TILES: FetchPlan = FetchPlan::StaticTiles {
        size: 64.0,
        design: TileDesign::SpatialIndex,
    };
    const BOXES: FetchPlan = FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    };

    fn cand(plan: FetchPlan, modeled_ms: f64) -> CandidateCost {
        CandidateCost {
            plan,
            metrics: FetchMetrics::default(),
            modeled_ms,
        }
    }

    fn report() -> TuningReport {
        TuningReport {
            layers: vec![
                LayerTuning {
                    canvas: "coarse".into(),
                    layer: 0,
                    steps: 3,
                    chosen: 0,
                    candidates: vec![cand(TILES, 5.0), cand(BOXES, 9.0)],
                },
                LayerTuning {
                    canvas: "raw".into(),
                    layer: 0,
                    steps: 3,
                    chosen: 1,
                    candidates: vec![cand(TILES, 20.0), cand(BOXES, 4.0)],
                },
            ],
        }
    }

    #[test]
    fn trace_groups_steps_by_canvas() {
        let mut t = CalibrationTrace::new();
        assert!(t.is_empty());
        t.push("a", Rect::new(0.0, 0.0, 1.0, 1.0));
        t.push("b", Rect::new(1.0, 0.0, 2.0, 1.0));
        t.push("a", Rect::new(2.0, 0.0, 3.0, 1.0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.steps_for("a").len(), 2);
        assert_eq!(t.steps_for("b"), vec![Rect::new(1.0, 0.0, 2.0, 1.0)]);
        assert!(t.steps_for("missing").is_empty());
    }

    #[test]
    fn report_totals_take_the_per_layer_minimum() {
        let r = report();
        assert_eq!(r.total_modeled_ms(), 5.0 + 4.0);
        assert_eq!(r.uniform_modeled_ms(&TILES), Some(25.0));
        assert_eq!(r.uniform_modeled_ms(&BOXES), Some(13.0));
        // the mixed assignment beats (or ties) every uniform one
        assert!(r.total_modeled_ms() <= r.uniform_modeled_ms(&TILES).unwrap());
        assert!(r.total_modeled_ms() <= r.uniform_modeled_ms(&BOXES).unwrap());
        // a plan no layer measured has no uniform cost
        let other = FetchPlan::StaticTiles {
            size: 1.0,
            design: TileDesign::SpatialIndex,
        };
        assert_eq!(r.uniform_modeled_ms(&other), None);
    }

    #[test]
    fn report_resolves_and_freezes() {
        let r = report();
        assert_eq!(r.chosen("coarse", 0), Some(TILES));
        assert_eq!(r.chosen("raw", 0), Some(BOXES));
        assert_eq!(r.chosen("nope", 0), None);
        let PlanPolicy::PerLayer { default, overrides } = r.frozen_policy(BOXES) else {
            panic!("frozen policy must be PerLayer");
        };
        assert_eq!(default, BOXES);
        assert_eq!(
            overrides,
            vec![
                (("coarse".to_string(), 0), TILES),
                (("raw".to_string(), 0), BOXES)
            ]
        );
        assert!(r.summary().contains("coarse/0→tile spatial 64"));
    }

    /// Regression: the earlier freezing flattened to *per canvas* (the
    /// first tuned layer of a canvas won), so a canvas whose layers were
    /// tuned to different plans could not be frozen exactly. The frozen
    /// policy must now resolve every `(canvas, layer)` to its tuned plan.
    #[test]
    fn frozen_policy_preserves_mixed_plans_within_one_canvas() {
        use kyrix_core::{CompiledLayer, CompiledRender, CompiledTransform};
        use kyrix_storage::Schema;

        let r = TuningReport {
            layers: vec![
                LayerTuning {
                    canvas: "combo".into(),
                    layer: 0,
                    steps: 2,
                    chosen: 0,
                    candidates: vec![cand(TILES, 3.0), cand(BOXES, 8.0)],
                },
                LayerTuning {
                    canvas: "combo".into(),
                    layer: 1,
                    steps: 2,
                    chosen: 1,
                    candidates: vec![cand(TILES, 9.0), cand(BOXES, 2.0)],
                },
            ],
        };
        let frozen = r.frozen_policy(BOXES);
        let layer = |index: usize| CompiledLayer {
            canvas_id: "combo".to_string(),
            layer_index: index,
            transform: CompiledTransform {
                id: "t".into(),
                query: None,
                base_schema: Schema::empty(),
                derived: Vec::new(),
                columns: Vec::new(),
            },
            is_static: false,
            placement: None,
            rendering: CompiledRender::Static(Vec::new()),
            plan_hint: None,
        };
        assert_eq!(frozen.resolve(&layer(0)), TILES, "layer 0 kept its plan");
        assert_eq!(frozen.resolve(&layer(1)), BOXES, "layer 1 kept its plan");
        // an untuned layer of the same canvas falls back to the default
        assert_eq!(frozen.resolve(&layer(2)), BOXES);
    }
}
