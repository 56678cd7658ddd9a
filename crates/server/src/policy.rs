//! Per-layer fetch-plan policies.
//!
//! The paper frames static tiles and dynamic boxes as per-situation
//! choices — tiles suit dense, uniformly covered canvases; boxes suit
//! sparse or skewed ones. A multi-canvas app (most acutely a Kyrix-S LoD
//! zoom hierarchy, whose coarse cluster levels are ideal tile targets
//! while the million-row raw level wants density-adaptive boxes) therefore
//! needs *mixed* plans in one server. [`PlanPolicy`] expresses how the
//! concrete [`FetchPlan`] for each `(canvas, layer)` is chosen;
//! [`crate::KyrixServer::launch`] resolves it once per layer at
//! precomputation time and threads the resolved plan through every fetch,
//! cache, and prefetch site.

use crate::precompute::FetchPlan;
use kyrix_core::{CompiledLayer, PlanHint};

/// How the fetch plan of each `(canvas, layer)` is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanPolicy {
    /// One plan for every layer of every canvas (the pre-policy behavior).
    Uniform(FetchPlan),
    /// Explicit per-`(canvas, layer)` overrides with a fallback — the
    /// finest-grained policy, for a developer who measured their app and
    /// picked a plan per layer (the paper's §4 methodology).
    PerLayer {
        /// Plan for layers without an override.
        default: FetchPlan,
        /// `((canvas id, layer index), plan)` overrides.
        overrides: Vec<((String, usize), FetchPlan)>,
    },
    /// Follow the spec's per-layer [`PlanHint`]s: hinted layers get the
    /// matching plan; unhinted layers get `boxes` (dynamic boxes are the
    /// paper's general-purpose design).
    SpecHints {
        /// Plan for layers hinted toward static tiles.
        tiles: FetchPlan,
        /// Plan for layers hinted toward (or defaulting to) dynamic boxes.
        boxes: FetchPlan,
    },
}

impl PlanPolicy {
    /// Uniform policy over one plan.
    pub fn uniform(plan: FetchPlan) -> Self {
        PlanPolicy::Uniform(plan)
    }

    /// Per-layer policy builder: start from a fallback plan and override
    /// individual `(canvas, layer)`s with [`PlanPolicy::with_layer`].
    pub fn per_layer(default: FetchPlan) -> Self {
        PlanPolicy::PerLayer {
            default,
            overrides: Vec::new(),
        }
    }

    /// Override one `(canvas, layer)`. Only meaningful on the
    /// [`PlanPolicy::PerLayer`] variant; calling it on any other variant
    /// is a configuration mistake and panics in debug builds.
    pub fn with_layer(mut self, canvas: impl Into<String>, layer: usize, plan: FetchPlan) -> Self {
        if let PlanPolicy::PerLayer { overrides, .. } = &mut self {
            overrides.push(((canvas.into(), layer), plan));
        } else {
            debug_assert!(
                false,
                "with_layer on a {self:?}: the override would be ignored"
            );
        }
        self
    }

    /// Resolve the concrete plan for one layer.
    pub fn resolve(&self, layer: &CompiledLayer) -> FetchPlan {
        match self {
            PlanPolicy::Uniform(plan) => *plan,
            PlanPolicy::PerLayer { default, overrides } => overrides
                .iter()
                .find(|((c, l), _)| *c == layer.canvas_id && *l == layer.layer_index)
                .map(|(_, p)| *p)
                .unwrap_or(*default),
            PlanPolicy::SpecHints { tiles, boxes } => match layer.plan_hint {
                Some(PlanHint::StaticTiles) => *tiles,
                Some(PlanHint::DynamicBox) | None => *boxes,
            },
        }
    }

    /// Legend label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            PlanPolicy::Uniform(plan) => plan.label(),
            PlanPolicy::PerLayer { default, overrides } => {
                format!(
                    "per-layer({}, {} overrides)",
                    default.label(),
                    overrides.len()
                )
            }
            PlanPolicy::SpecHints { tiles, boxes } => {
                format!("hinted({} / {})", tiles.label(), boxes.label())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbox::BoxPolicy;
    use crate::precompute::TileDesign;
    use kyrix_core::{CompiledRender, CompiledTransform};
    use kyrix_storage::Schema;

    fn layer(canvas: &str, hint: Option<PlanHint>) -> CompiledLayer {
        CompiledLayer {
            canvas_id: canvas.to_string(),
            layer_index: 0,
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
            plan_hint: hint,
        }
    }

    const TILES: FetchPlan = FetchPlan::StaticTiles {
        size: 256.0,
        design: TileDesign::SpatialIndex,
    };
    const BOXES: FetchPlan = FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    };

    #[test]
    fn uniform_ignores_everything() {
        let p = PlanPolicy::uniform(TILES);
        assert_eq!(p.resolve(&layer("a", Some(PlanHint::DynamicBox))), TILES);
    }

    #[test]
    fn per_layer_overrides_win_and_fall_back() {
        let p = PlanPolicy::per_layer(BOXES).with_layer("coarse", 0, TILES);
        assert_eq!(p.resolve(&layer("coarse", None)), TILES);
        let other_layer = CompiledLayer {
            layer_index: 1,
            ..layer("coarse", None)
        };
        assert_eq!(p.resolve(&other_layer), BOXES, "same canvas, other layer");
        assert_eq!(p.resolve(&layer("raw", None)), BOXES);
    }

    #[test]
    fn spec_hints_follow_the_layer() {
        let p = PlanPolicy::SpecHints {
            tiles: TILES,
            boxes: BOXES,
        };
        assert_eq!(p.resolve(&layer("c", Some(PlanHint::StaticTiles))), TILES);
        assert_eq!(p.resolve(&layer("c", Some(PlanHint::DynamicBox))), BOXES);
        assert_eq!(p.resolve(&layer("c", None)), BOXES, "unhinted → boxes");
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(PlanPolicy::uniform(BOXES).label(), BOXES.label());
        assert!(PlanPolicy::per_layer(BOXES)
            .with_layer("c", 0, TILES)
            .label()
            .contains("per-layer"));
        assert!(PlanPolicy::SpecHints {
            tiles: TILES,
            boxes: BOXES
        }
        .label()
        .contains("hinted"));
    }
}
