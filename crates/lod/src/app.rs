//! Multi-canvas app generation: turn a built pyramid into a complete
//! [`AppSpec`] — one canvas per level, auto-wired with
//! `geometric_semantic_zoom` jumps between adjacent levels.

use crate::config::LodConfig;
use kyrix_core::{
    link_zoom_levels, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, PlanHint,
    RenderSpec, TransformSpec, ZoomLevelRef,
};

/// Coordinate columns of a level's table (raw columns at level 0,
/// cluster centers above).
fn coord_cols(cfg: &LodConfig, level: usize) -> (String, String) {
    if level == 0 {
        (cfg.x_column.clone(), cfg.y_column.clone())
    } else {
        ("cx".into(), "cy".into())
    }
}

/// Generate the multi-canvas application for a pyramid: canvas `level{k}`
/// shows table `{table}_lod{k}` (the raw table at `k = 0`) on a canvas
/// shrunk by `zoom_factor^k`, with zoom-in/zoom-out jumps linking every
/// adjacent level and the initial view on the coarsest level.
///
/// Every layer is the separable shape (`SELECT *` + point placement on
/// indexed columns), so launching a server over a built pyramid skips
/// materialization and serves straight off the level tables' R-trees.
///
/// Each layer also carries the mixed-plan default as a
/// [`PlanHint`]: clustered levels are spacing-bounded — dense, uniformly
/// covered, never more than one mark per spacing cell — which is exactly
/// the static-tile sweet spot, while the raw level 0 keeps the full data
/// skew and wants dynamic (ideally density-adaptive) boxes. A server
/// launched with a hint-following policy (`PlanPolicy::SpecHints` in
/// `kyrix-server`) serves the pyramid mixed; uniform policies ignore the
/// hints.
pub fn lod_app(cfg: &LodConfig, viewport: (f64, f64)) -> AppSpec {
    let mut app = AppSpec::new(format!("{}_lod", cfg.table));
    for k in 0..=cfg.levels {
        let table = cfg.level_table(k);
        let (xc, yc) = coord_cols(cfg, k);
        let marks = if k == 0 {
            MarkEncoding::circle().with_size("1.5")
        } else {
            // cluster dots grow slowly with the points they stand for
            MarkEncoding::circle().with_size("min(12, 1.5 + sqrt(sqrt(cnt)))")
        };
        let hint = if k == 0 {
            PlanHint::DynamicBox
        } else {
            PlanHint::StaticTiles
        };
        app = app
            .add_transform(TransformSpec::query(
                &table,
                format!("SELECT * FROM {table}"),
            ))
            .add_canvas({
                let (w, h) = cfg.level_size(k);
                CanvasSpec::new(cfg.level_canvas(k), w, h).layer(
                    LayerSpec::dynamic(
                        &table,
                        PlacementSpec::point(xc, yc),
                        RenderSpec::Marks(marks),
                    )
                    .with_plan_hint(hint),
                )
            });
    }
    let chain: Vec<ZoomLevelRef> = (0..=cfg.levels)
        .rev()
        .map(|k| {
            let (xc, yc) = coord_cols(cfg, k);
            ZoomLevelRef::new(cfg.level_canvas(k), xc, yc)
        })
        .collect();
    for jump in link_zoom_levels(&chain, cfg.zoom_factor) {
        app = app.add_jump(jump);
    }
    let (tw, th) = cfg.level_size(cfg.levels);
    app.initial(cfg.level_canvas(cfg.levels), tw / 2.0, th / 2.0)
        .viewport(viewport.0, viewport.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyrix_core::JumpType;

    #[test]
    fn generated_app_has_one_canvas_per_level_and_linked_jumps() {
        let cfg = LodConfig::new("pts", 4096.0, 4096.0, 3).with_measure("m");
        let app = lod_app(&cfg, (512.0, 512.0));
        assert_eq!(app.canvases.len(), 4);
        assert_eq!(app.transforms.len(), 4);
        assert_eq!(app.jumps.len(), 6, "3 adjacent pairs x 2 directions");
        assert_eq!(app.initial_canvas, "level3");
        assert_eq!(app.canvas("level3").unwrap().width, 512.0);
        assert_eq!(app.canvas("level0").unwrap().width, 4096.0);
        assert!(app
            .jumps
            .iter()
            .all(|j| j.jump_type == JumpType::GeometricSemanticZoom));
        // zoom-in from the coarsest level lands on level2
        let zin = app.jump("zoomin_level3_level2").unwrap();
        assert_eq!((zin.from.as_str(), zin.to.as_str()), ("level3", "level2"));
        // zoom-out from raw uses the raw coordinate columns
        let zout = app.jump("zoomout_level0_level1").unwrap();
        assert_eq!(zout.viewport_x.as_deref(), Some("x / 2"));
    }

    #[test]
    fn mixed_plan_hints_by_default() {
        use kyrix_core::PlanHint;
        let cfg = LodConfig::new("pts", 4096.0, 4096.0, 2);
        let app = lod_app(&cfg, (512.0, 512.0));
        let hint = |canvas: &str| app.canvas(canvas).unwrap().layers[0].plan_hint;
        assert_eq!(hint("level0"), Some(PlanHint::DynamicBox), "raw level");
        assert_eq!(hint("level1"), Some(PlanHint::StaticTiles));
        assert_eq!(hint("level2"), Some(PlanHint::StaticTiles));
    }
}
