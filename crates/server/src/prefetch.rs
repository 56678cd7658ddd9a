//! Predictive prefetching (paper §4).
//!
//! The paper discusses ForeCache's two predictors and plans to evaluate
//! them in the dynamic-box context; this module implements both:
//!
//! * **Momentum-based**: the user's recent pan velocity is extrapolated to
//!   predict the next viewport ([`MomentumTracker`], [`predict_viewport`]).
//! * **Semantic-based**: neighbors of the current viewport are ranked by
//!   how similar their *data characteristics* (a normalized density
//!   histogram, [`RegionSignature`]) are to what the user has recently
//!   been looking at ([`SemanticTracker`], [`rank_by_similarity`]) — users
//!   exploring a dense cluster tend to keep exploring it.
//!
//! Both run on one background worker (see `server.rs`): a pan hint only
//! enqueues the viewport and its velocity, and the worker predicts with the
//! server's configured predictor and warms the backend caches with the
//! predicted regions before the real request arrives.

use kyrix_storage::Rect;

/// Velocities below this fraction of the viewport extent (per axis) are
/// treated as "stopped". [`MomentumTracker`]'s exponential smoothing never
/// reaches exactly zero after a pan ends — the residual halves per
/// observation — so an exact-zero check would keep the prefetch worker
/// issuing backend queries for sub-pixel-shifted viewports for dozens of
/// idle observations. At 1e-3, a pan of half a viewport decays below the
/// threshold within 9 idle observations (`0.5 * 0.5^9 < 1e-3`).
pub const MIN_VELOCITY_FRAC: f64 = 1e-3;

/// Predict the next viewport from the current one and the most recent
/// per-step velocity. `None` when the velocity is negligible relative to
/// the viewport size (the user has stopped panning).
pub fn predict_viewport(current: &Rect, velocity: (f64, f64)) -> Option<Rect> {
    let (dx, dy) = velocity;
    let moving = dx.abs() > current.width() * MIN_VELOCITY_FRAC
        || dy.abs() > current.height() * MIN_VELOCITY_FRAC;
    moving.then(|| current.translate(dx, dy))
}

/// Tracks recent viewports to derive a momentum estimate.
#[derive(Debug, Default, Clone)]
pub struct MomentumTracker {
    last: Option<Rect>,
    velocity: (f64, f64),
}

impl MomentumTracker {
    /// A tracker with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a new viewport; returns the velocity estimate (per step).
    pub fn observe(&mut self, viewport: &Rect) -> (f64, f64) {
        if let Some(prev) = &self.last {
            let (pc, cc) = (prev.center(), viewport.center());
            // simple exponential smoothing so one erratic pan does not
            // dominate the prediction
            let (vx, vy) = (cc.x - pc.x, cc.y - pc.y);
            self.velocity = (
                0.5 * self.velocity.0 + 0.5 * vx,
                0.5 * self.velocity.1 + 0.5 * vy,
            );
        }
        self.last = Some(*viewport);
        self.velocity
    }

    /// The current smoothed per-step velocity estimate.
    pub fn velocity(&self) -> (f64, f64) {
        self.velocity
    }

    /// Forget history (e.g. after a jump to a different canvas).
    pub fn reset(&mut self) {
        self.last = None;
        self.velocity = (0.0, 0.0);
    }
}

// -------------------------------------------------------------- semantic

/// A normalized density histogram over a region: `grid × grid` cell counts
/// divided by the total (all-zero regions normalize to uniform). This is
/// the "data characteristics" summary ForeCache compares for its
/// semantic-based prefetching.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSignature {
    cells: Vec<f64>,
}

impl RegionSignature {
    /// Histogram resolution used throughout (3×3 keeps the per-candidate
    /// probing cost at 9 count queries).
    pub const GRID: usize = 3;

    /// Build from raw per-cell counts (row-major, `GRID × GRID`).
    pub fn from_counts(counts: &[u64]) -> RegionSignature {
        let total: u64 = counts.iter().sum();
        let cells = if total == 0 {
            vec![1.0 / counts.len() as f64; counts.len()]
        } else {
            counts.iter().map(|&c| c as f64 / total as f64).collect()
        };
        RegionSignature { cells }
    }

    /// The sub-rectangles whose counts feed [`RegionSignature::from_counts`],
    /// row-major. Every edge is derived from its cell *index* (not by
    /// accumulating `x0 + w`, whose floating-point error can leave the
    /// region's own max edge outside every cell), and the last edge is
    /// exactly `region.max_*`: a mark sitting on the region boundary always
    /// lands in some cell, so signatures stay faithful to the data.
    pub fn cell_rects(region: &Rect) -> Vec<Rect> {
        let n = Self::GRID;
        let edge_x = |i: usize| {
            if i == n {
                region.max_x
            } else {
                region.min_x + region.width() * i as f64 / n as f64
            }
        };
        let edge_y = |i: usize| {
            if i == n {
                region.max_y
            } else {
                region.min_y + region.height() * i as f64 / n as f64
            }
        };
        let mut out = Vec::with_capacity(n * n);
        for gy in 0..n {
            for gx in 0..n {
                out.push(Rect::new(
                    edge_x(gx),
                    edge_y(gy),
                    edge_x(gx + 1),
                    edge_y(gy + 1),
                ));
            }
        }
        out
    }

    /// L1 distance between two signatures (0 = identical distribution,
    /// 2 = disjoint).
    pub fn distance(&self, other: &RegionSignature) -> f64 {
        self.cells
            .iter()
            .zip(&other.cells)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

/// Exponentially smoothed signature of recently viewed regions.
#[derive(Debug, Default, Clone)]
pub struct SemanticTracker {
    current: Option<RegionSignature>,
}

impl SemanticTracker {
    /// A tracker with no profile yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blend a newly viewed region's signature into the running profile
    /// (weight 0.5, like the momentum tracker's smoothing); returns the
    /// blended profile.
    pub fn observe(&mut self, sig: &RegionSignature) -> &RegionSignature {
        let blended = match &self.current {
            None => sig.clone(),
            Some(prev) => RegionSignature {
                cells: prev
                    .cells
                    .iter()
                    .zip(&sig.cells)
                    .map(|(p, s)| 0.5 * p + 0.5 * s)
                    .collect(),
            },
        };
        self.current.insert(blended)
    }
}

/// The 8 viewport-sized neighbors of a region (the semantic predictor's
/// candidate set), clipped-out ones included — the server drops candidates
/// outside the canvas.
pub fn neighbor_rects(viewport: &Rect) -> Vec<Rect> {
    let (w, h) = (viewport.width(), viewport.height());
    let mut out = Vec::with_capacity(8);
    for dy in [-1.0, 0.0, 1.0] {
        for dx in [-1.0, 0.0, 1.0] {
            if dx == 0.0 && dy == 0.0 {
                continue;
            }
            out.push(viewport.translate(dx * w, dy * h));
        }
    }
    out
}

/// Rank candidate regions by signature similarity to the user's profile
/// (most similar first). Ties keep candidate order (stable sort).
pub fn rank_by_similarity(
    profile: &RegionSignature,
    candidates: Vec<(Rect, RegionSignature)>,
) -> Vec<Rect> {
    let mut scored: Vec<(f64, Rect)> = candidates
        .into_iter()
        .map(|(r, sig)| (profile.distance(&sig), r))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    scored.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_along_velocity() {
        let vp = Rect::new(0.0, 0.0, 100.0, 100.0);
        assert_eq!(
            predict_viewport(&vp, (50.0, 0.0)),
            Some(Rect::new(50.0, 0.0, 150.0, 100.0))
        );
    }

    #[test]
    fn zero_velocity_predicts_nothing() {
        let vp = Rect::new(0.0, 0.0, 100.0, 100.0);
        assert_eq!(predict_viewport(&vp, (0.0, 0.0)), None);
    }

    #[test]
    fn sub_threshold_velocity_predicts_nothing() {
        // residual velocity far below a pixel on a 1024-unit viewport
        let vp = Rect::new(0.0, 0.0, 1024.0, 1024.0);
        assert_eq!(predict_viewport(&vp, (0.5, 0.0)), None);
        assert_eq!(predict_viewport(&vp, (0.0, -0.5)), None);
        // one healthy axis is enough to keep predicting
        assert!(predict_viewport(&vp, (64.0, 0.5)).is_some());
    }

    #[test]
    fn momentum_decays_to_silence_after_a_stopped_pan() {
        // regression: the smoothed velocity never reaches exactly zero, so
        // an exact-zero check kept predicting (and the worker kept querying)
        // long after the pan ended; the relative threshold must silence the
        // predictor within a bounded number of idle observations — forever.
        let mut t = MomentumTracker::new();
        let mut vp = Rect::new(0.0, 0.0, 1024.0, 1024.0);
        for _ in 0..10 {
            vp = vp.translate(512.0, 0.0);
            t.observe(&vp);
        }
        // the pan stops: the same viewport is observed from now on
        let mut predictions_after_stop = 0;
        let mut quiet_from = None;
        for i in 0..64 {
            let v = t.observe(&vp);
            if predict_viewport(&vp, v).is_none() {
                quiet_from.get_or_insert(i);
            } else {
                predictions_after_stop += 1;
                assert!(
                    quiet_from.is_none(),
                    "observation {i} predicted again after going quiet"
                );
            }
        }
        let quiet_from = quiet_from.expect("predictor must go quiet");
        assert!(
            quiet_from <= 12,
            "still predicting after {quiet_from} idle observations"
        );
        assert_eq!(predictions_after_stop, quiet_from);
    }

    #[test]
    fn tracker_converges_on_steady_pan() {
        let mut t = MomentumTracker::new();
        let mut vp = Rect::new(0.0, 0.0, 100.0, 100.0);
        for _ in 0..10 {
            vp = vp.translate(64.0, 0.0);
            t.observe(&vp);
        }
        let (vx, vy) = t.velocity();
        assert!((vx - 64.0).abs() < 1.0, "vx = {vx}");
        assert!(vy.abs() < 1e-9);
    }

    #[test]
    fn tracker_reset_clears_history() {
        let mut t = MomentumTracker::new();
        t.observe(&Rect::new(0.0, 0.0, 10.0, 10.0));
        t.observe(&Rect::new(5.0, 0.0, 15.0, 10.0));
        assert_ne!(t.velocity(), (0.0, 0.0));
        t.reset();
        assert_eq!(t.velocity(), (0.0, 0.0));
        // after reset the first observation sets no velocity
        t.observe(&Rect::new(100.0, 0.0, 110.0, 10.0));
        assert_eq!(t.velocity(), (0.0, 0.0));
    }

    // ------------------------------------------------------- semantic

    #[test]
    fn signature_normalizes_and_handles_empty() {
        let n = RegionSignature::GRID * RegionSignature::GRID;
        let mut counts = vec![0u64; n];
        counts[0] = 30;
        counts[1] = 10;
        let s = RegionSignature::from_counts(&counts);
        assert!((s.cells[0] - 0.75).abs() < 1e-12);
        assert!((s.cells[1] - 0.25).abs() < 1e-12);
        // empty region → uniform (distance 0 to another empty region)
        let empty = RegionSignature::from_counts(&vec![0u64; n]);
        let empty2 = RegionSignature::from_counts(&vec![0u64; n]);
        assert_eq!(empty.distance(&empty2), 0.0);
    }

    #[test]
    fn distance_bounds() {
        let n = RegionSignature::GRID * RegionSignature::GRID;
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        a[0] = 5;
        b[n - 1] = 9;
        let (sa, sb) = (
            RegionSignature::from_counts(&a),
            RegionSignature::from_counts(&b),
        );
        assert_eq!(sa.distance(&sa.clone()), 0.0);
        assert!((sa.distance(&sb) - 2.0).abs() < 1e-12, "disjoint mass");
    }

    #[test]
    fn cell_rects_tile_the_region() {
        let region = Rect::new(0.0, 0.0, 90.0, 90.0);
        let cells = RegionSignature::cell_rects(&region);
        assert_eq!(cells.len(), 9);
        assert_eq!(cells[0], Rect::new(0.0, 0.0, 30.0, 30.0));
        assert_eq!(cells[8], Rect::new(60.0, 60.0, 90.0, 90.0));
        let area: f64 = cells.iter().map(|c| c.width() * c.height()).sum();
        assert!((area - 90.0 * 90.0).abs() < 1e-6);
    }

    #[test]
    fn cell_edges_are_exact_on_the_region_boundary() {
        // a region whose width/GRID is not exactly representable: repeated
        // `x0 + w` accumulation drifts, leaving max_x outside every cell
        let region = Rect::new(0.1, 0.2, 0.1 + 0.7, 0.2 + 0.7);
        let cells = RegionSignature::cell_rects(&region);
        let last = cells.last().unwrap();
        assert_eq!(last.max_x.to_bits(), region.max_x.to_bits());
        assert_eq!(last.max_y.to_bits(), region.max_y.to_bits());
        assert_eq!(cells[0].min_x.to_bits(), region.min_x.to_bits());
        // a mark exactly on the region's max corner lands in some cell
        let (mx, my) = (region.max_x, region.max_y);
        assert!(
            cells.iter().any(|c| c.contains_point(mx, my)),
            "boundary mark outside every cell"
        );
        // adjacent cells share edges exactly: no gaps between columns/rows
        let g = RegionSignature::GRID;
        for gy in 0..g {
            for gx in 0..g.saturating_sub(1) {
                let a = &cells[gy * g + gx];
                let b = &cells[gy * g + gx + 1];
                assert_eq!(a.max_x.to_bits(), b.min_x.to_bits(), "gap at column {gx}");
            }
        }
    }

    #[test]
    fn semantic_tracker_blends() {
        let n = RegionSignature::GRID * RegionSignature::GRID;
        let mut t = SemanticTracker::new();
        let mut dense_left = vec![0u64; n];
        dense_left[0] = 100;
        let mut dense_right = vec![0u64; n];
        dense_right[n - 1] = 100;
        let left = RegionSignature::from_counts(&dense_left);
        // the first observation is the profile as-is
        assert_eq!(t.observe(&left), &left);
        let p = t.observe(&RegionSignature::from_counts(&dense_right));
        assert!((p.cells[0] - 0.5).abs() < 1e-12);
        assert!((p.cells[n - 1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn neighbors_surround_the_viewport() {
        let vp = Rect::new(100.0, 100.0, 200.0, 200.0);
        let ns = neighbor_rects(&vp);
        assert_eq!(ns.len(), 8);
        assert!(ns.contains(&Rect::new(0.0, 0.0, 100.0, 100.0))); // NW
        assert!(ns.contains(&Rect::new(200.0, 200.0, 300.0, 300.0))); // SE
        assert!(!ns.contains(&vp));
    }

    #[test]
    fn ranking_prefers_similar_regions() {
        let n = RegionSignature::GRID * RegionSignature::GRID;
        let mut dense = vec![0u64; n];
        dense[4] = 50;
        let profile = RegionSignature::from_counts(&dense);
        let similar = Rect::new(0.0, 0.0, 1.0, 1.0);
        let different = Rect::new(9.0, 9.0, 10.0, 10.0);
        let mut far = vec![0u64; n];
        far[0] = 50;
        let ranked = rank_by_similarity(
            &profile,
            vec![
                (different, RegionSignature::from_counts(&far)),
                (similar, RegionSignature::from_counts(&dense)),
            ],
        );
        assert_eq!(ranked[0], similar);
        assert_eq!(ranked[1], different);
    }
}
