//! Pyramid configuration: which table to cluster, how many levels, how
//! far apart retained marks must stay, and which measures to aggregate.

use crate::error::{LodError, Result};

/// Configuration of a cluster pyramid over one raw point table.
///
/// Level 0 is the raw data on a `width × height` canvas; each level `k ≥ 1`
/// is a clustered copy on a canvas shrunk by `zoom_factor` per level, with
/// no two retained marks closer than `spacing` canvas units (the Kyrix-S
/// non-overlap guarantee).
#[derive(Debug, Clone, PartialEq)]
pub struct LodConfig {
    /// Raw point table holding one row per mark.
    pub table: String,
    /// Integer column uniquely identifying a raw row (also the
    /// deterministic tie-breaker for cluster representatives).
    pub id_column: String,
    /// Raw canvas-x column.
    pub x_column: String,
    /// Raw canvas-y column.
    pub y_column: String,
    /// Numeric measure columns aggregated per cluster (`sum_*` / `avg_*`).
    pub measures: Vec<String>,
    /// Number of clustered levels above the raw level (pyramid height − 1).
    pub levels: usize,
    /// Canvas shrink factor between adjacent levels (must be > 1).
    pub zoom_factor: f64,
    /// Minimum distance between retained marks, in canvas units of the
    /// level the marks live on.
    pub spacing: f64,
    /// Level-0 (raw) canvas width.
    pub width: f64,
    /// Level-0 (raw) canvas height.
    pub height: f64,
}

impl LodConfig {
    /// A pyramid over `table(id, x, y)` with `levels` clustered levels,
    /// zoom factor 2 and a 16-unit spacing bound.
    pub fn new(table: impl Into<String>, width: f64, height: f64, levels: usize) -> Self {
        LodConfig {
            table: table.into(),
            id_column: "id".into(),
            x_column: "x".into(),
            y_column: "y".into(),
            measures: Vec::new(),
            levels,
            zoom_factor: 2.0,
            spacing: 16.0,
            width,
            height,
        }
    }

    /// Add a measure column aggregated as `sum_<col>` / `avg_<col>`.
    pub fn with_measure(mut self, column: impl Into<String>) -> Self {
        self.measures.push(column.into());
        self
    }

    /// Override the minimum distance between retained marks.
    pub fn with_spacing(mut self, spacing: f64) -> Self {
        self.spacing = spacing;
        self
    }

    /// Scale from raw (level-0) coordinates down to level-`k` coordinates:
    /// divide by `zoom_factor^k`.
    pub fn level_scale(&self, level: usize) -> f64 {
        self.zoom_factor.powi(level as i32)
    }

    /// Canvas extent of a level.
    pub fn level_size(&self, level: usize) -> (f64, f64) {
        let s = self.level_scale(level);
        (self.width / s, self.height / s)
    }

    /// Physical table name of a level (`k = 0` is the raw table itself).
    pub fn level_table(&self, level: usize) -> String {
        if level == 0 {
            self.table.clone()
        } else {
            format!("{}_lod{level}", self.table)
        }
    }

    /// Canvas id of a level in the generated app spec.
    pub fn level_canvas(&self, level: usize) -> String {
        format!("level{level}")
    }

    /// Reject degenerate configurations (no levels, non-shrinking
    /// zoom, non-positive spacing/extent, top level below the spacing).
    pub fn validate(&self) -> Result<()> {
        if self.levels == 0 {
            return Err(LodError::Config("need at least one clustered level".into()));
        }
        if self.zoom_factor <= 1.0 {
            return Err(LodError::Config(format!(
                "zoom factor must exceed 1, got {}",
                self.zoom_factor
            )));
        }
        if self.spacing <= 0.0 {
            return Err(LodError::Config(format!(
                "spacing must be positive, got {}",
                self.spacing
            )));
        }
        if self.width <= 0.0 || self.height <= 0.0 {
            return Err(LodError::Config("canvas must have positive extent".into()));
        }
        let (w, h) = self.level_size(self.levels);
        if w < self.spacing || h < self.spacing {
            return Err(LodError::Config(format!(
                "top level canvas {w:.1}x{h:.1} is smaller than the spacing bound \
                 {}; reduce `levels` or `zoom_factor`",
                self.spacing
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_geometry() {
        let cfg = LodConfig::new("pts", 4096.0, 1024.0, 3);
        assert_eq!(cfg.level_scale(0), 1.0);
        assert_eq!(cfg.level_scale(2), 4.0);
        assert_eq!(cfg.level_size(1), (2048.0, 512.0));
        assert_eq!(cfg.level_table(0), "pts");
        assert_eq!(cfg.level_table(2), "pts_lod2");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(LodConfig::new("t", 100.0, 100.0, 0).validate().is_err());
        let flat = LodConfig {
            zoom_factor: 1.0,
            ..LodConfig::new("t", 100.0, 100.0, 1)
        };
        assert!(flat.validate().is_err());
        assert!(LodConfig::new("t", 100.0, 100.0, 1)
            .with_spacing(0.0)
            .validate()
            .is_err());
        // 100/2^6 < 16 spacing: top level too small
        assert!(LodConfig::new("t", 100.0, 100.0, 6).validate().is_err());
    }
}
