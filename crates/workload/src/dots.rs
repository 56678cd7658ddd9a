//! The paper's §3.3 synthetic datasets: **Uniform** (dots evenly
//! distributed over the canvas) and **Skewed** (80% of dots in 20% of the
//! canvas area).
//!
//! The paper uses 100M dots on a 1M×0.1M canvas (density 1e-3 dots/px², so
//! a 1,024² tile holds ~1,000 dots). Scaled configurations preserve that
//! density so per-viewport tuple counts match the paper's.

use kyrix_storage::{DataType, Database, IndexKind, Rect, Result, Row, Schema, SpatialCols, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dot dataset configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DotsConfig {
    /// Number of dots.
    pub n: usize,
    /// Canvas extent in canvas units (pixels at zoom 1).
    pub width: f64,
    pub height: f64,
    pub seed: u64,
}

impl DotsConfig {
    /// 65,536 dots for tests and quick runs, at the paper's density.
    pub fn small() -> Self {
        DotsConfig {
            n: 65_536,
            width: 16_384.0,
            height: 4_096.0,
            seed: 42,
        }
    }

    /// Dot density per canvas px².
    pub fn density(&self) -> f64 {
        self.n as f64 / (self.width * self.height)
    }

    pub fn bounds(&self) -> Rect {
        Rect::new(0.0, 0.0, self.width, self.height)
    }
}

/// The Skewed dataset's dense region: the paper places 80M of 100M dots in
/// a 0.4M × 0.05M rectangle of the 1M × 0.1M canvas (20% of the area).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewConfig {
    /// Fraction of dots inside the dense rectangle (paper: 0.8).
    pub dense_fraction: f64,
    /// Dense rectangle as fractions of canvas width/height
    /// (paper: 0.4 × 0.5 = 20% of the area), anchored at the origin.
    pub dense_w_frac: f64,
    pub dense_h_frac: f64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            dense_fraction: 0.8,
            dense_w_frac: 0.4,
            dense_h_frac: 0.5,
        }
    }
}

impl SkewConfig {
    /// The dense rectangle in canvas coordinates.
    pub fn dense_rect(&self, cfg: &DotsConfig) -> Rect {
        Rect::new(
            0.0,
            0.0,
            cfg.width * self.dense_w_frac,
            cfg.height * self.dense_h_frac,
        )
    }
}

fn dots_schema() -> Schema {
    Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float)
        .with("weight", DataType::Float)
}

/// Create and load the `dots` table with uniformly distributed points.
/// Returns the number of rows loaded.
pub fn load_uniform(db: &mut Database, cfg: &DotsConfig) -> Result<usize> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    db.create_table("dots", dots_schema())?;
    for i in 0..cfg.n {
        let x = rng.gen_range(0.0..cfg.width);
        let y = rng.gen_range(0.0..cfg.height);
        db.insert(
            "dots",
            Row::new(vec![
                Value::Int(i as i64),
                Value::Float(x),
                Value::Float(y),
                Value::Float(rng.gen_range(0.0..1.0)),
            ]),
        )?;
    }
    Ok(cfg.n)
}

/// Create and load the `dots` table with the paper's skewed distribution.
pub fn load_skewed(db: &mut Database, cfg: &DotsConfig, skew: &SkewConfig) -> Result<usize> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    db.create_table("dots", dots_schema())?;
    let dense = skew.dense_rect(cfg);
    for i in 0..cfg.n {
        let in_dense = rng.gen_range(0.0..1.0) < skew.dense_fraction;
        let (x, y) = if in_dense {
            (
                rng.gen_range(dense.min_x..dense.max_x),
                rng.gen_range(dense.min_y..dense.max_y),
            )
        } else {
            // rejection-sample the sparse remainder of the canvas
            loop {
                let x = rng.gen_range(0.0..cfg.width);
                let y = rng.gen_range(0.0..cfg.height);
                if !dense.contains_point(x, y) {
                    break (x, y);
                }
            }
        };
        db.insert(
            "dots",
            Row::new(vec![
                Value::Int(i as i64),
                Value::Float(x),
                Value::Float(y),
                Value::Float(rng.gen_range(0.0..1.0)),
            ]),
        )?;
    }
    Ok(cfg.n)
}

/// Build the raw spatial index on (x, y) — the paper's §3.2 assumption that
/// "DBAs have built spatial indexes on relevant raw data attributes when
/// data is first loaded into the DBMS" (enables the separable skip path).
/// The same DBA then runs `CLUSTER dots USING dots_xy`: the heap is
/// rewritten in index order, so a viewport's rows share pages.
pub fn index_dots(db: &mut Database) -> Result<()> {
    db.create_index(
        "dots",
        "dots_xy",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )?;
    db.cluster("dots", "dots_xy")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DotsConfig {
        DotsConfig {
            n: 10_000,
            width: 1000.0,
            height: 500.0,
            seed: 7,
        }
    }

    #[test]
    fn uniform_fills_canvas_evenly() {
        let mut db = Database::new();
        load_uniform(&mut db, &tiny()).unwrap();
        index_dots(&mut db).unwrap();
        assert_eq!(db.table("dots").unwrap().len(), 10_000);
        // quadrant counts within 20% of each other
        let q = |x0: f64, y0: f64| {
            db.query(
                "SELECT COUNT(*) FROM dots WHERE bbox && rect($1, $2, $3, $4)",
                &[
                    Value::Float(x0),
                    Value::Float(y0),
                    Value::Float(x0 + 499.0),
                    Value::Float(y0 + 249.0),
                ],
            )
            .unwrap()
            .rows[0]
                .get(0)
                .as_i64()
                .unwrap()
        };
        let counts = [q(0.0, 0.0), q(500.0, 0.0), q(0.0, 250.0), q(500.0, 250.0)];
        let (lo, hi) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!((hi - lo) as f64 / (hi as f64) < 0.25, "counts {counts:?}");
    }

    #[test]
    fn skewed_is_dense_in_the_corner() {
        let mut db = Database::new();
        let cfg = tiny();
        let skew = SkewConfig::default();
        load_skewed(&mut db, &cfg, &skew).unwrap();
        index_dots(&mut db).unwrap();
        let dense = skew.dense_rect(&cfg);
        let in_dense = db
            .query(
                "SELECT COUNT(*) FROM dots WHERE bbox && rect($1, $2, $3, $4)",
                &[
                    Value::Float(dense.min_x),
                    Value::Float(dense.min_y),
                    Value::Float(dense.max_x),
                    Value::Float(dense.max_y),
                ],
            )
            .unwrap()
            .rows[0]
            .get(0)
            .as_i64()
            .unwrap();
        let frac = in_dense as f64 / cfg.n as f64;
        assert!((0.75..=0.85).contains(&frac), "dense fraction {frac}");
    }

    #[test]
    fn deterministic_by_seed() {
        let mut a = Database::new();
        let mut b = Database::new();
        load_uniform(&mut a, &tiny()).unwrap();
        load_uniform(&mut b, &tiny()).unwrap();
        let qa = a.query("SELECT x FROM dots WHERE id = 5", &[]).unwrap();
        let qb = b.query("SELECT x FROM dots WHERE id = 5", &[]).unwrap();
        assert_eq!(qa.rows[0], qb.rows[0]);
    }

    #[test]
    fn paper_scaled_density_matches_paper() {
        // the paper: 100M dots / (1e6 * 1e5 px²) = 1e-3 dots per px²
        let s = DotsConfig::small().density();
        assert!((s - 1e-3).abs() < 2e-4, "density {s}");
    }
}
