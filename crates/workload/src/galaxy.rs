//! The `zipf_galaxy` dataset: a million-point scatterplot workload for the
//! LoD (zoom-level hierarchy) subsystem.
//!
//! Points bunch into galaxy "cores" whose populations follow a Zipf law —
//! a few huge clusters, a long tail of small ones — plus a uniform field
//! of background stars. This is the shape that makes a cluster pyramid
//! earn its keep: any single zoom level either overplots the cores or
//! loses the tail.
//!
//! Measure columns (`mass`, `lum`) are **integer-valued** floats so
//! pyramid aggregate sums are exact under any summation order (the
//! sharded-build parity guarantee).

use kyrix_storage::{DataType, Database, IndexKind, Rect, Result, Row, Schema, SpatialCols, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of the galaxy generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GalaxyConfig {
    /// Number of points.
    pub n: usize,
    /// Canvas extent in canvas units (pixels at zoom 1).
    pub width: f64,
    pub height: f64,
    /// Number of galaxy cores.
    pub cores: usize,
    /// Zipf exponent of the core population law (`p_i ∝ 1/(i+1)^s`).
    pub zipf_exponent: f64,
    /// Fraction of points scattered uniformly as background field stars.
    pub field_fraction: f64,
    pub seed: u64,
}

impl GalaxyConfig {
    /// The headline configuration: 2^20 points on a 2^17-square canvas.
    pub fn million() -> Self {
        GalaxyConfig {
            n: 1_048_576,
            width: 131_072.0,
            height: 131_072.0,
            cores: 64,
            zipf_exponent: 1.1,
            field_fraction: 0.1,
            seed: 42,
        }
    }

    /// ≥100k points on a 2^15-square canvas: big enough to exercise a
    /// deep pyramid, small enough for debug-build integration tests.
    pub fn e2e() -> Self {
        GalaxyConfig {
            n: 131_072,
            width: 32_768.0,
            height: 32_768.0,
            cores: 32,
            zipf_exponent: 1.1,
            field_fraction: 0.1,
            seed: 42,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        GalaxyConfig {
            n: 8_192,
            width: 4_096.0,
            height: 4_096.0,
            cores: 12,
            zipf_exponent: 1.1,
            field_fraction: 0.1,
            seed: 42,
        }
    }

    pub fn bounds(&self) -> Rect {
        Rect::new(0.0, 0.0, self.width, self.height)
    }
}

/// Schema of the `galaxy` table.
pub fn galaxy_schema() -> Schema {
    Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float)
        .with("mass", DataType::Float)
        .with("lum", DataType::Float)
}

/// One standard-normal sample (Box–Muller; the vendored `rand` has no
/// distribution module).
fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen_range(0.0..1.0); // (0, 1]
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generate the rows without a database (shared by [`load_zipf_galaxy`]
/// and hand-partitioned shard loads, so both paths see identical data).
pub fn galaxy_rows(cfg: &GalaxyConfig) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Zipf core populations, normalized to a cumulative distribution
    let weights: Vec<f64> = (0..cfg.cores.max(1))
        .map(|i| 1.0 / ((i + 1) as f64).powf(cfg.zipf_exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cum = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            cum += w / total;
            cum
        })
        .collect();
    // core centers and radii (larger cores are wider, sub-linearly)
    let cores: Vec<(f64, f64, f64)> = weights
        .iter()
        .map(|w| {
            let cx = rng.gen_range(0.0..cfg.width);
            let cy = rng.gen_range(0.0..cfg.height);
            let r = 0.12 * cfg.width.min(cfg.height) * (w / weights[0]).sqrt();
            (cx, cy, r)
        })
        .collect();

    let clamp = |v: f64, hi: f64| v.clamp(0.0, hi - 1e-6);
    (0..cfg.n)
        .map(|i| {
            let (x, y) = if rng.gen_range(0.0..1.0) < cfg.field_fraction {
                (
                    rng.gen_range(0.0..cfg.width),
                    rng.gen_range(0.0..cfg.height),
                )
            } else {
                let u = rng.gen_range(0.0..1.0);
                let k = cdf.partition_point(|c| *c < u).min(cores.len() - 1);
                let (cx, cy, r) = cores[k];
                (
                    clamp(cx + gaussian(&mut rng) * r, cfg.width),
                    clamp(cy + gaussian(&mut rng) * r, cfg.height),
                )
            };
            Row::new(vec![
                Value::Int(i as i64),
                Value::Float(x),
                Value::Float(y),
                Value::Float(rng.gen_range(1i64..1000) as f64),
                Value::Float(rng.gen_range(0i64..256) as f64),
            ])
        })
        .collect()
}

/// Create and load the `galaxy` table. Returns the number of rows loaded.
pub fn load_zipf_galaxy(db: &mut Database, cfg: &GalaxyConfig) -> Result<usize> {
    db.create_table("galaxy", galaxy_schema())?;
    for row in galaxy_rows(cfg) {
        db.insert("galaxy", row)?;
    }
    Ok(cfg.n)
}

/// Build the raw spatial index on `(x, y)` (enables the separable skip
/// path for the pyramid's level-0 canvas, like [`crate::index_dots`]) and
/// cluster the heap on it: the generator emits points in random spatial
/// order, and a viewport's rows should share pages. Call it right after
/// loading — it changes scan order, so it must come before
/// `kyrix_lod::build_pyramid` reads the table, never after.
pub fn index_galaxy(db: &mut Database) -> Result<()> {
    db.create_index(
        "galaxy",
        "galaxy_xy",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )?;
    db.cluster("galaxy", "galaxy_xy")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_n_points_inside_the_canvas_with_integer_measures() {
        let cfg = GalaxyConfig::tiny();
        let rows = galaxy_rows(&cfg);
        assert_eq!(rows.len(), cfg.n);
        for row in &rows {
            let x = row.get(1).as_f64().unwrap();
            let y = row.get(2).as_f64().unwrap();
            assert!((0.0..cfg.width).contains(&x) && (0.0..cfg.height).contains(&y));
            let mass = row.get(3).as_f64().unwrap();
            let lum = row.get(4).as_f64().unwrap();
            assert_eq!(mass, mass.trunc(), "mass must be integer-valued");
            assert_eq!(lum, lum.trunc(), "lum must be integer-valued");
            assert!((1.0..1000.0).contains(&mass));
        }
    }

    #[test]
    fn zipf_skew_concentrates_points() {
        // the densest small patch should hold far more than a uniform
        // share: quarter the canvas into a 8x8 grid and compare the top
        // cell against the uniform expectation
        let cfg = GalaxyConfig::tiny();
        let rows = galaxy_rows(&cfg);
        let mut counts = [0usize; 64];
        for row in &rows {
            let x = row.get(1).as_f64().unwrap();
            let y = row.get(2).as_f64().unwrap();
            let gx = ((x / cfg.width * 8.0) as usize).min(7);
            let gy = ((y / cfg.height * 8.0) as usize).min(7);
            counts[gy * 8 + gx] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max > 4 * cfg.n / 64,
            "densest cell {max} not skewed vs uniform {}",
            cfg.n / 64
        );
    }

    #[test]
    fn deterministic_by_seed_and_loads() {
        assert_eq!(
            galaxy_rows(&GalaxyConfig::tiny()),
            galaxy_rows(&GalaxyConfig::tiny())
        );
        let different = GalaxyConfig {
            seed: 7,
            ..GalaxyConfig::tiny()
        };
        assert_ne!(galaxy_rows(&GalaxyConfig::tiny()), galaxy_rows(&different));

        let mut db = Database::new();
        let n = load_zipf_galaxy(&mut db, &GalaxyConfig::tiny()).unwrap();
        index_galaxy(&mut db).unwrap();
        assert_eq!(db.table("galaxy").unwrap().len(), n);
    }
}
