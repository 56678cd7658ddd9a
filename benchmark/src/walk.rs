//! Input generation: every viewport position of a run, made from `--seed`.
//!
//! A *tour* is one complete sample of the dataset: it visits every
//! *station* once, and at each station plays one *cycle* — open the
//! coarsest level centred near the station, pan, zoom in about the
//! viewport centre, pan, … down to the finest level of the walk and back
//! up. Stations are raw data points (users zoom in on marks, not on empty
//! space) picked from the fixed dataset, so every tour covers the same
//! dense and sparse regions; the seed and the pass number decide the order
//! of the stations, the jitter around each and every pan direction. A
//! workload measures whole tours only — pass `p` of a run plays tour `p` of
//! its seed — which is what makes two passes, and two seeds, comparable.

/// SplitMix64: the benchmark's own generator, so its inputs do not move
/// when the program's vendored `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The zoom pyramid's shape as the walk sees it.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Clustered levels above the raw level 0.
    pub levels: usize,
    /// Raw (level-0) canvas extent; each level up halves it.
    pub width: f64,
    pub height: f64,
    pub viewport: (f64, f64),
}

impl Geometry {
    pub fn level_size(&self, k: usize) -> (f64, f64) {
        let s = f64::powi(2.0, k as i32);
        (self.width / s, self.height / s)
    }
}

/// Which levels a cycle visits and how it pans on each.
#[derive(Debug, Clone, Copy)]
pub struct WalkSpec {
    /// Finest level the cycle descends to (0 = raw).
    pub finest: usize,
    /// Interactions per level segment; the first opens the level.
    pub steps_per_segment: usize,
    /// Pan length as a share of the viewport width.
    pub step_frac: f64,
    /// Largest heading change between consecutive pans of a segment, in
    /// radians: `PI` picks every direction afresh, a small value drags the
    /// viewport along a gently curving line the way a hand does.
    pub max_turn: f64,
}

/// One interaction: centre the viewport at `(cx, cy)` on `level`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub level: usize,
    /// A level change: played as `Session::open_on`; otherwise `pan_to`.
    pub open: bool,
    pub cx: f64,
    pub cy: f64,
}

/// Tour number `pass` of a seed over `stations` (raw-level coordinates).
pub fn tour(
    geom: &Geometry,
    spec: &WalkSpec,
    stations: &[(f64, f64)],
    seed: u64,
    pass: usize,
) -> Vec<Step> {
    // one generator per (seed, pass): a run that fits more passes extends
    // the sequence of tours, it never changes an earlier one
    let mut rng = Rng::new(
        seed ^ (pass as u64)
            .wrapping_add(1)
            .wrapping_mul(0xA076_1D64_78BD_642F),
    );
    let mut order: Vec<usize> = (0..stations.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let top = geom.levels;
    let mut visit: Vec<usize> = (spec.finest..=top).rev().collect();
    visit.extend(spec.finest + 1..=top);
    let (vw, vh) = geom.viewport;
    let clamp = |v: f64, half: f64, extent: f64| v.clamp(half, (extent - half).max(half));

    let mut out = Vec::with_capacity(order.len() * visit.len() * spec.steps_per_segment);
    for &s in &order {
        let top_scale = f64::powi(2.0, top as i32);
        // up to a quarter viewport of jitter around the station
        let mut cx = stations[s].0 / top_scale + (rng.unit() - 0.5) * vw / 2.0;
        let mut cy = stations[s].1 / top_scale + (rng.unit() - 0.5) * vh / 2.0;
        let mut prev = top;
        for &k in &visit {
            // geometric zoom about the viewport centre
            let ratio = f64::powi(2.0, prev as i32 - k as i32);
            cx *= ratio;
            cy *= ratio;
            prev = k;
            let (w, h) = geom.level_size(k);
            let mut heading = rng.unit() * std::f64::consts::TAU;
            for i in 0..spec.steps_per_segment {
                if i > 0 {
                    heading += (rng.unit() * 2.0 - 1.0) * spec.max_turn;
                    cx += (spec.step_frac * vw * heading.cos()).round();
                    cy += (spec.step_frac * vh * heading.sin()).round();
                }
                cx = clamp(cx, vw / 2.0, w);
                cy = clamp(cy, vh / 2.0, h);
                out.push(Step {
                    level: k,
                    open: i == 0,
                    cx,
                    cy,
                });
            }
        }
    }
    out
}

/// FNV-1a over every step's level, kind and exact coordinates.
pub fn tour_hash(steps: &[Step]) -> u64 {
    let mut h = Fnv::new();
    for s in steps {
        h.write_u64(s.level as u64);
        h.write_u64(s.open as u64);
        h.write_u64(s.cx.to_bits());
        h.write_u64(s.cy.to_bits());
    }
    h.finish()
}

/// 64-bit FNV-1a, shared by the tour hash and the output checksums.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry {
            levels: 2,
            width: 4096.0,
            height: 4096.0,
            viewport: (256.0, 256.0),
        }
    }

    fn stations() -> Vec<(f64, f64)> {
        (0..8)
            .map(|i| (i as f64 * 500.0 + 17.0, 4000.0 - i as f64 * 450.0))
            .collect()
    }

    const ZOOM: WalkSpec = WalkSpec {
        finest: 0,
        steps_per_segment: 3,
        step_frac: 0.5,
        max_turn: std::f64::consts::PI,
    };

    #[test]
    fn same_seed_same_tour_different_seed_different_tour() {
        let a = tour(&geom(), &ZOOM, &stations(), 42, 0);
        assert_eq!(a, tour(&geom(), &ZOOM, &stations(), 42, 0));
        assert_eq!(
            tour_hash(&a),
            tour_hash(&tour(&geom(), &ZOOM, &stations(), 42, 0))
        );
        let b = tour(&geom(), &ZOOM, &stations(), 7, 0);
        assert_ne!(tour_hash(&a), tour_hash(&b));
        let next_pass = tour(&geom(), &ZOOM, &stations(), 42, 1);
        assert_ne!(tour_hash(&a), tour_hash(&next_pass));
    }

    #[test]
    fn a_cycle_descends_to_the_finest_level_and_climbs_back() {
        let t = tour(&geom(), &ZOOM, &stations(), 1, 0);
        // 8 stations x levels (2,1,0,1,2) x 3 steps
        assert_eq!(t.len(), 8 * 5 * 3);
        let levels: Vec<usize> = t[..15].iter().map(|s| s.level).collect();
        assert_eq!(levels, [2, 2, 2, 1, 1, 1, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        for (i, s) in t.iter().enumerate() {
            assert_eq!(s.open, i % 3 == 0, "first step of each segment opens");
        }
        let clustered = WalkSpec { finest: 1, ..ZOOM };
        let t = tour(&geom(), &clustered, &stations(), 1, 0);
        assert_eq!(t.len(), 8 * 3 * 3);
        assert!(t.iter().all(|s| s.level >= 1));
    }

    #[test]
    fn every_viewport_stays_on_its_canvas_and_every_station_is_visited() {
        let g = geom();
        let t = tour(&g, &ZOOM, &stations(), 99, 3);
        for s in &t {
            let (w, h) = g.level_size(s.level);
            assert!(s.cx >= 128.0 && s.cx <= w - 128.0, "{s:?}");
            assert!(s.cy >= 128.0 && s.cy <= h - 128.0, "{s:?}");
        }
        // each cycle opens the top level within a quarter viewport of its
        // station (before clamping), so the 8 stations map to 8 distinct opens
        let mut opens: Vec<(u64, u64)> = t
            .iter()
            .step_by(15)
            .map(|s| (s.cx.to_bits(), s.cy.to_bits()))
            .collect();
        opens.sort_unstable();
        opens.dedup();
        assert_eq!(opens.len(), 8);
    }

    #[test]
    fn rng_is_uniform_enough_and_deterministic() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let xs: Vec<f64> = (0..1000).map(|_| a.unit()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let m = xs.iter().sum::<f64>() / 1000.0;
        assert!((m - 0.5).abs() < 0.05, "mean {m}");
        assert_eq!(b.unit(), xs[0]);
        assert!((0..100).all(|_| a.below(7) < 7));
    }
}
