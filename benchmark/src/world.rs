//! Set-up: generate the dataset, load and index it, build the pyramid,
//! compile the LoD app and launch the server in its shipping configuration
//! — timed stage by stage, because `setup_s` is an end-to-end metric and
//! its stages are per-layer ones.

use crate::walk::Geometry;
use kyrix_core::compile;
use kyrix_lod::{build_pyramid, build_pyramid_on_shards, lod_app, LodConfig, LodPyramid};
use kyrix_parallel::{Partitioner, QueryRouter};
use kyrix_server::{
    BoxPolicy, FetchPlan, KyrixServer, LayerStore, PlanPolicy, ServerConfig, TileDesign,
};
use kyrix_storage::{Database, Rect};
use kyrix_workload::{galaxy_rows, galaxy_schema, index_galaxy, GalaxyConfig};
use std::sync::Arc;
use std::time::Instant;

/// Dataset and pyramid dimensions of one benchmark scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub galaxy: GalaxyConfig,
    pub levels: usize,
    pub spacing: f64,
    pub viewport: (f64, f64),
}

impl Scale {
    /// 2^20 points: the working set dwarfs every cache.
    pub fn million() -> Self {
        Scale {
            galaxy: GalaxyConfig::million(),
            levels: 3,
            spacing: 24.0,
            viewport: (1024.0, 1024.0),
        }
    }

    /// 131k points: every clustered level fits the backend tile cache.
    pub fn e2e() -> Self {
        Scale {
            galaxy: GalaxyConfig::e2e(),
            ..Scale::million()
        }
    }

    /// `--smoke`: 8k points, seconds for the whole suite.
    pub fn tiny() -> Self {
        Scale {
            galaxy: GalaxyConfig::tiny(),
            levels: 2,
            spacing: 16.0,
            viewport: (256.0, 256.0),
        }
    }

    pub fn geometry(&self) -> Geometry {
        Geometry {
            levels: self.levels,
            width: self.galaxy.width,
            height: self.galaxy.height,
            viewport: self.viewport,
        }
    }

    pub fn lod(&self) -> LodConfig {
        LodConfig::new("galaxy", self.galaxy.width, self.galaxy.height, self.levels)
            .with_measure("mass")
            .with_measure("lum")
            .with_spacing(self.spacing)
    }
}

/// What the server is launched over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    SingleNode,
    /// 2x2 `SpatialGrid`, pyramid built on the shards.
    Grid2x2,
}

/// Wall-clock seconds of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub generate_s: f64,
    pub load_s: f64,
    pub index_s: f64,
    pub build_s: f64,
    pub compile_s: f64,
    pub launch_s: f64,
    pub total_s: f64,
}

/// A launched server plus everything the harness keeps beside it.
pub struct World {
    pub scale: Scale,
    pub lod: LodConfig,
    pub server: Arc<KyrixServer>,
    /// Copy-on-write clones of the databases the server was launched
    /// over (one per shard): the layer probes and the oracle read these,
    /// never the server's head.
    pub shadow: Vec<Database>,
    /// Shard routing table (sharded backend only).
    pub router: Option<QueryRouter>,
    /// Raw positions of every `stride`-th generated row: the walk's
    /// stations are taken from these.
    pub sample_points: Vec<(f64, f64)>,
    pub times: StageTimes,
}

/// Station candidates kept from the generated rows.
const SAMPLE_POINTS: usize = 256;

/// The shipping plan policy of the LoD app: tiles on the clustered levels,
/// exact dynamic boxes on the raw level.
pub fn shipping_config(scale: &Scale) -> ServerConfig {
    ServerConfig::from_policy(PlanPolicy::SpecHints {
        tiles: FetchPlan::StaticTiles {
            size: scale.viewport.0,
            design: TileDesign::SpatialIndex,
        },
        boxes: FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    })
}

/// Run the whole set-up once. The pyramid's maintenance handle — the
/// writer's side of the data — is returned beside the read-only world.
pub fn build_world(scale: Scale, backend: Backend) -> (World, LodPyramid) {
    let g = scale.galaxy;
    let lod = scale.lod();
    let mut times = StageTimes::default();
    let t0 = Instant::now();
    let mut lap = Instant::now();
    let mut stage = |slot: &mut f64| {
        *slot = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };

    let rows = galaxy_rows(&g);
    stage(&mut times.generate_s);
    let stride = (rows.len() / SAMPLE_POINTS).max(1);
    let xy = |row: &kyrix_storage::Row| {
        (
            row.get(1).as_f64().expect("galaxy x is numeric"),
            row.get(2).as_f64().expect("galaxy y is numeric"),
        )
    };
    let sample_points: Vec<(f64, f64)> = rows.iter().step_by(stride).map(xy).collect();

    let schema = galaxy_schema();
    let partitioner = Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols: 2,
        rows: 2,
        width: g.width,
        height: g.height,
    };
    let n_shards = match backend {
        Backend::SingleNode => 1,
        Backend::Grid2x2 => 4,
    };
    let mut dbs: Vec<Database> = (0..n_shards)
        .map(|_| {
            let mut db = Database::new();
            db.create_table("galaxy", schema.clone())
                .expect("fresh database takes the galaxy table");
            db
        })
        .collect();
    for row in rows {
        let s = match backend {
            Backend::SingleNode => 0,
            Backend::Grid2x2 => partitioner
                .route(&schema, &row, n_shards)
                .expect("every galaxy row routes to a grid cell"),
        };
        dbs[s].insert("galaxy", row).expect("galaxy row inserts");
    }
    stage(&mut times.load_s);
    for db in &mut dbs {
        index_galaxy(db).expect("raw spatial index builds");
    }
    stage(&mut times.index_s);

    let pyramid = match backend {
        Backend::SingleNode => build_pyramid(&mut dbs[0], &lod),
        Backend::Grid2x2 => build_pyramid_on_shards(&mut dbs, &partitioner, &lod),
    }
    .expect("pyramid builds");
    stage(&mut times.build_s);

    let app = compile(&lod_app(&lod, scale.viewport), &dbs[0]).expect("lod app compiles");
    stage(&mut times.compile_s);

    let shadow = dbs.clone();
    let router = pyramid.shard_router().cloned();
    let config = shipping_config(&scale);
    let server = match (&router, backend) {
        (Some(router), Backend::Grid2x2) => {
            KyrixServer::launch_sharded(app, dbs, router.clone(), config)
                .expect("sharded server launches")
        }
        _ => {
            let db = dbs.pop().expect("single-node set-up has one database");
            KyrixServer::launch(app, db, config)
                .expect("server launches")
                .0
        }
    };
    stage(&mut times.launch_s);
    times.total_s = t0.elapsed().as_secs_f64();

    let world = World {
        scale,
        lod,
        server: Arc::new(server),
        shadow,
        router,
        sample_points,
        times,
    };
    (world, pyramid)
}

impl World {
    /// The first `n` station candidates (all of them if fewer were kept).
    pub fn stations(&self, n: usize) -> &[(f64, f64)] {
        &self.sample_points[..n.min(self.sample_points.len())]
    }

    /// Rows of one level table across all shards.
    pub fn level_rows(&self, level: usize) -> usize {
        let table = self.lod.level_table(level);
        self.shadow
            .iter()
            .map(|db| db.table(&table).map(|t| t.len()).unwrap_or(0))
            .sum()
    }

    /// Raw rows per shard.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shadow
            .iter()
            .map(|db| db.table("galaxy").map(|t| t.len()).unwrap_or(0))
            .collect()
    }

    pub fn heap_bytes(&self) -> usize {
        self.shadow.iter().map(Database::heap_bytes).sum()
    }

    /// The separable store the server resolved for a level's only layer.
    pub fn store(&self, level: usize) -> LayerStore {
        self.server
            .store(&self.lod.level_canvas(level), 0)
            .expect("every level canvas has layer 0")
    }

    /// The viewport rectangle of a step, clipped to its canvas like
    /// `Session` clips it.
    pub fn viewport_rect(&self, level: usize, cx: f64, cy: f64) -> Rect {
        let (w, h) = self.lod.level_size(level);
        Rect::centered(cx, cy, self.scale.viewport.0, self.scale.viewport.1)
            .intersection(&Rect::new(0.0, 0.0, w, h))
    }
}
