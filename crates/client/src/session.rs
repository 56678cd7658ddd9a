//! A client session: the headless equivalent of the Kyrix browser frontend.
//!
//! Owns the current canvas + viewport, the frontend cache, and the pan/jump
//! state machine; fetches data from a [`KyrixServer`] and renders frames
//! with `kyrix-render`.

use crate::cache::FrontendCache;
use crate::error::{ClientError, Result};
use crate::viewport::Viewport;
use kyrix_core::{CompiledCanvas, CompiledRender, JumpType};
use kyrix_render::{Color, ColorScale, Frame, Mark, MarkType};
use kyrix_server::{FetchMetrics, KyrixServer, LayerRowLayout, MomentumTracker};
use kyrix_storage::fxhash::FxHashSet;
use kyrix_storage::{Row, Value};
use std::sync::Arc;
use std::time::Instant;

/// Frontend region-cache capacity of every session, in tuples.
const FRONTEND_CACHE_ROWS: usize = 500_000;

/// What one interaction (initial load / pan / jump) cost.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Backend requests actually issued this step (frontend cache hits
    /// issue none).
    pub fetch: FetchMetrics,
    /// Modeled end-to-end response time (ms): measured DB time + modeled
    /// network/query overheads per the server's cost model.
    pub modeled_ms: f64,
    /// Wall-clock time of the whole step (ms).
    pub measured_ms: f64,
    /// Tiles/boxes served from the *frontend* cache.
    pub frontend_hits: u64,
    /// Distinct data rows now visible in the viewport.
    pub visible_rows: usize,
}

/// Result of a successful jump.
#[derive(Debug, Clone)]
pub struct JumpOutcome {
    pub jump_id: String,
    pub to_canvas: String,
    /// Display name from the jump's name expression, if any.
    pub name: Option<String>,
    pub report: StepReport,
}

/// A headless Kyrix frontend session. [`Session::open_on`] opens one on
/// any canvas; [`Session::open`] is `open_on` at the app's initial canvas
/// and center.
pub struct Session {
    server: Arc<KyrixServer>,
    canvas: String,
    viewport: Viewport,
    cache: FrontendCache,
    momentum: MomentumTracker,
    /// The version vector of the server snapshot the cached regions were
    /// fetched under; the next interaction compares it with the head's (on
    /// a sharded backend, one entry per shard, published atomically with
    /// every mutation) to tell which cached regions went stale. Kept as
    /// numbers, not as the snapshot: an idle session pins no generation.
    versions: Vec<u64>,
    /// That snapshot's scalar data version
    /// ([`kyrix_server::SnapshotView::version`]).
    version: u64,
}

impl Session {
    /// Open a session at the app's initial canvas and center, fetching the
    /// first viewport of data: [`Session::open_on`] there.
    pub fn open(server: Arc<KyrixServer>) -> Result<(Self, StepReport)> {
        let app = server.app();
        let (canvas, (cx, cy)) = (app.initial_canvas.clone(), app.initial_center);
        Self::open_on(server, &canvas, cx, cy)
    }

    /// Open a session on a specific canvas, centered at (cx, cy) —
    /// the multi-view entry point (§4 coordinated views).
    pub fn open_on(
        server: Arc<KyrixServer>,
        canvas_id: &str,
        cx: f64,
        cy: f64,
    ) -> Result<(Self, StepReport)> {
        let canvas = server
            .app()
            .canvas(canvas_id)
            .ok_or_else(|| ClientError::Navigation(format!("unknown canvas `{canvas_id}`")))?;
        let layers = canvas.layers.len();
        let bounds = canvas.bounds();
        let (vw, vh) = (server.app().viewport_width, server.app().viewport_height);
        let mut viewport = Viewport::new(cx, cy, vw, vh);
        viewport.center_on(cx, cy, &bounds);
        let (versions, version) = {
            let head = server.snapshot();
            (head.versions().to_vec(), head.version())
        };
        let mut session = Session {
            server,
            canvas: canvas_id.to_string(),
            viewport,
            cache: FrontendCache::new(FRONTEND_CACHE_ROWS, layers),
            momentum: MomentumTracker::new(),
            versions,
            version,
        };
        let report = session.ensure_viewport_data()?;
        Ok((session, report))
    }

    pub fn canvas_id(&self) -> &str {
        &self.canvas
    }

    pub fn viewport(&self) -> Viewport {
        self.viewport
    }

    pub fn server(&self) -> &KyrixServer {
        &self.server
    }

    fn current_canvas(&self) -> &CompiledCanvas {
        self.server
            .app()
            .canvas(&self.canvas)
            .expect("session canvas always exists")
    }

    /// The viewport clipped to the canvas: when the viewport is larger
    /// than the canvas, only the on-canvas part participates in fetching
    /// and cache containment checks.
    fn effective_viewport(&self) -> kyrix_storage::Rect {
        self.viewport
            .rect()
            .intersection(&self.current_canvas().bounds())
    }

    // ------------------------------------------------------- interactions

    /// Pan by a delta (canvas units). The paper's interaction (1).
    pub fn pan_by(&mut self, dx: f64, dy: f64) -> Result<StepReport> {
        let bounds = self.current_canvas().bounds();
        self.viewport.pan(dx, dy, &bounds);
        self.hint();
        self.ensure_viewport_data()
    }

    /// Pan so the viewport centers on a canvas point.
    pub fn pan_to(&mut self, cx: f64, cy: f64) -> Result<StepReport> {
        let bounds = self.current_canvas().bounds();
        self.viewport.center_on(cx, cy, &bounds);
        self.hint();
        self.ensure_viewport_data()
    }

    /// Tell the server's prefetcher where the pan landed (a no-op on a
    /// server without one).
    fn hint(&mut self) {
        let rect = self.viewport.rect();
        let velocity = self.momentum.observe(&rect);
        self.server.hint(&self.canvas, &rect, velocity);
    }

    /// Click at screen coordinates: find the topmost object under the
    /// cursor, find a jump it triggers, and take it. The paper's
    /// interaction (2). Returns Ok(None) if nothing under the cursor
    /// triggers a jump.
    pub fn click(&mut self, sx: f64, sy: f64) -> Result<Option<JumpOutcome>> {
        let (cx, cy) = self.viewport.to_canvas(sx, sy);
        let hit = self.object_at(cx, cy)?;
        let Some((layer_index, row)) = hit else {
            return Ok(None);
        };
        // Jump programs are compiled against the layer's *data* columns
        // (+ layer_id); strip the geometry columns the store appended.
        let data_row = match self.server.layout(&self.canvas, layer_index)? {
            Some(layout) => Row::new(row.values[..layout.n_data_cols].to_vec()),
            None => row,
        };
        // first triggering jump wins (paper: jumps can be selective per layer)
        let jump_id = self
            .server
            .app()
            .jumps_from(&self.canvas)
            .find(|j| j.triggers(layer_index, &data_row))
            .map(|j| j.spec.id.clone());
        match jump_id {
            Some(id) => self.jump(&id, layer_index, &data_row).map(Some),
            None => Ok(None),
        }
    }

    /// Take a jump explicitly. `row` must be the clicked object's *data*
    /// row (the transform output columns, without the geometry columns a
    /// layer store appends); `click` prepares this automatically.
    pub fn jump(&mut self, jump_id: &str, layer_index: usize, row: &Row) -> Result<JumpOutcome> {
        let start = Instant::now();
        let app = self.server.app();
        let jump = app
            .jumps
            .iter()
            .find(|j| j.spec.id == jump_id)
            .ok_or_else(|| ClientError::Navigation(format!("unknown jump `{jump_id}`")))?;
        if jump.spec.from != self.canvas {
            return Err(ClientError::Navigation(format!(
                "jump `{jump_id}` starts from `{}`, session is on `{}`",
                jump.spec.from, self.canvas
            )));
        }
        let to = app.canvas(&jump.spec.to).ok_or_else(|| {
            ClientError::Navigation(format!("jump target `{}` missing", jump.spec.to))
        })?;
        let name = jump.display_name(layer_index, row);

        // destination center: the jump's newViewport expressions, or scale
        // the current center by the canvas size ratio (geometric zoom)
        let (cx, cy) = match jump.viewport_center(layer_index, row) {
            Some(c) => c,
            None => {
                let from = self.current_canvas();
                let sx = to.width / from.width;
                let sy = to.height / from.height;
                (self.viewport.cx * sx, self.viewport.cy * sy)
            }
        };
        let to_id = jump.spec.to.clone();
        let _ = JumpType::GeometricZoom; // jump kinds share the fetch path
        self.canvas = to_id.clone();
        let bounds = to.bounds();
        self.viewport.center_on(cx, cy, &bounds);
        // a new canvas shows different data: drop the frontend cache
        self.cache.clear(to.layers.len());
        self.momentum.reset();

        let mut report = self.ensure_viewport_data()?;
        report.measured_ms = start.elapsed().as_secs_f64() * 1000.0;
        Ok(JumpOutcome {
            jump_id: jump_id.to_string(),
            to_canvas: to_id,
            name,
            report,
        })
    }

    // ----------------------------------------------------------- fetching

    /// Make sure the data under the viewport is locally available,
    /// fetching what is missing. This is the per-step measured operation.
    ///
    /// Every layer goes through the server's plan-agnostic *region* fetch:
    /// the server resolves each layer's plan (set per `(canvas, layer)` by
    /// its [`kyrix_server::PlanPolicy`]) and serves covering tiles or a
    /// dynamic box accordingly, so one session drives mixed-plan apps —
    /// e.g. an LoD hierarchy with tiled cluster levels over a boxed raw
    /// level — without ever matching on a plan itself.
    pub fn ensure_viewport_data(&mut self) -> Result<StepReport> {
        let start = Instant::now();
        let obs = self.server.obs();
        let _interaction = obs.span("session.interaction");
        self.sync_data_version();
        let vp = self.effective_viewport();
        let mut fetch = FetchMetrics::default();
        let mut frontend_hits = 0u64;
        // borrowed through the fields, so the cache stays free to mutate
        let canvas = self
            .server
            .app()
            .canvas(&self.canvas)
            .expect("session canvas always exists");

        for (layer, l) in canvas.layers.iter().enumerate() {
            if l.is_static {
                continue;
            }
            if self.cache.lookup(layer, &vp).is_some() {
                frontend_hits += 1;
                continue;
            }
            let resp = self.server.fetch_region(&self.canvas, layer, &vp)?;
            fetch.merge(&resp.metrics);
            self.cache.put_region(layer, resp.rect, resp.rows);
        }

        let modeled_ms = fetch.modeled_ms(&self.server.cost_model());
        let visible_rows = self
            .data_layers()?
            .into_iter()
            .map(|(layer, layout)| self.visible_in(layer, layout).count())
            .sum();
        Ok(StepReport {
            fetch,
            modeled_ms,
            measured_ms: start.elapsed().as_secs_f64() * 1000.0,
            frontend_hits,
            visible_rows,
        })
    }

    /// Catch up with server-side data mutations: when the server's
    /// published head moved past the snapshot our cached regions were
    /// fetched under, drop exactly the cached regions the server's
    /// mutation log marks stale on this canvas (everything, if the log was
    /// truncated), then record the new head's versions. The next lookups
    /// then miss and refetch fresh data.
    fn sync_data_version(&mut self) {
        let head = self.server.snapshot();
        // vector compare: on a sharded backend a mutation bumps only the
        // entries of the shards it dirtied, so a session is current iff every
        // shard's entry matches (single node: the one-entry scalar case)
        if head.versions() == self.versions {
            return;
        }
        match self.server.changes_since(self.version) {
            Some(changes) => {
                for (canvas, layer, rect) in changes {
                    if canvas == self.canvas {
                        self.cache.invalidate(layer, &rect);
                    }
                }
            }
            None => {
                let layers = self.current_canvas().layers.len();
                self.cache.clear(layers);
            }
        }
        self.versions = head.versions().to_vec();
        self.version = head.version();
    }

    /// The current canvas's layers that carry data rows, with the accessor
    /// layout of those rows.
    fn data_layers(&self) -> Result<Vec<(usize, LayerRowLayout)>> {
        let mut out = Vec::new();
        for (layer, l) in self.current_canvas().layers.iter().enumerate() {
            if l.is_static {
                continue;
            }
            if let Some(layout) = self.server.layout(&self.canvas, layer)? {
                out.push((layer, layout));
            }
        }
        Ok(out)
    }

    /// The one borrowing pass behind [`Session::visible`],
    /// [`Session::object_at`], [`Session::render`] and the per-step row
    /// count: the rows of a layer's cached region whose box intersects
    /// the viewport, each tuple id once, in cache order.
    fn visible_in(&self, layer: usize, layout: LayerRowLayout) -> impl Iterator<Item = &Row> {
        let vp = self.effective_viewport();
        let mut seen: FxHashSet<i64> = FxHashSet::default();
        self.cache
            .peek(layer, &vp)
            .into_iter()
            .flat_map(|rows| rows.iter())
            .filter(move |row| {
                layout.bbox(row).intersects(&vp) && seen.insert(layout.tuple_id(row))
            })
    }

    /// Rows visible in the current viewport, per non-static layer: copies
    /// of the cached region's rows whose box intersects the viewport, at
    /// most `limit_per_layer` each, deduplicated by tuple id (a region
    /// response carries ids unique within it — the server's merge keeps a
    /// tile straddler once and renumbers synthesized ids). Callers that
    /// only inspect or count rows inside the session borrow them instead.
    pub fn visible(&mut self, limit_per_layer: usize) -> Result<Vec<(usize, Vec<Row>)>> {
        Ok(self
            .data_layers()?
            .into_iter()
            .map(|(layer, layout)| {
                let rows = self.visible_in(layer, layout).take(limit_per_layer);
                (layer, rows.cloned().collect())
            })
            .collect())
    }

    /// Topmost object whose bounding box contains the canvas point.
    pub fn object_at(&mut self, cx: f64, cy: f64) -> Result<Option<(usize, Row)>> {
        // top layer first
        for (layer, layout) in self.data_layers()?.into_iter().rev() {
            let hit = self
                .visible_in(layer, layout)
                .find(|row| layout.bbox(row).contains_point(cx, cy));
            if let Some(row) = hit {
                return Ok(Some((layer, row.clone())));
            }
        }
        Ok(None)
    }

    // ---------------------------------------------------------- rendering

    /// Render the current viewport to an RGBA frame.
    pub fn render(&mut self) -> Result<Frame> {
        let vp = self.viewport;
        let mut frame = Frame::new(vp.width as usize, vp.height as usize);
        frame.clear(Color::WHITE);
        for (li, layer) in self.current_canvas().layers.iter().enumerate() {
            match &layer.rendering {
                CompiledRender::Static(marks) => {
                    // static layers draw in *viewport* coordinates
                    for m in marks {
                        frame.draw_mark(m);
                    }
                }
                CompiledRender::Marks(enc) => {
                    let Some(layout) = self.server.layout(&self.canvas, li)? else {
                        continue;
                    };
                    let color_scale = enc
                        .color
                        .as_ref()
                        .map(|(_, d0, d1, ramp)| ColorScale::new(*d0, *d1, ramp.ramp()));
                    for row in self.visible_in(li, layout) {
                        let data = &row.values[..layout.n_data_cols];
                        let (sx, sy) = vp.to_screen(layout.cx(row), layout.cy(row));
                        let size = enc.size.eval_f64(data).unwrap_or(2.0);
                        let fill = match (&enc.color, &color_scale) {
                            (Some((field, _, _, _)), Some(scale)) => {
                                let v = field.eval_f64(data).unwrap_or(0.0);
                                scale.apply(v)
                            }
                            _ => enc.fill,
                        };
                        let bbox = layout.bbox(row);
                        let mark = match enc.mark {
                            MarkType::Circle => Mark::Circle {
                                cx: sx,
                                cy: sy,
                                r: size,
                                fill,
                                stroke: enc.stroke,
                            },
                            MarkType::Rect => {
                                let (bx, by) = vp.to_screen(bbox.min_x, bbox.min_y);
                                Mark::Rect {
                                    x: bx,
                                    y: by,
                                    w: bbox.width(),
                                    h: bbox.height(),
                                    fill,
                                    stroke: enc.stroke,
                                }
                            }
                            MarkType::Line => {
                                let (x0, y0) = vp.to_screen(bbox.min_x, bbox.min_y);
                                let (x1, y1) = vp.to_screen(bbox.max_x, bbox.max_y);
                                Mark::Line {
                                    x0,
                                    y0,
                                    x1,
                                    y1,
                                    color: fill,
                                }
                            }
                            MarkType::Polygon => {
                                // data rows carry boxes; draw the box outline
                                let (x0, y0) = vp.to_screen(bbox.min_x, bbox.min_y);
                                Mark::Rect {
                                    x: x0,
                                    y: y0,
                                    w: bbox.width(),
                                    h: bbox.height(),
                                    fill,
                                    stroke: enc.stroke.or(Some(Color::BLACK)),
                                }
                            }
                            MarkType::Text => {
                                let text = enc
                                    .label
                                    .as_ref()
                                    .and_then(|l| l.eval(data).ok())
                                    .map(|v| match v {
                                        Value::Text(t) => t,
                                        other => other.to_string(),
                                    })
                                    .unwrap_or_default();
                                Mark::Text {
                                    x: sx,
                                    y: sy,
                                    text,
                                    color: fill,
                                    size: size.max(1.0) as u8,
                                }
                            }
                        };
                        frame.draw_mark(&mark);
                    }
                }
            }
        }
        Ok(frame)
    }

    /// Reset the frontend cache (testing aid).
    pub fn clear_frontend_cache(&mut self) {
        let layers = self.current_canvas().layers.len();
        self.cache.clear(layers);
    }

    /// Lookup and eviction statistics of the frontend region cache
    /// (hits/misses plus capacity-vs-invalidation removal counts).
    pub fn frontend_cache_stats(&self) -> kyrix_server::CacheStats {
        self.cache.stats()
    }
}
