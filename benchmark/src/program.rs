//! Every call this benchmark makes into the terrain-hsr crates.
//!
//! The workloads in `main.rs` reach the program only through the items
//! below, so an API change in the workspace edits this one file of the
//! benchmark. Only crate-level APIs the roadmap keeps are called: not the
//! facade's `ServeBuilder`, `Scene` or `Session`, not `Client::stats` or
//! `Request::Stats`, not `ServerBuilder::batch_window`, and neither
//! `Report::timings` nor `evaluate_span`. Every time is taken here, from
//! outside, with `Instant`.

use std::hash::Hasher as _;
use std::hint::black_box;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

use hsr_catalog::Catalog;
use hsr_core::edges::{project_edges, SceneEdge};
use hsr_core::order::{depth_order, depth_order_parallel};
use hsr_core::pct::Pct;
use hsr_core::perspective::Viewpoint;
use hsr_core::pipeline::Algorithm;
use hsr_core::view::{evaluate, Projection};
use hsr_core::viewshed::{classify_points, Verdict};
use hsr_geometry::Point3;
use hsr_pram::cost::Category;
use hsr_serve::{Client, Request, Response, Server, ServerBuilder, TerrainFormat, TerrainSource};
use hsr_terrain::{gen, io, GridTerrain};
use hsr_tile::{TileId, TilePyramid, TileStore, TiledScene, TiledSceneConfig, TilingConfig};

pub use hsr_core::view::{Report, View};
pub use hsr_terrain::Tin;

/// The name the served workloads host their terrain under.
pub const HOSTED: &str = "t";

/// Tiling of every uploaded terrain in `ingest-tiled`.
const TILING: TilingConfig = TilingConfig { tile_size: 16, levels: 2 };

/// Raw bytes per `Client::upload_terrain` chunk. The client does not
/// expose its chunk size, so this mirrors it; it only scales
/// `hsr-serve.upload_ms_per_chunk`.
const UPLOAD_CHUNK_BYTES: usize = 48 * 1024;

/// A generated heightfield plus its binary grid encoding, the payload
/// the ingest paths take in.
pub struct Terrain {
    grid: GridTerrain,
    bytes: Vec<u8>,
}

impl Terrain {
    fn new(grid: GridTerrain) -> Terrain {
        let bytes = io::grid_to_bytes(&grid);
        Terrain { grid, bytes }
    }

    /// Size of the binary grid encoding.
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Upload chunks `Client::upload_terrain` splits the payload into.
    pub fn upload_chunks(&self) -> usize {
        self.bytes.len().div_ceil(UPLOAD_CHUNK_BYTES).max(1)
    }

    fn span(&self) -> (f64, f64, f64, f64, f64) {
        let g = &self.grid;
        let x_hi = g.origin.0 + (g.nx - 1) as f64 * g.dx;
        let y_lo = g.origin.1;
        let y_hi = g.origin.1 + (g.ny - 1) as f64 * g.dy;
        let z_hi = g.heights.iter().copied().fold(f64::MIN, f64::max);
        (g.origin.0, x_hi, y_lo, y_hi, z_hi)
    }
}

/// `gen::fbm(cells, cells, octaves, 12.0, seed)`.
pub fn fbm_terrain(cells: usize, octaves: u32, seed: u64) -> Terrain {
    Terrain::new(gen::fbm(cells, cells, octaves, 12.0, seed))
}

/// `gen::diamond_square(pow2, 0.6, 12.0, seed)`, serve_load's terrain.
pub fn diamond_square_terrain(pow2: u32, seed: u64) -> Terrain {
    Terrain::new(gen::diamond_square(pow2, 0.6, 12.0, seed))
}

/// The nine default-config views of one `views-local` cycle: five
/// orthographic azimuths, two perspective eyes outside the ground box,
/// one eye-level perspective view (see [`eye_level_sweep`]), and one
/// viewshed of sixteen targets spread across the terrain.
///
/// Views differ in cost by up to 2.3×, so each forms its own latency
/// band; with an odd count the nearest-rank median falls inside a band
/// rather than on the edge between two.
pub fn local_views(t: &Terrain) -> Vec<View> {
    let (x_lo, x_hi, y_lo, y_hi, z_hi) = t.span();
    let (w, mid_y) = (x_hi - x_lo, 0.5 * (y_lo + y_hi));
    let mut views: Vec<View> = (0..5)
        .map(|i| View::orthographic(0.1 + i as f64 * std::f64::consts::TAU / 5.0))
        .collect();
    views.push(View::perspective(
        Point3::new(x_hi + 0.5 * w, mid_y, z_hi + 0.3 * w),
        Point3::new(x_lo, mid_y, 0.0),
        1.2,
        256,
    ));
    views.push(View::perspective(
        Point3::new(x_hi + 0.3 * w, y_lo - 0.3 * w, z_hi + 0.25 * w),
        Point3::new(x_lo, y_hi, 0.0),
        1.2,
        256,
    ));
    let eye = eye_level(t, mid_y);
    views.push(View::perspective(eye, Point3::new(x_lo, mid_y, eye.z - 1.0), 1.2, 256));
    let targets = (0..16)
        .map(|i| {
            let f = (i as f64 + 0.5) / 16.0;
            let (x, y) = (x_lo + f * 0.9 * w, y_lo + f * (y_hi - y_lo));
            Point3::new(x, y, t.grid.sample(x, y) + 0.5)
        })
        .collect();
    views.push(View::viewshed(Point3::new(x_hi + 0.6 * w, mid_y, z_hi + 0.15 * w), targets));
    views
}

/// Where an eye-level view stands for position `y` along the front (+x)
/// edge: one unit outside the edge and one unit above the ground there.
fn eye_level(t: &Terrain, y: f64) -> Point3 {
    let (_, x_hi, ..) = t.span();
    Point3::new(x_hi + 1.0, y, t.grid.sample(x_hi, y) + 1.0)
}

/// Six eye-level perspective views: eyes at six evenly spaced points of
/// the front edge, each looking straight across the terrain.
///
/// From eye level the near ridges hide most of the surface, so a report
/// stays small (k ≈ 130–470 on serve_load's terrain, against ≈ 1100 for
/// its orthographic sweep) while the evaluation still orders and merges
/// every edge. Report decode is quadratic in report size today, and its
/// scan loop ran 1.7× slower in some 30-second windows than in others on
/// one 2-vCPU host; at eye level it is about a tenth of each request
/// rather than half.
pub fn eye_level_sweep(t: &Terrain) -> Vec<View> {
    let (x_lo, _, y_lo, y_hi, _) = t.span();
    (0..6)
        .map(|i| {
            let eye = eye_level(t, y_lo + (i as f64 + 0.5) / 6.0 * (y_hi - y_lo));
            View::perspective(eye, Point3::new(x_lo, eye.y, eye.z - 1.0), 1.2, 256)
        })
        .collect()
}

/// `views` viewsheds from eye-level observers whose three targets each
/// sit just inside the front edge, so each view selects one or two tiles
/// of the front column.
pub fn front_edge_burst(t: &Terrain, views: usize) -> Vec<View> {
    let (_, x_hi, y_lo, y_hi, _) = t.span();
    (0..views)
        .map(|i| {
            let y = y_lo + (i as f64 + 0.5) / views as f64 * (y_hi - y_lo);
            let observer = eye_level(t, y);
            let targets = [-2.0, 0.0, 2.0]
                .iter()
                .map(|dy| {
                    let (tx, ty) = (x_hi - 0.5, (y + dy).clamp(y_lo, y_hi));
                    Point3::new(tx, ty, t.grid.sample(tx, ty) + 0.5)
                })
                .collect();
            View::viewshed(observer, targets)
        })
        .collect()
}

/// Bit-level identity of one report: visibility map, `n`, `k`, total
/// cost work, and viewshed verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    vis: u64,
    n: usize,
    k: usize,
    work: u64,
    verdicts: u64,
}

/// The [`Fingerprint`] of a report.
pub fn fingerprint(r: &Report) -> Fingerprint {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in &r.vis.pieces {
        for f in [p.x0, p.x1, p.z0, p.z1] {
            h.write_u64(f.to_bits());
        }
        h.write_u32(p.edge);
    }
    for c in &r.vis.crossings {
        h.write_u64(c.x.to_bits());
        h.write_u64(c.z.to_bits());
        h.write_u32(c.upper_left);
        h.write_u32(c.upper_right);
    }
    for &e in &r.vis.vertical_visible {
        h.write_u32(e);
    }
    h.write_usize(r.vis.n_edges);
    let vis = h.finish();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in &r.verdicts {
        h.write_u8(u8::from(*v == Verdict::Visible));
    }
    h.write_usize(r.verdicts.len());
    Fingerprint { vis, n: r.n, k: r.k, work: r.cost.total_work(), verdicts: h.finish() }
}

/// Triangulates and validates the grid into a TIN.
pub fn build_tin(t: &Terrain) -> Result<Tin, String> {
    t.grid.to_tin().map_err(|e| e.to_string())
}

/// `hsr_core::view::evaluate` with the view's own (default) config.
pub fn eval_local(tin: &Tin, view: &View) -> Result<Report, String> {
    evaluate(tin, view).map_err(|e| e.to_string())
}

/// The same view under `Algorithm::Sequential`, the Reif–Sen baseline.
pub fn eval_sequential(tin: &Tin, view: &View) -> Result<Report, String> {
    evaluate(tin, &view.clone().algorithm(Algorithm::Sequential)).map_err(|e| e.to_string())
}

/// The agreement rule of hsr-core's `all_algorithms_agree_end_to_end`:
/// visibility agreement of at least 0.9999, equal vertical-visible sets,
/// and (for viewsheds) equal verdicts.
pub fn agrees_with_sequential(par: &Report, seq: &Report) -> Result<(), String> {
    let agreement = par.vis.agreement(&seq.vis);
    if agreement < 0.9999 {
        return Err(format!("agreement with Sequential {agreement}"));
    }
    if par.vis.vertical_visible != seq.vis.vertical_visible {
        return Err("vertical-visible sets differ from Sequential".into());
    }
    if par.verdicts != seq.verdicts {
        return Err("viewshed verdicts differ from Sequential".into());
    }
    Ok(())
}

/// Exact cost-model counts of one report.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostCounts {
    pub work: u64,
    pub depth: u64,
    pub treap_ops: u64,
    pub pred_filter: u64,
    pub pred_exact: u64,
}

/// `Report::cost` totals and the categories the per-layer metrics read.
pub fn cost_counts(r: &Report) -> CostCounts {
    let c = &r.cost;
    CostCounts {
        work: c.total_work(),
        depth: c.total_depth(),
        treap_ops: c.work_of(Category::TreapOps) + c.work_of(Category::TreapArena),
        pred_filter: c.work_of(Category::PredicateFilter),
        pred_exact: c.work_of(Category::PredicateExact),
    }
}

/// Seconds spent in each hsr-core layer by one view, timed call by call
/// on the path `evaluate` takes for the default config.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreLayers {
    /// `Tin::rotated_about_z`, or `remap_vertices` with
    /// `Viewpoint::project`.
    pub remap_s: f64,
    /// `project_edges` plus the depth order and the ordered edge list.
    pub order_s: f64,
    /// `viewshed::classify_points` (viewsheds only).
    pub classify_s: f64,
    /// `pct::Pct::build`.
    pub phase1_s: f64,
    /// `Pct::phase2(false)`.
    pub phase2_s: f64,
    /// `seq::run_sequential` on the same ordered edges.
    pub seq_s: f64,
}

/// Replays one default-config view through hsr-core's `pub` layer
/// functions and times each call.
pub fn core_layers(tin: &Tin, view: &View) -> Result<CoreLayers, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut out = CoreLayers::default();
    let t = Instant::now();
    let (remapped, queries): (Option<Tin>, Vec<Point3>) = match &view.projection {
        Projection::Orthographic { azimuth } if *azimuth == 0.0 => (None, Vec::new()),
        Projection::Orthographic { azimuth } => {
            (Some(tin.rotated_about_z(*azimuth).map_err(|e| err(&e))?), Vec::new())
        }
        Projection::Perspective { eye, look, .. } => {
            // The alignment rotation `evaluate` applies: the look
            // direction becomes -x.
            let alpha = std::f64::consts::PI - (look.y - eye.y).atan2(look.x - eye.x);
            let (s, c) = alpha.sin_cos();
            let rot = move |p: Point3| Point3::new(c * p.x - s * p.y, s * p.x + c * p.y, p.z);
            let e = rot(*eye);
            let vp = Viewpoint { vx: e.x, vy: e.y, vz: e.z };
            let ptin = if alpha.abs() < 1e-15 {
                tin.remap_vertices(|p| vp.project(p))
            } else {
                tin.remap_vertices(|p| vp.project(rot(p)))
            };
            (Some(ptin.map_err(|e| err(&e))?), Vec::new())
        }
        Projection::Viewshed { observer, targets } => {
            let vp = Viewpoint { vx: observer.x, vy: observer.y, vz: observer.z };
            let ptin = tin.remap_vertices(|p| vp.project(p)).map_err(|e| err(&e))?;
            (Some(ptin), targets.iter().map(|&p| vp.project(p)).collect())
        }
    };
    let ptin = remapped.as_ref().unwrap_or(tin);
    out.remap_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let edges = project_edges(ptin);
    let order = if view.config.parallel_order {
        depth_order_parallel(ptin)
    } else {
        depth_order(ptin)
    }
    .map_err(|e| err(&e))?;
    let ordered: Vec<SceneEdge> = order.iter().map(|&e| edges[e as usize]).collect();
    out.order_s = t.elapsed().as_secs_f64();

    if !queries.is_empty() {
        let t = Instant::now();
        black_box(classify_points(ptin, &edges, &order, &queries));
        out.classify_s = t.elapsed().as_secs_f64();
    }

    let t = Instant::now();
    black_box(hsr_core::seq::run_sequential(&ordered));
    out.seq_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let pct = Pct::build(ordered);
    out.phase1_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(pct.phase2(false));
    out.phase2_s = t.elapsed().as_secs_f64();
    Ok(out)
}

/// An in-process server with default config and no recorder.
pub struct Service {
    server: Server,
}

impl Service {
    /// Hosts `t` under [`HOSTED`] as an in-memory grid.
    pub fn grid(t: &Terrain) -> std::io::Result<Service> {
        let server = ServerBuilder::new()
            .terrain(HOSTED, TerrainSource::Grid(t.grid.clone()))
            .bind("127.0.0.1:0")?;
        Ok(Service { server })
    }

    /// Serves a catalog opened (or created) in `dir`.
    pub fn catalog(dir: &Path) -> std::io::Result<Service> {
        let server = ServerBuilder::new().catalog_dir(dir)?.bind("127.0.0.1:0")?;
        Ok(Service { server })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// What an upload acknowledgement reported.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    pub bytes: u64,
    pub deduped: bool,
}

/// A blocking `hsr_serve::Client` connection.
pub struct Conn {
    client: Client,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn { client: Client::connect(addr)? })
    }

    /// Ping-pong `Client::eval`: write the request, wait for the decoded
    /// report.
    pub fn eval(&mut self, terrain: &str, view: &View) -> Result<Report, String> {
        self.client.eval(terrain, view).map_err(|e| e.to_string())
    }

    /// `Client::upload_terrain` of the terrain's grid bytes as a
    /// `TiledGrid { tile_size: 16, levels: 2 }`.
    pub fn upload(&mut self, name: &str, t: &Terrain) -> Result<Ack, String> {
        let format =
            TerrainFormat::TiledGrid { tile_size: TILING.tile_size, levels: TILING.levels };
        let ack = self
            .client
            .upload_terrain(name, format, "hsr-perf", &t.bytes)
            .map_err(|e| e.to_string())?;
        Ok(Ack { bytes: ack.bytes, deduped: ack.deduped })
    }
}

/// A raw-socket client that writes request lines itself and reads the
/// response lines undecoded, so wire time and decode time split apart.
pub struct SplitConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// One raw response line and the instant its last byte arrived.
pub struct RawLine {
    pub line: String,
    pub at: Instant,
}

impl SplitConn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<SplitConn> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(SplitConn { reader: BufReader::new(stream), writer, next_id: 1 })
    }

    /// Writes one eval request line per view, then reads as many raw
    /// response lines. Returns the instant writing began, the id of the
    /// first request (view `j` has id `first + j`), and the lines in
    /// arrival order.
    pub fn roundtrip(
        &mut self,
        terrain: &str,
        views: &[View],
    ) -> std::io::Result<(Instant, u64, Vec<RawLine>)> {
        let first = self.next_id;
        let mut out = String::new();
        for view in views {
            let request = Request::eval(self.next_id, terrain, view.clone());
            self.next_id += 1;
            out.push_str(&serde_json::to_string(&request).map_err(std::io::Error::other)?);
            out.push('\n');
        }
        let sent = Instant::now();
        self.writer.write_all(out.as_bytes())?;
        let mut lines = Vec::with_capacity(views.len());
        for _ in views {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            lines.push(RawLine { line, at: Instant::now() });
        }
        Ok((sent, first, lines))
    }
}

/// `serde_json::from_str::<Response>` on one raw response line; returns
/// the request id and the report.
pub fn decode_response(line: &str) -> Result<(u64, Report), String> {
    let response: Response = serde_json::from_str(line.trim()).map_err(|e| e.to_string())?;
    let id = response.id;
    response
        .into_result()
        .map(|r| (id, r))
        .map_err(|e| e.to_string())
}

/// `serde_json::to_string(&Response::ok(id, report))`, the line a server
/// writes for a report.
pub fn encode_response(report: Report) -> String {
    serde_json::to_string(&Response::ok(1, report)).expect("responses serialize")
}

/// A catalog the benchmark commits uploads to directly.
pub struct LocalCatalog {
    catalog: Catalog,
}

impl LocalCatalog {
    /// `Catalog::open` on `dir`.
    pub fn open(dir: &Path) -> Result<LocalCatalog, String> {
        Ok(LocalCatalog { catalog: Catalog::open(dir).map_err(|e| e.to_string())? })
    }

    /// `Catalog::upload` of the grid bytes, in the format the server
    /// gets them.
    pub fn upload(&self, name: &str, t: &Terrain) -> Result<(), String> {
        let format =
            TerrainFormat::TiledGrid { tile_size: TILING.tile_size, levels: TILING.levels };
        self.catalog
            .upload(name, format, "hsr-perf", &t.bytes)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// `TilePyramid::build` of the terrain into a new tile store at `dir`.
pub fn build_pyramid(t: &Terrain, dir: &Path) -> Result<(), String> {
    let store = TileStore::create(dir).map_err(|e| e.to_string())?;
    TilePyramid::build(&t.grid, TILING, &store)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// One view's result from a local tiled evaluation.
pub struct TiledOut {
    pub report: Report,
    pub tiles: Vec<TileId>,
}

/// A tiled scene opened on a local store, configured as the server
/// configures cataloged tiled terrains.
pub struct LocalTiled {
    scene: TiledScene,
    store: TileStore,
}

impl LocalTiled {
    /// `TiledScene::open` on the store at `dir` with the default config.
    pub fn open(dir: &Path) -> Result<LocalTiled, String> {
        let open = || TileStore::open(dir).map_err(|e| e.to_string());
        let scene =
            TiledScene::open(open()?, TiledSceneConfig::default()).map_err(|e| e.to_string())?;
        Ok(LocalTiled { scene, store: open()? })
    }

    /// `TiledScene::eval_many`, plus the scene's cache hits and lookups
    /// right after it.
    pub fn eval_many(&self, views: &[View]) -> Result<(Vec<TiledOut>, u64, u64), String> {
        let results = self.scene.eval_many(views).map_err(|e| e.to_string())?;
        let outs = results
            .into_iter()
            .map(|r| {
                r.map(|t| TiledOut {
                    report: t.report,
                    tiles: t.tiles.iter().map(|e| e.id).collect(),
                })
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cache = self.scene.cache_stats();
        Ok((outs, cache.hits, cache.lookups))
    }

    /// The TIN of one stored tile, as tiled evaluation builds it.
    pub fn tile_tin(&self, id: TileId) -> Result<Tin, String> {
        let grid = self.store.read_tile(id).map_err(|e| e.to_string())?;
        grid.to_tin().map_err(|e| e.to_string())
    }
}
