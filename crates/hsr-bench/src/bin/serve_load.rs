//! serve_load — load generator for the `hsr-serve` visibility service.
//!
//! Spins up an in-process server hosting the same terrain on both
//! backends (monolithic TIN and out-of-core tile pyramid), then drives
//! it with concurrent client threads under three traffic shapes:
//!
//! * `mono-pingpong` — strict request/response per client (nothing
//!   queues up for a worker to coalesce: the coalescing *floor*),
//! * `mono-pipelined` — each client pipelines bursts of compatible
//!   requests (the coalescing *ceiling*),
//! * `tiled-viewshed` — viewshed bursts against the tiled backend
//!   (prepared-scene reuse + the resident-tile cache under the cap),
//! * `open-loop-idle` — ≥ 1024 idle connections held open while active
//!   clients send on a **fixed schedule**; latency is measured from the
//!   *scheduled* send instant (no coordinated omission), and the
//!   process thread count is recorded before and after the idle herd
//!   connects — the event-driven layer (ISSUE 6) must not grow it.
//!
//! * `catalog-ingest` — terrains uploaded over the wire into the
//!   attached persistent catalog (half of them duplicate payloads, so
//!   dedup shows up in the numbers), then queried cold and warm.
//!
//! Reports throughput, wall-clock latency percentiles, and the
//! per-request cost counters the responses carry (the output-size
//! sensitive bound is what makes per-request cost predictable enough to
//! schedule). Every server-side counter is read over the wire with
//! [`Request::Stats`] (ISSUE 7) — the bench observes the server exactly
//! like an operator would; `/proc` is consulted only for the
//! fixed-thread-count assertion, which no wire counter can answer.
//! The server runs with an observability recorder installed (ISSUE 9):
//! latency percentiles are computed through the same log-linear
//! histogram the server records into, a mid-run scraper polls
//! `Request::Metrics` while the scenarios execute, and after the run
//! the server-side request histogram must hold exactly one sample per
//! eval request, with the ping-pong server percentiles within one
//! bucket's relative error of the bench-observed ones.
//! `--json` writes `BENCH_serve.json` — the artifact the CI serve-smoke
//! job uploads — as `{"closed_loop": [...], "open_loop": {...},
//! "ingest": {...}, "obs": {...}}` (the first two keys keep their PR-6
//! shape); `--quick` shrinks the run.
//!
//! [`Request::Stats`]: hsr_serve::Request::Stats
//!
//! ```sh
//! cargo run --release -p hsr-bench --bin serve_load -- [--quick] [--json]
//! ```

use hsr_bench::harness::md_table;
use hsr_core::view::View;
use hsr_geometry::Point3;
use hsr_obs::{HistSnapshot, Histogram, MetricsSnapshot, RecorderConfig, RELATIVE_ERROR};
use hsr_serve::{
    CacheStats, CatalogStats, Client, ServeStats, Server, ServerBuilder, StatsSnapshot,
    TerrainFormat, TerrainSource,
};
use hsr_terrain::{gen, io};
use hsr_tile::{TilePyramid, TileStore, TiledSceneConfig, TilingConfig};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One scenario's measurements, serialized into `BENCH_serve.json`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct ScenarioReport {
    scenario: String,
    clients: usize,
    requests: u64,
    errors: u64,
    elapsed_s: f64,
    throughput_rps: f64,
    latency_ms_p50: f64,
    latency_ms_p90: f64,
    latency_ms_p99: f64,
    latency_ms_max: f64,
    /// Sum of the per-request cost counters (`Report::cost` total work).
    total_work: u64,
    /// Mean output size `k` per successful request.
    mean_k: f64,
    /// Service counters **scoped to this scenario** (before/after
    /// deltas) — except `max_batch_observed`, which is a high-water
    /// mark the server cannot un-see and therefore covers the whole
    /// run up to this scenario's end.
    server: ServeStats,
    /// Prepared-scene counters scoped to this scenario (deltas), with
    /// `resident`/`peak_resident` as end-of-scenario snapshots.
    prepared: CacheStats,
    /// Bench-side latency histogram (same log-linear layout the server
    /// records into, so the percentiles above are comparable to the
    /// server's `Request::Metrics` histograms within one bucket's
    /// relative error).
    latency_hist: HistSnapshot,
}

/// The open-loop scenario's measurements (`open_loop` in the JSON).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct OpenLoopReport {
    scenario: String,
    /// Idle connections held open for the whole measurement (half of
    /// them parked mid-request-line, exercising per-connection carry
    /// state).
    idle_connections: usize,
    active_clients: usize,
    requests: u64,
    errors: u64,
    /// The fixed send schedule: one request per client per interval.
    send_interval_ms: f64,
    elapsed_s: f64,
    throughput_rps: f64,
    /// Latency from the **scheduled** send instant, not the actual one
    /// — a server that falls behind the schedule cannot hide it
    /// (coordinated omission).
    latency_ms_p50: f64,
    latency_ms_p90: f64,
    latency_ms_p99: f64,
    latency_ms_max: f64,
    /// Process thread count (`/proc/self/status`) before the idle herd
    /// connected…
    threads_before_idle: usize,
    /// …and with all idle connections up: the event-driven connection
    /// layer must hold this **equal** — connections are multiplexed,
    /// never given threads.
    threads_with_idle: usize,
    /// Service counters scoped to this scenario (deltas, as above).
    server: ServeStats,
}

/// The `catalog-ingest` scenario's measurements (`ingest` in the JSON —
/// a backward-compatible addition next to `closed_loop`/`open_loop`).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct IngestReport {
    scenario: String,
    /// Wire uploads performed (each payload pushed twice → half dedup).
    uploads: u64,
    /// Uploads answered `deduped: true` (zero new blob bytes).
    deduped: u64,
    /// Raw payload bytes pushed over the wire (pre-base64).
    payload_bytes: u64,
    elapsed_s: f64,
    /// Ingest throughput in raw payload MiB/s.
    ingest_mib_s: f64,
    /// First query against a freshly ingested terrain: prepare included.
    cold_query_ms: f64,
    /// The same query once prepared (LRU hit).
    warm_query_ms: f64,
    /// End-of-scenario catalog counters, straight off the wire.
    catalog: CatalogStats,
}

/// One wire stats delta: `after - before` for the serve counters,
/// likewise for the prepared counters (gauges stay end-of-scenario).
fn serve_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> ServeStats {
    let (b, a) = (&before.serve, &after.serve);
    ServeStats {
        connections: a.connections - b.connections,
        admitted: a.admitted - b.admitted,
        rejected: a.rejected - b.rejected,
        malformed: a.malformed - b.malformed,
        completed: a.completed - b.completed,
        failed: a.failed - b.failed,
        dropped_slow: a.dropped_slow - b.dropped_slow,
        batches: a.batches - b.batches,
        batched_requests: a.batched_requests - b.batched_requests,
        max_batch_observed: a.max_batch_observed,
    }
}

fn prepared_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> CacheStats {
    let (b, a) = (&before.prepared, &after.prepared);
    CacheStats {
        lookups: a.lookups - b.lookups,
        hits: a.hits - b.hits,
        loads: a.loads - b.loads,
        errors: a.errors - b.errors,
        evictions: a.evictions - b.evictions,
        invalidations: a.invalidations - b.invalidations,
        resident: a.resident,
        peak_resident: a.peak_resident,
    }
}

/// Current thread count of this process (0 where `/proc` is absent —
/// the fixed-thread assertion is skipped there). The one number the
/// wire stats cannot carry; everything else comes from
/// [`Request::Stats`](hsr_serve::Request::Stats).
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("Threads:")
                    .and_then(|rest| rest.trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// The server under test plus the persistent admin connection that
/// snapshots its counters over the wire around each scenario.
struct Wire<'a> {
    server: &'a Server,
    admin: &'a mut Client,
}

/// Scrapes `Request::Metrics` until the end-to-end histogram holds at
/// least `expect` samples. A request's samples land just *after* its
/// response is enqueued (the respond stage must be timed), so a scrape
/// racing the final response can trail by the in-flight finalizes; the
/// short deadline bounds the wait, and the caller's count assertion
/// still catches real losses.
fn settled_metrics(admin: &mut Client, expect: u64) -> MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let snap = admin.metrics().expect("wire metrics");
        let total = snap.hist("request").map(|h| h.total).unwrap_or(0);
        if total >= expect || Instant::now() > deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Holds `idle` connections open while `clients` threads each send
/// `requests_per_client` ping-pong requests on a fixed `interval`
/// schedule, measuring latency from each request's *scheduled* send
/// time.
fn run_open_loop(
    wire: &mut Wire<'_>,
    terrain: &str,
    view: &View,
    idle: usize,
    clients: usize,
    requests_per_client: usize,
    interval: Duration,
) -> OpenLoopReport {
    let server = wire.server;
    let before = wire.admin.stats().expect("wire stats");
    let threads_before_idle = process_threads();

    // The idle herd. Half park a partial request line so shards carry
    // read state per connection; connects are lightly paced so the
    // accept queue never overflows.
    let parked_fragment = b"{\"id\":1,";
    let idle_conns: Vec<TcpStream> = (0..idle)
        .map(|i| {
            if i % 128 == 127 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let stream = TcpStream::connect(server.local_addr()).expect("idle connect");
            if i % 2 == 0 {
                use std::io::Write as _;
                (&stream).write_all(parked_fragment).expect("park fragment");
            }
            stream
        })
        .collect();
    let threads_with_idle = process_threads();

    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(server.local_addr()).expect("connect");
                    let mut latencies = Vec::new();
                    let mut errors = 0u64;
                    let start = Instant::now();
                    for i in 0..requests_per_client {
                        let scheduled = start + interval * i as u32;
                        let now = Instant::now();
                        if now < scheduled {
                            std::thread::sleep(scheduled - now);
                        }
                        if client.eval(terrain, view).is_err() {
                            errors += 1;
                        }
                        latencies.push(scheduled.elapsed().as_secs_f64() * 1e3);
                    }
                    (latencies, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    drop(idle_conns);

    let mut latencies: Vec<f64> = per_client.iter().flat_map(|(l, _)| l.clone()).collect();
    latencies.sort_by(f64::total_cmp);
    let errors: u64 = per_client.iter().map(|&(_, e)| e).sum();
    let requests = latencies.len() as u64;
    let after = wire.admin.stats().expect("wire stats");
    let (_, p50, p90, p99) = hist_percentiles_ms(&latencies);
    OpenLoopReport {
        scenario: "open-loop-idle".into(),
        idle_connections: idle,
        active_clients: clients,
        requests,
        errors,
        send_interval_ms: interval.as_secs_f64() * 1e3,
        elapsed_s,
        throughput_rps: requests as f64 / elapsed_s,
        latency_ms_p50: p50,
        latency_ms_p90: p90,
        latency_ms_p99: p99,
        latency_ms_max: latencies.last().copied().unwrap_or(0.0),
        threads_before_idle,
        threads_with_idle,
        server: serve_delta(&before, &after),
    }
}

/// Folds millisecond latencies through the shared log-linear histogram
/// ([`hsr_obs::Histogram`]) and reads the percentiles back from its
/// snapshot — the ISSUE 9 change that makes bench-side and server-side
/// percentiles directly comparable: both carry the same ≤
/// [`RELATIVE_ERROR`] per-bucket rounding.
fn hist_percentiles_ms(latencies_ms: &[f64]) -> (HistSnapshot, f64, f64, f64) {
    let hist = Histogram::new();
    for &ms in latencies_ms {
        hist.record((ms * 1e6) as u64);
    }
    let snap = hist.snapshot();
    let p50 = snap.quantile(0.50) as f64 / 1e6;
    let p90 = snap.quantile(0.90) as f64 / 1e6;
    let p99 = snap.quantile(0.99) as f64 / 1e6;
    (snap, p50, p90, p99)
}

/// Runs `clients` threads, each evaluating `rounds` bursts of `views`
/// against `terrain` (burst size 1 = ping-pong), and summarizes.
fn run_scenario(
    name: &str,
    wire: &mut Wire<'_>,
    terrain: &str,
    views: &[View],
    clients: usize,
    rounds: usize,
    pipelined: bool,
) -> ScenarioReport {
    let server = wire.server;
    let before = wire.admin.stats().expect("wire stats");
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(server.local_addr()).expect("connect");
                    let mut latencies = Vec::new();
                    let (mut work, mut k_sum, mut errors) = (0u64, 0u64, 0u64);
                    for _ in 0..rounds {
                        if pipelined {
                            let t = Instant::now();
                            let results = client.eval_pipelined(terrain, views).expect("pipelined");
                            let burst_ms = t.elapsed().as_secs_f64() * 1e3;
                            // Wall time is shared by the burst; charge
                            // each request the mean.
                            for result in results {
                                latencies.push(burst_ms / views.len() as f64);
                                match result {
                                    Ok(report) => {
                                        work += report.cost.total_work();
                                        k_sum += report.k as u64;
                                    }
                                    Err(_) => errors += 1,
                                }
                            }
                        } else {
                            for view in views {
                                let t = Instant::now();
                                match client.eval(terrain, view) {
                                    Ok(report) => {
                                        work += report.cost.total_work();
                                        k_sum += report.k as u64;
                                    }
                                    Err(_) => errors += 1,
                                }
                                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                            }
                        }
                    }
                    (latencies, work, k_sum, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = per_client.iter().flat_map(|(l, ..)| l.clone()).collect();
    latencies.sort_by(f64::total_cmp);
    let total_work: u64 = per_client.iter().map(|&(_, w, ..)| w).sum();
    let k_sum: u64 = per_client.iter().map(|&(_, _, k, _)| k).sum();
    let errors: u64 = per_client.iter().map(|&(.., e)| e).sum();
    let requests = latencies.len() as u64;
    let ok = requests - errors;
    let after = wire.admin.stats().expect("wire stats");
    let (latency_hist, p50, p90, p99) = hist_percentiles_ms(&latencies);
    ScenarioReport {
        scenario: name.into(),
        clients,
        requests,
        errors,
        elapsed_s,
        throughput_rps: requests as f64 / elapsed_s,
        latency_ms_p50: p50,
        latency_ms_p90: p90,
        latency_ms_p99: p99,
        latency_ms_max: latencies.last().copied().unwrap_or(0.0),
        total_work,
        mean_k: if ok > 0 {
            k_sum as f64 / ok as f64
        } else {
            0.0
        },
        server: serve_delta(&before, &after),
        prepared: prepared_delta(&before, &after),
        latency_hist,
    }
}

/// Uploads `uploads` terrains over the wire (each distinct payload
/// pushed under two names, so half the uploads dedup), then measures
/// the cold and warm first-query latency of a fresh entry.
fn run_ingest(wire: &mut Wire<'_>, uploads: usize) -> IngestReport {
    let mut client = Client::connect(wire.server.local_addr()).expect("connect");
    let (mut payload_bytes, mut deduped) = (0u64, 0u64);
    let t0 = Instant::now();
    for i in 0..uploads {
        // Two names per payload: `ingest-2k` uploads fresh content,
        // `ingest-2k+1` re-uploads it byte-identically.
        let grid = gen::fbm(48, 48, 3, 9.0, (i / 2) as u64);
        let bytes = io::grid_to_bytes(&grid);
        let ack = client
            .upload_terrain(&format!("ingest-{i}"), TerrainFormat::GridBin, "serve_load", &bytes)
            .expect("wire upload");
        payload_bytes += ack.bytes;
        deduped += u64::from(ack.deduped);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let view = View::orthographic(0.1);
    let t = Instant::now();
    client.eval("ingest-0", &view).expect("cold query");
    let cold_query_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    client.eval("ingest-0", &view).expect("warm query");
    let warm_query_ms = t.elapsed().as_secs_f64() * 1e3;

    let catalog = wire
        .admin
        .stats()
        .expect("wire stats")
        .catalog
        .expect("catalog configured");
    IngestReport {
        scenario: "catalog-ingest".into(),
        uploads: uploads as u64,
        deduped,
        payload_bytes,
        elapsed_s,
        ingest_mib_s: payload_bytes as f64 / (1u64 << 20) as f64 / elapsed_s,
        cold_query_ms,
        warm_query_ms,
        catalog,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (clients, rounds) = if quick { (4, 2) } else { (8, 4) };

    // One terrain, two backends. 33×33 keeps per-request latency small
    // so the run measures the service, not the pipeline.
    let grid = gen::diamond_square(5, 0.6, 12.0, 31);
    let (lo_x, hi_x) = (0.0, (grid.nx - 1) as f64);
    let mid_y = 0.5 * (grid.ny - 1) as f64;
    let dir = std::env::temp_dir().join(format!("serve-load-{}", std::process::id()));
    let cat_dir = std::env::temp_dir().join(format!("serve-load-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cat_dir);
    let tiled_cfg = TiledSceneConfig { cache_capacity: 4, ..Default::default() };
    TilePyramid::build(
        &grid,
        TilingConfig { tile_size: 8, levels: 2 },
        &TileStore::create(&dir).expect("store dir"),
    )
    .expect("pyramid build");

    let (shards, workers) = (2, 3);
    let threads_before_server = process_threads();
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(grid.clone()))
        .terrain("t-tiled", TerrainSource::TiledStore { dir: dir.clone(), config: tiled_cfg })
        .catalog_dir(&cat_dir)
        .expect("catalog dir")
        .observe(RecorderConfig::default())
        .shards(shards)
        .workers(workers)
        .queue_depth(256)
        .bind("127.0.0.1:0")
        .expect("bind");
    if threads_before_server > 0 {
        // The service is its shards, its workers and one acceptor.
        assert_eq!(
            process_threads() - threads_before_server,
            shards + workers + 1,
            "a bound server runs shards + workers + 1 threads"
        );
    }
    println!("## serve_load — {clients} clients × {rounds} rounds on {}", server.local_addr());

    // One persistent admin connection reads every server counter over
    // the wire; connecting it *before* the scenarios keeps it out of
    // their per-scenario connection deltas.
    let mut admin = Client::connect(server.local_addr()).expect("admin connect");
    let mut wire = Wire { server: &server, admin: &mut admin };

    // Mid-run metrics scraper (ISSUE 9 obs-smoke): a separate
    // connection polls `Request::Metrics` *while* the scenarios run,
    // checking the one invariant that holds mid-flight — histogram
    // samples never precede their outcome counters (the sample lands
    // after `completed`/`failed` is bumped).
    let scrape_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let addr = server.local_addr();
        let stop = std::sync::Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("scraper connect");
            let mut scrapes = 0u64;
            // ordering: Acquire pairs with the Release store at shutdown.
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let metrics = client.metrics().expect("mid-run metrics");
                assert!(metrics.enabled, "recorder is installed for the whole run");
                let stats = client.stats().expect("mid-run stats");
                let served = stats.serve.completed + stats.serve.failed;
                let sampled = metrics.hist("request").map(|h| h.total).unwrap_or(0);
                assert!(
                    sampled <= served,
                    "histogram samples precede their outcomes: {sampled} > {served}"
                );
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            scrapes
        })
    };

    let sweep: Vec<View> = (0..6)
        .map(|i| View::orthographic(0.12 * i as f64))
        .collect();
    let observer = Point3::new(hi_x + 120.0, mid_y, 30.0);
    let targets: Vec<Point3> = (0..16)
        .map(|i| {
            let f = (i as f64 + 0.5) / 16.0;
            Point3::new(lo_x + f * (hi_x - lo_x) * 0.9 + 0.37, mid_y + 8.0 * (f - 0.5), 6.0)
        })
        .collect();
    let viewsheds: Vec<View> = (0..4)
        .map(|_| View::viewshed(observer, targets.clone()))
        .collect();

    // Bracket mono-pingpong with Metrics scrapes: the server-side
    // request histogram delta for exactly this scenario's traffic
    // (ping-pong client intervals strictly contain the server-measured
    // ones, which is what makes the percentile comparison one-sided).
    let metrics_before = wire.admin.metrics().expect("wire metrics");
    let pingpong = run_scenario("mono-pingpong", &mut wire, "t", &sweep, clients, rounds, false);
    let metrics_after = settled_metrics(
        wire.admin,
        metrics_before.hist("request").map(|h| h.total).unwrap_or(0) + pingpong.requests,
    );
    let reports = vec![
        pingpong,
        run_scenario("mono-pipelined", &mut wire, "t", &sweep, clients, rounds, true),
        run_scenario("tiled-viewshed", &mut wire, "t-tiled", &viewsheds, clients, rounds, true),
    ];

    // Satellite 2 (ISSUE 9): the server-side percentiles must agree
    // with the bench-observed ones. Both sides round quantiles up to a
    // bucket boundary (≤ RELATIVE_ERROR), and every server interval is
    // nested in its client interval, so the bound is deterministic:
    // server_p ≤ bench_p × (1 + ε).
    let pingpong = &reports[0];
    let server_hist = metrics_after
        .hist("request")
        .expect("request histogram")
        .since(metrics_before.hist("request").expect("request histogram"));
    assert_eq!(
        server_hist.total, pingpong.requests,
        "every ping-pong request is exactly one server-side histogram sample"
    );
    let server_p50_ms = server_hist.quantile(0.50) as f64 / 1e6;
    let server_p99_ms = server_hist.quantile(0.99) as f64 / 1e6;
    let bound = 1.0 + RELATIVE_ERROR + 1e-9;
    assert!(
        server_p50_ms <= pingpong.latency_ms_p50 * bound,
        "server p50 {server_p50_ms:.3} ms exceeds bench p50 {:.3} ms × (1+ε)",
        pingpong.latency_ms_p50
    );
    assert!(
        server_p99_ms <= pingpong.latency_ms_p99 * bound,
        "server p99 {server_p99_ms:.3} ms exceeds bench p99 {:.3} ms × (1+ε)",
        pingpong.latency_ms_p99
    );

    // The ISSUE 6 acceptance scenario: the event-driven connection layer
    // carries ≥ 1024 idle connections on the same fixed thread set that
    // serves the active schedule. The viewshed view keeps one request
    // cheap enough that the schedule is *sustainable* — the recorded
    // tail is queueing, not hopeless overload.
    let (idle, active, per_client) = if quick { (256, 4, 20) } else { (1024, 8, 40) };
    let open_loop = run_open_loop(
        &mut wire,
        "t-tiled",
        &View::viewshed(observer, targets.clone()),
        idle,
        active,
        per_client,
        Duration::from_millis(100),
    );

    // ISSUE 7: push terrains into the attached catalog over the wire
    // (half of them byte-identical re-uploads → dedup), then time the
    // cold and warm first query of a fresh entry.
    let ingest = run_ingest(&mut wire, if quick { 8 } else { 32 });

    // Post-run accounting: every eval request of the whole run — the
    // closed-loop scenarios, the open-loop schedule, and the ingest
    // scenario's cold+warm queries — is exactly one sample in the
    // server's end-to-end histogram.
    let total_evals: u64 = reports.iter().map(|r| r.requests).sum::<u64>() + open_loop.requests + 2;
    let metrics_final = settled_metrics(wire.admin, total_evals);
    assert_eq!(
        metrics_final.hist("request").map(|h| h.total),
        Some(total_evals),
        "histogram samples must match the requests served"
    );
    assert_eq!(
        metrics_final.traces_recorded + metrics_final.traces_dropped,
        total_evals,
        "every request files exactly one trace (recorded or counted dropped)"
    );
    // Span trees: stages are disjoint sub-intervals of the request, and
    // on average they account for most of it (the tight ≤5% bound is
    // asserted on deterministic ping-pong traffic in hsr-serve's
    // obs_service test; pipelined groups leave a serialization gap per
    // preceding group member).
    let coverages: Vec<f64> = metrics_final
        .recent
        .iter()
        .map(|t| t.root.stage_sum_ns() as f64 / t.root.dur_ns.max(1) as f64)
        .collect();
    let coverage_min = coverages.iter().copied().fold(f64::INFINITY, f64::min);
    let coverage_mean = coverages.iter().sum::<f64>() / coverages.len().max(1) as f64;
    assert!(!coverages.is_empty(), "the recent ring holds traces after the run");
    assert!(coverages.iter().all(|&c| c <= 1.0), "stages are disjoint sub-intervals");
    assert!(
        coverage_mean >= 0.5,
        "stages account for the bulk of latency: {coverage_mean:.3}"
    );

    // ordering: Release pairs with the scraper's Acquire poll.
    scrape_stop.store(true, std::sync::atomic::Ordering::Release);
    let scrapes = scraper.join().expect("scraper");
    assert!(scrapes > 0, "the mid-run scraper must have observed the server");
    drop(admin);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cat_dir);

    md_table(
        &[
            "scenario", "req", "rps", "p50 ms", "p90 ms", "p99 ms", "max ms", "batches", "work/req",
        ],
        &reports
            .iter()
            .map(|r| {
                vec![
                    r.scenario.clone(),
                    r.requests.to_string(),
                    format!("{:.0}", r.throughput_rps),
                    format!("{:.2}", r.latency_ms_p50),
                    format!("{:.2}", r.latency_ms_p90),
                    format!("{:.2}", r.latency_ms_p99),
                    format!("{:.2}", r.latency_ms_max),
                    r.server.batches.to_string(),
                    format!("{:.0}", r.total_work as f64 / r.requests.max(1) as f64),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!(
        "\nopen-loop: {} idle conns + {} active clients @ {:.0} ms schedule — \
         p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms; threads {} -> {}",
        open_loop.idle_connections,
        open_loop.active_clients,
        open_loop.send_interval_ms,
        open_loop.latency_ms_p50,
        open_loop.latency_ms_p99,
        open_loop.latency_ms_max,
        open_loop.threads_before_idle,
        open_loop.threads_with_idle,
    );

    for r in &reports {
        assert_eq!(r.errors, 0, "{}: unexpected request errors", r.scenario);
        assert_eq!(r.server.rejected, 0, "{}: queue depth 256 must absorb this load", r.scenario);
    }
    // Pipelining compatible requests must actually coalesce: workers
    // take fewer groups than requests.
    let pipelined = &reports[1];
    assert!(
        pipelined.server.batches < pipelined.server.admitted,
        "pipelined traffic formed no batches: {:?}",
        pipelined.server
    );
    // Open-loop acceptance: everything answered, nobody dropped, and —
    // where /proc exists — not one thread added for the idle herd.
    assert_eq!(open_loop.errors, 0, "open-loop: unexpected request errors");
    assert_eq!(open_loop.server.dropped_slow, 0, "idle connections are not slow consumers");
    assert_eq!(
        open_loop.server.connections,
        (open_loop.idle_connections + open_loop.active_clients) as u64,
        "every connection accepted"
    );
    if open_loop.threads_before_idle > 0 {
        assert_eq!(
            open_loop.threads_with_idle, open_loop.threads_before_idle,
            "the connection layer must not grow threads with connection count"
        );
    }

    println!(
        "\ningest: {} uploads ({} deduped) — {:.1} MiB/s; first query cold {:.2} ms, \
         warm {:.2} ms; catalog blobs written: {}",
        ingest.uploads,
        ingest.deduped,
        ingest.ingest_mib_s,
        ingest.cold_query_ms,
        ingest.warm_query_ms,
        ingest.catalog.blobs_written,
    );
    // Half the uploads repeat a prior payload byte-for-byte; every one
    // of those must dedup (metadata record only, no second blob).
    assert_eq!(ingest.deduped, ingest.uploads / 2, "identical re-uploads must dedup");
    assert_eq!(ingest.catalog.blobs_written, ingest.uploads - ingest.deduped);

    println!(
        "\nobs: {} spans recorded ({} dropped), {} mid-run scrapes; ping-pong p50 \
         server {:.2} ms vs bench {:.2} ms; stage coverage mean {:.2} (min {:.2})",
        metrics_final.traces_recorded,
        metrics_final.traces_dropped,
        scrapes,
        server_p50_ms,
        reports[0].latency_ms_p50,
        coverage_mean,
        coverage_min,
    );

    if std::env::args().any(|a| a == "--json") {
        #[derive(serde::Serialize)]
        struct ObsSummary {
            traces_recorded: u64,
            traces_dropped: u64,
            mid_run_scrapes: u64,
            pingpong_server_p50_ms: f64,
            pingpong_server_p99_ms: f64,
            pingpong_bench_p50_ms: f64,
            pingpong_bench_p99_ms: f64,
            stage_coverage_mean: f64,
            stage_coverage_min: f64,
        }
        #[derive(serde::Serialize)]
        struct Artifact {
            closed_loop: Vec<ScenarioReport>,
            open_loop: OpenLoopReport,
            ingest: IngestReport,
            obs: ObsSummary,
        }
        let path = "BENCH_serve.json";
        let artifact = Artifact {
            closed_loop: reports.clone(),
            open_loop: open_loop.clone(),
            ingest: ingest.clone(),
            obs: ObsSummary {
                traces_recorded: metrics_final.traces_recorded,
                traces_dropped: metrics_final.traces_dropped,
                mid_run_scrapes: scrapes,
                pingpong_server_p50_ms: server_p50_ms,
                pingpong_server_p99_ms: server_p99_ms,
                pingpong_bench_p50_ms: reports[0].latency_ms_p50,
                pingpong_bench_p99_ms: reports[0].latency_ms_p99,
                stage_coverage_mean: coverage_mean,
                stage_coverage_min: coverage_min,
            },
        };
        std::fs::write(path, serde_json::to_string(&artifact).expect("reports serialize"))
            .expect("write bench json");
        println!("(wrote {path})");
    }
}
