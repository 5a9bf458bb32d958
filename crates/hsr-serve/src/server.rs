//! The service: admission, coalescing, workers, backpressure.
//!
//! ```text
//!                        ┌── event-loop shard 0 ──────────────┐
//! clients ──TCP──▶ accept│  poll: nonblocking reads, capped   │
//!   (round-robin) ──────▶│  line buffers ── parse ── admit ───┼──▶ admission
//!                        │  bounded outgoing queues drained   │    queue
//!                        │  on writability ◀─── enqueue ──────┼─┐  (bounded)
//!                        └────────────────────────────────────┘ │    │ full?
//!                        ┌── event-loop shard 1 … N ─────────┐  │    │ reject
//!                        │  (identical; connections sharded) │  │    ▼
//!                        └──────────────────────────────────-┘  │  each worker
//!                                                               │  pulls the
//!                                                               │  oldest job +
//!                                                               │  its queued
//!                                                               │  (terrain,
//!                                                               │  HsrConfig)
//!                                                               │  matches
//!                                                               │    ▼
//!                                                               └─ worker pool
//!                                                                  (bounded;
//!                                                                   scenes from
//!                                                                   the one
//!                                                                   PreparedCache
//!                                                                   LRU)
//! ```
//!
//! Backpressure is one bounded queue. A shard admits the eval jobs of
//! one read drain under a single lock acquisition, and the workers pull
//! from the same queue: each takes the oldest job plus every queued job
//! with the same `(terrain, HsrConfig)`, up to
//! [`ServeConfig::max_batch`]. A busy pool leaves jobs queued, and once
//! [`ServeConfig::queue_depth`] are waiting the event loops reject new
//! requests immediately with [`ErrorKind::Overloaded`] instead of
//! buffering without bound. No timer holds a job back: a pipelined
//! burst that arrives in one read is queued whole and coalesces, and a
//! lone request starts as soon as a worker is free. Nothing in the path
//! allocates proportionally to offered load — request lines are capped
//! at [`ServeConfig::max_line_bytes`], per-connection response queues
//! at [`ServeConfig::outgoing_cap_bytes`] (overflow disconnects the
//! slow client, counted in [`ServeStats::dropped_slow`]), and workers
//! *never block on a client socket*: they enqueue and move on.

use crate::catalog::{PreparedCache, TerrainSource};
use crate::event_loop::{shard_loop, Reply, ShardHandle};
use crate::protocol::{ErrorKind, Response, StatsSnapshot, WireError};
use hsr_catalog::Catalog;
use hsr_obs::{lock_unpoisoned, Histogram, Recorder, RecorderConfig, SpanRecord, TraceRecord};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Event-loop shards multiplexing the connections (≥ 1). Each is
    /// one thread owning a `poll` set; connections are assigned
    /// round-robin at accept time.
    pub shards: usize,
    /// Worker threads evaluating coalesced batches (≥ 1).
    pub workers: usize,
    /// Admission-queue depth: requests admitted but not yet taken by a
    /// worker. When full, new requests are rejected with
    /// [`ErrorKind::Overloaded`].
    pub queue_depth: usize,
    /// Most requests one worker takes from the queue as one group (≥ 1).
    pub max_batch: usize,
    /// Prepared scenes retained by the LRU (≥ 1).
    pub scene_capacity: usize,
    /// Longest accepted request line in bytes; longer lines are
    /// answered with [`ErrorKind::BadRequest`] (before any newline
    /// arrives) and skipped.
    pub max_line_bytes: usize,
    /// Per-connection outgoing-queue cap in bytes. A connection whose
    /// client reads too slowly for its responses to fit is dropped and
    /// counted in [`ServeStats::dropped_slow`].
    pub outgoing_cap_bytes: usize,
    /// Largest terrain payload one upload may carry (declared *and*
    /// actual; chunked uploads past the cap are aborted mid-stream).
    pub max_upload_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            workers: 2,
            queue_depth: 64,
            max_batch: 16,
            scene_capacity: 4,
            max_line_bytes: 1 << 20,     // 1 MiB
            outgoing_cap_bytes: 2 << 20, // 2 MiB
            max_upload_bytes: 64 << 20,  // 64 MiB
        }
    }
}

/// Live service counters (monotonic unless noted).
///
/// # Snapshot consistency
///
/// A snapshot is not a single atomic read of all ten counters, but it
/// is never *torn against causality*: counters are incremented in
/// pipeline order with `Release` and read in **reverse** pipeline order
/// with `Acquire`, so every snapshot satisfies
///
/// `completed + failed ≤ batched_requests ≤ admitted`.
///
/// A request is `admitted` when it enters the admission queue, under
/// the queue's lock; a worker counts its group under `batches` only
/// after taking it from that queue, so an outcome can never be visible
/// before its admission is. At quiescence (no requests in flight) the
/// inequalities close to `completed + failed + unanswerable = admitted`
/// where `unanswerable` counts the queued jobs that shutdown answered
/// with `ShuttingDown`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed eval requests admitted to the queue (counted as they
    /// enter it — see the snapshot-consistency contract above).
    pub admitted: u64,
    /// Requests rejected because the admission queue was full.
    pub rejected: u64,
    /// Request lines that did not parse, used the reserved id 0, or
    /// exceeded the line-length cap.
    pub malformed: u64,
    /// Responses written with a report.
    pub completed: u64,
    /// Responses written with an error (excluding rejections).
    pub failed: u64,
    /// Connections dropped because their outgoing queue overflowed (the
    /// slow-consumer policy: disconnect, don't buffer without bound).
    pub dropped_slow: u64,
    /// Groups the workers took from the queue (each is one batched
    /// fan-out).
    pub batches: u64,
    /// Requests carried by those groups.
    pub batched_requests: u64,
    /// Largest single group observed.
    pub max_batch_observed: u64,
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) connections: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) malformed: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) dropped_slow: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_requests: AtomicU64,
    pub(crate) max_batch_observed: AtomicU64,
}

impl Counters {
    /// Reads the counters in **reverse pipeline order** (outcomes before
    /// batch counters before `admitted`). Writers increment in pipeline
    /// order with `Release` — `admitted` happens-before the batch
    /// counters (the queue's mutex hands each job from shard to
    /// worker), which happen-before the worker outcomes (same worker
    /// thread) — so an `Acquire`
    /// load that observes an outcome also observes the admission that
    /// caused it. That is what makes the [`ServeStats`] inequalities
    /// hold in *every* snapshot, not just at quiescence.
    fn snapshot(&self) -> ServeStats {
        // ordering: Acquire on the pipeline counters pairs with their
        // Release increments; reading outcomes first means any outcome
        // seen here has its admission visible below.
        let completed = self.completed.load(Ordering::Acquire);
        // ordering: Acquire; see `completed`.
        let failed = self.failed.load(Ordering::Acquire);
        // ordering: Acquire; see `completed`.
        let batched_requests = self.batched_requests.load(Ordering::Acquire);
        // ordering: Acquire; see `completed`.
        let batches = self.batches.load(Ordering::Acquire);
        // ordering: Acquire; see `completed`.
        let admitted = self.admitted.load(Ordering::Acquire);
        ServeStats {
            // ordering: gauges outside the pipeline inequalities; no
            // cross-counter promise, Relaxed suffices.
            connections: self.connections.load(Ordering::Relaxed),
            admitted,
            // ordering: Relaxed; see `connections`.
            rejected: self.rejected.load(Ordering::Relaxed),
            // ordering: Relaxed; see `connections`.
            malformed: self.malformed.load(Ordering::Relaxed),
            completed,
            failed,
            // ordering: Relaxed; see `connections`.
            dropped_slow: self.dropped_slow.load(Ordering::Relaxed),
            batches,
            batched_requests,
            // ordering: Relaxed; see `connections`.
            max_batch_observed: self.max_batch_observed.load(Ordering::Relaxed),
        }
    }
}

pub(crate) struct Job {
    /// Always an eval: admin requests are answered on the shard thread
    /// and never enter the admission queue.
    pub(crate) request: crate::protocol::EvalRequest,
    pub(crate) reply: Arc<Reply>,
    /// Timestamps gathered along the request's path, allocated only
    /// when a recorder is installed (`None` is the off-switch: the
    /// shard takes no timestamps and span assembly is skipped).
    pub(crate) trace: Option<Box<JobTrace>>,
}

/// The cross-thread timing baggage of one traced request: the shard
/// stamps arrival and admission, and the worker that takes the job
/// folds the stamps into the finished span tree at reply time.
pub(crate) struct JobTrace {
    /// When the shard started handling the request line (the root
    /// span's clock zero).
    pub(crate) t_start: Instant,
    /// How long parsing the line took, from `t_start`.
    pub(crate) parse_ns: u64,
    /// When the shard built the job for admission. The job enters the
    /// queue together with the rest of its read drain.
    pub(crate) t_admitted: Instant,
}

/// The admission queue: every shard pushes into it, every worker pulls
/// from it. Bounded at `depth`; closed once, by shutdown.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled when jobs arrive or the queue closes.
    ready: Condvar,
    depth: usize,
    max_batch: usize,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(depth: usize, max_batch: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            depth: depth.max(1),
            max_batch,
        }
    }

    /// Admits `jobs` in order under one lock acquisition, then wakes a
    /// worker, so a burst parsed from one read is visible to the
    /// workers whole. A job past the depth is answered `Overloaded` and
    /// counted in `rejected`; a job arriving after shutdown closed the
    /// queue is answered `ShuttingDown`.
    pub(crate) fn admit(&self, jobs: Vec<Job>, counters: &Counters) {
        if jobs.is_empty() {
            return;
        }
        let mut refused = Vec::new();
        let mut admitted = 0u64;
        {
            let mut state = lock_unpoisoned(&self.state);
            for job in jobs {
                if state.closed {
                    refused.push((job, ErrorKind::ShuttingDown));
                } else if state.jobs.len() >= self.depth {
                    refused.push((job, ErrorKind::Overloaded));
                } else {
                    state.jobs.push_back(job);
                    admitted += 1;
                }
            }
            if admitted > 0 {
                // ordering: Release starts the pipeline happens-before
                // chain the Acquire reads in `Counters::snapshot` rely
                // on; the worker that takes these jobs locks the queue
                // after this unlock, so its batch counters come later.
                counters.admitted.fetch_add(admitted, Ordering::Release);
            }
        }
        if admitted > 0 {
            self.ready.notify_one();
        }
        for (job, kind) in refused {
            if kind == ErrorKind::Overloaded {
                // ordering: standalone tally; no data rides on it.
                counters.rejected.fetch_add(1, Ordering::Relaxed);
            }
            refuse(&job, kind);
        }
    }

    /// Blocks until a job is queued, then takes its group (see
    /// [`take_group`]) and returns it with the instant the worker picked
    /// it up. `None` once the queue is closed.
    fn next_group(&self) -> Option<(Instant, Vec<Job>)> {
        let mut state = lock_unpoisoned(&self.state);
        while state.jobs.is_empty() {
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let t_pickup = Instant::now();
        let group = take_group(&mut state.jobs, self.max_batch);
        let more = !state.jobs.is_empty();
        drop(state);
        if more {
            // Jobs of other keys stay queued: hand them to an idle worker.
            self.ready.notify_one();
        }
        Some((t_pickup, group))
    }

    /// Closes the queue and answers the jobs still queued with
    /// `ShuttingDown`, as later `admit`s will be. Workers exit once idle.
    fn close(&self) {
        let left = {
            let mut state = lock_unpoisoned(&self.state);
            state.closed = true;
            std::mem::take(&mut state.jobs)
        };
        self.ready.notify_all();
        for job in &left {
            refuse(job, ErrorKind::ShuttingDown);
        }
    }
}

/// Answers a job the queue turned away or dropped at shutdown.
fn refuse(job: &Job, kind: ErrorKind) {
    let message = if kind == ErrorKind::Overloaded {
        "admission queue full; retry later"
    } else {
        "server is shutting down"
    };
    job.reply
        .send(&Response::err(job.request.id, WireError::new(kind, message)));
}

/// Takes the oldest queued job plus every later job with the same
/// terrain and the same pipeline configuration (`view.config`, an
/// [`hsr_core::pipeline::HsrConfig`]), up to `max_batch` jobs in arrival
/// order; the jobs left behind keep their order. The oldest job always
/// leaves first, so no configuration can starve. Views with equal
/// configs against the same terrain evaluate identically alone or
/// batched (scoped per-view cost collectors), so grouping is purely a
/// throughput decision — one prepared-scene lookup and one parallel
/// fan-out per group.
fn take_group(queue: &mut VecDeque<Job>, max_batch: usize) -> Vec<Job> {
    let Some(first) = queue.pop_front() else {
        return Vec::new();
    };
    let config = first.request.view.config;
    let mut group = vec![first];
    let mut i = 0;
    while group.len() < max_batch {
        let Some(job) = queue.get(i) else { break };
        if job.request.terrain == group[0].request.terrain && job.request.view.config == config {
            group.extend(queue.remove(i));
        } else {
            i += 1;
        }
    }
    group
}

pub(crate) struct Shared {
    pub(crate) cache: PreparedCache,
    pub(crate) catalog: Option<Arc<Catalog>>,
    pub(crate) counters: Arc<Counters>,
    pub(crate) queue: JobQueue,
    pub(crate) stop: AtomicBool,
    /// The observability recorder plus its cached stage histograms.
    /// `None` means tracing is off and every obs touchpoint reduces to
    /// one branch (the same pattern as `CostCollector`).
    pub(crate) obs: Option<Obs>,
}

/// The installed recorder with one pre-resolved [`Histogram`] handle
/// per pipeline stage, so the hot path never takes the recorder's
/// registry lock.
pub(crate) struct Obs {
    pub(crate) recorder: Arc<Recorder>,
    hist_request: Arc<Histogram>,
    hist_parse: Arc<Histogram>,
    hist_queue_wait: Arc<Histogram>,
    hist_coalesce: Arc<Histogram>,
    hist_lookup_hit: Arc<Histogram>,
    hist_lookup_prepare: Arc<Histogram>,
    hist_evaluate: Arc<Histogram>,
    hist_respond: Arc<Histogram>,
}

impl Obs {
    fn new(recorder: Arc<Recorder>) -> Obs {
        Obs {
            hist_request: recorder.hist("request"),
            hist_parse: recorder.hist("parse"),
            hist_queue_wait: recorder.hist("queue_wait"),
            hist_coalesce: recorder.hist("coalesce"),
            hist_lookup_hit: recorder.hist("lookup_hit"),
            hist_lookup_prepare: recorder.hist("lookup_prepare"),
            hist_evaluate: recorder.hist("evaluate"),
            hist_respond: recorder.hist("respond"),
            recorder,
        }
    }
}

impl Shared {
    /// The full counter snapshot a [`Request::Stats`] answers with.
    ///
    /// [`Request::Stats`]: crate::protocol::Request::Stats
    pub(crate) fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            serve: self.counters.snapshot(),
            prepared: self.cache.stats(),
            catalog: self.catalog.as_ref().map(|c| c.stats()),
        }
    }
}

/// A running visibility-query service.
///
/// Construct with [`ServerBuilder`], drive with
/// [`Client`](crate::client::Client) (or any newline-delimited-JSON TCP
/// client), observe with [`Server::stats`] /
/// [`Server::prepared_stats`], and stop with [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    shards: Vec<Arc<ShardHandle>>,
    shard_handles: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// The bound address (use with port 0 to discover the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Service counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot()
    }

    /// Prepared-scene LRU counters.
    pub fn prepared_stats(&self) -> hsr_tile::CacheStats {
        self.shared.cache.stats()
    }

    /// Resident-tile cache counters of a currently resident tiled
    /// terrain (None for monolithic or non-resident terrains).
    pub fn tile_cache_stats(&self, terrain: &str) -> Option<hsr_tile::CacheStats> {
        self.shared.cache.tile_cache_stats(terrain)
    }

    /// The terrain catalog this server serves from, if one is attached.
    pub fn catalog(&self) -> Option<&Arc<Catalog>> {
        self.shared.catalog.as_ref()
    }

    /// The observability recorder, if one was installed at build time
    /// ([`ServerBuilder::recorder`] / [`ServerBuilder::observe`]).
    /// `Recorder::snapshot` on it returns the same data a wire
    /// [`Request::Metrics`](crate::protocol::Request::Metrics) does.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.shared.obs.as_ref().map(|obs| &obs.recorder)
    }

    /// Stops accepting, answers whatever is still queued with
    /// [`ErrorKind::ShuttingDown`], flushes pending responses for a
    /// short grace period, and joins every service thread. Connections
    /// still open afterwards are closed (clients observe EOF).
    pub fn shutdown(mut self) {
        // ordering: SeqCst stop flag — set once at shutdown; the total
        // order keeps the accept/shard exit checks trivial to reason
        // about and costs nothing off the steady-state path.
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Close the queue; each worker exits after its current group.
        // The shards outlive the workers so every answer a worker
        // enqueues still reaches its client.
        self.shared.queue.close();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        for shard in &self.shards {
            shard.request_stop();
        }
        for h in self.shard_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Configures and starts a [`Server`].
///
/// ```no_run
/// use hsr_serve::{ServerBuilder, TerrainSource};
/// use hsr_terrain::gen;
///
/// let server = ServerBuilder::new()
///     .terrain("demo", TerrainSource::Grid(gen::fbm(48, 48, 4, 10.0, 7)))
///     .workers(4)
///     .bind("127.0.0.1:0")
///     .unwrap();
/// println!("serving on {}", server.local_addr());
/// # server.shutdown();
/// ```
pub struct ServerBuilder {
    config: ServeConfig,
    terrains: HashMap<String, TerrainSource>,
    catalog: Option<Arc<Catalog>>,
    recorder: Option<Arc<Recorder>>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerBuilder {
    /// A builder with [`ServeConfig::default`] and no terrains.
    pub fn new() -> ServerBuilder {
        ServerBuilder {
            config: ServeConfig::default(),
            terrains: HashMap::new(),
            catalog: None,
            recorder: None,
        }
    }

    /// Registers a hosted terrain under `name` (replacing any previous
    /// source with that name).
    pub fn terrain(mut self, name: impl Into<String>, source: TerrainSource) -> ServerBuilder {
        self.terrains.insert(name.into(), source);
        self
    }

    /// Attaches a persistent terrain catalog: its entries become
    /// servable alongside the static terrains (static names win
    /// clashes), and the admin wire messages (upload, register, list,
    /// info, delete) operate on it. Without a catalog those messages
    /// answer [`ErrorKind::Catalog`].
    pub fn catalog(mut self, catalog: Arc<Catalog>) -> ServerBuilder {
        self.catalog = Some(catalog);
        self
    }

    /// Opens (creating if necessary) the catalog at `dir` and attaches
    /// it — the one-stop way to make a server durable.
    pub fn catalog_dir(self, dir: impl AsRef<Path>) -> std::io::Result<ServerBuilder> {
        let catalog = Catalog::open(dir.as_ref())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(self.catalog(Arc::new(catalog)))
    }

    /// Installs an observability recorder: every served request records
    /// a span tree and per-stage latency histograms into it, the
    /// prepared-scene cache and resident tile caches mirror their
    /// events, and the wire answers
    /// [`Request::Metrics`](crate::protocol::Request::Metrics) with its
    /// snapshot. Without a recorder all of that is compiled down to one
    /// branch per touchpoint and `Metrics` answers `enabled: false`.
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> ServerBuilder {
        self.recorder = Some(recorder);
        self
    }

    /// Convenience: build and install a fresh recorder from `config`
    /// (retrieve it later with [`Server::recorder`]).
    pub fn observe(self, config: RecorderConfig) -> ServerBuilder {
        self.recorder(Arc::new(Recorder::new(config)))
    }

    /// Largest terrain payload one upload may carry (default 64 MiB).
    pub fn max_upload_bytes(mut self, bytes: u64) -> ServerBuilder {
        self.config.max_upload_bytes = bytes.max(1);
        self
    }

    /// Event-loop shards multiplexing the connections (≥ 1).
    pub fn shards(mut self, shards: usize) -> ServerBuilder {
        self.config.shards = shards.max(1);
        self
    }

    /// Worker threads (≥ 1).
    pub fn workers(mut self, workers: usize) -> ServerBuilder {
        self.config.workers = workers.max(1);
        self
    }

    /// Admission-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> ServerBuilder {
        self.config.queue_depth = depth;
        self
    }

    /// Most requests one worker takes from the queue as one group (≥ 1).
    pub fn max_batch(mut self, n: usize) -> ServerBuilder {
        self.config.max_batch = n.max(1);
        self
    }

    /// Prepared scenes retained by the LRU (≥ 1).
    pub fn scene_capacity(mut self, scenes: usize) -> ServerBuilder {
        self.config.scene_capacity = scenes.max(1);
        self
    }

    /// Longest accepted request line in bytes (≥ 1; default 1 MiB).
    pub fn max_line_bytes(mut self, bytes: usize) -> ServerBuilder {
        self.config.max_line_bytes = bytes.max(1);
        self
    }

    /// Per-connection outgoing-queue cap in bytes (≥ 1 KiB; default
    /// 2 MiB). Overflow drops the connection — the slow-client policy.
    pub fn outgoing_cap_bytes(mut self, bytes: usize) -> ServerBuilder {
        self.config.outgoing_cap_bytes = bytes.max(1024);
        self
    }

    /// Binds the listener and starts the service threads: `shards`
    /// event loops, `workers` evaluators and one acceptor — a
    /// **fixed-size** set, independent of how many connections are held
    /// open.
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let config = self.config;
        let mut cache = PreparedCache::new(config.scene_capacity, self.terrains);
        if let Some(catalog) = &self.catalog {
            cache = cache.with_catalog(Arc::clone(catalog));
        }
        if let Some(recorder) = &self.recorder {
            cache = cache.with_recorder(Arc::clone(recorder));
        }
        let shared = Arc::new(Shared {
            cache,
            catalog: self.catalog,
            counters: Arc::new(Counters::default()),
            queue: JobQueue::new(config.queue_depth, config.max_batch),
            stop: AtomicBool::new(false),
            obs: self.recorder.map(Obs::new),
        });

        let worker_handles: Vec<_> = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hsr-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<_>>()?;

        let shards: Vec<Arc<ShardHandle>> = (0..config.shards.max(1))
            .map(|_| ShardHandle::new().map(Arc::new))
            .collect::<std::io::Result<_>>()?;
        let shard_handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hsr-serve-shard-{i}"))
                    .spawn(move || shard_loop(&shard, &shared, &config))
            })
            .collect::<std::io::Result<_>>()?;

        let accept_handle = {
            let shared = Arc::clone(&shared);
            let shards = shards.clone();
            std::thread::Builder::new()
                .name("hsr-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shards, &shared))?
        };

        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
            shards,
            shard_handles,
        })
    }
}

fn accept_loop(listener: &TcpListener, shards: &[Arc<ShardHandle>], shared: &Arc<Shared>) {
    let mut next_shard = 0usize;
    for stream in listener.incoming() {
        // ordering: SeqCst; see `Server::shutdown`.
        if shared.stop.load(Ordering::SeqCst) {
            // Whatever woke us — the shutdown's no-op connection or a
            // real client racing it — is dropped here, and the listener
            // (plus its backlog) closes when this loop returns: raced
            // clients observe a closed connection, never a silent hang.
            return;
        }
        let Ok(stream) = stream else { continue };
        // ordering: standalone gauge, no data published through it.
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        shards[next_shard % shards.len()].adopt(stream);
        next_shard = next_shard.wrapping_add(1);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((t_pickup, group)) = shared.queue.next_group() {
        let len = group.len() as u64;
        // ordering: Release; pipeline counter read with Acquire by
        // `Counters::snapshot`.
        shared.counters.batches.fetch_add(1, Ordering::Release);
        // ordering: Release; see `batches` above.
        shared
            .counters
            .batched_requests
            .fetch_add(len, Ordering::Release);
        // ordering: high-water gauge outside the pipeline inequalities;
        // Relaxed suffices.
        shared
            .counters
            .max_batch_observed
            .fetch_max(len, Ordering::Relaxed);
        let Some(terrain) = group.first().map(|job| job.request.terrain.as_str()) else {
            continue;
        };
        let t_group = Instant::now();
        let (scene, hit) = match shared.cache.get_or_prepare_traced(terrain) {
            (Ok(scene), hit) => (scene, hit),
            (Err(e), hit) => {
                let t_lookup = Instant::now();
                for job in &group {
                    // ordering: Release; outcome counter read with
                    // Acquire by `Counters::snapshot`.
                    shared.counters.failed.fetch_add(1, Ordering::Release);
                    job.reply.send(&Response::err(job.request.id, e.clone()));
                    let stamps = Stamps {
                        t_pickup,
                        t_group,
                        t_lookup,
                        hit,
                        t_eval: t_lookup,
                        t_sent: Instant::now(),
                    };
                    finalize_trace(shared, job, terrain, &stamps, None);
                }
                continue;
            }
        };
        let t_lookup = Instant::now();
        let views: Vec<_> = group.iter().map(|job| job.request.view.clone()).collect();
        let results = scene.eval_group(&views);
        let t_eval = Instant::now();
        debug_assert_eq!(results.len(), group.len());
        for (job, result) in group.iter().zip(results) {
            let (response, eval_detail) = match result {
                Ok(report) => {
                    // ordering: Release; see the `failed` bump above.
                    shared.counters.completed.fetch_add(1, Ordering::Release);
                    let detail = shared
                        .obs
                        .as_ref()
                        .map(|_| hsr_core::view::evaluate_span(&report));
                    (Response::ok(job.request.id, report), detail)
                }
                Err(e) => {
                    // ordering: Release; see the `failed` bump above.
                    shared.counters.failed.fetch_add(1, Ordering::Release);
                    (Response::err(job.request.id, e), None)
                }
            };
            job.reply.send(&response);
            let stamps =
                Stamps { t_pickup, t_group, t_lookup, hit, t_eval, t_sent: Instant::now() };
            finalize_trace(shared, job, terrain, &stamps, eval_detail);
        }
    }
}

/// The worker-side timestamps of one request's tail: group pickup and
/// scan, scene lookup, group evaluation, and the end of this job's reply
/// enqueue.
struct Stamps {
    /// When the worker found the job queued and began its group scan.
    t_pickup: Instant,
    /// When the group was taken and counted.
    t_group: Instant,
    t_lookup: Instant,
    /// Whether the scene lookup was served resident (`lookup_hit`) or
    /// had to prepare (`lookup_prepare`).
    hit: bool,
    t_eval: Instant,
    /// When this job's reply was enqueued.
    t_sent: Instant,
}

/// Folds one finished request into the recorder: per-stage histogram
/// samples plus the span tree. No-op (one branch) without a recorder.
///
/// The stages tile the root interval: `parse` from the line's arrival,
/// `queue_wait` from admission to the worker's pickup, `coalesce` over
/// the worker's group scan, then `lookup_*`,
/// `evaluate` (the *group's* evaluation wall — the job's answer waits
/// for the whole group either way), and `respond` from the group's
/// evaluation end to this job's enqueue, so job k of a group also owns
/// the time spent answering jobs 1..k−1. The only uncovered gaps are
/// sub-microsecond bookkeeping between stamps, which is what keeps
/// `stage_sum_ns` within a few percent of the root duration.
fn finalize_trace(
    shared: &Arc<Shared>,
    job: &Job,
    terrain: &str,
    stamps: &Stamps,
    eval_detail: Option<SpanRecord>,
) {
    let (Some(obs), Some(trace)) = (shared.obs.as_ref(), job.trace.as_deref()) else {
        return;
    };
    let base = trace.t_start;
    let off = |at: Instant| at.saturating_duration_since(base).as_nanos() as u64;
    let total = off(stamps.t_sent);

    let mut root = SpanRecord::new("request", 0, total);
    root.children
        .push(SpanRecord::new("parse", 0, trace.parse_ns));
    let queue_wait = stamps
        .t_pickup
        .saturating_duration_since(trace.t_admitted)
        .as_nanos() as u64;
    root.children
        .push(SpanRecord::new("queue_wait", off(trace.t_admitted), queue_wait));
    let coalesce_ns = stamps
        .t_group
        .saturating_duration_since(stamps.t_pickup)
        .as_nanos() as u64;
    root.children
        .push(SpanRecord::new("coalesce", off(stamps.t_pickup), coalesce_ns));
    let lookup_ns = stamps
        .t_lookup
        .saturating_duration_since(stamps.t_group)
        .as_nanos() as u64;
    let lookup_name = if stamps.hit {
        "lookup_hit"
    } else {
        "lookup_prepare"
    };
    root.children
        .push(SpanRecord::new(lookup_name, off(stamps.t_group), lookup_ns));
    let eval_ns = stamps
        .t_eval
        .saturating_duration_since(stamps.t_lookup)
        .as_nanos() as u64;
    let mut eval_stage = SpanRecord::new("evaluate", off(stamps.t_lookup), eval_ns);
    if let Some(detail) = eval_detail {
        // Graft the pipeline-phase children (order/phase1/phase2) and
        // the cost attribution under the stage span, re-anchored to the
        // request clock.
        eval_stage.work = detail.work;
        eval_stage.depth = detail.depth;
        eval_stage.pred_filter = detail.pred_filter;
        eval_stage.pred_exact = detail.pred_exact;
        eval_stage.children = detail.children;
        for child in &mut eval_stage.children {
            child.shift(off(stamps.t_lookup));
        }
    }
    root.children.push(eval_stage);
    let respond_ns = stamps
        .t_sent
        .saturating_duration_since(stamps.t_eval)
        .as_nanos() as u64;
    root.children
        .push(SpanRecord::new("respond", off(stamps.t_eval), respond_ns));

    obs.hist_request.record(total);
    obs.hist_parse.record(trace.parse_ns);
    obs.hist_queue_wait.record(queue_wait);
    obs.hist_coalesce.record(coalesce_ns);
    let lookup_hist = if stamps.hit {
        &obs.hist_lookup_hit
    } else {
        &obs.hist_lookup_prepare
    };
    lookup_hist.record(lookup_ns);
    obs.hist_evaluate.record(eval_ns);
    obs.hist_respond.record(respond_ns);
    obs.recorder.record_trace(TraceRecord {
        id: job.request.id,
        terrain: terrain.to_string(),
        root,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::EvalRequest;
    use hsr_core::pipeline::Algorithm;
    use hsr_core::view::View;
    use hsr_geometry::Point3;

    fn job(id: u64, terrain: &str, view: View) -> Job {
        Job {
            request: EvalRequest { id, terrain: terrain.into(), view },
            reply: Reply::detached_for_tests(),
            trace: None,
        }
    }

    fn ids(group: &[Job]) -> Vec<u64> {
        group.iter().map(|j| j.request.id).collect()
    }

    #[test]
    fn coalesce_groups_by_terrain_and_config() {
        let obs = Point3::new(50.0, 2.0, 8.0);
        let queued = || {
            VecDeque::from(vec![
                job(1, "a", View::orthographic(0.0)),
                job(2, "b", View::orthographic(0.1)),
                job(3, "a", View::viewshed(obs, vec![Point3::new(1.0, 1.0, 1.0)])),
                job(4, "a", View::orthographic(0.2).algorithm(Algorithm::Sequential)),
                job(5, "b", View::orthographic(0.3)),
                job(6, "a", View::orthographic(0.4)),
            ])
        };
        let mut queue = queued();
        let groups: Vec<(String, Vec<u64>)> = std::iter::from_fn(|| {
            let group = take_group(&mut queue, 16);
            group
                .first()
                .map(|j| (j.request.terrain.clone(), ids(&group)))
        })
        .collect();
        // Same terrain + same config coalesce across projection kinds
        // (1, 3, 6); the sequential-algorithm request gets its own
        // group; terrain b's defaults coalesce (2, 5). Oldest first.
        assert_eq!(
            groups,
            vec![
                ("a".into(), vec![1, 3, 6]),
                ("b".into(), vec![2, 5]),
                ("a".into(), vec![4]),
            ]
        );

        // At max_batch 2 the third matching job (6) stays queued, in
        // order, behind the others.
        let mut queue = queued();
        assert_eq!(ids(&take_group(&mut queue, 2)), vec![1, 3]);
        assert_eq!(ids(queue.make_contiguous()), vec![2, 4, 5, 6]);
    }
}
