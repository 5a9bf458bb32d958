//! The sharded, readiness-driven connection layer (ISSUE 6 tentpole).
//!
//! PR 5 gave every connection a blocking reader thread and let workers
//! write responses directly to client sockets. Both ends of that design
//! fail under adversarial or merely slow traffic: a thread per
//! connection caps concurrency at the thread ceiling, and a client that
//! stops reading wedges whichever worker is mid-`write_all` to it. This
//! module replaces both with event-driven I/O:
//!
//! * Connections are **sharded** round-robin across a fixed number of
//!   event-loop threads. Each shard owns a [`polling::Poller`] and the
//!   full state of its connections — nothing per-connection is spawned,
//!   so thousands of mostly-idle viewers cost one registered fd each.
//! * **Reads are nonblocking** into a per-connection line buffer capped
//!   at [`ServeConfig::max_line_bytes`]. A line that exceeds the cap is
//!   answered with [`ErrorKind::BadRequest`] immediately (no newline
//!   required), counted in `malformed`, and the connection resumes at
//!   the next newline — memory stays bounded no matter what a client
//!   streams.
//! * **Writes are queued, never blocking**: workers serialize a
//!   response into the connection's bounded outgoing queue
//!   ([`Reply::send`]) and wake the owning shard, which drains the
//!   queue as the socket reports writable. A queue that would exceed
//!   [`ServeConfig::outgoing_cap_bytes`] condemns the connection
//!   instead of growing — the slow client is disconnected, counted in
//!   [`ServeStats::dropped_slow`], and every worker stays available to
//!   everyone else.
//!
//! Readiness is oneshot (the `polling` contract): after servicing a
//! connection the shard re-arms it with read interest plus write
//! interest iff bytes are pending. Cross-thread handoffs — new
//! connections from the acceptor, fresh outgoing bytes from workers —
//! go through small locked queues plus [`polling::Poller::notify`], so
//! a shard blocked in `wait` always learns about them immediately.
//!
//! [`ServeConfig::max_line_bytes`]: crate::server::ServeConfig::max_line_bytes
//! [`ServeConfig::outgoing_cap_bytes`]: crate::server::ServeConfig::outgoing_cap_bytes
//! [`ServeStats::dropped_slow`]: crate::server::ServeStats::dropped_slow
//! [`ErrorKind::BadRequest`]: crate::protocol::ErrorKind::BadRequest

use crate::protocol::{
    salvage_id, ErrorKind, Payload, Request, Response, UploadAck, UploadBegin, UploadChunk,
    WireError,
};
use crate::server::{Counters, Job, JobTrace, ServeConfig, Shared};
use hsr_catalog::{BlobWriter, Catalog, CatalogError, TerrainFormat};
use hsr_obs::lock_unpoisoned;
use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Safety-net wait timeout: shards are woken by `notify` for every
/// cross-thread handoff, so this only bounds how long a lost wakeup
/// (which should be impossible) could delay shutdown.
const WAIT_TICK: Duration = Duration::from_millis(500);

/// Bytes read per `read` call while draining a readable socket.
const READ_CHUNK: usize = 8 * 1024;

/// Most `READ_CHUNK`s drained from one connection per wake. A firehose
/// client cannot monopolize its shard: past the budget the connection is
/// simply re-armed, and the still-full kernel buffer makes the next
/// `wait` return it immediately — other connections get served in
/// between.
const READ_BUDGET: usize = 16;

/// How long a stopping shard keeps flushing pending outgoing bytes
/// (shutdown answers already enqueued) before closing everything.
const FLUSH_GRACE: Duration = Duration::from_millis(250);

/// One connection's bounded outgoing queue plus the handle a worker
/// needs to wake the owning shard. Shared: the shard drains it, any
/// worker answering one of its requests fills it.
pub(crate) struct Reply {
    out: Mutex<OutBuf>,
    /// Outgoing-queue capacity in bytes; exceeding it condemns the
    /// connection (slow-consumer policy).
    cap: usize,
    /// The connection's key in its shard.
    key: usize,
    shard: Arc<ShardHandle>,
    counters: Arc<Counters>,
}

#[derive(Default)]
struct OutBuf {
    queue: VecDeque<u8>,
    /// Set when the queue overflowed: the connection is condemned, no
    /// further bytes are accepted, and the shard closes it on its next
    /// wake.
    dropped: bool,
}

impl Reply {
    /// Serializes `response` into the outgoing queue and wakes the
    /// owning shard. Never blocks: a queue past its cap condemns the
    /// connection instead (counted once in `dropped_slow`).
    ///
    /// The cap bounds *backlog*, not a single answer: an empty queue
    /// accepts any one response even when it alone exceeds the cap
    /// (otherwise a well-behaved ping-pong client could be condemned by
    /// one large report). Per-connection memory stays bounded by
    /// `max(cap, largest single response)`.
    pub(crate) fn send(&self, response: &Response) {
        // A response that cannot serialize still owes this id an answer:
        // degrade to a hand-built error line in the exact shape
        // `Response` serializes to, instead of panicking the worker.
        let mut line = serde_json::to_string(response).unwrap_or_else(|_| {
            format!(
                "{{\"id\":{},\"report\":null,\"payload\":null,\
                 \"error\":{{\"kind\":\"Eval\",\"message\":\
                 \"response failed to serialize\"}}}}",
                response.id
            )
        });
        line.push('\n');
        {
            let mut out = lock_unpoisoned(&self.out);
            if out.dropped {
                return;
            }
            if !out.queue.is_empty() && out.queue.len() + line.len() > self.cap {
                out.dropped = true;
                // ordering: standalone tally; no data rides on it.
                self.counters.dropped_slow.fetch_add(1, Ordering::Relaxed);
            } else {
                out.queue.extend(line.as_bytes());
            }
        }
        self.shard.mark_dirty(self.key);
    }

    fn is_dropped(&self) -> bool {
        lock_unpoisoned(&self.out).dropped
    }

    /// A reply wired to a throwaway shard, for unit tests that need a
    /// `Job` but never read what was sent.
    #[cfg(test)]
    pub(crate) fn detached_for_tests() -> Arc<Reply> {
        Arc::new(Reply {
            out: Mutex::new(OutBuf::default()),
            cap: usize::MAX,
            key: 0,
            shard: Arc::new(ShardHandle::new().expect("test shard")),
            counters: Arc::new(Counters::default()),
        })
    }
}

/// The cross-thread face of one event-loop shard: the poller to wake,
/// plus the handoff queues the acceptor and the workers push into.
pub(crate) struct ShardHandle {
    poller: polling::Poller,
    /// Keys with fresh outgoing bytes or a condemned connection.
    dirty: Mutex<Vec<usize>>,
    /// Newly accepted connections awaiting adoption.
    incoming: Mutex<Vec<TcpStream>>,
    stop: AtomicBool,
}

impl ShardHandle {
    pub(crate) fn new() -> std::io::Result<ShardHandle> {
        Ok(ShardHandle {
            poller: polling::Poller::new()?,
            dirty: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        })
    }

    /// Hands a freshly accepted connection to this shard.
    pub(crate) fn adopt(&self, stream: TcpStream) {
        lock_unpoisoned(&self.incoming).push(stream);
        let _ = self.poller.notify();
    }

    /// Asks the shard loop to flush and exit.
    pub(crate) fn request_stop(&self) {
        // ordering: SeqCst stop flag; see `Server::shutdown`.
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.poller.notify();
    }

    fn mark_dirty(&self, key: usize) {
        lock_unpoisoned(&self.dirty).push(key);
        let _ = self.poller.notify();
    }
}

/// Everything a shard knows about one connection.
struct Conn {
    stream: TcpStream,
    /// Bytes of the current (incomplete) request line.
    inbuf: Vec<u8>,
    /// Oversized-line recovery: drop bytes until the next newline.
    discarding: bool,
    /// The connection's in-flight chunked upload, if any. Dropped with
    /// the connection, which removes the catalog-side staging file.
    upload: Option<UploadSession>,
    reply: Arc<Reply>,
}

/// An in-flight chunked upload: the catalog staging writer plus what the
/// opening [`Request::UploadTerrain`] declared.
struct UploadSession {
    name: String,
    format: TerrainFormat,
    uploader: String,
    /// Total payload size the client declared; chunks past it (or a
    /// final chunk short of it) abort the upload.
    declared: u64,
    writer: BlobWriter,
}

enum IoOutcome {
    /// Connection healthy; `true` iff outgoing bytes are pending.
    Open(bool),
    /// Connection finished (EOF, error, or condemned): close it.
    Closed,
}

/// The body of one event-loop thread.
pub(crate) fn shard_loop(shard: &Arc<ShardHandle>, shared: &Arc<Shared>, config: &ServeConfig) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key: usize = 0;
    let mut events: Vec<polling::Event> = Vec::new();
    loop {
        events.clear();
        let _ = shard.poller.wait(&mut events, Some(WAIT_TICK));
        // ordering: SeqCst stop flag; see `Server::shutdown`.
        if shard.stop.load(Ordering::SeqCst) {
            final_flush(&shard.poller, &mut conns);
            return;
        }

        // Adopt connections the acceptor handed over.
        let adopted: Vec<TcpStream> = lock_unpoisoned(&shard.incoming).drain(..).collect();
        for stream in adopted {
            if stream.set_nonblocking(true).is_err() {
                continue; // dead on arrival
            }
            let key = next_key;
            next_key += 1;
            let reply = Arc::new(Reply {
                out: Mutex::new(OutBuf::default()),
                cap: config.outgoing_cap_bytes.max(1024),
                key,
                shard: Arc::clone(shard),
                counters: Arc::clone(&shared.counters),
            });
            if shard
                .poller
                .add(&stream, polling::Event::readable(key))
                .is_err()
            {
                continue;
            }
            conns.insert(
                key,
                Conn { stream, inbuf: Vec::new(), discarding: false, upload: None, reply },
            );
        }

        // Dirty connections (fresh outgoing bytes / condemnations), then
        // readiness events. Servicing is idempotent, so a key appearing
        // in both lists just gets a cheap second pass.
        let dirty: Vec<usize> = lock_unpoisoned(&shard.dirty).drain(..).collect();
        for key in dirty {
            service(&mut conns, key, false, shard, shared, config);
        }
        for event in &events {
            service(&mut conns, event.key, event.readable, shard, shared, config);
        }
    }
}

/// Services one connection: drains readable bytes (when `readable`),
/// always attempts a write drain, then either closes or re-arms it.
fn service(
    conns: &mut HashMap<usize, Conn>,
    key: usize,
    readable: bool,
    shard: &Arc<ShardHandle>,
    shared: &Arc<Shared>,
    config: &ServeConfig,
) {
    let Some(conn) = conns.get_mut(&key) else {
        return; // already closed; stale dirty entry or event
    };
    let mut outcome = if conn.reply.is_dropped() {
        IoOutcome::Closed
    } else if readable {
        service_read(conn, shared, config)
    } else {
        IoOutcome::Open(false)
    };
    if let IoOutcome::Open(_) = outcome {
        // Replies may have been enqueued by the read above (or by the
        // worker that marked us dirty): push what the socket will take.
        outcome = service_write(conn);
    }
    match outcome {
        IoOutcome::Closed => {
            if let Some(conn) = conns.remove(&key) {
                let _ = shard.poller.delete(&conn.stream);
                // Dropping the stream closes the socket.
            }
        }
        IoOutcome::Open(write_pending) => {
            let interest = polling::Event { key, readable: true, writable: write_pending };
            if shard.poller.modify(&conn.stream, interest).is_err() {
                if let Some(conn) = conns.remove(&key) {
                    let _ = shard.poller.delete(&conn.stream);
                }
            }
        }
    }
}

/// Nonblocking read drain: pulls up to `READ_BUDGET` chunks, slicing
/// complete lines out and enforcing the line-length cap as bytes arrive.
/// The eval jobs parsed on the way enter the admission queue together at
/// the end, so a pipelined burst that arrived in one read coalesces.
fn service_read(conn: &mut Conn, shared: &Arc<Shared>, config: &ServeConfig) -> IoOutcome {
    let mut chunk = [0u8; READ_CHUNK];
    let mut jobs = Vec::new();
    let mut outcome = IoOutcome::Open(false);
    for _ in 0..READ_BUDGET {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                outcome = IoOutcome::Closed; // client hung up
                break;
            }
            Ok(n) => ingest(conn, &chunk[..n], shared, config, &mut jobs),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                outcome = IoOutcome::Closed;
                break;
            }
        }
    }
    shared.queue.admit(jobs, &shared.counters);
    outcome
}

/// Splits `bytes` into request lines against the connection's carry
/// buffer, handling each complete line and enforcing the cap on the
/// incomplete remainder.
fn ingest(
    conn: &mut Conn,
    bytes: &[u8],
    shared: &Arc<Shared>,
    config: &ServeConfig,
    jobs: &mut Vec<Job>,
) {
    let cap = config.max_line_bytes.max(1);
    let mut rest = bytes;
    while !rest.is_empty() {
        if conn.discarding {
            // Tail of an already-rejected oversized line.
            match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    conn.discarding = false;
                    rest = &rest[nl + 1..];
                }
                None => return, // still mid-line: drop the whole chunk
            }
            continue;
        }
        match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let line_len = conn.inbuf.len() + nl;
                if line_len > cap {
                    reject_oversized(conn, line_len, cap, shared);
                    conn.discarding = false; // newline already consumed
                } else if conn.inbuf.is_empty() {
                    handle_line(conn, &rest[..nl], shared, config, jobs);
                } else {
                    conn.inbuf.extend_from_slice(&rest[..nl]);
                    let line = std::mem::take(&mut conn.inbuf);
                    handle_line(conn, &line, shared, config, jobs);
                }
                conn.inbuf.clear();
                rest = &rest[nl + 1..];
            }
            None => {
                if conn.inbuf.len() + rest.len() > cap {
                    reject_oversized(conn, conn.inbuf.len() + rest.len(), cap, shared);
                    conn.discarding = true;
                    return; // rest of chunk is the oversized line's body
                }
                conn.inbuf.extend_from_slice(rest);
                return;
            }
        }
    }
}

/// Answers an oversized line with `BadRequest` (reserved id 0 — the
/// line was never parsed) and resets the carry buffer. The module
/// contract this enforces: nothing allocates proportionally to what a
/// client streams, newline or not.
fn reject_oversized(conn: &mut Conn, got: usize, cap: usize, shared: &Arc<Shared>) {
    // ordering: standalone tally; no data rides on it.
    shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
    conn.inbuf = Vec::new(); // release the carry allocation too
    conn.reply.send(&Response::err(
        0,
        WireError::new(
            ErrorKind::BadRequest,
            format!("request line exceeds the {cap}-byte cap (≥ {got} bytes)"),
        ),
    ));
}

/// One complete request line: parse, validate the id, then either push
/// an eval job for admission or handle an admin request inline.
fn handle_line(
    conn: &mut Conn,
    raw: &[u8],
    shared: &Arc<Shared>,
    config: &ServeConfig,
    jobs: &mut Vec<Job>,
) {
    // Tracing clock zero: only read when a recorder is installed — the
    // recorder-less fast path takes no timestamps at all.
    let t_start = shared.obs.is_some().then(Instant::now);
    let text = String::from_utf8_lossy(raw);
    let text = text.trim();
    if text.is_empty() {
        return;
    }
    let request: Request = match serde_json::from_str(text) {
        Ok(request) => request,
        Err(e) => {
            // ordering: standalone tally; no data rides on it.
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            conn.reply.send(&Response::err(
                salvage_id(text),
                WireError::new(ErrorKind::BadRequest, format!("unparseable request: {e}")),
            ));
            return;
        }
    };
    let parse_ns = t_start.map(|t0| t0.elapsed().as_nanos() as u64);
    let id = request.id();
    if id == 0 {
        // ordering: standalone tally; no data rides on it.
        shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
        conn.reply.send(&Response::err(
            0,
            WireError::new(
                ErrorKind::BadRequest,
                "id 0 is reserved for answers to unparseable lines",
            ),
        ));
        return;
    }
    // ordering: SeqCst stop flag; see `Server::shutdown`.
    if shared.stop.load(Ordering::SeqCst) {
        conn.reply.send(&Response::err(
            id,
            WireError::new(ErrorKind::ShuttingDown, "server is shutting down"),
        ));
        return;
    }
    let request = match request {
        Request::Eval(eval) => eval,
        admin => return handle_admin(conn, admin, shared, config),
    };
    let trace = t_start.map(|t0| {
        Box::new(JobTrace {
            t_start: t0,
            parse_ns: parse_ns.unwrap_or(0),
            t_admitted: Instant::now(),
        })
    });
    jobs.push(Job { request, reply: Arc::clone(&conn.reply), trace });
}

/// Maps a catalog failure onto the wire: a missing name is the same
/// "unknown terrain" the eval path reports; everything else is
/// [`ErrorKind::Catalog`].
fn catalog_err(e: &CatalogError) -> WireError {
    let kind = match e {
        CatalogError::UnknownName(_) => ErrorKind::UnknownTerrain,
        _ => ErrorKind::Catalog,
    };
    WireError::new(kind, e.to_string())
}

/// Handles one admin request inline on the shard thread. Admin work is
/// metadata-sized — the largest piece, one upload chunk, is bounded by
/// `max_line_bytes` — so it never enters the admission queue and cannot
/// be starved by eval backpressure; the `completed`/`failed` counters
/// stay eval-only.
fn handle_admin(conn: &mut Conn, request: Request, shared: &Arc<Shared>, config: &ServeConfig) {
    let id = request.id();
    if let Request::Stats(_) = request {
        conn.reply
            .send(&Response::with_payload(id, Payload::Stats(shared.stats_snapshot())));
        return;
    }
    if let Request::Metrics(_) = request {
        // Answered even without a recorder (as `enabled: false`), so
        // operators can probe whether tracing is on.
        let snapshot = match shared.obs.as_ref() {
            Some(obs) => obs.recorder.snapshot(),
            None => hsr_obs::MetricsSnapshot::disabled(),
        };
        conn.reply
            .send(&Response::with_payload(id, Payload::Metrics(Box::new(snapshot))));
        return;
    }
    let Some(catalog) = shared.catalog.as_ref() else {
        conn.reply.send(&Response::err(
            id,
            WireError::new(ErrorKind::Catalog, "no catalog is configured on this server"),
        ));
        return;
    };
    match request {
        Request::UploadTerrain(begin) => upload_begin(conn, catalog, begin, config),
        Request::UploadChunk(chunk) => upload_chunk(conn, catalog, shared, chunk, config),
        Request::RegisterTerrain(req) => {
            match catalog.register(&req.name, &req.content, req.format, &req.uploader) {
                Ok(info) => {
                    shared.cache.invalidate(&req.name);
                    conn.reply
                        .send(&Response::with_payload(id, Payload::Terrain(info)));
                }
                Err(e) => conn.reply.send(&Response::err(id, catalog_err(&e))),
            }
        }
        Request::ListTerrains(_) => {
            conn.reply
                .send(&Response::with_payload(id, Payload::Terrains(catalog.list())));
        }
        Request::TerrainInfo(req) => match catalog.get(&req.name) {
            Some(info) => conn
                .reply
                .send(&Response::with_payload(id, Payload::Terrain(info))),
            None => conn.reply.send(&Response::err(
                id,
                WireError::new(
                    ErrorKind::UnknownTerrain,
                    format!("no terrain named `{}` in the catalog", req.name),
                ),
            )),
        },
        Request::DeleteTerrain(req) => match catalog.delete(&req.name) {
            Ok(info) => {
                shared.cache.invalidate(&req.name);
                conn.reply
                    .send(&Response::with_payload(id, Payload::Deleted(info)));
            }
            Err(e) => conn.reply.send(&Response::err(id, catalog_err(&e))),
        },
        Request::Eval(_) | Request::Stats(_) | Request::Metrics(_) => {
            // lint: allow(panic): handle_admin is only called from
            // handle_line, which filters these variants out first; a new
            // call site that forgets is a logic bug worth failing loudly
            // in tests.
            unreachable!("handled by callers")
        }
    }
}

/// Opens a chunked upload on this connection.
fn upload_begin(conn: &mut Conn, catalog: &Arc<Catalog>, begin: UploadBegin, config: &ServeConfig) {
    let id = begin.id;
    if conn.upload.is_some() {
        // The existing session stays live: the offending begin may be a
        // different client thread's mistake, not the uploader's.
        conn.reply.send(&Response::err(
            id,
            WireError::new(
                ErrorKind::BadRequest,
                "an upload is already in progress on this connection",
            ),
        ));
        return;
    }
    if begin.bytes > config.max_upload_bytes {
        conn.reply.send(&Response::err(
            id,
            WireError::new(
                ErrorKind::Catalog,
                format!(
                    "declared size {} exceeds the {}-byte upload cap",
                    begin.bytes, config.max_upload_bytes
                ),
            ),
        ));
        return;
    }
    match catalog.begin_blob() {
        Ok(writer) => {
            conn.upload = Some(UploadSession {
                name: begin.name,
                format: begin.format,
                uploader: begin.uploader,
                declared: begin.bytes,
                writer,
            });
            conn.reply.send(&Response::ack(id));
        }
        Err(e) => conn.reply.send(&Response::err(id, catalog_err(&e))),
    }
}

/// Stages one chunk of the connection's upload; the final chunk commits
/// and registers. Any failure aborts the whole upload (the session is
/// dropped, which removes the staging file) — chunk acknowledgements are
/// ping-pong, so the client sees the abort before sending more.
fn upload_chunk(
    conn: &mut Conn,
    catalog: &Arc<Catalog>,
    shared: &Arc<Shared>,
    chunk: UploadChunk,
    config: &ServeConfig,
) {
    let id = chunk.id;
    let Some(mut session) = conn.upload.take() else {
        conn.reply.send(&Response::err(
            id,
            WireError::new(ErrorKind::BadRequest, "no upload in progress on this connection"),
        ));
        return;
    };
    let data = match crate::b64::decode(&chunk.data) {
        Ok(data) => data,
        Err(e) => {
            conn.reply
                .send(&Response::err(id, WireError::new(ErrorKind::BadRequest, e)));
            return;
        }
    };
    if let Err(e) = session.writer.write(&data) {
        conn.reply.send(&Response::err(id, catalog_err(&e)));
        return;
    }
    let written = session.writer.bytes_written();
    if written > session.declared || written > config.max_upload_bytes {
        conn.reply.send(&Response::err(
            id,
            WireError::new(
                ErrorKind::BadRequest,
                format!(
                    "upload exceeds its declared size ({written} > {} bytes)",
                    session.declared
                ),
            ),
        ));
        return;
    }
    if !chunk.last {
        conn.upload = Some(session);
        conn.reply.send(&Response::ack(id));
        return;
    }
    if written != session.declared {
        conn.reply.send(&Response::err(
            id,
            WireError::new(
                ErrorKind::BadRequest,
                format!("final chunk leaves {written} of {} declared bytes", session.declared),
            ),
        ));
        return;
    }
    let UploadSession { name, format, uploader, writer, .. } = session;
    match catalog.commit_upload(writer, name.clone(), format, uploader) {
        Ok((info, deduped)) => {
            shared.cache.invalidate(&name);
            conn.reply.send(&Response::with_payload(
                id,
                Payload::Upload(UploadAck {
                    name: info.name,
                    content: info.content,
                    bytes: info.bytes,
                    deduped,
                }),
            ));
        }
        Err(e) => conn.reply.send(&Response::err(id, catalog_err(&e))),
    }
}

/// Nonblocking write drain of the outgoing queue.
fn service_write(conn: &mut Conn) -> IoOutcome {
    let mut out = lock_unpoisoned(&conn.reply.out);
    if out.dropped {
        return IoOutcome::Closed;
    }
    while !out.queue.is_empty() {
        let (front, back) = out.queue.as_slices();
        let chunk = if front.is_empty() { back } else { front };
        match conn.stream.write(chunk) {
            Ok(0) => return IoOutcome::Closed,
            Ok(n) => {
                out.queue.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return IoOutcome::Open(true);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return IoOutcome::Closed,
        }
    }
    IoOutcome::Open(false)
}

/// Shutdown: keep draining pending outgoing bytes (the workers have
/// already enqueued every answer they will ever produce) for a short
/// grace period, then close all connections.
fn final_flush(poller: &polling::Poller, conns: &mut HashMap<usize, Conn>) {
    let deadline = Instant::now() + FLUSH_GRACE;
    loop {
        let mut pending = false;
        conns.retain(|_, conn| match service_write(conn) {
            IoOutcome::Open(p) => {
                pending |= p;
                true
            }
            IoOutcome::Closed => {
                let _ = poller.delete(&conn.stream);
                false
            }
        });
        if !pending || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    for conn in conns.values() {
        let _ = poller.delete(&conn.stream);
    }
    conns.clear();
}
