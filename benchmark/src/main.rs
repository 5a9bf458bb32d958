//! Closed-loop benchmark of the terrain-hsr workspace.
//!
//! ```text
//! hsr-perf --workload <views-local|serve-views|ingest-tiled> --seed <n>
//!          --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each run generates its inputs from `--seed`, sets the workload up
//! several times (each set-up ends with one warm cycle), then runs whole
//! cycles of a fixed op sequence until `--seconds` have passed, at least
//! one. Every op's output is checked; a failed check counts as a failed
//! op. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` replays the same inputs through each layer's
//! `pub` calls and prints per-layer medians. `--smoke` shrinks the
//! terrains for the package's own test. The last stdout line is the
//! result object; the line before it is the run's host record. See
//! README.md for the workloads and metrics.

mod program;
mod stats;

use program::{
    Conn, Fingerprint, LocalCatalog, LocalTiled, RawLine, Report, Service, SplitConn, Terrain, View,
};
use stats::Samples;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: hsr-perf --workload <views-local|serve-views|ingest-tiled> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    ViewsLocal,
    ServeViews,
    IngestTiled,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "views-local" => Some(Workload::ViewsLocal),
            "serve-views" => Some(Workload::ServeViews),
            "ingest-tiled" => Some(Workload::IngestTiled),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ViewsLocal => "views-local",
            Workload::ServeViews => "serve-views",
            Workload::IngestTiled => "ingest-tiled",
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setups(self) -> usize {
        match self {
            Workload::ViewsLocal => 3,
            Workload::ServeViews => 5,
            // Each set-up is short (the burst is its only timed op), so
            // its median needs more of them.
            Workload::IngestTiled => 7,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// How one op ended.
enum Op {
    /// The op itself returned an error, so there was no output to check.
    Errored(String),
    /// The op's output went through its check.
    Checked(Result<(), String>),
}

/// `Op::Errored` for a failed op, otherwise its output's `check`.
fn checked<T>(result: Result<T, String>, check: impl FnOnce(T) -> Result<(), String>) -> Op {
    match result {
        Ok(out) => Op::Checked(check(out)),
        Err(e) => Op::Errored(e),
    }
}

/// Attempted and failed ops, and the output checks that ran.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    checks: u64,
}

impl Tally {
    /// Records one op; an errored op and a failed check both fail it.
    fn op(&mut self, op: Op) {
        self.attempted += 1;
        let outcome = match op {
            Op::Errored(e) => Err(e),
            Op::Checked(r) => {
                self.checks += 1;
                r
            }
        };
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 8 {
                eprintln!("hsr-perf: failed op: {e}");
            }
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run measured, besides the tally.
#[derive(Default)]
struct Measured {
    metrics: Vec<Metric>,
    /// Sample count behind each percentile or rate metric.
    samples: Vec<(&'static str, usize)>,
    cycles: usize,
    /// Largest latency sample, in ms; no reported percentile exceeds it.
    latency_max_ms: Option<f64>,
}

impl Measured {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The median of per-op layer samples, or 0 for a layer this
    /// workload never calls.
    fn median(&mut self, name: &'static str, values: Vec<f64>, unit: &'static str) {
        let s = Samples::new(values);
        self.samples.push((name, s.len()));
        self.put(name, s.median().unwrap_or(0.0), unit);
    }
}

/// Latency samples of one run, kept per op class: one class per distinct
/// op of a cycle (a view, or a reply position of a burst).
struct OpTimes(Vec<Vec<f64>>);

impl OpTimes {
    fn new(classes: usize) -> OpTimes {
        OpTimes(vec![Vec::new(); classes])
    }

    fn push(&mut self, class: usize, s: f64) {
        self.0[class].push(s);
    }

    /// Each class's fastest sample.
    fn best(&self) -> Vec<f64> {
        self.0
            .iter()
            .map(|c| Samples::new(c.clone()).min().expect("every class ran"))
            .collect()
    }

    /// All samples of all classes.
    fn all(&self) -> Samples {
        Samples::new(self.0.concat())
    }
}

/// Runs whole cycles until `seconds` of wall time have passed and at
/// least one ran; returns the cycle count. Each workload times the ops
/// inside its cycles itself.
fn whole_cycles(
    seconds: f64,
    mut cycle: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || secs(start.elapsed()) < seconds {
        cycle(cycles)?;
        cycles += 1;
    }
    Ok(cycles)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn mib(bytes: f64) -> f64 {
    bytes / (1u64 << 20) as f64
}

/// A derived seed for cycle `i` of a run: distinct per (seed, i).
fn cycle_seed(seed: u64, i: u64) -> u64 {
    // splitmix64 finalizer over the pair.
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Output check of a repeated op: bit-identical to the first result of
/// the same view in this run.
fn same_as_first(first: &mut Option<Fingerprint>, got: Fingerprint) -> Result<(), String> {
    match first {
        Some(f) if *f != got => Err(format!("result changed between repeats: {f:?} then {got:?}")),
        Some(_) => Ok(()),
        None => {
            *first = Some(got);
            Ok(())
        }
    }
}

// ---------------------------------------------------------------- views-local

/// Reference terrain and views, with the Sequential reports the
/// parallel ones are checked against.
struct LocalInputs {
    terrain: Terrain,
    views: Vec<View>,
    sequential: Vec<Report>,
    first: Vec<Option<Fingerprint>>,
}

impl LocalInputs {
    fn new(args: &Args) -> Result<LocalInputs, String> {
        let terrain = if args.smoke {
            program::fbm_terrain(12, 3, args.seed)
        } else {
            program::fbm_terrain(64, 5, args.seed)
        };
        let views = program::local_views(&terrain);
        let tin = program::build_tin(&terrain)?;
        let sequential = views
            .iter()
            .map(|v| program::eval_sequential(&tin, v))
            .collect::<Result<Vec<_>, _>>()?;
        let first = vec![None; views.len()];
        Ok(LocalInputs { terrain, views, sequential, first })
    }

    /// The first result of view `i` must agree with Sequential; every
    /// later one must equal the first bit for bit.
    fn check(&mut self, i: usize, report: &Result<Report, String>) -> Op {
        checked(report.as_ref().map_err(|e| format!("evaluate: {e}")), |report| {
            if self.first[i].is_none() {
                program::agrees_with_sequential(report, &self.sequential[i])
                    .map_err(|e| format!("view {i}: {e}"))?;
            }
            same_as_first(&mut self.first[i], program::fingerprint(report))
        })
    }
}

/// One views-local cycle's timings and results.
struct LocalCycle {
    view_s: Vec<f64>,
    reports: Vec<Result<Report, String>>,
}

/// Evaluates the cycle's views, one `evaluate` call each.
fn local_cycle(tin: &program::Tin, views: &[View]) -> LocalCycle {
    let (view_s, reports) = views
        .iter()
        .map(|view| {
            let (report, s) = timed(|| program::eval_local(tin, view));
            (s, report)
        })
        .unzip();
    LocalCycle { view_s, reports }
}

fn views_local(args: &Args, tally: &mut Tally) -> Result<Measured, String> {
    let mut inputs = LocalInputs::new(args)?;
    let views = inputs.views.clone();
    let mut m = Measured::default();
    let mut setup = Vec::new();
    let mut tin = None;
    for _ in 0..args.workload.setups() {
        let start = Instant::now();
        let built = program::build_tin(&inputs.terrain)?;
        let cycle = local_cycle(&built, &views);
        setup.push(secs(start.elapsed()));
        for (i, r) in cycle.reports.iter().enumerate() {
            tally.op(inputs.check(i, r));
        }
        tin = Some(built);
    }
    let tin = tin.expect("at least one set-up");

    if args.trace {
        let mut layers = LayerSamples::default();
        let cycles = whole_cycles(args.seconds, |_| {
            for (i, view) in views.iter().enumerate() {
                let (report, evaluate_s) = timed(|| program::eval_local(&tin, view));
                tally.op(inputs.check(i, &report));
                if let Ok(report) = &report {
                    layers.core(&tin, view, report, evaluate_s)?;
                }
            }
            Ok(())
        })?;
        m.cycles = cycles;
        layers.finish(&mut m);
        return Ok(m);
    }

    let mut times = OpTimes::new(views.len());
    let cycles = whole_cycles(args.seconds, |_| {
        let cycle = local_cycle(&tin, &views);
        for (i, (s, r)) in cycle.view_s.iter().zip(&cycle.reports).enumerate() {
            times.push(i, *s);
            tally.op(inputs.check(i, r));
        }
        Ok(())
    })?;
    m.cycles = cycles;
    end_to_end(&mut m, sequential_cycle(&times), &times, setup)?;
    Ok(m)
}

// ---------------------------------------------------------------- serve-views

/// One strict ping-pong sweep: `Client::eval` of each view in `order`,
/// each timed from the request write to the decoded report.
fn sweep_once(
    conn: &mut Conn,
    sweep: &[View],
    order: &[usize],
    expected: &[Fingerprint],
    times: &mut OpTimes,
    tally: &mut Tally,
) {
    for &i in order {
        let (report, s) = timed(|| conn.eval(program::HOSTED, &sweep[i]));
        times.push(i, s);
        tally.op(check_served(expected, i, &report.map(|r| program::fingerprint(&r))));
    }
}

/// Served reports must be bit-identical to a local evaluate.
fn check_served(expected: &[Fingerprint], i: usize, got: &Result<Fingerprint, String>) -> Op {
    checked(got.as_ref().map_err(|e| format!("eval: {e}")), |got| {
        if *got != expected[i] {
            return Err(format!(
                "served view {i} differs from local evaluate: {got:?} vs {:?}",
                expected[i]
            ));
        }
        Ok(())
    })
}

/// serve_load's terrain is `diamond_square(5, 0.6, 12.0, 31)`.
const SERVE_LOAD_SEED: u64 = 31;

/// The order in which the client walks the sweep, drawn from the seed:
/// every sweep does the same six views, so the work per sweep is fixed.
fn sweep_order(seed: u64, views: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..views).collect();
    // Fisher–Yates.
    for i in (1..views).rev() {
        let j = (cycle_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn serve_views(args: &Args, tally: &mut Tally) -> Result<Measured, String> {
    let pow2 = if args.smoke { 3 } else { 5 };
    let terrain = program::diamond_square_terrain(pow2, SERVE_LOAD_SEED);
    let sweep = program::eye_level_sweep(&terrain);
    let order = sweep_order(args.seed, sweep.len());
    let tin = program::build_tin(&terrain)?;
    let local: Vec<Report> = sweep
        .iter()
        .map(|v| program::eval_local(&tin, v))
        .collect::<Result<_, _>>()?;
    let expected: Vec<Fingerprint> = local.iter().map(program::fingerprint).collect();

    let mut m = Measured::default();
    let mut setup = Vec::new();
    let mut current: Option<(Service, Conn)> = None;
    for _ in 0..args.workload.setups() {
        if let Some((svc, conn)) = current.take() {
            drop(conn);
            svc.shutdown();
        }
        let start = Instant::now();
        let svc = Service::grid(&terrain).map_err(|e| format!("bind: {e}"))?;
        let mut conn = Conn::connect(svc.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut warm = OpTimes::new(sweep.len());
        sweep_once(&mut conn, &sweep, &order, &expected, &mut warm, tally);
        setup.push(secs(start.elapsed()));
        current = Some((svc, conn));
    }
    let (service, mut conn) = current.expect("at least one set-up");

    if args.trace {
        drop(conn);
        let mut layers = LayerSamples::default();
        let mut split = SplitConn::connect(service.addr()).map_err(|e| format!("connect: {e}"))?;
        let cycles = whole_cycles(args.seconds, |_| {
            for (i, view) in sweep.iter().enumerate() {
                let (sent, _, lines) = split
                    .roundtrip(program::HOSTED, std::slice::from_ref(view))
                    .map_err(|e| format!("split client: {e}"))?;
                let wire_s = secs(lines[0].at - sent);
                let (decoded, decode_s) = timed(|| program::decode_response(&lines[0].line));
                tally.op(check_served(
                    &expected,
                    i,
                    &decoded.map(|(_, r)| program::fingerprint(&r)),
                ));
                layers
                    .response_kib
                    .push(lines[0].line.len() as f64 / 1024.0);
                layers.decode_ms.push(decode_s * 1e3);
                let (report, evaluate_s) = timed(|| program::eval_local(&tin, view));
                let report = report?;
                layers.core(&tin, view, &report, evaluate_s)?;
                let (_, encode_s) = timed(|| program::encode_response(report));
                layers.encode_ms.push(encode_s * 1e3);
                layers
                    .residual_ms
                    .push((wire_s - evaluate_s - encode_s) * 1e3);
            }
            Ok(())
        })?;
        drop(split);
        service.shutdown();
        m.cycles = cycles;
        layers.finish(&mut m);
        return Ok(m);
    }

    let mut times = OpTimes::new(sweep.len());
    let cycles = whole_cycles(args.seconds, |_| {
        sweep_once(&mut conn, &sweep, &order, &expected, &mut times, tally);
        Ok(())
    })?;
    drop(conn);
    service.shutdown();
    m.cycles = cycles;
    end_to_end(&mut m, sequential_cycle(&times), &times, setup)?;
    Ok(m)
}

// --------------------------------------------------------------- ingest-tiled

/// Viewsheds per `ingest-tiled` burst. The server writes the replies one
/// after another, so each reply position is an op class of its own; with
/// an odd count the median over them is one position's time.
const BURST_VIEWS: usize = 5;

/// A fresh 181² (smoke: 33²) fBm grid and its burst of viewsheds.
fn ingest_inputs(args: &Args, i: u64) -> (Terrain, Vec<View>) {
    let cells = if args.smoke { 33 } else { 181 };
    let terrain = program::fbm_terrain(cells, 5, cycle_seed(args.seed, i));
    let burst = program::front_edge_burst(&terrain, BURST_VIEWS);
    (terrain, burst)
}

/// What one ingest-tiled cycle measured, for the checks after the run.
struct IngestCycle {
    index: u64,
    /// Time inside `upload_terrain`.
    upload_s: f64,
    /// Priming query: send → report decoded.
    prime_s: f64,
    /// Burst send → its last reply line; `throughput_ops_s` is the
    /// burst's views over the median of these.
    burst_s: f64,
    /// Burst send → each reply line received.
    reply_s: Vec<f64>,
    /// Length in KiB and decode seconds of each reply line.
    reply_kib: Vec<f64>,
    decode_s: Vec<f64>,
    /// The priming query's report, then each burst view's.
    served: Vec<Result<Fingerprint, String>>,
}

/// An upload must be acknowledged with the bytes sent, as new content.
fn check_ack(name: &str, terrain: &Terrain, ack: Result<program::Ack, String>) -> Op {
    checked(ack, |ack| {
        if ack.bytes != terrain.payload_bytes() as u64 || ack.deduped {
            return Err(format!(
                "upload of {name}: ack {ack:?} for {} fresh bytes",
                terrain.payload_bytes()
            ));
        }
        Ok(())
    })
}

/// Decodes a burst's reply lines; returns the fingerprint of each view's
/// report in view order (view `j` was sent as request `first + j`) and
/// the seconds each line took to decode.
fn decode_burst(
    first: u64,
    views: usize,
    lines: &[RawLine],
) -> (Vec<Result<Fingerprint, String>>, Vec<f64>) {
    let mut slots: Vec<Option<Fingerprint>> = vec![None; views];
    let (mut errors, mut decode_s) = (Vec::new(), Vec::new());
    for line in lines {
        let (decoded, s) = timed(|| program::decode_response(&line.line));
        decode_s.push(s);
        match decoded {
            Ok((id, report)) => match id
                .checked_sub(first)
                .and_then(|j| slots.get_mut(usize::try_from(j).ok()?))
            {
                Some(slot @ None) => *slot = Some(program::fingerprint(&report)),
                _ => errors.push(format!("unexpected or repeated reply id {id}")),
            },
            Err(e) => errors.push(e),
        }
    }
    let served = slots
        .into_iter()
        .enumerate()
        .map(|(j, f)| f.ok_or_else(|| format!("view {j}: no report ({})", errors.join("; "))))
        .collect();
    (served, decode_s)
}

/// Uploads a fresh terrain and primes it with the burst's first view,
/// both untimed, then pipelines the burst and times each reply line.
///
/// Two steps stay out of the timed part because their cost follows the
/// host more than the program. The server decodes each 64 KiB upload
/// line with the wire decoder, which is quadratic in line length today
/// and whose scan loop ran 1.7× slower in some 30-second windows than in
/// others on one 2-vCPU host. The priming query writes the cold tile
/// pyramid (288 files at 181²), which ranged 4–200 ms within minutes.
/// The traced run reports both (`ingest_mib_s`,
/// `hsr-serve.upload_ms_per_chunk`, `cold_query_ms_p50`). For the same
/// reason the burst is timed up to the arrival of each reply line; the
/// client decodes the replies afterwards, for the output check.
fn ingest_cycle(
    conn: &mut Conn,
    split: &mut SplitConn,
    index: u64,
    terrain: &Terrain,
    burst: &[View],
    tally: &mut Tally,
) -> Result<IngestCycle, String> {
    let name = format!("ingest-{index}");
    let (ack, upload_s) = timed(|| conn.upload(&name, terrain));
    tally.op(check_ack(&name, terrain, ack));
    let (prime, prime_s) = timed(|| conn.eval(&name, &burst[0]));
    let (sent, first, lines) = split
        .roundtrip(&name, burst)
        .map_err(|e| format!("burst: {e}"))?;
    let reply_s: Vec<f64> = lines.iter().map(|l| secs(l.at - sent)).collect();
    let burst_s = reply_s.iter().copied().fold(0.0, f64::max);
    let reply_kib = lines.iter().map(|l| l.line.len() as f64 / 1024.0).collect();
    let (burst_served, decode_s) = decode_burst(first, burst.len(), &lines);
    let mut served = vec![prime.map(|r| program::fingerprint(&r))];
    served.extend(burst_served);
    Ok(IngestCycle { index, upload_s, prime_s, burst_s, reply_s, reply_kib, decode_s, served })
}

/// A served viewshed must be bit-identical to the local tiled scene's
/// report of the same view: visibility map, `n`, `k`, work and verdicts.
fn same_as_local(index: u64, served: Result<&Fingerprint, String>, local: &Report) -> Op {
    checked(served, |got| {
        let want = program::fingerprint(local);
        if *got == want {
            Ok(())
        } else {
            Err(format!("cycle {index}: served {got:?} differs from local tiled scene {want:?}"))
        }
    })
}

/// Each served viewshed must equal a local `TiledScene` built from the
/// same grid and tiling.
fn check_ingest(
    args: &Args,
    work: &Path,
    cycle: &IngestCycle,
    tally: &mut Tally,
) -> Result<(), String> {
    let (terrain, burst) = ingest_inputs(args, cycle.index);
    let dir = work.join(format!("check-{}", cycle.index));
    program::build_pyramid(&terrain, &dir)?;
    let (local, _, _) = LocalTiled::open(&dir)?.eval_many(&burst)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    let expected = std::iter::once(&local[0]).chain(&local);
    for (served, local) in cycle.served.iter().zip(expected) {
        tally.op(same_as_local(
            cycle.index,
            served.as_ref().map_err(|e| format!("eval: {e}")),
            &local.report,
        ));
    }
    Ok(())
}

fn ingest_tiled(args: &Args, work: &Path, tally: &mut Tally) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut setup = Vec::new();
    let mut current: Option<(Service, Conn, SplitConn)> = None;
    let mut warm = Vec::new();
    for k in 0..args.workload.setups() {
        if let Some((svc, conn, split)) = current.take() {
            drop((conn, split));
            svc.shutdown();
        }
        let index = 1_000_000 + k as u64;
        let (terrain, burst) = ingest_inputs(args, index);
        let dir = work.join(format!("catalog-{k}"));
        let start = Instant::now();
        let svc = Service::catalog(&dir).map_err(|e| format!("catalog server: {e}"))?;
        let mut conn = Conn::connect(svc.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut split = SplitConn::connect(svc.addr()).map_err(|e| format!("connect: {e}"))?;
        let open_s = secs(start.elapsed());
        let cycle = ingest_cycle(&mut conn, &mut split, index, &terrain, &burst, tally)?;
        // As in every cycle, the upload and the priming query are untimed.
        setup.push(open_s + cycle.burst_s);
        warm.push(cycle);
        current = Some((svc, conn, split));
    }
    for cycle in &warm {
        check_ingest(args, work, cycle, tally)?;
    }
    let (service, mut conn, mut split) = current.expect("at least one set-up");

    if args.trace {
        let mut layers = LayerSamples::default();
        let catalog = LocalCatalog::open(&work.join("local-catalog"))?;
        let cycles = whole_cycles(args.seconds, |i| {
            let (terrain, burst) = ingest_inputs(args, i as u64);
            let cycle = ingest_cycle(&mut conn, &mut split, i as u64, &terrain, &burst, tally)?;
            layers
                .ingest_mib_s
                .push(mib(terrain.payload_bytes() as f64) / cycle.upload_s);
            layers
                .upload_ms_per_chunk
                .push(cycle.upload_s * 1e3 / terrain.upload_chunks() as f64);
            layers.cold_query_ms.push(cycle.prime_s * 1e3);
            layers
                .decode_ms
                .extend(cycle.decode_s.iter().map(|s| s * 1e3));
            layers.response_kib.extend_from_slice(&cycle.reply_kib);

            let name = format!("ingest-{i}");
            let (committed, commit_s) = timed(|| catalog.upload(&name, &terrain));
            committed?;
            layers.commit_ms.push(commit_s * 1e3);
            let dir = work.join(format!("trace-{i}"));
            let (built, pyramid_s) = timed(|| program::build_pyramid(&terrain, &dir));
            built?;
            layers.pyramid_ms.push(pyramid_s * 1e3);
            let scene = LocalTiled::open(&dir)?;
            // The server's scene met the priming view first.
            let (primed, _, _) = scene.eval_many(&burst[..1])?;
            let (evaluated, eval_many_s) = timed(|| scene.eval_many(&burst));
            let (local, hits, lookups) = evaluated?;
            layers.eval_many_ms.push(eval_many_s * 1e3);
            layers.hit_ratio.push(hits as f64 / lookups.max(1) as f64);
            for (got, out) in cycle.served.iter().zip(primed.iter().chain(&local)) {
                let got = got.as_ref().map_err(|e| format!("cycle {i}: {e}"));
                tally.op(same_as_local(i as u64, got, &out.report));
            }
            let mut encode_total = 0.0;
            for (view, out) in burst.iter().zip(&local) {
                layers.tiles_per_view.push(out.tiles.len() as f64);
                for &id in &out.tiles {
                    let tile = scene.tile_tin(id)?;
                    let (report, evaluate_s) = timed(|| program::eval_local(&tile, view));
                    layers.core(&tile, view, &report?, evaluate_s)?;
                }
                let (_, encode_s) = timed(|| program::encode_response(out.report.clone()));
                layers.encode_ms.push(encode_s * 1e3);
                encode_total += encode_s;
            }
            layers
                .residual_ms
                .push((cycle.burst_s - eval_many_s - encode_total) * 1e3);
            drop(scene);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
        })?;
        drop((split, conn));
        service.shutdown();
        m.cycles = cycles;
        layers.finish(&mut m);
        return Ok(m);
    }

    let mut done = Vec::new();
    let cycles = whole_cycles(args.seconds, |i| {
        let (terrain, burst) = ingest_inputs(args, i as u64);
        done.push(ingest_cycle(&mut conn, &mut split, i as u64, &terrain, &burst, tally)?);
        Ok(())
    })?;
    drop((conn, split));
    service.shutdown();
    let mut times = OpTimes::new(BURST_VIEWS);
    for cycle in &done {
        check_ingest(args, work, cycle, tally)?;
        for (j, s) in cycle.reply_s.iter().enumerate() {
            times.push(j, *s);
        }
    }
    m.cycles = cycles;
    // The replies arrive one after another, so a burst ends with its
    // last reply.
    let burst = times.best()[BURST_VIEWS - 1];
    end_to_end(&mut m, (BURST_VIEWS, burst), &times, setup)?;
    Ok(m)
}

// ------------------------------------------------------------------- layers

/// Per-op samples of every per-layer metric of a traced run.
#[derive(Default)]
struct LayerSamples {
    remap_ms: Vec<f64>,
    order_ms: Vec<f64>,
    classify_ms: Vec<f64>,
    phase1_ms: Vec<f64>,
    phase2_ms: Vec<f64>,
    seq_ms: Vec<f64>,
    parallel_over_seq: Vec<f64>,
    coverage: Vec<f64>,
    evaluate_ms: Vec<f64>,
    work: Vec<f64>,
    depth: Vec<f64>,
    ns_per_work: Vec<f64>,
    treap_ops: Vec<f64>,
    filter_hit_ratio: Vec<f64>,
    response_kib: Vec<f64>,
    decode_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    residual_ms: Vec<f64>,
    upload_ms_per_chunk: Vec<f64>,
    commit_ms: Vec<f64>,
    pyramid_ms: Vec<f64>,
    eval_many_ms: Vec<f64>,
    ingest_mib_s: Vec<f64>,
    cold_query_ms: Vec<f64>,
    tiles_per_view: Vec<f64>,
    hit_ratio: Vec<f64>,
}

impl LayerSamples {
    /// Times hsr-core's layer calls for one view and reads the exact
    /// cost counts of the `evaluate` that took `evaluate_s`.
    fn core(
        &mut self,
        tin: &program::Tin,
        view: &View,
        report: &Report,
        evaluate_s: f64,
    ) -> Result<(), String> {
        let l = program::core_layers(tin, view)?;
        let c = program::cost_counts(report);
        let engine_s = l.phase1_s + l.phase2_s;
        self.remap_ms.push(l.remap_s * 1e3);
        self.order_ms.push(l.order_s * 1e3);
        if l.classify_s > 0.0 {
            self.classify_ms.push(l.classify_s * 1e3);
        }
        self.phase1_ms.push(l.phase1_s * 1e3);
        self.phase2_ms.push(l.phase2_s * 1e3);
        self.seq_ms.push(l.seq_s * 1e3);
        self.parallel_over_seq.push(engine_s / l.seq_s.max(1e-9));
        let layers_s = l.remap_s + l.order_s + l.classify_s + engine_s;
        self.coverage.push(layers_s / evaluate_s.max(1e-9));
        self.evaluate_ms.push(evaluate_s * 1e3);
        self.work.push(c.work as f64);
        self.depth.push(c.depth as f64);
        self.ns_per_work
            .push(l.phase2_s * 1e9 / c.work.max(1) as f64);
        self.treap_ops.push(c.treap_ops as f64);
        let predicates = c.pred_filter + c.pred_exact;
        if predicates > 0 {
            self.filter_hit_ratio
                .push(c.pred_filter as f64 / predicates as f64);
        }
        Ok(())
    }

    fn finish(self, m: &mut Measured) {
        m.median("hsr-core.order_ms", self.order_ms, "ms");
        m.median("hsr-core.phase1_ms", self.phase1_ms, "ms");
        m.median("hsr-core.phase2_ms", self.phase2_ms, "ms");
        m.median("hsr-core.remap_ms", self.remap_ms, "ms");
        m.median("hsr-core.classify_ms", self.classify_ms, "ms");
        m.median("hsr-core.seq_ms", self.seq_ms, "ms");
        m.median("hsr-core.parallel_over_seq", self.parallel_over_seq, "ratio");
        m.median("hsr-core.coverage", self.coverage, "ratio");
        m.median("hsr-core.evaluate_ms", self.evaluate_ms, "ms");
        m.median("hsr-pram.work", self.work, "count");
        m.median("hsr-pram.depth", self.depth, "count");
        m.median("hsr-pram.ns_per_work", self.ns_per_work, "ns");
        m.median("hsr-pstruct.treap_ops", self.treap_ops, "count");
        m.median("hsr-geometry.filter_hit_ratio", self.filter_hit_ratio, "ratio");
        m.median("serde_json.response_kib", self.response_kib, "KiB");
        m.median("serde_json.decode_ms", self.decode_ms, "ms");
        m.median("serde_json.encode_ms", self.encode_ms, "ms");
        m.median("hsr-serve.residual_ms", self.residual_ms, "ms");
        m.median("hsr-serve.upload_ms_per_chunk", self.upload_ms_per_chunk, "ms");
        m.median("hsr-catalog.commit_ms", self.commit_ms, "ms");
        m.median("hsr-tile.pyramid_ms", self.pyramid_ms, "ms");
        m.median("hsr-tile.eval_many_ms", self.eval_many_ms, "ms");
        m.median("hsr-tile.tiles_per_view", self.tiles_per_view, "count");
        m.median("hsr-tile.hit_ratio", self.hit_ratio, "ratio");
        m.median("ingest_mib_s", self.ingest_mib_s, "MiB/s");
        m.median("cold_query_ms_p50", self.cold_query_ms, "ms");
    }
}

/// Runs `f` and returns its result with the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t.elapsed()))
}

/// A cycle of ops run one after another, each at its best time: the op
/// count and the sum of the ops' best times.
fn sequential_cycle(times: &OpTimes) -> (usize, f64) {
    let best = times.best();
    (best.len(), best.iter().sum())
}

/// The end-to-end metrics: throughput of one cycle of `ops` ops taking
/// `cycle_s` seconds, the median over the op classes of each class's
/// best latency, the median set-up, and peak RSS.
///
/// Every time is an op's fastest repetition in the run. On the 2-vCPU
/// reference host the same single-threaded op runs in two speed states
/// about 1.6× apart (with no steal to show for it), each lasting seconds;
/// over 30-second windows a plain median of its samples spread 0.24 of
/// its value (IQR ÷ median over ten windows), the minimum 0.04.
fn end_to_end(
    m: &mut Measured,
    (ops, cycle_s): (usize, f64),
    times: &OpTimes,
    setup: Vec<f64>,
) -> Result<(), String> {
    let all = times.all();
    m.samples.push(("throughput_ops_s", m.cycles));
    m.put("throughput_ops_s", ops as f64 / cycle_s, "ops/s");
    m.latency_max_ms = all.max().map(|s| s * 1e3);
    let best = Samples::new(times.best());
    m.samples.push(("latency_ms_p50", all.len()));
    m.put("latency_ms_p50", best.median().expect("at least one class") * 1e3, "ms");
    let setups = Samples::new(setup);
    m.samples.push(("setup_s", setups.len()));
    m.put("setup_s", setups.median().expect("at least one set-up"), "s");
    let rss = host::peak_rss_kib();
    if rss == 0 {
        return Err("no VmHWM in /proc/self/status".into());
    }
    m.put("peak_rss_mib", rss as f64 / 1024.0, "MiB");
    Ok(())
}

// --------------------------------------------------------------------- host

mod host {
    use std::path::Path;

    /// CPU time counters in clock ticks: the whole machine's from
    /// `/proc/stat`, this process's from `/proc/self/stat`.
    #[derive(Clone, Copy)]
    pub struct Cpu {
        steal: u64,
        busy: u64,
        total: u64,
        own: u64,
    }

    pub fn cpu() -> Option<Cpu> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal; guest time is
        // already inside user and nice.
        let total = f.iter().take(8).sum();
        let (idle, steal) = (f.get(3)? + f.get(4)?, *f.get(7)?);
        let own = std::fs::read_to_string("/proc/self/stat").ok()?;
        // utime and stime are fields 14 and 15; the command name before
        // them may hold spaces, so count from its closing parenthesis.
        let own: Vec<u64> = own[own.rfind(')')? + 1..]
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some(Cpu { steal, busy: total - idle - steal, total, own: own.iter().sum() })
    }

    /// Between two readings, in percent of all CPU time: the steal
    /// share, and the share other processes and the kernel kept busy.
    pub fn shares(before: Option<Cpu>, after: Option<Cpu>) -> (f64, f64) {
        match (before, after) {
            (Some(a), Some(b)) if b.total > a.total => {
                let pct = |x: u64| x as f64 * 100.0 / (b.total - a.total) as f64;
                let other = (b.busy - a.busy).saturating_sub(b.own - a.own);
                (pct(b.steal - a.steal), pct(other))
            }
            _ => (0.0, 0.0),
        }
    }

    /// `VmHWM` of this process, in KiB.
    pub fn peak_rss_kib() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }

    /// The commit the checkout was made from, when it carries a `.git`
    /// directory; read from files so no process is started.
    pub fn git_rev(root: &Path) -> String {
        let git = root.join(".git");
        let head = match std::fs::read_to_string(git.join("HEAD")) {
            Ok(h) => h.trim().to_string(),
            Err(_) => return "unknown".into(),
        };
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head;
        };
        if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
            return rev.trim().to_string();
        }
        std::fs::read_to_string(git.join("packed-refs"))
            .ok()
            .and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(&format!(" {reference}")))
                    .and_then(|l| l.split(' ').next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into())
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-run scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hsr-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("hsr-perf: current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(
        root.join(".bench_work")
            .join(format!("{}", std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("hsr-perf: {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }

    let cpu_before = host::cpu();
    let started = Instant::now();
    let mut tally = Tally::default();
    let measured = match args.workload {
        Workload::ViewsLocal => views_local(&args, &mut tally),
        Workload::ServeViews => serve_views(&args, &mut tally),
        Workload::IngestTiled => ingest_tiled(&args, &work.0, &mut tally),
    };
    let (steal, other_busy) = host::shares(cpu_before, host::cpu());
    let mut m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("hsr-perf: {} run aborted: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        m.put("host.steal_pct", steal, "%");
    }
    if let Some(bad) = m.metrics.iter().find(|x| !x.value.is_finite()) {
        eprintln!("hsr-perf: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }

    let rayon = std::env::var("RAYON_NUM_THREADS").map_or("null".into(), |v| json_str(&v));
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let samples: Vec<String> = m
        .samples
        .iter()
        .map(|(n, c)| format!("{}: {c}", json_str(n)))
        .collect();
    println!(
        "{{\"host\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"available_parallelism\": {parallelism}, \"rayon_num_threads\": {rayon}, \"steal_pct\": {steal}, \
         \"other_busy_pct\": {other_busy}, \
         \"git_rev\": {}, \"cycles\": {}, \"checks\": {}, \"run_s\": {}, \"latency_max_ms\": {}, \"samples\": {{{}}}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        json_str(&host::git_rev(&root)),
        m.cycles,
        tally.checks,
        secs(started.elapsed()),
        m.latency_max_ms.map_or("null".into(), |v| v.to_string()),
        samples.join(", ")
    );
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                x.value,
                json_str(x.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
