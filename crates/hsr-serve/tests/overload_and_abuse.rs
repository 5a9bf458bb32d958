//! Regression coverage for the ISSUE 6 failure modes: every test here
//! fails against the PR 5 thread-per-connection server.
//!
//! * An oversized request line is rejected the moment it exceeds the cap
//!   — no newline required (PR 5's `read_line` buffered without bound
//!   and never answered).
//! * Request id 0 is reserved; using it is a `BadRequest`, and lines
//!   that parse as JSON but not as a `Request` get their salvageable id
//!   echoed (PR 5 evaluated id-0 requests and echoed 0 on every decode
//!   failure, colliding with the unparseable-line channel).
//! * A client that stops reading is disconnected once its outgoing
//!   queue overflows, counted in `dropped_slow`, while everyone else
//!   keeps getting served (PR 5 wedged a worker in `write_all` forever).
//! * A server echoing duplicate response ids is reported as the
//!   protocol breach it is (PR 5's client silently overwrote the first
//!   report and blamed the *other* request).
//! * A request line nesting 100,000 arrays is a `BadRequest`, not a
//!   stack overflow that aborts the server, and decoding a long string
//!   takes time linear in its length.

use hsr_core::view::{evaluate, Report, View};
use hsr_serve::{Client, ErrorKind, Request, Response, ServerBuilder, TerrainSource};
use hsr_terrain::gen;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn fingerprint(r: &Report) -> (Vec<(u32, u64, u64)>, usize, usize) {
    (
        r.vis
            .pieces
            .iter()
            .map(|p| (p.edge, p.x0.to_bits(), p.x1.to_bits()))
            .collect(),
        r.n,
        r.k,
    )
}

/// A reader that fails the test after `secs` instead of hanging it —
/// pre-fix code never answers some of these lines.
fn lined_reader(stream: &TcpStream, secs: u64) -> BufReader<TcpStream> {
    let clone = stream.try_clone().expect("clone stream");
    clone
        .set_read_timeout(Some(Duration::from_secs(secs)))
        .expect("set read timeout");
    BufReader::new(clone)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("server must answer before the read timeout");
    serde_json::from_str(line.trim()).expect("response line parses")
}

#[test]
fn oversized_line_is_rejected_before_any_newline_and_the_connection_resyncs() {
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(gen::fbm(8, 8, 2, 5.0, 1)))
        .max_line_bytes(256)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = lined_reader(&stream, 10);

    // 4 KiB of line body, never newline-terminated. The fix answers as
    // soon as the cap is exceeded; the pre-fix server buffers forever
    // waiting for the newline (the read below would time out).
    stream.write_all(&[b'x'; 4096]).unwrap();
    let response = read_response(&mut reader);
    assert_eq!(response.id, 0, "an unparsed line is answered on the reserved id");
    let err = response.into_result().unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
    assert!(err.message.contains("256-byte cap"), "cap named in: {}", err.message);

    // More of the same line, its terminating newline, then a *batch* of
    // valid pipelined requests in one write: the connection resyncs at
    // the newline and every subsequent id is answered correctly — the
    // mid-stream rejection must not desynchronize the line framing.
    stream.write_all(&[b'y'; 1024]).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut batch = String::new();
    for id in 9..=13u64 {
        let request = Request::eval(id, "t", View::orthographic(0.02 * id as f64));
        batch.push_str(&serde_json::to_string(&request).unwrap());
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).unwrap();
    let mut answered: Vec<u64> = (0..5)
        .map(|_| {
            let response = read_response(&mut reader);
            let id = response.id;
            assert!(
                response.into_result().is_ok(),
                "the connection must survive the oversized line"
            );
            id
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, vec![9, 10, 11, 12, 13], "every pipelined id answered exactly once");

    assert_eq!(server.stats().malformed, 1, "one oversized line, counted once");
    server.shutdown();
}

#[test]
fn reserved_id_zero_is_rejected_and_salvageable_ids_are_echoed() {
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(gen::fbm(8, 8, 2, 5.0, 1)))
        .bind("127.0.0.1:0")
        .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = lined_reader(&stream, 10);

    // A well-formed request using the reserved id: rejected, not
    // evaluated (pre-fix served it a report).
    let request = Request::eval(0, "t", View::orthographic(0.0));
    let mut line = serde_json::to_string(&request).unwrap();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let response = read_response(&mut reader);
    assert_eq!(response.id, 0);
    let err = response.into_result().unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
    assert!(err.message.contains("reserved"), "policy named in: {}", err.message);

    // Valid JSON, invalid `view`: the client id is salvaged from the
    // text so the error lands on the request that caused it (pre-fix
    // echoed 0, indistinguishable from garbage-line errors).
    stream
        .write_all(b"{\"id\":7,\"terrain\":\"t\",\"view\":\"nope\"}\n")
        .unwrap();
    let response = read_response(&mut reader);
    assert_eq!(response.id, 7, "decode failures echo the salvaged client id");
    assert_eq!(response.into_result().unwrap_err().kind, ErrorKind::BadRequest);

    assert_eq!(server.stats().malformed, 2);
    server.shutdown();
}

/// A 200 KB line whose unknown field nests 100,000 arrays. The decoder
/// used to recurse once per bracket and overflow the shard's stack,
/// aborting the whole process; its nesting cap turns the line into a
/// `BadRequest`, and a second connection on the same shard keeps
/// getting answers.
#[test]
fn deeply_nested_line_is_a_bad_request_and_the_shard_keeps_serving() {
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(gen::fbm(8, 8, 2, 5.0, 1)))
        .shards(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = lined_reader(&stream, 10);
    let depth = 100_000;
    let line = format!(
        "{{\"id\":7,\"terrain\":\"t\",\"zzz\":{}{}}}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    stream.write_all(line.as_bytes()).unwrap();
    let response = read_response(&mut reader);
    assert_eq!(response.id, 7, "the salvaged id carries the error");
    let err = response.into_result().unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
    assert!(err.message.contains("nested deeper"), "cap named in: {}", err.message);

    let mut other = Client::connect(server.local_addr()).unwrap();
    for i in 0..3 {
        let t0 = Instant::now();
        other
            .eval("t", &View::orthographic(0.2 * i as f64))
            .expect("the shard still answers after the nested line");
        assert!(t0.elapsed() < Duration::from_secs(10), "ping-pong answered promptly");
    }
    assert_eq!(server.stats().malformed, 1);
    server.shutdown();
}

/// Decoding a string costs time linear in its length: a 1 MiB string
/// line takes about 16× a 64 KiB one. (When every character re-validated
/// the rest of the line as UTF-8, the ratio was about 256.)
#[test]
fn string_decode_time_is_linear_in_line_length() {
    fn best_of_3(len: usize) -> Duration {
        let line = format!("{{\"id\":7,\"terrain\":\"t\",\"zzz\":\"{}\"}}", "x".repeat(len));
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let decoded = serde_json::from_str::<Request>(&line);
                let took = t0.elapsed();
                assert!(decoded.is_err(), "the line has no view");
                took
            })
            .min()
            .unwrap()
    }
    let small = best_of_3(64 << 10);
    let large = best_of_3(1 << 20);
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    assert!(ratio < 64.0, "1 MiB took {large:?}, 64 KiB took {small:?}: ratio {ratio:.1}");
}

#[test]
fn slow_consumer_is_dropped_while_other_clients_stay_served() {
    // ~64 KiB reports (33×33 orthographic sweep) against a 64 KiB
    // outgoing cap: a couple of undrained responses overflow the queue.
    let grid = gen::diamond_square(5, 0.6, 9.0, 77);
    let tin = grid.to_tin().unwrap();
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(grid))
        .shards(1)
        .workers(1)
        .queue_depth(256)
        .outgoing_cap_bytes(64 * 1024)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // The abusive client: pipeline 200 requests (~12.8 MiB of answers,
    // far past anything kernel socket buffers absorb) and never read.
    // Pre-fix, the single worker wedges in `write_all` on this socket
    // and `dropped_slow` stays 0 forever.
    let mut slow = TcpStream::connect(addr).unwrap();
    for id in 1..=200u64 {
        let request = Request::eval(id, "t", View::orthographic(0.0));
        let mut line = serde_json::to_string(&request).unwrap();
        line.push('\n');
        slow.write_all(line.as_bytes()).unwrap();
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    while server.stats().dropped_slow == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert!(
        stats.dropped_slow >= 1,
        "an unread 12.8 MiB backlog must trip the 64 KiB outgoing cap: {stats:?}"
    );

    // The worker is free: a well-behaved client is served, bit-identical.
    let view = View::orthographic(0.45);
    let mut healthy = Client::connect(addr).unwrap();
    let report = healthy
        .eval("t", &view)
        .expect("healthy client served after the drop");
    assert_eq!(fingerprint(&report), fingerprint(&evaluate(&tin, &view).unwrap()));

    // The condemned connection is actually closed: draining what the
    // kernel already buffered ends in EOF or a reset, not more data.
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut sink = [0u8; 64 * 1024];
    loop {
        match slow.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                break;
            }
            Err(e) => panic!("expected EOF or reset on the dropped connection, got {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn duplicate_response_ids_are_reported_as_a_protocol_breach() {
    // A fake server that answers both pipelined requests with the
    // *first* request's id. Pre-fix, the client silently overwrote the
    // first result and blamed the second request ("no response for
    // request 2"); the fix names the actual breach.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut first_id = None;
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let request: Request = serde_json::from_str(line.trim()).unwrap();
            let id = *first_id.get_or_insert(request.id());
            let mut out = serde_json::to_string(&Response::err(
                id,
                hsr_serve::WireError::new(ErrorKind::Eval, "same id twice"),
            ))
            .unwrap();
            out.push('\n');
            writer.write_all(out.as_bytes()).unwrap();
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let views = [View::orthographic(0.0), View::orthographic(0.1)];
    let err = client.eval_pipelined("t", &views).unwrap_err();
    match err {
        hsr_serve::ClientError::Protocol(msg) => {
            assert!(msg.contains("duplicate"), "breach named in: {msg}");
        }
        other => panic!("expected a protocol error, got {other}"),
    }
    fake.join().unwrap();
}
