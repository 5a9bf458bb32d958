//! ISSUE 7 acceptance: the persistent terrain catalog, end to end over
//! the wire.
//!
//! * Upload → register → query round trip, on both the grid and the
//!   tiled format.
//! * Identical re-upload stores **zero new blob bytes** (proved by the
//!   wire [`Request::Stats`] snapshot, not test-side state).
//! * A server restarted on the same catalog directory — including after
//!   a simulated torn manifest tail — serves every registered terrain
//!   bit-identically.
//! * Overwrite and delete invalidate exactly the affected
//!   prepared-scene entries: the stale-answer regression here fails
//!   against a server without `PreparedCache::invalidate`.

use hsr_catalog::TerrainFormat;
use hsr_core::view::{Report, View};
use hsr_serve::{Client, ClientError, ErrorKind, Server, ServerBuilder};
use hsr_terrain::{gen, io};
use std::path::PathBuf;

/// One visible piece, as raw bits: (edge, x0, x1, z0, z1).
type PieceBits = (u32, u64, u64, u64, u64);

/// Every evaluation-determined bit of a report.
fn bits(r: &Report) -> (Vec<PieceBits>, usize, usize) {
    (
        r.vis
            .pieces
            .iter()
            .map(|p| (p.edge, p.x0.to_bits(), p.x1.to_bits(), p.z0.to_bits(), p.z1.to_bits()))
            .collect(),
        r.n,
        r.k,
    )
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsr-serve-catsvc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve_catalog(dir: &PathBuf) -> Server {
    ServerBuilder::new()
        .catalog_dir(dir)
        .expect("catalog dir")
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
}

#[test]
fn upload_register_query_roundtrip_on_both_formats() {
    let dir = scratch_dir("roundtrip");
    let server = serve_catalog(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let grid = gen::diamond_square(5, 0.6, 9.0, 77); // 33×33
    let payload = io::grid_to_bytes(&grid);
    let view = View::orthographic(0.3);
    let expected = {
        let tin = grid.to_tin().unwrap();
        hsr_core::view::evaluate(&tin, &view).unwrap()
    };

    // Grid upload, chunked small enough to need several chunks.
    let ack = client
        .upload_terrain("hills", TerrainFormat::GridBin, "tests", &payload)
        .expect("grid upload");
    assert_eq!(ack.bytes, payload.len() as u64);
    assert!(!ack.deduped, "first upload of this content");
    let got = client.eval("hills", &view).expect("eval uploaded grid");
    assert_eq!(bits(&got), bits(&expected), "uploaded grid diverged from local eval");

    // The same bytes as a tiled pyramid: the server materializes the
    // pyramid on first query and serves out of core.
    let ack2 = client
        .upload_terrain(
            "hills-tiled",
            TerrainFormat::TiledGrid { tile_size: 8, levels: 1 },
            "tests",
            &payload,
        )
        .expect("tiled upload");
    assert!(ack2.deduped, "same payload bytes dedup across formats");
    assert_eq!(ack2.content, ack.content);
    // Stitched tiled reports use per-tile edge ids, so they are not
    // piece-identical to the monolithic eval — but the aggregate counts
    // agree at full resolution, and repeated queries are deterministic.
    let got = client.eval("hills-tiled", &view).expect("eval tiled");
    assert!(got.n > 0 && got.k > 0, "tiled twin evaluates: n={}, k={}", got.n, got.k);
    let again = client.eval("hills-tiled", &view).expect("eval tiled again");
    assert_eq!(bits(&again), bits(&got), "tiled backend must answer deterministically");

    // Register: an alias by content hash, no payload moved.
    let info = client
        .register_terrain("alias", &ack.content, TerrainFormat::GridBin, "ops")
        .expect("register");
    assert_eq!((info.name.as_str(), info.uploader.as_str()), ("alias", "ops"));
    let got = client.eval("alias", &view).expect("eval alias");
    assert_eq!(bits(&got), bits(&expected));

    // Info and list agree.
    let listed = client.list_terrains().expect("list");
    let names: Vec<&str> = listed.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(names, vec!["alias", "hills", "hills-tiled"], "sorted by name");
    assert_eq!(client.terrain_info("alias").expect("info").content, ack.content);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_reupload_writes_zero_new_blob_bytes_per_wire_stats() {
    let dir = scratch_dir("dedup");
    let server = serve_catalog(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let payload = io::grid_to_bytes(&gen::fbm(24, 24, 3, 7.0, 5));
    client
        .upload_terrain("a", TerrainFormat::GridBin, "tests", &payload)
        .expect("upload");
    let before = client
        .stats()
        .expect("stats")
        .catalog
        .expect("catalog configured");
    assert_eq!(before.blobs_written, 1);
    assert_eq!(before.blob_bytes_written, payload.len() as u64);

    // Same bytes again, twice, under two names.
    let ack = client
        .upload_terrain("a", TerrainFormat::GridBin, "tests", &payload)
        .expect("overwrite upload");
    assert!(ack.deduped);
    client
        .upload_terrain("b", TerrainFormat::GridBin, "tests", &payload)
        .expect("re-upload");

    let after = client
        .stats()
        .expect("stats")
        .catalog
        .expect("catalog configured");
    assert_eq!(after.blobs_written, 1, "no second blob: {after:?}");
    assert_eq!(after.blob_bytes_written, before.blob_bytes_written, "zero new blob bytes");
    assert_eq!(after.dedup_hits, 2);
    assert_eq!(after.entries, 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_serves_every_registered_terrain_bit_identically() {
    let dir = scratch_dir("restart");
    let view = View::orthographic(0.4);

    let grid = gen::diamond_square(5, 0.55, 8.0, 31);
    let payload = io::grid_to_bytes(&grid);

    let (first_grid, first_tiled) = {
        let server = serve_catalog(&dir);
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .upload_terrain("g", TerrainFormat::GridBin, "tests", &payload)
            .expect("upload");
        client
            .upload_terrain(
                "t",
                TerrainFormat::TiledGrid { tile_size: 8, levels: 1 },
                "tests",
                &payload,
            )
            .expect("tiled upload");
        let g = client.eval("g", &view).expect("eval g");
        let t = client.eval("t", &view).expect("eval t");
        server.shutdown();
        (g, t)
    };

    // A new process on the same directory: the manifest replays.
    {
        let server = serve_catalog(&dir);
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.list_terrains().expect("list").len(), 2);
        let g = client.eval("g", &view).expect("eval g after restart");
        let t = client.eval("t", &view).expect("eval t after restart");
        assert_eq!(bits(&g), bits(&first_grid), "grid diverged across restart");
        assert_eq!(bits(&t), bits(&first_tiled), "tiled diverged across restart");
        server.shutdown();
    }

    // Torn manifest tail: garbage appended to the log (a crash mid-
    // append) is truncated on open, every committed record survives.
    {
        use std::io::Write as _;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("manifest.log"))
            .expect("manifest exists");
        log.write_all(&[0x7f, 0x00, 0xee]).unwrap();
    }
    let server = serve_catalog(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().expect("stats").catalog.expect("catalog");
    assert_eq!(stats.truncated_tail_bytes, 3, "torn tail measured: {stats:?}");
    let g = client.eval("g", &view).expect("eval g after torn tail");
    assert_eq!(bits(&g), bits(&first_grid), "grid diverged after torn-tail recovery");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overwrite_and_delete_invalidate_exactly_the_affected_entries() {
    let dir = scratch_dir("invalidate");
    let server = serve_catalog(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let view = View::orthographic(0.2);

    let flat = io::grid_to_bytes(&gen::fbm(20, 20, 2, 0.01, 1)); // nearly flat
    let rough = io::grid_to_bytes(&gen::diamond_square(5, 0.7, 15.0, 9)); // 33×33
    client
        .upload_terrain("x", TerrainFormat::GridBin, "tests", &flat)
        .expect("upload x");
    client
        .upload_terrain("y", TerrainFormat::GridBin, "tests", &flat)
        .expect("upload y");

    // Both prepared and cached.
    let x_before = client.eval("x", &view).expect("eval x");
    client.eval("y", &view).expect("eval y");
    let prepared = server.prepared_stats();
    assert_eq!((prepared.loads, prepared.resident), (2, 2), "{prepared:?}");

    // Overwrite `x` with different content. The stale-answer
    // regression: without exact invalidation the prepared cache keeps
    // serving the old flat terrain under the new registration.
    client
        .upload_terrain("x", TerrainFormat::GridBin, "tests", &rough)
        .expect("overwrite x");
    let x_after = client.eval("x", &view).expect("eval x after overwrite");
    assert_ne!(
        bits(&x_after).0,
        bits(&x_before).0,
        "overwritten terrain must serve the new content, not the cached scene"
    );

    // Exactly one entry was invalidated: `y` stayed resident and its
    // next query is a cache hit, not a re-prepare.
    let hits_before = server.prepared_stats().hits;
    client.eval("y", &view).expect("eval y again");
    let prepared = server.prepared_stats();
    assert_eq!(prepared.invalidations, 1, "{prepared:?}");
    assert_eq!(prepared.hits, hits_before + 1, "y must still be cached: {prepared:?}");
    assert_eq!(prepared.loads, 3, "only x re-prepared: {prepared:?}");

    // Delete: the name stops resolving and its entry leaves the cache.
    let removed = client.delete_terrain("x").expect("delete x");
    assert_eq!(removed.name, "x");
    match client.eval("x", &view) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::UnknownTerrain),
        other => panic!("deleted terrain must be unknown, got {other:?}"),
    }
    let prepared = server.prepared_stats();
    assert_eq!(prepared.invalidations, 2, "{prepared:?}");
    assert_eq!(prepared.resident, 1, "only y remains: {prepared:?}");

    // Deleting a missing name is UnknownTerrain on the wire.
    match client.delete_terrain("never") {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::UnknownTerrain),
        other => panic!("expected UnknownTerrain, got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn upload_discipline_violations_are_rejected_and_the_connection_survives() {
    let dir = scratch_dir("discipline");
    let server = serve_catalog(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A chunk with no upload in progress.
    match client.send(&hsr_serve::Request::UploadChunk(hsr_serve::protocol::UploadChunk {
        id: 900,
        data: "AAAA".into(),
        last: false,
    })) {
        Ok(()) => {}
        Err(e) => panic!("send failed: {e}"),
    }
    let resp = client.recv().expect("answered");
    assert_eq!(resp.id, 900);
    assert_eq!(resp.error.expect("rejected").kind, ErrorKind::BadRequest);

    // A final chunk short of the declared size aborts the upload…
    let payload = io::grid_to_bytes(&gen::fbm(16, 16, 2, 5.0, 3));
    client
        .send(&hsr_serve::Request::UploadTerrain(hsr_serve::protocol::UploadBegin {
            id: 901,
            name: "short".into(),
            format: TerrainFormat::GridBin,
            uploader: "tests".into(),
            bytes: payload.len() as u64,
        }))
        .unwrap();
    assert!(client.recv().expect("begin ack").error.is_none());
    client
        .send(&hsr_serve::Request::UploadChunk(hsr_serve::protocol::UploadChunk {
            id: 902,
            data: String::new(),
            last: true,
        }))
        .unwrap();
    let resp = client.recv().expect("answered");
    assert_eq!(resp.error.expect("short upload rejected").kind, ErrorKind::BadRequest);

    // …and the connection is reusable: a full upload succeeds after it.
    let ack = client
        .upload_terrain("ok", TerrainFormat::GridBin, "tests", &payload)
        .expect("upload after abort");
    assert_eq!(ack.name, "ok");
    assert_eq!(client.list_terrains().expect("list").len(), 1, "aborted upload left nothing");

    // Garbage payloads never register.
    match client.upload_terrain("junk", TerrainFormat::GridBin, "tests", b"not a grid") {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::Catalog),
        other => panic!("expected Catalog error, got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admin_without_catalog_errors_but_stats_always_works() {
    let server = ServerBuilder::new()
        .terrain("t", hsr_serve::TerrainSource::Grid(gen::fbm(8, 8, 2, 5.0, 1)))
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let snapshot = client.stats().expect("stats without catalog");
    assert!(snapshot.catalog.is_none());
    assert_eq!(snapshot.serve.completed, 0);

    match client.list_terrains() {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ErrorKind::Catalog);
            assert!(e.message.contains("no catalog"), "{}", e.message);
        }
        other => panic!("expected Catalog error, got {other:?}"),
    }
    // Eval still works on the same connection afterwards.
    client
        .eval("t", &View::orthographic(0.0))
        .expect("eval after admin error");

    server.shutdown();
}
