//! ISSUE 7 facade acceptance: `ServerBuilder::catalog_dir` wires the
//! persistent terrain catalog through the high-level API — upload over
//! the wire, restart on the same directory, query bit-identically.

#![cfg(feature = "serve")]

use terrain_hsr::serve::{Client, ClientError, ErrorKind, ServerBuilder, TerrainFormat};
use terrain_hsr::terrain::{gen, io};
use terrain_hsr::View;

#[test]
fn facade_catalog_survives_restart_and_reports_stats() {
    let dir = std::env::temp_dir().join(format!("thsr-catalog-facade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let payload = io::grid_to_bytes(&gen::diamond_square(5, 0.6, 9.0, 123));
    let view = View::orthographic(0.35);

    let first = {
        let server = ServerBuilder::new()
            .catalog_dir(&dir)
            .expect("catalog dir")
            .workers(2)
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let ack = client
            .upload_terrain("peaks", TerrainFormat::GridBin, "facade-test", &payload)
            .expect("upload");
        assert_eq!(ack.bytes, payload.len() as u64);
        let report = client.eval("peaks", &view).expect("eval");
        server.shutdown();
        report
    };

    let server = ServerBuilder::new()
        .catalog_dir(&dir)
        .expect("catalog reopen")
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");

    let info = client.terrain_info("peaks").expect("replayed entry");
    assert_eq!(info.uploader, "facade-test");
    let report = client.eval("peaks", &view).expect("eval after restart");
    let pieces = |r: &terrain_hsr::core::view::Report| {
        r.vis
            .pieces
            .iter()
            .map(|p| (p.edge, p.x0.to_bits(), p.x1.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(pieces(&report), pieces(&first), "catalog terrain diverged across restart");
    assert_eq!((report.n, report.k), (first.n, first.k));

    // The wire stats snapshot covers all three counter families.
    let stats = client.stats().expect("stats");
    assert!(stats.serve.completed >= 1);
    assert_eq!(stats.prepared.loads, 1);
    assert_eq!(stats.catalog.expect("catalog configured").entries, 1);

    // Unknown names stay typed errors through the facade re-exports.
    match client.eval("nope", &view) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::UnknownTerrain),
        other => panic!("expected UnknownTerrain, got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
