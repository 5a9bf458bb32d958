//! The terrain catalog end to end: attach a persistent catalog to the
//! server, upload a terrain over the wire (chunked), alias its content
//! under a second name without moving a byte, query it, then restart
//! the server on the same catalog directory and show the terrain is
//! still there — served bit-identically.
//!
//! ```sh
//! cargo run --release --example catalog_admin
//! ```

use terrain_hsr::serve::{Client, ServerBuilder, TerrainFormat};
use terrain_hsr::terrain::{gen, io};
use terrain_hsr::View;

fn main() {
    let dir = std::env::temp_dir().join(format!("thsr-catalog-admin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A 65×65 heightfield, serialized with the compact binary codec —
    // the payload a field tool would push to the service.
    let grid = gen::diamond_square(6, 0.6, 14.0, 99);
    let payload = io::grid_to_bytes(&grid);
    let view = View::orthographic(0.25);

    let server = ServerBuilder::new()
        .catalog_dir(&dir)
        .expect("catalog dir")
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();
    println!("serving with catalog at {} on {addr}", dir.display());

    let mut client = Client::connect(addr).expect("connect");
    let ack = client
        .upload_terrain("hills", TerrainFormat::GridBin, "field-tool", &payload)
        .expect("upload");
    println!(
        "uploaded `{}`: {} bytes → {} (deduped: {})",
        ack.name,
        ack.bytes,
        &ack.content[..12],
        ack.deduped
    );

    // Re-uploading identical bytes writes no second blob — only a new
    // metadata record. The content hash proves it is the same payload.
    let again = client
        .upload_terrain("hills-copy", TerrainFormat::GridBin, "field-tool", &payload)
        .expect("re-upload");
    assert!(again.deduped, "identical content must dedup");
    assert_eq!(again.content, ack.content);

    // An alias by content hash: registration without any payload.
    let alias = client
        .register_terrain("hills-alias", &ack.content, TerrainFormat::GridBin, "ops")
        .expect("register alias");
    println!("aliased {} → `{}`", &alias.content[..12], alias.name);

    for info in client.list_terrains().expect("list") {
        println!(
            "  {:12} {:9} bytes  {}  by {}",
            info.name, info.bytes, info.format, info.uploader
        );
    }

    let first = client.eval("hills", &view).expect("eval uploaded terrain");
    println!("query over `hills`: n = {}, k = {}", first.n, first.k);

    // Restart: a new server process on the same catalog directory
    // replays the manifest and serves the same bytes.
    server.shutdown();
    let server = ServerBuilder::new()
        .catalog_dir(&dir)
        .expect("catalog reopen")
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let replayed = client
        .eval("hills-alias", &view)
        .expect("eval after restart");
    assert_eq!(replayed.vis.pieces.len(), first.vis.pieces.len());
    assert_eq!((replayed.n, replayed.k), (first.n, first.k));
    println!("after restart: `hills-alias` answers identically (k = {})", replayed.k);

    let stats = client.stats().expect("stats");
    println!("catalog stats after replay: {:?}", stats.catalog.expect("catalog configured"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
