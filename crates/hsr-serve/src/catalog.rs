//! Hosted terrains and the prepared-scene LRU.
//!
//! The server is configured with a catalog of named [`TerrainSource`]s.
//! A source is cheap to hold (a heightfield grid, a shared TIN, or just
//! the path of a materialized tile store); what evaluation needs is a
//! *prepared* scene — a validated TIN with its adjacency, or an opened
//! [`TiledScene`] with its resident-tile cache. Preparation is the
//! expensive step, so prepared scenes are reused through
//! [`PreparedCache`]: terrain resolution around the same bounded
//! [`Lru`] the tile cache uses, keyed by terrain name. A prepare runs
//! outside the cache lock, so it never blocks hits on other terrains,
//! and a failed prepare evicts nothing.

use hsr_catalog::{Catalog, TerrainFormat};
use hsr_core::error::HsrError;
use hsr_core::view::{evaluate_batch, Report, View};
use hsr_terrain::io::from_obj;
use hsr_terrain::{GridTerrain, Tin};
use hsr_tile::{CacheStats, Lru, TileStore, TiledScene, TiledSceneConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use crate::protocol::{ErrorKind, WireError};

/// How a hosted terrain is obtained when a prepared scene is needed.
pub enum TerrainSource {
    /// A heightfield grid held in memory; prepared by triangulating and
    /// validating it into a TIN (the monolithic backend).
    Grid(GridTerrain),
    /// An already validated TIN, shared as-is (monolithic backend with a
    /// free prepare step).
    Tin(Arc<Tin>),
    /// A materialized tile-store directory; prepared by opening it as an
    /// out-of-core [`TiledScene`] — this is how a terrain too large for
    /// one in-memory scene (e.g. 2049²) is served under the tiled
    /// residency cap.
    TiledStore {
        /// The store directory (as written by `TiledScene::build` /
        /// `TilePyramid::build`).
        dir: PathBuf,
        /// Evaluation config: resident-tile cap, LOD knobs.
        config: TiledSceneConfig,
    },
    /// A terrain resolved through a persistent [`Catalog`] **at prepare
    /// time**: the entry's current content hash decides what gets
    /// prepared, so an overwrite followed by
    /// [`PreparedCache::invalidate`] makes the next lookup serve the new
    /// content. This is how every cataloged terrain is served; the
    /// variant also lets a specific name be pinned as a static source.
    Catalog {
        /// The catalog holding the entry.
        catalog: Arc<Catalog>,
        /// The entry's name.
        name: String,
    },
}

/// A scene ready to evaluate views: the two backends of the service.
#[derive(Clone)]
pub enum PreparedScene {
    /// One in-memory validated TIN (the facade's `Scene`).
    Monolithic(Arc<Tin>),
    /// An out-of-core tiled scene with its capped resident-tile cache.
    Tiled(Arc<TiledScene>),
}

impl std::fmt::Debug for PreparedScene {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreparedScene::Monolithic(tin) => {
                let (v, e, t) = tin.counts();
                write!(f, "Monolithic({v} vertices, {e} edges, {t} faces)")
            }
            PreparedScene::Tiled(scene) => {
                write!(f, "Tiled({} tiles/level)", scene.meta().tile_count())
            }
        }
    }
}

impl PreparedScene {
    /// Evaluates a coalesced group of views — one `evaluate_batch` /
    /// `eval_many` fan-out — returning one result per view in order.
    pub fn eval_group(&self, views: &[View]) -> Vec<Result<Report, WireError>> {
        match self {
            PreparedScene::Monolithic(tin) => evaluate_batch(tin, views)
                .into_iter()
                .map(|r| r.map_err(eval_error))
                .collect(),
            PreparedScene::Tiled(scene) => match scene.eval_many(views) {
                Ok(results) => results
                    .into_iter()
                    .map(|r| {
                        r.map(|tiled| tiled.report)
                            .map_err(|e| WireError::new(ErrorKind::Eval, e.to_string()))
                    })
                    .collect(),
                // Infrastructure failure (a tile failed to load): the
                // whole batch fails with the same story.
                Err(e) => views
                    .iter()
                    .map(|_| Err(WireError::new(ErrorKind::Eval, e.to_string())))
                    .collect(),
            },
        }
    }

    /// The tiled backend's resident-tile cache counters, if any.
    pub fn tile_cache_stats(&self) -> Option<CacheStats> {
        match self {
            PreparedScene::Monolithic(_) => None,
            PreparedScene::Tiled(scene) => Some(scene.cache_stats()),
        }
    }
}

fn eval_error(e: HsrError) -> WireError {
    WireError::new(ErrorKind::Eval, e.to_string())
}

/// Hosted terrains resolved on demand into prepared scenes, kept in a
/// hard-capped [`Lru`] keyed by terrain name.
///
/// Nothing is pinned: an in-flight evaluation holds its own `Arc` to the
/// scene it is using, so eviction never interrupts work, and the cap
/// bounds how many prepared scenes the cache *retains* for reuse. With
/// capacity 1 and two hot terrains the service still answers correctly;
/// it just re-prepares on each alternation (the concurrency tests pin
/// this behavior down).
pub struct PreparedCache {
    sources: HashMap<String, TerrainSource>,
    /// Catalog fallback: names not in `sources` resolve here, so newly
    /// uploaded terrains become servable without reconfiguration.
    catalog: Option<Arc<Catalog>>,
    scenes: Lru<String, PreparedScene>,
    /// Attached to every tiled scene this cache prepares, so their
    /// resident-tile caches report into the same snapshot.
    recorder: Option<Arc<hsr_obs::Recorder>>,
}

impl PreparedCache {
    /// A cache over `sources` retaining at most `capacity` prepared
    /// scenes (≥ 1).
    pub fn new(capacity: usize, sources: HashMap<String, TerrainSource>) -> PreparedCache {
        PreparedCache {
            sources,
            catalog: None,
            scenes: Lru::new(capacity, |_| true),
            recorder: None,
        }
    }

    /// Attaches a catalog: names not among the static sources resolve
    /// through it at prepare time (static sources win name clashes).
    pub fn with_catalog(mut self, catalog: Arc<Catalog>) -> PreparedCache {
        self.catalog = Some(catalog);
        self
    }

    /// Mirrors this cache's activity into `recorder` as `scene_*` event
    /// counters (hit/load/error/evict/invalidate), and attaches the
    /// recorder to every tiled scene it prepares so their resident-tile
    /// caches report `tile_*` events into the same snapshot.
    pub fn with_recorder(mut self, recorder: Arc<hsr_obs::Recorder>) -> PreparedCache {
        self.scenes.attach_recorder(&recorder, "scene");
        self.recorder = Some(recorder);
        self
    }

    /// The catalog this cache falls back to, if any.
    pub fn catalog(&self) -> Option<&Arc<Catalog>> {
        self.catalog.as_ref()
    }

    /// Every servable terrain name, sorted: the static sources plus the
    /// catalog's current entries.
    pub fn terrain_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sources.keys().cloned().collect();
        if let Some(catalog) = &self.catalog {
            names.extend(catalog.list().into_iter().map(|info| info.name));
        }
        names.sort();
        names.dedup();
        names
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.scenes.stats()
    }

    /// The resident-tile cache counters of `name`, if that terrain is
    /// currently resident on the tiled backend. A pure peek: touches
    /// neither the LRU recency nor the lookup counters.
    pub fn tile_cache_stats(&self, name: &str) -> Option<CacheStats> {
        self.scenes
            .peek(name)
            .and_then(|scene| scene.tile_cache_stats())
    }

    /// Returns the prepared scene for `name`, preparing it from its
    /// source on a miss (see [`Lru::get_or_load`]: a failed prepare
    /// evicts nothing, and racing lookups of one terrain prepare it
    /// once).
    pub fn get_or_prepare(&self, name: &str) -> Result<PreparedScene, WireError> {
        self.get_or_prepare_traced(name).0
    }

    /// [`PreparedCache::get_or_prepare`] plus whether this lookup was
    /// served without preparing (`true`; `false` also on error). The
    /// serving layer uses this to land the lookup latency in the right
    /// stage histogram.
    pub fn get_or_prepare_traced(&self, name: &str) -> (Result<PreparedScene, WireError>, bool) {
        let mut prepared = false;
        let result = self.scenes.get_or_load(name, || {
            prepared = true;
            self.prepare_named(name)
        });
        // Every prepared scene is evictable, so the cache never refuses.
        let result = result.unwrap_or_else(|| {
            Err(WireError::new(ErrorKind::Prepare, "prepared-scene cache refused the lookup"))
        });
        (result, !prepared)
    }

    /// Drops exactly `name`'s prepared scene (if resident), so the next
    /// lookup re-prepares from the terrain's current source — the hook
    /// the server calls when a cataloged terrain is overwritten or
    /// deleted. Other residents are untouched. For a tiled terrain the
    /// dropped [`TiledScene`] takes its resident-tile cache with it
    /// (in-flight evaluations holding the `Arc` finish against the old
    /// content, then the memory goes). Returns whether anything was
    /// resident.
    pub fn invalidate(&self, name: &str) -> bool {
        self.scenes.invalidate(name)
    }

    /// Resolves `name` and prepares it. A static source wins; any other
    /// name resolves through the catalog, whose current entry decides
    /// which content is prepared.
    fn prepare_named(&self, name: &str) -> Result<PreparedScene, WireError> {
        let scene = match (self.sources.get(name), &self.catalog) {
            (Some(source), _) => prepare(source),
            (None, Some(catalog)) => prepare_from_catalog(catalog, name),
            (None, None) => Err(unknown_terrain(name)),
        }?;
        if let (PreparedScene::Tiled(tiled), Some(recorder)) = (&scene, &self.recorder) {
            tiled.attach_recorder(recorder);
        }
        Ok(scene)
    }
}

fn unknown_terrain(name: &str) -> WireError {
    WireError::new(ErrorKind::UnknownTerrain, format!("no terrain named `{name}` is registered"))
}

fn prepare(source: &TerrainSource) -> Result<PreparedScene, WireError> {
    match source {
        TerrainSource::Grid(grid) => grid
            .to_tin()
            .map(|tin| PreparedScene::Monolithic(Arc::new(tin)))
            .map_err(|e| WireError::new(ErrorKind::Prepare, e.to_string())),
        TerrainSource::Tin(tin) => Ok(PreparedScene::Monolithic(Arc::clone(tin))),
        TerrainSource::TiledStore { dir, config } => open_tiled(dir, *config),
        TerrainSource::Catalog { catalog, name } => prepare_from_catalog(catalog, name),
    }
}

fn open_tiled(dir: &std::path::Path, config: TiledSceneConfig) -> Result<PreparedScene, WireError> {
    TileStore::open(dir)
        .map_err(|e| WireError::new(ErrorKind::Prepare, e.to_string()))
        .and_then(|store| {
            TiledScene::open(store, config)
                .map_err(|e| WireError::new(ErrorKind::Prepare, e.to_string()))
        })
        .map(|scene| PreparedScene::Tiled(Arc::new(scene)))
}

/// Materializes the catalog entry `name`, as it is now, into a prepared
/// scene: decode the blob per its registered format (lazily building the
/// tile pyramid for `TiledGrid` entries — one pyramid per content hash,
/// shared by deduped uploads).
fn prepare_from_catalog(catalog: &Catalog, name: &str) -> Result<PreparedScene, WireError> {
    let info = catalog.get(name).ok_or_else(|| unknown_terrain(name))?;
    let prep = |what: String| WireError::new(ErrorKind::Prepare, what);
    match info.format {
        TerrainFormat::GridBin => {
            let bytes = catalog
                .read_blob(&info.content)
                .map_err(|e| prep(e.to_string()))?;
            hsr_terrain::io::grid_from_bytes(&bytes)
                .map_err(|e| prep(e.to_string()))?
                .to_tin()
                .map(|tin| PreparedScene::Monolithic(Arc::new(tin)))
                .map_err(|e| prep(e.to_string()))
        }
        TerrainFormat::TinObj => {
            let bytes = catalog
                .read_blob(&info.content)
                .map_err(|e| prep(e.to_string()))?;
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| prep("cataloged OBJ blob is not UTF-8".to_string()))?;
            from_obj(text)
                .map(|tin| PreparedScene::Monolithic(Arc::new(tin)))
                .map_err(|e| prep(e.to_string()))
        }
        TerrainFormat::TiledGrid { .. } => {
            let dir = catalog
                .ensure_pyramid(&info)
                .map_err(|e| prep(e.to_string()))?;
            open_tiled(&dir, TiledSceneConfig::default())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsr_terrain::gen;

    fn sources() -> HashMap<String, TerrainSource> {
        let mut m = HashMap::new();
        m.insert("a".into(), TerrainSource::Grid(gen::fbm(6, 6, 2, 4.0, 1)));
        m.insert("b".into(), TerrainSource::Grid(gen::fbm(6, 6, 2, 4.0, 2)));
        m.insert(
            "broken".into(),
            TerrainSource::TiledStore {
                dir: std::env::temp_dir().join("hsr-serve-no-such-store"),
                config: TiledSceneConfig::default(),
            },
        );
        m
    }

    #[test]
    fn capacity_one_alternation_reprepares_and_counts() {
        let cache = PreparedCache::new(1, sources());
        for _ in 0..3 {
            cache.get_or_prepare("a").unwrap();
            cache.get_or_prepare("b").unwrap();
        }
        cache.get_or_prepare("b").unwrap(); // hit
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.loads, s.evictions), (7, 1, 6, 5));
        assert_eq!((s.resident, s.peak_resident), (1, 1));
        assert_eq!(s.hits + s.loads + s.errors, s.lookups);
    }

    #[test]
    fn failed_prepare_commits_nothing() {
        let cache = PreparedCache::new(1, sources());
        cache.get_or_prepare("a").unwrap();
        let before = cache.stats();
        let err = cache.get_or_prepare("broken").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Prepare);
        let after = cache.stats();
        assert_eq!(
            (after.resident, after.evictions, after.loads),
            (before.resident, before.evictions, before.loads)
        );
        assert_eq!(after.errors, before.errors + 1);
        // `a` is still resident.
        cache.get_or_prepare("a").unwrap();
        assert_eq!(cache.stats().hits, before.hits + 1);
    }

    #[test]
    fn racing_lookups_of_one_terrain_prepare_it_exactly_once() {
        let cache = std::sync::Arc::new(PreparedCache::new(2, sources()));
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || cache.get_or_prepare("a").unwrap())
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        // The in-flight mark dedupes: one prepare, the rest hit either on
        // first lookup or after waiting for that prepare.
        assert_eq!(s.loads, 1, "{s:?}");
        assert_eq!(s.hits + s.loads + s.errors, s.lookups);
        assert_eq!((s.resident, s.peak_resident), (1, 1));
    }

    #[test]
    fn concurrent_prepares_of_independent_terrains_both_commit() {
        let cache = std::sync::Arc::new(PreparedCache::new(2, sources()));
        let threads: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || cache.get_or_prepare(name).unwrap())
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.loads, s.resident), (2, 2), "{s:?}");
        assert!(s.peak_resident <= 2, "commit must stay under the cap: {s:?}");
        assert_eq!(s.hits + s.loads + s.errors, s.lookups);
    }

    /// ISSUE-9 satellite regression: snapshots used to read each atomic
    /// independently, so a scrape racing live traffic could observe an
    /// outcome before its lookup and report
    /// `hits + loads + errors > lookups` over the wire. Every counter
    /// now changes under the cache's one lock and `stats()` copies them
    /// under it, so the ≤ invariant holds in every snapshot; this
    /// hammers it.
    #[test]
    fn stats_invariant_holds_in_every_snapshot_under_hammering() {
        let cache = std::sync::Arc::new(PreparedCache::new(1, sources()));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    // Capacity 1 with two names forces constant
                    // re-prepares; the unknown name exercises the error
                    // counter on every fourth call.
                    for i in 0..400u64 {
                        let name = match (i + w) % 4 {
                            0 | 2 => "a",
                            1 => "b",
                            _ => "nope",
                        };
                        let _ = cache.get_or_prepare(name);
                    }
                })
            })
            .collect();
        let reader = {
            let (cache, stop) = (std::sync::Arc::clone(&cache), std::sync::Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut samples = 0u64;
                let mut prev = CacheStats::default();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let s = cache.stats();
                    assert!(s.hits + s.loads + s.errors <= s.lookups, "torn snapshot: {s:?}");
                    // Monotonic counter semantics across snapshots.
                    assert!(s.lookups >= prev.lookups && s.hits >= prev.hits);
                    assert!(s.loads >= prev.loads && s.errors >= prev.errors);
                    prev = s;
                    samples += 1;
                }
                samples
            })
        };
        for t in writers {
            t.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        assert!(reader.join().unwrap() > 0);
        let s = cache.stats();
        assert_eq!(s.hits + s.loads + s.errors, s.lookups, "equality at quiescence: {s:?}");
    }

    #[test]
    fn recorder_mirrors_scene_events() {
        let recorder = Arc::new(hsr_obs::Recorder::default());
        let cache = PreparedCache::new(1, sources()).with_recorder(Arc::clone(&recorder));
        cache.get_or_prepare("a").unwrap();
        cache.get_or_prepare("a").unwrap(); // hit
        cache.get_or_prepare("b").unwrap(); // evicts a
        assert!(cache.get_or_prepare("nope").is_err());
        assert!(cache.invalidate("b"));
        let s = cache.stats();
        let snap = recorder.snapshot();
        assert_eq!(snap.event("scene_hit"), s.hits);
        assert_eq!(snap.event("scene_load"), s.loads);
        assert_eq!(snap.event("scene_error"), s.errors);
        assert_eq!(snap.event("scene_evict"), s.evictions);
        assert_eq!(snap.event("scene_invalidate"), s.invalidations);
        assert_eq!(snap.event("scene_evict"), 1);
    }

    #[test]
    fn unknown_terrains_error_without_side_effects() {
        let cache = PreparedCache::new(2, sources());
        let err = cache.get_or_prepare("nope").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownTerrain);
        let s = cache.stats();
        assert_eq!((s.lookups, s.errors, s.resident), (1, 1, 0));
    }

    #[test]
    fn catalog_fallback_prepares_and_invalidation_evicts_exactly_one() {
        use hsr_terrain::io::grid_to_bytes;
        let dir =
            std::env::temp_dir().join(format!("hsr-serve-cat-fallback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Arc::new(Catalog::open(&dir).unwrap());
        catalog
            .upload(
                "cat",
                TerrainFormat::GridBin,
                "test",
                &grid_to_bytes(&gen::fbm(6, 6, 2, 4.0, 3)),
            )
            .unwrap();
        let cache = PreparedCache::new(2, sources()).with_catalog(Arc::clone(&catalog));
        // Static sources and catalog entries are both servable.
        cache.get_or_prepare("a").unwrap();
        cache.get_or_prepare("cat").unwrap();
        cache.get_or_prepare("cat").unwrap(); // hit
        assert!(cache.terrain_names().contains(&"cat".to_string()));
        let before = cache.stats();
        assert_eq!((before.loads, before.hits, before.resident), (2, 1, 2));
        // Invalidation drops exactly the named entry; `a` stays hot.
        assert!(cache.invalidate("cat"));
        assert!(!cache.invalidate("cat"), "second invalidate finds nothing");
        let mid = cache.stats();
        assert_eq!((mid.invalidations, mid.resident, mid.evictions), (1, 1, 0));
        cache.get_or_prepare("a").unwrap(); // still a hit
        assert_eq!(cache.stats().hits, before.hits + 1);
        // The next lookup of the invalidated name re-prepares.
        cache.get_or_prepare("cat").unwrap();
        assert_eq!(cache.stats().loads, before.loads + 1);
        // A deleted catalog entry stops resolving.
        catalog.delete("cat").unwrap();
        cache.invalidate("cat");
        let err = cache.get_or_prepare("cat").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownTerrain);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
