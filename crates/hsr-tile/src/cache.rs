//! The one bounded cache: a hard-capped LRU for resident tiles and, in
//! the serving layer, prepared scenes.
//!
//! [`Lru`] keeps at most `capacity` values resident, **not even
//! transiently more**: `peak_resident` proves it. Everything it knows
//! sits behind one `Mutex` — the map, the keys being loaded, the
//! recency tick and the [`CacheStats`] — so [`Lru::stats`] is one locked
//! copy. A miss marks its key in flight and runs the loader *outside*
//! the lock, so a slow load never blocks hits on other keys, and a
//! lookup that finds its key in flight waits for that load instead of
//! starting a second one. The loaded value is committed under the lock:
//! evict the least recently used evictable entry, then insert. A failed
//! load therefore evicts nothing. Invalidating a key while it loads
//! marks the load stale: its value still answers the lookup that loaded
//! it, but is not made resident, so the next lookup loads afresh.
//!
//! Which entries may be evicted is a rule the owning code fixes at
//! construction. The resident-tile cache ([`SceneCache`]) pins every
//! tile whose `Arc` an evaluation has checked out, and refuses a lookup
//! when every resident tile is pinned; callers therefore must not check
//! out more than `capacity` tiles at once (the tiled evaluator chunks
//! its work accordingly).

use crate::pyramid::TileId;
use hsr_obs::{lock_unpoisoned, Recorder};
use hsr_terrain::Tin;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// The resident-tile cache of a [`TiledScene`](crate::TiledScene).
pub type SceneCache = Lru<TileId, Arc<Tin>>;

/// The tile cache's eviction rule: a tile whose `Arc` an evaluation has
/// checked out is pinned.
pub(crate) fn unpinned(tin: &Arc<Tin>) -> bool {
    Arc::strong_count(tin) == 1
}

/// Cache counters.
///
/// Every [`Lru::get_or_load`] call is one lookup, and it ends as exactly
/// one hit, load or error, so `hits + loads + errors == lookups` once no
/// lookup is in flight, and `≤` in every snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheStats {
    /// Calls to [`Lru::get_or_load`].
    pub lookups: u64,
    /// Successful misses: values loaded and made resident, or — when an
    /// [`Lru::invalidate`] overtook the load — handed to the loading
    /// lookup only.
    pub loads: u64,
    /// Lookups served from a resident value.
    pub hits: u64,
    /// Lookups that produced neither a hit nor a resident value: the
    /// loader failed or panicked, or every resident entry was pinned. A
    /// failed load evicts nothing.
    pub errors: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Entries dropped by [`Lru::invalidate`], counted apart from
    /// `evictions`.
    pub invalidations: u64,
    /// Entries resident right now.
    pub resident: usize,
    /// The high-water mark of `resident`: the counter that proves the
    /// capacity bound held.
    pub peak_resident: usize,
}

/// The counter changes an attached recorder mirrors, indexing
/// [`EVENT_NAMES`].
#[derive(Clone, Copy)]
enum Event {
    Hit,
    Load,
    Error,
    Evict,
    Invalidate,
}

/// Recorder event names, after the prefix given to
/// [`Lru::attach_recorder`].
const EVENT_NAMES: [&str; 5] = ["hit", "load", "error", "evict", "invalidate"];

struct Entry<V> {
    value: V,
    last_use: u64,
}

struct State<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Keys whose loader is running outside the lock, each with whether
    /// an invalidation has made that load stale.
    loading: HashMap<K, bool>,
    tick: u64,
    stats: CacheStats,
}

/// A hard-capped LRU cache whose loads run outside its lock.
pub struct Lru<K, V> {
    capacity: usize,
    /// Which resident entries may be evicted.
    evictable: fn(&V) -> bool,
    state: Mutex<State<K, V>>,
    /// Signalled whenever a load ends, so lookups waiting on its key
    /// look again.
    loaded: Condvar,
    /// Recorder counters, resolved once at attach time so each counter
    /// change costs one atomic add. Empty means no recorder attached.
    events: OnceLock<[Arc<AtomicU64>; 5]>,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// A cache holding at most `capacity` entries (≥ 1) that evicts only
    /// entries for which `evictable` returns true.
    pub fn new(capacity: usize, evictable: fn(&V) -> bool) -> Lru<K, V> {
        assert!(capacity >= 1, "cache capacity must be ≥ 1");
        Lru {
            capacity,
            evictable,
            state: Mutex::new(State {
                map: HashMap::new(),
                loading: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            loaded: Condvar::new(),
            events: OnceLock::new(),
        }
    }

    /// Mirrors every later counter change into `recorder` as the events
    /// `{prefix}_{hit,load,error,evict,invalidate}` (first attachment
    /// wins).
    pub fn attach_recorder(&self, recorder: &Recorder, prefix: &str) {
        let _ = self
            .events
            .set(EVENT_NAMES.map(|name| recorder.counter(&format!("{prefix}_{name}"))));
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        lock_unpoisoned(&self.state).stats
    }

    /// The resident value of `key`, touching neither its recency nor
    /// the counters.
    pub fn peek<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        lock_unpoisoned(&self.state)
            .map
            .get(key)
            .map(|entry| entry.value.clone())
    }

    /// Drops exactly `key`'s entry, if resident, and counts it in
    /// `invalidations`. Returns whether anything was resident.
    ///
    /// A load of `key` already in flight read the source before this
    /// call, so it is marked stale: its value answers the lookup that
    /// loaded it but is not made resident, and lookups waiting on it
    /// load the key afresh.
    pub fn invalidate<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut state = lock_unpoisoned(&self.state);
        if let Some(stale) = state.loading.get_mut(key) {
            *stale = true;
        }
        let dropped = state.map.remove(key).is_some();
        if dropped {
            state.stats.resident = state.map.len();
            self.count(&mut state.stats, Event::Invalidate);
        }
        dropped
    }

    /// Returns `key`'s value, loading it with `load` on a miss.
    ///
    /// The loader runs outside the cache lock; a lookup of the same key
    /// meanwhile waits for it and then counts a hit. If that load failed,
    /// or an [`Lru::invalidate`] made it stale, the waiting lookup loads
    /// the key itself. A failed or panicking `load` evicts nothing and
    /// counts one error. Returns `None`, also counted as an error, when
    /// the cache is full and no resident entry is evictable; the loaded
    /// value is then dropped.
    pub fn get_or_load<Q, E>(
        &self,
        key: &Q,
        load: impl FnOnce() -> Result<V, E>,
    ) -> Option<Result<V, E>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        match self.lookup(key) {
            Ok(value) => Some(Ok(value)),
            Err(in_flight) => in_flight.commit(load()),
        }
    }

    /// The locked half of [`Lru::get_or_load`]: counts the lookup, then
    /// returns the resident value (a hit) or marks the key in flight and
    /// returns the mark, waiting first while another lookup loads it.
    fn lookup<Q>(&self, key: &Q) -> Result<V, InFlight<'_, K, V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut state = lock_unpoisoned(&self.state);
        state.stats.lookups += 1;
        loop {
            let s = &mut *state;
            if let Some(entry) = s.map.get_mut(key) {
                s.tick += 1;
                entry.last_use = s.tick;
                let value = entry.value.clone();
                self.count(&mut s.stats, Event::Hit);
                return Ok(value);
            }
            if !s.loading.contains_key(key) {
                let key = key.to_owned();
                s.loading.insert(key.clone(), false);
                return Err(InFlight { lru: self, key, done: false });
            }
            state = self
                .loaded
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Makes a freshly loaded value resident: evicts the least recently
    /// used evictable entry if the cache is full, then inserts. Residency
    /// never exceeds the capacity, so one eviction always makes room;
    /// when no entry is evictable nothing is evicted and the lookup
    /// counts as an error.
    fn insert(&self, s: &mut State<K, V>, key: K, value: V) -> Option<V> {
        if s.map.len() >= self.capacity {
            let victim = s
                .map
                .iter()
                .filter(|(_, entry)| (self.evictable)(&entry.value))
                .min_by_key(|(_, entry)| entry.last_use)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                self.count(&mut s.stats, Event::Error);
                return None;
            };
            s.map.remove(&victim);
            self.count(&mut s.stats, Event::Evict);
        }
        s.tick += 1;
        s.map
            .insert(key, Entry { value: value.clone(), last_use: s.tick });
        self.count(&mut s.stats, Event::Load);
        s.stats.resident = s.map.len();
        s.stats.peak_resident = s.stats.peak_resident.max(s.map.len());
        Some(value)
    }

    /// Bumps one outcome counter and mirrors it into the attached
    /// recorder, if any: one event per counter change.
    fn count(&self, stats: &mut CacheStats, event: Event) {
        *match event {
            Event::Hit => &mut stats.hits,
            Event::Load => &mut stats.loads,
            Event::Error => &mut stats.errors,
            Event::Evict => &mut stats.evictions,
            Event::Invalidate => &mut stats.invalidations,
        } += 1;
        if let Some(events) = self.events.get() {
            // ordering: Release pairs with the Acquire read in
            // `Recorder::snapshot`.
            events[event as usize].fetch_add(1, Ordering::Release);
        }
    }
}

/// A key marked in flight. Committing the load's outcome clears the mark
/// under the same lock acquisition that records the outcome, so a woken
/// waiter sees either the entry or the key free to load. If the loader
/// panics, dropping the mark clears it instead, so the key stays
/// loadable.
struct InFlight<'a, K: Hash + Eq + Clone, V: Clone> {
    lru: &'a Lru<K, V>,
    key: K,
    done: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> InFlight<'_, K, V> {
    fn commit<E>(mut self, loaded: Result<V, E>) -> Option<Result<V, E>> {
        let lru = self.lru;
        let mut state = lock_unpoisoned(&lru.state);
        let stale = state.loading.remove(&self.key) == Some(true);
        self.done = true;
        let outcome = match loaded {
            // An invalidation overtook this load: answer its own lookup
            // only, so nothing read before the invalidation turns resident.
            Ok(value) if stale => {
                lru.count(&mut state.stats, Event::Load);
                Some(Ok(value))
            }
            Ok(value) => lru.insert(&mut state, self.key.clone(), value).map(Ok),
            Err(e) => {
                lru.count(&mut state.stats, Event::Error);
                Some(Err(e))
            }
        };
        drop(state);
        lru.loaded.notify_all();
        outcome
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for InFlight<'_, K, V> {
    /// Does anything only when the loader panicked: that lookup ends as
    /// an error and its waiters wake to load the key themselves.
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let mut state = lock_unpoisoned(&self.lru.state);
        state.loading.remove(&self.key);
        self.lru.count(&mut state.stats, Event::Error);
        drop(state);
        self.lru.loaded.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsr_terrain::gen;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    fn tile(seed: u64) -> Arc<Tin> {
        Arc::new(gen::fbm(4, 4, 2, 3.0, seed).to_tin().unwrap())
    }

    fn id(ti: u32) -> TileId {
        TileId { level: 0, ti, tj: 0 }
    }

    fn tiles(capacity: usize) -> SceneCache {
        Lru::new(capacity, unpinned)
    }

    #[test]
    fn lru_evicts_oldest_and_caps_residency() {
        let cache = tiles(2);
        let mut loads = 0u32;
        let get = |cache: &SceneCache, ti: u32, loads: &mut u32| {
            cache
                .get_or_load(&id(ti), || -> Result<Arc<Tin>, ()> {
                    *loads += 1;
                    Ok(tile(ti as u64))
                })
                .expect("not pinned")
                .expect("load ok")
        };
        let a = get(&cache, 0, &mut loads);
        drop(a);
        let b = get(&cache, 1, &mut loads);
        let b2 = get(&cache, 1, &mut loads); // hit
        assert_eq!(loads, 2);
        let _c = get(&cache, 2, &mut loads); // evicts 0 (LRU, unpinned)
        drop(b);
        drop(b2);
        let _a2 = get(&cache, 0, &mut loads); // reload: 0 was evicted
        assert_eq!(loads, 4);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.loads, 4);
        assert_eq!(s.evictions, 2);
        assert!(s.peak_resident <= 2, "peak {} over cap", s.peak_resident);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let cache = tiles(2);
        let a = cache
            .get_or_load(&id(0), || -> Result<_, ()> { Ok(tile(0)) })
            .unwrap()
            .unwrap();
        let b = cache
            .get_or_load(&id(1), || -> Result<_, ()> { Ok(tile(1)) })
            .unwrap()
            .unwrap();
        // Both pinned: a third load must refuse rather than overshoot.
        assert!(cache
            .get_or_load(&id(2), || -> Result<_, ()> { Ok(tile(2)) })
            .is_none());
        drop(a);
        // One slot free again.
        assert!(cache
            .get_or_load(&id(2), || -> Result<_, ()> { Ok(tile(2)) })
            .is_some());
        drop(b);
        assert_eq!(cache.stats().peak_resident, 2);
    }

    #[test]
    fn loader_errors_propagate_and_cache_nothing() {
        let cache = tiles(1);
        let r = cache.get_or_load(&id(0), || Err("boom"));
        assert_eq!(r.unwrap().unwrap_err(), "boom");
        let s = cache.stats();
        assert_eq!((s.loads, s.errors, s.resident), (0, 1, 0));
    }

    /// Regression: a failed load once committed its eviction,
    /// permanently shrinking residency (the victim was gone, nothing
    /// replaced it) and counting the miss in no counter at all. An
    /// eviction happens only together with a successful insert.
    #[test]
    fn failed_load_rolls_back_the_staged_eviction() {
        let cache = tiles(1);
        cache
            .get_or_load(&id(1), || -> Result<_, ()> { Ok(tile(1)) })
            .unwrap()
            .unwrap();
        let before = cache.stats();
        let r = cache.get_or_load(&id(2), || Err("transient store error"));
        assert_eq!(r.unwrap().unwrap_err(), "transient store error");
        let after = cache.stats();
        assert_eq!(
            (after.resident, after.evictions, after.loads),
            (before.resident, before.evictions, before.loads),
            "a transient loader error must not shrink residency or skew stats"
        );
        assert_eq!(after.errors, before.errors + 1);
        // The victim is still resident and still serves hits…
        let hit = cache
            .get_or_load(&id(1), || -> Result<_, ()> { panic!("must be resident") })
            .unwrap()
            .unwrap();
        drop(hit);
        assert_eq!(cache.stats().hits, before.hits + 1);
        // …and a later successful load of the failed tile evicts normally.
        cache
            .get_or_load(&id(2), || -> Result<_, ()> { Ok(tile(2)) })
            .unwrap()
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.resident, s.evictions, s.loads), (1, 1, 2));
        assert_eq!(s.hits + s.loads + s.errors, s.lookups);
    }

    #[test]
    fn attached_recorder_mirrors_cache_events() {
        let recorder = Recorder::default();
        let cache = tiles(1);
        cache.attach_recorder(&recorder, "tile");
        cache
            .get_or_load(&id(0), || -> Result<_, ()> { Ok(tile(0)) })
            .unwrap()
            .unwrap();
        cache
            .get_or_load(&id(0), || -> Result<_, ()> { panic!("resident") })
            .unwrap()
            .unwrap();
        assert!(cache.get_or_load(&id(1), || Err("boom")).unwrap().is_err());
        cache
            .get_or_load(&id(1), || -> Result<_, ()> { Ok(tile(1)) })
            .unwrap()
            .unwrap();
        let snap = recorder.snapshot();
        let s = cache.stats();
        assert_eq!(snap.event("tile_hit"), s.hits);
        assert_eq!(snap.event("tile_load"), s.loads);
        assert_eq!(snap.event("tile_error"), s.errors);
        assert_eq!(snap.event("tile_evict"), s.evictions);
        assert_eq!(snap.event("tile_evict"), 1);
    }

    #[test]
    fn counters_partition_lookups() {
        let cache = tiles(2);
        let a = cache
            .get_or_load(&id(0), || -> Result<_, ()> { Ok(tile(0)) })
            .unwrap()
            .unwrap();
        let b = cache
            .get_or_load(&id(1), || -> Result<_, ()> { Ok(tile(1)) })
            .unwrap()
            .unwrap();
        // Hit, pinned refusal, loader error, then a real load.
        cache
            .get_or_load(&id(0), || -> Result<_, ()> { panic!() })
            .unwrap()
            .unwrap();
        assert!(cache
            .get_or_load(&id(2), || -> Result<_, ()> { Ok(tile(2)) })
            .is_none());
        drop(a);
        assert!(cache.get_or_load(&id(3), || Err("boom")).unwrap().is_err());
        cache
            .get_or_load(&id(2), || -> Result<_, ()> { Ok(tile(2)) })
            .unwrap()
            .unwrap();
        drop(b);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.loads, s.errors), (6, 1, 3, 2));
        assert_eq!(s.hits + s.loads + s.errors, s.lookups);
    }

    #[test]
    fn slow_load_of_one_key_does_not_block_hits_on_another() {
        let cache = Arc::new(Lru::<String, u32>::new(2, |_| true));
        cache
            .get_or_load("hot", || Ok::<_, ()>(1))
            .unwrap()
            .unwrap();
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let slow = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_load("slow", || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok::<_, ()>(2)
                })
            })
        };
        started.recv().unwrap();
        // The slow loader is parked; a hit on another key must not wait.
        let hit = cache
            .get_or_load("hot", || -> Result<u32, ()> { panic!("must be resident") })
            .unwrap()
            .unwrap();
        assert_eq!(hit, 1);
        release.send(()).unwrap();
        assert_eq!(slow.join().unwrap().unwrap().unwrap(), 2);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.loads), (3, 1, 2));
    }

    /// Regression: `invalidate` once dropped only resident entries, so a
    /// load already in flight (reading the source before an overwrite)
    /// committed its stale value afterwards and served it as a hit.
    #[test]
    fn invalidating_a_key_in_flight_discards_that_load() {
        let cache = Arc::new(Lru::<String, u32>::new(2, |_| true));
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let stale = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_load("cat", || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok::<_, ()>(1)
                })
            })
        };
        started.recv().unwrap();
        // The loader is parked: nothing is resident yet.
        assert!(!cache.invalidate("cat"));
        release.send(()).unwrap();
        // The overtaken load still answers the lookup that ran it…
        assert_eq!(stale.join().unwrap(), Some(Ok(1)));
        // …but is not resident: the next lookup runs its own loader.
        assert_eq!(cache.get_or_load("cat", || Ok::<_, ()>(2)), Some(Ok(2)));
        assert_eq!(cache.get_or_load("cat", || Ok::<_, ()>(3)), Some(Ok(2)));
        let s = cache.stats();
        assert_eq!((s.lookups, s.loads, s.hits, s.errors), (3, 2, 1, 0));
        assert_eq!(s.hits + s.loads + s.errors, s.lookups);
        assert_eq!((s.resident, s.invalidations), (1, 0));
    }

    #[test]
    fn panicking_loader_leaves_its_key_loadable() {
        let cache = Lru::<u32, u32>::new(2, |_| true);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_load(&7, || -> Result<u32, ()> { panic!("loader died") })
        }));
        assert!(died.is_err());
        let s = cache.stats();
        assert_eq!((s.lookups, s.errors, s.resident), (1, 1, 0));
        // The in-flight mark is gone: the next lookup loads the key.
        assert_eq!(cache.get_or_load(&7, || Ok::<_, ()>(70)).unwrap(), Ok(70));
        let s = cache.stats();
        assert_eq!((s.lookups, s.loads, s.errors), (2, 1, 1));
        assert_eq!(s.hits + s.loads + s.errors, s.lookups);
    }

    #[test]
    fn racing_lookups_of_one_key_load_it_once() {
        let cache = Arc::new(Lru::<u32, u32>::new(2, |_| true));
        let calls = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(6));
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let (cache, calls, start) =
                    (Arc::clone(&cache), Arc::clone(&calls), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    cache.get_or_load(&1, || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        // Slow enough that the others find it in flight.
                        std::thread::sleep(Duration::from_millis(50));
                        Ok::<_, ()>(10)
                    })
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), Some(Ok(10)));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!((s.lookups, s.loads, s.hits, s.errors), (6, 1, 5, 0));
        assert_eq!((s.resident, s.peak_resident), (1, 1));
    }
}
