//! Sharded LRU query-result cache — the serving layer's front line.
//!
//! Served spatial-aggregation traffic is dominated by repeated and
//! overlapping queries (the GeoBlocks observation): dashboards refresh the
//! same view, many clients look at the same city, sliders revisit recent
//! positions. Answering those from a cache keyed on the *canonical query*
//! is the single biggest throughput win at the server boundary, far ahead
//! of making the join itself faster.
//!
//! The cache is sharded to keep lock hold times negligible under a worker
//! pool: the key hash picks a shard, each shard is an independent
//! `Mutex<HashMap>` with its own LRU clock. Keys are produced by
//! [`crate::service::UrbaneService`] and embed the dataset *generation*, so
//! a dataset reload invalidates every cached answer for it without touching
//! the cache at all — stale entries become unreachable and age out through
//! normal LRU pressure (plus an explicit [`QueryCache::purge`] sweep on
//! reload for memory hygiene).
//!
//! Admission is on second sight: the first miss of a key only records its
//! hash in the shard's *doorkeeper*, and the answer enters the LRU when the
//! same key misses again. Traffic that never repeats (an analyst's ad-hoc
//! exact joins) therefore never displaces answers that do (a dashboard's),
//! and never grows the cache. A key's first two requests miss; its third is
//! the first that can hit. The doorkeepers hold at most 4 096 hashes
//! between them, and a full one is cleared.
//!
//! Hash collisions cannot serve wrong answers: entries store the full
//! canonical key string and compare it on every hit.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Cache statistics: lookups answered from the cache and lookups that
/// missed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries executed.
    pub misses: u64,
}

/// Lock a mutex, recovering from poisoning: the caches hold plain data
/// whose invariants hold between operations, and a query thread that
/// panicked mid-evaluation must not wedge every later request.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A canonical cache key: the 64-bit FNV-1a hash picks the shard and the
/// bucket; the canonical string confirms the match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    canonical: String,
}

impl CacheKey {
    /// Key a canonical query description (the caller is responsible for
    /// canonicalization — same query, same string).
    pub fn new(canonical: String) -> Self {
        CacheKey { hash: fnv1a(canonical.as_bytes()), canonical }
    }

    /// The canonical string this key was built from.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }
}

/// 64-bit FNV-1a — tiny, dependency-free, and good enough for bucketing
/// (collisions are verified against the canonical string anyway).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Entry<V> {
    canonical: String,
    value: V,
    last_used: u64,
}

struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    clock: u64,
    /// Hashes of keys that missed once and were not admitted.
    doorkeeper: HashSet<u64>,
}

impl<V> Shard<V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// Key hashes the doorkeepers remember, across all shards.
const DOORKEEPER_HASHES: usize = 4096;

/// A sharded LRU map from canonical query keys to shared values that admits
/// a key on its second insert.
///
/// `V` is cloned out on hits, so callers use cheap handles (`Arc<...>`).
pub struct QueryCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_capacity: usize,
    per_shard_doorkeeper: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> QueryCache<V> {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (capacity 0 disables caching entirely; shard count is clamped to at
    /// least 1 and at most `capacity`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n_shards = shards.max(1).min(capacity.max(1));
        let per_shard_capacity = if capacity == 0 { 0 } else { capacity.div_ceil(n_shards) };
        QueryCache {
            shards: (0..n_shards)
                .map(|_| {
                    Mutex::new(Shard { map: HashMap::new(), clock: 0, doorkeeper: HashSet::new() })
                })
                .collect(),
            per_shard_capacity,
            per_shard_doorkeeper: (DOORKEEPER_HASHES / n_shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard<V>> {
        &self.shards[(key.hash % self.shards.len() as u64) as usize]
    }

    /// Look up a key, refreshing its LRU position on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        if self.per_shard_capacity == 0 {
            // lint: relaxed-ok monotone miss counter; nothing is published through it
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = lock(self.shard(key));
        let tick = shard.tick();
        match shard.map.get_mut(&key.hash) {
            Some(e) if e.canonical == key.canonical => {
                e.last_used = tick;
                // lint: relaxed-ok monotone hit counter; the shard lock orders the entry itself
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.value.clone())
            }
            _ => {
                // lint: relaxed-ok monotone miss counter; nothing is published through it
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Offer an entry. A key neither cached nor in the doorkeeper is not
    /// admitted: its hash is recorded instead (clearing the doorkeeper when
    /// full). A key the doorkeeper remembers is admitted, and a cached key
    /// is replaced. Admission evicts the shard's least-recently-used entry
    /// when the shard is full. Eviction scans the shard — shards are small
    /// by construction, and insertions only happen on cache misses, which
    /// already paid for a full query.
    pub fn insert(&self, key: CacheKey, value: V) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = lock(self.shard(&key));
        if !shard.map.contains_key(&key.hash) && !shard.doorkeeper.remove(&key.hash) {
            if shard.doorkeeper.len() >= self.per_shard_doorkeeper {
                shard.doorkeeper.clear();
            }
            shard.doorkeeper.insert(key.hash);
            return;
        }
        let tick = shard.tick();
        if shard.map.len() >= self.per_shard_capacity && !shard.map.contains_key(&key.hash) {
            if let Some(oldest) =
                shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(&h, _)| h)
            {
                shard.map.remove(&oldest);
            }
        }
        shard.map.insert(
            key.hash,
            Entry { canonical: key.canonical, value, last_used: tick },
        );
    }

    /// Drop every entry whose canonical key starts with `prefix` — used on
    /// dataset reloads to release stale answers eagerly (correctness does
    /// not depend on this: reloaded generations change the key anyway).
    pub fn purge(&self, prefix: &str) {
        for shard in &self.shards {
            lock(shard).map.retain(|_, e| !e.canonical.starts_with(prefix));
        }
    }

    /// Entries currently held (across all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed), // lint: relaxed-ok counter read for stats only
            misses: self.misses.load(Ordering::Relaxed), // lint: relaxed-ok counter read for stats only
        }
    }
}

// ---------------------------------------------------------------------------
// Single-flight: dedupe identical concurrent cache misses.
// ---------------------------------------------------------------------------

/// What a follower observes on its flight slot.
enum FlightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader finished. `None` means it produced nothing shareable
    /// (degraded answer, error, or panic) — followers fall back to their
    /// own computation.
    Done(Option<V>),
}

/// One in-flight computation, shared between its leader and followers.
struct FlightSlot<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

/// Leader-side handle for an in-flight key. The leader runs the real
/// computation and publishes it via [`FlightLeader::complete`]; dropping the
/// handle without completing (early return, panic unwind) publishes `None`,
/// so followers can never deadlock on an abandoned flight.
pub struct FlightLeader<'f, V> {
    registry: &'f SingleFlight<V>,
    key: String,
    slot: Arc<FlightSlot<V>>,
    completed: bool,
}

impl<V> FlightLeader<'_, V> {
    /// Publish the computation's shareable value (`None` when there is
    /// nothing worth sharing) and wake every follower.
    pub fn complete(mut self, value: Option<V>) {
        self.completed = true;
        self.registry.finish(&self.key, &self.slot, value);
    }
}

impl<V> Drop for FlightLeader<'_, V> {
    fn drop(&mut self) {
        if !self.completed {
            self.registry.finish(&self.key, &self.slot, None);
        }
    }
}

/// Follower-side handle: wait (bounded) for the leader's result.
pub struct FlightFollower<V> {
    slot: Arc<FlightSlot<V>>,
}

impl<V: Clone> FlightFollower<V> {
    /// Block until the leader publishes or `timeout` passes. Returns the
    /// shared value, or `None` on timeout / a leader with nothing to share —
    /// either way the follower falls back to computing for itself.
    pub fn wait(self, timeout: Duration) -> Option<V> {
        let guard = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        let (state, _timed_out) = self
            .slot
            .ready
            .wait_timeout_while(guard, timeout, |s| matches!(s, FlightState::Pending))
            .unwrap_or_else(|p| p.into_inner());
        match &*state {
            FlightState::Done(v) => v.clone(),
            FlightState::Pending => None,
        }
    }
}

/// The role [`SingleFlight::join`] assigned to a caller.
pub enum Flight<'f, V> {
    /// First arrival for the key: compute, then [`FlightLeader::complete`].
    Leader(FlightLeader<'f, V>),
    /// A leader is already computing this key: [`FlightFollower::wait`].
    Follower(FlightFollower<V>),
}

/// Single-flight dedup for identical concurrent misses: the first caller for
/// a canonical key becomes the *leader* and computes; arrivals while the
/// flight is open become *followers* and wait for the leader's answer
/// instead of redundantly recomputing it. Unlike the [`QueryCache`], this
/// holds no results at rest — a slot lives exactly as long as its leader's
/// computation, so it works even when caching is disabled.
pub struct SingleFlight<V> {
    slots: Mutex<HashMap<String, Arc<FlightSlot<V>>>>,
    followers: AtomicU64,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SingleFlight<V> {
    /// An empty registry.
    pub fn new() -> Self {
        SingleFlight { slots: Mutex::new(HashMap::new()), followers: AtomicU64::new(0) }
    }

    /// Join the flight for `key`: leader if none is open, follower otherwise.
    pub fn join(&self, key: &str) -> Flight<'_, V> {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(key) {
            // lint: relaxed-ok monotone follower counter; the slot mutex orders the value itself
            self.followers.fetch_add(1, Ordering::Relaxed);
            return Flight::Follower(FlightFollower { slot: Arc::clone(slot) });
        }
        let slot =
            Arc::new(FlightSlot { state: Mutex::new(FlightState::Pending), ready: Condvar::new() });
        slots.insert(key.to_string(), Arc::clone(&slot));
        Flight::Leader(FlightLeader {
            registry: self,
            key: key.to_string(),
            slot,
            completed: false,
        })
    }

    /// Total callers that joined as followers (the single-flight metric:
    /// each one is a full query's worth of work saved).
    pub fn followers(&self) -> u64 {
        // lint: relaxed-ok monotone counter read for display only
        self.followers.load(Ordering::Relaxed)
    }

    /// Flights currently open (leaders computing right now).
    pub fn open(&self) -> usize {
        lock(&self.slots).len()
    }

    fn finish(&self, key: &str, slot: &FlightSlot<V>, value: Option<V>) {
        // Remove the slot first so a racing arrival starts a fresh flight
        // rather than following one that already ended.
        lock(&self.slots).remove(key);
        *lock(&slot.state) = FlightState::Done(value);
        slot.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(s: &str) -> CacheKey {
        CacheKey::new(s.to_string())
    }

    #[test]
    fn hit_and_miss_counting() {
        let c: QueryCache<u32> = QueryCache::new(8, 2);
        assert_eq!(c.get(&key("a")), None);
        c.insert(key("a"), 1);
        assert_eq!(c.get(&key("a")), None);
        c.insert(key("a"), 1);
        assert_eq!(c.get(&key("a")), Some(1));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 2 });
    }

    /// Insert twice: past the doorkeeper into the LRU.
    fn admit(c: &QueryCache<u32>, k: &str, v: u32) {
        c.insert(key(k), v);
        c.insert(key(k), v);
    }

    #[test]
    fn capacity_zero_disables() {
        let c: QueryCache<u32> = QueryCache::new(0, 4);
        admit(&c, "a", 1);
        c.insert(key("a"), 1);
        assert_eq!(c.get(&key("a")), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_evicts_the_coldest() {
        // One shard so the eviction order is fully observable.
        let c: QueryCache<u32> = QueryCache::new(2, 1);
        admit(&c, "a", 1);
        admit(&c, "b", 2);
        assert_eq!(c.get(&key("a")), Some(1)); // refresh "a"
        admit(&c, "c", 3); // evicts "b" (coldest)
        assert_eq!(c.get(&key("b")), None);
        assert_eq!(c.get(&key("a")), Some(1));
        assert_eq!(c.get(&key("c")), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_admits_on_second_sight() {
        // lru_evicts_the_coldest, one insert at a time.
        let c: QueryCache<u32> = QueryCache::new(2, 1);
        c.insert(key("a"), 1);
        assert_eq!(c.get(&key("a")), None, "a first insert is dropped");
        assert_eq!(c.len(), 0);
        c.insert(key("a"), 1);
        assert_eq!(c.get(&key("a")), Some(1), "a second insert is admitted");
        c.insert(key("b"), 2);
        c.insert(key("c"), 3);
        assert_eq!(c.len(), 1, "first sights neither enter nor evict");
        c.insert(key("b"), 2);
        assert_eq!(c.get(&key("a")), Some(1)); // refresh "a"
        c.insert(key("c"), 3); // admitted; evicts "b" (coldest)
        assert_eq!(c.get(&key("b")), None);
        assert_eq!(c.get(&key("a")), Some(1));
        assert_eq!(c.get(&key("c")), Some(3));
        assert_eq!(c.len(), 2);
        // An evicted key starts over at the doorkeeper.
        c.insert(key("b"), 2);
        assert_eq!(c.get(&key("b")), None);
    }

    #[test]
    fn doorkeeper_clears_at_its_cap() {
        let c: QueryCache<u32> = QueryCache::new(8, 1);
        c.insert(key("first"), 1);
        for i in 1..DOORKEEPER_HASHES {
            c.insert(key(&format!("k{i}")), 0);
        }
        // The doorkeeper is full: the next new key clears it, so "first"
        // is a first sight again.
        c.insert(key("overflow"), 0);
        c.insert(key("first"), 1);
        assert_eq!(c.get(&key("first")), None, "a cleared doorkeeper forgets");
        c.insert(key("first"), 1);
        assert_eq!(c.get(&key("first")), Some(1));
        c.insert(key("overflow"), 0);
        assert_eq!(c.get(&key("overflow")), Some(0), "the key that cleared it is remembered");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacement_does_not_evict() {
        let c: QueryCache<u32> = QueryCache::new(2, 1);
        admit(&c, "a", 1);
        admit(&c, "b", 2);
        c.insert(key("a"), 10); // replace in place
        assert_eq!(c.get(&key("a")), Some(10));
        assert_eq!(c.get(&key("b")), Some(2));
    }

    #[test]
    fn purge_by_prefix() {
        let c: QueryCache<u32> = QueryCache::new(16, 4);
        admit(&c, "taxi|0|q1", 1);
        admit(&c, "taxi|0|q2", 2);
        admit(&c, "crime|0|q1", 3);
        c.purge("taxi|");
        assert_eq!(c.get(&key("taxi|0|q1")), None);
        assert_eq!(c.get(&key("crime|0|q1")), Some(3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn colliding_hashes_never_serve_wrong_values() {
        // Force a collision by constructing keys with the same hash slot:
        // with one shard every key lands together; fake equal hashes by
        // checking the canonical guard through the public API instead.
        let c: QueryCache<u32> = QueryCache::new(4, 1);
        admit(&c, "x", 7);
        // A different canonical string that happens to share a bucket can
        // only be observed via canonical comparison; "y" simply misses.
        assert_eq!(c.get(&key("y")), None);
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let c: Arc<QueryCache<usize>> = Arc::new(QueryCache::new(64, 8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500 {
                        let k = key(&format!("q{}", (t * 131 + i) % 40));
                        match c.get(&k) {
                            Some(v) => assert_eq!(v, (t * 131 + i) % 40 % 7),
                            None => c.insert(k, (t * 131 + i) % 40 % 7),
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 64);
        let st = c.stats();
        assert_eq!(st.hits + st.misses, 2000);
    }

    #[test]
    fn single_flight_first_caller_leads() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        match sf.join("q") {
            Flight::Leader(l) => l.complete(Some(7)),
            Flight::Follower(_) => panic!("first caller must lead"),
        }
        assert_eq!(sf.open(), 0, "completion must close the flight");
        assert_eq!(sf.followers(), 0);
        // The flight is closed; the next caller leads a fresh one.
        assert!(matches!(sf.join("q"), Flight::Leader(_)));
    }

    #[test]
    fn single_flight_followers_receive_the_leaders_value() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let leader = match sf.join("q") {
            Flight::Leader(l) => l,
            Flight::Follower(_) => unreachable!(),
        };
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..3 {
                let sf = Arc::clone(&sf);
                handles.push(s.spawn(move || match sf.join("q") {
                    Flight::Follower(f) => f.wait(Duration::from_secs(10)),
                    Flight::Leader(_) => panic!("flight is open; must follow"),
                }));
            }
            // All three are registered as followers before the leader
            // publishes only if they joined first; joining happens-before
            // their spawn returns a handle, so completing after a short
            // rendezvous is enough: wait until the registry counted them.
            while sf.followers() < 3 {
                std::thread::yield_now();
            }
            leader.complete(Some(42));
            for h in handles {
                assert_eq!(h.join().unwrap(), Some(42));
            }
        });
        assert_eq!(sf.followers(), 3);
        assert_eq!(sf.open(), 0);
    }

    #[test]
    fn single_flight_dropped_leader_releases_followers_with_nothing() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let leader = match sf.join("q") {
            Flight::Leader(l) => l,
            Flight::Follower(_) => unreachable!(),
        };
        let follower = match sf.join("q") {
            Flight::Follower(f) => f,
            Flight::Leader(_) => unreachable!(),
        };
        drop(leader); // early return / panic path: completes with None
        assert_eq!(follower.wait(Duration::from_secs(10)), None);
        assert_eq!(sf.open(), 0, "an abandoned flight must not leak its slot");
    }

    #[test]
    fn single_flight_follower_timeout_returns_none() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let _leader = match sf.join("q") {
            Flight::Leader(l) => l,
            Flight::Follower(_) => unreachable!(),
        };
        let follower = match sf.join("q") {
            Flight::Follower(f) => f,
            Flight::Leader(_) => unreachable!(),
        };
        // The leader never completes within the timeout; the follower gives
        // up and computes for itself.
        assert_eq!(follower.wait(Duration::from_millis(10)), None);
    }

    #[test]
    fn single_flight_distinct_keys_are_independent() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let a = match sf.join("a") {
            Flight::Leader(l) => l,
            Flight::Follower(_) => unreachable!(),
        };
        assert!(matches!(sf.join("b"), Flight::Leader(_)), "different key, different flight");
        assert_eq!(sf.open(), 1, "b's leader dropped immediately, a still open");
        a.complete(None);
        assert_eq!(sf.open(), 0);
    }
}
