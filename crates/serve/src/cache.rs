//! The one cache type of the service: a keyed LRU with single-flight
//! coalescing, used for section payloads, rendered `detect` replies and
//! materialized day graphs.
//!
//! Section payloads are keyed `(dataset fingerprint, options fingerprint,
//! section, day)` — the complete provenance of a payload, since every
//! section is a pure function of those four (the thread count never
//! affects a result bit and is excluded from the options fingerprint on
//! purpose; `day` is the churn timeline day for `as_of` requests, `None`
//! for the base snapshot). The key is built from the *parsed,
//! canonicalized* request, so key order and whitespace of the incoming
//! JSON line cannot cause a spurious miss (regression-tested in
//! `serve_asof.rs`).
//!
//! N concurrent lookups of the same uncached key cost one computation,
//! not N: the first caller to miss becomes the **leader** and computes
//! outside the lock; every caller that arrives while the flight is open
//! becomes a **follower** and blocks until the leader publishes, then
//! shares the leader's `Arc` — byte-identical by construction. Entries
//! and open flights live under one mutex, so publishing (insert + close)
//! is atomic and a lookup can never miss both.
//!
//! Semantics:
//! * eviction is least-recently-used over a logical access clock, bounded
//!   by a fixed entry capacity; capacity 0 disables caching (flights
//!   still coalesce);
//! * errors are published to the open flight's followers but never
//!   cached — the next lookup retries;
//! * a leader that panics publishes an error through its guard's `Drop`,
//!   so followers never hang on a dead leader.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use verified_net::Section;

/// Full provenance of one cached section payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// [`verified_net::Dataset::fingerprint`] of the snapshot.
    pub(crate) dataset: u64,
    /// [`verified_net::AnalysisOptions::fingerprint`] of the request
    /// options (thread count excluded).
    pub(crate) options: u64,
    /// The section computed.
    pub(crate) section: Section,
    /// Churn timeline day for `as_of` requests; `None` = base snapshot.
    pub(crate) day: Option<u32>,
}

/// One rendered payload: the exact serialized bytes plus their
/// fingerprint (for sections, the same digest batch runs record as
/// `section.<id>`).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct CachedSection {
    /// Serialized JSON, byte-identical to a fresh run.
    pub(crate) payload_json: String,
    /// FNV-1a fingerprint of `payload_json`.
    pub(crate) fingerprint: u64,
}

/// A lookup's value, or the serialized error reply its computation
/// produced (sent verbatim to the leader's and every follower's client).
pub(crate) type Outcome<V> = Result<Arc<V>, String>;

/// How a lookup was answered, so callers record exactly their counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Served from a cached entry.
    Hit,
    /// Waited on another caller's open flight.
    Follower,
    /// Led the flight and ran the computation; `evicted` entries were
    /// dropped to make room for the result.
    Computed {
        /// LRU entries evicted by this insert.
        evicted: usize,
    },
}

/// Published to followers when a leader unwinds without publishing.
const ABORTED: &str =
    "{\"ok\":false,\"error\":{\"code\":\"analysis\",\"message\":\"section computation aborted\"}}";

struct Flight<V> {
    outcome: Mutex<Option<Outcome<V>>>,
    published: Condvar,
}

impl<V> Flight<V> {
    /// Block until the leader publishes. Leaders always publish in bounded
    /// time (a computation, or a panic caught by [`Leader`]'s `Drop`), so
    /// this wait needs no timeout of its own — the *request* deadline is
    /// enforced by the connection thread holding the job handle.
    fn wait(&self) -> Outcome<V> {
        let mut outcome = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(published) = outcome.as_ref() {
                return published.clone();
            }
            outcome = self.published.wait(outcome).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn publish(&self, result: Outcome<V>) {
        *self.outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.published.notify_all();
    }
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

struct State<K, V> {
    clock: u64,
    entries: HashMap<K, Entry<V>>,
    flights: HashMap<K, Arc<Flight<V>>>,
}

/// Bounded LRU cache with single-flight computation of misses.
pub(crate) struct FlightCache<K, V> {
    capacity: usize,
    state: Mutex<State<K, V>>,
}

impl<K: Clone + Eq + Hash, V> FlightCache<K, V> {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub(crate) fn new(capacity: usize) -> Self {
        let state = State { clock: 0, entries: HashMap::new(), flights: HashMap::new() };
        Self { capacity, state: Mutex::new(state) }
    }

    /// The state lock. A poisoned lock is recovered: every update leaves
    /// both maps valid at every step, and a panicking leader's `Drop`
    /// must still be able to close its flight.
    fn state(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value for `key`: a cached entry (marked most-recently-used),
    /// the outcome of another caller's open flight, or — when neither
    /// exists — the result of running `compute` as the flight's leader.
    /// `compute` runs outside the lock; an `Err` is the serialized error
    /// reply, published to followers but not cached.
    pub(crate) fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, String>,
    ) -> (Source, Outcome<V>) {
        match self.begin(key) {
            Role::Hit(value) => (Source::Hit, Ok(value)),
            Role::Follower(flight) => (Source::Follower, flight.wait()),
            Role::Leader(mut leader) => {
                let outcome = compute().map(Arc::new);
                let evicted = leader.publish(outcome.clone());
                (Source::Computed { evicted }, outcome)
            }
        }
    }

    /// Resolve `key`'s role under the lock: hit, follower, or leader of a
    /// freshly opened flight.
    fn begin(&self, key: K) -> Role<'_, K, V> {
        let mut state = self.state();
        state.clock += 1;
        let clock = state.clock;
        if let Some(entry) = state.entries.get_mut(&key) {
            entry.last_used = clock;
            return Role::Hit(Arc::clone(&entry.value));
        }
        if let Some(flight) = state.flights.get(&key) {
            return Role::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight { outcome: Mutex::new(None), published: Condvar::new() });
        state.flights.insert(key.clone(), Arc::clone(&flight));
        Role::Leader(Leader { cache: self, key: Some(key), flight })
    }

    /// Cached entries right now.
    pub(crate) fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// Open flights right now (diagnostics).
    pub(crate) fn open_flights(&self) -> usize {
        self.state().flights.len()
    }
}

enum Role<'a, K: Clone + Eq + Hash, V> {
    Hit(Arc<V>),
    Follower(Arc<Flight<V>>),
    Leader(Leader<'a, K, V>),
}

/// Leadership of one open flight. Publishing closes it; dropping without
/// publishing (a panicking leader) publishes [`ABORTED`].
struct Leader<'a, K: Clone + Eq + Hash, V> {
    cache: &'a FlightCache<K, V>,
    /// `None` once published.
    key: Option<K>,
    flight: Arc<Flight<V>>,
}

impl<K: Clone + Eq + Hash, V> Leader<'_, K, V> {
    /// Close the flight, cache a successful result (evicting LRU entries
    /// past capacity) and wake every follower. Returns the eviction count.
    fn publish(&mut self, outcome: Outcome<V>) -> usize {
        let Some(key) = self.key.take() else { return 0 };
        let mut evicted = 0;
        {
            let mut state = self.cache.state();
            state.flights.remove(&key);
            // Capacity 0 caches nothing; errors are never cached.
            if let Some(value) = outcome.as_ref().ok().filter(|_| self.cache.capacity > 0) {
                state.clock += 1;
                let last_used = state.clock;
                state.entries.insert(key, Entry { value: Arc::clone(value), last_used });
                while state.entries.len() > self.cache.capacity {
                    // The access clock is strictly increasing, so the
                    // minimum is unique and eviction order deterministic.
                    let oldest = state.entries.iter().min_by_key(|(_, e)| e.last_used);
                    let Some(oldest) = oldest.map(|(k, _)| k.clone()) else { break };
                    state.entries.remove(&oldest);
                    evicted += 1;
                }
            }
        }
        self.flight.publish(outcome);
        evicted
    }
}

impl<K: Clone + Eq + Hash, V> Drop for Leader<'_, K, V> {
    fn drop(&mut self) {
        self.publish(Err(ABORTED.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ds: u64, sec: Section) -> CacheKey {
        CacheKey { dataset: ds, options: 1, section: sec, day: None }
    }

    /// Compute-and-cache `s` under `k`, returning how the lookup went.
    fn put(c: &FlightCache<CacheKey, CachedSection>, k: CacheKey, s: &str) -> Source {
        let value = CachedSection { payload_json: s.to_string(), fingerprint: 0 };
        let (source, outcome) = c.get_or_compute(k, || Ok(value));
        assert!(outcome.is_ok());
        source
    }

    /// The cached value for `k`, if any (a lookup that would compute
    /// abandons its flight instead).
    fn cached(c: &FlightCache<CacheKey, CachedSection>, k: CacheKey) -> Option<String> {
        match c.begin(k) {
            Role::Hit(v) => Some(v.payload_json.clone()),
            _ => None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = FlightCache::new(2);
        let computed = |evicted| Source::Computed { evicted };
        assert_eq!(put(&c, key(1, Section::Basic), "a"), computed(0));
        assert_eq!(put(&c, key(2, Section::Basic), "b"), computed(0));
        // Touch the first entry so the second becomes LRU.
        assert!(cached(&c, key(1, Section::Basic)).is_some());
        assert_eq!(put(&c, key(3, Section::Basic), "c"), computed(1));
        assert!(cached(&c, key(2, Section::Basic)).is_none(), "LRU entry survived");
        assert!(cached(&c, key(1, Section::Basic)).is_some());
        assert!(cached(&c, key(3, Section::Basic)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn distinct_sections_are_distinct_keys() {
        let c = FlightCache::new(8);
        put(&c, key(1, Section::Basic), "basic");
        put(&c, key(1, Section::Degrees), "degrees");
        assert_eq!(cached(&c, key(1, Section::Basic)).as_deref(), Some("basic"));
        assert_eq!(cached(&c, key(1, Section::Degrees)).as_deref(), Some("degrees"));
    }

    #[test]
    fn distinct_days_are_distinct_keys() {
        let c = FlightCache::new(8);
        let d3 = CacheKey { day: Some(3), ..key(1, Section::Basic) };
        put(&c, key(1, Section::Basic), "base");
        put(&c, d3, "day3");
        assert_eq!(cached(&c, key(1, Section::Basic)).as_deref(), Some("base"));
        assert_eq!(cached(&c, d3).as_deref(), Some("day3"));
        assert!(cached(&c, CacheKey { day: Some(4), ..key(1, Section::Basic) }).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = FlightCache::new(0);
        assert_eq!(put(&c, key(1, Section::Basic), "a"), Source::Computed { evicted: 0 });
        assert_eq!(c.len(), 0);
        assert!(cached(&c, key(1, Section::Basic)).is_none());
    }

    fn lead(c: &FlightCache<u32, String>, key: u32) -> Leader<'_, u32, String> {
        match c.begin(key) {
            Role::Leader(leader) => leader,
            _ => panic!("first arrival must lead"),
        }
    }

    fn follow(c: &FlightCache<u32, String>, key: u32) -> Arc<Flight<String>> {
        match c.begin(key) {
            Role::Follower(flight) => flight,
            _ => panic!("flight already open"),
        }
    }

    #[test]
    fn followers_share_the_leaders_bytes() {
        let c = FlightCache::new(4);
        let mut leader = lead(&c, 1);
        let followers: Vec<_> = (0..3)
            .map(|_| {
                let flight = follow(&c, 1);
                std::thread::spawn(move || flight.wait().expect("payload").as_str().to_string())
            })
            .collect();
        leader.publish(Ok(Arc::new("bytes".to_string())));
        for f in followers {
            assert_eq!(f.join().expect("follower thread"), "bytes");
        }
        assert_eq!(c.open_flights(), 0, "flight not closed");
        assert_eq!(c.len(), 1, "published value not cached");
    }

    #[test]
    fn errors_are_published_but_not_sticky() {
        let c = FlightCache::new(4);
        let mut leader = lead(&c, 2);
        let follower = follow(&c, 2);
        leader.publish(Err("{\"ok\":false}".to_string()));
        assert_eq!(follower.wait(), Err("{\"ok\":false}".to_string()));
        // The error was not cached: the next arrival leads a fresh flight.
        assert!(matches!(c.begin(2), Role::Leader(_)));
    }

    #[test]
    fn dropped_leader_frees_followers() {
        let c = FlightCache::new(4);
        let leader = lead(&c, 3);
        let follower = follow(&c, 3);
        drop(leader); // simulated leader panic
        let outcome = follower.wait();
        assert!(outcome.expect_err("drop publishes an error").contains("aborted"));
        assert_eq!(c.open_flights(), 0);
        assert_eq!(c.len(), 0);
    }
}
