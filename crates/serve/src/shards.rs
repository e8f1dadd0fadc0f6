//! The sharded snapshot registry.
//!
//! Every registered snapshot name is a **shard**: its own bounded-queue
//! worker-pool [`Executor`] and its own section [`FlightCache`] (an LRU
//! with single-flight coalescing). Work for one snapshot therefore
//! queues, caches, and coalesces entirely inside its shard — a hot
//! snapshot can saturate its own queue (`queue_full` for *its* clients)
//! without starving requests to any other snapshot, which is the
//! isolation property `tests/tests/serve_shards.rs` pins. Temporal and
//! sybil shards keep two more caches of the same type: materialized day
//! graphs and rendered `detect` replies.
//!
//! Re-registering a name swaps the dataset inside the existing shard and
//! keeps its pools warm; stale cache entries age out by LRU because cache
//! keys carry the dataset fingerprint. Compute parallelism (the
//! `ParPool` inside the shared `AnalysisCtx`) stays server-wide: the
//! fork-join pool is scoped per call, so concurrent shards never block
//! each other there — the scarce resources a shard isolates are queue
//! slots and worker threads.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use verified_net::{Dataset, VnetError};
use vnet_graph::NodeId;
use vnet_obs::Obs;
use vnet_synth::PlantedLabels;
use vnet_temporal::Timeline;

use crate::cache::{CacheKey, CachedSection, FlightCache, Outcome, Source};
use crate::executor::{Executor, ExecutorTelemetry};
use crate::protocol::error_reply;
use crate::stats::{ServeStats, ShardStats};

/// Materialized day-graphs kept hot per temporal shard. Small on purpose:
/// each entry is a full CSR + profiles clone; the section cache above it
/// is what absorbs repeat traffic.
const DAY_CACHE_CAPACITY: usize = 4;

/// Rendered `detect` payloads kept per sybil shard, keyed `(day, top_k)`.
/// Detection replays the full pipeline over every node, so even a tiny
/// LRU absorbs the repeat traffic of a day-sweep.
const DETECT_CACHE_CAPACITY: usize = 8;

/// Per-shard resource bounds, fixed at registration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardLimits {
    /// Worker threads in the shard's executor.
    pub(crate) workers: usize,
    /// Waiting slots in the executor's bounded queue.
    pub(crate) queue_depth: usize,
    /// LRU result-cache entries.
    pub(crate) cache_capacity: usize,
}

/// The swappable dataset inside a shard.
pub(crate) struct SnapshotData {
    pub(crate) dataset: Dataset,
    pub(crate) fingerprint: u64,
}

/// The adversarial side of a shard: the planted ground truth and the
/// per-day follow attribution the detection pipeline consumes. Present
/// only when the snapshot was registered with `sybil:true` (which in turn
/// requires `churn_days`, so this always lives inside a
/// [`TemporalState`]).
pub(crate) struct SybilState {
    /// Which node ids are planted fakes (and who bought them).
    pub(crate) labels: PlantedLabels,
    /// `daily_follows[d]` = the `(source, target)` follow events of churn
    /// day `d + 1`, in event order — the burst scorer's attribution.
    pub(crate) daily_follows: Vec<Vec<(NodeId, NodeId)>>,
    /// Rendered detection payloads keyed `(day, top_k)`.
    pub(crate) replies: FlightCache<(u32, usize), CachedSection>,
}

impl SybilState {
    pub(crate) fn new(
        labels: PlantedLabels,
        daily_follows: Vec<Vec<(NodeId, NodeId)>>,
    ) -> Self {
        Self { labels, daily_follows, replies: FlightCache::new(DETECT_CACHE_CAPACITY) }
    }
}

/// The temporal side of a shard: the churn [`Timeline`] built at
/// registration plus a tiny LRU of materialized day-datasets. Present only
/// when the snapshot was registered with `churn_days`.
pub(crate) struct TemporalState {
    pub(crate) timeline: Timeline,
    /// Churn master seed (reported in `status`).
    pub(crate) seed: u64,
    /// Planted sybil workload, when registered with `sybil:true`.
    pub(crate) sybil: Option<SybilState>,
    days: FlightCache<u32, SnapshotData>,
}

impl TemporalState {
    pub(crate) fn new(timeline: Timeline, seed: u64, sybil: Option<SybilState>) -> Self {
        Self { timeline, seed, sybil, days: FlightCache::new(DAY_CACHE_CAPACITY) }
    }

    /// The dataset as of end of churn `day`: the base snapshot with its
    /// graph replaced by the timeline's materialization. The replay runs
    /// once per day however many requests want it concurrently; a
    /// [`Source::Computed`] lookup is one fresh materialization.
    pub(crate) fn day_data(
        &self,
        day: u32,
        base: &SnapshotData,
    ) -> (Source, Outcome<SnapshotData>) {
        self.days.get_or_compute(day, || {
            let graph = self
                .timeline
                .graph_as_of(day)
                .map_err(|e| error_reply(&VnetError::InvalidInput(e)))?;
            let dataset = Dataset { graph, ..base.dataset.clone() };
            let fingerprint = dataset.fingerprint();
            Ok(SnapshotData { dataset, fingerprint })
        })
    }
}

/// One snapshot's serving resources.
pub(crate) struct Shard {
    pub(crate) name: String,
    data: Mutex<Arc<SnapshotData>>,
    temporal: Mutex<Option<Arc<TemporalState>>>,
    pub(crate) executor: Executor,
    /// Section payloads, keyed by their full provenance.
    pub(crate) cache: FlightCache<CacheKey, CachedSection>,
    /// This shard's labelled hot-path counters (interned once here; the
    /// request path records through them lock-free).
    pub(crate) stats: ShardStats,
}

impl Shard {
    fn new(
        name: &str,
        dataset: Dataset,
        limits: ShardLimits,
        obs: Arc<Obs>,
        stats: &ServeStats,
    ) -> Self {
        let fingerprint = dataset.fingerprint();
        let exec_telemetry = ExecutorTelemetry::new(Arc::clone(&stats.telemetry), name);
        Self {
            name: name.to_string(),
            data: Mutex::new(Arc::new(SnapshotData { dataset, fingerprint })),
            temporal: Mutex::new(None),
            executor: Executor::new(limits.workers, limits.queue_depth, obs, name, exec_telemetry),
            cache: FlightCache::new(limits.cache_capacity),
            stats: stats.shard_stats(name),
        }
    }

    /// The shard's current dataset (an `Arc` snapshot: a concurrent
    /// re-register cannot swap a dataset out from under a running job).
    pub(crate) fn data(&self) -> Arc<SnapshotData> {
        Arc::clone(&self.data.lock().expect("shard data lock"))
    }

    fn swap_data(&self, dataset: Dataset) -> u64 {
        let fingerprint = dataset.fingerprint();
        *self.data.lock().expect("shard data lock") =
            Arc::new(SnapshotData { dataset, fingerprint });
        fingerprint
    }

    /// The shard's temporal state, when it was registered with churn.
    pub(crate) fn temporal(&self) -> Option<Arc<TemporalState>> {
        self.temporal.lock().expect("shard temporal lock").clone()
    }

    fn set_temporal(&self, state: Option<TemporalState>) {
        *self.temporal.lock().expect("shard temporal lock") = state.map(Arc::new);
    }
}

/// Name → shard map. Shards are created at registration and live until
/// server shutdown (their executors are drained and joined there).
#[derive(Default)]
pub(crate) struct ShardRegistry {
    shards: Mutex<BTreeMap<String, Arc<Shard>>>,
}

impl ShardRegistry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register (or refresh) `name`, returning the dataset fingerprint.
    /// First registration builds the shard's executor and cache;
    /// re-registration swaps the dataset and keeps the pools warm.
    pub(crate) fn register(
        &self,
        name: &str,
        dataset: Dataset,
        temporal: Option<TemporalState>,
        limits: ShardLimits,
        obs: &Arc<Obs>,
        stats: &ServeStats,
    ) -> u64 {
        let mut shards = self.shards.lock().expect("shard registry lock");
        if let Some(shard) = shards.get(name) {
            let fingerprint = shard.swap_data(dataset);
            shard.set_temporal(temporal);
            return fingerprint;
        }
        let shard = Arc::new(Shard::new(name, dataset, limits, Arc::clone(obs), stats));
        shard.set_temporal(temporal);
        let fingerprint = shard.data().fingerprint;
        shards.insert(name.to_string(), Arc::clone(&shard));
        obs.set_counter("serve.snapshots", &[], shards.len() as u64);
        fingerprint
    }

    /// Look up one shard.
    pub(crate) fn get(&self, name: &str) -> Option<Arc<Shard>> {
        self.shards.lock().expect("shard registry lock").get(name).cloned()
    }

    /// Every shard, in name order (BTreeMap: deterministic iteration for
    /// status replies and shutdown).
    pub(crate) fn all(&self) -> Vec<Arc<Shard>> {
        self.shards.lock().expect("shard registry lock").values().cloned().collect()
    }

    /// Registered snapshot names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        self.shards.lock().expect("shard registry lock").keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verified_net::{AnalysisCtx, SynthesisConfig};

    fn dataset() -> Dataset {
        Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet())
    }

    const LIMITS: ShardLimits =
        ShardLimits { workers: 1, queue_depth: 1, cache_capacity: 4 };

    fn stats() -> ServeStats {
        ServeStats::new(Arc::new(vnet_obs::Telemetry::new(2)))
    }

    #[test]
    fn register_creates_then_refreshes_one_shard() {
        let registry = ShardRegistry::new();
        let obs = Arc::new(Obs::new());
        let stats = stats();
        let ds = dataset();
        let fp = registry.register("a", ds.clone(), None, LIMITS, &obs, &stats);
        assert_eq!(fp, ds.fingerprint());
        assert_eq!(registry.names(), vec!["a".to_string()]);
        let shard = registry.get("a").expect("shard exists");

        // Warm the cache, then re-register: the shard object (and its
        // cache) survives, only the dataset handle is swapped.
        let key = crate::cache::CacheKey {
            dataset: fp,
            options: 1,
            section: verified_net::Section::Basic,
            day: None,
        };
        let (_, warmed) = shard.cache.get_or_compute(key, || {
            Ok(CachedSection { payload_json: "{}".to_string(), fingerprint: 0 })
        });
        assert!(warmed.is_ok());
        let fp2 = registry.register("a", ds.clone(), None, LIMITS, &obs, &stats);
        assert_eq!(fp2, fp);
        let again = registry.get("a").expect("shard exists");
        assert!(Arc::ptr_eq(&shard, &again), "re-register rebuilt the shard");
        assert_eq!(again.cache.len(), 1, "cache was dropped");
        assert_eq!(obs.metrics().counter("serve.snapshots", &[]), 1);

        // Shutdown the executor so its worker threads are joined.
        shard.executor.shutdown_and_join(String::new);
    }

    #[test]
    fn shards_are_isolated_objects() {
        let registry = ShardRegistry::new();
        let obs = Arc::new(Obs::new());
        let stats = stats();
        let ds = dataset();
        registry.register("a", ds.clone(), None, LIMITS, &obs, &stats);
        registry.register("b", ds, None, LIMITS, &obs, &stats);
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        let a = registry.get("a").expect("a");
        let b = registry.get("b").expect("b");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.data().fingerprint, b.data().fingerprint, "same dataset");
        assert_eq!(obs.metrics().counter("serve.snapshots", &[]), 2);
        assert!(registry.get("c").is_none());
        for shard in registry.all() {
            shard.executor.shutdown_and_join(String::new);
        }
    }
}
