//! Pre-registered telemetry handles for the serve hot path.
//!
//! Every metric the request path records per-request lives here as an
//! interned [`Telemetry`] handle, registered once at server (or shard)
//! construction — the hot path does atomic adds through the handles and
//! never formats a label string or takes the registry mutex (the old
//! path did both on every request; see `vnet_obs::telemetry`). Cold-path
//! metrics — connection lifecycle, cache evictions and entry counts,
//! drains, panics — stay on the plain [`Obs`] registry calls where the
//! lock cost is irrelevant.
//!
//! The split is invisible to readers: the server attaches its
//! [`Telemetry`] to its [`Obs`], so every snapshot (`metrics`, `status`,
//! manifests, prom exposition) sees one merged registry with the same
//! canonical keys the old code wrote.
//!
//! ## Staged latency
//!
//! The request path is instrumented as five wall-clock stages, each a
//! power-of-two-bucket histogram `serve.stage_wall_micros{stage=…}`:
//!
//! | stage       | measures                                              |
//! |-------------|-------------------------------------------------------|
//! | `framing`   | first byte of a request line → complete line          |
//! | `admission` | token-bucket `try_admit` (the front-door gate)        |
//! | `queue`     | executor submit → a worker picks the job up           |
//! | `execute`   | worker picks up → reply string ready                  |
//! | `write`     | reply bytes → socket flushed                          |
//!
//! The metric name ends in `wall_micros`, so these histograms are
//! scrubbed from `RunManifest::deterministic_view` by the established
//! convention — wall-clock is for profiling, never for fingerprints.
//! `framing` and `write` are recorded *after* the reply is flushed, so a
//! `metrics` reply never includes its own request's samples.

use std::sync::Arc;
use std::time::Instant;

use vnet_obs::{pow2_buckets, CounterId, HistogramId, Telemetry, DEFAULT_BUCKETS};

/// Bucket exponent for stage latencies: 2⁰ … 2²⁶ µs spans 1 µs to ~67 s
/// with ≤ 2× relative error, HDR-style.
const STAGE_BUCKET_MAX_EXP: u32 = 26;

/// The five stages of the request path, in path order. Each has a
/// `serve.stage_wall_micros{stage=…}` histogram; load tools iterate
/// this to pull the per-stage breakdown out of a `metrics` reply.
pub const STAGES: [&str; 5] = ["framing", "admission", "queue", "execute", "write"];

/// Global (unlabelled) hot-path handles plus the stage histograms.
pub(crate) struct ServeStats {
    pub(crate) telemetry: Arc<Telemetry>,
    /// `serve.requests` — admitted `analyze` and `detect` requests
    /// (global).
    pub(crate) requests: CounterId,
    /// `serve.admitted` — same population, kept for the admission tests'
    /// contract.
    pub(crate) admitted: CounterId,
    /// `serve.rejected{reason=rate_limited}`.
    pub(crate) rejected_rate_limited: CounterId,
    /// `serve.rejected{reason=queue_full}` (global; the per-shard twin
    /// lives in [`ShardStats`]).
    pub(crate) rejected_queue_full: CounterId,
    /// `serve.rejected{reason=timeout}` — requests that outlived their
    /// compute budget.
    pub(crate) rejected_timeout: CounterId,
    /// `serve.detect_requests` — admitted `detect` requests.
    pub(crate) detect_requests: CounterId,
    /// `serve.cancelled_jobs` — jobs that observed their cancellation
    /// flag and stopped early.
    pub(crate) cancelled_jobs: CounterId,
    /// `cache.hits` (global).
    pub(crate) cache_hits: CounterId,
    /// `cache.misses` (global) — lookups that led a computation.
    pub(crate) cache_misses: CounterId,
    /// `serve.asof_cache_hits` — section-cache hits served for an
    /// `as_of` (time-travel) request; the delta-aware cache's win metric.
    pub(crate) asof_cache_hits: CounterId,
    /// `serve.asof_materializations` — day graphs actually replayed and
    /// materialized (the cost the day cache and section cache amortize).
    pub(crate) asof_materializations: CounterId,
    /// `serve.coalesced` (global).
    pub(crate) coalesced: CounterId,
    /// `serve.retry_after_ms` — decade buckets, matching the registry's
    /// defaults so the manifest histogram is byte-identical to the old
    /// recording path (values are integral milliseconds: integer sums
    /// equal the f64 sums exactly).
    pub(crate) retry_after_ms: HistogramId,
    pub(crate) stage_framing: HistogramId,
    pub(crate) stage_admission: HistogramId,
    pub(crate) stage_write: HistogramId,
}

impl ServeStats {
    /// Register every global handle on `telemetry`.
    pub(crate) fn new(telemetry: Arc<Telemetry>) -> Self {
        let stage = |name: &str| {
            telemetry.histogram(
                "serve.stage_wall_micros",
                &[("stage", name)],
                &pow2_buckets(STAGE_BUCKET_MAX_EXP),
            )
        };
        Self {
            requests: telemetry.counter("serve.requests", &[]),
            admitted: telemetry.counter("serve.admitted", &[]),
            rejected_rate_limited: telemetry
                .counter("serve.rejected", &[("reason", "rate_limited")]),
            rejected_queue_full: telemetry.counter("serve.rejected", &[("reason", "queue_full")]),
            rejected_timeout: telemetry.counter("serve.rejected", &[("reason", "timeout")]),
            detect_requests: telemetry.counter("serve.detect_requests", &[]),
            cancelled_jobs: telemetry.counter("serve.cancelled_jobs", &[]),
            cache_hits: telemetry.counter("cache.hits", &[]),
            cache_misses: telemetry.counter("cache.misses", &[]),
            asof_cache_hits: telemetry.counter("serve.asof_cache_hits", &[]),
            asof_materializations: telemetry.counter("serve.asof_materializations", &[]),
            coalesced: telemetry.counter("serve.coalesced", &[]),
            retry_after_ms: telemetry.histogram("serve.retry_after_ms", &[], &DEFAULT_BUCKETS),
            stage_framing: stage("framing"),
            stage_admission: stage("admission"),
            stage_write: stage("write"),
            telemetry,
        }
    }

    /// Per-shard labelled handles for a (re-)registered shard; idempotent
    /// because telemetry registration dedups by canonical key.
    pub(crate) fn shard_stats(&self, shard: &str) -> ShardStats {
        let labels: &[(&str, &str)] = &[("shard", shard)];
        ShardStats {
            requests: self.telemetry.counter("serve.requests", labels),
            hits: self.telemetry.counter("cache.hits", labels),
            misses: self.telemetry.counter("cache.misses", labels),
            coalesced: self.telemetry.counter("serve.coalesced", labels),
            rejected_queue_full: self
                .telemetry
                .counter("serve.rejected", &[("reason", "queue_full"), ("shard", shard)]),
        }
    }

    /// Record a stage duration measured from `started`.
    pub(crate) fn observe_stage(&self, stage: &HistogramId, started: Instant) {
        self.telemetry.observe(stage, started.elapsed().as_micros() as u64);
    }
}

/// One shard's labelled hot-path counters (held inside the `Shard`).
pub(crate) struct ShardStats {
    /// `serve.requests{shard=…}`.
    pub(crate) requests: CounterId,
    /// `cache.hits{shard=…}`.
    pub(crate) hits: CounterId,
    /// `cache.misses{shard=…}` (section cache only).
    pub(crate) misses: CounterId,
    /// `serve.coalesced{shard=…}`.
    pub(crate) coalesced: CounterId,
    /// `serve.rejected{reason=queue_full,shard=…}`.
    pub(crate) rejected_queue_full: CounterId,
}
