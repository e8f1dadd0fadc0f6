//! `serve-session`: closed-loop analyst sessions against a time-travel,
//! sybil-planted snapshot.
//!
//! Set-up registers a small-tier snapshot over the wire with
//! `churn_days` and `sybil:true`. Then `nproc` callers, one connection
//! each, walk seeded scripts of v1 `analyze` requests (`as_of` spread
//! over the whole horizon, mostly distinct option seeds) and `detect`
//! requests (`as_of`, `top_k`), plus a minority of repeats, each waiting
//! for its reply. Most requests miss every serve cache (section cache,
//! the 4-entry day-graph LRU, the 8-entry detect LRU), so temporal
//! materialization and detection do the work that `serve-hot` never
//! does, through the same serve layers.
//!
//! After the window, every reply is diffed against an in-process replay:
//! the same churn timeline built with `Timeline::build`, each distinct
//! day materialized with `Timeline::graph_as_of`, each key computed with
//! `run_analysis_section` or `run_detection`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verified_net::{AnalysisCtx, Dataset, Section, SynthesisConfig};
use vnet_graph::NodeId;
use vnet_obs::{fingerprint_str, Obs};
use vnet_par::ParPool;
use vnet_serve::{Server, ServerConfig, ServerHandle};
use vnet_synth::{inject_sybil, ChurnConfig, ChurnEvent, ChurnStream, SybilConfig};
use vnet_temporal::{EngineConfig, Timeline};

use crate::report::Outcome;
use crate::stats::{median, mix, Summary};
use crate::wire::{self, Conn, ServerReading};
use crate::{nproc, Args};

const SNAPSHOT: &str = "session";
/// Churn horizon registered with the snapshot.
pub const CHURN_DAYS: u32 = 21;
/// Churn seed registered with the snapshot: the churn stream's default.
/// Fixed, so every run replays the same timeline and the workload seed
/// drives the scripts only.
const CHURN_SEED: u64 = 0xC0FFEE;
/// Sections analysts ask for: the repository's `serve_load` soak mix
/// (`MIX_SECTIONS`), the only record of requested sections it keeps.
const SECTIONS: [Section; 4] = [
    Section::Basic,
    Section::Reciprocity,
    Section::Separation,
    Section::Degrees,
];
/// `top_k` of `detect` requests: the documented default (docs/API.md).
const TOP_K: usize = 20;
/// Script mix, as a deck of request kinds that each caller shuffles and
/// deals out, one deck after another: 70 % `analyze` (7 cards per
/// section), 20 % `detect`, 10 % repeats of an earlier request of the
/// same caller. A deck makes the mix exact in every run, so the seed
/// changes the order and the arguments of requests, not their shares.
/// No measured session traffic exists to take the shares from; they are
/// stated assumptions (RATIONALE.md).
const ANALYZE_CARDS_PER_SECTION: usize = 7;
const DETECT_CARDS: usize = 8;
const REPEAT_CARDS: usize = 4;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_ROUNDS: usize = 9;
/// The server's timeline checkpoint stride and engine cadence (the
/// values `register` uses; the replay must match them).
const STRIDE: u32 = 7;

/// One scripted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Req {
    Analyze { day: u32, section: usize, seed: u64 },
    Detect { day: u32 },
}

impl Req {
    fn day(&self) -> u32 {
        match *self {
            Req::Analyze { day, .. } | Req::Detect { day, .. } => day,
        }
    }

    fn line(&self, client: &str) -> String {
        match *self {
            Req::Analyze { day, section, seed } => {
                wire::analyze_line(SNAPSHOT, SECTIONS[section], seed, client, Some(day))
            }
            Req::Detect { day } => wire::detect_line(SNAPSHOT, client, day, TOP_K),
        }
    }
}

/// One card of the script deck.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Card {
    Analyze(usize),
    Detect,
    Repeat,
}

/// The unshuffled deck.
fn deck() -> Vec<Card> {
    let mut cards: Vec<Card> = (0..SECTIONS.len())
        .flat_map(|s| [Card::Analyze(s); ANALYZE_CARDS_PER_SECTION])
        .collect();
    cards.extend([Card::Detect; DETECT_CARDS]);
    cards.extend([Card::Repeat; REPEAT_CARDS]);
    cards
}

/// A caller's seeded script: an endless stream of requests drawn from
/// the workload seed, so a run never runs out of requests however fast
/// the server answers.
pub struct Script {
    rng: StdRng,
    hand: Vec<Card>,
    sent: Vec<Req>,
}

/// Caller `caller`'s script.
pub fn script(seed: u64, caller: usize) -> Script {
    Script {
        rng: StdRng::seed_from_u64(mix(seed, 40 + caller as u64)),
        hand: Vec::new(),
        sent: Vec::new(),
    }
}

impl Iterator for Script {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.hand.is_empty() {
            self.hand = deck();
            // Fisher-Yates.
            for i in (1..self.hand.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.hand.swap(i, j);
            }
            if self.sent.is_empty() {
                // The first request cannot repeat one: deal a fresh card
                // first (the hand is dealt from the back).
                let fresh = self.hand.iter().rposition(|c| *c != Card::Repeat);
                let last = self.hand.len() - 1;
                self.hand
                    .swap(fresh.expect("the deck has fresh cards"), last);
            }
        }
        let rng = &mut self.rng;
        let day = rng.random_range(0..=CHURN_DAYS);
        let req = match self.hand.pop().expect("a dealt hand") {
            Card::Analyze(section) => Req::Analyze {
                day,
                section,
                seed: rng.random_range(0..1u64 << 32),
            },
            Card::Detect => Req::Detect { day },
            Card::Repeat => self.sent[rng.random_range(0..self.sent.len())],
        };
        self.sent.push(req);
        Some(req)
    }
}

/// Start a server and register the small-tier snapshot over the wire
/// with the churn horizon and the planted sybil workload.
fn setup() -> Result<ServerHandle, String> {
    let handle = Server::start(ServerConfig {
        threads: nproc(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let register = format!(
        "{{\"v\":1,\"cmd\":\"register\",\"name\":\"{SNAPSHOT}\",\"scale\":\"small\",\"churn_days\":{CHURN_DAYS},\"churn_seed\":{CHURN_SEED},\"sybil\":true}}",
    );
    let reply = Conn::open(handle.local_addr())
        .and_then(|mut c| c.call(&register).map(str::to_string))
        .map_err(|e| format!("register: {e}"))?;
    if !reply.starts_with("{\"ok\":true") {
        return Err(format!("register failed: {reply}"));
    }
    Ok(handle)
}

/// One answered request.
struct Answer {
    req: Req,
    latency_ms: f64,
    reply_fp: u64,
    refused: bool,
}

/// A caller: send the script in order, one request in flight, until the
/// window closes.
fn caller(
    addr: std::net::SocketAddr,
    script: Script,
    client: &str,
    start: Instant,
    window: f64,
) -> Result<Vec<Answer>, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::new();
    for req in script {
        if start.elapsed().as_secs_f64() >= window {
            return Ok(out);
        }
        let line = req.line(client);
        let sent = Instant::now();
        let reply = conn.call(&line).map_err(|e| format!("{line}: {e}"))?;
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        out.push(Answer {
            req,
            latency_ms,
            reply_fp: fingerprint_str(reply),
            refused: wire::is_refusal(reply),
        });
    }
    unreachable!("a script never ends")
}

/// The in-process replay of the registered snapshot.
struct Replay {
    timeline: Timeline,
    base: Dataset,
    daily_follows: Vec<Vec<(NodeId, NodeId)>>,
    sybils: Vec<NodeId>,
    build_s: f64,
}

/// Rebuild exactly what `register` built: build the small tier, plant the
/// default sybil workload, replay the churn stream into a timeline and
/// record each day's follow events.
fn replay(ctx: &AnalysisCtx) -> Result<Replay, String> {
    let built = Dataset::build(&SynthesisConfig::small(), ctx);
    let workload = inject_sybil(&built.graph, &SybilConfig::default());
    let base = Dataset {
        graph: workload.graph.clone(),
        ..built
    };
    let churn = ChurnConfig {
        seed: CHURN_SEED,
        ..ChurnConfig::default()
    };
    let engine = EngineConfig {
        compact_every: STRIDE,
        refit_every: STRIDE,
        pagerank: None,
    };
    let started = Instant::now();
    let mut stream = ChurnStream::from_graph(&base.graph, churn);
    workload.attach(&mut stream);
    let timeline = Timeline::build(stream, engine, CHURN_DAYS, STRIDE, ctx);
    let build_s = started.elapsed().as_secs_f64();
    let mut stream = ChurnStream::from_graph(&base.graph, churn);
    workload.attach(&mut stream);
    let daily_follows = (0..CHURN_DAYS)
        .map(|_| {
            stream
                .next_day()
                .events
                .iter()
                .filter_map(|e| match e {
                    ChurnEvent::Follow { source, target } => Some((*source, *target)),
                    _ => None,
                })
                .collect()
        })
        .collect();
    Ok(Replay {
        timeline,
        base,
        daily_follows,
        sybils: workload.labels.sybils(),
        build_s,
    })
}

/// Expected reply fingerprints for every distinct request, with the
/// replay's per-call timings.
struct Oracle {
    expected: BTreeMap<Req, u64>,
    as_of_ms: Vec<f64>,
    detect_ms: Vec<f64>,
}

fn oracle_days(
    r: &Replay,
    reqs: &BTreeSet<Req>,
    days: &[u32],
    ctx: &AnalysisCtx,
) -> Result<Oracle, String> {
    let mut o = Oracle {
        expected: BTreeMap::new(),
        as_of_ms: vec![],
        detect_ms: vec![],
    };
    for &day in days {
        let started = Instant::now();
        let graph = r
            .timeline
            .graph_as_of(day)
            .map_err(|e| format!("graph_as_of({day}): {e}"))?;
        o.as_of_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let ds = Dataset {
            graph,
            ..r.base.clone()
        };
        let fp = ds.fingerprint();
        for req in reqs.iter().filter(|q| q.day() == day) {
            let reply = match *req {
                Req::Analyze { section, seed, .. } => wire::analyze_oracle(
                    SNAPSHOT,
                    &ds,
                    fp,
                    Some(day),
                    SECTIONS[section],
                    seed,
                    ctx,
                )?,
                Req::Detect { .. } => {
                    let started = Instant::now();
                    let reply = wire::detect_oracle(
                        SNAPSHOT,
                        &ds.graph,
                        fp,
                        &r.daily_follows,
                        &r.sybils,
                        day,
                        TOP_K,
                        ctx,
                    );
                    o.detect_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    reply
                }
            };
            o.expected.insert(*req, fingerprint_str(&reply));
        }
    }
    Ok(o)
}

/// The oracle over every distinct request. With a recording context it
/// runs on one thread (the tracer is single-writer); otherwise the days
/// are split over `nproc` threads, each with a serial context.
fn oracle(
    r: &Replay,
    reqs: &BTreeSet<Req>,
    traced: Option<&AnalysisCtx>,
) -> Result<Oracle, String> {
    let days: Vec<u32> = reqs
        .iter()
        .map(Req::day)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    if let Some(ctx) = traced {
        return oracle_days(r, reqs, &days, ctx);
    }
    let threads = nproc();
    let parts: Vec<Vec<u32>> = (0..threads)
        .map(|t| days.iter().copied().skip(t).step_by(threads).collect())
        .collect();
    let results: Vec<Result<Oracle, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter()
            .map(|p| s.spawn(move || oracle_days(r, reqs, p, &AnalysisCtx::quiet())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut all = Oracle {
        expected: BTreeMap::new(),
        as_of_ms: vec![],
        detect_ms: vec![],
    };
    for part in results {
        let part = part?;
        all.expected.extend(part.expected);
        all.as_of_ms.extend(part.as_of_ms);
        all.detect_ms.extend(part.detect_ms);
    }
    Ok(all)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let callers = nproc();
    out.provenance
        .push(("churn_days".into(), CHURN_DAYS.to_string()));
    out.provenance.push(("callers".into(), callers.to_string()));
    out.provenance.push(("loop".into(), "\"closed\"".into()));
    if let Err(e) = measure(args, callers, &mut out) {
        out.error(e);
    }
    out
}

fn measure(args: &Args, callers: usize, out: &mut Outcome) -> Result<(), String> {
    let mut setup_times = Vec::new();
    let mut handle: Option<ServerHandle> = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(h) = handle.take() {
            h.shutdown();
            h.join();
        }
        let started = Instant::now();
        handle = Some(setup()?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let handle = handle.expect("set-up ran");
    out.setup_metric(
        &setup_times,
        &format!("server start, register small tier with churn_days={CHURN_DAYS} and sybil"),
    );
    if args.trace {
        // The server built the dataset on its own recording context.
        crate::batch::setup_layers(&handle.obs_handle(), out);
    }

    let obs = handle.obs_handle();
    let addr = handle.local_addr();
    let before = ServerReading::take(&obs);
    let start = Instant::now();
    let results: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let sc = script(args.seed, c);
                s.spawn(move || caller(addr, sc, &format!("analyst-{c}"), start, args.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let reading = ServerReading::take(&obs).since(&before);
    // Peak memory of the served workload, before the oracle replay.
    crate::batch::peak_rss(out);
    handle.shutdown();
    handle.join();
    let mut answers = Vec::new();
    for r in results {
        answers.extend(r?);
    }

    // Correctness: every reply against the in-process replay.
    let oracle_obs = Arc::new(Obs::new());
    let oracle_ctx = if args.trace {
        AnalysisCtx::new(ParPool::new(nproc()), Arc::clone(&oracle_obs))
    } else {
        AnalysisCtx::with_threads(nproc())
    };
    let started = Instant::now();
    let replayed = replay(&oracle_ctx)?;
    let distinct: BTreeSet<Req> = answers.iter().map(|a| a.req).collect();
    let oracle = oracle(&replayed, &distinct, args.trace.then_some(&oracle_ctx))?;
    out.lines.push(format!(
        "oracle replay: {:.3} s",
        started.elapsed().as_secs_f64()
    ));
    out.attempted = answers.len() as u64;
    for a in &answers {
        if a.reply_fp != oracle.expected[&a.req] {
            out.failed += 1;
            if !a.refused {
                out.error(format!(
                    "reply to {:?} diverged from the replay oracle",
                    a.req
                ));
            }
        }
    }
    let latencies: Vec<f64> = answers
        .iter()
        .filter(|a| !a.refused)
        .map(|a| a.latency_ms)
        .collect();
    let detects = answers
        .iter()
        .filter(|a| matches!(a.req, Req::Detect { .. }))
        .count();
    out.lines.push(format!(
        "window {window_s:.3} s: {} replies ({} analyze, {detects} detect), {} distinct requests, {} distinct days",
        answers.len(),
        answers.len() - detects,
        distinct.len(),
        distinct.iter().map(Req::day).collect::<BTreeSet<_>>().len(),
    ));
    out.lines
        .push(format!("replies: {}", crate::stats::describe(&latencies)));
    let kinds = SECTIONS.iter().map(|s| s.id()).chain(["detect"]);
    for (i, kind) in kinds.enumerate() {
        let of_kind: Vec<f64> = answers
            .iter()
            .filter(|a| !a.refused)
            .filter(|a| match a.req {
                Req::Analyze { section, .. } => section == i,
                Req::Detect { .. } => i == SECTIONS.len(),
            })
            .map(|a| a.latency_ms)
            .collect();
        if !of_kind.is_empty() {
            out.lines.push(format!(
                "  {kind:<12} n={} p50={:.3} ms",
                of_kind.len(),
                median(&of_kind)
            ));
        }
    }
    let s = Summary::at(&latencies, 0.9)
        .ok_or_else(|| format!("{} replies: too few for p90", latencies.len()))?;
    out.metric(
        "p50_ms",
        s.p50,
        format!("closed loop, {callers} callers, n={}", s.n),
    );
    out.metric(
        "tail_ms",
        s.tail,
        format!("p90, n={} ({} beyond)", s.n, crate::stats::beyond(s.n, 0.9)),
    );
    out.lines.push(format!(
        "throughput_rps {:.3}: replies per second over the {window_s:.3} s window",
        answers.len() as f64 / window_s
    ));

    if args.trace {
        crate::hot::serve_layers(out, &latencies, &reading);
        out.metric(
            "temporal.timeline_build_s",
            replayed.build_s,
            "benchmark-timed Timeline::build",
        );
        out.metric(
            "temporal.graph_as_of_ms",
            median(&oracle.as_of_ms),
            format!(
                "median benchmark-timed Timeline::graph_as_of, n={} distinct days",
                oracle.as_of_ms.len()
            ),
        );
        let materialized = reading.counter("serve.asof_materializations");
        out.metric(
            "temporal.asof_materializations",
            materialized as f64,
            "counter serve.asof_materializations over the window",
        );
        // Day-graph lookups: every analyze reaches the day cache; a detect
        // only on a detect-cache miss (detect hits = hits - as_of hits).
        let analyzes = (answers.len() - detects) as u64;
        let detect_hits = reading
            .counter("cache.hits")
            .saturating_sub(reading.counter("serve.asof_cache_hits"));
        let lookups = analyzes + (detects as u64).saturating_sub(detect_hits);
        out.metric(
            "temporal.day_cache_hit_ratio",
            if lookups > 0 {
                1.0 - materialized as f64 / lookups as f64
            } else {
                0.0
            },
            format!("1 - materializations / day-graph lookups, base {lookups}"),
        );
        out.metric(
            "detect.run_ms",
            if oracle.detect_ms.is_empty() {
                0.0
            } else {
                median(&oracle.detect_ms)
            },
            format!(
                "median benchmark-timed run_detection + evaluate, n={}",
                oracle.detect_ms.len()
            ),
        );
        // Core and algorithm layers: the analysis work the session's
        // cache misses made the server do, replayed.
        crate::batch::span_layers(&oracle_obs.tracer().spans(), out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(seed: u64, caller: usize, n: usize) -> Vec<Req> {
        script(seed, caller).take(n).collect()
    }

    #[test]
    fn scripts_replay_from_the_seed() {
        let a = first(7, 0, 5000);
        assert_eq!(a, first(7, 0, 5000));
        assert_ne!(a, first(8, 0, 5000));
        assert_ne!(a, first(7, 1, 5000), "callers walk different scripts");
        // A longer draw extends a shorter one: how far a run gets does
        // not change what was asked before.
        assert_eq!(a[..1000], first(7, 0, 1000)[..]);
        assert!(a.iter().all(|r| r.day() <= CHURN_DAYS));
        // Every deck of 40 holds exactly 8 fresh detects; repeats can add
        // a few more.
        let deck = deck().len();
        assert_eq!(deck, 40);
        for chunk in a.chunks(deck) {
            let detects = chunk
                .iter()
                .filter(|r| matches!(r, Req::Detect { .. }))
                .count();
            assert!((DETECT_CARDS..=DETECT_CARDS + REPEAT_CARDS).contains(&detects));
        }
    }
}
