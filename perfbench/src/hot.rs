//! `serve-hot`: open-loop Poisson load of cached `analyze` requests.
//!
//! Not one of the gated workloads in `BENCHMARK.json`: it is run by hand
//! for a claim about serve throughput (`knee_rps`), paired against the
//! parent commit (see `perfbench/RATIONALE.md`).
//!
//! The key set is the one the repository's `serve_load` soak draws from:
//! its two small-tier snapshots × its four sections × three option
//! seeds. Every key is primed before timing, so every timed request is a
//! cache hit and analysis does none of the work: the workload isolates
//! the serve layers (framing, admission, queue, execute, write) and the
//! wire. Admission is on with a quota no rung reaches, so any refusal is
//! a failure.
//!
//! The generator is one process with `nproc` threads, one connection
//! each. Each thread follows its own seeded Poisson schedule, sends on
//! schedule whether or not replies have come back (pipelining), and
//! times every request from when it was due.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verified_net::{AnalysisCtx, Dataset, Section, SynthesisConfig};
use vnet_serve::{AdmissionPolicy, Server, ServerConfig, ServerHandle};

use crate::report::Outcome;
use crate::stats::{knee_rps, mix, poisson_schedule, Rung, Summary, Timing};
use crate::wire::{self, ServerReading};
use crate::{nproc, Args};

/// Snapshots registered: the two small-tier datasets of the repository's
/// soak harness (`crates/bench/src/bin/serve_load.rs`), whose society
/// seeds differ by 1000. They are the same on every run and seed.
const SNAPSHOTS: [&str; 2] = ["hot-a", "hot-b"];
/// Sections the key set draws from: `serve_load`'s `MIX_SECTIONS`.
const SECTIONS: [Section; 4] = [
    Section::Basic,
    Section::Reciprocity,
    Section::Separation,
    Section::Degrees,
];
/// Option seeds per (snapshot, section): as many as `serve_load`'s
/// `MIX_SEEDS`, drawn from the workload seed.
const OPTION_SEEDS: usize = 3;
/// Offered rates, requests per second across all connections. The
/// ladder is a measuring instrument, not observed traffic: 500 rps is
/// the rate of the `serve_load` baseline the fixed rung reproduces, and
/// the upper rungs bracket the knee on a 2-vCPU host.
pub const LADDER: [f64; 12] = [
    500.0, 4000.0, 16000.0, 28000.0, 32000.0, 35000.0, 38000.0, 41000.0, 44000.0, 47000.0, 50000.0,
    54000.0,
];
/// The rung whose latencies are reported as `p50_ms`/`tail_ms`.
pub const FIXED_RATE: f64 = 500.0;
/// Share of the measured time given to the fixed rung (it needs ≥ 1000
/// samples for p99); the other rungs split the rest.
const FIXED_SHARE: f64 = 0.5;
/// The stated latency limit on p99 that defines the knee.
pub const P99_LIMIT_MS: f64 = 50.0;
/// A rung whose generator sent any request later than this is invalid:
/// it did not offer the rate it claims.
pub const LAG_LIMIT_MS: f64 = 50.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

/// One request key: which snapshot, section and options seed.
#[derive(Debug, Clone, Copy)]
struct Key {
    snapshot: usize,
    section: Section,
    seed: u64,
}

fn keys(seed: u64) -> Vec<Key> {
    let mut out = Vec::new();
    for snapshot in 0..SNAPSHOTS.len() {
        for section in SECTIONS {
            for i in 0..OPTION_SEEDS {
                out.push(Key {
                    snapshot,
                    section,
                    seed: mix(seed, 100 + i as u64) % 1_000_000,
                });
            }
        }
    }
    out
}

/// Snapshot `snapshot`'s dataset, built the way `serve_load` builds it.
fn dataset(snapshot: usize) -> Dataset {
    let mut config = SynthesisConfig::small();
    config.society.seed = config.society.seed.wrapping_add(1000 * snapshot as u64);
    Dataset::build(&config, &AnalysisCtx::with_threads(nproc()))
}

fn server_config() -> ServerConfig {
    ServerConfig {
        threads: nproc(),
        admission: Some(AdmissionPolicy {
            requests: 1_000_000_000,
            window_millis: 1_000,
        }),
        ..ServerConfig::default()
    }
}

/// The request line for every key.
fn request_lines(keys: &[Key]) -> Vec<String> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let client = format!("hot-{}", i % 2);
            wire::analyze_line(SNAPSHOTS[k.snapshot], k.section, k.seed, &client, None)
        })
        .collect()
}

/// The exact reply to every key, from an in-process oracle on the
/// datasets about to be registered.
fn expected_replies(datasets: &[Dataset], keys: &[Key]) -> Result<Vec<String>, String> {
    let ctx = AnalysisCtx::quiet();
    let fingerprints: Vec<u64> = datasets.iter().map(Dataset::fingerprint).collect();
    keys.iter()
        .map(|k| {
            wire::analyze_oracle(
                SNAPSHOTS[k.snapshot],
                &datasets[k.snapshot],
                fingerprints[k.snapshot],
                None,
                k.section,
                k.seed,
                &ctx,
            )
        })
        .collect()
}

/// One set-up round: build, start, register and prime. Returns the
/// running server and the round's set-up seconds. With `oracle`, the
/// expected replies are also computed, untimed, from the very datasets
/// the server is given, so no second copy of them is ever built.
fn setup(keys: &[Key], oracle: Option<&mut Vec<String>>) -> Result<(ServerHandle, f64), String> {
    let started = Instant::now();
    let datasets: Vec<Dataset> = (0..SNAPSHOTS.len()).map(dataset).collect();
    let build_s = started.elapsed().as_secs_f64();
    if let Some(expected) = oracle {
        *expected = expected_replies(&datasets, keys)?;
    }
    let started = Instant::now();
    let handle = Server::start(server_config()).map_err(|e| format!("server start: {e}"))?;
    for (name, ds) in SNAPSHOTS.iter().zip(datasets) {
        handle.register_dataset(name, ds);
    }
    let mut conn = wire::Conn::open(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for k in keys {
        let line = wire::analyze_line(SNAPSHOTS[k.snapshot], k.section, k.seed, "prime", None);
        let reply = conn.call(&line).map_err(|e| format!("prime: {e}"))?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("prime {line} failed: {reply}"));
        }
    }
    Ok((handle, build_s + started.elapsed().as_secs_f64()))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Divergence messages kept per connection; the rest are only counted.
const KEPT_DIVERGENCES: usize = 5;

/// What one connection thread saw on one rung.
#[derive(Debug, Default)]
struct ConnLog {
    timings: Vec<Timing>,
    failed: usize,
    /// Wrong, malformed or missing replies (refusals are only `failed`).
    diverged: usize,
    divergences: Vec<String>,
}

impl ConnLog {
    fn diverge(&mut self, why: String) {
        self.diverged += 1;
        if self.divergences.len() < KEPT_DIVERGENCES {
            self.divergences.push(why);
        }
    }
}

/// Drive one connection through its schedule: send each request when it
/// falls due, read replies as they come, match them in order.
fn drive(
    addr: SocketAddr,
    schedule: &[(f64, usize)],
    requests: &[String],
    expected: &[String],
    start: Instant,
    deadline: f64,
) -> ConnLog {
    let mut log = ConnLog::default();
    let fail_rest = |log: &mut ConnLog, from: usize, why: String| {
        log.failed += schedule.len() - from;
        log.diverge(why);
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            fail_rest(&mut log, 0, format!("connect: {e}"));
            return log;
        }
    };
    if let Err(e) = stream
        .set_nodelay(true)
        .and_then(|_| stream.set_nonblocking(true))
    {
        fail_rest(&mut log, 0, format!("socket setup: {e}"));
        return log;
    }
    let mut sent_at = vec![0.0; schedule.len()];
    let mut outbox: Vec<u8> = Vec::new();
    let mut inbox: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    while next_recv < schedule.len() {
        let now = start.elapsed().as_secs_f64();
        if now > deadline {
            fail_rest(
                &mut log,
                next_recv,
                format!(
                    "{} replies missing at the deadline",
                    schedule.len() - next_recv
                ),
            );
            return log;
        }
        let mut progressed = false;
        while next_send < schedule.len() && schedule[next_send].0 <= now {
            outbox.extend_from_slice(requests[schedule[next_send].1].as_bytes());
            outbox.push(b'\n');
            sent_at[next_send] = start.elapsed().as_secs_f64();
            next_send += 1;
        }
        if !outbox.is_empty() {
            match stream.write(&outbox) {
                Ok(n) => {
                    outbox.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => {
                    fail_rest(&mut log, next_recv, format!("write: {e}"));
                    return log;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                fail_rest(&mut log, next_recv, "server closed the connection".into());
                return log;
            }
            Ok(n) => {
                let done = start.elapsed().as_secs_f64();
                inbox.extend_from_slice(&chunk[..n]);
                while let Some(pos) = inbox.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = inbox.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    let Some(&(due, key)) = schedule.get(next_recv) else {
                        log.diverge(format!("unrequested reply: {line:.200}"));
                        return log;
                    };
                    if line == expected[key] {
                        log.timings.push(Timing {
                            due,
                            sent: sent_at[next_recv],
                            done,
                        });
                    } else {
                        log.failed += 1;
                        if !wire::is_refusal(&line) {
                            log.diverge(format!(
                                "reply to {} diverged from the oracle: {:.200}",
                                requests[key], line
                            ));
                        }
                    }
                    next_recv += 1;
                }
                progressed = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => {
                fail_rest(&mut log, next_recv, format!("read: {e}"));
                return log;
            }
        }
        if !progressed {
            let until_due = schedule
                .get(next_send)
                .map(|&(due, _)| due - start.elapsed().as_secs_f64())
                .unwrap_or(1.0);
            let nap = until_due.clamp(0.0, 100e-6);
            if nap > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(nap));
            }
        }
    }
    log
}

/// Offer `rate` for `duration` seconds over `nproc` connections.
fn run_rung(
    addr: SocketAddr,
    seed: u64,
    rung: usize,
    rate: f64,
    duration: f64,
    requests: &[String],
    expected: &[String],
) -> (Rung, usize, Vec<String>) {
    let conns = nproc();
    let schedules: Vec<Vec<(f64, usize)>> = (0..conns)
        .map(|c| {
            let stream = mix(seed, 1000 + (rung * 64 + c) as u64);
            let mut pick = StdRng::seed_from_u64(mix(stream, 1));
            poisson_schedule(stream, rate / conns as f64, duration)
                .into_iter()
                .map(|t| (t, pick.random_range(0..requests.len())))
                .collect()
        })
        .collect();
    let start = Instant::now();
    let deadline = duration + 10.0;
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|sched| s.spawn(move || drive(addr, sched, requests, expected, start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut timings: Vec<Timing> = logs
        .iter()
        .flat_map(|l| l.timings.iter().copied())
        .collect();
    timings.sort_by(|a, b| a.due.total_cmp(&b.due));
    let attempted = schedules.iter().map(Vec::len).sum();
    let last_done = timings.iter().map(|t| t.done).fold(0.0, f64::max);
    let first_due = timings.first().map(|t| t.due).unwrap_or(0.0);
    let rung = Rung {
        rate,
        attempted,
        failed: logs.iter().map(|l| l.failed).sum(),
        latencies: timings.iter().map(Timing::latency_ms).collect(),
        lag_max_ms: timings.iter().map(Timing::lag_ms).fold(0.0, f64::max),
        achieved_rps: timings.len() as f64 / (last_done - first_due).max(1e-9),
    };
    let diverged = logs.iter().map(|l| l.diverged).sum();
    (
        rung,
        diverged,
        logs.into_iter().flat_map(|l| l.divergences).collect(),
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let keys = keys(args.seed);
    let ladder: Vec<String> = LADDER.iter().map(|r| format!("{r:?}")).collect();
    out.provenance
        .push(("rate_ladder_rps".into(), format!("[{}]", ladder.join(","))));
    out.provenance
        .push(("fixed_rate_rps".into(), format!("{FIXED_RATE:?}")));
    out.provenance
        .push(("p99_limit_ms".into(), format!("{P99_LIMIT_MS:?}")));
    out.provenance
        .push(("lag_limit_ms".into(), format!("{LAG_LIMIT_MS:?}")));
    out.provenance
        .push(("connections".into(), nproc().to_string()));
    out.provenance.push(("keys".into(), keys.len().to_string()));

    // Set-up, repeated; the last server stays up for the measurement.
    // The last round also computes the oracle, outside the timed window.
    let mut setup_times = Vec::new();
    let mut handle = None;
    let mut expected = Vec::new();
    for round in 0..SETUP_ROUNDS {
        if let Some(h) = handle.take() {
            stop(h);
        }
        let oracle = (round + 1 == SETUP_ROUNDS).then_some(&mut expected);
        match setup(&keys, oracle) {
            Ok((h, s)) => {
                handle = Some(h);
                setup_times.push(s);
            }
            Err(e) => {
                out.error(e);
                return out;
            }
        }
    }
    let handle = handle.expect("set-up ran");
    out.setup_metric(
        &setup_times,
        &format!(
            "2 small-tier builds, server start, register, prime {} keys",
            keys.len()
        ),
    );

    let requests = request_lines(&keys);

    // The ladder, every rung on every run. The fixed rung runs longest.
    let addr = handle.local_addr();
    let obs = handle.obs_handle();
    let rung_s = (args.seconds * (1.0 - FIXED_SHARE) / (LADDER.len() - 1) as f64).max(0.5);
    let mut rungs: Vec<Rung> = Vec::new();
    let mut fixed_reading = None;
    for (i, &rate) in LADDER.iter().enumerate() {
        let fixed = rate == FIXED_RATE;
        let duration = if fixed {
            args.seconds * FIXED_SHARE
        } else {
            rung_s
        };
        let before = ServerReading::take(&obs);
        let (rung, diverged, divergences) =
            run_rung(addr, args.seed, i, rate, duration, &requests, &expected);
        if fixed {
            fixed_reading = Some(ServerReading::take(&obs).since(&before));
            // Peak memory of the served workload, before the ladder's
            // overloaded rungs pile requests up in socket buffers.
            crate::batch::peak_rss(&mut out);
        }
        if diverged > 0 {
            out.error(format!(
                "{diverged} replies wrong, malformed or missing at {rate} rps; first: {}",
                divergences.join(" | ")
            ));
        }
        out.attempted += rung.attempted as u64;
        out.failed += rung.failed as u64;
        let pass = rung.passes(0.99, P99_LIMIT_MS, LAG_LIMIT_MS);
        let tail = Summary::at(&rung.latencies, 0.99)
            .map(|s| format!("p50 {:.3} ms p99 {:.3} ms", s.p50, s.tail))
            .unwrap_or_else(|| "too few samples for p99".into());
        out.lines.push(format!(
            "rung {rate:>7.0} rps {duration:>5.2} s: n={} failed={} {tail} lag_max {:.3} ms backlog_growing={} achieved {:.1} rps -> {}",
            rung.latencies.len(),
            rung.failed,
            rung.lag_max_ms,
            rung.backlog_growing(),
            rung.achieved_rps,
            if pass { "meets limit" } else { "misses limit" }
        ));
        rungs.push(rung);
    }
    stop(handle);

    let fixed = rungs
        .iter()
        .find(|r| r.rate == FIXED_RATE)
        .expect("fixed rung ran");
    match Summary::at(&fixed.latencies, 0.99) {
        Some(s) => {
            out.metric(
                "p50_ms",
                s.p50,
                format!("p50 at {FIXED_RATE} rps from due time, n={}", s.n),
            );
            out.metric(
                "tail_ms",
                s.tail,
                format!(
                    "p99 at {FIXED_RATE} rps from due time, n={} ({} beyond)",
                    s.n,
                    crate::stats::beyond(s.n, 0.99)
                ),
            );
        }
        None => out.error(format!(
            "fixed rung has {} samples, too few for p99",
            fixed.latencies.len()
        )),
    }
    out.lines.push(format!(
        "fixed rung {FIXED_RATE} rps: {}",
        crate::stats::describe(&fixed.latencies)
    ));
    let valid = fixed.lag_max_ms <= LAG_LIMIT_MS;
    out.provenance.push(("valid".into(), valid.to_string()));
    if !valid {
        out.lines.push(format!(
            "INVALID: the generator fell {:.3} ms behind its schedule at the fixed rate (limit {LAG_LIMIT_MS} ms)",
            fixed.lag_max_ms
        ));
    }
    let highest_pass = rungs
        .iter()
        .filter(|r| r.passes(0.99, P99_LIMIT_MS, LAG_LIMIT_MS))
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    out.lines.push(format!(
        "highest rung meeting the limit: {highest_pass} rps"
    ));
    let knee = knee_rps(&rungs, 0.99, P99_LIMIT_MS, LAG_LIMIT_MS);
    let knee_note = format!(
        "offered rate where the isotonic fit of log p99 over the ladder crosses {P99_LIMIT_MS} ms (failed, backlogged or lagging rungs at {} ms)",
        10.0 * P99_LIMIT_MS
    );
    match knee {
        Some(k) => out.lines.push(format!("knee_rps {k:.1}: {knee_note}")),
        None => out
            .lines
            .push("knee_rps undefined: the lowest rung already misses the limit".into()),
    }
    if args.trace {
        serve_layers(
            &mut out,
            &fixed.latencies,
            fixed_reading.as_ref().expect("fixed rung read"),
        );
        let lag = rungs.iter().map(|r| r.lag_max_ms).fold(0.0, f64::max);
        out.lines.push(format!(
            "loadgen lag_max {lag:.3} ms: worst generator lag over every rung"
        ));
    }
    out
}

/// Per-layer serve metrics for one measured population: the stage
/// quantiles from the server's histograms and the latency account
/// `client = Σ stages + residual`, closed on means (exact sums).
pub fn serve_layers(out: &mut Outcome, latencies_ms: &[f64], reading: &ServerReading) {
    let mut client_us: Vec<f64> = latencies_ms.iter().map(|ms| ms * 1e3).collect();
    client_us.sort_by(f64::total_cmp);
    if client_us.is_empty() {
        return out.error("no answered requests to account for");
    }
    let (mut stage_p50, mut stage_p99, mut stage_mean) = (0.0, 0.0, 0.0);
    out.lines.push(format!(
        "account (means over the measured population, n={}): client latency = Σ stages + residual",
        client_us.len()
    ));
    for (stage, h) in crate::report::STAGES.iter().zip(&reading.stages) {
        let p50 = wire::histogram_quantile(h, 0.5);
        let p99 = wire::histogram_quantile(h, 0.99);
        let mean = wire::histogram_mean(h);
        stage_p50 += p50;
        stage_p99 += p99;
        stage_mean += mean;
        out.metric(
            &format!("serve.{stage}_us.p50"),
            p50,
            format!("stage histogram, n={}", h.count),
        );
        out.metric(
            &format!("serve.{stage}_us.p99"),
            p99,
            format!("stage histogram, n={}", h.count),
        );
        out.lines.push(format!(
            "  stage {stage:<10} mean {mean:>12.3} us  (n={})",
            h.count
        ));
    }
    let client_mean = client_us.iter().sum::<f64>() / client_us.len() as f64;
    let residual_mean = client_mean - stage_mean;
    out.lines
        .push(format!("  residual         mean {residual_mean:>12.3} us"));
    out.lines
        .push(format!("  client           mean {client_mean:>12.3} us"));
    let quantile = |q| crate::stats::quantile(&client_us, q);
    out.metric(
        "serve.residual_us.p50",
        quantile(0.5) - stage_p50,
        "client p50 - Σ stage p50 (quantile-wise; the server exposes no per-request stages)",
    );
    out.metric(
        "serve.residual_us.p99",
        quantile(0.99) - stage_p99,
        format!(
            "client p99 - Σ stage p99 (quantile-wise), n={}",
            client_us.len()
        ),
    );
    out.metric(
        "serve.residual_us.mean",
        residual_mean,
        "client mean - Σ stage means: the account's residual row",
    );
    let hits = reading.counter("cache.hits") as f64;
    let misses = reading.counter("cache.misses") as f64;
    out.metric(
        "serve.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        format!("cache.hits / (hits + misses), base {}", hits + misses),
    );
    out.metric(
        "serve.coalesced",
        reading.counter("serve.coalesced") as f64,
        "counter serve.coalesced",
    );
}
