//! `paper-batch`: the paper's own workload. One caller builds the
//! default-tier dataset, then runs the eleven analysis sections back to
//! back on an `nproc`-wide pool, a fixed number of passes.
//!
//! The traced run (`--trace 1`) repeats one pass on a recording context,
//! closes the account `analysis_s = Σ sections` and, per section,
//! `section = Σ child spans + benchmark-timed calls + self time`, and
//! adds a 1-thread pass for `par.speedup.*` whose section fingerprints
//! must equal the timed pass's (the determinism contract).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SectionReport,
    SynthesisConfig,
};
use vnet_obs::{fingerprint_str, Obs, SpanRecord};
use vnet_par::ParPool;
use vnet_powerlaw::{fit_continuous, fit_discrete, vuong_continuous, vuong_discrete, Alternative};

use crate::report::Outcome;
use crate::stats::{median, mix};
use crate::{nproc, Args};

/// Dataset builds before each pass; `setup_s` is the median of all a
/// run makes. Spreading them over the run, rather than making them all
/// up front, averages over the host's slower and quieter stretches.
const SETUP_ROUNDS: usize = 3;
/// Measured seconds one battery pass is budgeted (a default-tier pass
/// takes 10–12 s on a 2-vCPU host); the pass count comes from
/// `--seconds` alone (see [`passes`]).
const PASS_BUDGET_S: f64 = 10.0;

/// Battery passes per run: `--seconds` / [`PASS_BUDGET_S`], rounded to
/// the nearest whole pass and up to an odd count. It depends on the
/// command line only, never on how fast a pass is, so every commit's
/// medians are taken over the same number of samples.
pub fn passes(seconds: f64) -> usize {
    ((seconds / PASS_BUDGET_S).round() as usize).max(1) | 1
}

/// Default analysis options at `threads`, seeded from the workload seed.
/// The dataset itself is the fixed default tier, so the seed changes the
/// analysis options and not the size or shape of the graph.
pub fn options(seed: u64, threads: usize) -> AnalysisOptions {
    AnalysisOptions::builder()
        .threads(threads)
        .seed(mix(seed, 3))
        .build()
}

/// One section's result: wall time and payload fingerprint.
struct SectionRun {
    section: Section,
    wall_s: f64,
    fingerprint: u64,
    report: SectionReport,
}

fn run_pass(
    ds: &Dataset,
    opts: &AnalysisOptions,
    ctx: &AnalysisCtx,
) -> Result<Vec<SectionRun>, String> {
    Section::ALL
        .iter()
        .map(|&section| {
            let started = Instant::now();
            let report = run_analysis_section(ds, section, opts, ctx)
                .map_err(|e| format!("section {section} failed: {e}"))?;
            let wall_s = started.elapsed().as_secs_f64();
            let json = serde_json::to_string(&report).expect("section payloads serialize");
            Ok(SectionRun {
                section,
                wall_s,
                fingerprint: fingerprint_str(&json),
                report,
            })
        })
        .collect()
}

fn pass_wall(pass: &[SectionRun]) -> f64 {
    pass.iter().map(|s| s.wall_s).sum()
}

/// Compare two passes section by section; report every divergence.
fn compare_passes(out: &mut Outcome, what: &str, a: &[SectionRun], b: &[SectionRun]) {
    for (x, y) in a.iter().zip(b) {
        if x.fingerprint != y.fingerprint {
            out.failed += 1;
            out.error(format!(
                "{what}: section {} fingerprint {:016x} != {:016x}",
                x.section, x.fingerprint, y.fingerprint
            ));
        }
    }
}

/// Set-up: build the dataset `rounds` times, recording each build's
/// seconds in `times`; returns the last build. The caller drops any
/// earlier build first, and each round drops the one before it, so only
/// one dataset is ever alive.
fn setup(
    config: &SynthesisConfig,
    ctx: &AnalysisCtx,
    rounds: usize,
    times: &mut Vec<f64>,
) -> Dataset {
    let mut ds = None;
    for _ in 0..rounds {
        drop(ds.take());
        let started = Instant::now();
        let built = Dataset::build(config, ctx);
        times.push(started.elapsed().as_secs_f64());
        ds = Some(built);
    }
    ds.expect("at least one set-up round")
}

pub fn run(args: &Args) -> Outcome {
    let threads = nproc();
    let config = SynthesisConfig::default();
    let opts = options(args.seed, threads);
    let mut out = Outcome::default();
    out.provenance.push(("tier".into(), "\"default\"".into()));
    out.provenance.push(("threads".into(), threads.to_string()));
    if args.trace {
        traced(&config, &opts, &mut out);
        return out;
    }
    let ctx = AnalysisCtx::with_threads(threads);
    let planned = passes(args.seconds);
    out.provenance.push(("passes".into(), planned.to_string()));
    let mut setup_times = Vec::new();
    let mut ds: Option<Dataset> = None;
    let mut passes: Vec<Vec<SectionRun>> = Vec::with_capacity(planned);
    while passes.len() < planned {
        // Each pass runs on a fresh build, so the repeat-pass check
        // below also checks that the build is deterministic.
        drop(ds.take());
        let ds = ds.insert(setup(&config, &ctx, SETUP_ROUNDS, &mut setup_times));
        out.attempted += Section::ALL.len() as u64;
        match run_pass(ds, &opts, &ctx) {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                out.failed += Section::ALL.len() as u64;
                out.error(e);
                return out;
            }
        }
    }
    let ds = ds.expect("at least one pass");
    out.setup_metric(
        &setup_times,
        &format!("Dataset::build, {SETUP_ROUNDS} before each pass"),
    );
    let summary = ds.summary();
    out.lines.push(format!(
        "dataset: {} users, {} edges",
        summary.users, summary.edges
    ));
    // Correctness: every pass reproduces the first bit for bit, and the
    // sections cheap enough to recompute serially match a 1-thread
    // oracle (the traced run checks all eleven).
    for pass in &passes[1..] {
        compare_passes(&mut out, "repeat pass", &passes[0], pass);
    }
    let serial = AnalysisCtx::quiet();
    for run in passes[0].iter().filter(|r| r.wall_s < 0.5) {
        match run_analysis_section(&ds, run.section, &opts, &serial) {
            Ok(r) => {
                let fp = fingerprint_str(&serde_json::to_string(&r).expect("serialize"));
                if fp != run.fingerprint {
                    out.failed += 1;
                    out.error(format!(
                        "section {} differs from its 1-thread oracle",
                        run.section
                    ));
                }
            }
            Err(e) => out.error(format!("1-thread oracle for {} failed: {e}", run.section)),
        }
    }

    // analysis_s sums each section's median over the passes, so one
    // slow stretch of a pass does not decide the figure.
    let n = passes.len();
    let medians: Vec<f64> = (0..Section::ALL.len())
        .map(|i| median(&passes.iter().map(|p| p[i].wall_s).collect::<Vec<_>>()))
        .collect();
    let analysis_s: f64 = medians.iter().sum();
    let slowest = median(
        &passes
            .iter()
            .map(|p| p.iter().map(|s| s.wall_s).fold(0.0, f64::max))
            .collect::<Vec<_>>(),
    );
    let total: f64 = passes.iter().map(|p| pass_wall(p)).sum();
    out.metric(
        "p50_ms",
        analysis_s * 1e3,
        format!("analysis_s x 1000: Σ per-section medians over n={n} passes"),
    );
    out.metric(
        "tail_ms",
        slowest * 1e3,
        format!("slowest section of a pass, median over n={n} passes"),
    );
    out.lines.push(format!(
        "analysis_s {analysis_s:.6} s (Σ per-section medians over {n} passes); {:.6} passes/s over {total:.3} s",
        n as f64 / total
    ));
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.6}", pass_wall(p)))
        .collect();
    out.lines
        .push(format!("pass walls (s, in run order): {}", walls.join(" ")));
    for (i, (section, m)) in Section::ALL.iter().zip(&medians).enumerate() {
        let walls: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.6}", p[i].wall_s))
            .collect();
        out.lines.push(format!(
            "  section {:<12} {m:>10.6} s  (passes: {})",
            section.id(),
            walls.join(" ")
        ));
    }
    peak_rss(&mut out);
    out
}

/// `peak_rss_mib`: the process's VmHWM so far, set-up included.
pub fn peak_rss(out: &mut Outcome) {
    let mib = vnet_obs::peak_rss_bytes()
        .map(|b| b as f64 / (1u64 << 20) as f64)
        .unwrap_or(0.0);
    out.metric("peak_rss_mib", mib, "process VmHWM so far, includes set-up");
}

/// Wall seconds of every closed span with `name`.
fn span_s(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.wall_nanos as f64 * 1e-9)
}

/// Layer metrics read straight off recorded spans: every section, and
/// the solver spans inside them. Repeated spans are summed.
pub fn span_layers(spans: &[SpanRecord], out: &mut Outcome) {
    for id in crate::report::SECTIONS {
        let span = format!("analysis.{id}");
        out.metric(
            &format!("core.section.{id}_s"),
            span_s(spans, &span),
            format!("Σ span {span}"),
        );
    }
    for (metric, span) in [
        ("spectral.lanczos_s", "analysis.eigen.lanczos"),
        ("algos.clustering_s", "analysis.basic.clustering"),
        ("algos.components_s", "analysis.basic.components"),
        ("algos.betweenness_s", "analysis.centrality.betweenness"),
        ("algos.pagerank_s", "analysis.centrality.pagerank"),
        ("algos.bfs_s", "analysis.separation"),
        ("textmine.ngrams_s", "analysis.bios.ngrams"),
        ("timeseries.portmanteau_s", "analysis.activity.portmanteau"),
        ("timeseries.pelt_s", "analysis.activity.pelt"),
    ] {
        out.metric(metric, span_s(spans, span), format!("Σ span {span}"));
    }
    out.metric(
        "powerlaw.mle_s",
        span_s(spans, "analysis.degrees.mle") + span_s(spans, "analysis.eigen.fit"),
        "Σ spans analysis.degrees.mle + analysis.eigen.fit",
    );
}

/// Record the set-up layers (synthesis, crawl, graph) from a traced build.
pub fn setup_layers(obs: &Obs, out: &mut Outcome) {
    let spans = obs.tracer().spans();
    out.metric(
        "synth.society_s",
        span_s(&spans, "synthesize.society"),
        "span synthesize.society",
    );
    out.metric("twittersim.crawl_s", span_s(&spans, "crawl"), "span crawl");
    let metrics = obs.metrics();
    let requests: u64 = metrics
        .counters()
        .iter()
        .filter(|(k, _)| k.starts_with("api.requests{"))
        .map(|(_, v)| v)
        .sum();
    out.metric(
        "twittersim.api_requests",
        requests as f64,
        "Σ api.requests over endpoints",
    );
    let gauge = |name: &str| metrics.gauge(name, &[]).unwrap_or(0.0);
    out.metric(
        "graph.csr_bytes",
        gauge("graph.csr_bytes"),
        "crawled graph CSR",
    );
    out.metric(
        "graph.synth_peak_arena_bytes",
        gauge("graph.synth_peak_arena_bytes"),
        "society streaming-build peak",
    );
}

/// One row of the section account.
struct AccountRow {
    section: &'static str,
    wall: f64,
    children: Vec<(String, f64)>,
    timed: Vec<(String, f64)>,
}

impl AccountRow {
    fn attributed(&self) -> f64 {
        if self.children.is_empty() && self.timed.is_empty() {
            // A section with no child span is its own leaf.
            return self.wall;
        }
        let covered: f64 = self
            .children
            .iter()
            .chain(&self.timed)
            .map(|(_, s)| s)
            .sum();
        covered.min(self.wall)
    }

    fn self_time(&self) -> f64 {
        if self.children.is_empty() && self.timed.is_empty() {
            return 0.0;
        }
        self.wall
            - self
                .children
                .iter()
                .chain(&self.timed)
                .map(|(_, s)| s)
                .sum::<f64>()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let v = f();
    (v, started.elapsed().as_secs_f64())
}

/// Benchmark-side timing of the public calls each section makes outside
/// any span, replayed on the same inputs after the traced pass.
fn replay_unspanned(
    ds: &Dataset,
    opts: &AnalysisOptions,
    pass: &[SectionRun],
    out: &mut Outcome,
) -> BTreeMap<&'static str, Vec<(String, f64)>> {
    let mut rows: BTreeMap<&'static str, Vec<(String, f64)>> = BTreeMap::new();
    // degrees: the fit is spanned (analysis.degrees.mle); the Vuong tests
    // and the proportion series are not.
    let degrees: Vec<u64> = ds
        .graph
        .out_degrees()
        .into_iter()
        .filter(|&d| d > 0)
        .collect();
    let mut vuong_s = 0.0;
    match fit_discrete(&degrees, &opts.fit) {
        Ok(fit) => {
            for alt in [
                Alternative::LogNormal,
                Alternative::Exponential,
                Alternative::Poisson,
            ] {
                let (r, s) = timed(|| vuong_discrete(&degrees, &fit, alt));
                if let Err(e) = r {
                    out.error(format!("vuong_discrete({alt}) replay failed: {e}"));
                }
                vuong_s += s;
                rows.entry("degrees")
                    .or_default()
                    .push((format!("vuong_discrete({alt})"), s));
            }
        }
        Err(e) => out.error(format!("fit_discrete replay failed: {e}")),
    }
    let (_, s) = timed(|| vnet_algos::degree::out_degree_proportions(&ds.graph));
    rows.entry("degrees")
        .or_default()
        .push(("out_degree_proportions".into(), s));
    // eigen: Lanczos and the fit are spanned; the Laplacian build and the
    // continuous Vuong tests are not.
    let (_, s) = timed(|| vnet_spectral::SymLaplacian::from_digraph(&ds.graph));
    rows.entry("eigen")
        .or_default()
        .push(("SymLaplacian::from_digraph".into(), s));
    if let Some(SectionReport::Eigen(r)) = pass
        .iter()
        .map(|p| &p.report)
        .find(|r| matches!(r, SectionReport::Eigen(_)))
    {
        let positive: Vec<f64> = r
            .eigenvalues
            .iter()
            .copied()
            .filter(|&x| x > 1e-9)
            .collect();
        match fit_continuous(&positive, &opts.fit) {
            Ok(fit) => {
                for alt in [Alternative::LogNormal, Alternative::Exponential] {
                    let (res, s) = timed(|| vuong_continuous(&positive, &fit, alt));
                    if let Err(e) = res {
                        out.error(format!("vuong_continuous({alt}) replay failed: {e}"));
                    }
                    vuong_s += s;
                    rows.entry("eigen")
                        .or_default()
                        .push((format!("vuong_continuous({alt})"), s));
                }
            }
            Err(e) => out.error(format!("fit_continuous replay failed: {e}")),
        }
    }
    out.metric(
        "powerlaw.vuong_s",
        vuong_s,
        "benchmark-timed vuong_discrete x3 + vuong_continuous x2",
    );
    rows
}

fn traced(config: &SynthesisConfig, opts: &AnalysisOptions, out: &mut Outcome) {
    let threads = opts.threads;
    let obs = Arc::new(Obs::new());
    let traced_ctx = AnalysisCtx::new(ParPool::new(threads), Arc::clone(&obs));
    let mut setup_times = Vec::new();
    let ds = setup(config, &traced_ctx, 1, &mut setup_times);
    let setup_s = setup_times[0];
    setup_layers(&obs, out);
    out.lines.push(format!(
        "traced set-up: {setup_s:.6} s (one Dataset::build)"
    ));

    // Untraced pass first (the reference for the overhead), then the
    // traced pass on a fresh recorder so the spans hold only analysis.
    let plain = AnalysisCtx::with_threads(threads);
    let untraced = match run_pass(&ds, opts, &plain) {
        Ok(p) => p,
        Err(e) => return out.error(e),
    };
    let obs = Arc::new(Obs::new());
    let ctx = AnalysisCtx::new(ParPool::new(threads), Arc::clone(&obs));
    let traced_pass = match run_pass(&ds, opts, &ctx) {
        Ok(p) => p,
        Err(e) => return out.error(e),
    };
    let serial_pass = match run_pass(&ds, opts, &AnalysisCtx::quiet()) {
        Ok(p) => p,
        Err(e) => return out.error(e),
    };
    out.attempted = 3 * Section::ALL.len() as u64;
    compare_passes(out, "traced vs untraced pass", &untraced, &traced_pass);
    compare_passes(
        out,
        &format!("{threads}-thread vs 1-thread pass"),
        &untraced,
        &serial_pass,
    );

    let analysis_untraced = pass_wall(&untraced);
    let analysis_traced = pass_wall(&traced_pass);
    out.metric(
        "obs.trace_overhead_frac",
        analysis_traced / analysis_untraced - 1.0,
        format!("traced {analysis_traced:.6} s / untraced {analysis_untraced:.6} s - 1"),
    );
    for (run, serial) in untraced.iter().zip(&serial_pass) {
        out.metric(
            &format!("par.speedup.{}", run.section.id()),
            serial.wall_s / run.wall_s.max(1e-9),
            format!(
                "1-thread {:.6} s / {threads}-thread {:.6} s",
                serial.wall_s, run.wall_s
            ),
        );
    }

    // Layer metrics from the recorded spans and counters.
    let spans = obs.tracer().spans();
    span_layers(&spans, out);
    let metrics = obs.metrics();
    let counter = |name: &str| metrics.counter(name, &[]) as f64;
    out.metric(
        "spectral.matvecs",
        counter("algo.lanczos.matvecs"),
        "counter algo.lanczos.matvecs",
    );
    out.metric(
        "spectral.reorth_projections",
        counter("algo.lanczos.reorth_projections"),
        "counter algo.lanczos.reorth_projections",
    );
    out.metric(
        "algos.betweenness.edge_relaxations",
        counter("algo.betweenness.edge_relaxations"),
        "counter algo.betweenness.edge_relaxations",
    );
    out.metric(
        "algos.pagerank.iterations",
        counter("algo.pagerank.iterations"),
        "counter algo.pagerank.iterations",
    );

    // The account: each section = Σ child spans + benchmark-timed calls
    // + self time; analysis_s = Σ sections + residual.
    let mut replays = replay_unspanned(&ds, opts, &traced_pass, out);
    let mut rows = Vec::new();
    for (idx, span) in spans.iter().enumerate() {
        let Some(id) = span.name.strip_prefix("analysis.") else {
            continue;
        };
        if span.depth != 0 {
            continue;
        }
        let section = crate::report::SECTIONS
            .iter()
            .find(|s| **s == id)
            .copied()
            .unwrap_or("unknown");
        let children = spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.name.clone(), c.wall_nanos as f64 * 1e-9))
            .collect();
        rows.push(AccountRow {
            section,
            wall: span.wall_nanos as f64 * 1e-9,
            children,
            timed: replays.remove(section).unwrap_or_default(),
        });
    }
    let spanned: f64 = rows.iter().map(|r| r.wall).sum();
    let attributed: f64 = rows.iter().map(AccountRow::attributed).sum();
    let residual = analysis_traced - attributed;
    out.lines.push(format!(
        "account: analysis_s {analysis_traced:.6} s (traced pass) = Σ section spans {spanned:.6} s + outside spans {:.6} s",
        analysis_traced - spanned
    ));
    for row in &rows {
        out.lines
            .push(format!("  {:<12} {:>10.6} s", row.section, row.wall));
        for (name, s) in &row.children {
            out.lines.push(format!("    span  {name:<44} {s:>10.6} s"));
        }
        for (name, s) in &row.timed {
            out.lines.push(format!("    timed {name:<44} {s:>10.6} s"));
        }
        if !(row.children.is_empty() && row.timed.is_empty()) {
            out.lines
                .push(format!("    self-time row {:>42.6} s", row.self_time()));
        }
    }
    out.lines.push(format!(
        "  batch.residual_s {residual:.6} s: section self time not covered by a child span or timed call, plus time outside section spans"
    ));
    out.metric(
        "batch.residual_s",
        residual,
        "analysis_s - attributed leaves (printed, never dropped)",
    );
    out.metric(
        "batch.attributed_frac",
        attributed / analysis_traced,
        "share of traced analysis_s attributed to leaf spans or benchmark-timed calls",
    );
}

#[cfg(test)]
mod tests {
    use super::passes;

    #[test]
    fn pass_count_depends_on_the_command_line_only() {
        assert_eq!(passes(25.0), 3);
        assert_eq!(passes(1.0), 1);
        assert_eq!(passes(16.0), 3, "an even count rounds up to odd");
        assert_eq!(passes(40.0), 5);
        assert_eq!(passes(35.0), 5);
        assert!((1..100).all(|s| passes(s as f64) % 2 == 1));
    }
}
