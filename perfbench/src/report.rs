//! The metric catalog, provenance stamp, and the printed report whose
//! last line is the machine-read JSON result.

use crate::Args;

/// End-to-end metrics every workload reports with `--trace 0`. What an
/// "operation" is differs per workload; `RATIONALE.md` defines each.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Section ids, in `Section::ALL` order, for the per-section metrics.
pub const SECTIONS: [&str; 11] = [
    "basic",
    "figure1",
    "degrees",
    "eigen",
    "reciprocity",
    "separation",
    "bios",
    "centrality",
    "activity",
    "elite_core",
    "categories",
];

/// The five server stages, in request-path order.
pub const STAGES: [&str; 5] = ["framing", "admission", "queue", "execute", "write"];

/// Per-layer metrics every workload reports with `--trace 1`. A layer a
/// workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for id in SECTIONS {
        m.push((format!("core.section.{id}_s"), "s"));
    }
    for (name, unit) in [
        ("spectral.lanczos_s", "s"),
        ("spectral.matvecs", "count"),
        ("spectral.reorth_projections", "count"),
        ("powerlaw.mle_s", "s"),
        ("powerlaw.vuong_s", "s"),
        ("algos.clustering_s", "s"),
        ("algos.components_s", "s"),
        ("algos.betweenness_s", "s"),
        ("algos.betweenness.edge_relaxations", "count"),
        ("algos.pagerank_s", "s"),
        ("algos.pagerank.iterations", "count"),
        ("algos.bfs_s", "s"),
        ("textmine.ngrams_s", "s"),
        ("timeseries.portmanteau_s", "s"),
        ("timeseries.pelt_s", "s"),
    ] {
        m.push((name.to_string(), unit));
    }
    for id in SECTIONS {
        m.push((format!("par.speedup.{id}"), "ratio"));
    }
    for (name, unit) in [
        ("synth.society_s", "s"),
        ("twittersim.crawl_s", "s"),
        ("twittersim.api_requests", "count"),
        ("graph.csr_bytes", "bytes"),
        ("graph.synth_peak_arena_bytes", "bytes"),
    ] {
        m.push((name.to_string(), unit));
    }
    for stage in STAGES.iter().chain(["residual"].iter()) {
        m.push((format!("serve.{stage}_us.p50"), "us"));
        m.push((format!("serve.{stage}_us.p99"), "us"));
    }
    for (name, unit) in [
        ("serve.residual_us.mean", "us"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.coalesced", "count"),
        ("temporal.timeline_build_s", "s"),
        ("temporal.graph_as_of_ms", "ms"),
        ("temporal.asof_materializations", "count"),
        ("temporal.day_cache_hit_ratio", "ratio"),
        ("detect.run_ms", "ms"),
        ("obs.trace_overhead_frac", "ratio"),
        ("batch.residual_s", "s"),
        ("batch.attributed_frac", "ratio"),
    ] {
        m.push((name.to_string(), unit));
    }
    m
}

/// One measured value with the context a reader needs to trust it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Sample count, population, percentile rule — printed, never parsed.
    pub note: String,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or diverged from the oracle.
    pub failed: u64,
    /// Divergences and broken invariants; any entry makes the run fail.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra provenance fields (rate ladder, validity, …) as JSON values.
    pub provenance: Vec<(String, String)>,
    /// Free-form report lines (account tables), printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            note: note.into(),
        });
    }

    /// `setup_s`: the median of the set-up rounds' seconds. Every
    /// round's time is printed too, in run order.
    pub fn setup_metric(&mut self, rounds: &[f64], what: &str) {
        self.metric(
            "setup_s",
            crate::stats::median(rounds),
            format!("median of {} rounds: {what}", rounds.len()),
        );
        let rounds: Vec<String> = rounds.iter().map(|s| format!("{s:.6}")).collect();
        self.lines.push(format!(
            "set-up rounds (s, in run order): {}",
            rounds.join(" ")
        ));
    }

    pub fn error(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: DIVERGENCE: {message}");
        self.errors.push(message);
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Print provenance, the metric table and the final JSON line.
    /// Returns whether the run was correct.
    pub fn print(mut self, args: &Args, argv: &[String]) -> bool {
        let catalog: Vec<(String, &str)> = if args.trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        for (name, _) in &catalog {
            if self.value(name).is_none() {
                if args.trace {
                    self.metric(name, 0.0, "layer not exercised by this workload");
                } else {
                    self.error(format!("end-to-end metric {name} was not measured"));
                    self.metric(name, 0.0, "not measured: the run failed");
                }
            }
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.errors.push(format!("metric {} is not finite", m.name));
            }
        }
        let correct = self.errors.is_empty();
        let failed = if correct {
            self.failed
        } else {
            self.failed.max(1)
        };
        let attempted = self.attempted.max(failed).max(1);

        let mut prov = vec![
            ("workload".to_string(), json_string(&args.workload)),
            ("seed".to_string(), args.seed.to_string()),
            ("seconds".to_string(), format!("{:?}", args.seconds)),
            ("trace".to_string(), args.trace.to_string()),
            ("nproc".to_string(), crate::nproc().to_string()),
            (
                "build_profile".to_string(),
                json_string(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            ("command_line".to_string(), json_string(&argv.join(" "))),
            ("git_commit".to_string(), json_string(&git_commit())),
        ];
        prov.append(&mut self.provenance);
        let prov_json: Vec<String> = prov
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect();
        println!("provenance {{{}}}", prov_json.join(","));
        for line in &self.lines {
            println!("{line}");
        }
        println!("{:<40} {:>16} {:<6} note", "metric", "value", "unit");
        for (name, unit) in &catalog {
            let m = self
                .value(name)
                .expect("every catalog metric was filled above");
            println!("{name:<40} {:>16.6} {unit:<6} {}", m.value, m.note);
        }
        println!(
            "{:<40} {:>16.6} {:<6} failed or refused ops / attempted ops, base {attempted}",
            "fail_frac",
            failed as f64 / attempted as f64,
            "ratio"
        );
        for e in &self.errors {
            println!("error: {e}");
        }
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let m = self.value(name).expect("filled");
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(name),
                    json_number(value),
                    json_string(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        );
        correct
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Shortest round-trip rendering, always with a decimal point or exponent.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The commit of the working directory's git checkout, when it is one.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head),
            None => head,
        },
        None => "unknown (working directory is not a git checkout)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(total <= 128 + 16);
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(1e21), "1e21");
    }
}
