//! The v1 wire protocol as a client sees it: request lines, the exact
//! reply bytes an in-process oracle predicts, a closed-loop connection,
//! and readings of the server's own stage histograms and counters.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use verified_net::{run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section};
use vnet_detect::{evaluate, run_detection, DetectConfig, DetectInput};
use vnet_graph::NodeId;
use vnet_obs::{fingerprint_str, HistogramSnapshot, Obs};

use crate::report::STAGES;

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// A v1 `analyze` request line (without the newline).
pub fn analyze_line(
    snapshot: &str,
    section: Section,
    seed: u64,
    client: &str,
    as_of: Option<u32>,
) -> String {
    let as_of = as_of.map(|d| format!(",\"as_of\":{d}")).unwrap_or_default();
    format!(
        "{{\"v\":1,\"cmd\":\"analyze\",\"snapshot\":{},\"sections\":[{}],\"options\":{{\"seed\":{seed}}},\"client\":{}{as_of}}}",
        json_str(snapshot),
        json_str(section.id()),
        json_str(client),
    )
}

/// A v1 `detect` request line.
pub fn detect_line(snapshot: &str, client: &str, as_of: u32, top_k: usize) -> String {
    format!(
        "{{\"v\":1,\"cmd\":\"detect\",\"snapshot\":{},\"client\":{},\"as_of\":{as_of},\"top_k\":{top_k}}}",
        json_str(snapshot),
        json_str(client),
    )
}

/// The options an `analyze` request with `{"seed":seed}` resolves to:
/// the `quick` preset with that seed.
pub fn request_options(seed: u64) -> AnalysisOptions {
    AnalysisOptions::quick().to_builder().seed(seed).build()
}

/// The exact reply to a one-section `analyze` request, computed in
/// process with `run_analysis_section`.
pub fn analyze_oracle(
    snapshot: &str,
    dataset: &Dataset,
    dataset_fingerprint: u64,
    as_of: Option<u32>,
    section: Section,
    seed: u64,
    ctx: &AnalysisCtx,
) -> Result<String, String> {
    let opts = request_options(seed);
    let payload = run_analysis_section(dataset, section, &opts, ctx)
        .map_err(|e| format!("oracle {section} failed: {e}"))?;
    let payload_json = serde_json::to_string(&payload).expect("section payloads serialize");
    let as_of = as_of.map(|d| format!(",\"as_of\":{d}")).unwrap_or_default();
    Ok(format!(
        "{{\"ok\":true,\"snapshot\":{}{as_of},\"dataset_fingerprint\":{dataset_fingerprint},\"options_fingerprint\":{},\"sections\":[{{\"section\":{},\"fingerprint\":{},\"payload\":{payload_json}}}]}}",
        json_str(snapshot),
        opts.fingerprint(),
        json_str(section.id()),
        fingerprint_str(&payload_json),
    ))
}

/// The exact reply to a `detect` request, computed in process with
/// `run_detection` on the day graph and the follows up to that day.
#[allow(clippy::too_many_arguments)]
pub fn detect_oracle(
    snapshot: &str,
    graph: &vnet_graph::DiGraph,
    dataset_fingerprint: u64,
    daily_follows: &[Vec<(NodeId, NodeId)>],
    sybils: &[NodeId],
    day: u32,
    top_k: usize,
    ctx: &AnalysisCtx,
) -> String {
    let input = DetectInput {
        graph,
        daily_follows: &daily_follows[..day as usize],
    };
    let report = run_detection(&input, &DetectConfig::default(), ctx);
    let eval = evaluate(&report, sybils);
    let fit_out = match (report.alpha_out, report.xmin_out) {
        (Some(a), Some(x)) => format!("{{\"alpha\":{a:?},\"xmin\":{x}}}"),
        _ => "null".to_string(),
    };
    let fit_in = report
        .alpha_in
        .map(|a| format!("{{\"alpha\":{a:?}}}"))
        .unwrap_or_else(|| "null".into());
    let join = |v: Vec<String>| v.join(",");
    let top = join(
        report
            .ranked
            .iter()
            .take(top_k)
            .map(|e| {
                format!(
                    "{{\"node\":{},\"fused\":{:?},\"deviation\":{:?},\"reciprocity\":{:?},\"burst\":{:?}}}",
                    e.node, e.fused, e.deviation, e.reciprocity, e.burst
                )
            })
            .collect(),
    );
    let payload = format!(
        "{{\"dataset_fingerprint\":{dataset_fingerprint},\"fit_out\":{fit_out},\"fit_in\":{fit_in},\"burst_days\":[{}],\"campaign_targets\":[{}],\"top\":[{top}],\"eval\":{{\"planted\":{},\"recall_at_planted\":{:?},\"auc\":{:?},\"pr_curve\":[{}]}}}}",
        join(report.burst_days.iter().map(u32::to_string).collect()),
        join(report.campaign_targets.iter().map(|t| t.to_string()).collect()),
        eval.planted,
        eval.recall_at_planted,
        eval.auc,
        join(eval.pr_curve.iter().map(|&(r, p)| format!("[{r:?},{p:?}]")).collect()),
    );
    format!(
        "{{\"ok\":true,\"snapshot\":{},\"as_of\":{day},\"top_k\":{top_k},\"fingerprint\":{},\"detect\":{payload}}}",
        json_str(snapshot),
        fingerprint_str(&payload),
    )
}

/// Error codes that refuse work rather than answer wrongly.
const REFUSALS: [&str; 4] = ["rate_limited", "queue_full", "timeout", "shutting_down"];

/// Classify a reply that differs from its oracle: a well-formed refusal
/// is a failed op; anything else is a divergence.
pub fn is_refusal(line: &str) -> bool {
    serde_json::from_str::<serde_json::Value>(line)
        .map(|v| {
            v["ok"].as_bool() == Some(false)
                && v["error"]["code"]
                    .as_str()
                    .is_some_and(|c| REFUSALS.contains(&c))
        })
        .unwrap_or(false)
}

/// A blocking request/reply connection for closed-loop callers.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    /// Send one request line and wait for its reply line.
    pub fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }
}

/// A reading of the server's registry, to difference around a phase.
#[derive(Debug, Clone, Default)]
pub struct ServerReading {
    pub stages: Vec<HistogramSnapshot>,
    pub counters: std::collections::BTreeMap<String, u64>,
}

impl ServerReading {
    pub fn take(obs: &Obs) -> ServerReading {
        let metrics = obs.metrics();
        let histograms = metrics.histograms();
        let stages = STAGES
            .iter()
            .map(|s| {
                histograms
                    .get(&format!("serve.stage_wall_micros{{stage={s}}}"))
                    .cloned()
                    .unwrap_or(HistogramSnapshot {
                        bounds: vec![],
                        counts: vec![0],
                        count: 0,
                        sum: 0.0,
                    })
            })
            .collect();
        ServerReading {
            stages,
            counters: metrics.counters(),
        }
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &ServerReading) -> ServerReading {
        let stages = self
            .stages
            .iter()
            .zip(&before.stages)
            .map(|(a, b)| HistogramSnapshot {
                bounds: a.bounds.clone(),
                counts: a
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(i, c)| c - b.counts.get(i).copied().unwrap_or(0))
                    .collect(),
                count: a.count - b.count,
                sum: a.sum - b.sum,
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - before.counter(k)))
            .collect();
        ServerReading { stages, counters }
    }
}

/// Quantile of a bucketed histogram, interpolated linearly inside the
/// bucket that holds the nearest rank (buckets are power-of-two wide, so
/// this is within 2x of the true value).
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut below = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        if below + c >= rank {
            let lo = if i == 0 { 0.0 } else { h.bounds[i - 1] };
            let hi = h.bounds.get(i).copied().unwrap_or(lo * 2.0);
            return lo + (hi - lo) * (rank - below) as f64 / c as f64;
        }
        below += c;
    }
    h.bounds.last().copied().unwrap_or(0.0)
}

/// Mean of a histogram's observations.
pub fn histogram_mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum / h.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = HistogramSnapshot {
            bounds: vec![1.0, 2.0, 4.0, 8.0],
            counts: vec![0, 0, 10, 0, 0],
            count: 10,
            sum: 30.0,
        };
        assert_eq!(histogram_quantile(&h, 0.5), 3.0);
        assert_eq!(histogram_quantile(&h, 1.0), 4.0);
        assert_eq!(histogram_mean(&h), 3.0);
    }

    #[test]
    fn refusals_are_told_apart_from_divergence() {
        assert!(is_refusal(
            "{\"ok\":false,\"error\":{\"code\":\"rate_limited\",\"message\":\"m\",\"retry_after_ms\":5}}"
        ));
        assert!(!is_refusal(
            "{\"ok\":false,\"error\":{\"code\":\"analysis\",\"message\":\"m\"}}"
        ));
        assert!(!is_refusal("{\"ok\":true}"));
        assert!(!is_refusal("{\"ok\":false"));
    }
}
