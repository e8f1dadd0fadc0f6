//! Seeded benchmark for the verified-net workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-batch --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Three workloads (see `perfbench/RATIONALE.md` for why each exists);
//! `BENCHMARK.json` gates the first two:
//!
//! * `paper-batch` — the paper's analysis battery on the default tier,
//!   closed loop, one caller ([`batch`]).
//! * `serve-session` — closed-loop analyst sessions of cache-missing
//!   time-travel `analyze` and `detect` requests ([`session`]).
//! * `serve-hot` — open-loop Poisson load of cached `analyze` requests
//!   over a fixed rate ladder ([`hot`]); run by hand for serve
//!   throughput claims, not gated.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload again with the layer accounts and prints the per-layer
//! metrics. Every run checks its outputs against an in-process oracle;
//! the last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Any divergence exits nonzero.

mod batch;
mod hot;
mod report;
mod session;
mod stats;
mod wire;

use report::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["paper-batch", "serve-hot", "serve-session"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Threads and connections the benchmark may use: the host's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "paper-batch" => batch::run(&args),
        "serve-hot" => hot::run(&args),
        _ => session::run(&args),
    };
    let ok = outcome.print(&args, &argv);
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-hot --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-hot", 7, 20.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve-hot --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve-hot --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload serve-hot --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
