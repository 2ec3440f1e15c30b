//! The repo benchmark. Three entry points:
//!
//! * `hadad-bench --workload <w> --seed <n> --seconds <s> --trace <0|1>` —
//!   one workload, one mode, one process; prints `workload metric value
//!   unit` lines and, last, one JSON result object. This is the form
//!   `BENCHMARK.json`'s command drives.
//! * `hadad-bench run [--seed n] [--seconds s] [--quick]` — every workload,
//!   untraced then traced, each in its own child process; writes
//!   `bench/out/result.json`.
//! * `hadad-bench aa [--runs n] [--sets k] [--seconds s]` — the A/A noise
//!   floor: the same build measured in `k` sets of `n` seeds; writes
//!   `bench/NOISE_FLOOR.json` and fails if a spread exceeds its bound.

mod corpus;
mod host;
mod json;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hadad-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      hadad-bench run [--seed <n>] [--seconds <s>] [--quick]\n\
         \x20      hadad-bench aa [--runs <n>] [--sets <k>] [--seconds <s>]\n\
         workloads: {}",
        workloads::WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after an optional subcommand.
struct Args {
    command: Option<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Option<Args> {
        let mut argv = std::env::args().skip(1).peekable();
        let command = argv.next_if(|a| !a.starts_with("--"));
        let mut flags = Vec::new();
        while let Some(a) = argv.next() {
            let key = a.strip_prefix("--")?.to_owned();
            flags.push((key, argv.next_if(|v| !v.starts_with("--"))));
        }
        Some(Args { command, flags })
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    /// The flag's value parsed, `default` when absent, `None` when malformed.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Option<T> {
        match self.flags.iter().find(|(k, _)| k == key) {
            None => Some(default),
            Some((_, v)) => v.as_deref()?.parse().ok(),
        }
    }
}

fn main() -> ExitCode {
    let Some(args) = Args::parse() else { return usage() };
    let parsed = (|| {
        let seconds: f64 = args.get("seconds", report::DEFAULT_SECONDS)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return None;
        }
        Some(match args.command.as_deref() {
            None => {
                let workload: String = args.get("workload", String::new())?;
                let trace: u8 = args.get("trace", 0)?;
                if !workloads::WORKLOADS.iter().any(|(n, _)| *n == workload) || trace > 1 {
                    return None;
                }
                let spec = report::RunSpec {
                    workload,
                    seed: args.get("seed", 1)?,
                    seconds,
                    traced: trace == 1,
                    setup_reps: args.get("setup-reps", report::SETUP_REPS)?.max(1),
                };
                report::run_in_process(&spec)
            }
            Some("run") => report::run_all(args.get("seed", 1)?, seconds, args.has("quick")),
            Some("aa") => report::aa(args.get("runs", 10)?, args.get("sets", 2)?, seconds),
            Some(_) => return None,
        })
    })();
    match parsed {
        Some(true) => ExitCode::SUCCESS,
        Some(false) => ExitCode::FAILURE,
        None => usage(),
    }
}
