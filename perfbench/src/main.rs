//! Seeded end-to-end benchmark of the unified table.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oltp-point|olap-scan|htap-durable|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` traces every other request and reports the per-layer breakdown. The
//! last line of standard output is the result as one JSON object; a
//! human-readable table goes to standard error. The exit code is non-zero
//! when any answer was wrong. See `perfbench/README.md` for the workloads
//! and metrics.

mod clients;
mod olap;
mod oltp;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: Duration,
    /// Traced run.
    pub trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                let s: u64 = val.parse().map_err(bad)?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} out of 1..=600"));
                }
                args.seconds = Duration::from_secs(s);
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Where runs keep their database files and written traces.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => workloads::NAMES.to_vec(),
        w if workloads::NAMES.contains(&w) => vec![w],
        w => {
            eprintln!(
                "perfbench: unknown workload {w}; one of {:?} or all",
                workloads::NAMES
            );
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for name in names {
        let report = match workloads::run(name, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for w in report.wrong.iter().take(20) {
            eprintln!("perfbench: {name}: WRONG: {w}");
        }
        eprint!(
            "## {name} (seed {}, trace {})\n{}",
            args.seed,
            args.trace as u8,
            report.table(args.trace)
        );
        println!("{}", report.json(args.trace));
        all_correct &= report.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = p("--workload olap-scan --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds.as_secs(), a.trace),
            ("olap-scan", 7, 10, true)
        );
        assert!(p("--workload x --trace 2").is_err());
        assert!(p("--seed 1").is_err());
        assert!(p("--workload x --seconds 0").is_err());
        assert!(p("--workload x --seed").is_err());
    }
}
