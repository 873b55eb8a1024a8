//! Pipeline ledger: the repeatable benchmark of the PDL suite, from
//! descriptor text to executed, simulated and profiled task graphs.
//!
//! ```text
//! pipeline-ledger [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! pipeline-ledger --compare A B
//! ```
//!
//! With `--workload`, runs that workload in this process and prints its
//! metrics, then one JSON result line. Without, runs every workload of
//! `BENCHMARK.json`, each in a process of its own (so that peak memory is its
//! own), untraced and, under `--trace`, traced as well. Exits non-zero when
//! any operation or check failed. See `README.md` beside this package.

mod compare;
mod harness;
mod layers;
mod report;
mod spec;
mod stats;
mod workloads;

use harness::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::execute::{ExecuteForkjoin, ExecuteTraced};
use workloads::observe::ObserveTrace;
use workloads::predict::{PredictDataflow, PredictForkjoin, PredictManycore};
use workloads::retarget::RetargetCatalog;

const USAGE: &str = "usage: pipeline-ledger [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--out DIR] | --compare A B";
const DEFAULT_SEED: u64 = 20_110_516;

pub struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut args = args.peekable();
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::run_seconds(),
        trace: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a whole number")?;
                options.seed = text.parse().map_err(|_| format!("bad seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value("a number of seconds")?;
                options.seconds = match text.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => return Err(format!("bad seconds {text:?}")),
                };
            }
            "--trace" => {
                // The value is optional: a bare `--trace` turns tracing on.
                let value = args.next_if(|v| v == "0" || v == "1");
                options.trace = value.as_deref() != Some("0");
            }
            "--out" => options.out = PathBuf::from(value("a directory")?),
            "--compare" => {
                let a = PathBuf::from(value("two directories")?);
                options.compare = Some((a, PathBuf::from(value("two directories")?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn measure<W: Workload>(options: &Options) -> bool {
    let outcome = harness::run::<W>(options.seed, options.seconds, options.trace);
    report::emit(W::NAME, W::UNIT, &outcome, options)
}

/// Runs one workload in this process; `None` for an unknown name.
fn run_workload(name: &str, options: &Options) -> Option<bool> {
    Some(match name {
        RetargetCatalog::NAME => measure::<RetargetCatalog>(options),
        PredictManycore::NAME => measure::<PredictManycore>(options),
        PredictDataflow::NAME => measure::<PredictDataflow>(options),
        PredictForkjoin::NAME => measure::<PredictForkjoin>(options),
        ExecuteForkjoin::NAME => measure::<ExecuteForkjoin>(options),
        ExecuteTraced::NAME => measure::<ExecuteTraced>(options),
        ObserveTrace::NAME => measure::<ObserveTrace>(options),
        _ => return None,
    })
}

/// Runs every workload in a child process of its own, one after the other.
fn run_all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    for workload in spec::workloads() {
        for trace in [false, true] {
            if trace && !options.trace {
                continue;
            }
            let status = std::process::Command::new(&exe)
                .args(["--workload", &workload])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&options.out)
                .status()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            all_correct &= status.success();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &options.compare {
        compare::compare(a, b)
    } else if let Some(name) = &options.workload {
        run_workload(name, &options).ok_or(format!(
            "unknown workload {name:?}; BENCHMARK.json lists {:?}",
            spec::workloads()
        ))
    } else {
        run_all(&options)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
