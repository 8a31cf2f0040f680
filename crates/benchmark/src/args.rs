//! Command lines of the two benchmark binaries.

use crate::e2e::Config;
use crate::fixture::Scale;
use crate::gen::Workload;
use crate::report::RUN_SECONDS;
use std::path::PathBuf;

/// Closed-loop client threads: the core count of the reference machine.
pub const CLIENT_THREADS: usize = 2;

#[derive(Debug, Clone)]
pub struct Args {
    /// One workload (the driver's mode); `None` runs the suite.
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Where the suite writes its results file.
    pub out: Option<PathBuf>,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub check: Option<PathBuf>,
    pub benchmark: PathBuf,
}

impl Args {
    /// The load this command line asks for on `workload`.
    pub fn config(&self, workload: Workload) -> Config {
        Config {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            scale: self.scale,
            threads: CLIENT_THREADS,
            // Server starts timed for `setup_s`: three on the corpus,
            // where one costs over a second, five on an empty directory.
            spawns: if workload.on_corpus() { 3 } else { 5 },
        }
    }
}

pub const USAGE: &str = "\
usage: run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload, one result line
       run.sh [--seed N] [--seconds S] [--smoke] [--out FILE]    every workload, traced too
       run.sh --compare A.json B.json                            two results files, metric by metric
workloads: search recommend ingest mixed run";

pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        scale: Scale::FULL,
        out: None,
        trace_out: None,
        compare: None,
        check: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `run.sh` picks the binary by it; the binaries ignore it.
            "--trace" => {
                value("0 or 1")?;
            }
            "--smoke" => parsed.scale = Scale::SMOKE,
            "--out" => parsed.out = Some(value("a path")?.into()),
            "--trace-out" => parsed.trace_out = Some(value("a path")?.into()),
            "--compare" => {
                parsed.compare = Some((value("two paths")?.into(), value("two paths")?.into()))
            }
            "--check" => parsed.check = Some(value("a path")?.into()),
            "--benchmark" => parsed.benchmark = value("a path")?.into(),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}
