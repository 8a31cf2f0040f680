//! `bench_e2e` — one workload against a child `laminar-server` over
//! loopback TCP, tracing off; also `--compare` and `--check` on results
//! files. `run.sh` is the front door.

use laminar_benchmark::args::{self, Args};
use laminar_benchmark::{e2e, report};
use std::process::ExitCode;

fn run(args: Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        println!("{}", report::compare(a, b, &args.benchmark)?);
        return Ok(true);
    }
    if let Some(results) = &args.check {
        report::check(results, &args.benchmark)?;
        println!("{} matches {}", results.display(), args.benchmark.display());
        return Ok(true);
    }
    let workload = args
        .workload
        .ok_or(format!("--workload is required\n{}", args::USAGE))?;
    let run = e2e::run(args.config(workload))?;
    report::print_run(&run);
    println!(
        "{}",
        report::contract_line(run.correct, run.attempted, run.failed, &run.end_to_end)
    );
    Ok(run.correct)
}

fn main() -> ExitCode {
    match args::parse(std::env::args()).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
