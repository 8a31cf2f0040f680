//! `bench_layers` — the traced run. For one workload (or, with no
//! `--workload`, each in turn) it takes the load generator's per-layer
//! view, then deploys the stack in-process and times every layer under
//! spans. `run.sh` is the front door.

use laminar_benchmark::args::{self, Args, CLIENT_THREADS};
use laminar_benchmark::e2e::{self, RunReport};
use laminar_benchmark::fixture::work_dir;
use laminar_benchmark::gen::Workload;
use laminar_benchmark::layers;
use laminar_benchmark::report::{self, Environment, Results, WorkloadResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One workload, both views, printed; the spans go to `trace_out`.
fn traced(
    args: &Args,
    workload: Workload,
    trace_out: &Path,
) -> Result<(RunReport, Vec<String>), String> {
    let mut run = e2e::run(args.config(workload))?;
    let layers = layers::run(workload, args.seed, args.scale)?;
    run.per_layer.extend(layers.metrics);
    run.seal();
    if let Some(dir) = trace_out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let spans = serde_json::to_string(&layers.spans).map_err(|e| e.to_string())?;
    std::fs::write(trace_out, spans)
        .map_err(|e| format!("cannot write {}: {e}", trace_out.display()))?;
    report::print_run(&run);
    println!("spans in {}", trace_out.display());
    for flag in &layers.flags {
        println!("layers do not add up (reported, not a failure): {flag}");
    }
    Ok((run, layers.flags))
}

fn run(args: Args) -> Result<bool, String> {
    let results_dir = work_dir()?.join("results");
    let trace_path = |w: Workload| results_dir.join(format!("trace-{}.json", w.name()));
    if let Some(workload) = args.workload {
        let trace_out = args
            .trace_out
            .clone()
            .unwrap_or_else(|| trace_path(workload));
        let (run, _) = traced(&args, workload, &trace_out)?;
        println!(
            "{}",
            report::contract_line(run.correct, run.attempted, run.failed, &run.per_layer)
        );
        return Ok(run.correct);
    }
    let mut workloads = BTreeMap::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let (run, layer_flags) = traced(&args, workload, &trace_path(workload))?;
        correct &= run.correct;
        workloads.insert(
            workload.name().to_string(),
            WorkloadResult { run, layer_flags },
        );
    }
    let results = Results {
        environment: Environment::capture(args.seed, args.seconds, CLIENT_THREADS, args.scale),
        workloads,
        claim: None,
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| results_dir.join("results.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(correct)
}

fn main() -> ExitCode {
    match args::parse(std::env::args()).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_layers: {e}");
            ExitCode::from(2)
        }
    }
}
