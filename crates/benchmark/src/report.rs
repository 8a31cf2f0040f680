//! What the benchmark prints and writes: the one-line result the driver
//! reads, the suite's results file, and the two checks made on results
//! files (`--compare`, `--check`).

use crate::e2e::RunReport;
use crate::metrics::Metrics;
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Length of a measured phase unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 10.0;

/// The machine and build a result came from.
#[derive(Debug, Clone, Serialize)]
pub struct Environment {
    pub git_rev: String,
    pub rustc: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
    pub client_threads: usize,
    pub corpus_pes: usize,
    pub corpus_workflows: usize,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Environment {
    pub fn capture(
        seed: u64,
        seconds: f64,
        threads: usize,
        scale: crate::fixture::Scale,
    ) -> Environment {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Environment {
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            seconds,
            client_threads: threads,
            corpus_pes: scale.pes,
            corpus_workflows: scale.workflows,
        }
    }
}

/// One workload's entry in a results file.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadResult {
    #[serde(flatten)]
    pub run: RunReport,
    /// Operation classes whose layers' sum misses `handle_envelope` by
    /// more than a fifth. Reported, never a failure.
    pub layer_flags: Vec<String>,
}

/// A complete run of the suite. `claim` stays last and `null`: this
/// benchmark measures, it does not argue.
#[derive(Debug, Clone, Serialize)]
pub struct Results {
    pub environment: Environment,
    pub workloads: BTreeMap<String, WorkloadResult>,
    pub claim: Option<String>,
}

/// The line the driver parses: last on standard output.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    #[derive(Serialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: Metrics,
    }
    serde_json::to_string(&Line {
        correct,
        attempted,
        failed,
        metrics: metrics.clone(),
    })
    .expect("metrics serialise")
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, m) in metrics {
        println!("  {name:<40} {:>16.4} {}", m.value, m.unit);
    }
}

/// Every metric of `run` by name with its unit, then what was checked.
pub fn print_run(run: &RunReport) {
    print_metrics(&format!("{} · end to end", run.workload), &run.end_to_end);
    print_metrics(&format!("{} · per layer", run.workload), &run.per_layer);
    println!(
        "requests {} ({} failed) · p95 by {} · quality over {} · streams {}",
        run.attempted, run.failed, run.p95_basis, run.quality_samples, run.stream_hash
    );
    for problem in &run.problems {
        eprintln!("check failed: {problem}");
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    better: String,
    /// Per-layer metrics have none.
    bound: Option<f64>,
}

/// Every metric `BENCHMARK.json` lists under `key`.
fn declared(spec: &Value, key: &str) -> Result<Vec<Declared>, String> {
    spec[key]
        .as_array()
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m[k].as_str()
                    .map(str::to_string)
                    .ok_or(format!("a `{key}` metric lacks `{k}`"))
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                better: text("better")?,
                bound: m["bound"].as_f64(),
            })
        })
        .collect()
}

fn workload_names(spec: &Value) -> Result<Vec<String>, String> {
    spec["workloads"]
        .as_array()
        .ok_or("BENCHMARK.json has no `workloads` list")?
        .iter()
        .map(|w| {
            w["name"]
                .as_str()
                .map(str::to_string)
                .ok_or("a workload lacks `name`".to_string())
        })
        .collect()
}

/// `--check`: does `results` hold, for every workload `benchmark`
/// declares, every declared metric as a finite number in the declared
/// unit, pass its own output checks, and end in `"claim": null`?
pub fn check(results: &Path, benchmark: &Path) -> Result<(), String> {
    let spec = read_json(benchmark)?;
    let file = read_json(results)?;
    let mut problems = Vec::new();
    if !file["claim"].is_null() || file.get("claim").is_none() {
        problems.push("results must end in \"claim\": null".to_string());
    }
    for workload in workload_names(&spec)? {
        let entry = &file["workloads"][workload.as_str()];
        if entry.is_null() {
            problems.push(format!("workload `{workload}` is missing"));
            continue;
        }
        if entry["correct"].as_bool() != Some(true) {
            problems.push(format!(
                "workload `{workload}` failed its output checks: {}",
                entry["problems"]
            ));
        }
        for section in ["end_to_end", "per_layer"] {
            for Declared { name, unit, .. } in declared(&spec, section)? {
                let metric = &entry[section][name.as_str()];
                match metric["value"].as_f64() {
                    Some(v) if v.is_finite() => {}
                    _ => problems.push(format!("{workload}: `{name}` is missing or not a number")),
                }
                if metric["unit"].as_str() != Some(unit.as_str()) {
                    problems.push(format!("{workload}: `{name}` is not in `{unit}`"));
                }
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// `--compare`: per workload and end-to-end metric, both values, the
/// relative change from `a` to `b` and the bound; `Err` when any metric
/// got worse by more than its bound.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<String, String> {
    let spec = read_json(benchmark)?;
    let (a_file, b_file) = (read_json(a)?, read_json(b)?);
    let mut table = format!(
        "{:<10} {:<22} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut regressions = Vec::new();
    for workload in workload_names(&spec)? {
        for Declared {
            name,
            better,
            bound,
            ..
        } in declared(&spec, "end_to_end")?
        {
            let value = |file: &Value| {
                file["workloads"][workload.as_str()]["end_to_end"][name.as_str()]["value"].as_f64()
            };
            let (Some(va), Some(vb)) = (value(&a_file), value(&b_file)) else {
                regressions.push(format!("{workload}: `{name}` is missing from one side"));
                continue;
            };
            let bound = bound.ok_or(format!("`{name}` has no bound"))?;
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            let worse = if better == "higher" { -change } else { change };
            let verdict = if worse > bound { "WORSE" } else { "" };
            table += &format!(
                "{workload:<10} {name:<22} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}% {verdict}\n",
                change * 100.0,
                bound * 100.0
            );
            if worse > bound {
                regressions.push(format!(
                    "{workload}: `{name}` worse by {:.1}% (bound {:.0}%)",
                    worse * 100.0,
                    bound * 100.0
                ));
            }
        }
        let hash = |file: &Value| {
            file["workloads"][workload.as_str()]["stream_hash"]
                .as_str()
                .map(str::to_string)
        };
        if hash(&a_file) != hash(&b_file) {
            table += &format!(
                "{workload:<10} request streams differ: {:?} vs {:?}\n",
                hash(&a_file),
                hash(&b_file)
            );
        }
    }
    if regressions.is_empty() {
        Ok(table)
    } else {
        Err(format!("{table}\n{}", regressions.join("\n")))
    }
}
