//! The load generator: closed-loop client threads against a child
//! `laminar-server` over loopback TCP, tracing off.
//!
//! Laminar's callers are interactive clients and CLIs that wait for each
//! reply, so the loop is closed: each thread sends its next request when
//! the previous one has been answered and checked.

use crate::child::{cpu_time, ServerChild};
use crate::fixture::{self, family_of, submission, Corpus, Scale, TempDir};
use crate::gen::{
    stream_hash, Generator, Op, OpClass, RunKind, Workload, RUN_ITERATIONS, RUN_PROCESSES,
};
use crate::metrics::{self, Metrics};
use crate::stats::{self, Sample, TailBasis};
use laminar_client::LaminarClient;
use laminar_server::protocol::{BatchItemWire, BatchOutcomeWire, RunInputWire};
use laminar_server::{EmbeddingType, Ident, RunMode, SearchScope, WireFrame};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Hits asked of every search and recommendation (the server default).
const TOP_K: usize = 5;
/// Semantic queries probing what `ingest` registered, after its timed phase.
const PROBE_QUERIES: usize = 200;
/// Share of failed requests above which a run is wrong, not just slow.
const MAX_FAILED_SHARE: f64 = 0.01;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase; a tenth of it is run first, unrecorded.
    pub seconds: f64,
    pub scale: Scale,
    /// Closed-loop client threads (the reference machine's core count).
    pub threads: usize,
    /// Server starts timed for `setup_s`; the last one serves the load.
    pub spawns: usize,
}

/// What one workload run produced.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub corpus_pes: usize,
    pub corpus_workflows: usize,
    /// Fingerprint of the request streams offered (not of how far the
    /// run got into them).
    pub stream_hash: String,
    pub correct: bool,
    /// Why `correct` is false; empty otherwise.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub failed_share: f64,
    /// How `latency_p95_ms` was computed: `fifths`, `pooled` or `max`.
    pub p95_basis: String,
    /// Requests scored for `answer_quality`.
    pub quality_samples: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

impl RunReport {
    /// Settle `correct`: no problem so far, and every metric a number.
    /// Called again when the traced run has added its metrics.
    pub fn seal(&mut self) {
        for (name, m) in self.end_to_end.iter().chain(&self.per_layer) {
            let missing = format!("metric `{name}` is missing");
            if !m.value.is_finite() && !self.problems.contains(&missing) {
                self.problems.push(missing);
            }
        }
        self.correct = self.problems.is_empty();
    }
}

struct Record {
    class: OpClass,
    sample: Sample,
    quality: Option<f64>,
    /// Reply rows decoded: hits, registry rows or output lines.
    rows: u64,
}

/// What executing one request showed.
struct Outcome {
    /// `Err` carries why the reply was an error, a rejection or malformed.
    result: Result<(), String>,
    first_output: Option<Duration>,
    quality: Option<f64>,
    rows: u64,
}

impl Outcome {
    fn of(result: Result<(u64, Option<f64>), String>) -> Outcome {
        match result {
            Ok((rows, quality)) => Outcome {
                result: Ok(()),
                first_output: None,
                quality,
                rows,
            },
            Err(e) => Outcome {
                result: Err(e),
                first_output: None,
                quality: None,
                rows: 0,
            },
        }
    }
}

/// Precision@k of `names` against `family`: hits the reply lacks count
/// as wrong, so a short answer cannot score above a full one.
fn precision<'a>(names: impl Iterator<Item = &'a str>, family: usize) -> f64 {
    names.filter(|n| family_of(n) == Some(family)).count() as f64 / TOP_K as f64
}

/// Rows and quality of a ranked reply, or why it is malformed.
fn score_hits(names: Vec<&str>, family: usize) -> Result<(u64, Option<f64>), String> {
    if names.len() > TOP_K {
        return Err(format!("{} hits for top {TOP_K}", names.len()));
    }
    Ok((
        names.len() as u64,
        Some(precision(names.into_iter(), family)),
    ))
}

pub(crate) fn run_mode(kind: RunKind) -> RunMode {
    match kind {
        RunKind::Sequential => RunMode::Sequential,
        RunKind::Multiprocess => RunMode::Multiprocess {
            processes: RUN_PROCESSES,
        },
        RunKind::Dynamic => RunMode::Dynamic,
    }
}

pub(crate) fn scope(workflows: bool) -> SearchScope {
    if workflows {
        SearchScope::Workflow
    } else {
        SearchScope::Pe
    }
}

/// The output lines a sequential `d4py` enactment of `workflow` gives,
/// sorted: what every mapping's output must equal as a multiset.
fn reference_lines(workflow: &str) -> Result<Vec<String>, String> {
    let graph = match workflow {
        "isprime_wf" => d4py::workflows::isprime_graph(),
        "wordcount_wf" => d4py::workflows::word_count_graph(),
        other => return Err(format!("no reference for workflow `{other}`")),
    };
    let result = d4py::run(
        &graph,
        d4py::RunInput::Iterations(RUN_ITERATIONS),
        &d4py::Mapping::Simple,
    )
    .map_err(|e| format!("reference run of `{workflow}` failed: {e}"))?;
    let mut lines = result.lines().to_vec();
    lines.sort();
    Ok(lines)
}

struct Executor<'a> {
    client: LaminarClient,
    references: &'a BTreeMap<&'static str, Vec<String>>,
}

impl Executor<'_> {
    fn execute(&self, op: &Op) -> Outcome {
        let c = &self.client;
        match op {
            Op::SearchSemantic {
                workflows,
                query,
                family,
            } => Outcome::of(
                c.search_registry_semantic(scope(*workflows), query)
                    .map_err(|e| e.to_string())
                    .and_then(|hits| {
                        score_hits(hits.iter().map(|h| h.name.as_str()).collect(), *family)
                    }),
            ),
            Op::Recommend {
                workflows,
                llm,
                snippet,
                family,
            } => {
                let embedding = if *llm {
                    EmbeddingType::Llm
                } else {
                    EmbeddingType::Spt
                };
                Outcome::of(
                    c.code_recommendation(scope(*workflows), snippet, embedding)
                        .map_err(|e| e.to_string())
                        .and_then(|hits| {
                            score_hits(hits.iter().map(|h| h.name.as_str()).collect(), *family)
                        }),
                )
            }
            Op::Completion { snippet } => Outcome::of(
                c.code_completion(snippet)
                    .map(|(_, lines, _)| (lines.len() as u64, None))
                    .map_err(|e| e.to_string()),
            ),
            Op::GetPe { name } => Outcome::of(
                c.get_pe(name.as_str())
                    .map_err(|e| e.to_string())
                    .and_then(|pe| {
                        if pe.name == *name {
                            Ok((1, None))
                        } else {
                            Err(format!("asked for `{name}`, got `{}`", pe.name))
                        }
                    }),
            ),
            Op::SearchLiteral { term } => Outcome::of(
                c.search_registry_literal(SearchScope::Pe, term)
                    .map_err(|e| e.to_string())
                    .and_then(|(pes, _)| {
                        let needle = term.to_lowercase();
                        let stray = pes.iter().find(|p| {
                            !p.name.to_lowercase().contains(&needle)
                                && !p.description.to_lowercase().contains(&needle)
                        });
                        match stray {
                            Some(p) => Err(format!("`{}` does not contain `{term}`", p.name)),
                            None => Ok((pes.len() as u64, None)),
                        }
                    }),
            ),
            Op::RegisterPe(pe) => Outcome::of(
                c.register_pe(&pe.name, &pe.code, None)
                    .map(|_| (0, None))
                    .map_err(|e| e.to_string()),
            ),
            Op::RegisterBatch(items) => {
                let wire = items
                    .iter()
                    .map(|pe| BatchItemWire::Pe(submission(&pe.name, &pe.code)))
                    .collect();
                Outcome::of(c.register_batch(wire).map_err(|e| e.to_string()).and_then(
                    |outcomes| {
                        if outcomes.len() != items.len() {
                            return Err(format!(
                                "{} outcomes for {} items",
                                outcomes.len(),
                                items.len()
                            ));
                        }
                        for outcome in outcomes {
                            if let BatchOutcomeWire::Failed { error, .. } = outcome {
                                return Err(format!("batch item rejected: {error}"));
                            }
                        }
                        Ok((0, None))
                    },
                ))
            }
            Op::RegisterWorkflow { name, source } => Outcome::of(
                c.register_workflow(name, source)
                    .map(|_| (0, None))
                    .map_err(|e| e.to_string()),
            ),
            Op::UpdateDescription { name, description } => Outcome::of(
                c.update_pe_description(name.as_str(), description)
                    .map(|_| (0, None))
                    .map_err(|e| e.to_string()),
            ),
            Op::Run { workflow, kind } => self.run(workflow, *kind),
        }
    }

    /// A streamed run: frames are taken as they arrive so the first
    /// output line can be timed, and the lines are checked against the
    /// sequential reference as a multiset.
    fn run(&self, workflow: &'static str, kind: RunKind) -> Outcome {
        let start = Instant::now();
        let frames = match self.client.run_stream(
            Ident::from(workflow),
            RunInputWire::Iterations(RUN_ITERATIONS),
            run_mode(kind),
            false,
        ) {
            Ok(frames) => frames,
            Err(e) => return Outcome::of(Err(e.to_string())),
        };
        let mut first_output = None;
        let mut lines = Vec::new();
        let mut ended = None;
        for frame in frames.iter() {
            match frame {
                WireFrame::Line(line) => {
                    first_output.get_or_insert_with(|| start.elapsed());
                    lines.push(line);
                }
                WireFrame::End { ok, .. } => {
                    ended = Some(ok);
                    break;
                }
                WireFrame::Value(v) => return Outcome::of(Err(format!("run answered {v:?}"))),
                _ => {}
            }
        }
        lines.sort();
        let reference = self.references.get(workflow);
        let matches = reference.is_some_and(|r| *r == lines);
        let result = match ended {
            Some(true) if matches => Ok(()),
            Some(true) => {
                let expected = reference.map_or(0, Vec::len);
                let diff = reference.and_then(|r| r.iter().zip(&lines).find(|(a, b)| a != b));
                Err(format!(
                    "output of `{workflow}` differs from the sequential reference: \
                     {} lines for {expected}, first difference {diff:?}",
                    lines.len()
                ))
            }
            Some(false) => Err("run ended not ok".to_string()),
            None => Err("stream closed before its End frame".to_string()),
        };
        Outcome {
            result,
            first_output,
            quality: Some(if matches { 1.0 } else { 0.0 }),
            rows: lines.len() as u64,
        }
    }
}

fn registry_counts(client: &LaminarClient) -> Result<(u64, u64), String> {
    let (pes, workflows) = client
        .get_registry()
        .map_err(|e| format!("get_registry failed: {e}"))?;
    Ok((pes.len() as u64, workflows.len() as u64))
}

/// Semantic queries for the families of what `ingest` registered, scored
/// like `search`: shows the fast write path left a correct index behind.
fn probe_ingested(
    client: &LaminarClient,
    seed: u64,
    corpus: &Corpus,
) -> Result<(f64, u64), String> {
    let queries = Generator::new(Workload::Search, seed ^ 0x9e37, 0, corpus)
        .filter(|op| {
            matches!(
                op,
                Op::SearchSemantic {
                    workflows: false,
                    ..
                }
            )
        })
        .take(PROBE_QUERIES);
    let mut sum = 0.0;
    for op in queries {
        let Op::SearchSemantic { query, family, .. } = op else {
            unreachable!("filtered above");
        };
        let hits = client
            .search_registry_semantic(SearchScope::Pe, &query)
            .map_err(|e| format!("ingest probe failed: {e}"))?;
        sum += precision(hits.iter().map(|h| h.name.as_str()), family);
    }
    Ok((sum / PROBE_QUERIES as f64, PROBE_QUERIES as u64))
}

/// What one client thread did.
struct ThreadLog {
    /// The measured phase, request by request.
    records: Vec<Record>,
    /// Registry rows its acknowledged writes added, warm-up included.
    added: (u64, u64),
    /// The first few failures, for the report.
    errors: Vec<String>,
}

/// What the client threads share.
struct Load<'a> {
    cfg: Config,
    server: &'a ServerChild,
    corpus: &'a Corpus,
    references: &'a BTreeMap<&'static str, Vec<String>>,
    /// Met twice by every thread and the coordinator: once when warm-up
    /// ends, once when the measured phase begins.
    barrier: &'a Barrier,
}

impl Load<'_> {
    fn client_thread(&self, thread: usize) -> Result<ThreadLog, String> {
        let session = self.server.session();
        let mut gen = Generator::new(self.cfg.workload, self.cfg.seed, thread, self.corpus);
        let mut log = ThreadLog {
            records: Vec::new(),
            added: (0, 0),
            errors: Vec::new(),
        };
        // A thread whose login failed still meets both barriers.
        let exec = session.map(|client| Executor {
            client,
            references: self.references,
        });
        let mut step = |log: &mut ThreadLog, phase_start: Option<Instant>| {
            let Ok(exec) = &exec else { return };
            let op = gen.next().expect("generators are endless");
            let sent = Instant::now();
            let outcome = exec.execute(&op);
            let done = Instant::now();
            let latency = (done - sent).as_secs_f64();
            match &outcome.result {
                Ok(()) => {
                    let (pes, workflows) = op.rows_added();
                    log.added = (log.added.0 + pes, log.added.1 + workflows);
                }
                Err(e) if log.errors.len() < 3 => {
                    log.errors.push(format!("{}: {e}", op.class().name()))
                }
                Err(_) => {}
            }
            if let Some(t0) = phase_start {
                let ok = outcome.result.is_ok();
                let first_output = outcome.first_output.map_or(latency, |d| d.as_secs_f64());
                log.records.push(Record {
                    class: op.class(),
                    sample: Sample {
                        done_at: (done - t0).as_secs_f64(),
                        latency: ok.then_some(latency),
                        first_output: ok.then_some(first_output),
                    },
                    quality: outcome.quality,
                    rows: outcome.rows,
                });
            }
        };
        let warm_until = Instant::now() + Duration::from_secs_f64(self.cfg.seconds / 10.0);
        while Instant::now() < warm_until {
            step(&mut log, None);
        }
        self.barrier.wait();
        self.barrier.wait();
        let t0 = Instant::now();
        let measured = Duration::from_secs_f64(self.cfg.seconds);
        while t0.elapsed() < measured {
            step(&mut log, Some(t0));
        }
        exec.map(|_| log)
    }
}

pub fn run(cfg: Config) -> Result<RunReport, String> {
    let corpus = Corpus::generate(cfg.scale);
    let workload = cfg.workload;
    let mut problems = Vec::new();

    // ---- set-up: a fresh server on its own data directory, timed ------
    let fixture = if workload.on_corpus() {
        Some(fixture::ensure(&corpus, cfg.scale)?)
    } else {
        None
    };
    let mut setups = Vec::new();
    let mut live: Option<(ServerChild, TempDir)> = None;
    for _ in 0..cfg.spawns.max(1) {
        // The previous server is gone before the next one is timed.
        drop(live.take());
        let dir = TempDir::new(workload.name())?;
        if let Some((data, _)) = &fixture {
            fixture::copy_dir(data, &dir.0)?;
        }
        let server = ServerChild::spawn(&dir.0)?;
        setups.push(server.setup.as_secs_f64());
        live = Some((server, dir));
    }
    let (server, _dir) = live.expect("at least one spawn");

    let references: BTreeMap<&'static str, Vec<String>> = if workload == Workload::Run {
        ["isprime_wf", "wordcount_wf"]
            .into_iter()
            .map(|wf| reference_lines(wf).map(|lines| (wf, lines)))
            .collect::<Result<_, _>>()?
    } else {
        BTreeMap::new()
    };
    let before = registry_counts(&server.session()?)?;

    // ---- load: warm-up prefix, then the measured phase -----------------
    let measured = Duration::from_secs_f64(cfg.seconds);
    let barrier = Barrier::new(cfg.threads + 1);
    let load = Load {
        cfg,
        server: &server,
        corpus: &corpus,
        references: &references,
        barrier: &barrier,
    };
    let mut server_cpu = Duration::ZERO;
    let mut client_cpu = Duration::ZERO;
    let mut threads_peak = 0;
    let mut elapsed = 0.0;
    let per_thread: Vec<Result<ThreadLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|thread| {
                let load = &load;
                s.spawn(move || load.client_thread(thread))
            })
            .collect();
        // Warm-up is over on every thread; stamp the marks, release them.
        barrier.wait();
        let (server_before, client_before) = (server.sample().cpu, cpu_time("self"));
        let phase_start = Instant::now();
        barrier.wait();
        // Poll the thread count while the load runs; it is the one
        // figure `/proc` does not keep a high-water mark for.
        while phase_start.elapsed() < measured {
            threads_peak = threads_peak.max(server.sample().threads);
            std::thread::sleep(Duration::from_millis(50));
        }
        let logs = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        elapsed = phase_start.elapsed().as_secs_f64();
        server_cpu = server.sample().cpu.saturating_sub(server_before);
        client_cpu = cpu_time("self").saturating_sub(client_before);
        logs
    });

    let mut records = Vec::new();
    let mut added = (0, 0);
    for log in per_thread {
        let log = log?;
        records.extend(log.records);
        added = (added.0 + log.added.0, added.1 + log.added.1);
        problems.extend(
            log.errors
                .into_iter()
                .map(|e| format!("request failed: {e}")),
        );
    }
    if records.is_empty() {
        return Err("no request completed in the measured phase".into());
    }
    records.sort_by(|a, b| a.sample.done_at.total_cmp(&b.sample.done_at));

    // ---- checks that need the server still up ---------------------------
    let end_sample = server.sample();
    let after = registry_counts(&server.session()?)?;
    if after != (before.0 + added.0, before.1 + added.1) {
        problems.push(format!(
            "registry holds {after:?} rows, expected {before:?} + acknowledged {added:?}"
        ));
    }
    let samples: Vec<Sample> = records.iter().map(|r| r.sample).collect();
    let scored: Vec<f64> = records.iter().filter_map(|r| r.quality).collect();
    let (quality, quality_samples) = if workload == Workload::Ingest {
        probe_ingested(&server.session()?, cfg.seed, &corpus)?
    } else {
        (
            scored.iter().sum::<f64>() / scored.len().max(1) as f64,
            scored.len() as u64,
        )
    };
    let disk_mb = server.disk_bytes() as f64 / 1e6;
    drop(server);

    // ---- metrics ---------------------------------------------------------
    let failed_share = stats::failed_share(&samples);
    if failed_share > MAX_FAILED_SHARE {
        problems.push(format!(
            "failed_share {failed_share:.4} exceeds {MAX_FAILED_SHARE}"
        ));
    }
    // A percentile whose rank falls among failed requests has no value;
    // it goes out as NaN and is reported with the other missing metrics.
    let ms = |v: Option<f64>| v.map_or(f64::NAN, |s| s * 1e3);
    let tail = stats::tail_p95(&samples);
    let basis = tail.map_or(TailBasis::Max, |(_, b)| b);
    let acknowledged = samples
        .iter()
        .filter(|s| s.done_at <= cfg.seconds && s.latency.is_some())
        .count();
    let mut e2e = Metrics::new();
    let mut put_e2e =
        |name: &str, value: f64| metrics::put(&mut e2e, &metrics::END_TO_END, name, value);
    put_e2e("throughput_ops_s", acknowledged as f64 / cfg.seconds);
    put_e2e(
        "latency_p50_ms",
        ms(stats::latency_percentile(&samples, 0.5)),
    );
    put_e2e("latency_p95_ms", ms(tail.map(|(v, _)| v)));
    put_e2e(
        "first_output_p50_ms",
        ms(stats::first_output_percentile(&samples, 0.5)),
    );
    put_e2e("answer_quality", quality);
    put_e2e(
        "setup_s",
        stats::median(&mut setups).expect("at least one spawn"),
    );

    let mut layer = Metrics::new();
    for class in OpClass::ALL {
        let of_class: Vec<Sample> = records
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.sample)
            .collect();
        let us = |q: f64| stats::latency_percentile(&of_class, q).map_or(0.0, |s| s * 1e6);
        // An absent class reports zeros; a class too small for a p95
        // reports the highest percentile it supports.
        let tail_q = stats::highest_percentile(of_class.len()).map_or(0.5, |q| q.min(0.95));
        let name = class.name();
        metrics::insert(
            &mut layer,
            format!("client.{name}.count"),
            "count",
            of_class.len() as f64,
        );
        metrics::insert(&mut layer, format!("client.{name}.p50_us"), "us", us(0.5));
        metrics::insert(
            &mut layer,
            format!("client.{name}.p95_us"),
            "us",
            us(tail_q),
        );
    }
    let mut put_layer =
        |name: &str, value: f64| metrics::put(&mut layer, &metrics::FROM_LOAD, name, value);
    put_layer(
        "client.longest_gap_ms",
        stats::longest_gap(&samples, elapsed.max(cfg.seconds)) * 1e3,
    );
    put_layer(
        "client.rows_s",
        records.iter().map(|r| r.rows).sum::<u64>() as f64 / cfg.seconds,
    );
    put_layer("client.cpu_s", client_cpu.as_secs_f64());
    put_layer(
        "server.cpu_ms_per_op",
        server_cpu.as_secs_f64() * 1e3 / samples.len() as f64,
    );
    put_layer("server.threads_peak", threads_peak as f64);
    put_layer("server.peak_rss_mb", end_sample.peak_rss_mb);
    put_layer("registry.disk_mb_end", disk_mb);
    let load = fixture.map(|(_, stats)| stats);
    put_layer("fixture.load_s", load.map_or(0.0, |l| l.load_s));
    put_layer(
        "fixture.load_rows_s",
        load.map_or(0.0, |l| l.rows as f64 / l.load_s),
    );
    put_layer(
        "fixture.disk_mb",
        load.map_or(0.0, |l| l.disk_bytes as f64 / 1e6),
    );

    let mut report = RunReport {
        workload: workload.name().to_string(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        threads: cfg.threads,
        corpus_pes: corpus.entries().len(),
        corpus_workflows: corpus.workflows.len(),
        stream_hash: format!(
            "{:016x}",
            stream_hash(workload, cfg.seed, cfg.threads, &corpus)
        ),
        correct: true,
        problems,
        attempted: samples.len() as u64,
        failed: stats::failed(&samples) as u64,
        failed_share,
        p95_basis: basis.name().to_string(),
        quality_samples,
        end_to_end: e2e,
        per_layer: layer,
    };
    report.seal();
    Ok(report)
}
