//! The traced run: the stack deployed in-process on a copy of the
//! corpus, each layer timed from outside through its public entry point.
//!
//! Two things happen here. Every layer gets a micro-timing on inputs that
//! do not depend on the workload (so each traced run reports the whole
//! catalogue). And the first requests of the workload are *replayed*: per
//! request a root span around the monolithic `handle_envelope` call and a
//! sibling `replay` span whose children re-enact the request step by step
//! — encode, decode, embed or parse, rank or recommend, hydrate, encode,
//! decode — so the share of `handle_envelope` the layers account for, and
//! the residual they do not, can be read off one trace.
//!
//! Spans live in memory and are written out at the end.

use crate::e2e::{run_mode, scope};
use crate::fixture::{self, submission, Corpus, Scale, TempDir};
use crate::gen::{Generator, Op, OpClass, RunKind, Workload, RUN_ITERATIONS, RUN_PROCESSES};
use crate::metrics::{self, Metrics};
use crate::stats;
use aroma::{AromaConfig, AromaEngine, RecoStats, Snippet};
use embed::{CodeT5Sim, DescriptionContext, ReaccSim, UniXcoderSim, DIM};
use laminar_client::LaminarClient;
use laminar_core::{Laminar, LaminarConfig};
use laminar_execengine::{ExecRequest, Frame, ResponseMode};
use laminar_registry::{NewPe, PersistOptions, Registry, SearchTarget, SyncPolicy};
use laminar_server::indexes::EntryKind;
use laminar_server::protocol::{BatchItemWire, RunInputWire};
use laminar_server::{
    sweep_workflows, EmbeddingType, Ident, LaminarServer, NetServer, Reply, Request,
    RequestEnvelope, Response, SearchIndexes, SearchScope, WireFrame,
};
use serde::Serialize;
use spt::Spt;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls behind a micro-timing's p50, unless its time budget ends first.
const CALLS: usize = 200;
/// Wall-clock budget of one micro-timing.
const BUDGET: Duration = Duration::from_millis(150);
/// Requests of the workload that are replayed under spans.
const REPLAYED: usize = 500;
/// Wall-clock budget of the replay.
const REPLAY_BUDGET: Duration = Duration::from_secs(6);
/// Requests per canonical class added to the replay so the four
/// `server.handle.*` metrics exist on every workload.
const CANONICAL: usize = 60;
/// Share by which the layers' sum may miss `handle_envelope` before the
/// class is flagged.
const FLAG_SHARE: f64 = 0.20;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; `enabled == false` makes it a no-op so the
/// same code path gives the untraced timings.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, request: u32, parent: Option<u32>, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.now();
        }
    }

    fn span<T>(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, parent, name);
        let out = f();
        self.close(id);
        out
    }
}

/// p50 of `f` in microseconds over [`CALLS`] calls or [`BUDGET`],
/// whichever ends first; `inputs` are cycled.
fn time_us<I, T>(inputs: &[I], mut f: impl FnMut(&I) -> T) -> f64 {
    time_us_n(inputs, CALLS, &mut f)
}

fn time_us_n<I, T>(inputs: &[I], calls: usize, f: &mut impl FnMut(&I) -> T) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(calls);
    for input in inputs.iter().cycle().take(calls) {
        let t = Instant::now();
        black_box(f(black_box(input)));
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if started.elapsed() > BUDGET && samples.len() >= 5 {
            break;
        }
    }
    stats::median(&mut samples).unwrap_or(0.0)
}

fn median_of(mut values: Vec<f64>) -> f64 {
    stats::median(&mut values).unwrap_or(0.0)
}

fn new_pe(user_id: u64, name: &str, code: &str) -> NewPe {
    NewPe {
        user_id,
        name: name.to_string(),
        description: "benchmark row".to_string(),
        code: code.to_string(),
        description_embedding: "[]".to_string(),
        spt_embedding: "{}".to_string(),
    }
}

/// The wire request an operation becomes.
fn request_of(op: &Op, token: u64) -> Request {
    match op {
        Op::SearchSemantic {
            workflows, query, ..
        } => Request::SearchSemantic {
            token,
            scope: scope(*workflows),
            query: query.clone(),
            top_n: None,
        },
        Op::SearchLiteral { term } => Request::SearchLiteral {
            token,
            scope: SearchScope::Pe,
            term: term.clone(),
            top_n: None,
        },
        Op::Recommend {
            workflows,
            llm,
            snippet,
            ..
        } => Request::CodeRecommendation {
            token,
            scope: scope(*workflows),
            snippet: snippet.clone(),
            embedding_type: if *llm {
                EmbeddingType::Llm
            } else {
                EmbeddingType::Spt
            },
            top_n: None,
        },
        Op::Completion { snippet } => Request::CodeCompletion {
            token,
            snippet: snippet.clone(),
        },
        Op::GetPe { name } => Request::GetPe {
            token,
            ident: Ident::from(name.as_str()),
        },
        Op::RegisterPe(pe) => Request::RegisterPe {
            token,
            pe: submission(&pe.name, &pe.code),
        },
        Op::RegisterBatch(items) => Request::RegisterBatch {
            token,
            items: items
                .iter()
                .map(|pe| BatchItemWire::Pe(submission(&pe.name, &pe.code)))
                .collect(),
        },
        Op::RegisterWorkflow { name, source } => Request::RegisterWorkflow {
            token,
            name: name.clone(),
            code: source.clone(),
            description: None,
            pes: laminar_client::extract_pes_from_source(source),
        },
        Op::UpdateDescription { name, description } => Request::UpdatePeDescription {
            token,
            ident: Ident::from(name.as_str()),
            description: description.clone(),
        },
        Op::Run { workflow, kind } => Request::Run {
            token,
            ident: Ident::from(*workflow),
            input: RunInputWire::Iterations(RUN_ITERATIONS),
            mode: run_mode(*kind),
            streaming: true,
            verbose: false,
            resources: Vec::new(),
            fault: Default::default(),
            task_timeout_ms: None,
        },
    }
}

/// `handle_envelope` to completion: a streamed reply is drained.
fn handle(server: &LaminarServer, request: Request) -> Vec<WireFrame> {
    match server.handle_envelope(RequestEnvelope::new(request)).1 {
        Reply::Value(v) => vec![WireFrame::Value(v)],
        Reply::Stream(frames) => frames.iter().collect(),
    }
}

/// The layers a replay re-enacts requests on, standing beside the
/// deployed server: same inputs, separately owned state where a step
/// writes.
struct Bench<'a> {
    server: &'a LaminarServer,
    token: u64,
    user_id: u64,
    unixcoder: UniXcoderSim,
    reacc: ReaccSim,
    codet5: CodeT5Sim,
    /// Standalone engine over the corpus PEs, configured as the server
    /// configures its own.
    engine: AromaEngine,
    /// Where replayed registrations land: a WAL-backed registry and an
    /// index of their own, so the server's are written once per request.
    scratch_registry: Registry,
    scratch_indexes: SearchIndexes,
    min_score: f32,
    min_cosine: f32,
}

impl Bench<'_> {
    /// Re-enact `op` under a `replay` span; returns the summed duration
    /// of the steps that fall inside `handle_envelope` (everything but
    /// the protocol codec), in microseconds.
    fn replay(&mut self, tracer: &mut Tracer, request_id: u32, op: &Op) -> f64 {
        let replay = tracer.open(request_id, None, "replay");
        let parent = Some(replay);
        let request = request_of(op, self.token);
        let envelope = RequestEnvelope::new(request);
        let bytes = tracer.span(request_id, parent, "protocol.encode_request", || {
            serde_json::to_vec(&envelope).expect("requests serialise")
        });
        tracer.span(request_id, parent, "protocol.decode_request", || {
            black_box(serde_json::from_slice::<RequestEnvelope>(&bytes).expect("round trip"))
        });
        let inner_start = Instant::now();
        let reply = self.replay_inner(tracer, request_id, parent, op);
        let inner_us = inner_start.elapsed().as_secs_f64() * 1e6;
        for frame in &reply {
            let bytes = tracer.span(request_id, parent, "protocol.encode_reply", || {
                serde_json::to_vec(frame).expect("frames serialise")
            });
            tracer.span(request_id, parent, "protocol.decode_reply", || {
                black_box(serde_json::from_slice::<WireFrame>(&bytes).expect("round trip"))
            });
        }
        tracer.close(replay);
        inner_us
    }

    fn hydrate_pes(&self, ids: impl Iterator<Item = u64>) -> Vec<laminar_registry::PeRow> {
        ids.filter_map(|id| self.server.registry().get_pe(id).ok())
            .collect()
    }

    /// The steps between decode and encode, each under its own span. The
    /// reply frames are rebuilt only as far as their size matters to the
    /// codec spans that follow.
    fn replay_inner(
        &mut self,
        t: &mut Tracer,
        r: u32,
        parent: Option<u32>,
        op: &Op,
    ) -> Vec<WireFrame> {
        let server = self.server;
        match op {
            Op::SearchSemantic {
                workflows, query, ..
            } => {
                let kind = if *workflows {
                    EntryKind::Workflow
                } else {
                    EntryKind::Pe
                };
                let q = t.span(r, parent, "embed.unixcoder_text", || {
                    self.unixcoder.embed_text(query)
                });
                let hits = t.span(r, parent, "indexes.rank_semantic", || {
                    server.indexes().rank_semantic(&q, Some(kind), 5)
                });
                let rows = t.span(r, parent, "registry.hydrate", || {
                    hits.iter()
                        .filter_map(|h| match h.kind {
                            EntryKind::Pe => server
                                .registry()
                                .get_pe(h.id)
                                .ok()
                                .map(|p| (p.id, p.name, p.description)),
                            EntryKind::Workflow => server
                                .registry()
                                .get_workflow(h.id)
                                .ok()
                                .map(|w| (w.id, w.name, w.description)),
                        })
                        .collect::<Vec<_>>()
                });
                let hits = rows
                    .into_iter()
                    .map(|(id, name, description)| laminar_server::SemanticHit {
                        id,
                        name,
                        description,
                        cosine_similarity: 0.5,
                    })
                    .collect();
                vec![WireFrame::Value(Response::SemanticResults(hits))]
            }
            Op::Recommend {
                workflows: false,
                llm: false,
                snippet,
                ..
            } => {
                let (recs, _) = t.span(r, parent, "aroma.recommend", || {
                    self.engine.recommend_with_stats(snippet)
                });
                let rows = t.span(r, parent, "registry.hydrate", || {
                    self.hydrate_pes(recs.iter().map(|rec| rec.seed_id))
                });
                vec![WireFrame::Value(Response::Pes(
                    rows.iter().map(pe_info).collect(),
                ))]
            }
            Op::Recommend {
                workflows: true,
                llm: false,
                snippet,
                ..
            } => {
                let q = t.span(r, parent, "spt.parse_feature_vec", || {
                    Spt::parse_source(snippet).feature_vec()
                });
                let hits = t.span(r, parent, "indexes.rank_spt_above", || {
                    server
                        .indexes()
                        .rank_spt_above(&q, Some(EntryKind::Pe), self.min_score)
                });
                let workflows = t.span(r, parent, "registry.all_workflows", || {
                    server.registry().all_workflows()
                });
                let pe_hits: Vec<(u64, f32)> = hits.iter().map(|h| (h.id, h.score)).collect();
                let ranked = t.span(r, parent, "reco.sweep_workflows", || {
                    sweep_workflows(
                        &pe_hits,
                        workflows.iter().map(|w| (w.id, w.pe_ids.as_slice())),
                    )
                });
                black_box(ranked);
                Vec::new()
            }
            Op::Recommend {
                llm: true, snippet, ..
            } => {
                let q = t.span(r, parent, "embed.reacc_code", || {
                    self.reacc.embed_code(snippet)
                });
                let hits = t.span(r, parent, "indexes.rank_reacc", || {
                    server.indexes().rank_reacc(&q, Some(EntryKind::Pe), 5)
                });
                let rows = t.span(r, parent, "registry.hydrate", || {
                    let kept = hits.iter().filter(|h| h.score >= self.min_cosine);
                    self.hydrate_pes(kept.map(|h| h.id))
                });
                vec![WireFrame::Value(Response::Pes(
                    rows.iter().map(pe_info).collect(),
                ))]
            }
            Op::GetPe { name } => {
                let row = t.span(r, parent, "registry.get_pe_by_name", || {
                    server.registry().get_pe_by_name(name)
                });
                row.iter()
                    .map(|p| WireFrame::Value(Response::Pe(pe_info(p))))
                    .collect()
            }
            Op::SearchLiteral { term } => {
                let (pes, _) = t.span(r, parent, "registry.literal_search", || {
                    server.registry().literal_search(SearchTarget::Pe, term)
                });
                vec![WireFrame::Value(Response::Registry {
                    pes: pes.iter().take(100).map(pe_info).collect(),
                    workflows: Vec::new(),
                })]
            }
            Op::RegisterPe(pe) => {
                let description = t.span(r, parent, "embed.codet5_describe", || {
                    self.codet5.describe_pe(&pe.code)
                });
                let desc = t.span(r, parent, "embed.unixcoder_text", || {
                    self.unixcoder.embed_text(&description)
                });
                let features = t.span(r, parent, "spt.parse_feature_vec", || {
                    Spt::parse_source(&pe.code).feature_vec()
                });
                let row = NewPe {
                    user_id: self.user_id,
                    name: pe.name.clone(),
                    description,
                    code: pe.code.clone(),
                    description_embedding: desc.to_json(),
                    spt_embedding: features.to_json(),
                };
                let id = t.span(r, parent, "registry.add_pe", || {
                    self.scratch_registry.add_pe(row)
                });
                let id = id.unwrap_or(0);
                let code_vec = t.span(r, parent, "embed.reacc_code", || {
                    self.reacc.embed_code(&pe.code)
                });
                t.span(r, parent, "indexes.upsert_embedded", || {
                    self.scratch_indexes.upsert_embedded(
                        id,
                        EntryKind::Pe,
                        desc,
                        features,
                        code_vec,
                    )
                });
                t.span(r, parent, "aroma.upsert", || {
                    self.engine
                        .upsert(Snippet::new(id, pe.name.as_str(), pe.code.as_str()))
                });
                vec![WireFrame::Value(Response::Registered {
                    pe_ids: vec![(pe.name.clone(), id)],
                    workflow_id: None,
                })]
            }
            Op::Run { workflow, kind } => {
                let report = t.span(r, parent, "execengine.execute_collect", || {
                    server
                        .engine()
                        .execute_collect(exec_request(workflow, *kind))
                });
                report
                    .map(|rep| rep.lines.into_iter().map(WireFrame::Line).collect())
                    .unwrap_or_default()
            }
            // Batches, workflow files, completions and description updates
            // have no step-by-step re-enactment; their root span and codec
            // spans are recorded, their inside is left to the residual.
            Op::RegisterBatch(_)
            | Op::RegisterWorkflow { .. }
            | Op::Completion { .. }
            | Op::UpdateDescription { .. } => Vec::new(),
        }
    }
}

fn pe_info(p: &laminar_registry::PeRow) -> laminar_server::protocol::PeInfo {
    laminar_server::protocol::PeInfo {
        id: p.id,
        name: p.name.clone(),
        description: p.description.clone(),
        code: p.code.clone(),
    }
}

fn exec_request(workflow: &str, kind: RunKind) -> ExecRequest {
    ExecRequest {
        workflow: workflow.to_string(),
        code: String::new(),
        input: d4py::RunInput::Iterations(RUN_ITERATIONS),
        mapping: mapping_of(kind),
        mode: ResponseMode::Streaming,
        verbose: false,
        options: d4py::RunOptions::default(),
    }
}

fn mapping_of(kind: RunKind) -> d4py::Mapping {
    match kind {
        RunKind::Sequential => d4py::Mapping::Simple,
        RunKind::Multiprocess => d4py::Mapping::Multi {
            processes: RUN_PROCESSES,
        },
        RunKind::Dynamic => d4py::Mapping::Dynamic(d4py::DynamicConfig::default()),
    }
}

/// What the traced run found, besides the metrics.
pub struct LayerReport {
    pub metrics: Metrics,
    /// Operation classes whose layers' sum misses `handle_envelope` by
    /// more than [`FLAG_SHARE`], with both figures.
    pub flags: Vec<String>,
    pub spans: Vec<Span>,
}

fn deploy(data_dir: &Path) -> Result<Laminar, String> {
    let laminar = Laminar::try_deploy(LaminarConfig {
        data_dir: Some(data_dir.to_path_buf()),
        ..LaminarConfig::default()
    })
    .map_err(|e| format!("cannot deploy on {}: {e}", data_dir.display()))?;
    laminar
        .seed_stock_registry()
        .map_err(|e| format!("cannot seed the stock workflows: {e}"))?;
    Ok(laminar)
}

pub fn run(workload: Workload, seed: u64, scale: Scale) -> Result<LayerReport, String> {
    let corpus = Corpus::generate(scale);
    let (fixture_dir, _) = fixture::ensure(&corpus, scale)?;
    let mut out = Metrics::new();
    macro_rules! put {
        ($name:expr, $value:expr $(,)?) => {{
            let value = $value;
            metrics::put(&mut out, &metrics::FROM_LAYERS, $name, value)
        }};
    }

    // Workload-independent inputs, drawn from the generator's own streams.
    let queries: Vec<String> = Generator::new(Workload::Search, seed, 0, &corpus)
        .filter_map(|op| match op {
            Op::SearchSemantic {
                workflows: false,
                query,
                ..
            } => Some(query),
            _ => None,
        })
        .take(CALLS)
        .collect();
    let snippets: Vec<String> = Generator::new(Workload::Recommend, seed, 0, &corpus)
        .filter_map(|op| match op {
            Op::Recommend {
                workflows: false,
                snippet,
                ..
            } => Some(snippet),
            _ => None,
        })
        .take(CALLS)
        .collect();
    let codes: Vec<&str> = corpus
        .entries()
        .iter()
        .step_by(7)
        .take(CALLS)
        .map(|e| e.code.as_str())
        .collect();
    let fresh: Vec<crate::gen::FreshPe> =
        Generator::new(Workload::Ingest, seed ^ 0x1a7e, 9, &corpus)
            .filter_map(|op| match op {
                Op::RegisterPe(pe) => Some(pe),
                _ => None,
            })
            .take(3 * CALLS)
            .collect();

    // ---- leaf crates ----------------------------------------------------
    let unixcoder = UniXcoderSim::new();
    let reacc = ReaccSim::new();
    let codet5 = CodeT5Sim::new(DescriptionContext::FullClass);
    put!(
        "embed.unixcoder_text_us",
        time_us(&queries, |q| unixcoder.embed_text(q))
    );
    put!(
        "embed.reacc_code_us",
        time_us(&codes, |c| reacc.embed_code(c))
    );
    put!(
        "embed.codet5_describe_us",
        time_us(&codes, |c| codet5.describe_pe(c))
    );
    put!("pyparse.parse_us", time_us(&codes, |c| pyparse::parse(c)));
    put!(
        "pyparse.parse_partial_us",
        time_us(&snippets, |s| pyparse::parse(s))
    );
    let trees: Vec<Spt> = codes.iter().map(|c| Spt::parse_source(c)).collect();
    put!("spt.feature_vec_us", time_us(&trees, |t| t.feature_vec()));

    // ---- d4py and the execution engine ----------------------------------
    let graph = d4py::workflows::isprime_graph();
    let d4py_us = |kind: RunKind| {
        time_us(&[kind], |k| {
            d4py::run(
                &graph,
                d4py::RunInput::Iterations(RUN_ITERATIONS),
                &mapping_of(*k),
            )
            .map(|r| r.lines().len())
        })
    };
    let simple_us = d4py_us(RunKind::Sequential);
    put!("d4py.simple_run_us", simple_us);
    put!("d4py.multi_run_us", d4py_us(RunKind::Multiprocess));
    put!("d4py.dynamic_run_us", d4py_us(RunKind::Dynamic));

    // ---- registry, standalone --------------------------------------------
    let scratch = TempDir::new("layers")?;
    let open = |name: &str, opts: PersistOptions| -> Result<(Registry, u64), String> {
        let registry = Registry::open(&scratch.0.join(name), opts)
            .map_err(|e| format!("cannot open {name}: {e}"))?;
        let user = registry
            .register_user("bench", "bench")
            .map_err(|e| e.to_string())?;
        Ok((registry, user))
    };
    let no_compaction = |sync| PersistOptions {
        snapshot_every: 0,
        sync,
    };
    {
        let memory = Registry::new();
        let user = memory
            .register_user("bench", "bench")
            .map_err(|e| e.to_string())?;
        put!(
            "registry.add_pe_mem_us",
            time_us(&fresh[..CALLS], |pe| memory
                .add_pe(new_pe(user, &pe.name, &pe.code)))
        );
    }
    {
        let (wal, user) = open("wal", no_compaction(SyncPolicy::OsBuffered))?;
        put!(
            "registry.add_pe_wal_us",
            time_us(&fresh[..CALLS], |pe| wal
                .add_pe(new_pe(user, &pe.name, &pe.code)))
        );
        let stats = wal
            .persist_stats()
            .ok_or("a WAL-backed registry reports persistence stats")?;
        put!(
            "registry.wal_bytes_per_row",
            stats.wal_bytes as f64 / stats.wal_appends.max(1) as f64
        );
        drop(wal);
        // The directory now holds a WAL and no snapshot: opening it is
        // pure replay.
        let replay_ms = time_us_n(&[()], 5, &mut |_| {
            Registry::open(
                &scratch.0.join("wal"),
                no_compaction(SyncPolicy::OsBuffered),
            )
            .map(|r| r.counts())
        }) / 1e3;
        put!("registry.open_replay_ms", replay_ms);
    }
    {
        let (fsync, user) = open("fsync", no_compaction(SyncPolicy::EveryAppend))?;
        put!(
            "registry.add_pe_fsync_us",
            time_us(&fresh[..CALLS], |pe| fsync
                .add_pe(new_pe(user, &pe.name, &pe.code)))
        );
    }

    // ---- the deployed stack ------------------------------------------------
    let stack_dir = scratch.0.join("stack");
    fixture::copy_dir(&fixture_dir, &stack_dir)?;
    let warm = Instant::now();
    let laminar = deploy(&stack_dir)?;
    put!("server.warm_load_ms", warm.elapsed().as_secs_f64() * 1e3);
    let server: Arc<LaminarServer> = laminar.server();
    let token = match handle(
        &server,
        Request::Login {
            username: "bench".into(),
            password: "bench".into(),
        },
    )
    .pop()
    {
        Some(WireFrame::Value(Response::Token(token))) => token,
        other => return Err(format!("login answered {other:?}")),
    };
    let user_id = server
        .registry()
        .login("bench", "bench")
        .map_err(|e| e.to_string())?;

    let registry = server.registry();
    let ids: Vec<u64> = registry
        .all_pes()
        .iter()
        .step_by(11)
        .take(CALLS)
        .map(|p| p.id)
        .collect();
    put!(
        "registry.get_pe_us",
        time_us(&ids, |id| registry.get_pe(*id))
    );
    let terms: Vec<&str> = corpus
        .entries()
        .iter()
        .step_by(13)
        .take(CALLS)
        .map(|e| &e.name[..e.name.len() - 1])
        .collect();
    put!(
        "registry.literal_search_us",
        time_us(&terms, |t| registry.literal_search(SearchTarget::Pe, t))
    );

    let indexes = server.indexes();
    let text_vecs: Vec<_> = queries.iter().map(|q| unixcoder.embed_text(q)).collect();
    let code_vecs: Vec<_> = snippets.iter().map(|s| reacc.embed_code(s)).collect();
    let feature_vecs: Vec<_> = snippets
        .iter()
        .map(|s| Spt::parse_source(s).feature_vec())
        .collect();
    let min_score = server.config().reco_min_score;
    put!(
        "indexes.rank_semantic_us",
        time_us(&text_vecs, |q| indexes.rank_semantic(
            q,
            Some(EntryKind::Pe),
            5
        ))
    );
    put!(
        "indexes.rank_reacc_us",
        time_us(&code_vecs, |q| indexes.rank_reacc(
            q,
            Some(EntryKind::Pe),
            5
        ))
    );
    put!(
        "indexes.rank_spt_us",
        time_us(&feature_vecs, |q| indexes.rank_spt(
            q,
            Some(EntryKind::Pe),
            5
        ))
    );
    put!(
        "indexes.rank_spt_above_us",
        time_us(&feature_vecs, |q| indexes.rank_spt_above(
            q,
            Some(EntryKind::Pe),
            min_score
        ))
    );
    put!("indexes.rows", indexes.len() as f64);
    // Computed, not measured: a dense query reads every row's DIM floats.
    put!(
        "indexes.scan_mb_per_query",
        (indexes.len() * DIM * 4) as f64 / 1e6
    );

    let workflows = registry.all_workflows();
    let above: Vec<Vec<(u64, f32)>> = feature_vecs
        .iter()
        .take(50)
        .map(|q| {
            indexes
                .rank_spt_above(q, Some(EntryKind::Pe), min_score)
                .iter()
                .map(|h| (h.id, h.score))
                .collect()
        })
        .collect();
    put!(
        "reco.sweep_workflows_us",
        time_us(&above, |hits| sweep_workflows(
            hits,
            workflows.iter().map(|w| (w.id, w.pe_ids.as_slice()))
        )),
    );

    // A standalone Aroma engine over the same PEs, configured as the
    // server configures the one it serves from.
    let config = server.config();
    let mut engine = AromaEngine::new(AromaConfig {
        retrieve_n: config.reco_retrieve_n,
        rerank_keep: config.reco_rerank_keep,
        cluster_sim: config.reco_cluster_sim,
        max_recommendations: config.reco_rerank_keep,
        parallel_threshold: config.reco_parallel_threshold,
        lsh_min_entries: config.reco_lsh_min_entries,
        min_overlap: config.reco_min_score,
        ..AromaConfig::default()
    });
    engine.add_batch(
        registry
            .all_pes()
            .iter()
            .map(|p| Snippet::new(p.id, p.name.as_str(), p.code.as_str()))
            .collect(),
    );
    let mut stage_stats: Vec<RecoStats> = Vec::new();
    put!(
        "aroma.recommend_us",
        time_us(&snippets, |s| {
            let (recs, stats) = engine.recommend_with_stats(s);
            stage_stats.push(stats);
            recs.len()
        }),
    );
    let stage = |pick: fn(&RecoStats) -> f64| median_of(stage_stats.iter().map(pick).collect());
    put!(
        "aroma.retrieve_us",
        stage(|s| s.retrieve.as_secs_f64() * 1e6)
    );
    put!("aroma.prune_us", stage(|s| s.prune.as_secs_f64() * 1e6));
    put!("aroma.cluster_us", stage(|s| s.cluster.as_secs_f64() * 1e6));
    put!(
        "aroma.intersect_us",
        stage(|s| s.intersect.as_secs_f64() * 1e6)
    );
    put!("aroma.retrieved", stage(|s| s.retrieved as f64));
    put!("aroma.pruned", stage(|s| s.pruned as f64));
    put!("aroma.clusters", stage(|s| s.clusters as f64));
    put!(
        "aroma.lsh_candidates",
        stage(|s| s.lsh_candidates.unwrap_or(0) as f64)
    );

    let first_line = |_: &()| {
        let start = Instant::now();
        let frames = server
            .engine()
            .execute(exec_request("isprime_wf", RunKind::Sequential));
        let mut first = None;
        for frame in frames.iter() {
            if matches!(frame, Frame::Line(_)) {
                first.get_or_insert_with(|| start.elapsed());
            }
        }
        first.unwrap_or_else(|| start.elapsed()).as_secs_f64() * 1e6
    };
    let mut first_lines = Vec::new();
    let execute_us = time_us(&[()], |_| {
        server
            .engine()
            .execute_collect(exec_request("isprime_wf", RunKind::Sequential))
            .map(|r| r.lines.len())
    });
    time_us(&[()], |u| first_lines.push(first_line(u)));
    put!("execengine.execute_us", execute_us);
    put!("execengine.overhead_us", execute_us - simple_us);
    put!("execengine.first_line_us", median_of(first_lines));

    // ---- the replay ----------------------------------------------------------
    let (scratch_registry, _) = open("replay", PersistOptions::default())?;
    let mut bench = Bench {
        server: &server,
        token,
        user_id,
        unixcoder,
        reacc,
        codet5,
        engine,
        scratch_registry,
        scratch_indexes: SearchIndexes::new(),
        min_score,
        min_cosine: config.reco_min_cosine,
    };
    let canonical = |w: Workload, class: OpClass, salt: u64| {
        Generator::new(w, seed ^ salt, 7, &corpus)
            .filter(move |op| op.class() == class)
            .take(CANONICAL)
    };
    let ops: Vec<Op> = Generator::new(workload, seed, 0, &corpus)
        .take(REPLAYED)
        .chain(canonical(Workload::Search, OpClass::SearchSemantic, 0xca01))
        .chain(canonical(Workload::Recommend, OpClass::RecoSptPe, 0xca02))
        .chain(canonical(Workload::Mixed, OpClass::GetPe, 0xca03))
        .chain(canonical(Workload::Ingest, OpClass::RegisterPe, 0xca04))
        .collect();
    let is_read = |op: &Op| {
        op.rows_added() == (0, 0) && !matches!(op, Op::UpdateDescription { .. } | Op::Run { .. })
    };

    // `trace.overhead_share`: the same `handle_envelope` reads twice,
    // recorder off, then on, with nothing in between that the replay
    // would add (its re-enactments evict what the server just touched).
    let reads_pass = |tracer: &mut Tracer| -> f64 {
        let started = Instant::now();
        let mut timings = Vec::new();
        for op in ops.iter().filter(|op| is_read(op)) {
            if started.elapsed() > REPLAY_BUDGET / 6 {
                break;
            }
            let t = Instant::now();
            tracer.span(0, None, "server.handle_envelope", || {
                black_box(handle(&server, request_of(op, token)))
            });
            timings.push(t.elapsed().as_secs_f64() * 1e6);
        }
        median_of(timings)
    };
    let untraced_p50 = reads_pass(&mut Tracer::new(false));
    let traced_p50 = reads_pass(&mut Tracer::new(true));

    let mut tracer = Tracer::new(true);
    // Per request: its class, `handle_envelope`'s time, the layers' sum.
    let mut handled: Vec<(OpClass, f64, f64)> = Vec::new();
    let mut request_bytes = Vec::new();
    let mut reply_bytes = Vec::new();
    let replay_start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        // The workload's own prefix may be cut short by the budget; the
        // canonical tail always runs.
        if i < REPLAYED && replay_start.elapsed() > REPLAY_BUDGET {
            continue;
        }
        let request_id = i as u32;
        let request = request_of(op, token);
        request_bytes.push(
            serde_json::to_vec(&RequestEnvelope::new(request.clone())).map_or(0, |b| b.len())
                as f64,
        );
        let t = Instant::now();
        let frames = tracer.span(request_id, None, "server.handle_envelope", || {
            handle(&server, request)
        });
        let handle_us = t.elapsed().as_secs_f64() * 1e6;
        reply_bytes.push(
            frames
                .iter()
                .map(|f| serde_json::to_vec(f).map_or(0, |b| b.len()))
                .sum::<usize>() as f64,
        );
        let layers_us = bench.replay(&mut tracer, request_id, op);
        handled.push((op.class(), handle_us, layers_us));
    }

    let p50_of = |name: &str| {
        median_of(
            tracer
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        )
    };
    put!(
        "protocol.encode_request_us",
        p50_of("protocol.encode_request")
    );
    put!(
        "protocol.decode_request_us",
        p50_of("protocol.decode_request")
    );
    put!("protocol.encode_reply_us", p50_of("protocol.encode_reply"));
    put!("protocol.decode_reply_us", p50_of("protocol.decode_reply"));
    put!("protocol.request_bytes", median_of(request_bytes));
    put!("protocol.reply_bytes", median_of(reply_bytes));
    let lines: Vec<WireFrame> = (0..CALLS)
        .map(|i| WireFrame::Line(format!("the num {{'input': {i}}} is prime")))
        .collect();
    put!(
        "protocol.stream_frame_us",
        time_us(&lines, |frame| {
            let bytes = serde_json::to_vec(frame).expect("frames serialise");
            serde_json::from_slice::<WireFrame>(&bytes).expect("round trip")
        }),
    );
    put!("indexes.upsert_us", p50_of("indexes.upsert_embedded"));

    let mut flags = Vec::new();
    let by_class = |class: OpClass| -> (f64, f64) {
        let of_class = || handled.iter().filter(|h| h.0 == class);
        (
            median_of(of_class().map(|h| h.1).collect()),
            median_of(of_class().map(|h| h.2).collect()),
        )
    };
    for (class, handle_name, residual_name) in [
        (
            OpClass::SearchSemantic,
            "server.handle.search_semantic_us",
            Some("server.residual.search_semantic_us"),
        ),
        (
            OpClass::RecoSptPe,
            "server.handle.reco_spt_pe_us",
            Some("server.residual.reco_spt_pe_us"),
        ),
        (
            OpClass::RegisterPe,
            "server.handle.register_pe_us",
            Some("server.residual.register_pe_us"),
        ),
        (OpClass::GetPe, "server.handle.get_pe_us", None),
    ] {
        let (handle_us, layers_us) = by_class(class);
        put!(handle_name, handle_us);
        if let Some(name) = residual_name {
            put!(name, handle_us - layers_us);
        }
        if handle_us > 0.0 && ((handle_us - layers_us) / handle_us).abs() > FLAG_SHARE {
            flags.push(format!(
                "{}: layers sum to {layers_us:.1} us of handle_envelope's {handle_us:.1} us",
                class.name()
            ));
        }
    }
    put!(
        "trace.overhead_share",
        if untraced_p50 > 0.0 {
            traced_p50 / untraced_p50 - 1.0
        } else {
            0.0
        }
    );
    put!("trace.spans", tracer.spans.len() as f64);

    // ---- compaction and cold opens, on the stack's own directory -----------
    let mut snapshot_bytes = 0;
    let compact_ms = time_us_n(&[()], 3, &mut |_| {
        if let Ok(Some(stats)) = registry.compact() {
            snapshot_bytes = stats.snapshot_bytes;
        }
    }) / 1e3;
    put!("registry.compact_ms", compact_ms);
    let (pes, wfs) = registry.counts();
    put!(
        "registry.snapshot_bytes_per_row",
        snapshot_bytes as f64 / (pes + wfs).max(1) as f64
    );

    // ---- the wire, last: it needs the stack whole ---------------------------
    let net =
        NetServer::bind("127.0.0.1:0", server.clone()).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = net.addr();
    let mut tcp = LaminarClient::connect_tcp(addr).with_retry(laminar_client::RetryPolicy::none());
    tcp.login("bench", "bench")
        .map_err(|e| format!("login over TCP failed: {e}"))?;
    put!(
        "net.health_roundtrip_us",
        time_us(&[()], |_| tcp.health().is_ok())
    );
    let over_tcp = time_us(&queries, |q| {
        tcp.search_registry_semantic(SearchScope::Pe, q)
            .map(|h| h.len())
    });
    let codec: f64 = [
        "protocol.encode_request_us",
        "protocol.decode_request_us",
        "protocol.encode_reply_us",
        "protocol.decode_reply_us",
    ]
    .iter()
    .map(|n| out[*n].value)
    .sum();
    let handle_search = out["server.handle.search_semantic_us"].value;
    put!(
        "net.residual.search_semantic_us",
        over_tcp - handle_search - codec
    );
    // Bare connects go last: each leaves the acceptor a socket to hand to
    // a worker and find closed, which would shorten the waits above.
    put!(
        "net.connect_us",
        time_us(&[()], |_| std::net::TcpStream::connect(addr).map(drop))
    );
    net.shutdown();
    drop(bench);

    // A snapshot-only directory: the stack's, compacted above, reopened.
    drop(tcp);
    drop(net);
    drop(server);
    drop(laminar);
    let snapshot_ms = time_us_n(&[()], 3, &mut |_| {
        Registry::open(&stack_dir, PersistOptions::default()).map(|r| r.counts())
    }) / 1e3;
    put!("registry.open_snapshot_ms", snapshot_ms);

    Ok(LayerReport {
        metrics: out,
        flags,
        spans: tracer.spans,
    })
}
