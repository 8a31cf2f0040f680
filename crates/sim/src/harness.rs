//! The whole-system simulation harness.
//!
//! One seed drives everything: the workload stream, the transport fault
//! plane ([`crate::netfault`]), the registry's disk-fault injector, the
//! d4py enactment chaos, and the crash-restart schedule. Each episode
//! stands up the full server in-process (registry + engine + indexes +
//! recommendation + health, on a virtual [`SimClock`]), hammers it, and
//! checks the oracle invariants after every operation:
//!
//! * **I1 — read agreement**: after every op, a direct `GetRegistry`
//!   must agree exactly with the reference model built from the
//!   acknowledged-op journal (no ghost rows, no lost rows, attribute
//!   agreement).
//! * **I2 — durability**: crash-restart (drop the stack, reopen the same
//!   data directory) must preserve exactly the acknowledged state.
//! * **I3 — RCU generation**: the index cell's one snapshot generation
//!   never goes backwards within a server lifetime.
//! * **I4 — read determinism**: issuing the same search/describe twice
//!   in a row returns bit-identical responses.
//! * **I5 — typed failure**: every client-visible failure is a typed
//!   error (`Server`/`Connection`), never `UnexpectedResponse`, and a
//!   degraded server rejects mutations with the typed `Degraded` error
//!   — it never silently applies or hangs.
//! * **I6 — run determinism**: a clean run's output matches a shadow
//!   re-execution of the same request on a fault-free path (sorted
//!   lines, verdict, dead-letter count).
//!
//! Every deployment in an episode shares the episode's data directory,
//! so crash-restart cycles exercise WAL replay and snapshot recovery
//! under whatever the disk-fault plane did to the files.

use crate::model::SimModel;
use crate::netfault::{CallOutcome, CallRecord, FaultyConn, NetState};
use crate::rng::SimRng;
use crate::workload::{SimOp, Workload};
use laminar_client::{ClientError, LaminarClient, RetryPolicy};
use laminar_core::{Laminar, LaminarConfig};
use laminar_registry::{FaultKind, FaultMode, FaultSpec, IoSite, SNAPSHOT_FILE, WAL_FILE};
use laminar_server::protocol::{
    EmbeddingType, PeInfo, Reply, Request, Response, RunInputWire, WireFrame, WorkflowInfo,
};
use laminar_server::{
    Clock, ConnectionError, DeliveryMode, LaminarServer, ServerConfig, SharedClock, SimClock,
    Transport,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Deliberate model-breaking mutations, used to prove the oracle fires
/// (`--mutate`): a harness that never finds anything is indistinguishable
/// from one that checks nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Delete the WAL and snapshot before the final restart: every
    /// acknowledged row is lost, which I2 must report.
    LoseWal,
}

#[derive(Debug, Clone)]
pub struct SimOptions {
    pub seed: u64,
    pub episodes: u32,
    pub ops_per_episode: u32,
    pub mutate: Option<Mutation>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 1,
            episodes: 3,
            ops_per_episode: 40,
            mutate: None,
        }
    }
}

#[derive(Debug)]
pub struct SimReport {
    /// Deterministic event trace (no wall-clock values): two runs with
    /// the same seed produce identical traces, byte for byte.
    pub trace: Vec<String>,
    /// FNV-1a digest of the trace.
    pub digest: u64,
    /// Oracle violations, in discovery order. Empty means the run passed.
    pub violations: Vec<String>,
    pub episodes_run: u32,
    pub ops_run: u64,
}

impl SimReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// FNV-1a over the trace lines.
fn fnv64(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Registry source of the chaos workflow (registered with no member PEs;
/// the engine side comes from a library builder).
const CHAOS_WF_SOURCE: &str = "\
class ChaosMid(IterativePE):
    def _process(self, x):
        return x
";

/// The chaos workflow: a 3-stage pipeline whose middle PE panics on a
/// seeded fraction of datums, recovering after `fail_attempts` retries.
/// Chaos fate is keyed by datum content, so every run with the same
/// input and seed fails identically — the property I6 leans on.
fn chaos_graph(seed: u64) -> d4py::WorkflowGraph {
    use d4py::prelude::*;
    let mut g = WorkflowGraph::new("chaos_wf");
    let src = g.add(ProducerPE::new("ChaosSrc", |i| Some(Data::from(i as i64))));
    let mid = g.add(IterativePE::new("ChaosMid", |d: Data| Some(d)));
    let sink = g.add(ConsumerPE::new(
        "ChaosOut",
        |d: Data, ctx: &mut Context<'_>| ctx.log(format!("{d}")),
    ));
    g.connect(src, OUTPUT, mid, INPUT).unwrap();
    g.connect(mid, OUTPUT, sink, INPUT).unwrap();
    inject_chaos(
        &mut g,
        mid,
        ChaosConfig {
            seed,
            panic_rate: 0.25,
            fail_attempts: 2,
            ..ChaosConfig::default()
        },
    );
    g
}

/// One deployed stack (fresh per server lifetime within an episode).
struct Stack {
    laminar: Laminar,
    server: Arc<LaminarServer>,
    client: LaminarClient,
    net: Arc<NetState>,
    shadow_token: u64,
}

/// Everything one episode tracks across ops and restarts.
struct Episode<'a> {
    opts: &'a SimOptions,
    dir: PathBuf,
    /// Disk-fault spec for this episode (the injector deploys cleared;
    /// the schedule arms and clears it around fault windows).
    spec: FaultSpec,
    ctl: SimRng,
    workload: Workload,
    chaos_seed: u64,
    stack: Option<Stack>,
    model: SimModel,
    /// Last storage-health truth observed via a direct Health probe.
    degraded: bool,
    /// Disk faults have been armed since the last successful probe; while
    /// true, silent health flips (e.g. from a run's best-effort history
    /// write) are legitimate.
    exposure: bool,
    armed: bool,
    disarm_in: u32,
    /// Last observed index generation (I3).
    generation: u64,
    trace: Vec<String>,
    violations: Vec<String>,
    ops_run: u64,
}

pub fn run_sim(opts: &SimOptions) -> SimReport {
    let mut root = SimRng::new(opts.seed);
    let base = std::env::temp_dir().join(format!(
        "laminar-sim-{}-{}",
        std::process::id(),
        opts.seed
    ));
    let _ = std::fs::remove_dir_all(&base);
    let mut trace = Vec::new();
    let mut violations = Vec::new();
    let mut ops_run = 0u64;
    let mut episodes_run = 0u32;
    for ep_idx in 0..opts.episodes {
        episodes_run += 1;
        trace.push(format!("=== episode {ep_idx} ==="));
        let ep_rng = root.fork(u64::from(ep_idx) + 1);
        let dir = base.join(format!("ep{ep_idx}"));
        run_episode(opts, ep_rng, &dir, &mut trace, &mut violations, &mut ops_run);
        if !violations.is_empty() {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    let digest = fnv64(&trace);
    SimReport {
        trace,
        digest,
        violations,
        episodes_run,
        ops_run,
    }
}

fn pick_spec(rng: &mut SimRng) -> FaultSpec {
    let site = *rng.pick(&[
        IoSite::WalAppend,
        IoSite::WalBatchAppend,
        IoSite::WalFsync,
        IoSite::WalTruncate,
        IoSite::SnapshotWrite,
        IoSite::SnapshotFsync,
        IoSite::SnapshotRename,
    ]);
    let kind = *rng.pick(&[FaultKind::Enospc, FaultKind::ShortWrite, FaultKind::FsyncError]);
    let mode = if rng.chance(50) {
        FaultMode::Random(20 + rng.below(40) as u32)
    } else {
        FaultMode::From(1 + rng.below(3))
    };
    FaultSpec {
        sites: vec![site],
        mode,
        kind,
        short_cut: None,
    }
}

fn run_episode(
    opts: &SimOptions,
    mut ep_rng: SimRng,
    dir: &Path,
    trace: &mut Vec<String>,
    violations: &mut Vec<String>,
    ops_run: &mut u64,
) {
    let spec = pick_spec(&mut ep_rng);
    let mut ep = Episode {
        opts,
        dir: dir.to_path_buf(),
        spec,
        chaos_seed: ep_rng.next_u64(),
        workload: Workload::new(ep_rng.fork(101)),
        ctl: ep_rng.fork(102),
        stack: None,
        model: SimModel::new(),
        degraded: false,
        exposure: false,
        armed: false,
        disarm_in: 0,
        generation: 0,
        trace: Vec::new(),
        violations: Vec::new(),
        ops_run: 0,
    };
    ep.trace.push(format!("fault-spec {:?}", ep.spec));
    ep.run();
    trace.append(&mut ep.trace);
    violations.append(&mut ep.violations);
    *ops_run += ep.ops_run;
}

impl Episode<'_> {
    fn violation(&mut self, msg: String) {
        self.trace.push(format!("VIOLATION: {msg}"));
        self.violations.push(msg);
    }

    fn stack(&self) -> &Stack {
        self.stack.as_ref().expect("stack deployed")
    }

    // ---- deployment -----------------------------------------------------

    fn deploy_stack(&mut self, first: bool) -> Result<(), String> {
        let clock: Arc<SimClock> = Arc::new(SimClock::new());
        let shared_clock: SharedClock = clock.clone();
        let net_seed = self.ctl.next_u64();
        let inj_seed = self.ctl.next_u64();
        let config = LaminarConfig {
            max_containers: 4,
            cold_start: Duration::ZERO,
            prewarmed: 1,
            server: ServerConfig {
                probe_interval_ms: 0,
                degraded_retry_after_ms: 1,
                ..ServerConfig::default()
            },
            data_dir: Some(self.dir.clone()),
            snapshot_every: 0,
            wal_fsync: false,
            io_fault: Some(self.spec.clone()),
            io_fault_seed: inj_seed,
            clock: Some(shared_clock.clone()),
            ..LaminarConfig::default()
        };
        let laminar = Laminar::try_deploy(config).map_err(|e| format!("deploy failed: {e}"))?;
        // The injector deploys cleared; fault windows arm it explicitly.
        if let Some(inj) = laminar.fault_injector() {
            inj.clear();
        }
        let server = laminar.server();
        let chaos_seed = self.chaos_seed;
        server
            .engine()
            .library()
            .register("chaos_wf", move || chaos_graph(chaos_seed));
        let net = NetState::new(net_seed);
        let transport = Transport::new(server.clone(), DeliveryMode::Streaming)
            .with_clock(shared_clock);
        let sleeper_clock = clock.clone();
        let client = LaminarClient::over(FaultyConn::new(transport, net.clone()))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::ZERO,
                max_delay: Duration::ZERO,
            })
            .with_sleeper(Arc::new(move |d| sleeper_clock.sleep(d)));
        let mut stack = Stack {
            laminar,
            server,
            client,
            net,
            shadow_token: 0,
        };
        if first {
            stack
                .laminar
                .seed_stock_registry()
                .map_err(|e| format!("stock seeding failed: {e}"))?;
        }
        // Shadow session: direct server access, bypassing the fault plane.
        stack.shadow_token = match stack
            .server
            .handle(Request::Login {
                username: "stock".into(),
                password: "stock".into(),
            })
            .value()
        {
            Response::Token(t) => t,
            other => return Err(format!("stock login failed: {other:?}")),
        };
        stack
            .client
            .login("stock", "stock")
            .map_err(|e| format!("client login failed: {e}"))?;
        // Auth is not modelled; drop its journal records.
        let _ = stack.net.drain_journal();
        self.generation = stack.server.indexes().generation();
        self.degraded = false;
        self.exposure = false;
        self.armed = false;
        self.disarm_in = 0;
        self.stack = Some(stack);
        Ok(())
    }

    /// Register the chaos workflow's registry row through the shadow
    /// path, folding the outcome into the model. Duplicate errors mean
    /// it already survived on disk — a no-op.
    fn ensure_chaos_row(&mut self) {
        let req = Request::RegisterWorkflow {
            token: self.stack().shadow_token,
            name: "chaos_wf".into(),
            code: CHAOS_WF_SOURCE.into(),
            description: Some("chaos injection workflow".into()),
            pes: vec![],
        };
        let resp = self.stack().server.handle(req.clone()).value();
        match &resp {
            Response::Registered { .. } => {
                let rec = CallRecord {
                    seq: 0,
                    fault: None,
                    req,
                    outcome: CallOutcome::Value(resp.clone()),
                };
                for v in self.model.apply(&rec) {
                    self.violation(v);
                }
            }
            Response::Error(_) => {} // already present
            other => self.violation(format!("chaos_wf registration answered {other:?}")),
        }
    }

    // ---- shadow observations (direct, fault-free) -----------------------

    fn shadow_registry(&mut self) -> Option<(Vec<PeInfo>, Vec<WorkflowInfo>)> {
        let token = self.stack().shadow_token;
        match self
            .stack()
            .server
            .handle(Request::GetRegistry { token })
            .value()
        {
            Response::Registry { pes, workflows } => Some((pes, workflows)),
            other => {
                self.violation(format!("shadow GetRegistry answered {other:?}"));
                None
            }
        }
    }

    /// Direct health probe: returns the server's readiness truth. I5's
    /// "never hangs" is implicit — this is a synchronous in-process call.
    fn shadow_degraded(&mut self) -> bool {
        match self.stack().server.handle(Request::Health {}).value() {
            Response::Health { live, ready, .. } => {
                if !live {
                    self.violation("health reports live=false on a serving server".into());
                }
                !ready
            }
            other => {
                self.violation(format!("Health answered {other:?}"));
                self.degraded
            }
        }
    }

    /// I1/I2: full read must agree with the model.
    fn check_full_state(&mut self, context: &str) {
        let Some((pes, wfs)) = self.shadow_registry() else {
            return;
        };
        for v in self.model.check_registry(&pes, &wfs) {
            self.violation(format!("{context}: {v}"));
        }
    }

    /// I3: the index generation is monotone within a server lifetime.
    fn check_generation(&mut self) {
        let g = self.stack().server.indexes().generation();
        if g < self.generation {
            self.violation(format!(
                "index generation went backwards: {} -> {g}",
                self.generation
            ));
        }
        self.generation = g;
    }

    /// I4: a repeated read answers bit-identically.
    fn check_double_read(&mut self, req: Request, what: &str) {
        let a = self.stack().server.handle(req.clone()).value();
        let b = self.stack().server.handle(req).value();
        if a != b {
            self.violation(format!("repeated {what} answered differently: cache served a different answer than the uncached read"));
        }
    }

    /// Health transition bookkeeping: degraded may only begin while the
    /// disk-fault plane is armed (or was, since the last good probe),
    /// and may only end through an explicit probe.
    fn observe_health(&mut self, context: &str) {
        let now = self.shadow_degraded();
        if now && !self.degraded && !self.exposure {
            self.violation(format!(
                "{context}: server entered degraded mode with no disk fault armed"
            ));
        }
        if !now && self.degraded {
            self.violation(format!(
                "{context}: server left degraded mode without a probe"
            ));
        }
        self.degraded = now;
    }

    // ---- fault-plane scheduling -----------------------------------------

    fn maybe_toggle_faults(&mut self) {
        // Transport plane: shift the fault probability now and then.
        if self.ctl.chance(6) {
            let p = *self.ctl.pick(&[0u32, 0, 15, 35]);
            self.stack().net.set_percent(p);
            self.trace.push(format!("net-faults {p}%"));
        }
        // Disk plane: arm for a window of ops, then clear + probe.
        if self.armed {
            self.disarm_in = self.disarm_in.saturating_sub(1);
            if self.disarm_in == 0 {
                self.disarm_and_probe();
            }
        } else if self.ctl.chance(8) {
            if let Some(inj) = self.stack().laminar.fault_injector() {
                inj.arm();
                self.armed = true;
                self.exposure = true;
                self.disarm_in = 2 + self.ctl.below(6) as u32;
                self.trace.push("disk-faults armed".into());
            }
        }
    }

    fn disarm_and_probe(&mut self) {
        if let Some(inj) = self.stack().laminar.fault_injector() {
            inj.clear();
        }
        self.armed = false;
        // With the fault cleared, a probe must restore the server: the
        // underlying directory is healthy.
        let still_degraded = self.stack().server.probe_storage();
        if still_degraded {
            self.violation("probe failed to recover a server whose disk fault was cleared".into());
        }
        self.degraded = false;
        self.exposure = false;
        self.trace.push("disk-faults cleared, probe ok".into());
    }

    // ---- crash-restart ---------------------------------------------------

    fn crash_restart(&mut self, mutate: bool) -> bool {
        // Fold any straggler journal records, then drop the whole stack:
        // no graceful shutdown, exactly like a crash (the WAL's
        // append-before-acknowledge discipline is what's under test).
        self.drain_and_apply();
        self.stack = None;
        if mutate {
            let _ = std::fs::remove_file(self.dir.join(WAL_FILE));
            let _ = std::fs::remove_file(self.dir.join(SNAPSHOT_FILE));
            self.trace.push("mutate: wal+snapshot deleted".into());
        }
        self.trace.push("crash-restart".into());
        if let Err(e) = self.deploy_stack(false) {
            self.violation(format!("reopen after crash failed: {e}"));
            return false;
        }
        // I2: everything acknowledged before the crash must still be
        // there — and nothing unacknowledged may have materialised.
        self.check_full_state("after crash-restart");
        self.ensure_chaos_row();
        true
    }

    // ---- journal/model plumbing -----------------------------------------

    fn drain_and_apply(&mut self) -> Vec<CallRecord> {
        let records = self.stack().net.drain_journal();
        for rec in &records {
            for v in self.model.apply(rec) {
                self.violation(v);
            }
        }
        records
    }

    // ---- the episode loop ------------------------------------------------

    fn run(&mut self) {
        if let Err(e) = self.deploy_stack(true) {
            self.violation(format!("initial deployment failed: {e}"));
            return;
        }
        self.ensure_chaos_row();
        match self.shadow_registry() {
            Some((pes, wfs)) => self.model.bootstrap(&pes, &wfs),
            None => return,
        }
        self.trace.push(format!(
            "bootstrapped: {} pes, {} wfs",
            self.model.pes.len(),
            self.model.wfs.len()
        ));

        for i in 0..self.opts.ops_per_episode {
            if !self.violations.is_empty() {
                return; // stop at first violation: the trace up to here replays it
            }
            self.maybe_toggle_faults();
            if self.ctl.chance(4) && !self.crash_restart(false) {
                return;
            }
            let op = self.workload.next_op(&self.model);
            self.execute_op(i, &op);
            self.ops_run += 1;
        }

        // Episode teardown: settle the disk plane, then one final
        // crash-restart (optionally mutated) and durability check.
        if self.armed {
            self.disarm_and_probe();
        }
        let mutate = self.opts.mutate.is_some();
        if self.crash_restart(mutate) {
            self.check_full_state("final restart");
        }
        self.stack = None;
        self.trace.push(format!("episode done: ops={}", self.ops_run));
    }

    // ---- op execution + per-op oracle checks ----------------------------

    fn execute_op(&mut self, idx: u32, op: &SimOp) {
        let prev_degraded = self.degraded;
        let (summary, unexpected) = self.dispatch(op);
        let records = self.drain_and_apply();
        let clean = records
            .last()
            .map(|r| r.fault.is_none())
            .unwrap_or(false);
        let fault_names: Vec<&str> = records
            .iter()
            .filter_map(|r| r.fault.map(|f| f.name()))
            .collect();
        let note = if fault_names.is_empty() {
            String::new()
        } else {
            format!(" [{}]", fault_names.join(","))
        };
        self.trace
            .push(format!("op{idx} {}{note} -> {summary}", op.label()));

        // I5: typed failure, never UnexpectedResponse.
        if let Some(msg) = unexpected {
            self.violation(format!("untyped client failure on {}: {msg}", op.label()));
        }

        // I5: a degraded server must reject clean mutations, typed; a
        // healthy, un-faulted server must not reject them as degraded.
        if clean && op.is_mutation() {
            let last = records.last().expect("clean implies a record");
            let rejected_degraded = matches!(
                last.outcome,
                CallOutcome::Rejected(ConnectionError::Degraded { .. })
            );
            let acked_ok = matches!(
                &last.outcome,
                CallOutcome::Value(
                    Response::Ok
                        | Response::Registered { .. }
                        | Response::BatchRegistered { .. }
                        | Response::Compacted { .. }
                )
            );
            if prev_degraded && acked_ok {
                self.violation(format!(
                    "degraded server applied mutation {}",
                    op.label()
                ));
            }
            if !prev_degraded && !self.exposure && rejected_degraded {
                self.violation(format!(
                    "healthy server rejected {} as degraded",
                    op.label()
                ));
            }
            // Strict success expectations where the op cannot
            // legitimately fail on a healthy, un-faulted server.
            if !prev_degraded && !self.exposure && clean {
                let must_succeed = matches!(
                    op,
                    SimOp::RegisterPe { .. } | SimOp::RemoveAll | SimOp::Compact
                );
                if must_succeed && !acked_ok {
                    self.violation(format!(
                        "{} failed on a healthy server: {summary}",
                        op.label()
                    ));
                }
            }
        }

        // Per-op extras.
        self.op_specific_checks(op, &records, clean);

        // I4: repeated reads are bit-identical (exercises the query
        // cache on both the populate and hit paths).
        let token = self.stack().shadow_token;
        match op {
            SimOp::SearchSemantic { scope, query } => self.check_double_read(
                Request::SearchSemantic {
                    token,
                    scope: *scope,
                    query: query.clone(),
                    top_n: None,
                },
                "semantic search",
            ),
            SimOp::SearchLiteral { scope, term } => self.check_double_read(
                Request::SearchLiteral {
                    token,
                    scope: *scope,
                    term: term.clone(),
                    top_n: None,
                },
                "literal search",
            ),
            SimOp::Recommend { snippet } => self.check_double_read(
                Request::CodeRecommendation {
                    token,
                    scope: laminar_server::protocol::SearchScope::Both,
                    snippet: snippet.clone(),
                    embedding_type: EmbeddingType::Spt,
                    top_n: None,
                },
                "code recommendation",
            ),
            _ => {}
        }

        // I3 after every op; I1 after every op.
        self.check_generation();
        self.check_full_state("after op");
        self.observe_health("after op");
    }

    /// Execute the op through the (faulty) client; returns a
    /// deterministic outcome summary and, when the failure was untyped,
    /// the offending message.
    fn dispatch(&mut self, op: &SimOp) -> (String, Option<String>) {
        fn done<T>(r: Result<T, ClientError>, show: impl Fn(&T) -> String) -> (String, Option<String>) {
            match r {
                Ok(v) => (format!("ok: {}", show(&v)), None),
                Err(ClientError::UnexpectedResponse(m)) => {
                    (format!("err: unexpected response: {m}"), Some(m))
                }
                Err(ClientError::NotLoggedIn) => {
                    ("err: not logged in".into(), Some("not logged in".into()))
                }
                Err(e) => (format!("err: {e}"), None),
            }
        }
        let c = &self.stack.as_ref().expect("stack").client;
        match op {
            SimOp::RegisterPe { sub } => done(
                c.register_pe(&sub.name, &sub.code, sub.description.as_deref()),
                |id| format!("#{id}"),
            ),
            SimOp::RegisterWorkflow { name, source } => done(
                c.register_workflow(name, source),
                |r| format!("#{} pes={}", r.workflow.1, r.pes.len()),
            ),
            SimOp::RegisterBatch { items } => done(c.register_batch(items.clone()), |outs| {
                format!("outcomes={}", outs.len())
            }),
            SimOp::GetPe { ident } => done(c.get_pe(ident.clone()), |p| {
                format!("{}#{}", p.name, p.id)
            }),
            SimOp::GetWorkflow { ident } => done(c.get_workflow(ident.clone()), |w| {
                format!("{}#{} members={}", w.name, w.id, w.pe_ids.len())
            }),
            SimOp::GetPesByWorkflow { ident } => {
                done(c.get_pes_by_workflow(ident.clone()), |ps| {
                    format!("n={}", ps.len())
                })
            }
            SimOp::GetRegistry => done(c.get_registry(), |(ps, ws)| {
                format!("pes={} wfs={}", ps.len(), ws.len())
            }),
            SimOp::Describe { ident } => done(
                c.describe(laminar_server::protocol::SearchScope::Pe, ident.clone()),
                |d| format!("len={}", d.len()),
            ),
            SimOp::UpdatePeDescription { ident, description } => done(
                c.update_pe_description(ident.clone(), description),
                |_| "updated".into(),
            ),
            SimOp::RemovePe { ident } => done(c.remove_pe(ident.clone()), |_| "removed".into()),
            SimOp::RemoveWorkflow { ident } => {
                done(c.remove_workflow(ident.clone()), |_| "removed".into())
            }
            SimOp::RemoveAll => done(c.remove_all(), |_| "cleared".into()),
            SimOp::SearchLiteral { scope, term } => {
                done(c.search_registry_literal(*scope, term), |(ps, ws)| {
                    format!("pes={} wfs={}", ps.len(), ws.len())
                })
            }
            SimOp::SearchSemantic { scope, query } => {
                done(c.search_registry_semantic(*scope, query), |hits| {
                    let names: Vec<&str> = hits.iter().map(|h| h.name.as_str()).collect();
                    format!("[{}]", names.join(","))
                })
            }
            SimOp::Recommend { snippet } => done(
                c.code_recommendation(
                    laminar_server::protocol::SearchScope::Both,
                    snippet,
                    EmbeddingType::Spt,
                ),
                |hits| format!("n={}", hits.len()),
            ),
            SimOp::Complete { snippet } => done(c.code_completion(snippet), |(src, lines, _)| {
                format!(
                    "src={} lines={}",
                    src.as_ref().map(|(_, n)| n.as_str()).unwrap_or("-"),
                    lines.len()
                )
            }),
            SimOp::Run {
                ident,
                iterations,
                mode,
                fault,
            } => done(
                c.run_custom_faults(
                    ident.clone(),
                    RunInputWire::Iterations(*iterations),
                    mode.clone(),
                    false,
                    fault.clone(),
                    None,
                ),
                |out| {
                    format!(
                        "lines={} ok={} dead={}",
                        out.lines.len(),
                        out.ok,
                        out.dead_letters.len()
                    )
                },
            ),
            SimOp::GetExecutions { ident } => done(c.get_executions(ident.clone()), |rows| {
                format!("n={}", rows.len())
            }),
            SimOp::Compact => done(c.compact(), |r| format!("folded={}", r.wal_records)),
            SimOp::Health => done(c.health(), |h| format!("ready={}", h.ready)),
            SimOp::Metrics => done(c.metrics(), |_| "snapshot".into()),
        }
    }

    fn op_specific_checks(&mut self, op: &SimOp, records: &[CallRecord], clean: bool) {
        match op {
            // I6: a clean sequential/static run must reproduce exactly on
            // a shadow re-execution of the same request.
            SimOp::Run {
                ident,
                iterations,
                mode,
                fault,
            } => {
                // I6 applies to sequential runs only: a multiprocess run
                // that FailFasts mid-chaos can legitimately emit a
                // different prefix of lines depending on worker
                // interleaving. Sequential runs (chaos included — fates
                // are keyed by datum content) must be bit-stable.
                if !clean || !matches!(mode, laminar_server::protocol::RunMode::Sequential) {
                    return;
                }
                let shadow_a = self.shadow_run(ident, *iterations, mode, fault);
                let shadow_b = self.shadow_run(ident, *iterations, mode, fault);
                if shadow_a != shadow_b {
                    self.violation(format!(
                        "run {} is nondeterministic: two identical executions diverged ({shadow_a:?} vs {shadow_b:?})",
                        op.label()
                    ));
                }
            }
            // Clean health answers must match the truth the shadow probe
            // sees (same single-threaded instant — no races possible).
            SimOp::Health if clean => {
                if let Some(CallRecord {
                    outcome: CallOutcome::Value(Response::Health { ready, .. }),
                    ..
                }) = records.last()
                {
                    let truth = !self.shadow_degraded();
                    if *ready != truth {
                        self.violation(format!(
                            "health reported ready={ready} but a direct probe sees ready={truth}"
                        ));
                    }
                }
            }
            // I1 for the read itself: a clean answer must be the row the
            // model resolves the ident to (right name, id and code — or an
            // error only where the model allows absence).
            SimOp::GetPe { ident } => {
                if !clean {
                    return;
                }
                let got = match records.last().map(|r| &r.outcome) {
                    Some(CallOutcome::Value(Response::Pe(info))) => Ok(info),
                    Some(CallOutcome::Value(Response::Error(e))) => Err(e.as_str()),
                    _ => return,
                };
                for msg in self.model.check_get_pe(ident, got) {
                    self.violation(msg);
                }
            }
            _ => {}
        }
    }

    /// Execute a run directly against the server (no transport, no net
    /// faults) and reduce it to a comparable shape: sorted output lines,
    /// verdict, dead-letter count, error text.
    fn shadow_run(
        &mut self,
        ident: &laminar_server::protocol::Ident,
        iterations: u64,
        mode: &laminar_server::protocol::RunMode,
        fault: &laminar_server::protocol::FaultPolicyWire,
    ) -> (Vec<String>, bool, usize, Option<String>) {
        let req = Request::Run {
            token: self.stack().shadow_token,
            ident: ident.clone(),
            input: RunInputWire::Iterations(iterations),
            mode: mode.clone(),
            streaming: true,
            verbose: false,
            resources: vec![],
            fault: fault.clone(),
            task_timeout_ms: None,
        };
        match self.stack().server.handle(req) {
            Reply::Value(Response::Error(e)) => (Vec::new(), false, 0, Some(e)),
            Reply::Value(other) => (
                Vec::new(),
                false,
                0,
                Some(format!("unexpected value reply {other:?}")),
            ),
            Reply::Stream(rx) => {
                let mut lines = Vec::new();
                let mut dead = 0usize;
                let mut ok = false;
                let mut err = None;
                for frame in rx.iter() {
                    match frame {
                        WireFrame::Line(l) => lines.push(l),
                        WireFrame::DeadLetter(_) => dead += 1,
                        WireFrame::Value(Response::Error(e)) => {
                            err = Some(e);
                            break;
                        }
                        WireFrame::End { ok: o, .. } => {
                            ok = o;
                            break;
                        }
                        _ => {}
                    }
                }
                lines.sort();
                (lines, ok, dead, err)
            }
        }
    }
}
