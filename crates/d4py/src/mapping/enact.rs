//! The enactment core the three mappings share: a per-run [`Plan`] built
//! once from the graph, one supervised [`Plan::step`], one root feed and
//! one local drain. A mapping keeps only its scheduling — the simple
//! mapping's queue, the multi mapping's ranks and channels, the dynamic
//! mapping's broker and autoscaler — so every mapping enacts the same PE
//! semantics (paper §II-A).

use crate::data::Data;
use crate::error::GraphError;
use crate::fault::Supervisor;
use crate::graph::{Edge, PEFactory, WorkflowGraph};
use crate::mapping::RunInput;
use crate::monitor::{Monitor, OutputSink};
use crate::pe::{Context, PE};
use std::collections::VecDeque;
use std::sync::Arc;

/// One out-edge as the plan routes it.
pub(crate) struct Target {
    /// Index into `Plan::edges`: the grouping, and the sender's Shuffle
    /// counter.
    pub edge: usize,
    pub to: usize,
    /// Input-port index on `to`.
    pub port: usize,
}

/// One node, resolved once per run.
pub(crate) struct NodePlan {
    /// `IsPrime1`: the name every line, count and dead letter carries.
    pub display: String,
    pub factory: Arc<dyn PEFactory>,
    pub inputs: Vec<String>,
    outputs: Vec<String>,
    /// Out-edges per output-port index, in edge-insertion order.
    pub out: Vec<Vec<Target>>,
}

/// What one supervised step runs.
pub(crate) enum Call {
    Setup,
    /// `None` drives a producer once; otherwise (input-port index, datum).
    Process(Option<(usize, Data)>),
    Teardown,
}

/// A queued delivery: (node, input-port index, datum).
pub(crate) type Delivery = (usize, usize, Data);

/// One root firing: (root, iteration, what `Call::Process` hands it).
pub(crate) type Feed = (usize, u64, Option<(usize, Data)>);

/// Everything a run's mappings share, built once before the first datum.
/// It owns what its ranks and workers use, so they share it through an
/// `Arc` and none borrows from the caller.
pub(crate) struct Plan {
    pub nodes: Vec<NodePlan>,
    /// The graph's edges, for their groupings.
    pub edges: Vec<Edge>,
    /// Nodes with no in-edge, in index order.
    pub roots: Vec<usize>,
    /// Topological order: setup and local teardown run in it.
    pub order: Vec<usize>,
    pub input: RunInput,
    pub monitor: Monitor,
    pub supervisor: Supervisor,
    pub sink: OutputSink,
}

impl Plan {
    pub(crate) fn new(
        graph: &WorkflowGraph,
        input: RunInput,
        sink: OutputSink,
        supervisor: Supervisor,
    ) -> Result<Self, GraphError> {
        let mut nodes: Vec<NodePlan> = (graph.nodes.iter().enumerate())
            .map(|(i, n)| NodePlan {
                display: n.display_name(i),
                factory: n.factory.clone(),
                inputs: n.ports.inputs.clone(),
                outputs: n.ports.outputs.clone(),
                out: n.ports.outputs.iter().map(|_| Vec::new()).collect(),
            })
            .collect();
        let mut is_root = vec![true; nodes.len()];
        for (edge, e) in graph.edges.iter().enumerate() {
            let to = e.to.0;
            is_root[to] = false;
            let at = |ports: &[String], name: &str| ports.iter().position(|p| p == name);
            let from = at(&nodes[e.from.0].outputs, &e.from_port);
            if let (Some(from), Some(port)) = (from, at(&nodes[to].inputs, &e.to_port)) {
                nodes[e.from.0].out[from].push(Target { edge, to, port });
            }
        }
        Ok(Plan {
            nodes,
            edges: graph.edges.clone(),
            roots: (0..is_root.len()).filter(|&n| is_root[n]).collect(),
            order: graph.topo_order()?.into_iter().map(|n| n.0).collect(),
            input,
            monitor: Monitor::new(),
            supervisor,
            sink,
        })
    }

    /// One supervised invocation of `pe`, an instance of `node` — the only
    /// caller of `Supervisor::invoke`. Emissions land in `emitted` as
    /// (output-port index, datum); one on an undeclared port is dropped.
    /// `Ok(false)`: the datum was dead-lettered, `emitted` left empty. The
    /// datum moves into `process`; only an attempt that a retry or a dead
    /// letter may follow gets a clone.
    pub(crate) fn step(
        &self,
        node: usize,
        pe: &mut dyn PE,
        mut call: Call,
        rank: usize,
        iteration: u64,
        emitted: &mut Vec<(usize, Data)>,
    ) -> Result<bool, GraphError> {
        let n = &self.nodes[node];
        let (port, datum) = match &mut call {
            Call::Process(input) => input.take().map(|(p, d)| (n.inputs[p].as_str(), d)),
            _ => None,
        }
        .unzip();
        let done = self.supervisor.invoke(&n.display, port, datum, &mut |datum| {
            emitted.clear();
            let mut emit = |port: &str, d: Data| {
                if let Some(i) = n.outputs.iter().position(|p| p == port) {
                    emitted.push((i, d));
                }
            };
            let log = |line: String| self.sink.push(line);
            let mut ctx = Context::new(&n.display, rank, iteration, &mut emit, &log);
            match &call {
                Call::Setup => pe.setup(&mut ctx),
                Call::Process(_) => pe.process(port.zip(datum), &mut ctx),
                Call::Teardown => pe.teardown(&mut ctx),
            }
        })?;
        if !done {
            emitted.clear();
        }
        Ok(done)
    }

    /// Hand each of `node`'s emissions to `deliver` once per out-edge of
    /// its port, in edge order; the last edge takes the datum itself.
    pub(crate) fn fan_out(
        &self,
        node: usize,
        emitted: &mut Vec<(usize, Data)>,
        mut deliver: impl FnMut(&Target, Data),
    ) {
        for (port, data) in emitted.drain(..) {
            if let Some((last, rest)) = self.nodes[node].out[port].split_last() {
                for t in rest {
                    deliver(t, data.clone());
                }
                deliver(last, data);
            }
        }
    }

    /// The root feed, item by item: every root once per input item, the
    /// item's index its iteration. An item goes to a root's first input
    /// port; a root without one (a producer) is driven once per item.
    pub(crate) fn feed(&self) -> impl Iterator<Item = Feed> + '_ {
        (0..self.input.len()).flat_map(move |i| {
            self.roots.iter().map(move |&root| match &self.input {
                RunInput::Data(items) if !self.nodes[root].inputs.is_empty() => {
                    (root, i as u64, Some((0, items[i].clone())))
                }
                _ => (root, i as u64, None),
            })
        })
    }

    /// Run `call` on this thread's instance of `node` (created on first
    /// use), its emissions queued locally. A delivered `Process` counts an
    /// iteration; `iteration: None` means the instance's count so far.
    pub(crate) fn run_local(
        &self,
        local: &mut Local,
        node: usize,
        call: Call,
        iteration: Option<u64>,
        rank: usize,
    ) -> Result<(), GraphError> {
        let pe = local.pes[node].get_or_insert_with(|| self.nodes[node].factory.create());
        let process = matches!(call, Call::Process(_));
        let it = iteration.unwrap_or(local.counts[node]);
        if self.step(node, pe.as_mut(), call, rank, it, &mut local.emitted)? && process {
            local.counts[node] += 1;
        }
        self.fan_out(node, &mut local.emitted, |t, d| {
            local.queue.push_back((t.to, t.port, d))
        });
        Ok(())
    }

    /// Run the local queue, and everything it emits, to completion.
    pub(crate) fn drain(&self, local: &mut Local, rank: usize) -> Result<(), GraphError> {
        while let Some((node, port, data)) = local.queue.pop_front() {
            self.run_local(local, node, Call::Process(Some((port, data))), None, rank)?;
        }
        Ok(())
    }

    /// Tear down every instance this thread holds in topological order,
    /// draining after each, so a teardown's emissions reach instances that
    /// are torn down after it.
    pub(crate) fn teardown(&self, local: &mut Local, rank: usize) -> Result<(), GraphError> {
        for &n in &self.order {
            if local.pes[n].is_some() {
                self.run_local(local, n, Call::Teardown, None, rank)?;
                self.drain(local, rank)?;
            }
        }
        Ok(())
    }
}

/// One thread's PE instances, iteration counts, queue and emission buffer:
/// the whole simple mapping, or one dynamic worker.
pub(crate) struct Local {
    pub pes: Vec<Option<Box<dyn PE>>>,
    pub counts: Vec<u64>,
    pub queue: VecDeque<Delivery>,
    pub emitted: Vec<(usize, Data)>,
}

impl Local {
    pub(crate) fn new(nodes: usize) -> Self {
        Local {
            pes: (0..nodes).map(|_| None).collect(),
            counts: vec![0; nodes],
            queue: VecDeque::new(),
            emitted: Vec::new(),
        }
    }
}
