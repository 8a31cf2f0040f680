//! Abstract workflow graphs (paper §II-A: "Abstract Workflow").
//!
//! A [`WorkflowGraph`] is a DAG whose nodes are PE *factories* — parallel
//! mappings instantiate one PE per assigned rank, so the graph must be able
//! to mint fresh instances — and whose edges connect named output ports to
//! named input ports with a [`Grouping`] policy.

use crate::data::Data;
use crate::error::GraphError;
use crate::pe::{NamedPE, PortSpec, PE};
use std::ops::Range;
use std::sync::Arc;

/// Default input port name (re-exported at crate root).
pub const INPUT: &str = crate::pe::INPUT_PORT;
/// Default output port name (re-exported at crate root).
pub const OUTPUT: &str = crate::pe::OUTPUT_PORT;

/// The most ranks a multi run, or workers a dynamic run, may ask for.
/// The paper's largest run uses 9 (Fig. 5b) and the dynamic mapping's
/// default is 8; the bound keeps one request from starting threads and
/// allocating rank channels without limit.
pub const MAX_RANKS: usize = 64;

/// Refuse a rank or worker count above [`MAX_RANKS`].
pub(crate) fn within_max_ranks(requested: usize) -> Result<(), GraphError> {
    if requested > MAX_RANKS {
        return Err(GraphError::TooManyRanks {
            requested,
            maximum: MAX_RANKS,
        });
    }
    Ok(())
}

/// Node handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// How data on an edge is distributed among the target PE's ranks
/// (dispel4py's workload-allocation semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grouping {
    /// Round-robin over target ranks (dispel4py default).
    Shuffle,
    /// Route by hash of the record field `key` (or of the whole datum when
    /// the field is absent) so equal keys reach the same rank.
    GroupBy(String),
    /// Broadcast every datum to all target ranks.
    OneToAll,
    /// Send everything to the first target rank.
    AllToOne,
}

/// Factory trait: the graph stores these; mappings call [`PEFactory::create`]
/// once per assigned rank.
pub trait PEFactory: Send + Sync {
    fn pe_name(&self) -> String;
    fn create(&self) -> Box<dyn PE>;
}

/// Any `Clone`-able PE is its own factory: each rank gets a clone.
impl<P> PEFactory for P
where
    P: PE + Clone + Sync + NamedPE + 'static,
{
    fn pe_name(&self) -> String {
        NamedPE::pe_name(self)
    }

    fn create(&self) -> Box<dyn PE> {
        Box::new(self.clone())
    }
}

/// One graph node.
pub struct NodeSpec {
    pub name: String,
    pub ports: PortSpec,
    pub factory: Arc<dyn PEFactory>,
}

impl NodeSpec {
    /// Display name used in monitoring output: `IsPrime1` for node index 1
    /// (matches the paper's Fig. 5b log format).
    pub fn display_name(&self, index: usize) -> String {
        format!("{}{}", self.name, index)
    }
}

/// One edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: NodeId,
    pub from_port: String,
    pub to: NodeId,
    pub to_port: String,
    pub grouping: Grouping,
}

/// The abstract workflow.
pub struct WorkflowGraph {
    pub name: String,
    pub nodes: Vec<NodeSpec>,
    pub edges: Vec<Edge>,
}

impl WorkflowGraph {
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowGraph {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a PE (any `Clone`-able PE value, or a custom [`PEFactory`]).
    pub fn add<F: PEFactory + 'static>(&mut self, factory: F) -> NodeId {
        let ports = factory.create().ports();
        let name = factory.pe_name();
        self.nodes.push(NodeSpec {
            name,
            ports,
            factory: Arc::new(factory),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Connect `from.from_port → to.to_port` with shuffle grouping.
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: &str,
        to: NodeId,
        to_port: &str,
    ) -> Result<(), GraphError> {
        self.connect_grouped(from, from_port, to, to_port, Grouping::Shuffle)
    }

    /// Connect with an explicit grouping policy.
    pub fn connect_grouped(
        &mut self,
        from: NodeId,
        from_port: &str,
        to: NodeId,
        to_port: &str,
        grouping: Grouping,
    ) -> Result<(), GraphError> {
        let from_spec = self
            .nodes
            .get(from.0)
            .ok_or_else(|| GraphError::UnknownNode(format!("#{}", from.0)))?;
        if !from_spec.ports.outputs.iter().any(|p| p == from_port) {
            return Err(GraphError::UnknownPort {
                node: from_spec.name.clone(),
                port: from_port.to_string(),
            });
        }
        let to_spec = self
            .nodes
            .get(to.0)
            .ok_or_else(|| GraphError::UnknownNode(format!("#{}", to.0)))?;
        if !to_spec.ports.inputs.iter().any(|p| p == to_port) {
            return Err(GraphError::UnknownPort {
                node: to_spec.name.clone(),
                port: to_port.to_string(),
            });
        }
        self.edges.push(Edge {
            from,
            from_port: from_port.to_string(),
            to,
            to_port: to_port.to_string(),
            grouping,
        });
        Ok(())
    }

    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0]
    }

    /// Edges entering `id`.
    pub fn in_edges(&self, id: NodeId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.to == id).collect()
    }

    /// Nodes with no incoming edges (the producers/roots).
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|&n| self.in_edges(n).is_empty())
            .collect()
    }

    /// Topological order; `Err(CycleDetected)` if the graph is not a DAG.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(NodeId(u));
            for e in &self.edges {
                if e.from.0 == u {
                    indeg[e.to.0] -= 1;
                    if indeg[e.to.0] == 0 {
                        queue.push(e.to.0);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::CycleDetected);
        }
        Ok(order)
    }

    /// Full validation: non-empty, has roots, acyclic.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        if self.roots().is_empty() {
            return Err(GraphError::NoRoots);
        }
        self.topo_order()?;
        Ok(())
    }

    /// dispel4py-style static rank partition for `processes` total ranks:
    /// each root (producer) PE gets exactly one rank; the remaining ranks
    /// are split as evenly as possible over the other PEs (at least one
    /// each). Returns, per node, the assigned rank range — the
    /// `{'NumberProducer': range(0, 1), 'IsPrime1': range(1, 5), …}`
    /// partition printed in Fig. 5b. At most [`MAX_RANKS`] ranks.
    pub fn partition(&self, processes: usize) -> Result<Vec<Range<usize>>, GraphError> {
        within_max_ranks(processes)?;
        let n = self.nodes.len();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let roots: Vec<bool> = (0..n)
            .map(|i| self.in_edges(NodeId(i)).is_empty())
            .collect();
        let n_roots = roots.iter().filter(|&&r| r).count();
        let n_rest = n - n_roots;
        let minimum = n_roots + n_rest; // one rank per PE at least
        if processes < minimum {
            return Err(GraphError::InvalidProcessCount {
                requested: processes,
                minimum,
            });
        }
        let spare = processes - minimum;
        // Distribute spare ranks round-robin over non-root PEs.
        let mut extra = vec![0usize; n];
        if let Some(per) = spare.checked_div(n_rest) {
            let rem = spare % n_rest;
            let mut k = 0;
            for (i, is_root) in roots.iter().enumerate() {
                if !is_root {
                    extra[i] = per + usize::from(k < rem);
                    k += 1;
                }
            }
        }
        let mut ranges = Vec::with_capacity(n);
        let mut next = 0usize;
        for e in &extra {
            let width = 1 + e;
            ranges.push(next..next + width);
            next += width;
        }
        Ok(ranges)
    }

    /// Route a datum on `edge` to target-rank offsets (0-based within the
    /// target PE's rank range). `counter` is the sender's per-edge
    /// round-robin state.
    pub fn route(edge: &Edge, data: &Data, n_targets: usize, counter: &mut usize) -> Range<usize> {
        let one = |t: usize| t..t + 1;
        match &edge.grouping {
            _ if n_targets == 0 => 0..0,
            Grouping::Shuffle => {
                let t = *counter % n_targets;
                *counter += 1;
                one(t)
            }
            Grouping::GroupBy(key) => {
                let k = data.get(key).unwrap_or(data);
                one((k.group_hash() % n_targets as u64) as usize)
            }
            Grouping::OneToAll => 0..n_targets,
            Grouping::AllToOne => 0..1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{ConsumerPE, IterativePE, ProducerPE};

    // Closure adapters need Clone to satisfy the blanket factory impl.
    // The adapters derive nothing, so implement via small wrapper structs
    // in the crate — tested here through the workflows module instead.
    use crate::workflows::{identity_pe, number_producer, print_consumer};

    fn pipeline() -> (WorkflowGraph, NodeId, NodeId, NodeId) {
        let mut g = WorkflowGraph::new("test_wf");
        let a = g.add(number_producer(100));
        let b = g.add(identity_pe("Mid"));
        let c = g.add(print_consumer("Sink"));
        g.connect(a, OUTPUT, b, INPUT).unwrap();
        g.connect(b, OUTPUT, c, INPUT).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn build_and_validate() {
        let (g, a, _, c) = pipeline();
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.edges.len(), 2);
        assert!(g.validate().is_ok());
        assert_eq!(g.roots(), vec![a]);
        assert_eq!(g.edges.iter().filter(|e| e.from == a).count(), 1);
        assert_eq!(g.in_edges(c).len(), 1);
    }

    #[test]
    fn unknown_port_rejected() {
        let mut g = WorkflowGraph::new("w");
        let a = g.add(number_producer(10));
        let b = g.add(print_consumer("S"));
        let err = g.connect(a, "nope", b, INPUT).unwrap_err();
        assert!(matches!(err, GraphError::UnknownPort { .. }));
        let err = g.connect(a, OUTPUT, b, "nope").unwrap_err();
        assert!(matches!(err, GraphError::UnknownPort { .. }));
        // Consumers have no outputs.
        let err = g.connect(b, OUTPUT, a, INPUT).unwrap_err();
        assert!(matches!(err, GraphError::UnknownPort { .. }));
    }

    #[test]
    fn cycle_detected() {
        let mut g = WorkflowGraph::new("w");
        let a = g.add(identity_pe("A"));
        let b = g.add(identity_pe("B"));
        g.connect(a, OUTPUT, b, INPUT).unwrap();
        g.connect(b, OUTPUT, a, INPUT).unwrap();
        assert_eq!(g.topo_order().unwrap_err(), GraphError::CycleDetected);
        // A cyclic graph also has no roots.
        assert!(g.validate().is_err());
    }

    #[test]
    fn empty_graph_invalid() {
        let g = WorkflowGraph::new("w");
        assert_eq!(g.validate().unwrap_err(), GraphError::EmptyGraph);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, a, b, c) = pipeline();
        let order = g.topo_order().unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn partition_matches_fig5b() {
        // Fig. 5b: 9 processes over NumberProducer → IsPrime → PrintPrime
        // gives {producer: 0..1, isprime: 1..5, print: 5..9}.
        let (g, _, _, _) = pipeline();
        let ranges = g.partition(9).unwrap();
        assert_eq!(ranges[0], 0..1);
        assert_eq!(ranges[1], 1..5);
        assert_eq!(ranges[2], 5..9);
    }

    #[test]
    fn partition_minimum_enforced() {
        let (g, _, _, _) = pipeline();
        assert!(g.partition(3).is_ok());
        let err = g.partition(2).unwrap_err();
        assert_eq!(
            err,
            GraphError::InvalidProcessCount {
                requested: 2,
                minimum: 3
            }
        );
    }

    #[test]
    fn partition_refuses_more_than_max_ranks() {
        let (g, _, _, _) = pipeline();
        assert_eq!(g.partition(MAX_RANKS).unwrap().last().unwrap().end, MAX_RANKS);
        for processes in [MAX_RANKS + 1, usize::MAX] {
            assert_eq!(
                g.partition(processes).unwrap_err(),
                GraphError::TooManyRanks {
                    requested: processes,
                    maximum: MAX_RANKS
                }
            );
        }
    }

    #[test]
    fn partition_covers_all_ranks_contiguously() {
        let (g, _, _, _) = pipeline();
        for p in 3..12 {
            let ranges = g.partition(p).unwrap();
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, p);
        }
    }

    #[test]
    fn routing_policies() {
        let edge = Edge {
            from: NodeId(0),
            from_port: OUTPUT.into(),
            to: NodeId(1),
            to_port: INPUT.into(),
            grouping: Grouping::Shuffle,
        };
        let mut counter = 0;
        let d = Data::from(1i64);
        assert_eq!(WorkflowGraph::route(&edge, &d, 3, &mut counter), 0..1);
        assert_eq!(WorkflowGraph::route(&edge, &d, 3, &mut counter), 1..2);
        assert_eq!(WorkflowGraph::route(&edge, &d, 3, &mut counter), 2..3);
        assert_eq!(WorkflowGraph::route(&edge, &d, 3, &mut counter), 0..1);

        let all = Edge {
            grouping: Grouping::OneToAll,
            ..edge.clone()
        };
        assert_eq!(WorkflowGraph::route(&all, &d, 3, &mut counter), 0..3);

        let one = Edge {
            grouping: Grouping::AllToOne,
            ..edge.clone()
        };
        assert_eq!(WorkflowGraph::route(&one, &d, 3, &mut counter), 0..1);

        let by = Edge {
            grouping: Grouping::GroupBy("city".into()),
            ..edge
        };
        let r1 = Data::record([("city", Data::from("lisbon")), ("t", Data::from(1i64))]);
        let r2 = Data::record([("city", Data::from("lisbon")), ("t", Data::from(2i64))]);
        let r3 = Data::record([("city", Data::from("porto")), ("t", Data::from(3i64))]);
        let t1 = WorkflowGraph::route(&by, &r1, 4, &mut counter);
        let t2 = WorkflowGraph::route(&by, &r2, 4, &mut counter);
        let t3 = WorkflowGraph::route(&by, &r3, 4, &mut counter);
        assert_eq!(t1, t2, "same key → same rank");
        assert_eq!(t1.len(), 1);
        let _ = t3; // may or may not collide; just must be deterministic
        assert_eq!(WorkflowGraph::route(&by, &r3, 4, &mut counter), t3);
    }

    #[test]
    fn route_with_zero_targets() {
        let edge = Edge {
            from: NodeId(0),
            from_port: OUTPUT.into(),
            to: NodeId(1),
            to_port: INPUT.into(),
            grouping: Grouping::Shuffle,
        };
        let mut c = 0;
        assert!(WorkflowGraph::route(&edge, &Data::Null, 0, &mut c).is_empty());
    }

    #[test]
    fn display_name_is_indexed() {
        let (g, _, _, _) = pipeline();
        assert_eq!(g.node(NodeId(1)).display_name(1), "Mid1");
    }

    #[test]
    fn group_by_missing_key_falls_back_to_whole_datum() {
        let by = Edge {
            from: NodeId(0),
            from_port: OUTPUT.into(),
            to: NodeId(1),
            to_port: INPUT.into(),
            grouping: Grouping::GroupBy("absent".into()),
        };
        let mut c = 0;
        let d = Data::from("payload");
        let t1 = WorkflowGraph::route(&by, &d, 5, &mut c);
        let t2 = WorkflowGraph::route(&by, &d, 5, &mut c);
        assert_eq!(t1, t2);
    }

    // Quiet unused-import warnings for the adapter types used in docs.
    #[allow(dead_code)]
    fn _adapters_compile() {
        let _ = ProducerPE::new("p", |_| None::<Data>);
        let _ = IterativePE::new("i", Some);
        let _ = ConsumerPE::new("c", |_d: Data, _ctx: &mut crate::pe::Context<'_>| {});
    }
}
