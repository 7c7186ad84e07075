//! The workflow DAG of §4: nodes, conditional edges, synchronization nodes.
//!
//! A workflow is a DAG `G = (N, E)` with exactly one start node. An edge
//! may be *conditional*: its invocation is decided at runtime by the
//! predecessor. A node with more than one incoming edge is a
//! *synchronization node*; executing it requires the atomic-annotation
//! protocol implemented in `caribou-exec`.

use std::collections::VecDeque;
use std::fmt;

use crate::error::ModelError;

/// Index of a node within a [`WorkflowDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an edge within a [`WorkflowDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the edge index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Metadata for one execution stage (DAG node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMeta {
    /// Stage name; unique within the workflow.
    pub name: String,
    /// Name of the source-code function this stage belongs to. Several
    /// stages may share one source function (§4).
    pub source_function: String,
}

/// One directed execution dependency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Whether the edge is conditional (its invocation is decided by the
    /// predecessor at runtime).
    pub conditional: bool,
}

/// An immutable, validated workflow DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowDag {
    name: String,
    version: String,
    nodes: Vec<NodeMeta>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node.
    out_edges: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    in_edges: Vec<Vec<EdgeId>>,
    start: NodeId,
    topo_order: Vec<NodeId>,
}

impl WorkflowDag {
    /// Builds and validates a DAG from raw nodes and edges.
    ///
    /// Validation enforces the §4 structural requirements: non-empty, no
    /// duplicate names or edges, acyclic, exactly one start node, and every
    /// node reachable from it.
    pub fn new(
        name: impl Into<String>,
        version: impl Into<String>,
        nodes: Vec<NodeMeta>,
        edges: Vec<Edge>,
    ) -> Result<Self, ModelError> {
        if nodes.is_empty() {
            return Err(ModelError::EmptyWorkflow);
        }
        // Unique node names.
        for (i, n) in nodes.iter().enumerate() {
            if nodes[..i].iter().any(|m| m.name == n.name) {
                return Err(ModelError::DuplicateFunction {
                    name: n.name.clone(),
                });
            }
        }
        // Edge endpoints in range; no duplicates or self-loops.
        for (i, e) in edges.iter().enumerate() {
            if e.from.index() >= nodes.len() || e.to.index() >= nodes.len() {
                return Err(ModelError::UnknownNode {
                    node: format!("{} or {}", e.from, e.to),
                });
            }
            if e.from == e.to {
                return Err(ModelError::CyclicWorkflow {
                    function: nodes[e.from.index()].name.clone(),
                });
            }
            if edges[..i].iter().any(|p| p.from == e.from && p.to == e.to) {
                return Err(ModelError::DuplicateEdge {
                    from: nodes[e.from.index()].name.clone(),
                    to: nodes[e.to.index()].name.clone(),
                });
            }
        }

        let mut out_edges = vec![Vec::new(); nodes.len()];
        let mut in_edges = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            out_edges[e.from.index()].push(EdgeId(i as u32));
            in_edges[e.to.index()].push(EdgeId(i as u32));
        }

        // Exactly one start node.
        let starts: Vec<usize> = (0..nodes.len())
            .filter(|i| in_edges[*i].is_empty())
            .collect();
        let start = match starts.as_slice() {
            [] => return Err(ModelError::NoStartNode),
            [s] => NodeId(*s as u32),
            many => {
                return Err(ModelError::MultipleStartNodes {
                    nodes: many.iter().map(|i| nodes[*i].name.clone()).collect(),
                })
            }
        };

        // Kahn topological sort; detects cycles.
        let mut indeg: Vec<usize> = in_edges.iter().map(Vec::len).collect();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        queue.push_back(start);
        let mut topo_order = Vec::with_capacity(nodes.len());
        while let Some(n) = queue.pop_front() {
            topo_order.push(n);
            for &eid in &out_edges[n.index()] {
                let to = edges[eid.index()].to;
                indeg[to.index()] -= 1;
                if indeg[to.index()] == 0 {
                    queue.push_back(to);
                }
            }
        }
        if topo_order.len() != nodes.len() {
            // Either a cycle or an unreachable component. Distinguish by
            // checking reachability from the start node ignoring direction
            // of leftover in-degrees.
            let visited: Vec<bool> = {
                let mut v = vec![false; nodes.len()];
                let mut stack = vec![start];
                while let Some(n) = stack.pop() {
                    if std::mem::replace(&mut v[n.index()], true) {
                        continue;
                    }
                    for &eid in &out_edges[n.index()] {
                        stack.push(edges[eid.index()].to);
                    }
                }
                v
            };
            if let Some(un) = visited.iter().position(|v| !v) {
                return Err(ModelError::UnreachableNode {
                    node: nodes[un].name.clone(),
                });
            }
            let in_cycle = (0..nodes.len())
                .find(|i| !topo_order.iter().any(|t| t.index() == *i))
                .unwrap_or(0);
            return Err(ModelError::CyclicWorkflow {
                function: nodes[in_cycle].name.clone(),
            });
        }

        Ok(WorkflowDag {
            name: name.into(),
            version: version.into(),
            nodes,
            edges,
            out_edges,
            in_edges,
            start,
            topo_order,
        })
    }

    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workflow version string.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Number of nodes `|N|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The unique start node.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// Metadata for a node.
    pub fn node(&self, id: NodeId) -> &NodeMeta {
        &self.nodes[id.index()]
    }

    /// The edge record for an edge id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Looks up a node by stage name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Outgoing edges of a node (`E_out(n)`).
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out_edges[n.index()]
    }

    /// Incoming edges of a node (`E_in(n)`).
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.in_edges[n.index()]
    }

    /// Whether a node is a synchronization node (`|E_in(n)| > 1`, §4).
    pub fn is_sync_node(&self, n: NodeId) -> bool {
        self.in_edges[n.index()].len() > 1
    }

    /// Whether the DAG contains any synchronization node.
    pub fn has_sync_nodes(&self) -> bool {
        self.all_nodes().any(|n| self.is_sync_node(n))
    }

    /// Whether the DAG contains any conditional edge.
    pub fn has_conditional_edges(&self) -> bool {
        self.edges.iter().any(|e| e.conditional)
    }

    /// Iterates over all node ids in insertion order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Iterates over all edge ids in insertion order.
    pub fn all_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(|i| EdgeId(i as u32))
    }

    /// Nodes in a topological order starting at the start node.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo_order
    }

    /// Successor node ids of `n`.
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges[n.index()]
            .iter()
            .map(move |e| self.edges[e.index()].to)
    }

    /// Predecessor node ids of `n`.
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges[n.index()]
            .iter()
            .map(move |e| self.edges[e.index()].from)
    }

    /// Terminal (sink) nodes of the DAG.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.all_nodes()
            .filter(|n| self.out_edges[n.index()].is_empty())
            .collect()
    }

    /// A complexity score used by the Deployment Manager to estimate the
    /// cost of a deployment solve (§5.2): `|N| · (1 + |E|/|N|)` rounded up.
    pub fn complexity(&self) -> usize {
        let n = self.nodes.len();
        let e = self.edges.len();
        n + e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str) -> NodeMeta {
        NodeMeta {
            name: name.to_string(),
            source_function: name.to_string(),
        }
    }

    fn edge(from: u32, to: u32) -> Edge {
        Edge {
            from: NodeId(from),
            to: NodeId(to),
            conditional: false,
        }
    }

    /// A diamond: 0 -> {1, 2} -> 3 where 3 is a sync node.
    fn diamond() -> WorkflowDag {
        WorkflowDag::new(
            "diamond",
            "0.1",
            vec![meta("a"), meta("b"), meta("c"), meta("d")],
            vec![edge(0, 1), edge(0, 2), edge(1, 3), edge(2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn diamond_structure() {
        let d = diamond();
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.start(), NodeId(0));
        assert!(d.is_sync_node(NodeId(3)));
        assert!(!d.is_sync_node(NodeId(1)));
        assert!(d.has_sync_nodes());
        assert!(!d.has_conditional_edges());
        assert_eq!(d.sinks(), vec![NodeId(3)]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = diamond();
        let order = d.topo_order();
        let pos = |n: NodeId| order.iter().position(|x| *x == n).unwrap();
        for e in d.all_edges() {
            let e = d.edge(e);
            assert!(pos(e.from) < pos(e.to));
        }
    }

    #[test]
    fn cycle_detected() {
        let r = WorkflowDag::new(
            "cyc",
            "0.1",
            vec![meta("a"), meta("b"), meta("c")],
            vec![edge(0, 1), edge(1, 2), edge(2, 1)],
        );
        assert!(matches!(r, Err(ModelError::CyclicWorkflow { .. })));
    }

    #[test]
    fn self_loop_rejected() {
        let r = WorkflowDag::new(
            "s",
            "0.1",
            vec![meta("a"), meta("b")],
            vec![edge(0, 1), edge(1, 1)],
        );
        assert!(matches!(r, Err(ModelError::CyclicWorkflow { .. })));
    }

    #[test]
    fn multiple_starts_rejected() {
        let r = WorkflowDag::new(
            "m",
            "0.1",
            vec![meta("a"), meta("b"), meta("c")],
            vec![edge(0, 2), edge(1, 2)],
        );
        assert!(matches!(r, Err(ModelError::MultipleStartNodes { .. })));
    }

    #[test]
    fn no_start_rejected() {
        let r = WorkflowDag::new(
            "n",
            "0.1",
            vec![meta("a"), meta("b")],
            vec![edge(0, 1), edge(1, 0)],
        );
        assert!(matches!(
            r,
            Err(ModelError::NoStartNode) | Err(ModelError::CyclicWorkflow { .. })
        ));
    }

    #[test]
    fn empty_workflow_rejected() {
        assert!(matches!(
            WorkflowDag::new("e", "0.1", vec![], vec![]),
            Err(ModelError::EmptyWorkflow)
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let r = WorkflowDag::new(
            "d",
            "0.1",
            vec![meta("a"), meta("b")],
            vec![edge(0, 1), edge(0, 1)],
        );
        assert!(matches!(r, Err(ModelError::DuplicateEdge { .. })));
    }

    #[test]
    fn duplicate_name_rejected() {
        let r = WorkflowDag::new("d", "0.1", vec![meta("a"), meta("a")], vec![edge(0, 1)]);
        assert!(matches!(r, Err(ModelError::DuplicateFunction { .. })));
    }

    #[test]
    fn single_node_workflow_valid() {
        let d = WorkflowDag::new("one", "0.1", vec![meta("only")], vec![]).unwrap();
        assert_eq!(d.start(), NodeId(0));
        assert_eq!(d.sinks(), vec![NodeId(0)]);
        assert!(!d.has_sync_nodes());
    }

    #[test]
    fn unreachable_node_rejected() {
        // 0 -> 1, and 2 -> 3 isolated (two starts => MultipleStartNodes is
        // also acceptable; the validator reports the first structural error).
        let r = WorkflowDag::new(
            "u",
            "0.1",
            vec![meta("a"), meta("b"), meta("c"), meta("d")],
            vec![edge(0, 1), edge(2, 3)],
        );
        assert!(r.is_err());
    }
}
