//! Workload resource profiles.
//!
//! The framework never inspects application logic; it learns each stage's
//! execution-time distribution, memory configuration, CPU utilization, and
//! per-edge payload sizes (§7.1). A [`WorkflowProfile`] is the plain-data
//! form of that knowledge. For the benchmark replicas in
//! `caribou-workloads` the profiles are calibrated to the paper's
//! workloads; for user workflows they are estimated from invocation logs by
//! the Metrics Manager.

use crate::dag::WorkflowDag;
use crate::dist::DistSpec;
use crate::error::ModelError;

/// Resource profile for one workflow stage.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// Configured memory size in MB; determines the vCPU allocation
    /// (`mem / 1769`, §7.1) and the memory energy term.
    pub memory_mb: u32,
    /// Execution-time distribution in seconds on reference (home-region)
    /// hardware.
    pub exec_time: DistSpec,
    /// Average CPU utilization in `[0, 1]` during execution, measured via
    /// Lambda-Insights-style `cpu_total_time`; drives the linear
    /// utilization-based power model (Eq. 7.3).
    pub cpu_utilization: f64,
    /// Bytes read from / written to external storage and services that stay
    /// at the home region (§9.1 Fair Experiments: "All benchmarks access
    /// external storage and services at or close to their home region").
    /// When the node is offloaded these bytes traverse the inter-region
    /// network.
    pub external_data_bytes: f64,
}

impl NodeProfile {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.exec_time.validate()?;
        if self.memory_mb == 0 {
            return Err(ModelError::InvalidConstraint {
                reason: "memory_mb must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.cpu_utilization) {
            return Err(ModelError::InvalidConstraint {
                reason: "cpu_utilization must be in [0, 1]".into(),
            });
        }
        if self.external_data_bytes < 0.0 || !self.external_data_bytes.is_finite() {
            return Err(ModelError::InvalidConstraint {
                reason: "external_data_bytes must be non-negative".into(),
            });
        }
        Ok(())
    }
}

/// Resource profile for one DAG edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeProfile {
    /// Intermediate-data payload (bytes) passed along the edge via the
    /// distributed key-value store.
    pub payload_bytes: DistSpec,
    /// Probability the edge is taken. `1.0` for unconditional edges;
    /// learned from logs for conditional edges (§7.1 Monte Carlo sampling).
    pub probability: f64,
}

impl EdgeProfile {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.payload_bytes.validate()?;
        if !(0.0..=1.0).contains(&self.probability) {
            return Err(ModelError::InvalidConstraint {
                reason: "edge probability must be in [0, 1]".into(),
            });
        }
        Ok(())
    }
}

/// Full resource profile of a workflow, parallel to a [`WorkflowDag`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowProfile {
    /// Per-node profiles, indexed like the DAG's nodes.
    pub nodes: Vec<NodeProfile>,
    /// Per-edge profiles, indexed like the DAG's edges.
    pub edges: Vec<EdgeProfile>,
    /// Client input payload (bytes) delivered to the start node. The client
    /// is assumed to sit at the home region (§9.1).
    pub input_bytes: DistSpec,
}

impl WorkflowProfile {
    /// Validates shape against a DAG and parameter sanity of every entry.
    pub fn validate(&self, dag: &WorkflowDag) -> Result<(), ModelError> {
        if self.nodes.len() != dag.node_count() {
            return Err(ModelError::InvalidConstraint {
                reason: format!(
                    "profile covers {} nodes, workflow has {}",
                    self.nodes.len(),
                    dag.node_count()
                ),
            });
        }
        if self.edges.len() != dag.edge_count() {
            return Err(ModelError::InvalidConstraint {
                reason: format!(
                    "profile covers {} edges, workflow has {}",
                    self.edges.len(),
                    dag.edge_count()
                ),
            });
        }
        for n in &self.nodes {
            n.validate()?;
        }
        for (i, e) in self.edges.iter().enumerate() {
            e.validate()?;
            if !dag.edge(crate::dag::EdgeId(i as u32)).conditional && e.probability != 1.0 {
                return Err(ModelError::InvalidConstraint {
                    reason: format!("unconditional edge e{i} must have probability 1.0"),
                });
            }
        }
        self.input_bytes.validate()?;
        Ok(())
    }

    /// Expected total execution seconds across all nodes weighted by their
    /// invocation probability; a rough workload-size figure used by the
    /// token-bucket controller.
    pub fn expected_total_exec_seconds(&self, dag: &WorkflowDag) -> f64 {
        let probs = self.node_invocation_probabilities(dag);
        self.nodes
            .iter()
            .zip(probs.iter())
            .map(|(n, p)| n.exec_time.mean() * p)
            .sum()
    }

    /// Approximate probability each node is invoked, propagating edge
    /// probabilities through the DAG (a node fires if any incoming edge
    /// fires; independence is assumed, matching the Monte Carlo sampler's
    /// edge model).
    pub fn node_invocation_probabilities(&self, dag: &WorkflowDag) -> Vec<f64> {
        let mut prob = vec![0.0f64; dag.node_count()];
        prob[dag.start().index()] = 1.0;
        for &n in dag.topo_order() {
            let p_node = prob[n.index()];
            for &eid in dag.out_edges(n) {
                let e = dag.edge(eid);
                let p_edge = p_node * self.edges[eid.index()].probability;
                // P(any) under independence: 1 - Π(1 - p).
                let cur = prob[e.to.index()];
                prob[e.to.index()] = 1.0 - (1.0 - cur) * (1.0 - p_edge);
            }
        }
        prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Edge, NodeId, NodeMeta, WorkflowDag};

    fn meta(n: &str) -> NodeMeta {
        NodeMeta {
            name: n.into(),
            source_function: n.into(),
        }
    }

    fn node_profile(exec: f64) -> NodeProfile {
        NodeProfile {
            memory_mb: 1769,
            exec_time: DistSpec::Constant { value: exec },
            cpu_utilization: 0.7,
            external_data_bytes: 0.0,
        }
    }

    fn edge_profile(p: f64) -> EdgeProfile {
        EdgeProfile {
            payload_bytes: DistSpec::Constant { value: 1024.0 },
            probability: p,
        }
    }

    fn cond_diamond() -> WorkflowDag {
        WorkflowDag::new(
            "d",
            "0.1",
            vec![meta("a"), meta("b"), meta("c"), meta("d")],
            vec![
                Edge {
                    from: NodeId(0),
                    to: NodeId(1),
                    conditional: true,
                },
                Edge {
                    from: NodeId(0),
                    to: NodeId(2),
                    conditional: true,
                },
                Edge {
                    from: NodeId(1),
                    to: NodeId(3),
                    conditional: false,
                },
                Edge {
                    from: NodeId(2),
                    to: NodeId(3),
                    conditional: false,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn validate_accepts_well_formed() {
        let dag = cond_diamond();
        let p = WorkflowProfile {
            nodes: vec![node_profile(1.0); 4],
            edges: vec![
                edge_profile(0.5),
                edge_profile(0.5),
                edge_profile(1.0),
                edge_profile(1.0),
            ],
            input_bytes: DistSpec::Constant { value: 100.0 },
        };
        assert!(p.validate(&dag).is_ok());
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let dag = cond_diamond();
        let p = WorkflowProfile {
            nodes: vec![node_profile(1.0); 3],
            edges: vec![edge_profile(1.0); 4],
            input_bytes: DistSpec::Constant { value: 100.0 },
        };
        assert!(p.validate(&dag).is_err());
    }

    #[test]
    fn validate_rejects_subunit_probability_on_unconditional_edge() {
        let dag = cond_diamond();
        let p = WorkflowProfile {
            nodes: vec![node_profile(1.0); 4],
            edges: vec![
                edge_profile(0.5),
                edge_profile(0.5),
                edge_profile(0.9),
                edge_profile(1.0),
            ],
            input_bytes: DistSpec::Constant { value: 100.0 },
        };
        assert!(p.validate(&dag).is_err());
    }

    #[test]
    fn validate_rejects_bad_node_parameters() {
        let mut n = node_profile(1.0);
        n.cpu_utilization = 1.5;
        assert!(n.validate().is_err());
        let mut n = node_profile(1.0);
        n.memory_mb = 0;
        assert!(n.validate().is_err());
    }

    #[test]
    fn invocation_probabilities_propagate() {
        let dag = cond_diamond();
        let p = WorkflowProfile {
            nodes: vec![node_profile(1.0); 4],
            edges: vec![
                edge_profile(0.5),
                edge_profile(0.5),
                edge_profile(1.0),
                edge_profile(1.0),
            ],
            input_bytes: DistSpec::Constant { value: 100.0 },
        };
        let probs = p.node_invocation_probabilities(&dag);
        assert_eq!(probs[0], 1.0);
        assert!((probs[1] - 0.5).abs() < 1e-12);
        assert!((probs[2] - 0.5).abs() < 1e-12);
        // P(d) = 1 - (1 - 0.5)(1 - 0.5) = 0.75 under independence.
        assert!((probs[3] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn expected_exec_weights_by_probability() {
        let dag = cond_diamond();
        let p = WorkflowProfile {
            nodes: vec![
                node_profile(2.0),
                node_profile(4.0),
                node_profile(4.0),
                node_profile(8.0),
            ],
            edges: vec![
                edge_profile(0.5),
                edge_profile(0.5),
                edge_profile(1.0),
                edge_profile(1.0),
            ],
            input_bytes: DistSpec::Constant { value: 100.0 },
        };
        let expected = 2.0 + 0.5 * 4.0 + 0.5 * 4.0 + 0.75 * 8.0;
        assert!((p.expected_total_exec_seconds(&dag) - expected).abs() < 1e-9);
    }
}
