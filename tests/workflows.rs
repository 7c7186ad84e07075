//! Random workflows and plans shared by the property suites
//! (`properties.rs`, `estimator_diff.rs`).

use caribou_model::dag::{Edge, NodeId, NodeMeta, WorkflowDag};
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::{EdgeProfile, NodeProfile, WorkflowProfile};
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use proptest::prelude::*;

/// A randomly generated, always-valid workflow: node 0 is the unique
/// start; every later node gets one parent among its predecessors plus
/// optional extra parents (making it a synchronization node).
#[derive(Debug, Clone)]
pub struct RandomWorkflow {
    pub dag: WorkflowDag,
    pub profile: WorkflowProfile,
}

pub fn random_workflow() -> impl Strategy<Value = RandomWorkflow> {
    (2usize..8, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = Pcg32::seed(seed);
        let nodes: Vec<NodeMeta> = (0..n)
            .map(|i| NodeMeta {
                name: format!("n{i}"),
                source_function: format!("f{i}"),
            })
            .collect();
        let mut edges = Vec::new();
        for i in 1..n {
            let parent = rng.next_index(i);
            edges.push(Edge {
                from: NodeId(parent as u32),
                to: NodeId(i as u32),
                conditional: rng.chance(0.3),
            });
            // Occasionally add a second parent, creating a sync node.
            if i >= 2 && rng.chance(0.35) {
                let mut second = rng.next_index(i);
                if second == parent {
                    second = (second + 1) % i;
                }
                if second != parent {
                    edges.push(Edge {
                        from: NodeId(second as u32),
                        to: NodeId(i as u32),
                        conditional: rng.chance(0.3),
                    });
                }
            }
        }
        let dag = WorkflowDag::new("random", "0.1", nodes, edges).expect("constructed valid");
        let profile = WorkflowProfile {
            nodes: (0..n)
                .map(|_| NodeProfile {
                    memory_mb: [512, 1024, 1769][rng.next_index(3)],
                    exec_time: DistSpec::Constant {
                        value: rng.uniform(0.2, 5.0),
                    },
                    cpu_utilization: rng.uniform(0.3, 0.95),
                    external_data_bytes: if rng.chance(0.3) {
                        rng.uniform(1e4, 1e6)
                    } else {
                        0.0
                    },
                })
                .collect(),
            edges: dag
                .all_edges()
                .map(|e| EdgeProfile {
                    payload_bytes: DistSpec::Constant {
                        value: rng.uniform(1e3, 1e6),
                    },
                    probability: if dag.edge(e).conditional {
                        rng.uniform(0.1, 0.9)
                    } else {
                        1.0
                    },
                })
                .collect(),
            input_bytes: DistSpec::Constant {
                value: rng.uniform(1e3, 1e5),
            },
        };
        profile.validate(&dag).expect("constructed profile valid");
        RandomWorkflow { dag, profile }
    })
}

/// A seeded assignment of `dag`'s nodes to `regions`.
pub fn random_plan(dag: &WorkflowDag, regions: &[RegionId], seed: u64) -> DeploymentPlan {
    let mut rng = Pcg32::seed(seed ^ 0xdead);
    DeploymentPlan::new(
        (0..dag.node_count())
            .map(|_| regions[rng.next_index(regions.len())])
            .collect(),
    )
}
