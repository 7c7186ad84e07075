//! Region constraints and QoS tolerances (§2.3 Compliance, §8).
//!
//! Developers can restrict where functions may run at two levels: per
//! function (via the builder API) and per workflow ([`Constraints`]'s
//! `workflow` filter). Function-level configurations supersede
//! workflow-level ones (§8). If no regions are explicitly allowed, all
//! regions are considered. [`Constraints`] is the one place a workflow's
//! objective, tolerances and eligible regions live; the deployment manifest
//! carries only its name, version and home region.

use crate::dag::WorkflowDag;
use crate::error::ModelError;
use crate::region::{Provider, RegionCatalog, RegionId};

/// Which metric the solver should prioritize when ranking feasible
/// deployments (§5.1, §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize operational carbon (the paper's default focus).
    #[default]
    Carbon,
    /// Minimize monetary cost.
    Cost,
    /// Minimize end-to-end latency.
    Latency,
}

/// Relative tolerances versus the home-region deployment, enforced at
/// deployment-plan generation (§8, §9.4).
///
/// A tolerance of `0.05` permits the tail (95th-percentile) metric of a
/// candidate deployment to exceed the home-region tail metric by 5%.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Allowed relative increase of tail end-to-end latency.
    pub latency: f64,
    /// Allowed relative increase of tail cost per invocation.
    pub cost: f64,
    /// Allowed relative increase of tail carbon per invocation. The default
    /// is unbounded because offloading exists to *reduce* carbon; set it to
    /// bound worst-case regressions.
    pub carbon: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            latency: 0.05,
            cost: 0.10,
            carbon: f64::INFINITY,
        }
    }
}

impl Tolerances {
    /// Validates that tolerances are non-negative.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.latency < 0.0 || self.cost < 0.0 || self.carbon < 0.0 {
            return Err(ModelError::InvalidConstraint {
                reason: "tolerances must be non-negative".to_string(),
            });
        }
        Ok(())
    }
}

/// A region filter: allow-list and/or deny-list over regions and providers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionFilter {
    /// If non-empty, only these regions are eligible.
    pub allowed_regions: Vec<RegionId>,
    /// These regions are never eligible (applied after the allow-list).
    pub disallowed_regions: Vec<RegionId>,
    /// If non-empty, only these providers are eligible.
    pub allowed_providers: Vec<Provider>,
    /// These providers are never eligible.
    pub disallowed_providers: Vec<Provider>,
    /// If non-empty, only regions in these ISO country codes are eligible
    /// (data-residency shorthand, e.g. `["US"]` for HIPAA-style residency).
    pub allowed_countries: Vec<String>,
}

impl RegionFilter {
    /// A filter that permits everything.
    pub fn any() -> Self {
        Self::default()
    }

    /// A filter restricted to the given regions.
    pub fn only(regions: impl IntoIterator<Item = RegionId>) -> Self {
        RegionFilter {
            allowed_regions: regions.into_iter().collect(),
            ..Self::default()
        }
    }

    /// A filter restricted to the given countries.
    pub fn countries<S: Into<String>>(codes: impl IntoIterator<Item = S>) -> Self {
        RegionFilter {
            allowed_countries: codes.into_iter().map(Into::into).collect(),
            ..Self::default()
        }
    }

    /// Whether a region passes this filter.
    pub fn permits(&self, region: RegionId, catalog: &RegionCatalog) -> bool {
        let spec = match catalog.get(region) {
            Some(s) => s,
            None => return false,
        };
        if !self.allowed_regions.is_empty() && !self.allowed_regions.contains(&region) {
            return false;
        }
        if self.disallowed_regions.contains(&region) {
            return false;
        }
        if !self.allowed_providers.is_empty() && !self.allowed_providers.contains(&spec.provider) {
            return false;
        }
        if self.disallowed_providers.contains(&spec.provider) {
            return false;
        }
        if !self.allowed_countries.is_empty() && !self.allowed_countries.contains(&spec.country) {
            return false;
        }
        true
    }
}

/// Full constraint set for one workflow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Constraints {
    /// Workflow-level region filter; a node without its own filter uses it.
    pub workflow: RegionFilter,
    /// Per-node region filters (from the builder API); indexed by node.
    /// Function-level filters supersede workflow-level ones (§8).
    pub per_node: Vec<Option<RegionFilter>>,
    /// QoS tolerances versus the home-region deployment.
    pub tolerances: Tolerances,
    /// Optimization priority.
    pub objective: Objective,
}

impl Constraints {
    /// Creates an unconstrained set for a workflow with `node_count` nodes.
    pub fn unconstrained(node_count: usize) -> Self {
        Constraints {
            per_node: vec![None; node_count],
            ..Self::default()
        }
    }

    /// Computes the permitted region set per node over a candidate region
    /// universe, applying the supersession rule of §8: a node with its own
    /// filter uses *only* that filter; otherwise the workflow filter
    /// applies.
    ///
    /// The home region is always permitted for every node so a feasible
    /// fallback deployment exists.
    pub fn permitted_regions(
        &self,
        dag: &WorkflowDag,
        universe: &[RegionId],
        catalog: &RegionCatalog,
        home: RegionId,
    ) -> Result<Vec<Vec<RegionId>>, ModelError> {
        if self.per_node.len() != dag.node_count() {
            return Err(ModelError::InvalidConstraint {
                reason: format!(
                    "per-node constraints cover {} nodes, workflow has {}",
                    self.per_node.len(),
                    dag.node_count()
                ),
            });
        }
        self.tolerances.validate()?;
        let mut out = Vec::with_capacity(dag.node_count());
        for node in dag.all_nodes() {
            let filter = self.per_node[node.index()]
                .as_ref()
                .unwrap_or(&self.workflow);
            let mut set: Vec<RegionId> = universe
                .iter()
                .copied()
                .filter(|r| filter.permits(*r, catalog))
                .collect();
            if !set.contains(&home) {
                set.push(home);
            }
            set.sort_unstable();
            out.push(set);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Edge, NodeId, NodeMeta};

    fn catalog() -> RegionCatalog {
        RegionCatalog::aws_default()
    }

    fn chain3() -> WorkflowDag {
        let meta = |n: &str| NodeMeta {
            name: n.into(),
            source_function: n.into(),
        };
        WorkflowDag::new(
            "c",
            "0.1",
            vec![meta("a"), meta("b"), meta("c")],
            vec![
                Edge {
                    from: NodeId(0),
                    to: NodeId(1),
                    conditional: false,
                },
                Edge {
                    from: NodeId(1),
                    to: NodeId(2),
                    conditional: false,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn unrestricted_filter_permits_all() {
        let cat = catalog();
        let f = RegionFilter::any();
        for (id, _) in cat.iter() {
            assert!(f.permits(id, &cat));
        }
    }

    #[test]
    fn allow_list_restricts() {
        let cat = catalog();
        let use1 = cat.id_of("us-east-1").unwrap();
        let caw = cat.id_of("ca-central-1").unwrap();
        let f = RegionFilter::only([use1]);
        assert!(f.permits(use1, &cat));
        assert!(!f.permits(caw, &cat));
    }

    #[test]
    fn country_filter_data_residency() {
        let cat = catalog();
        let f = RegionFilter::countries(["US"]);
        assert!(f.permits(cat.id_of("us-west-1").unwrap(), &cat));
        assert!(!f.permits(cat.id_of("ca-central-1").unwrap(), &cat));
        assert!(!f.permits(cat.id_of("eu-west-1").unwrap(), &cat));
    }

    #[test]
    fn deny_list_applies_after_allow() {
        let cat = catalog();
        let use1 = cat.id_of("us-east-1").unwrap();
        let usw1 = cat.id_of("us-west-1").unwrap();
        let f = RegionFilter {
            allowed_regions: vec![use1, usw1],
            disallowed_regions: vec![usw1],
            ..RegionFilter::default()
        };
        assert!(f.permits(use1, &cat));
        assert!(!f.permits(usw1, &cat));
    }

    #[test]
    fn provider_filter() {
        let cat = catalog();
        let f = RegionFilter {
            disallowed_providers: vec![Provider::Aws],
            ..RegionFilter::default()
        };
        assert!(!f.permits(cat.id_of("us-east-1").unwrap(), &cat));
    }

    #[test]
    fn node_filter_supersedes_workflow_filter() {
        let cat = catalog();
        let dag = chain3();
        let use1 = cat.id_of("us-east-1").unwrap();
        let caw = cat.id_of("ca-central-1").unwrap();
        let universe = cat.evaluation_regions();
        let mut c = Constraints::unconstrained(3);
        // Workflow restricted to the US...
        c.workflow = RegionFilter::countries(["US"]);
        // ...but node 2 explicitly allows Canada only.
        c.per_node[2] = Some(RegionFilter::only([caw]));
        let permitted = c.permitted_regions(&dag, &universe, &cat, use1).unwrap();
        assert!(!permitted[0].contains(&caw));
        assert!(permitted[0].contains(&use1));
        // Node 2 gets Canada plus the always-permitted home region.
        assert!(permitted[2].contains(&caw));
        assert!(permitted[2].contains(&use1));
        assert_eq!(permitted[2].len(), 2);
    }

    #[test]
    fn home_region_always_permitted() {
        let cat = catalog();
        let dag = chain3();
        let use1 = cat.id_of("us-east-1").unwrap();
        let caw = cat.id_of("ca-central-1").unwrap();
        let mut c = Constraints::unconstrained(3);
        c.workflow = RegionFilter::only([caw]);
        let permitted = c
            .permitted_regions(&dag, &cat.evaluation_regions(), &cat, use1)
            .unwrap();
        for set in &permitted {
            assert!(set.contains(&use1));
        }
    }

    #[test]
    fn mismatched_constraint_length_errors() {
        let cat = catalog();
        let dag = chain3();
        let use1 = cat.id_of("us-east-1").unwrap();
        let c = Constraints::unconstrained(2);
        assert!(c
            .permitted_regions(&dag, &cat.evaluation_regions(), &cat, use1)
            .is_err());
    }

    #[test]
    fn negative_tolerance_rejected() {
        let t = Tolerances {
            latency: -0.1,
            ..Tolerances::default()
        };
        assert!(t.validate().is_err());
    }
}
