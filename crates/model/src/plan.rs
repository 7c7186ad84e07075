//! Deployment plans: the mapping `ψ : N → R` of §4 and hourly plan sets.

use serde::{Deserialize, Serialize};

use crate::dag::{NodeId, WorkflowDag};
use crate::error::ModelError;
use crate::region::{Provider, RegionId};

/// A deployment plan assigning each workflow node to a region.
///
/// # Examples
///
/// ```
/// use caribou_model::plan::DeploymentPlan;
/// use caribou_model::region::RegionId;
/// use caribou_model::dag::NodeId;
///
/// let mut plan = DeploymentPlan::uniform(3, RegionId(0));
/// plan.set(NodeId(2), RegionId(4));
/// assert!(!plan.is_single_region());
/// assert_eq!(plan.regions_used(), vec![RegionId(0), RegionId(4)]);
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeploymentPlan {
    assignment: Vec<RegionId>,
}

impl Clone for DeploymentPlan {
    #[inline]
    fn clone(&self) -> Self {
        DeploymentPlan {
            assignment: self.assignment.clone(),
        }
    }

    /// Copies into this plan's own buffer, so a candidate rewritten from
    /// the current plan every solver iteration allocates nothing.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.assignment.clone_from(&source.assignment);
    }
}

impl DeploymentPlan {
    /// Creates a plan from an explicit per-node assignment.
    pub fn new(assignment: Vec<RegionId>) -> Self {
        DeploymentPlan { assignment }
    }

    /// Creates the coarse single-region plan placing every node in `region`.
    pub fn uniform(node_count: usize, region: RegionId) -> Self {
        DeploymentPlan {
            assignment: vec![region; node_count],
        }
    }

    /// The region a node is deployed to.
    ///
    /// # Panics
    ///
    /// Panics if the node index exceeds the plan length.
    pub fn region_of(&self, node: NodeId) -> RegionId {
        self.assignment[node.index()]
    }

    /// Reassigns one node.
    pub fn set(&mut self, node: NodeId, region: RegionId) {
        self.assignment[node.index()] = region;
    }

    /// Number of nodes covered by the plan.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the plan covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The underlying assignment slice.
    pub fn assignment(&self) -> &[RegionId] {
        &self.assignment
    }

    /// Whether every node is placed in the same region.
    pub fn is_single_region(&self) -> bool {
        self.assignment.windows(2).all(|w| w[0] == w[1])
    }

    /// The distinct regions used by the plan, sorted.
    pub fn regions_used(&self) -> Vec<RegionId> {
        let mut v = self.assignment.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Validates the plan against a DAG and a region universe.
    pub fn validate(
        &self,
        dag: &WorkflowDag,
        permitted: &[Vec<RegionId>],
    ) -> Result<(), ModelError> {
        if self.assignment.len() != dag.node_count() {
            return Err(ModelError::InvalidPlan {
                reason: format!(
                    "plan covers {} nodes, workflow has {}",
                    self.assignment.len(),
                    dag.node_count()
                ),
            });
        }
        for (i, r) in self.assignment.iter().enumerate() {
            if !permitted[i].contains(r) {
                return Err(ModelError::InvalidPlan {
                    reason: format!("node n{i} assigned non-permitted region {r}"),
                });
            }
        }
        Ok(())
    }

    /// The set of nodes whose assignment differs from `other`; these are the
    /// nodes the Deployment Migrator must re-deploy.
    pub fn diff(&self, other: &DeploymentPlan) -> Vec<NodeId> {
        self.assignment
            .iter()
            .zip(other.assignment.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

/// Granularity of a generated plan set (§5.2): the carbon budget decides
/// whether the solver produces one plan per day or one per hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanGranularity {
    /// A single plan applied for the whole day.
    Daily,
    /// Twenty-four plans, one per hour of the day.
    Hourly,
}

/// A set of deployment plans covering a day, one per hour (§5.1: "24 plans
/// are generated per solve — one for each hour, given sufficient carbon
/// budget").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourlyPlans {
    /// Plan for each hour-of-day `0..24`. With [`PlanGranularity::Daily`]
    /// all 24 entries are the same plan.
    plans: Vec<DeploymentPlan>,
    /// Granularity the plans were solved at.
    pub granularity: PlanGranularity,
    /// Simulation time (seconds) the plan set was generated at.
    pub generated_at: f64,
    /// Simulation time (seconds) after which the plan set expires and all
    /// traffic must be routed to the home region (§5.2).
    pub expires_at: f64,
}

impl HourlyPlans {
    /// Creates an hourly plan set.
    ///
    /// # Panics
    ///
    /// Panics unless exactly 24 plans are provided.
    pub fn hourly(plans: Vec<DeploymentPlan>, generated_at: f64, expires_at: f64) -> Self {
        assert_eq!(plans.len(), 24, "hourly plan set requires 24 plans");
        HourlyPlans {
            plans,
            granularity: PlanGranularity::Hourly,
            generated_at,
            expires_at,
        }
    }

    /// Creates a daily plan set by replicating one plan across all hours.
    pub fn daily(plan: DeploymentPlan, generated_at: f64, expires_at: f64) -> Self {
        HourlyPlans {
            plans: vec![plan; 24],
            granularity: PlanGranularity::Daily,
            generated_at,
            expires_at,
        }
    }

    /// The plan in effect at the given hour of day.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn plan_for_hour(&self, hour: usize) -> &DeploymentPlan {
        assert!(hour < 24, "hour out of range");
        &self.plans[hour]
    }

    /// Whether the plan set has expired at simulation time `now`.
    pub fn expired(&self, now: f64) -> bool {
        now >= self.expires_at
    }

    /// Iterates over the 24 hourly plans.
    pub fn iter(&self) -> impl Iterator<Item = &DeploymentPlan> {
        self.plans.iter()
    }

    /// All distinct regions used across the day; the Migrator must ensure
    /// function images and topics exist in each of these.
    pub fn regions_used(&self) -> Vec<RegionId> {
        let mut v: Vec<RegionId> = self.plans.iter().flat_map(|p| p.regions_used()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// What a contingency fallback plan was solved without: a single region
/// or an entire provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exclusion {
    /// The fallback excludes one region.
    Region(RegionId),
    /// The fallback excludes every region of a provider.
    Provider(Provider),
}

impl Exclusion {
    /// Stable label for reports (`region:r5`, `provider:gcp`).
    pub fn label(&self) -> String {
        match self {
            Exclusion::Region(r) => format!("region:r{}", r.0),
            Exclusion::Provider(p) => format!("provider:{p}"),
        }
    }
}

/// One ranked fallback: an exclusion, the concrete regions it removes
/// from the plan space, the plan set solved without them, and the
/// objective metric the solver estimated for it (used for ranking).
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyEntry {
    /// What was excluded from the plan space.
    pub exclusion: Exclusion,
    /// Concrete regions the exclusion removes. The fallback plan set is
    /// guaranteed to reference none of them.
    pub excluded_regions: Vec<RegionId>,
    /// Fallback plan set solved over the reduced space.
    pub plans: HourlyPlans,
    /// Mean objective metric across the 24 hourly plans (lower is
    /// better); entries are ranked by it.
    pub metric: f64,
}

/// Precomputed fallback plans ranked best-first, emitted by the solver
/// alongside the primary schedule so the runtime can fail over without
/// re-solving (and without ad-hoc re-route-home).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContingencyTable {
    /// Fallback entries, ranked by ascending `metric`.
    pub entries: Vec<ContingencyEntry>,
}

impl ContingencyTable {
    /// A table with no fallbacks.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of fallback entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no fallbacks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The best-ranked entry whose exclusion covers every region in
    /// `down` — its plan set is guaranteed not to reference any of them.
    /// `None` when no precomputed fallback avoids the whole down set.
    pub fn best_for(&self, down: &[RegionId]) -> Option<&ContingencyEntry> {
        if down.is_empty() {
            return None;
        }
        self.entries
            .iter()
            .find(|e| down.iter().all(|r| e.excluded_regions.contains(r)))
    }

    /// All distinct regions used across every fallback plan set; the
    /// Migrator must pre-deploy each of these for failover to be
    /// deterministic.
    pub fn regions_used(&self) -> Vec<RegionId> {
        let mut v: Vec<RegionId> = self
            .entries
            .iter()
            .flat_map(|e| e.plans.regions_used())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Edge, NodeMeta};

    fn dag2() -> WorkflowDag {
        WorkflowDag::new(
            "two",
            "0.1",
            vec![
                NodeMeta {
                    name: "a".into(),
                    source_function: "a".into(),
                },
                NodeMeta {
                    name: "b".into(),
                    source_function: "b".into(),
                },
            ],
            vec![Edge {
                from: NodeId(0),
                to: NodeId(1),
                conditional: false,
            }],
        )
        .unwrap()
    }

    #[test]
    fn uniform_plan_is_single_region() {
        let p = DeploymentPlan::uniform(3, RegionId(2));
        assert!(p.is_single_region());
        assert_eq!(p.regions_used(), vec![RegionId(2)]);
    }

    #[test]
    fn set_and_diff() {
        let mut p = DeploymentPlan::uniform(3, RegionId(0));
        let q = p.clone();
        p.set(NodeId(1), RegionId(4));
        assert!(!p.is_single_region());
        assert_eq!(p.diff(&q), vec![NodeId(1)]);
        assert_eq!(q.diff(&q), Vec::<NodeId>::new());
    }

    #[test]
    fn validate_length_mismatch() {
        let dag = dag2();
        let p = DeploymentPlan::uniform(3, RegionId(0));
        let permitted = vec![vec![RegionId(0)]; 3];
        assert!(p.validate(&dag, &permitted).is_err());
    }

    #[test]
    fn validate_permitted_regions() {
        let dag = dag2();
        let permitted = vec![vec![RegionId(0), RegionId(1)], vec![RegionId(0)]];
        let ok = DeploymentPlan::new(vec![RegionId(1), RegionId(0)]);
        assert!(ok.validate(&dag, &permitted).is_ok());
        let bad = DeploymentPlan::new(vec![RegionId(1), RegionId(1)]);
        assert!(bad.validate(&dag, &permitted).is_err());
    }

    #[test]
    fn hourly_plans_lookup_and_expiry() {
        let p0 = DeploymentPlan::uniform(2, RegionId(0));
        let mut plans = vec![p0.clone(); 24];
        plans[5] = DeploymentPlan::uniform(2, RegionId(1));
        let hp = HourlyPlans::hourly(plans, 100.0, 200.0);
        assert_eq!(hp.plan_for_hour(5).region_of(NodeId(0)), RegionId(1));
        assert_eq!(hp.plan_for_hour(6).region_of(NodeId(0)), RegionId(0));
        assert!(!hp.expired(150.0));
        assert!(hp.expired(200.0));
        assert_eq!(hp.regions_used(), vec![RegionId(0), RegionId(1)]);
    }

    #[test]
    fn daily_plans_replicate() {
        let hp = HourlyPlans::daily(DeploymentPlan::uniform(2, RegionId(3)), 0.0, 10.0);
        assert_eq!(hp.granularity, PlanGranularity::Daily);
        for h in 0..24 {
            assert_eq!(hp.plan_for_hour(h).region_of(NodeId(1)), RegionId(3));
        }
    }

    #[test]
    #[should_panic]
    fn hourly_requires_24() {
        HourlyPlans::hourly(vec![DeploymentPlan::uniform(1, RegionId(0)); 23], 0.0, 1.0);
    }

    fn entry(exclusion: Exclusion, excluded: Vec<RegionId>, region: RegionId) -> ContingencyEntry {
        ContingencyEntry {
            exclusion,
            excluded_regions: excluded,
            plans: HourlyPlans::daily(DeploymentPlan::uniform(2, region), 0.0, 1e9),
            metric: 1.0,
        }
    }

    #[test]
    fn contingency_best_for_respects_rank_and_coverage() {
        let table = ContingencyTable {
            entries: vec![
                entry(
                    Exclusion::Region(RegionId(5)),
                    vec![RegionId(5)],
                    RegionId(0),
                ),
                entry(
                    Exclusion::Provider(Provider::Gcp),
                    vec![RegionId(5), RegionId(6)],
                    RegionId(1),
                ),
            ],
        };
        // Single-region loss: the best-ranked (first) covering entry wins.
        let e = table.best_for(&[RegionId(5)]).unwrap();
        assert_eq!(e.exclusion, Exclusion::Region(RegionId(5)));
        // Provider-wide loss: only the provider exclusion covers both.
        let e = table.best_for(&[RegionId(5), RegionId(6)]).unwrap();
        assert_eq!(e.exclusion, Exclusion::Provider(Provider::Gcp));
        // No fallback avoids an unexcluded region.
        assert!(table.best_for(&[RegionId(9)]).is_none());
        assert!(table.best_for(&[]).is_none());
        assert_eq!(table.regions_used(), vec![RegionId(0), RegionId(1)]);
    }

    #[test]
    fn exclusion_labels_are_stable() {
        assert_eq!(Exclusion::Region(RegionId(5)).label(), "region:r5");
        assert_eq!(Exclusion::Provider(Provider::Gcp).label(), "provider:gcp");
    }
}
