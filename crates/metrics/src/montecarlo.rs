//! End-to-end Monte Carlo metric estimation (§7.1).
//!
//! Estimating latency, cost, and carbon of conditional DAGs analytically is
//! intractable; following the paper (and the prior work it cites), the
//! estimator samples complete workflow executions: each sample draws the
//! conditional-edge outcomes, per-stage execution times, and transmission
//! latencies, then computes the critical path ("the moment the request is
//! first received by the first function to the end time of the last
//! function", §9.1), the invocation cost, and the operational carbon.
//!
//! Samples are taken in batches of 200 until the relative standard error
//! of every metric's mean drops below 0.05 or 2,000 samples are reached.
//!
//! An estimate does not draw: the random primitives of a sample live in a
//! [`DrawBank`](crate::bank::DrawBank) shared by every plan and hour of one
//! frozen context. And it has two halves. The *fold* ([`crate::fold`])
//! resolves a plan's constants site by site (`crate::prep`) and runs the
//! bank's columns through the DAG node by node over the sample index — critical
//! path by max/plus, billing, cost, the energy and bytes the carbon terms
//! multiply — with no generator call and no transcendental on that path,
//! and never sees an hour. The *pricing pass* (`crate::price`) multiplies
//! that energy and those bytes by the grid at one hour: Eq. 7.1–7.4
//! execution carbon, Eq. 7.5 transmission carbon. Every estimate prices;
//! [`MonteCarloEstimator::estimate_on`] folds only what the plan's
//! [`PlanRecord`] does not already hold. The stage models say, per site,
//! whether the draw is the profile-plus-simulator model or a pick from
//! logged history ([`StageModels::learned_exec`],
//! [`StageModels::learned_transfer`]).

use caribou_model::dag::WorkflowDag;
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use caribou_simcloud::compute::LambdaRuntime;
use caribou_simcloud::latency::LatencyModel;
use caribou_simcloud::orchestration::Orchestrator;

use caribou_carbon::source::CarbonDataSource;

use crate::bank::SharedBank;
use crate::carbonmodel::CarbonModel;
use crate::costmodel::CostModel;
use crate::fold::{self, FoldState, PlanRecord};
use crate::prep::Prep;
use crate::price::PriceState;
use crate::summary::DistSummary;

/// What the estimator's draws are taken from.
///
/// The default implementation is the workload profile plus the simulator's
/// runtime and latency models; the Metrics Manager substitutes logged
/// history, site by site, where it has enough of it (§7.1).
pub trait StageModels {
    /// The model every site draws from unless history replaces it.
    fn base(&self) -> DefaultModels<'_>;
    /// Logged execution durations that replace the model for `node` in
    /// `region`: a draw is one uniform pick from the (non-empty) slice
    /// times the factor. `None` draws from the model.
    fn learned_exec(&self, _node: usize, _region: RegionId) -> Option<(&[f64], f64)> {
        None
    }
    /// Logged one-way latencies that replace the model for the region
    /// pair: a draw is one uniform pick from the (non-empty) slice,
    /// whatever the byte count. `None` draws from the model.
    fn learned_transfer(&self, _from: RegionId, _to: RegionId) -> Option<&[f64]> {
        None
    }
}

/// Model-based sampling from the workload profile plus simulator models.
#[derive(Debug, Clone)]
pub struct DefaultModels<'a> {
    /// Workload profile providing reference execution distributions.
    pub profile: &'a WorkflowProfile,
    /// Region performance factors and execution noise.
    pub runtime: &'a LambdaRuntime,
    /// Transmission latency model (the CloudPing fallback of §7.1).
    pub latency: &'a LatencyModel,
    /// Orchestration mechanism in use.
    pub orchestrator: Orchestrator,
}

impl StageModels for DefaultModels<'_> {
    fn base(&self) -> DefaultModels<'_> {
        self.clone()
    }
}

/// Stopping-rule configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Samples per batch (paper: 200).
    pub batch: usize,
    /// Maximum total samples (paper: 2,000).
    pub max_samples: usize,
    /// Relative-standard-error threshold (paper: 0.05).
    pub cv_threshold: f64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            batch: 200,
            max_samples: 2000,
            cv_threshold: 0.05,
        }
    }
}

/// Estimation result: one summary per metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateSummary {
    /// End-to-end service time, seconds.
    pub latency: DistSummary,
    /// Cost per invocation, USD.
    pub cost: DistSummary,
    /// Operational carbon per invocation, gCO₂eq.
    pub carbon: DistSummary,
    /// Execution-only carbon component (mean), gCO₂eq; with the
    /// transmission component this gives the Fig. 8 ratio.
    pub exec_carbon_mean: f64,
    /// Transmission-only carbon component (mean), gCO₂eq.
    pub trans_carbon_mean: f64,
    /// Samples drawn.
    pub samples: usize,
}

/// The half of an estimate that moves with the hour: what a cache keeps
/// per (plan, hour), beside the plan's one [`PlanRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonSummary {
    /// Operational carbon per invocation, gCO₂eq; its `n` is the samples
    /// the estimate stopped at.
    pub carbon: DistSummary,
    /// Execution-only component (mean), gCO₂eq.
    pub exec_mean: f64,
    /// Transmission-only component (mean), gCO₂eq.
    pub trans_mean: f64,
}

impl EstimateSummary {
    /// An estimate from its hour-free half (latency, cost:
    /// [`PlanRecord::at`] the carbon's `n`) and its carbon half.
    pub fn from_halves((latency, cost): (DistSummary, DistSummary), c: CarbonSummary) -> Self {
        EstimateSummary {
            latency,
            cost,
            carbon: c.carbon,
            exec_carbon_mean: c.exec_mean,
            trans_carbon_mean: c.trans_mean,
            samples: c.carbon.n,
        }
    }

    /// The half of this estimate that moves with the hour.
    pub fn carbon_half(&self) -> CarbonSummary {
        CarbonSummary {
            carbon: self.carbon,
            exec_mean: self.exec_carbon_mean,
            trans_mean: self.trans_carbon_mean,
        }
    }

    /// Metric mean by objective, for deployment ordering.
    pub fn mean_of(&self, objective: caribou_model::constraints::Objective) -> f64 {
        use caribou_model::constraints::Objective;
        match objective {
            Objective::Carbon => self.carbon.mean,
            Objective::Cost => self.cost.mean,
            Objective::Latency => self.latency.mean,
        }
    }
}

/// The Monte Carlo end-to-end estimator.
pub struct MonteCarloEstimator<'a, S: CarbonDataSource, M: StageModels> {
    /// Workflow DAG.
    pub dag: &'a WorkflowDag,
    /// Workload profile.
    pub profile: &'a WorkflowProfile,
    /// Carbon data (actual or forecast).
    pub carbon_source: &'a S,
    /// Carbon model with the transmission scenario.
    pub carbon_model: CarbonModel,
    /// Cost model.
    pub cost_model: CostModel<'a>,
    /// Stage behaviour models.
    pub models: &'a M,
    /// Home region (client location and external-data anchor).
    pub home: RegionId,
    /// Stopping rule.
    pub config: MonteCarloConfig,
}

/// The columns an estimate works in: the fold's per-sample state and the
/// pricing pass's. They carry nothing from one estimate to the next, so a
/// scratch may serve any estimator on any bank; the solver keeps one per
/// worker thread.
#[derive(Debug, Default)]
pub struct EstimateScratch {
    fold: FoldState,
    price: PriceState,
}

impl<S: CarbonDataSource, M: StageModels> MonteCarloEstimator<'_, S, M> {
    /// Runs the estimator for a deployment plan at a given hour, on a bank
    /// of its own named by `rng`'s next draw (so a second call draws a
    /// second bank).
    pub fn estimate(&self, plan: &DeploymentPlan, hour: f64, rng: &mut Pcg32) -> EstimateSummary {
        let (bank, unfolded) = (SharedBank::new(rng.next_u64()), PlanRecord::default());
        let scratch = &mut EstimateScratch::default();
        self.estimate_on(plan, hour, &bank, scratch, &unfolded).0
    }

    /// The estimate of `plan` at `hour` on `bank`, given the `record` an
    /// earlier estimate of this plan on this bank returned (empty: none
    /// did). The bank was named when it was made ([`SharedBank::new`]), so
    /// whoever keeps one across estimates keeps it beside the context it
    /// was drawn for: its columns are this context's draws.
    ///
    /// At each stopping-rule boundary the latency and cost come from the
    /// record and the carbon from pricing the bank's derived columns at
    /// this hour. From the first boundary the record does not reach — or
    /// whose columns the bank does not hold — the plan is folded, from its
    /// first sample, and the longer record is returned beside the
    /// estimate for the caller to keep in place of the one it passed.
    pub fn estimate_on(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        bank: &SharedBank,
        scratch: &mut EstimateScratch,
        record: &PlanRecord,
    ) -> (EstimateSummary, Option<PlanRecord>) {
        let EstimateScratch { fold, price } = scratch;
        let batch = self.config.batch;
        price.rates(self, plan, hour);
        // Set once the plan has to be folded: the estimator's constants,
        // resolved per site as the fold reaches it. The record the fold
        // writes is in its scratch.
        let mut folded: Option<Prep<'_>> = None;
        let priced = |price: &mut PriceState, n| {
            let bank = bank.bound();
            bank.is_some_and(|bank| price.extend(self.dag, plan, &bank, n))
        };
        loop {
            let n = price.carb.len() + batch;
            let covered = folded.is_none() && record.boundary(n).is_some();
            if !(covered && priced(price, n)) {
                let prep = folded.get_or_insert_with(|| {
                    fold.reset(self.dag, batch);
                    self.prep()
                });
                fold::extend(prep, plan, bank, fold, batch, n);
                assert!(priced(price, n), "a fold publishes what pricing reads");
            }
            let at = match folded {
                Some(_) => fold.boundary(n),
                None => record.boundary(n),
            };
            let at = at.expect("covered");
            let carb = price.moments();
            let cv = at.lat.rse.max(at.cost.rse).max(carb.rse);
            let converged = cv < self.config.cv_threshold;
            if !converged && n < self.config.max_samples {
                continue;
            }
            if caribou_telemetry::is_enabled() {
                caribou_telemetry::count("montecarlo.estimates", 1);
                caribou_telemetry::count("montecarlo.batches", (n / batch) as u64);
                caribou_telemetry::count("montecarlo.samples", n as u64);
                let served = match folded {
                    Some(_) => {
                        caribou_telemetry::count("montecarlo.sites.read", fold.sites_read);
                        caribou_telemetry::count("montecarlo.sites.folded", fold.sites_folded);
                        "montecarlo.folds"
                    }
                    None => "montecarlo.repriced",
                };
                caribou_telemetry::count(served, 1);
                caribou_telemetry::observe("montecarlo.cv_at_stop", cv);
                if !converged {
                    caribou_telemetry::count("montecarlo.sample_cap_hit", 1);
                }
            }
            let (exec_mean, trans_mean) = price.component_means();
            let carbon = CarbonSummary {
                carbon: carb.summary(price.p95(&carb), n),
                exec_mean,
                trans_mean,
            };
            let summary = EstimateSummary::from_halves(at.summaries(), carbon);
            return (summary, folded.map(|_| fold.record()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carbonmodel::TransmissionScenario;
    use caribou_carbon::series::CarbonSeries;
    use caribou_carbon::source::TableSource;
    use caribou_model::builder::Workflow;
    use caribou_model::dag::NodeId;
    use caribou_model::dist::DistSpec;
    use caribou_model::region::RegionCatalog;
    use caribou_simcloud::cloud::SimCloud;
    use caribou_simcloud::pricing::PricingCatalog;

    use crate::bank::{Derived, Prim, Site};
    use caribou_model::wide::Level;

    type Flow = (WorkflowDag, WorkflowProfile);

    struct Fixture {
        cat: RegionCatalog,
        pricing: PricingCatalog,
        runtime: LambdaRuntime,
        latency: LatencyModel,
        carbon: TableSource,
    }

    /// A world with cold starts and execution noise off unless `noisy`.
    fn fixture(noisy: bool) -> Fixture {
        let cloud = SimCloud::aws(0);
        let (cat, pricing, mut runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        if !noisy {
            runtime.cold_start_prob = 0.0;
            runtime.exec_sigma = 0.0;
        }
        let mut carbon = TableSource::new();
        for (id, spec) in cat.iter() {
            let v = match spec.name.as_str() {
                "us-east-1" | "us-east-2" => 380.0,
                "ca-central-1" => 32.0,
                _ => 300.0,
            };
            carbon.insert(id, CarbonSeries::new(0, vec![v; 24]));
        }
        Fixture {
            pricing,
            latency,
            cat,
            runtime,
            carbon,
        }
    }

    impl Fixture {
        /// The plan with every node at home (us-east-1) but `moved`.
        fn plan(&self, nodes: usize, moved: &[(u32, &str)]) -> DeploymentPlan {
            let mut plan = DeploymentPlan::uniform(nodes, self.cat.id_of("us-east-1").unwrap());
            for &(node, region) in moved {
                plan.set(NodeId(node), self.cat.id_of(region).unwrap());
            }
            plan
        }

        /// The profile-plus-simulator models of `profile` in this world.
        fn models<'a>(&'a self, profile: &'a WorkflowProfile) -> DefaultModels<'a> {
            DefaultModels {
                profile,
                runtime: &self.runtime,
                latency: &self.latency,
                orchestrator: Orchestrator::Caribou,
            }
        }

        /// The estimator of `flow` on `models`, homed in us-east-1.
        fn estimator<'a, M: StageModels>(
            &'a self,
            (dag, profile): &'a Flow,
            models: &'a M,
            config: MonteCarloConfig,
        ) -> MonteCarloEstimator<'a, TableSource, M> {
            MonteCarloEstimator {
                dag,
                profile,
                carbon_source: &self.carbon,
                carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                cost_model: CostModel::new(&self.pricing),
                models,
                home: self.cat.id_of("us-east-1").unwrap(),
                config,
            }
        }

        /// Runs `f` on the estimator of `flow` homed in us-east-1.
        fn with_estimator<R>(
            &self,
            flow: &Flow,
            config: MonteCarloConfig,
            f: impl FnOnce(&MonteCarloEstimator<'_, TableSource, DefaultModels<'_>>) -> R,
        ) -> R {
            let models = self.models(&flow.1);
            f(&self.estimator(flow, &models, config))
        }

        fn estimate(&self, flow: &Flow, plan: &DeploymentPlan, seed: u64) -> EstimateSummary {
            self.with_estimator(flow, MonteCarloConfig::default(), |est| {
                est.estimate(plan, 0.5, &mut Pcg32::seed(seed))
            })
        }
    }

    /// A bank kept across estimates and the scratch they work in.
    type Kept = (SharedBank, EstimateScratch);

    /// The bank [`MonteCarloEstimator::estimate`] draws when handed a
    /// generator seeded with `seed`, and a fresh scratch.
    fn keep(seed: u64) -> Kept {
        let bank = SharedBank::new(Pcg32::seed(seed).next_u64());
        (bank, EstimateScratch::default())
    }

    /// The estimate of `plan` on `kept`'s bank, with no record to go by.
    fn estimate_on<M: StageModels>(
        est: &MonteCarloEstimator<'_, TableSource, M>,
        plan: &DeploymentPlan,
        hour: f64,
        (bank, scratch): &mut Kept,
    ) -> EstimateSummary {
        let unfolded = PlanRecord::default();
        est.estimate_on(plan, hour, bank, scratch, &unfolded).0
    }

    /// `A → B`, each stage `exec_s` seconds, `B` invoked with `prob`.
    fn chain(exec_s: f64, prob: Option<f64>) -> Flow {
        let mut wf = Workflow::new("chain", "0.1");
        let exec = DistSpec::Constant { value: exec_s };
        let a = wf
            .serverless_function("A")
            .exec_time(exec.clone())
            .register();
        let b = wf.serverless_function("B").exec_time(exec).register();
        wf.invoke(a, b, prob)
            .payload(DistSpec::Constant { value: 10_000.0 });
        wf.set_input(DistSpec::Constant { value: 1000.0 });
        let (dag, profile, _) = wf.extract().unwrap();
        (dag, profile)
    }

    /// `A → {Fast, Slow} → Join`: half-second stages but `Slow` (5 s, 2 MB
    /// of external data, invoked with `prob`), joined by a sync node.
    fn diamond(prob: Option<f64>) -> Flow {
        let mut wf = Workflow::new("join", "0.1");
        let mut stage = |name: &str, value: f64, external: f64| {
            wf.serverless_function(name)
                .exec_time(DistSpec::Constant { value })
                .external_data_bytes(external)
                .register()
        };
        let a = stage("A", 0.5, 0.0);
        let fast = stage("Fast", 0.5, 0.0);
        let slow = stage("Slow", 5.0, 2.0e6);
        let join = stage("Join", 0.5, 0.0);
        wf.invoke(a, fast, None);
        wf.invoke(a, slow, prob);
        wf.invoke(fast, join, None);
        wf.invoke(slow, join, None);
        wf.get_predecessor_data(join);
        let (dag, profile, _) = wf.extract().unwrap();
        (dag, profile)
    }

    #[test]
    fn chain_latency_close_to_sum_of_stages() {
        let fx = fixture(false);
        let s = fx.estimate(&chain(2.0, None), &fx.plan(2, &[]), 1);
        // Two 2 s stages plus small overheads.
        assert!((4.0..4.6).contains(&s.latency.mean), "{}", s.latency.mean);
        assert!(s.samples >= 200);
    }

    #[test]
    fn offloading_to_clean_region_cuts_carbon() {
        let fx = fixture(false);
        let flow = chain(5.0, None);
        let s_home = fx.estimate(&flow, &fx.plan(2, &[]), 2);
        let ca = [(0, "ca-central-1"), (1, "ca-central-1")];
        let s_ca = fx.estimate(&flow, &fx.plan(2, &ca), 3);
        assert!(s_ca.carbon.mean < s_home.carbon.mean * 0.3);
        // But latency grows (cross-region hops).
        assert!(s_ca.latency.mean > s_home.latency.mean);
    }

    #[test]
    fn conditional_edge_reduces_mean_latency() {
        let fx = fixture(false);
        let s_always = fx.estimate(&chain(3.0, None), &fx.plan(2, &[]), 4);
        let s_rare = fx.estimate(&chain(3.0, Some(0.1)), &fx.plan(2, &[]), 5);
        assert!(s_rare.latency.mean < s_always.latency.mean - 2.0);
        assert!(s_rare.cost.mean < s_always.cost.mean);
    }

    #[test]
    fn sync_node_waits_for_slowest_branch() {
        let fx = fixture(false);
        let s = fx.estimate(&diamond(None), &fx.plan(4, &[]), 6);
        // Critical path = 0.5 + 5.0 + 0.5 plus overheads; the fast branch
        // must not shorten it.
        assert!((5.9..6.8).contains(&s.latency.mean), "{}", s.latency.mean);
    }

    #[test]
    fn transmission_carbon_separated_from_execution() {
        let fx = fixture(false);
        let s = fx.estimate(&chain(1.0, None), &fx.plan(2, &[(1, "us-west-2")]), 7);
        assert!(s.exec_carbon_mean > 0.0);
        assert!(s.trans_carbon_mean > 0.0);
        assert!(
            (s.exec_carbon_mean + s.trans_carbon_mean - s.carbon.mean).abs() / s.carbon.mean < 0.05
        );
    }

    #[test]
    fn estimator_is_deterministic_per_seed() {
        let fx = fixture(false);
        let (flow, plan) = (chain(1.0, None), fx.plan(2, &[]));
        let a = fx.estimate(&flow, &plan, 42);
        assert_eq!(a, fx.estimate(&flow, &plan, 42));
        assert_ne!(a.latency.mean, fx.estimate(&flow, &plan, 43).latency.mean);
    }

    /// A rule that never converges: `max_samples` in batches of `batch`.
    fn capped(batch: usize, max_samples: usize) -> MonteCarloConfig {
        MonteCarloConfig {
            batch,
            max_samples,
            cv_threshold: 0.0,
        }
    }

    #[test]
    fn stopping_rule_caps_at_max_samples() {
        let fx = fixture(false);
        let s = fx.with_estimator(&chain(1.0, None), capped(100, 300), |est| {
            est.estimate(&fx.plan(2, &[]), 0.5, &mut Pcg32::seed(1))
        });
        assert_eq!(s.samples, 300);
    }

    #[test]
    fn node_state_buffers_reused_across_samples() {
        let fx = fixture(false);
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        let s = fx.estimate(&chain(1.0, None), &fx.plan(2, &[]), 8);
        let recorder = caribou_telemetry::finish().unwrap().recorder;
        assert!(s.samples >= 200);
        assert_eq!(s.samples as u64, recorder.counter("montecarlo.samples"));
        // One column set per estimate call, not one per sample.
        assert_eq!(recorder.counter("montecarlo.node_state_allocs"), 3);
    }

    #[test]
    fn buffer_reuse_preserves_per_seed_results() {
        let fx = fixture(true);
        let flow = diamond(Some(0.6));
        let moved = fx.plan(4, &[(2, "us-west-2"), (3, "ca-central-1")]);
        // Conditional skips leave stale state in naive buffer reuse; an
        // estimate on a scratch another plan just used must still agree
        // bit for bit with one on a fresh scratch.
        let fresh = fx.estimate(&flow, &moved, 21);
        fx.with_estimator(&flow, MonteCarloConfig::default(), |est| {
            let mut kept = keep(21);
            estimate_on(est, &fx.plan(4, &[]), 0.5, &mut kept);
            let reused = estimate_on(est, &moved, 0.5, &mut kept);
            assert_eq!(fresh, reused);
        });
    }

    /// `estimate` names its bank by one draw of the caller's generator: the
    /// generator advances by exactly one `next_u64`, so a second call draws
    /// a second bank and estimates the plan afresh.
    #[test]
    fn an_estimate_takes_one_draw_of_its_generator() {
        let fx = fixture(true);
        let plan = fx.plan(4, &[(2, "us-west-2")]);
        fx.with_estimator(&diamond(Some(0.6)), MonteCarloConfig::default(), |est| {
            let (mut rng, mut once) = (Pcg32::seed(5), Pcg32::seed(5));
            let first = est.estimate(&plan, 0.5, &mut rng);
            once.next_u64();
            assert_eq!(rng, once);
            let second = est.estimate(&plan, 0.5, &mut rng);
            once.next_u64();
            assert_eq!(rng, once);
            assert_ne!(first, second);
        });
    }

    #[test]
    fn batched_handles_ragged_tail_batches() {
        let fx = fixture(true);
        let flow = diamond(Some(0.7));
        let plan = fx.plan(4, &[(1, "ca-central-1"), (2, "us-west-2")]);
        // 250 samples in one batch, in five, and in five on a bank another
        // rule left at 200: the same samples, the same sums.
        let whole = fx.with_estimator(&flow, capped(250, 250), |est| {
            est.estimate(&plan, 3.25, &mut Pcg32::seed(9))
        });
        assert_eq!(whole.samples, 250);
        let mut kept = keep(9);
        fx.with_estimator(&flow, capped(200, 200), |est| {
            estimate_on(est, &plan, 3.25, &mut kept)
        });
        fx.with_estimator(&flow, capped(50, 250), |est| {
            assert_eq!(whole, est.estimate(&plan, 3.25, &mut Pcg32::seed(9)));
            let ragged = estimate_on(est, &plan, 3.25, &mut kept);
            assert_eq!(whole, ragged);
        });
    }

    #[test]
    fn scratch_reuse_allocates_node_state_once() {
        let fx = fixture(true);
        let flow = diamond(Some(0.7));
        let plan = fx.plan(4, &[(2, "us-west-2")]);
        fx.with_estimator(&flow, MonteCarloConfig::default(), |est| {
            caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
            let mut kept = keep(11);
            let fresh = est.estimate(&plan, 0.5, &mut Pcg32::seed(11));
            for _ in 0..5 {
                let reused = estimate_on(est, &plan, 0.5, &mut kept);
                assert_eq!(fresh, reused);
            }
            let recorder = caribou_telemetry::finish().unwrap().recorder;
            // One set for the fresh call, one for the kept scratch's first
            // use; the five reuses add nothing — and draw nothing: two
            // banks were filled, the fresh call's and the kept one.
            assert_eq!(recorder.counter("montecarlo.node_state_allocs"), 6);
            assert_eq!(recorder.counter("montecarlo.estimates"), 6);
            let draws = recorder.counter("montecarlo.bank.draws");
            let columns = recorder.counter("montecarlo.bank.columns");
            assert_eq!(draws, columns * fresh.samples as u64);
        });
    }
    /// Default models but for logged history: `Slow`'s execution
    /// (node 2) wherever it runs, and the us-east-1 → us-west-2 transfer.
    struct Logged<'a> {
        base: DefaultModels<'a>,
        exec: Vec<f64>,
        transfer: Vec<f64>,
        route: (RegionId, RegionId),
    }

    impl StageModels for Logged<'_> {
        fn base(&self) -> DefaultModels<'_> {
            self.base.clone()
        }
        fn learned_exec(&self, node: usize, _region: RegionId) -> Option<(&[f64], f64)> {
            (node == 2).then_some((&self.exec, 1.25))
        }
        fn learned_transfer(&self, from: RegionId, to: RegionId) -> Option<&[f64]> {
            ((from, to) == self.route).then_some(&self.transfer)
        }
    }

    /// Every bit an estimate leaves behind on `kept`: its summary, its
    /// record at each boundary, the fold's latency and cost columns, the
    /// carbon column and every derived column of `plan` the bank holds.
    fn trace<M: StageModels>(
        est: &MonteCarloEstimator<'_, TableSource, M>,
        plan: &DeploymentPlan,
        hour: f64,
        (bank, scratch): &mut Kept,
        record: &PlanRecord,
    ) -> (Vec<u64>, PlanRecord) {
        let (summary, grown) = est.estimate_on(plan, hour, bank, scratch, record);
        let record = grown.unwrap_or_else(|| record.clone());
        let mut bits = Vec::new();
        let mut put = |xs: &[f64]| bits.extend(xs.iter().map(|x| x.to_bits()));
        let dists = |d: DistSummary| [d.mean, d.p95, d.std_dev, d.n as f64];
        put(&dists(summary.latency));
        put(&dists(summary.cost));
        put(&dists(summary.carbon));
        put(&[summary.exec_carbon_mean, summary.trans_carbon_mean]);
        let batch = est.config.batch;
        for n in (1..=record.boundaries()).map(|b| b * batch) {
            let (lat, cost) = record.at(n).expect("a boundary");
            put(&dists(lat));
            put(&dists(cost));
        }
        let (lat, cost) = scratch.fold.columns();
        put(lat);
        put(cost);
        put(&scratch.price.carb);
        let bank = bank.bound().expect("the estimate's bank");
        let n = summary.samples;
        let nodes = (0..est.dag.node_count())
            .flat_map(|ni| Derived::site(ni, plan.region_of(NodeId(ni as u32))));
        let edges = (0..est.dag.edge_count()).map(Derived::EdgeGb);
        for col in std::iter::once(Derived::EntryGb).chain(edges).chain(nodes) {
            put(bank.derived(col, n).expect("a folded column"));
        }
        // Each modelled transfer's quotient is its bytes, clamped at zero,
        // over the bandwidth it is read at: checked here against the bytes
        // the bank drew, not pinned, so the bits above stay those of a
        // fold that divided per sample.
        for (site, bw) in modelled(est, plan) {
            let Some(bw) = bw else { continue };
            let bytes = bank.column(site, Prim::Value, 0, n).expect("drawn bytes");
            let q = bank.derived(Derived::quotient(site, bw), n);
            let want: Vec<u64> = bytes.iter().map(|b| (b.max(0.0) / bw).to_bits()).collect();
            let got: Vec<u64> = q.expect("a quotient").iter().map(|q| q.to_bits()).collect();
            assert_eq!(got, want, "{site:?} at {bw} B/s");
        }
        (bits, record)
    }

    /// Each transfer site of `plan` (the entry, then every edge) and the
    /// bandwidth its transfer is modelled at; `None` where `est` picks
    /// from logged history.
    fn modelled<M: StageModels>(
        est: &MonteCarloEstimator<'_, TableSource, M>,
        plan: &DeploymentPlan,
    ) -> Vec<(Site, Option<f64>)> {
        let dag = est.dag;
        let at = |from, to| {
            let bw = est.models.base().latency.bandwidth_bps(from, to);
            est.models
                .learned_transfer(from, to)
                .is_none()
                .then_some(bw)
        };
        let entry = (Site::Entry, at(est.home, plan.region_of(dag.start())));
        let edges = (0..dag.edge_count()).map(|ei| {
            let e = dag.edge(caribou_model::dag::EdgeId(ei as u32));
            (
                Site::Edge(ei),
                at(plan.region_of(e.from), plan.region_of(e.to)),
            )
        });
        std::iter::once(entry).chain(edges).collect()
    }

    /// How many of `plan`'s modelled transfers `bank` holds the quotient
    /// of to `n` samples, and how many it does not.
    fn quotients_held<M: StageModels>(
        est: &MonteCarloEstimator<'_, TableSource, M>,
        plan: &DeploymentPlan,
        n: usize,
        bank: &SharedBank,
    ) -> (usize, usize) {
        let bank = bank.bound().expect("a folded bank");
        let sites = modelled(est, plan).into_iter();
        let held = sites.filter_map(|(site, bw)| {
            let q = Derived::quotient(site, bw?);
            Some(bank.derived(q, n).is_some())
        });
        held.fold((0, 0), |(h, m), held| {
            (h + held as usize, m + !held as usize)
        })
    }

    /// The [`trace`]s of `plan` folded at one hour and re-priced from its
    /// record at another, on one bank.
    fn estimated_twice<M: StageModels>(
        est: &MonteCarloEstimator<'_, TableSource, M>,
        plan: &DeploymentPlan,
        seed: u64,
    ) -> Vec<u64> {
        let mut kept = keep(seed);
        let (mut bits, record) = trace(est, plan, 0.5, &mut kept, &PlanRecord::default());
        bits.extend(trace(est, plan, 13.25, &mut kept, &record).0);
        bits
    }

    /// `flow` with payloads and input that go negative a third of the
    /// time, which the transfers' `.max(0)` clamps (a normal's draw is
    /// clamped already; a uniform's is not).
    fn signed((dag, mut profile): Flow) -> Flow {
        for edge in &mut profile.edges {
            edge.payload_bytes = DistSpec::Uniform {
                lo: -3.0e6,
                hi: 6.0e6,
            };
        }
        profile.input_bytes = DistSpec::Uniform {
            lo: -1.0e5,
            hi: 2.0e5,
        };
        (dag, profile)
    }

    /// A sweep through every kernel the estimator dispatches by vector
    /// level: certain and gated edges, a sync join, external data, learned
    /// picks, skipped nodes, negative bytes, batches no lane width divides,
    /// a ragged tail batch, a re-pricing from a record at another hour, and
    /// neighbours folded on one bank, modelled and learned transfers mixed,
    /// of which the first computes its transfers' quotients and the next
    /// read back those at the bandwidth they agree on. The second element
    /// counts the quotients found held and missing before those folds.
    fn sweep(fx: &Fixture) -> (Vec<u64>, (usize, usize)) {
        let flows = [
            diamond(None),
            diamond(Some(0.45)),
            chain(1.5, Some(0.3)),
            signed(diamond(Some(0.6))),
        ];
        let configs = [
            MonteCarloConfig::default(),
            capped(37, 111),
            capped(250, 250),
        ];
        let mut bits = Vec::new();
        let mut held = (0, 0);
        for (f, flow) in flows.iter().enumerate() {
            let nodes = flow.0.node_count();
            let moved = [(1, "us-west-2"), (2, "us-west-2"), (3, "ca-central-1")];
            let moved = &moved[..nodes - 1];
            let plans = [fx.plan(nodes, &[]), fx.plan(nodes, moved)];
            let base = fx.models(&flow.1);
            let (east, west) = (fx.cat.id_of("us-east-1"), fx.cat.id_of("us-west-2"));
            let logged = Logged {
                base: base.clone(),
                exec: vec![0.7, 1.9, 4.4, 5.1, 6.0],
                transfer: vec![0.021, 0.034, 0.09],
                route: (east.unwrap(), west.unwrap()),
            };
            for (c, &config) in configs.iter().enumerate() {
                for (p, plan) in plans.iter().enumerate() {
                    let seed = (100 * f + 10 * c + p) as u64;
                    bits.extend(estimated_twice(
                        &fx.estimator(flow, &base, config),
                        plan,
                        seed,
                    ));
                    bits.extend(estimated_twice(
                        &fx.estimator(flow, &logged, config),
                        plan,
                        seed,
                    ));
                }
            }
            // A bank another rule left at 200 samples, extended 50 at a
            // time: the fold publishes a ragged tail of each column.
            let (hour, mut kept) = (3.25, keep(9 + f as u64));
            let est = fx.estimator(flow, &base, capped(200, 200));
            estimate_on(&est, &plans[1], hour, &mut kept);
            let est = fx.estimator(flow, &base, capped(50, 250));
            let empty = PlanRecord::default();
            bits.extend(trace(&est, &plans[1], hour, &mut kept, &empty).0);
            // Neighbours on one bank: the moved plan, it with its start node
            // moved too, and the home plan.
            let (hour, mut kept) = (5.5, keep(40 + f as u64));
            let est = fx.estimator(flow, &logged, capped(200, 400));
            let neighbour = fx.plan(nodes, &[moved, &[(0, "us-west-2")]].concat());
            for (k, plan) in [&plans[1], &neighbour, &plans[0]].into_iter().enumerate() {
                if k > 0 {
                    let (h, m) = quotients_held(&est, plan, 400, &kept.0);
                    held = (held.0 + h, held.1 + m);
                }
                bits.extend(trace(&est, plan, hour, &mut kept, &empty).0);
            }
        }
        (bits, held)
    }

    /// A digest (FNV-1a over words) of the bits [`sweep`] collects,
    /// captured on the fold that divided each transfer's bytes by its
    /// bandwidth per sample and resolved the plan's constants into tables.
    const SWEEP_DIGEST: u64 = 0x6e30_b418_dfc8_3765;

    fn digest(bits: &[u64]) -> u64 {
        let fnv = |h: u64, w: &u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        bits.iter().fold(0xcbf2_9ce4_8422_2325, fnv)
    }

    #[test]
    fn every_vector_level_folds_and_prices_the_same_bits() {
        let fx = fixture(true);
        let (base, (held, missing)) = caribou_model::wide::at(Level::Base, || sweep(&fx));
        let skipped = base.iter().filter(|&&b| f64::from_bits(b).is_nan()).count();
        assert!(
            skipped > 0,
            "no sample of the sweep skipped a node or an edge"
        );
        assert!(
            held > 0 && missing > 0,
            "neighbours found {held} quotients held and {missing} missing"
        );
        assert_eq!(digest(&base), SWEEP_DIGEST, "{:#x}", digest(&base));
        for level in caribou_model::wide::levels() {
            let (wide, _) = caribou_model::wide::at(level, || sweep(&fx));
            assert_eq!(wide.len(), base.len(), "{level:?}");
            let first = wide.iter().zip(&base).position(|(a, b)| a != b);
            assert_eq!(
                first, None,
                "{level:?} differs from the baseline at bit pattern"
            );
        }
    }
}
