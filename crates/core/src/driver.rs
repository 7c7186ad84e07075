//! The invocation driver: the one place an invocation is driven.
//!
//! The paper routes every invocation the same way (§6.1–6.2): the plan
//! for the hour (every tenth request pinned home as benchmarking traffic,
//! home fallback when the plan set expired or a breaker is open), the
//! execution, the outcome fed back. `simulate`, `chaos`, `chaos
//! --correlated` and `loadgen` drive every invocation through the two
//! functions below; nothing else in this crate calls the router or the
//! execution engine. The per-invocation RNG stays a parameter (the three
//! callers' seed derivations are golden-pinned streams), as do the engine
//! (`Caribou` builds it from fields a manager tick does not touch) and
//! the loop and fold around the step — see DESIGN.md "Invocation driver".

use caribou_carbon::source::CarbonDataSource;
use caribou_exec::engine::{ExecutionEngine, InvocationScratch, WorkflowApp};
use caribou_exec::outcome::ExecutionOutcome;
use caribou_exec::router::RouteDecision;
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;

use crate::utility::DeployedWorkflow;

/// Drives one invocation of `app` under `plan` arriving at `at_s`: the
/// cloud's clock advances to the arrival (so journal events carry sim
/// time) and the engine executes on the caller's pooled `scratch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<S: CarbonDataSource>(
    engine: &ExecutionEngine<'_, S>,
    cloud: &mut SimCloud,
    app: &WorkflowApp,
    plan: &DeploymentPlan,
    scratch: &mut InvocationScratch,
    inv_id: u64,
    at_s: f64,
    rng: &mut Pcg32,
) -> ExecutionOutcome {
    if at_s > cloud.clock.now() {
        cloud.clock.advance_to(at_s);
    }
    engine.invoke_with_scratch(cloud, app, plan, inv_id, at_s, rng, scratch)
}

/// Drives one invocation of a deployed workflow through its router:
/// [`drive`] under the routed plan, the log stamped as benchmarking
/// traffic when it was, and the outcome fed back into the router's
/// per-region circuit breaker.
pub(crate) fn drive_routed<S: CarbonDataSource>(
    engine: &ExecutionEngine<'_, S>,
    cloud: &mut SimCloud,
    workflow: &mut DeployedWorkflow,
    scratch: &mut InvocationScratch,
    inv_id: u64,
    at_s: f64,
    rng: &mut Pcg32,
) -> (RouteDecision, ExecutionOutcome) {
    let decision = workflow.router.route(at_s);
    let mut outcome = drive(
        engine,
        cloud,
        &workflow.app,
        &decision.plan,
        scratch,
        inv_id,
        at_s,
        rng,
    );
    outcome.log.benchmark_traffic = decision.benchmark_traffic;
    workflow
        .router
        .record_outcome(&decision.plan, outcome.failed_region, at_s);
    (decision, outcome)
}
