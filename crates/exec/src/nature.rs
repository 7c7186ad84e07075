//! What an invocation does not choose.
//!
//! The engine executes whatever the plan and the cloud decide (§6.1–6.2).
//! What neither decides, the engine asks of one [`Nature`], a type
//! parameter of [`crate::ExecutionEngine::invoke`]:
//!
//! * **Verdicts**, asked at each dispatch (the publish's delivery), at each
//!   pick-up (a region outage, then a cold-start storm) and at each
//!   failover's home check. Every verdict is asked with the cloud's fault
//!   plan and the time it reads that plan at: the invocation's start for a
//!   publish, as for the table operations; the node's own time for a
//!   pick-up and a failover (DESIGN.md "Two fault time bases").
//! * **Draws**, one method per primitive the estimator's draw bank names:
//!   the input and payload sizes, the setup and transition overheads, the
//!   cold-start chance, the conditional gate, and the execution (the exec
//!   factor and a cold start's penalty). Each names its site, the node or
//!   edge whose column a bank would serve.
//!
//! Every method's body is today's behaviour: the cloud's plan read at the
//! time given, and draws from [`Nature::legs`]. [`Pcg32`] is the default
//! nature: it names itself as that generator, so `invoke(.., &mut rng)`
//! runs these bodies, monomorphised, in the order the engine asks them. A
//! test nature holds its own generator and overrides the answers it
//! scripts.
//!
//! What the simulated services draw for themselves stays on
//! [`Nature::legs`]: the pub/sub, KV and blob latencies (a KV throttle
//! included) and the transfer legs. The estimator models none of them;
//! they are the terms a replay of the draw bank names per site.

use caribou_model::dag::{EdgeId, NodeId};
use caribou_model::dist::PreparedDist;
use caribou_model::profile::NodeProfile;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use caribou_simcloud::compute::{ExecutionRecord, LambdaRuntime};
use caribou_simcloud::faults::FaultPlan;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::pubsub::Delivery;

/// The verdicts and draws of one invocation (see the module docs).
pub trait Nature {
    /// The generator the simulated services draw their own latencies from,
    /// and every default draw below.
    fn legs(&mut self) -> &mut Pcg32;

    /// The delivery of one publish of `node`'s invocation message:
    /// `publish` runs pub/sub's delivery under a fault plan read at a
    /// time, here the cloud's `faults` at `at_s`.
    fn delivery(
        &mut self,
        _node: NodeId,
        faults: &FaultPlan,
        at_s: f64,
        publish: impl FnOnce(&FaultPlan, f64, &mut Pcg32) -> Delivery,
    ) -> Delivery {
        publish(faults, at_s, self.legs())
    }

    /// Whether `region` is down at `at_s`, when `node`'s message is to be
    /// picked up there.
    fn down_at_pick_up(
        &mut self,
        _node: NodeId,
        region: RegionId,
        faults: &FaultPlan,
        at_s: f64,
    ) -> bool {
        faults.region_down(region, at_s)
    }

    /// Whether `home` is down at `at_s`, when `node` is to fail over there.
    fn down_at_failover(
        &mut self,
        _node: NodeId,
        home: RegionId,
        faults: &FaultPlan,
        at_s: f64,
    ) -> bool {
        faults.region_down(home, at_s)
    }

    /// Whether a cold-start storm forces `node`'s start in `region` cold
    /// at `at_s`.
    fn storm_at_pick_up(
        &mut self,
        _node: NodeId,
        region: RegionId,
        faults: &FaultPlan,
        at_s: f64,
    ) -> bool {
        faults.cold_storm(region, at_s)
    }

    /// The client's input size in bytes.
    fn input_size(&mut self, input: PreparedDist<'_>) -> f64 {
        input.sample(self.legs())
    }

    /// The entry wrapper's setup overhead in seconds.
    fn setup_s(&mut self, orchestrator: Orchestrator) -> f64 {
        orchestrator.sample_setup_s(self.legs())
    }

    /// Whether `node` starts cold in `region` under the compute model's
    /// cold-start chance `prob` (the warm pool off).
    fn cold_start(&mut self, _node: NodeId, _region: RegionId, prob: f64) -> bool {
        self.legs().chance(prob)
    }

    /// One execution of `node` in `region`, its reference execution time
    /// prepared as `exec`: the exec factor and, when `cold`, the region's
    /// cold-start penalty ([`LambdaRuntime::execute_forced`]).
    fn execution(
        &mut self,
        _node: NodeId,
        compute: &LambdaRuntime,
        region: RegionId,
        exec: PreparedDist<'_>,
        profile: &NodeProfile,
        cold: bool,
    ) -> ExecutionRecord {
        let (memory_mb, cpu) = (profile.memory_mb, profile.cpu_utilization);
        compute.execute_forced(region, exec, memory_mb, cpu, cold, self.legs())
    }

    /// Whether conditional edge `edge`, taken with probability `prob`,
    /// fires.
    fn taken(&mut self, _edge: EdgeId, prob: f64) -> bool {
        self.legs().chance(prob)
    }

    /// The intermediate payload's size in bytes on a taken `edge`.
    fn payload_size(&mut self, _edge: EdgeId, payload: PreparedDist<'_>) -> f64 {
        payload.sample(self.legs())
    }

    /// One transition overhead in seconds.
    fn transition_s(&mut self, orchestrator: Orchestrator) -> f64 {
        orchestrator.sample_transition_s(self.legs())
    }
}

/// The default nature: the cloud's fault plan and this generator.
impl Nature for Pcg32 {
    #[inline]
    fn legs(&mut self) -> &mut Pcg32 {
        self
    }
}
