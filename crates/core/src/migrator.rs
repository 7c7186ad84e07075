//! The Deployment Migrator: automated cross-regional re-deployment (§6.1).
//!
//! Given a freshly solved plan set, the Migrator determines which regions
//! need a function deployment, replays the deployment steps there — IAM
//! role, crane image copy from the home region (no rebuild), topic
//! creation — and activates the plan by updating the KV metadata only once
//! *every* deployment succeeded. "If any function re-deployment fails,
//! the framework defaults to the home region deployment"; the failed plan
//! is retained and retried on later ticks until replaced.

use caribou_exec::layout;
use caribou_model::manifest::IamPolicy;
use caribou_model::plan::HourlyPlans;
use caribou_model::region::RegionId;
use caribou_simcloud::cloud::SimCloud;

use crate::error::CoreError;
use crate::utility::DeployedWorkflow;

/// Summary of one migration attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Regions that received a new deployment in this attempt.
    pub newly_deployed: Vec<RegionId>,
    /// Total crane-copy egress bytes.
    pub egress_bytes: f64,
    /// Total wall-clock of the migration, seconds.
    pub duration_s: f64,
    /// Whether the plan set was activated.
    pub activated: bool,
}

/// The Deployment Migrator.
#[derive(Debug, Default)]
pub struct Migrator;

impl Migrator {
    /// Attempts to roll out `plans`, activating them on success. On any
    /// failure the router keeps (or reverts to) the home deployment and
    /// the plan set is stored in `workflow.pending` for retry.
    pub fn rollout(
        cloud: &mut SimCloud,
        workflow: &mut DeployedWorkflow,
        plans: HourlyPlans,
        now_s: f64,
    ) -> Result<MigrationReport, CoreError> {
        let needed = plans.regions_used();
        let home = workflow.app.home;
        let mut report = MigrationReport {
            newly_deployed: Vec::new(),
            egress_bytes: 0.0,
            duration_s: 0.0,
            activated: false,
        };
        // Contingency guard: refuse to start a rollout into a region the
        // fault plan already marks as down — the crane copies would be
        // wasted on a region that cannot come up. The plan set is
        // retained so `retry_pending` can pick it up once the window
        // closes. (Outages that *begin* mid-rollout are still surfaced
        // as `DeploymentFailed` by the per-region check below.)
        for &region in &needed {
            if workflow.active_regions.contains(&region) {
                continue;
            }
            if cloud.faults.region_down(region, now_s) {
                let until_s = cloud.faults.down_until(region, now_s).unwrap_or(now_s);
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::event_at(
                        now_s,
                        "migrator.refused",
                        format!("{}@r{}", workflow.app.name, region.0),
                        until_s,
                    );
                }
                workflow.pending = Some(plans);
                return Err(CoreError::RegionUnavailable { region, until_s });
            }
        }
        let mut rng = cloud.rng.fork(0x4d16);
        for region in needed {
            if workflow.active_regions.contains(&region) {
                continue;
            }
            // Fault injection: region outage or stochastic deploy failure.
            if cloud
                .faults
                .deploy_fails(region, now_s + report.duration_s, &mut rng)
            {
                if caribou_telemetry::is_enabled() {
                    // The §6.1 fallback: failed rollout, traffic stays home.
                    caribou_telemetry::event_at(
                        now_s,
                        "migrator.rollback",
                        format!("{}@r{}", workflow.app.name, region.0),
                        0.0,
                    );
                }
                workflow.pending = Some(plans);
                // The regions deployed before the failure stay deployed
                // (and in `active_regions`), so the retry only copies
                // images to the regions that are still missing. The
                // partial report keeps the billing account consistent.
                return Err(CoreError::DeploymentFailed {
                    region,
                    stage: workflow.app.name.to_string(),
                    partial: Box::new(report),
                });
            }
            // Replay step 2 in the new region: IAM role, crane copy,
            // topics, framework tables.
            let policy = cloud
                .iam
                .policy(&workflow.app.name, home)
                .cloned()
                .unwrap_or_else(IamPolicy::caribou_default);
            cloud
                .iam
                .put_role(workflow.app.name.clone(), region, policy);
            let copy = cloud
                .registry
                .crane_copy(&workflow.image, home, region, &cloud.latency, &mut rng)
                .ok_or_else(|| CoreError::ImageMissing {
                    image: workflow.image.clone(),
                })?;
            report.egress_bytes += copy.egress_bytes;
            report.duration_s += copy.duration_s;
            cloud.meter.record_transfer(home, region, copy.egress_bytes);
            layout::deploy_region(cloud, &workflow.app, region);
            workflow.active_regions.insert(region);
            report.newly_deployed.push(region);
        }

        // Activate: update the KV metadata and the router atomically (the
        // paper flips the value in the distributed KV store). The
        // superseded plan set is collected first — unbilled, like every
        // other garbage collection — so the one billed conditional write
        // always lands and the table holds one plan set per workflow
        // however many rollouts there were.
        let plan_json = serde_json::to_vec(&plans).expect("plan serialization is infallible");
        let key = layout::plans_key(&workflow.app.name);
        cloud.kv.reclaim(layout::META_TABLE, &key);
        cloud.kv.put_if_absent(
            layout::META_TABLE,
            &key,
            bytes::Bytes::from(plan_json),
            home,
        );
        workflow.router.activate(plans);
        workflow.pending = None;
        report.activated = true;
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::event_at(
                now_s,
                "migrator.migration",
                &workflow.app.name,
                report.newly_deployed.len() as f64,
            );
            caribou_telemetry::count(
                "migrator.regions_deployed",
                report.newly_deployed.len() as u64,
            );
        }
        Ok(report)
    }

    /// Retries a pending (previously failed) rollout, if any.
    pub fn retry_pending(
        cloud: &mut SimCloud,
        workflow: &mut DeployedWorkflow,
        now_s: f64,
    ) -> Option<Result<MigrationReport, CoreError>> {
        let plans = workflow.pending.take()?;
        if plans.expired(now_s) {
            // An expired plan is worthless; drop it (traffic is already
            // routed home). The drop is observable so operators can tell
            // "plan replaced" apart from "plan silently abandoned".
            if caribou_telemetry::is_enabled() {
                caribou_telemetry::event_at(
                    now_s,
                    "migrator.plan_expired",
                    &workflow.app.name,
                    plans.expires_at,
                );
            }
            return None;
        }
        Some(Self::rollout(cloud, workflow, plans, now_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::DeploymentUtility;
    use caribou_exec::engine::WorkflowApp;
    use caribou_model::builder::Workflow;
    use caribou_model::manifest::DeploymentManifest;
    use caribou_model::plan::DeploymentPlan;
    use caribou_simcloud::faults::FaultPlan;

    fn deployed(cloud: &mut SimCloud) -> DeployedWorkflow {
        let mut wf = Workflow::new("wf", "0.1");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        wf.invoke(a, b, None);
        let (dag, profile, _) = wf.extract().unwrap();
        let app = WorkflowApp {
            name: "wf".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        };
        let manifest = DeploymentManifest::new("wf", "0.1", "us-east-1");
        DeploymentUtility::deploy_initial(cloud, app, &manifest).unwrap()
    }

    fn plans_using(region: RegionId, expires: f64) -> HourlyPlans {
        HourlyPlans::hourly(
            (0..24)
                .map(|_| DeploymentPlan::uniform(2, region))
                .collect(),
            0.0,
            expires,
        )
    }

    #[test]
    fn rollout_deploys_and_activates() {
        let mut cloud = SimCloud::aws(1);
        let mut wf = deployed(&mut cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        let report = Migrator::rollout(&mut cloud, &mut wf, plans_using(ca, 1e9), 10.0).unwrap();
        assert!(report.activated);
        assert_eq!(report.newly_deployed, vec![ca]);
        assert!(report.egress_bytes > 0.0, "crane copy charges egress");
        assert!(cloud.iam.role_exists("wf", ca));
        assert!(cloud.registry.has_replica("wf:0.1", ca));
        assert!(wf.router.has_active_plan(10.0));
        assert!(wf.active_regions.contains(&ca));
    }

    #[test]
    fn repeated_rollouts_keep_one_plan_set_in_the_metadata_table() {
        let mut cloud = SimCloud::aws(2);
        let mut wf = deployed(&mut cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        let items = cloud.kv.len();
        // Two rollouts share a timestamp, as a contingency table's
        // fallbacks and its primary do: the last activated set is kept.
        for (expires, now_s) in [(1e9, 10.0), (2e9, 20.0), (3e9, 20.0), (4e9, 3600.0)] {
            Migrator::rollout(&mut cloud, &mut wf, plans_using(ca, expires), now_s).unwrap();
            assert_eq!(
                cloud.kv.len(),
                items + 1,
                "one plan set, not one per rollout"
            );
            let stored = cloud.kv.peek(layout::META_TABLE, "plans:wf").unwrap();
            assert_eq!(
                stored.as_ref(),
                serde_json::to_vec(wf.router.active_plans().unwrap()).unwrap()
            );
        }
    }

    #[test]
    fn second_rollout_to_same_region_copies_nothing() {
        let mut cloud = SimCloud::aws(2);
        let mut wf = deployed(&mut cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        Migrator::rollout(&mut cloud, &mut wf, plans_using(ca, 1e9), 10.0).unwrap();
        let report = Migrator::rollout(&mut cloud, &mut wf, plans_using(ca, 2e9), 20.0).unwrap();
        assert!(report.activated);
        assert!(report.newly_deployed.is_empty());
        assert_eq!(report.egress_bytes, 0.0);
    }

    #[test]
    fn failed_rollout_falls_back_home_and_retains_pending() {
        let mut cloud = SimCloud::aws(3);
        let mut wf = deployed(&mut cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        cloud.set_faults(FaultPlan::none().with_outage(ca, 0.0, 1000.0));
        // The outage is already known at rollout time, so the Migrator
        // refuses up front with the typed error.
        let err = Migrator::rollout(&mut cloud, &mut wf, plans_using(ca, 1e9), 10.0);
        assert!(matches!(
            err,
            Err(CoreError::RegionUnavailable { region, until_s })
                if region == ca && until_s == 1000.0
        ));
        assert!(!wf.router.has_active_plan(10.0), "traffic stays home");
        assert!(wf.pending.is_some(), "plan retained for retry");
        // After the outage, the retry succeeds.
        let retry = Migrator::retry_pending(&mut cloud, &mut wf, 2000.0).unwrap();
        assert!(retry.is_ok());
        assert!(wf.router.has_active_plan(2000.0));
    }

    #[test]
    fn expired_pending_plan_is_dropped() {
        let mut cloud = SimCloud::aws(4);
        let mut wf = deployed(&mut cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        cloud.set_faults(FaultPlan::none().with_outage(ca, 0.0, 1000.0));
        let _ = Migrator::rollout(&mut cloud, &mut wf, plans_using(ca, 500.0), 10.0);
        assert!(wf.pending.is_some());
        // The plan expired during the outage.
        assert!(Migrator::retry_pending(&mut cloud, &mut wf, 2000.0).is_none());
        assert!(wf.pending.is_none());
    }

    #[test]
    fn retry_with_no_pending_is_noop() {
        let mut cloud = SimCloud::aws(5);
        let mut wf = deployed(&mut cloud);
        assert!(Migrator::retry_pending(&mut cloud, &mut wf, 0.0).is_none());
    }

    fn plans_split(a: RegionId, b: RegionId, expires: f64) -> HourlyPlans {
        let mut plan = DeploymentPlan::uniform(2, a);
        plan.set(caribou_model::dag::NodeId(1), b);
        HourlyPlans::hourly((0..24).map(|_| plan.clone()).collect(), 0.0, expires)
    }

    #[test]
    fn failed_rollout_reports_partial_progress() {
        let mut cloud = SimCloud::aws(6);
        let mut wf = deployed(&mut cloud);
        let west = cloud.region("us-west-1").unwrap();
        let ca = cloud.region("ca-central-1").unwrap();
        // regions_used() is sorted, so us-west-1 (2) deploys before
        // ca-central-1 (4) — and an outage *opens mid-rollout* on the
        // latter (west's crane copy pushes the clock past 10.5 s), so
        // the up-front guard passes and the failure is a mid-rollout
        // DeploymentFailed with partial progress.
        cloud.set_faults(FaultPlan::none().with_outage(ca, 10.5, 1000.0));
        let err = Migrator::rollout(&mut cloud, &mut wf, plans_split(west, ca, 1e9), 10.0);
        let Err(CoreError::DeploymentFailed {
            region, partial, ..
        }) = err
        else {
            panic!("expected DeploymentFailed");
        };
        assert_eq!(region, ca);
        assert_eq!(partial.newly_deployed, vec![west]);
        assert!(partial.egress_bytes > 0.0, "west crane copy was billed");
        assert!(!partial.activated);
        assert!(wf.active_regions.contains(&west), "west stays deployed");
    }

    #[test]
    fn retry_after_partial_failure_does_not_recopy_images() {
        let mut cloud = SimCloud::aws(7);
        let mut wf = deployed(&mut cloud);
        let west = cloud.region("us-west-1").unwrap();
        let ca = cloud.region("ca-central-1").unwrap();
        cloud.set_faults(FaultPlan::none().with_outage(ca, 10.5, 1000.0));
        let _ = Migrator::rollout(&mut cloud, &mut wf, plans_split(west, ca, 1e9), 10.0);
        // Outage over: the retry deploys only the region that failed.
        let retry = Migrator::retry_pending(&mut cloud, &mut wf, 2000.0)
            .expect("pending plan retained")
            .expect("retry succeeds");
        assert_eq!(retry.newly_deployed, vec![ca], "west is not re-deployed");
        assert!(retry.activated);
        assert!(wf.router.has_active_plan(2000.0));
    }

    #[test]
    fn rollout_refused_into_known_outage_does_no_work() {
        let mut cloud = SimCloud::aws(9);
        let mut wf = deployed(&mut cloud);
        let west = cloud.region("us-west-1").unwrap();
        let ca = cloud.region("ca-central-1").unwrap();
        cloud.set_faults(FaultPlan::none().with_outage(ca, 0.0, 1000.0));
        // Even though west (deployed first in region order) is healthy,
        // the up-front sweep refuses before any crane copy is billed.
        let err = Migrator::rollout(&mut cloud, &mut wf, plans_split(west, ca, 1e9), 10.0);
        assert!(matches!(
            err,
            Err(CoreError::RegionUnavailable { region, .. }) if region == ca
        ));
        assert!(!wf.active_regions.contains(&west), "no partial deploys");
        assert!(!cloud.registry.has_replica("wf:0.1", west));
        assert!(wf.pending.is_some(), "plan retained for retry");
        // Window closed: retry now deploys both regions.
        let retry = Migrator::retry_pending(&mut cloud, &mut wf, 2000.0)
            .expect("pending plan retained")
            .expect("retry succeeds");
        assert_eq!(retry.newly_deployed, vec![west, ca]);
        assert!(retry.activated);
    }

    #[test]
    fn refused_rollout_emits_refusal_event() {
        caribou_telemetry::enable(Box::new(caribou_telemetry::MemorySink::default()));
        let mut cloud = SimCloud::aws(10);
        let mut wf = deployed(&mut cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        cloud.set_faults(FaultPlan::none().with_outage(ca, 0.0, 700.0));
        let _ = Migrator::rollout(&mut cloud, &mut wf, plans_using(ca, 1e9), 10.0);
        let finished = caribou_telemetry::finish().expect("session active");
        let sink = finished
            .sink
            .as_any()
            .downcast_ref::<caribou_telemetry::MemorySink>()
            .unwrap();
        let refusals: Vec<_> = sink
            .events
            .iter()
            .filter(|e| e.kind == "migrator.refused")
            .collect();
        assert_eq!(refusals.len(), 1);
        assert_eq!(refusals[0].value, 700.0, "records the window end");
    }

    #[test]
    fn expired_pending_drop_emits_telemetry_event() {
        caribou_telemetry::enable(Box::new(caribou_telemetry::MemorySink::default()));
        let mut cloud = SimCloud::aws(8);
        let mut wf = deployed(&mut cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        cloud.set_faults(FaultPlan::none().with_outage(ca, 0.0, 1000.0));
        let _ = Migrator::rollout(&mut cloud, &mut wf, plans_using(ca, 500.0), 10.0);
        assert!(Migrator::retry_pending(&mut cloud, &mut wf, 2000.0).is_none());
        let finished = caribou_telemetry::finish().expect("session active");
        let sink = finished
            .sink
            .as_any()
            .downcast_ref::<caribou_telemetry::MemorySink>()
            .unwrap();
        let drop_events: Vec<_> = sink
            .events
            .iter()
            .filter(|e| e.kind == "migrator.plan_expired")
            .collect();
        assert_eq!(drop_events.len(), 1);
        assert_eq!(drop_events[0].label, "wf");
        assert_eq!(drop_events[0].value, 500.0, "records the expiry time");
    }
}
