//! The Deployment Utility: initial deployment (§6.1).
//!
//! Packages the workflow into a container image, deploys it to the
//! developer-defined home region, and uploads the framework metadata:
//!
//! 1. static analysis extracts the workflow DAG (done by the builder's
//!    [`caribou_model::builder::Workflow::extract`]);
//! 2. the image is pushed to the home-region registry, and one pub/sub
//!    topic per function is created;
//! 3. metadata (the active plan — initially the home plan) is uploaded to
//!    the distributed key-value store.

use std::collections::HashSet;

use caribou_exec::engine::WorkflowApp;
use caribou_exec::layout;
use caribou_exec::router::InvocationRouter;
use caribou_model::error::ModelError;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::plan::HourlyPlans;
use caribou_model::region::RegionId;
use caribou_simcloud::cloud::SimCloud;

use crate::error::CoreError;

/// Default packaged image size: a Python Lambda image with scientific
/// dependencies is a few hundred MB.
pub const DEFAULT_IMAGE_BYTES: f64 = 280e6;

/// A deployed workflow's control-plane state.
#[derive(Debug)]
pub struct DeployedWorkflow {
    /// The application (DAG, profile, home region).
    pub app: WorkflowApp,
    /// Container image reference.
    pub image: String,
    /// Regions with a complete deployment (image + topics).
    pub active_regions: HashSet<RegionId>,
    /// Traffic router (active plan set + benchmarking traffic).
    pub router: InvocationRouter,
    /// A solved plan set awaiting (re-)rollout: the Migrator "periodically
    /// retries the rollout of any non-activated DP until it is replaced by
    /// a new one" (§6.1).
    pub pending: Option<HourlyPlans>,
}

/// The Deployment Utility.
#[derive(Debug, Default)]
pub struct DeploymentUtility;

impl DeploymentUtility {
    /// Deploys a workflow for the first time to its home region.
    pub fn deploy_initial(
        cloud: &mut SimCloud,
        app: WorkflowApp,
        manifest: &DeploymentManifest,
    ) -> Result<DeployedWorkflow, CoreError> {
        manifest.validate(&cloud.regions)?;
        let home = manifest.resolve_home(&cloud.regions)?;
        if home != app.home {
            return Err(ModelError::InvalidConstraint {
                reason: format!(
                    "manifest home region {} is not the application's home region {}",
                    manifest.home_region,
                    cloud.regions.get(app.home).map_or("?", |s| s.name.as_str())
                ),
            }
            .into());
        }
        let image = format!("{}:{}", app.name, app.dag.version());

        // Step 2: image push, one topic per function, and the framework
        // tables.
        let push = cloud
            .registry
            .push(image.clone(), DEFAULT_IMAGE_BYTES, home);
        cloud.clock.advance_by(push.duration_s);
        layout::deploy_region(cloud, &app, home);
        cloud.kv.create_table(layout::META_TABLE, home);

        // Step 3: upload metadata — the initial (home) plan.
        let router = InvocationRouter::new(home, app.dag.node_count());
        let plan_json =
            serde_json::to_vec(&router.home_plan()).expect("plan serialization is infallible");
        cloud.kv.put_if_absent(
            layout::META_TABLE,
            &layout::plan_key(&app.name),
            bytes::Bytes::from(plan_json),
            home,
        );

        let mut active_regions = HashSet::new();
        active_regions.insert(home);
        Ok(DeployedWorkflow {
            app,
            image,
            active_regions,
            router,
            pending: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_model::builder::Workflow;
    use caribou_simcloud::pubsub::TopicKey;

    fn app(cloud: &SimCloud) -> WorkflowApp {
        let mut wf = Workflow::new("wf", "0.1");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        wf.invoke(a, b, None);
        let (dag, profile, _) = wf.extract().unwrap();
        WorkflowApp {
            name: "wf".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        }
    }

    #[test]
    fn initial_deploy_creates_all_resources() {
        let mut cloud = SimCloud::aws(1);
        let app = app(&cloud);
        let home = app.home;
        let manifest = DeploymentManifest::new("wf", "0.1", "us-east-1");
        let dep = DeploymentUtility::deploy_initial(&mut cloud, app, &manifest).unwrap();

        assert!(cloud.registry.has_replica("wf:0.1", home));
        for stage in ["A", "B"] {
            let topic = TopicKey {
                workflow: "wf".into(),
                stage: stage.into(),
                region: home,
            };
            assert!(cloud.pubsub.topic_id(&topic).is_some());
        }
        assert!(cloud.kv.peek(layout::META_TABLE, "plan:wf").is_some());
        assert!(dep.active_regions.contains(&home));
        assert!(dep.pending.is_none());
        assert!(cloud.clock.now() > 0.0, "image push takes time");
    }

    #[test]
    fn bad_manifest_rejected() {
        let mut cloud = SimCloud::aws(2);
        let app = app(&cloud);
        let manifest = DeploymentManifest::new("wf", "0.1", "narnia-1");
        assert!(DeploymentUtility::deploy_initial(&mut cloud, app, &manifest).is_err());
    }

    #[test]
    fn manifest_homed_elsewhere_is_an_error_not_a_panic() {
        let mut cloud = SimCloud::aws(4);
        let app = app(&cloud);
        let manifest = DeploymentManifest::new("wf", "0.1", "ca-central-1");
        let err = DeploymentUtility::deploy_initial(&mut cloud, app, &manifest).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Model(ModelError::InvalidConstraint { ref reason })
                    if reason.contains("ca-central-1")
            ),
            "{err}"
        );
    }

    #[test]
    fn router_starts_with_home_plan() {
        let mut cloud = SimCloud::aws(3);
        let app = app(&cloud);
        let home = app.home;
        let manifest = DeploymentManifest::new("wf", "0.1", "us-east-1");
        let mut dep = DeploymentUtility::deploy_initial(&mut cloud, app, &manifest).unwrap();
        let d = dep.router.route(0.0);
        assert!(d.plan.is_single_region());
        assert_eq!(d.plan.region_of(caribou_model::dag::NodeId(0)), home);
    }
}
