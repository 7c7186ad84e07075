//! The framework's storage layout: the topics, tables and keys a deployed
//! workflow owns, and the one function that gives a region its share.
//!
//! A region's deployment (§6.1 step 2) is one pub/sub topic per workflow
//! node plus two regional KV tables: `caribou-data@{r}` for intermediate
//! payloads and `caribou-sync@{r}` for synchronization-node annotations.
//! The home region additionally holds [`META_TABLE`], where the active
//! plan is published (§6.2). The Deployment Utility, the Migrator and
//! [`crate::engine::ExecutionEngine::provision`] all deploy a region
//! through [`deploy_region`]; the engine names tables and keys through
//! the `set_*` functions, which rewrite a pooled buffer in place.

use std::fmt::Write;

use caribou_model::dag::{EdgeId, NodeId};
use caribou_model::region::RegionId;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::pubsub::TopicKey;

use crate::engine::WorkflowApp;

/// The home-region table holding framework metadata (the active plan).
pub const META_TABLE: &str = "caribou-meta";

/// Deploys a region's topics and tables: one topic per node, the region's
/// data table and its sync table. Idempotent.
pub fn deploy_region(cloud: &mut SimCloud, app: &WorkflowApp, region: RegionId) {
    for node in app.dag.all_nodes() {
        cloud.pubsub.create_topic(TopicKey {
            workflow: app.name.to_string(),
            stage: app.dag.node(node).name.clone(),
            region,
        });
    }
    let mut table = String::new();
    set_data_table(&mut table, region);
    cloud.kv.create_table(table.as_str(), region);
    set_sync_table(&mut table, region);
    cloud.kv.create_table(table, region);
}

/// Rewrites `topic` to `node`'s topic in `region`.
#[inline]
pub fn set_topic(topic: &mut TopicKey, app: &WorkflowApp, node: NodeId, region: RegionId) {
    topic.workflow.clear();
    topic.workflow.push_str(&app.name);
    topic.stage.clear();
    topic.stage.push_str(&app.dag.node(node).name);
    topic.region = region;
}

/// Rewrites `table` to the name of `region`'s intermediate-data table.
#[inline]
pub fn set_data_table(table: &mut String, region: RegionId) {
    table.clear();
    let _ = write!(table, "caribou-data@{}", region.0);
}

/// Rewrites `table` to the name of `region`'s sync-annotation table.
#[inline]
pub fn set_sync_table(table: &mut String, region: RegionId) {
    table.clear();
    let _ = write!(table, "caribou-sync@{}", region.0);
}

/// Rewrites `key` to the [`META_TABLE`] key of a workflow's initial
/// (home) plan, the item the entry wrapper fetches.
#[inline]
pub fn set_plan_key(key: &mut String, workflow: &str) {
    key.clear();
    let _ = write!(key, "plan:{workflow}");
}

/// The [`META_TABLE`] key of a workflow's activated plan set.
pub fn plans_key(workflow: &str) -> String {
    format!("plans:{workflow}")
}

/// Rewrites `key` to the data-table key of one invocation's payload on
/// `edge`.
#[inline]
pub fn set_edge_key(key: &mut String, inv_id: u64, edge: EdgeId) {
    key.clear();
    let _ = write!(key, "inv{inv_id}:e{}", edge.0);
}

/// Rewrites `key` to the sync-table key of one invocation's annotations
/// on synchronization node `node`.
#[inline]
pub fn set_sync_key(key: &mut String, inv_id: u64, node: NodeId) {
    key.clear();
    let _ = write!(key, "inv{inv_id}:n{}", node.0);
}
