//! The framework's storage layout: the topics, tables and keys a deployed
//! workflow owns, the one function that gives a region its share, and the
//! address book through which the engine reaches them.
//!
//! A region's deployment (§6.1 step 2) is one pub/sub topic per workflow
//! node plus two regional KV tables: `caribou-data@{r}` for intermediate
//! payloads and `caribou-sync@{r}` for synchronization-node annotations.
//! The home region additionally holds [`META_TABLE`], where the active
//! plan is published (§6.2). The Deployment Utility, the Migrator and
//! [`crate::engine::ExecutionEngine::provision`] all deploy a region
//! through [`deploy_region`].
//!
//! Names are for deploying and for inspection. An invocation addresses
//! the substrate by handle: its per-invocation items are numeric
//! ([`ItemAddr::new`]: slot = edge id in a data table, node id in a sync
//! table), and the topics, tables, warm-pool slots and the plan item it
//! needs are resolved from their names once, into an [`AddressBook`].

use std::fmt;

use caribou_model::dag::{EdgeId, NodeId};
use caribou_model::dist::{DistSpec, PreparedDist, PreparedSpec};
use caribou_model::intern::IStr;
use caribou_model::region::RegionId;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::kv::{ItemAddr, KvStore, TableId};
use caribou_simcloud::pubsub::{PubSub, TopicId, TopicKey};
use caribou_simcloud::warm::{WarmPool, WarmSlot};

use crate::engine::WorkflowApp;

/// The home-region table holding framework metadata (the active plan).
pub const META_TABLE: &str = "caribou-meta";

/// Deploys a region's topics and tables: one topic per node, the region's
/// data table and its sync table. Idempotent.
pub fn deploy_region(cloud: &mut SimCloud, app: &WorkflowApp, region: RegionId) {
    for node in app.dag.all_nodes() {
        cloud.pubsub.create_topic(topic_key(app, node, region));
    }
    cloud.kv.create_table(data_table(region), region);
    cloud.kv.create_table(sync_table(region), region);
}

/// `node`'s topic in `region`.
fn topic_key(app: &WorkflowApp, node: NodeId, region: RegionId) -> TopicKey {
    TopicKey {
        workflow: app.name.to_string(),
        stage: app.dag.node(node).name.clone(),
        region,
    }
}

/// The name of `region`'s intermediate-data table.
fn data_table(region: RegionId) -> String {
    format!("caribou-data@{}", region.0)
}

/// The name of `region`'s sync-annotation table.
fn sync_table(region: RegionId) -> String {
    format!("caribou-sync@{}", region.0)
}

/// The [`META_TABLE`] key of a workflow's initial (home) plan, the item
/// the entry wrapper fetches.
pub fn plan_key(workflow: &str) -> String {
    format!("plan:{workflow}")
}

/// The [`META_TABLE`] key of a workflow's activated plan set.
pub fn plans_key(workflow: &str) -> String {
    format!("plans:{workflow}")
}

/// What the telemetry journal calls one invocation's annotation item on
/// synchronization node `node`; rendered only while a session records.
pub(crate) struct SyncLabel {
    pub inv_id: u64,
    pub node: NodeId,
}

impl fmt::Display for SyncLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inv{}:n{}", self.inv_id, self.node.0)
    }
}

/// A region's two tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegionTables {
    pub data: TableId,
    pub sync: TableId,
}

/// The engine's resolved addresses, dense over `(region × node)` so that
/// any plan, failover override or benchmarking detour indexes it without
/// a lookup, and the app's drawn distributions with their log-normal
/// locations taken once. Addresses are filled by name on first use and
/// bound to the services and the workflow they were resolved for; the
/// distributions are bound to the profile. [`AddressBook::bind`] starts
/// either over when what it was bound to differs, so a pooled book never
/// serves a stale address or a stale median.
#[derive(Debug, Default)]
pub(crate) struct AddressBook {
    /// `(pubsub, kv, warm pool)` namespaces the entries were issued under.
    services: Option<(u64, u64, u64)>,
    /// The workflow the topic and warm entries name: its name and stage
    /// names.
    workflow: IStr,
    stages: Vec<String>,
    /// Region-major `regions × stages.len()`. A topic that does not exist
    /// stays `None` and is looked up again next time: deploying the
    /// region later (the Migrator's rollout) needs no invalidation.
    topics: Vec<Option<TopicId>>,
    /// Region-major `regions × stages.len()`, issued on first use.
    warm: Vec<Option<WarmSlot>>,
    /// Per region. Tables are never dropped and a re-homed table keeps
    /// its handle, so an entry holds for the store's lifetime.
    tables: Vec<Option<RegionTables>>,
    plan: Option<ItemAddr>,
    /// The input size, then each node's execution time, then each edge's
    /// payload size.
    draws: Vec<PreparedSpec>,
}

/// The profile's distributions in [`AddressBook::draws`] order.
fn drawn(app: &WorkflowApp) -> impl Iterator<Item = &DistSpec> {
    let p = &app.profile;
    let exec = p.nodes.iter().map(|n| &n.exec_time);
    let payload = p.edges.iter().map(|e| &e.payload_bytes);
    std::iter::once(&p.input_bytes).chain(exec).chain(payload)
}

impl AddressBook {
    /// Binds the book to `cloud`'s services and to `app`, forgetting
    /// every address when it was bound to others, and every prepared
    /// distribution when the profile's differ.
    pub fn bind(&mut self, cloud: &SimCloud, app: &WorkflowApp) {
        if !self.draws.iter().map(PreparedSpec::spec).eq(drawn(app)) {
            self.draws = drawn(app).cloned().map(PreparedSpec::new).collect();
        }
        let services = Some((
            cloud.pubsub.namespace(),
            cloud.kv.namespace(),
            cloud.warm.namespace(),
        ));
        let stages = || app.dag.all_nodes().map(|n| &app.dag.node(n).name);
        if self.services == services && self.workflow == app.name && self.stages.iter().eq(stages())
        {
            return;
        }
        self.services = services;
        self.workflow = app.name.clone();
        self.stages = stages().cloned().collect();
        let cells = cloud.regions.len() * self.stages.len();
        self.topics.clear();
        self.topics.resize(cells, None);
        self.warm.clear();
        self.warm.resize(cells, None);
        self.tables.clear();
        self.tables.resize(cloud.regions.len(), None);
        self.plan = None;
    }

    /// The input size distribution.
    pub fn input(&self) -> PreparedDist<'_> {
        self.draws[0].get()
    }

    /// `node`'s execution time distribution.
    pub fn exec(&self, node: NodeId) -> PreparedDist<'_> {
        self.draws[1 + node.index()].get()
    }

    /// `edge`'s payload size distribution.
    pub fn payload(&self, edge: EdgeId) -> PreparedDist<'_> {
        self.draws[1 + self.stages.len() + edge.index()].get()
    }

    /// `node`'s topic in `region`, or the name that resolves to no topic.
    pub fn topic(
        &mut self,
        pubsub: &PubSub,
        app: &WorkflowApp,
        node: NodeId,
        region: RegionId,
    ) -> Result<TopicId, TopicKey> {
        let entry = &mut self.topics[region.index() * self.stages.len() + node.index()];
        if let Some(topic) = *entry {
            return Ok(topic);
        }
        let key = topic_key(app, node, region);
        *entry = pubsub.topic_id(&key);
        entry.ok_or(key)
    }

    /// `node`'s warm-pool slot in `region`.
    pub fn warm_slot(
        &mut self,
        warm: &mut WarmPool,
        app: &WorkflowApp,
        node: NodeId,
        region: RegionId,
    ) -> WarmSlot {
        *self.warm[region.index() * self.stages.len() + node.index()]
            .get_or_insert_with(|| warm.slot(&app.name, node.0, region))
    }

    /// `region`'s data and sync tables. A region that was never deployed
    /// has them unhomed, as naming them would.
    pub fn tables(&mut self, kv: &mut KvStore, region: RegionId) -> RegionTables {
        *self.tables[region.index()].get_or_insert_with(|| RegionTables {
            data: kv.table(&data_table(region)),
            sync: kv.table(&sync_table(region)),
        })
    }

    /// The item holding `app`'s initial plan.
    pub fn plan_item(&mut self, kv: &mut KvStore, app: &WorkflowApp) -> ItemAddr {
        *self.plan.get_or_insert_with(|| {
            let meta = kv.table(META_TABLE);
            kv.named_item(meta, &plan_key(&app.name))
        })
    }
}
