//! Developer-facing workflow declaration API.
//!
//! This is the Rust analogue of the paper's Python API (Listing 1): one
//! [`Workflow`] type plus three core operations — registering a serverless
//! function, declaring an invocation (a DAG edge), and declaring
//! predecessor-data consumption (a synchronization node). The paper
//! extracts the DAG from source code by static analysis at initial
//! deployment (§6.1); here the builder records the declarations and
//! [`Workflow::extract_dag`] plays the role of that analysis, including all
//! of its structural validation.
//!
//! # Examples
//!
//! A two-stage pipeline with a region-restricted first stage:
//!
//! ```
//! use caribou_model::builder::Workflow;
//! use caribou_model::constraints::RegionFilter;
//! use caribou_model::region::RegionId;
//!
//! let mut wf = Workflow::new("example", "0.1");
//! let validate = wf
//!     .serverless_function("Validate")
//!     .allowed_regions(RegionFilter::only([RegionId(0)]))
//!     .register();
//! let speak = wf.serverless_function("Text2Speech").register();
//! wf.invoke(validate, speak, None);
//! let dag = wf.extract_dag().unwrap();
//! assert_eq!(dag.node_count(), 2);
//! ```

use crate::constraints::{Constraints, Objective, RegionFilter, Tolerances};
use crate::dag::{Edge, NodeId, NodeMeta, WorkflowDag};
use crate::dist::DistSpec;
use crate::error::ModelError;
use crate::profile::{EdgeProfile, NodeProfile, WorkflowProfile};

/// Handle to a registered serverless function within a [`Workflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionHandle(usize);

#[derive(Debug, Clone)]
struct FunctionDecl {
    name: String,
    source_function: String,
    filter: Option<RegionFilter>,
    profile: NodeProfile,
    consumes_predecessor_data: bool,
}

#[derive(Debug, Clone)]
struct CallDecl {
    from: FunctionHandle,
    to: FunctionHandle,
    /// `None` for an unconditional invocation; `Some(p)` for a conditional
    /// one with learned/declared probability `p`.
    conditional: Option<f64>,
    payload: DistSpec,
}

/// A workflow under declaration.
#[derive(Debug, Clone)]
pub struct Workflow {
    name: String,
    version: String,
    functions: Vec<FunctionDecl>,
    calls: Vec<CallDecl>,
    input: DistSpec,
    workflow_filter: RegionFilter,
}

impl Workflow {
    /// Starts declaring a new workflow.
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Self {
        Workflow {
            name: name.into(),
            version: version.into(),
            functions: Vec::new(),
            calls: Vec::new(),
            input: DistSpec::Constant { value: 0.0 },
            workflow_filter: RegionFilter::any(),
        }
    }

    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workflow version.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Begins registering a serverless function (the analogue of the
    /// `@workflow.serverless_function(...)` decorator).
    pub fn serverless_function(&mut self, name: impl Into<String>) -> FunctionBuilder<'_> {
        let name = name.into();
        FunctionBuilder {
            workflow: self,
            decl: FunctionDecl {
                source_function: name.clone(),
                name,
                filter: None,
                profile: NodeProfile {
                    memory_mb: 1769,
                    exec_time: DistSpec::Constant { value: 1.0 },
                    cpu_utilization: 0.7,
                    external_data_bytes: 0.0,
                },
                consumes_predecessor_data: false,
            },
        }
    }

    /// Declares an invocation edge from `from` to `to` (the analogue of
    /// `invoke_serverless_function`). `conditional` is `None` for an
    /// always-taken edge or `Some(probability)` for a conditional edge.
    ///
    /// Returns a handle for attaching the intermediate-data payload spec.
    pub fn invoke(
        &mut self,
        from: FunctionHandle,
        to: FunctionHandle,
        conditional: Option<f64>,
    ) -> CallBuilder<'_> {
        self.calls.push(CallDecl {
            from,
            to,
            conditional,
            payload: DistSpec::Constant { value: 1024.0 },
        });
        let idx = self.calls.len() - 1;
        CallBuilder {
            workflow: self,
            idx,
        }
    }

    /// Declares that `function` retrieves intermediate data from all of its
    /// predecessors (the analogue of `get_predecessor_data`), marking it as
    /// a synchronization node. Extraction validates that the function
    /// indeed has more than one incoming edge.
    pub fn get_predecessor_data(&mut self, function: FunctionHandle) {
        self.functions[function.0].consumes_predecessor_data = true;
    }

    /// Sets the client input payload distribution delivered to the start
    /// node.
    pub fn set_input(&mut self, input: DistSpec) {
        self.input = input;
    }

    /// Extracts and validates the workflow DAG ("static code analysis",
    /// §6.1).
    ///
    /// Beyond [`WorkflowDag::new`]'s structural checks this enforces the
    /// synchronization contract: every node with more than one incoming
    /// edge must have declared [`Workflow::get_predecessor_data`].
    pub fn extract_dag(&self) -> Result<WorkflowDag, ModelError> {
        let nodes: Vec<NodeMeta> = self
            .functions
            .iter()
            .map(|f| NodeMeta {
                name: f.name.clone(),
                source_function: f.source_function.clone(),
            })
            .collect();
        let edges: Vec<Edge> = self
            .calls
            .iter()
            .map(|c| Edge {
                from: NodeId(c.from.0 as u32),
                to: NodeId(c.to.0 as u32),
                conditional: c.conditional.is_some(),
            })
            .collect();
        let dag = WorkflowDag::new(self.name.clone(), self.version.clone(), nodes, edges)?;
        for n in dag.all_nodes() {
            let decl = &self.functions[n.index()];
            if dag.is_sync_node(n) && !decl.consumes_predecessor_data {
                return Err(ModelError::InvalidConstraint {
                    reason: format!(
                        "function `{}` has multiple predecessors but does not call \
                         get_predecessor_data",
                        decl.name
                    ),
                });
            }
        }
        Ok(dag)
    }

    /// Extracts the resource profile parallel to the extracted DAG.
    pub fn extract_profile(&self) -> Result<WorkflowProfile, ModelError> {
        let dag = self.extract_dag()?;
        let profile = WorkflowProfile {
            nodes: self.functions.iter().map(|f| f.profile.clone()).collect(),
            edges: self
                .calls
                .iter()
                .map(|c| EdgeProfile {
                    payload_bytes: c.payload.clone(),
                    probability: c.conditional.unwrap_or(1.0),
                })
                .collect(),
            input_bytes: self.input.clone(),
        };
        profile.validate(&dag)?;
        Ok(profile)
    }

    /// Extracts the constraint set: the declared per-node filters, with
    /// the default tolerances and objective (a deployment sets its own on
    /// the returned [`Constraints`]).
    pub fn extract_constraints(&self) -> Constraints {
        Constraints {
            workflow: self.workflow_filter.clone(),
            per_node: self.functions.iter().map(|f| f.filter.clone()).collect(),
            tolerances: Tolerances::default(),
            objective: Objective::default(),
        }
    }

    /// Extracts DAG, profile, and constraints in one call.
    pub fn extract(&self) -> Result<(WorkflowDag, WorkflowProfile, Constraints), ModelError> {
        Ok((
            self.extract_dag()?,
            self.extract_profile()?,
            self.extract_constraints(),
        ))
    }
}

/// Builder for one serverless function registration.
#[derive(Debug)]
pub struct FunctionBuilder<'w> {
    workflow: &'w mut Workflow,
    decl: FunctionDecl,
}

impl FunctionBuilder<'_> {
    /// Restricts the regions this function may be deployed to
    /// (function-level data compliance, §8; supersedes the workflow-level
    /// filter).
    pub fn allowed_regions(mut self, filter: RegionFilter) -> Self {
        self.decl.filter = Some(filter);
        self
    }

    /// Declares this stage as belonging to the given source-code function;
    /// several stages may share one source function (§4).
    pub fn stage_of(mut self, source_function: impl Into<String>) -> Self {
        self.decl.source_function = source_function.into();
        self
    }

    /// Sets the configured memory size in MB.
    pub fn memory_mb(mut self, memory_mb: u32) -> Self {
        self.decl.profile.memory_mb = memory_mb;
        self
    }

    /// Sets the execution-time distribution (seconds, reference hardware).
    pub fn exec_time(mut self, dist: DistSpec) -> Self {
        self.decl.profile.exec_time = dist;
        self
    }

    /// Sets the average CPU utilization in `[0, 1]`.
    pub fn cpu_utilization(mut self, utilization: f64) -> Self {
        self.decl.profile.cpu_utilization = utilization;
        self
    }

    /// Sets the bytes of home-region external data accessed per execution.
    pub fn external_data_bytes(mut self, bytes: f64) -> Self {
        self.decl.profile.external_data_bytes = bytes;
        self
    }

    /// Completes the registration, returning the function handle.
    pub fn register(self) -> FunctionHandle {
        self.workflow.functions.push(self.decl);
        FunctionHandle(self.workflow.functions.len() - 1)
    }
}

/// Builder for one declared invocation edge.
#[derive(Debug)]
pub struct CallBuilder<'w> {
    workflow: &'w mut Workflow,
    idx: usize,
}

impl CallBuilder<'_> {
    /// Sets the intermediate-data payload distribution (bytes).
    pub fn payload(self, dist: DistSpec) -> Self {
        self.workflow.calls[self.idx].payload = dist;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain_extracts() {
        let mut wf = Workflow::new("chain", "1.0");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").memory_mb(512).register();
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 2048.0 });
        let (dag, profile, constraints) = wf.extract().unwrap();
        assert_eq!(dag.node_count(), 2);
        assert_eq!(dag.edge_count(), 1);
        assert_eq!(profile.nodes[1].memory_mb, 512);
        assert_eq!(
            profile.edges[0].payload_bytes,
            DistSpec::Constant { value: 2048.0 }
        );
        assert_eq!(constraints.per_node.len(), 2);
    }

    #[test]
    fn sync_without_get_predecessor_data_rejected() {
        let mut wf = Workflow::new("join", "1.0");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        let c = wf.serverless_function("C").register();
        let d = wf.serverless_function("D").register();
        wf.invoke(a, b, None);
        wf.invoke(a, c, None);
        wf.invoke(b, d, None);
        wf.invoke(c, d, None);
        assert!(wf.extract_dag().is_err());
        wf.get_predecessor_data(d);
        assert!(wf.extract_dag().is_ok());
        assert!(wf.extract_dag().unwrap().is_sync_node(NodeId(3)));
    }

    #[test]
    fn conditional_edge_probability_propagates() {
        let mut wf = Workflow::new("cond", "1.0");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        wf.invoke(a, b, Some(0.3));
        let dag = wf.extract_dag().unwrap();
        assert!(dag.has_conditional_edges());
        let profile = wf.extract_profile().unwrap();
        assert!((profile.edges[0].probability - 0.3).abs() < 1e-12);
    }

    #[test]
    fn function_level_filter_recorded() {
        let mut wf = Workflow::new("f", "1.0");
        let a = wf
            .serverless_function("A")
            .allowed_regions(RegionFilter::countries(["US"]))
            .register();
        let b = wf.serverless_function("B").register();
        wf.invoke(a, b, None);
        let c = wf.extract_constraints();
        assert!(c.per_node[0].is_some());
        assert!(c.per_node[1].is_none());
    }

    #[test]
    fn cyclic_declaration_rejected() {
        let mut wf = Workflow::new("cyc", "1.0");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        wf.invoke(a, b, None);
        wf.invoke(b, a, None);
        // `b -> a` would need `a` to be a sync node consumer; mark both so
        // the cycle itself is what gets reported.
        wf.get_predecessor_data(a);
        assert!(wf.extract_dag().is_err());
    }

    #[test]
    fn stage_of_shares_source_function() {
        let mut wf = Workflow::new("stages", "1.0");
        let a = wf
            .serverless_function("Resize_1")
            .stage_of("resize")
            .register();
        let b = wf
            .serverless_function("Resize_2")
            .stage_of("resize")
            .register();
        wf.invoke(a, b, None);
        let dag = wf.extract_dag().unwrap();
        assert_eq!(dag.node(NodeId(0)).source_function, "resize");
        assert_eq!(dag.node(NodeId(1)).source_function, "resize");
        assert_ne!(dag.node(NodeId(0)).name, dag.node(NodeId(1)).name);
    }

    #[test]
    fn objective_and_tolerances_recorded() {
        let mut wf = Workflow::new("o", "1.0");
        wf.serverless_function("A").register();
        let c = wf.extract_constraints();
        assert_eq!(c.objective, Objective::Carbon);
        assert_eq!(c.tolerances, Tolerances::default());
    }
}
