//! Error types for workflow-model operations.

use std::fmt;

use crate::region::Provider;

/// Errors produced when constructing or validating workflow models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The extracted workflow graph contains a cycle, which the DAG
    /// representation of §4 cannot express.
    CyclicWorkflow {
        /// A function name participating in the cycle.
        function: String,
    },
    /// The workflow has no start node (every node has a predecessor).
    NoStartNode,
    /// The workflow has more than one start node; Caribou only considers
    /// workflows with exactly one entry point (§4).
    MultipleStartNodes {
        /// Names of the offending entry nodes.
        nodes: Vec<String>,
    },
    /// A node is unreachable from the start node.
    UnreachableNode {
        /// Name of the unreachable node.
        node: String,
    },
    /// An edge refers to a node that was never registered.
    UnknownNode {
        /// The unknown node's name or index rendering.
        node: String,
    },
    /// A duplicate edge between the same pair of nodes was declared.
    DuplicateEdge {
        /// Source node name.
        from: String,
        /// Destination node name.
        to: String,
    },
    /// A function name was registered twice.
    DuplicateFunction {
        /// The duplicated name.
        name: String,
    },
    /// The workflow is empty.
    EmptyWorkflow,
    /// A constraint or manifest field failed validation.
    InvalidConstraint {
        /// Human-readable reason.
        reason: String,
    },
    /// A deployment plan does not cover every node or names an unknown
    /// region.
    InvalidPlan {
        /// Human-readable reason.
        reason: String,
    },
    /// A region name could not be resolved against the catalog.
    UnknownRegion {
        /// The unresolved region name.
        name: String,
    },
    /// A distribution specification has invalid parameters.
    InvalidDistribution {
        /// Human-readable reason.
        reason: String,
    },
    /// A bare region name matches regions under more than one provider;
    /// the caller must qualify it (`provider:name`).
    AmbiguousRegion {
        /// The ambiguous bare name.
        name: String,
        /// Providers that each have a region of this name.
        providers: Vec<Provider>,
    },
    /// A provider prefix or `--providers` entry was not recognized.
    UnknownProvider {
        /// The unrecognized provider label.
        name: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::CyclicWorkflow { function } => {
                write!(f, "workflow call graph is cyclic (via `{function}`)")
            }
            ModelError::NoStartNode => write!(f, "workflow has no start node"),
            ModelError::MultipleStartNodes { nodes } => {
                write!(f, "workflow has multiple start nodes: {nodes:?}")
            }
            ModelError::UnreachableNode { node } => {
                write!(f, "node `{node}` is unreachable from the start node")
            }
            ModelError::UnknownNode { node } => write!(f, "unknown node `{node}`"),
            ModelError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge `{from}` -> `{to}`")
            }
            ModelError::DuplicateFunction { name } => {
                write!(f, "function `{name}` registered twice")
            }
            ModelError::EmptyWorkflow => write!(f, "workflow has no functions"),
            ModelError::InvalidConstraint { reason } => {
                write!(f, "invalid constraint: {reason}")
            }
            ModelError::InvalidPlan { reason } => write!(f, "invalid deployment plan: {reason}"),
            ModelError::UnknownRegion { name } => write!(f, "unknown region `{name}`"),
            ModelError::InvalidDistribution { reason } => {
                write!(f, "invalid distribution: {reason}")
            }
            ModelError::AmbiguousRegion { name, providers } => {
                let names: Vec<String> = providers.iter().map(|p| p.to_string()).collect();
                write!(
                    f,
                    "region name `{name}` is ambiguous across providers ({}); \
                     qualify it as `provider:{name}`",
                    names.join(", ")
                )
            }
            ModelError::UnknownProvider { name } => write!(f, "unknown provider `{name}`"),
        }
    }
}

impl std::error::Error for ModelError {}
