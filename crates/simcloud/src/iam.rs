//! Per-region IAM role management (§6.1 step 2).
//!
//! The paper attaches one IAM role per function deployment region. The
//! simulated IAM tracks role existence and the attached policy so the
//! Deployment Utility and Migrator can be exercised end-to-end, including
//! the failure path where a role is missing.

use std::collections::HashMap;

use caribou_model::manifest::IamPolicy;
use caribou_model::region::RegionId;

/// Key of a role: one per (workflow, region).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RoleKey {
    /// Workflow name the role belongs to.
    pub workflow: String,
    /// Deployment region.
    pub region: RegionId,
}

/// The IAM service.
#[derive(Debug, Default)]
pub struct Iam {
    roles: HashMap<RoleKey, IamPolicy>,
}

impl Iam {
    /// Creates the service with no roles.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates or updates the role for a workflow in a region.
    pub fn put_role(&mut self, workflow: impl Into<String>, region: RegionId, policy: IamPolicy) {
        self.roles.insert(
            RoleKey {
                workflow: workflow.into(),
                region,
            },
            policy,
        );
    }

    /// Whether the role exists.
    pub fn role_exists(&self, workflow: &str, region: RegionId) -> bool {
        self.roles.contains_key(&RoleKey {
            workflow: workflow.to_string(),
            region,
        })
    }

    /// Returns the policy of a role.
    pub fn policy(&self, workflow: &str, region: RegionId) -> Option<&IamPolicy> {
        self.roles.get(&RoleKey {
            workflow: workflow.to_string(),
            region,
        })
    }

    /// Checks that a role permits an action (prefix match on the action
    /// pattern, e.g. `sns:Publish` matches `sns:*`).
    pub fn allows(&self, workflow: &str, region: RegionId, action: &str) -> bool {
        self.policy(workflow, region)
            .map(|p| {
                p.statements.iter().any(|s| {
                    s.action == action
                        || s.action
                            .strip_suffix('*')
                            .is_some_and(|prefix| action.starts_with(prefix))
                })
            })
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_lifecycle() {
        let mut iam = Iam::new();
        let r = RegionId(0);
        assert!(!iam.role_exists("wf", r));
        iam.put_role("wf", r, IamPolicy::caribou_default());
        assert!(iam.role_exists("wf", r));
    }

    #[test]
    fn allows_exact_action() {
        let mut iam = Iam::new();
        let r = RegionId(1);
        iam.put_role("wf", r, IamPolicy::caribou_default());
        assert!(iam.allows("wf", r, "sns:Publish"));
        assert!(!iam.allows("wf", r, "s3:PutObject"));
    }

    #[test]
    fn allows_wildcard_action() {
        use caribou_model::manifest::{IamPolicy, IamStatement};
        let mut iam = Iam::new();
        let r = RegionId(2);
        iam.put_role(
            "wf",
            r,
            IamPolicy {
                statements: vec![IamStatement {
                    action: "dynamodb:*".into(),
                    resource: "*".into(),
                }],
            },
        );
        assert!(iam.allows("wf", r, "dynamodb:GetItem"));
        assert!(!iam.allows("wf", r, "sns:Publish"));
    }

    #[test]
    fn missing_role_denies() {
        let iam = Iam::new();
        assert!(!iam.allows("wf", RegionId(0), "sns:Publish"));
    }
}
