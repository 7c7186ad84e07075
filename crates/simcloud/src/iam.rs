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
    fn missing_role_denies() {
        // A missing role grants nothing: there is no policy to read.
        let iam = Iam::new();
        assert!(!iam.role_exists("wf", RegionId(0)));
        assert!(iam.policy("wf", RegionId(0)).is_none());
    }
}
