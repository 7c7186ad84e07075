//! The deployment manifest: the paper's `config.yml` + `iam_policy.json`.
//!
//! Developers configure workflow-level objectives, tolerances, the home
//! region, and eligible regions/providers in the manifest (§8). The
//! manifest is serialized as JSON (the workspace's single text format) and
//! validated against the region catalog before the initial deployment.

use serde::{Deserialize, Serialize};

use crate::constraints::{Objective, RegionFilter, Tolerances};
use crate::error::ModelError;
use crate::region::{Provider, RegionCatalog, RegionId};

/// One IAM policy statement (deliberately minimal: the simulated IAM only
/// checks that a role exists per function deployment region, as in §6.1
/// step 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IamStatement {
    /// Action pattern, e.g. `sns:Publish`.
    pub action: String,
    /// Resource pattern, e.g. `arn:aws:sns:*:*:caribou-*`.
    pub resource: String,
}

/// The IAM policy attached to every per-region role of the workflow.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IamPolicy {
    /// Policy statements.
    pub statements: Vec<IamStatement>,
}

impl IamPolicy {
    /// The minimal policy Caribou functions need: pub/sub publish, KV
    /// read/write, and log emission.
    pub fn caribou_default() -> Self {
        let stmt = |action: &str, resource: &str| IamStatement {
            action: action.to_string(),
            resource: resource.to_string(),
        };
        IamPolicy {
            statements: vec![
                stmt("sns:Publish", "arn:aws:sns:*:*:caribou-*"),
                stmt("dynamodb:GetItem", "arn:aws:dynamodb:*:*:table/caribou-*"),
                stmt("dynamodb:PutItem", "arn:aws:dynamodb:*:*:table/caribou-*"),
                stmt(
                    "dynamodb:UpdateItem",
                    "arn:aws:dynamodb:*:*:table/caribou-*",
                ),
                stmt("logs:PutLogEvents", "*"),
            ],
        }
    }
}

/// The deployment manifest configured by the developer (§8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentManifest {
    /// Workflow name; must match the declared workflow.
    pub workflow_name: String,
    /// Workflow version.
    pub version: String,
    /// Home-region name: the initial deployment region, fallback, and
    /// baseline (§6.1).
    pub home_region: String,
    /// Workflow-level region/provider eligibility.
    #[serde(default)]
    pub regions_and_providers: ManifestRegions,
    /// QoS tolerances versus the home-region deployment.
    #[serde(default)]
    pub tolerances: Tolerances,
    /// Optimization priority.
    #[serde(default)]
    pub objective: Objective,
    /// IAM policy attached to every per-region role.
    #[serde(default)]
    pub iam_policy: IamPolicy,
}

/// Workflow-level eligible/prohibited regions and providers, by name.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ManifestRegions {
    /// Eligible region names; empty means "all regions considered" (§8).
    #[serde(default)]
    pub allowed_regions: Vec<String>,
    /// Prohibited region names.
    #[serde(default)]
    pub disallowed_regions: Vec<String>,
    /// Eligible providers; empty means all.
    #[serde(default)]
    pub allowed_providers: Vec<Provider>,
    /// Eligible country codes; empty means all.
    #[serde(default)]
    pub allowed_countries: Vec<String>,
}

impl DeploymentManifest {
    /// Creates a manifest with defaults for the given workflow and home
    /// region.
    pub fn new(
        workflow_name: impl Into<String>,
        version: impl Into<String>,
        home_region: impl Into<String>,
    ) -> Self {
        DeploymentManifest {
            workflow_name: workflow_name.into(),
            version: version.into(),
            home_region: home_region.into(),
            regions_and_providers: ManifestRegions::default(),
            tolerances: Tolerances::default(),
            objective: Objective::Carbon,
            iam_policy: IamPolicy::caribou_default(),
        }
    }

    /// Parses a manifest from JSON.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        serde_json::from_str(json).map_err(|e| ModelError::InvalidConstraint {
            reason: format!("manifest parse error: {e}"),
        })
    }

    /// Serializes the manifest to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization is infallible")
    }

    /// Resolves the home region against a catalog.
    pub fn resolve_home(&self, catalog: &RegionCatalog) -> Result<RegionId, ModelError> {
        catalog.resolve(&self.home_region)
    }

    /// Builds the workflow-level [`RegionFilter`] from the manifest,
    /// resolving region names against the catalog.
    pub fn region_filter(&self, catalog: &RegionCatalog) -> Result<RegionFilter, ModelError> {
        let resolve_all = |names: &[String]| -> Result<Vec<RegionId>, ModelError> {
            names.iter().map(|n| catalog.resolve(n)).collect()
        };
        Ok(RegionFilter {
            allowed_regions: resolve_all(&self.regions_and_providers.allowed_regions)?,
            disallowed_regions: resolve_all(&self.regions_and_providers.disallowed_regions)?,
            allowed_providers: self.regions_and_providers.allowed_providers.clone(),
            disallowed_providers: Vec::new(),
            allowed_countries: self.regions_and_providers.allowed_countries.clone(),
        })
    }

    /// Validates the manifest against a catalog.
    pub fn validate(&self, catalog: &RegionCatalog) -> Result<(), ModelError> {
        if self.workflow_name.is_empty() {
            return Err(ModelError::InvalidConstraint {
                reason: "workflow_name must not be empty".into(),
            });
        }
        self.resolve_home(catalog)?;
        self.region_filter(catalog)?;
        self.tolerances.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_json_round_trip() {
        let m = DeploymentManifest::new("text2speech", "0.1", "us-east-1");
        let json = m.to_json();
        let back = DeploymentManifest::from_json(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn manifest_validates_against_catalog() {
        let cat = RegionCatalog::aws_default();
        let mut m = DeploymentManifest::new("wf", "0.1", "us-east-1");
        assert!(m.validate(&cat).is_ok());
        m.home_region = "nowhere-1".into();
        assert!(m.validate(&cat).is_err());
    }

    #[test]
    fn manifest_region_filter_resolves_names() {
        let cat = RegionCatalog::aws_default();
        let mut m = DeploymentManifest::new("wf", "0.1", "us-east-1");
        m.regions_and_providers.allowed_regions = vec!["us-east-1".into(), "ca-central-1".into()];
        let f = m.region_filter(&cat).unwrap();
        assert!(f.permits(cat.id_of("us-east-1").unwrap(), &cat));
        assert!(!f.permits(cat.id_of("us-west-1").unwrap(), &cat));
    }

    #[test]
    fn manifest_unknown_allowed_region_rejected() {
        let cat = RegionCatalog::aws_default();
        let mut m = DeploymentManifest::new("wf", "0.1", "us-east-1");
        m.regions_and_providers.allowed_regions = vec!["moon-base-1".into()];
        assert!(m.validate(&cat).is_err());
    }

    #[test]
    fn manifest_parses_minimal_json() {
        let json = r#"{
            "workflow_name": "dna",
            "version": "0.1",
            "home_region": "us-east-1"
        }"#;
        let m = DeploymentManifest::from_json(json).unwrap();
        assert_eq!(m.workflow_name, "dna");
        assert!(m.regions_and_providers.allowed_regions.is_empty());
        assert!((m.tolerances.latency - 0.05).abs() < 1e-12);
    }

    #[test]
    fn default_iam_policy_covers_framework_services() {
        let p = IamPolicy::caribou_default();
        let actions: Vec<&str> = p.statements.iter().map(|s| s.action.as_str()).collect();
        assert!(actions.contains(&"sns:Publish"));
        assert!(actions.iter().any(|a| a.starts_with("dynamodb:")));
    }
}
