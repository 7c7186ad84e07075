//! The deployment manifest: the paper's `config.yml` (§8), down to what a
//! deployment reads from it — the workflow's name, its version and its
//! home region.
//!
//! A workflow's objective, QoS tolerances and eligible regions live in one
//! place, [`crate::constraints::Constraints`], which `Caribou::deploy`
//! takes beside the manifest. The manifest is JSON (the workspace's single
//! text format); a key it does not declare is an error, not a setting
//! silently dropped.

use serde_json::{json, ToValue, Value};

use crate::error::ModelError;
use crate::region::{RegionCatalog, RegionId};

/// The deployment manifest configured by the developer (§8).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentManifest {
    /// Workflow name; must match the declared workflow.
    pub workflow_name: String,
    /// Workflow version.
    pub version: String,
    /// Home-region name: the initial deployment region, fallback, and
    /// baseline (§6.1).
    pub home_region: String,
}

/// The keys of a manifest file, each a JSON string.
const KEYS: [&str; 3] = ["workflow_name", "version", "home_region"];

fn invalid(reason: String) -> ModelError {
    ModelError::InvalidConstraint {
        reason: format!("manifest: {reason}"),
    }
}

/// JSON as the object [`DeploymentManifest::from_json`] reads.
impl ToValue for DeploymentManifest {
    fn to_value(&self) -> Value {
        json!({
            "workflow_name": self.workflow_name,
            "version": self.version,
            "home_region": self.home_region,
        })
    }
}

impl DeploymentManifest {
    /// Creates a manifest for the given workflow and home region.
    pub fn new(
        workflow_name: impl Into<String>,
        version: impl Into<String>,
        home_region: impl Into<String>,
    ) -> Self {
        DeploymentManifest {
            workflow_name: workflow_name.into(),
            version: version.into(),
            home_region: home_region.into(),
        }
    }

    /// Parses a manifest from a JSON object holding exactly the three
    /// string keys; an unknown key, a missing key or a value that is not a
    /// string is an error naming the key.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        let value = serde_json::from_str(json).map_err(|e| invalid(format!("parse error: {e}")))?;
        let map = value
            .as_object()
            .ok_or_else(|| invalid("expected a JSON object".into()))?;
        if let Some(key) = map.keys().find(|k| !KEYS.contains(&k.as_str())) {
            return Err(invalid(format!(
                "unknown key `{key}` (a manifest sets {})",
                KEYS.join(", ")
            )));
        }
        let string = |key: &str| match map.get(key) {
            None => Err(invalid(format!("missing key `{key}`"))),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("key `{key}` must be a string"))),
        };
        Ok(DeploymentManifest {
            workflow_name: string("workflow_name")?,
            version: string("version")?,
            home_region: string("home_region")?,
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

    /// Validates the manifest against a catalog.
    pub fn validate(&self, catalog: &RegionCatalog) -> Result<(), ModelError> {
        if self.workflow_name.is_empty() {
            return Err(ModelError::InvalidConstraint {
                reason: "workflow_name must not be empty".into(),
            });
        }
        self.resolve_home(catalog)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(json: &str) -> String {
        DeploymentManifest::from_json(json).unwrap_err().to_string()
    }

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
    fn manifest_parses_minimal_json() {
        let json = r#"{
            "workflow_name": "dna",
            "version": "0.1",
            "home_region": "us-east-1"
        }"#;
        let m = DeploymentManifest::from_json(json).unwrap();
        assert_eq!(m, DeploymentManifest::new("dna", "0.1", "us-east-1"));
    }

    #[test]
    fn manifest_unknown_key_is_named() {
        let err = rejected(
            r#"{"workflow_name": "dna", "version": "0.1", "home_region": "us-east-1",
                "tolerances": {"latency": 0.02}}"#,
        );
        assert!(err.contains("unknown key `tolerances`"), "{err}");
    }

    #[test]
    fn manifest_missing_key_is_named() {
        let err = rejected(r#"{"workflow_name": "dna", "home_region": "us-east-1"}"#);
        assert!(err.contains("missing key `version`"), "{err}");
    }

    #[test]
    fn manifest_non_string_value_is_named() {
        let err = rejected(r#"{"workflow_name": "dna", "version": 1, "home_region": "us-east-1"}"#);
        assert!(err.contains("key `version` must be a string"), "{err}");
        assert!(rejected("[]").contains("expected a JSON object"));
    }
}
