//! ECR-like container registry with crane-style cross-region image copy.
//!
//! The Deployment Utility packages source code into Docker images and
//! pushes them to the registry of each deployment region (§6.1). For
//! re-deployments, the Migrator uses a crane-style copy from the home
//! region's registry to the new region instead of rebuilding — the model
//! charges the transfer time and egress bytes of that copy.

use std::collections::{HashMap, HashSet};

use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

use crate::latency::LatencyModel;

/// Outcome of a registry transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistryTransfer {
    /// Duration of the operation in seconds.
    pub duration_s: f64,
    /// Egress bytes charged to the source region (zero for initial pushes,
    /// which originate from the developer's machine).
    pub egress_bytes: f64,
}

/// One container image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageInfo {
    /// Image size in bytes.
    pub size_bytes: f64,
}

/// The container registry service.
#[derive(Debug, Default)]
pub struct ContainerRegistry {
    images: HashMap<String, ImageInfo>,
    /// `(image, region)` presence set.
    replicas: HashSet<(String, RegionId)>,
    /// Service-side overhead of a push or copy into each region, seconds
    /// (providers differ).
    overhead_s: Vec<f64>,
}

impl ContainerRegistry {
    /// Creates an empty registry with one service overhead per catalog
    /// region.
    pub fn new(overhead_s: Vec<f64>) -> Self {
        ContainerRegistry {
            overhead_s,
            ..Default::default()
        }
    }

    /// The service overhead charged for transfers into a region.
    pub fn overhead_for(&self, region: RegionId) -> f64 {
        self.overhead_s[region.index()]
    }

    /// Pushes a freshly built image into `region` (initial deployment,
    /// §6.1 step 2). Upload bandwidth is the region's ingress path from
    /// the developer; ingress is free, so no egress bytes are charged.
    pub fn push(
        &mut self,
        image: impl Into<String>,
        size_bytes: f64,
        region: RegionId,
    ) -> RegistryTransfer {
        let image = image.into();
        self.images.insert(image.clone(), ImageInfo { size_bytes });
        self.replicas.insert((image, region));
        // Developer uplink of ~50 MB/s.
        RegistryTransfer {
            duration_s: self.overhead_for(region) + size_bytes / 50.0e6,
            egress_bytes: 0.0,
        }
    }

    /// Copies an image between regional registries using crane (§6.1
    /// Re-Deployment), charging inter-region transfer time and egress.
    ///
    /// Returns `None` when the image is not present in `from`.
    pub fn crane_copy(
        &mut self,
        image: &str,
        from: RegionId,
        to: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> Option<RegistryTransfer> {
        if !self.replicas.contains(&(image.to_string(), from)) {
            return None;
        }
        let info = self.images.get(image)?.clone();
        if self.replicas.contains(&(image.to_string(), to)) {
            // Already replicated; crane's manifest check is cheap.
            return Some(RegistryTransfer {
                duration_s: 0.5,
                egress_bytes: 0.0,
            });
        }
        let transfer = latency.sample_transfer_seconds(from, to, info.size_bytes, rng);
        self.replicas.insert((image.to_string(), to));
        Some(RegistryTransfer {
            duration_s: self.overhead_for(to) + transfer,
            egress_bytes: info.size_bytes,
        })
    }

    /// Whether an image replica exists in a region.
    pub fn has_replica(&self, image: &str, region: RegionId) -> bool {
        self.replicas.contains(&(image.to_string(), region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::RegionCatalog;

    fn setup() -> (RegionCatalog, LatencyModel, ContainerRegistry, Pcg32) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.latency, cloud.registry, Pcg32::seed(1))
    }

    #[test]
    fn push_registers_replica() {
        let (cat, _lm, mut reg, _rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let t = reg.push("wf:1", 250e6, r);
        assert!(t.duration_s > reg.overhead_for(r));
        assert_eq!(t.egress_bytes, 0.0);
        assert!(reg.has_replica("wf:1", r));
    }

    #[test]
    fn crane_copy_charges_egress() {
        let (cat, lm, mut reg, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        reg.push("wf:1", 250e6, east);
        let t = reg.crane_copy("wf:1", east, west, &lm, &mut rng).unwrap();
        assert_eq!(t.egress_bytes, 250e6);
        assert!(t.duration_s > 1.0);
        assert!(reg.has_replica("wf:1", west));
    }

    #[test]
    fn crane_copy_missing_source_fails() {
        let (cat, lm, mut reg, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        assert!(reg.crane_copy("wf:1", east, west, &lm, &mut rng).is_none());
    }

    #[test]
    fn crane_copy_idempotent_when_replica_exists() {
        let (cat, lm, mut reg, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        reg.push("wf:1", 250e6, east);
        reg.crane_copy("wf:1", east, west, &lm, &mut rng).unwrap();
        let again = reg.crane_copy("wf:1", east, west, &lm, &mut rng).unwrap();
        assert_eq!(again.egress_bytes, 0.0);
        assert!(again.duration_s < 1.0);
    }
}
