//! Cloud regions, providers, and the region catalog.
//!
//! Regions are referred to by compact [`RegionId`] indices everywhere in the
//! workspace; the [`RegionCatalog`] maps indices to rich [`RegionSpec`]
//! metadata (provider, location, grid zone). The default catalog contains
//! the public AWS North American regions studied in the paper plus a few
//! global regions used by examples and tests.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::ModelError;

/// A cloud service provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Provider {
    /// Amazon Web Services (the provider the paper evaluates on).
    Aws,
    /// Google Cloud Platform.
    Gcp,
    /// Microsoft Azure.
    Azure,
}

impl Provider {
    /// All providers, in catalog order.
    pub const ALL: [Provider; 3] = [Provider::Aws, Provider::Gcp, Provider::Azure];

    /// Parses a lowercase provider label (`aws`, `gcp`, `azure`).
    pub fn parse(label: &str) -> Result<Provider, ModelError> {
        match label {
            "aws" => Ok(Provider::Aws),
            "gcp" => Ok(Provider::Gcp),
            "azure" => Ok(Provider::Azure),
            other => Err(ModelError::UnknownProvider { name: other.into() }),
        }
    }

    /// This provider's bit in a [`ProviderSet`] mask.
    pub fn bit(self) -> u8 {
        match self {
            Provider::Aws => 1 << 0,
            Provider::Gcp => 1 << 1,
            Provider::Azure => 1 << 2,
        }
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provider::Aws => write!(f, "aws"),
            Provider::Gcp => write!(f, "gcp"),
            Provider::Azure => write!(f, "azure"),
        }
    }
}

/// A compact, copyable set of providers (one bit per [`Provider`]).
///
/// Used to parameterize clouds, campaigns, and CLI runs: the default
/// [`ProviderSet::aws_only`] is the paper's evaluation substrate, and
/// `ProviderSet::parse("aws,gcp")` opens the cross-provider plan space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProviderSet(u8);

impl ProviderSet {
    /// The empty set.
    pub fn empty() -> Self {
        ProviderSet(0)
    }

    /// The default single-provider set: AWS only.
    pub fn aws_only() -> Self {
        ProviderSet(Provider::Aws.bit())
    }

    /// A set from an explicit provider list.
    pub fn of(providers: &[Provider]) -> Self {
        ProviderSet(providers.iter().fold(0, |m, p| m | p.bit()))
    }

    /// Parses a comma-separated list, e.g. `aws,gcp`.
    pub fn parse(spec: &str) -> Result<Self, ModelError> {
        let mut mask = 0u8;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            mask |= Provider::parse(part)?.bit();
        }
        if mask == 0 {
            return Err(ModelError::UnknownProvider { name: spec.into() });
        }
        Ok(ProviderSet(mask))
    }

    /// Whether the set contains `provider`.
    pub fn contains(self, provider: Provider) -> bool {
        self.0 & provider.bit() != 0
    }

    /// Whether this is exactly the AWS-only set.
    pub fn is_aws_only(self) -> bool {
        self == ProviderSet::aws_only()
    }

    /// Members in catalog order (AWS first).
    pub fn iter(self) -> impl Iterator<Item = Provider> {
        Provider::ALL.into_iter().filter(move |p| self.contains(*p))
    }

    /// Number of member providers.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw bitmask (bit layout per [`Provider::bit`]).
    pub fn mask(self) -> u8 {
        self.0
    }
}

impl Default for ProviderSet {
    fn default() -> Self {
        ProviderSet::aws_only()
    }
}

impl fmt::Display for ProviderSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        Ok(())
    }
}

/// A provider-qualified region name: the canonical cross-provider way to
/// refer to a region, rendered `provider:name` (e.g. `aws:us-east-1`,
/// `gcp:us-east1`). Bare names stay valid only while unambiguous.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderRegion {
    /// The provider operating the region.
    pub provider: Provider,
    /// The provider-scoped region name.
    pub name: String,
}

impl fmt::Display for ProviderRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.provider, self.name)
    }
}

/// A compact index identifying a region within a [`RegionCatalog`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RegionId(pub u16);

impl RegionId {
    /// Returns the catalog index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Full metadata for one cloud region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Provider-scoped region name, e.g. `us-east-1`.
    pub name: String,
    /// The provider operating this region.
    pub provider: Provider,
    /// ISO country code the datacenter resides in; used for data-residency
    /// compliance constraints (GDPR/HIPAA/PIPEDA in §2.3).
    pub country: String,
    /// Electrical-grid zone identifier (Electricity-Maps-style), e.g.
    /// `US-MIDA-PJM` or `CA-QC`.
    pub grid_zone: String,
    /// Latitude in degrees, used for great-circle latency estimates.
    pub latitude: f64,
    /// Longitude in degrees.
    pub longitude: f64,
}

/// The four AWS regions used in the paper's evaluation (§9.1).
pub const AWS_EVALUATION_REGIONS: [&str; 4] =
    ["us-east-1", "us-west-1", "us-west-2", "ca-central-1"];

/// An ordered collection of regions addressable by [`RegionId`].
#[derive(Debug, Clone, Default)]
pub struct RegionCatalog {
    regions: Vec<RegionSpec>,
}

impl RegionCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the default catalog of AWS public regions used in the paper's
    /// evaluation plus additional global regions for examples.
    ///
    /// The first six entries are the North American regions of Fig. 2; the
    /// four regions used throughout §9 (`us-east-1`, `us-west-1`,
    /// `us-west-2`, `ca-central-1`) can be selected via
    /// [`RegionCatalog::evaluation_regions`].
    pub fn aws_default() -> Self {
        let mut cat = Self::new();
        let rows: [(&str, &str, &str, f64, f64); 10] = [
            ("us-east-1", "US", "US-MIDA-PJM", 38.95, -77.45),
            ("us-east-2", "US", "US-MIDA-PJM", 40.0, -83.0),
            ("us-west-1", "US", "US-CAL-CISO", 37.35, -121.95),
            ("us-west-2", "US", "US-NW-PACW", 45.85, -119.7),
            ("ca-central-1", "CA", "CA-QC", 45.5, -73.6),
            ("ca-west-1", "CA", "CA-AB", 51.05, -114.05),
            ("eu-west-1", "IE", "IE", 53.35, -6.25),
            ("eu-central-1", "DE", "DE", 50.1, 8.7),
            ("ap-southeast-2", "AU", "AU-NSW", -33.85, 151.2),
            ("sa-east-1", "BR", "BR-CS", -23.55, -46.65),
        ];
        for (name, country, grid, lat, lon) in rows {
            cat.push(RegionSpec {
                name: name.to_string(),
                provider: Provider::Aws,
                country: country.to_string(),
                grid_zone: grid.to_string(),
                latitude: lat,
                longitude: lon,
            });
        }
        cat
    }

    /// Builds a multi-cloud catalog: the AWS regions of
    /// [`RegionCatalog::aws_default`] plus a set of GCP regions. Regions of
    /// different providers on the same electrical grid (e.g. AWS
    /// `us-west-2` and GCP `us-west1`, both on the Pacific Northwest grid)
    /// automatically share carbon intensity — the multi-cloud flavour of
    /// §2.1's observation.
    pub fn multi_cloud() -> Self {
        let mut cat = Self::aws_default();
        let rows: [(&str, &str, &str, f64, f64); 5] = [
            ("us-central1", "US", "US-MIDW-MISO", 41.3, -95.9),
            ("us-west1", "US", "US-NW-PACW", 45.6, -121.2),
            ("northamerica-northeast1", "CA", "CA-QC", 45.5, -73.6),
            ("europe-west1", "BE", "BE", 50.5, 3.8),
            ("europe-north1", "FI", "FI", 60.6, 27.1),
        ];
        for (name, country, grid, lat, lon) in rows {
            cat.push(RegionSpec {
                name: name.to_string(),
                provider: Provider::Gcp,
                country: country.to_string(),
                grid_zone: grid.to_string(),
                latitude: lat,
                longitude: lon,
            });
        }
        cat
    }

    /// Returns the ids of the four regions used in the paper's evaluation
    /// (§9.1): `us-east-1`, `us-west-1`, `us-west-2`, `ca-central-1`.
    ///
    /// # Panics
    ///
    /// Panics if the catalog does not contain all four regions; use on
    /// [`RegionCatalog::aws_default`].
    pub fn evaluation_regions(&self) -> Vec<RegionId> {
        AWS_EVALUATION_REGIONS
            .iter()
            .map(|n| self.id_of(n).expect("evaluation region present"))
            .collect()
    }

    /// Appends a region and returns its id.
    pub fn push(&mut self, spec: RegionSpec) -> RegionId {
        let id = RegionId(self.regions.len() as u16);
        self.regions.push(spec);
        id
    }

    /// Number of regions in the catalog.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Returns the spec for a region id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this catalog.
    pub fn spec(&self, id: RegionId) -> &RegionSpec {
        &self.regions[id.index()]
    }

    /// Returns the spec for a region id, or `None` when out of range.
    pub fn get(&self, id: RegionId) -> Option<&RegionSpec> {
        self.regions.get(id.index())
    }

    /// Returns the human-readable name of a region id.
    pub fn name(&self, id: RegionId) -> &str {
        &self.spec(id).name
    }

    /// Resolves a bare region name to its id.
    ///
    /// Returns `None` both when the name is unknown and when it matches
    /// regions under more than one provider — a bare name must never
    /// silently alias one provider's region to another's (use
    /// [`RegionCatalog::resolve`] with a `provider:name` qualifier, or
    /// [`RegionCatalog::id_of_qualified`]).
    pub fn id_of(&self, name: &str) -> Option<RegionId> {
        let mut found = None;
        for (i, r) in self.regions.iter().enumerate() {
            if r.name == name {
                if found.is_some() {
                    return None; // ambiguous across providers
                }
                found = Some(RegionId(i as u16));
            }
        }
        found
    }

    /// Resolves a name scoped to one provider.
    pub fn id_of_qualified(&self, provider: Provider, name: &str) -> Option<RegionId> {
        self.regions
            .iter()
            .position(|r| r.provider == provider && r.name == name)
            .map(|i| RegionId(i as u16))
    }

    /// Resolves a region name, returning a [`ModelError`] when unknown.
    ///
    /// Accepts both bare names (`us-east-1`) and provider-qualified names
    /// (`aws:us-east-1`). A bare name that matches regions under multiple
    /// providers returns [`ModelError::AmbiguousRegion`] instead of
    /// silently picking one.
    pub fn resolve(&self, name: &str) -> Result<RegionId, ModelError> {
        if let Some((prefix, bare)) = name.split_once(':') {
            let provider = Provider::parse(prefix)?;
            return self
                .id_of_qualified(provider, bare)
                .ok_or_else(|| ModelError::UnknownRegion {
                    name: name.to_string(),
                });
        }
        let matches: Vec<Provider> = self
            .regions
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.provider)
            .collect();
        match matches.len() {
            0 => Err(ModelError::UnknownRegion {
                name: name.to_string(),
            }),
            1 => Ok(self
                .id_of_qualified(matches[0], name)
                .expect("just matched")),
            _ => Err(ModelError::AmbiguousRegion {
                name: name.to_string(),
                providers: matches,
            }),
        }
    }

    /// The provider-qualified identity of a region id.
    pub fn qualified(&self, id: RegionId) -> ProviderRegion {
        let spec = self.spec(id);
        ProviderRegion {
            provider: spec.provider,
            name: spec.name.clone(),
        }
    }

    /// The set of providers operating regions in `ids`.
    pub fn providers_of(&self, ids: &[RegionId]) -> ProviderSet {
        ProviderSet(
            ids.iter()
                .fold(0u8, |m, id| m | self.spec(*id).provider.bit()),
        )
    }

    /// Cache/stream discriminator bits for the non-AWS providers among
    /// `ids`: the bits name the providers a universe adds to AWS, so an
    /// AWS-only universe has bits 0.
    pub fn provider_bits(&self, ids: &[RegionId]) -> u64 {
        (self.providers_of(ids).mask() & !Provider::Aws.bit()) as u64
    }

    /// Iterates over `(RegionId, &RegionSpec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &RegionSpec)> {
        self.regions
            .iter()
            .enumerate()
            .map(|(i, s)| (RegionId(i as u16), s))
    }

    /// Returns every region id in the catalog.
    pub fn all_ids(&self) -> Vec<RegionId> {
        (0..self.regions.len())
            .map(|i| RegionId(i as u16))
            .collect()
    }

    /// Great-circle distance in kilometres between two regions.
    pub fn distance_km(&self, a: RegionId, b: RegionId) -> f64 {
        let sa = self.spec(a);
        let sb = self.spec(b);
        haversine_km(sa.latitude, sa.longitude, sb.latitude, sb.longitude)
    }
}

impl IntoIterator for RegionCatalog {
    type Item = RegionSpec;
    type IntoIter = std::vec::IntoIter<RegionSpec>;

    /// The specs in id order, consuming the catalog.
    fn into_iter(self) -> Self::IntoIter {
        self.regions.into_iter()
    }
}

/// Haversine great-circle distance in kilometres.
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    const R_EARTH_KM: f64 = 6371.0;
    let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
    let dp = (lat2 - lat1).to_radians();
    let dl = (lon2 - lon1).to_radians();
    let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
    2.0 * R_EARTH_KM * a.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_catalog_contains_paper_regions() {
        let cat = RegionCatalog::aws_default();
        for name in [
            "us-east-1",
            "us-east-2",
            "us-west-1",
            "us-west-2",
            "ca-central-1",
        ] {
            assert!(cat.id_of(name).is_some(), "missing {name}");
        }
        assert_eq!(cat.evaluation_regions().len(), 4);
    }

    #[test]
    fn resolve_unknown_region_errors() {
        let cat = RegionCatalog::aws_default();
        assert!(matches!(
            cat.resolve("mars-north-1"),
            Err(ModelError::UnknownRegion { .. })
        ));
    }

    #[test]
    fn ids_round_trip() {
        let cat = RegionCatalog::aws_default();
        for (id, spec) in cat.iter() {
            assert_eq!(cat.id_of(&spec.name), Some(id));
            assert_eq!(cat.name(id), spec.name);
        }
    }

    #[test]
    fn haversine_known_distance() {
        // Virginia (us-east-1) to California (us-west-1) is roughly 3,900 km.
        let cat = RegionCatalog::aws_default();
        let d = cat.distance_km(
            cat.id_of("us-east-1").unwrap(),
            cat.id_of("us-west-1").unwrap(),
        );
        assert!((3500.0..4300.0).contains(&d), "distance {d}");
    }

    #[test]
    fn haversine_zero_distance() {
        let cat = RegionCatalog::aws_default();
        let id = cat.id_of("us-east-1").unwrap();
        assert!(cat.distance_km(id, id) < 1e-9);
    }

    /// A catalog where two providers operate a region with the same bare
    /// name — the aliasing hazard provider-qualified resolution exists for.
    fn colliding_catalog() -> RegionCatalog {
        let mut cat = RegionCatalog::new();
        for provider in [Provider::Aws, Provider::Gcp] {
            cat.push(RegionSpec {
                name: "dual-1".to_string(),
                provider,
                country: "US".to_string(),
                grid_zone: "US-MIDA-PJM".to_string(),
                latitude: 39.0,
                longitude: -77.0,
            });
        }
        cat
    }

    #[test]
    fn bare_name_collision_never_aliases() {
        let cat = colliding_catalog();
        // Bare lookups refuse to guess.
        assert_eq!(cat.id_of("dual-1"), None);
        match cat.resolve("dual-1") {
            Err(ModelError::AmbiguousRegion { name, providers }) => {
                assert_eq!(name, "dual-1");
                assert_eq!(providers, vec![Provider::Aws, Provider::Gcp]);
            }
            other => panic!("expected AmbiguousRegion, got {other:?}"),
        }
        // Qualified lookups hit distinct ids.
        let aws = cat.resolve("aws:dual-1").unwrap();
        let gcp = cat.resolve("gcp:dual-1").unwrap();
        assert_ne!(aws, gcp);
        assert_eq!(cat.qualified(aws).to_string(), "aws:dual-1");
        assert_eq!(cat.qualified(gcp).to_string(), "gcp:dual-1");
        assert!(matches!(
            cat.resolve("azure:dual-1"),
            Err(ModelError::UnknownRegion { .. })
        ));
        assert!(matches!(
            cat.resolve("nimbus:dual-1"),
            Err(ModelError::UnknownProvider { .. })
        ));
    }

    #[test]
    fn qualified_resolution_on_unambiguous_catalogs_is_transparent() {
        let cat = RegionCatalog::multi_cloud();
        // Bare names keep resolving (every name is provider-unique here).
        let bare = cat.resolve("us-east-1").unwrap();
        let qualified = cat.resolve("aws:us-east-1").unwrap();
        assert_eq!(bare, qualified);
        assert_eq!(
            cat.resolve("gcp:us-west1").unwrap(),
            cat.id_of("us-west1").unwrap()
        );
        // A name under the wrong provider is unknown, not aliased.
        assert!(cat.resolve("gcp:us-east-1").is_err());
    }

    #[test]
    fn provider_sets_parse_and_mask() {
        assert_eq!(ProviderSet::parse("aws").unwrap(), ProviderSet::aws_only());
        let both = ProviderSet::parse("aws,gcp").unwrap();
        assert!(both.contains(Provider::Aws) && both.contains(Provider::Gcp));
        assert!(!both.is_aws_only());
        assert_eq!(both.len(), 2);
        assert_eq!(both.to_string(), "aws,gcp");
        assert_eq!(ProviderSet::parse("gcp, aws").unwrap(), both);
        assert!(ProviderSet::parse("aws,ibm").is_err());
        assert!(ProviderSet::parse("").is_err());
        assert_eq!(ProviderSet::default(), ProviderSet::aws_only());
    }

    #[test]
    fn provider_bits_reserve_zero_for_aws() {
        let cat = RegionCatalog::multi_cloud();
        let aws_only = cat.evaluation_regions();
        assert_eq!(cat.provider_bits(&aws_only), 0);
        let mixed: Vec<RegionId> = cat.all_ids();
        assert_ne!(cat.provider_bits(&mixed), 0);
        assert_eq!(
            cat.provider_bits(&mixed),
            (Provider::Gcp.bit()) as u64,
            "only non-AWS providers contribute bits"
        );
    }

    #[test]
    fn compliance_countries_present() {
        let cat = RegionCatalog::aws_default();
        let ca = cat.id_of("ca-central-1").unwrap();
        assert_eq!(cat.spec(ca).country, "CA");
        let us = cat.id_of("us-east-1").unwrap();
        assert_eq!(cat.spec(us).country, "US");
    }
}
