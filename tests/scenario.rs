//! The shared evaluation world equals the hand assembly it replaced.
//!
//! `reference` below is a literal copy of the calls every consumer used
//! to write out — kept here, and only here, so the test fails if
//! `caribou_core::scenario` drifts from them.

use caribou_carbon::source::{CarbonDataSource, RegionalSource};
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_core::fleet::FleetEnv;
use caribou_core::scenario::{World, WorldError, CARBON_EPOCH, HOME};
use caribou_model::region::{Provider, ProviderSet, RegionId};
use caribou_simcloud::cloud::SimCloud;

fn reference(
    providers: ProviderSet,
    cloud_seed: u64,
    carbon_seed: u64,
) -> (SimCloud, Vec<RegionId>, RegionalSource, RegionId) {
    let cloud = SimCloud::for_providers(providers, cloud_seed).unwrap();
    let regions = cloud.evaluation_regions();
    let carbon = RegionalSource::new(
        &cloud.regions,
        SyntheticCarbonSource::aws_calibrated(carbon_seed),
    )
    .unwrap();
    let home = cloud.region("us-east-1").unwrap();
    (cloud, regions, carbon, home)
}

#[test]
fn world_equals_the_hand_assembly_it_replaces() {
    let aws_gcp = ProviderSet::parse("aws,gcp").unwrap();
    for (providers, cloud_seed, carbon_seed) in [
        (ProviderSet::aws_only(), 7, 20231015),
        (ProviderSet::aws_only(), 42, 42),
        (aws_gcp, 7, 20231015),
        (aws_gcp, 77, 3),
    ] {
        let world = World::new(providers, cloud_seed, carbon_seed).unwrap();
        let (cloud, regions, carbon, home) = reference(providers, cloud_seed, carbon_seed);

        // Same catalog, region for region, and the same evaluation set.
        assert_eq!(world.cloud.regions.len(), cloud.regions.len());
        for ((id, spec), (ref_id, ref_spec)) in world.cloud.regions.iter().zip(cloud.regions.iter())
        {
            assert_eq!(id, ref_id);
            assert_eq!(spec.name, ref_spec.name);
            assert_eq!(spec.provider, ref_spec.provider);
            assert_eq!(spec.grid_zone, ref_spec.grid_zone);
        }
        assert_eq!(world.regions, regions);
        assert_eq!(world.home, home);
        assert_eq!(world.cloud.regions.name(world.home), HOME);
        assert_eq!(
            world.cloud.regions.provider_bits(&world.regions),
            cloud.regions.provider_bits(&regions)
        );

        // Same grid, bit for bit, before, inside and after the week.
        for (id, _) in cloud.regions.iter() {
            for hour in [-400.5, 0.5, 12.5, 99.25, 167.5, 2000.0] {
                assert_eq!(
                    world.carbon.intensity(id, hour).to_bits(),
                    carbon.intensity(id, hour).to_bits(),
                    "{} at hour {hour}",
                    cloud.regions.name(id)
                );
            }
        }

        // Same substrate noise: the clouds were seeded alike.
        assert_eq!(
            world.cloud.latency.rtt(home, regions[1]).to_bits(),
            cloud.latency.rtt(home, regions[1]).to_bits()
        );
    }
}

#[test]
fn evaluation_sets_follow_the_provider_set() {
    let provider_of = |w: &World, r: RegionId| w.cloud.regions.spec(r).provider;

    // The default testbed is the AWS world of the evaluation week.
    let aws = World::evaluation(7);
    let (_, regions, carbon, home) = reference(ProviderSet::aws_only(), 7, CARBON_EPOCH);
    assert_eq!((&aws.regions, aws.home), (&regions, home));
    assert_eq!(
        aws.carbon.intensity(aws.home, 12.5).to_bits(),
        carbon.intensity(home, 12.5).to_bits()
    );
    assert_eq!(aws.regions, aws.cloud.regions.evaluation_regions());
    assert_eq!(aws.regions.len(), 4);
    assert!(aws
        .regions
        .iter()
        .all(|&r| provider_of(&aws, r) == Provider::Aws));
    assert_eq!(aws.cloud.regions.provider_bits(&aws.regions), 0);

    let both = World::new(ProviderSet::parse("aws,gcp").unwrap(), 7, CARBON_EPOCH).unwrap();
    assert!(both.regions.len() > aws.regions.len());
    assert!(both
        .regions
        .iter()
        .any(|&r| provider_of(&both, r) == Provider::Gcp));
    assert!(both.regions.contains(&both.home));
    assert_ne!(both.cloud.regions.provider_bits(&both.regions), 0);
}

#[test]
fn a_homeless_provider_set_is_a_fleet_but_not_a_world() {
    // The gcp backend has evaluation regions but no `us-east-1`: a world
    // (every workload homed at HOME) reports that, while the fleet, whose
    // apps draw their homes from the universe, builds as it always did.
    let gcp = ProviderSet::parse("gcp").unwrap();
    assert!(matches!(
        World::new(gcp, 7, CARBON_EPOCH),
        Err(WorldError::Cloud(_))
    ));

    let env = FleetEnv::for_providers(7, 24, gcp).unwrap();
    let (cloud, regions, carbon) = {
        let cloud = SimCloud::for_providers(gcp, 7).unwrap();
        let regions = cloud.evaluation_regions();
        let carbon =
            RegionalSource::new(&cloud.regions, SyntheticCarbonSource::aws_calibrated(7)).unwrap();
        (cloud, regions, carbon)
    };
    assert_eq!(env.universe, regions);
    assert!(!env.universe.is_empty());
    for &r in &env.universe {
        assert_eq!(cloud.regions.spec(r).provider, Provider::Gcp);
        assert_eq!(env.forecast[&r].len(), 24);
        assert_eq!(
            env.forecast[&r][5].to_bits(),
            carbon.intensity(r, 5.5).to_bits()
        );
    }
}
