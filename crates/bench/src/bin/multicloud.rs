//! Extension experiment: multi-cloud region sets (the Sky-computing
//! motivation of §1; the paper's Table 2 lists Caribou as AWS-only and
//! flags "future portability" via pub/sub's cross-provider availability).
//!
//! Compares fine-grained shifting over the AWS-only NA evaluation set
//! against an AWS+GCP multi-cloud set, with and without a
//! same-provider compliance constraint (`allowed_providers = [Aws]`). A
//! GCP region on the same grid as an AWS one (us-west1 / us-west-2)
//! demonstrates that the carbon differential is a property of the grid,
//! not the provider.

use caribou_bench::harness::{geomean, write_json, Week};
use caribou_core::scenario::{default_tolerances, World, CARBON_EPOCH};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::{Provider, ProviderSet};
use caribou_workloads::benchmarks::{all_benchmarks, InputSize};

/// Hours between evaluation points.
const STEP: usize = 6;

/// The cloud's seed and every week's.
const SEED: u64 = 77;

/// The three strategies of a week: the catalog's AWS evaluation set, the
/// world's whole (cross-provider) evaluation set, and that set again
/// under an AWS-only compliance constraint.
fn planners<'w>(week: &'w Week<'_>, env: &World) -> [impl Fn(f64) -> DeploymentPlan + 'w; 3] {
    let aws_na = env.cloud.regions.evaluation_regions();
    let free = week.tolerating(default_tolerances());
    let mut aws_pinned = free.clone();
    aws_pinned.workflow.allowed_providers = vec![Provider::Aws];
    [
        (&aws_na, &free),
        (&env.regions, &free),
        (&env.regions, &aws_pinned),
    ]
    .map(|(set, constraints)| week.planner(set, constraints))
}

fn main() {
    let providers = ProviderSet::of(&[Provider::Aws, Provider::Gcp]);
    let env = World::new(providers, SEED, CARBON_EPOCH).expect("aws and gcp have backends");
    let scenario = TransmissionScenario::BEST;

    println!("Multi-cloud extension — best-case scenario, NA region sets");
    println!(
        "{:<24}{:<7}{:>12}{:>14}{:>16}",
        "benchmark", "input", "AWS-only", "AWS+GCP", "AWS+GCP (aws!)"
    );
    let mut rows = Vec::new();
    let mut norms = [Vec::new(), Vec::new(), Vec::new()];
    for input in InputSize::ALL {
        for bench in all_benchmarks(input) {
            let week = Week::new(&env, &bench, scenario, STEP, SEED);
            let base = week.coarse(env.home);
            let [n1, n2, n3] =
                planners(&week, &env).map(|plan_at| week.eval(plan_at).carbon_g / base.carbon_g);
            println!(
                "{:<24}{:<7}{:>12.3}{:>14.3}{:>16.3}",
                bench.name,
                input.label(),
                n1,
                n2,
                n3
            );
            rows.push(serde_json::json!({
                "benchmark": bench.name,
                "input": input.label(),
                "aws_only_norm": n1,
                "multicloud_norm": n2,
                "multicloud_aws_pinned_norm": n3,
            }));
            for (all, n) in norms.iter_mut().zip([n1, n2, n3]) {
                all.push(n);
            }
        }
    }
    println!(
        "\nGeomeans: AWS-only {:.3}; AWS+GCP {:.3}; AWS+GCP with aws-only compliance {:.3}",
        geomean(&norms[0]),
        geomean(&norms[1]),
        geomean(&norms[2])
    );
    println!("(provider compliance must recover the AWS-only result; the free multi-cloud");
    println!(" set may gain from GCP's Québec/Pacific-Northwest presence)");
    write_json("multicloud", &serde_json::Value::Array(rows));
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_model::region::RegionId;

    #[test]
    fn multicloud_strategies_run_on_the_shared_harness() {
        let providers = ProviderSet::of(&[Provider::Aws, Provider::Gcp]);
        let env = World::new(providers, SEED, CARBON_EPOCH).unwrap();
        let provider_of = |r: RegionId| env.cloud.regions.spec(r).provider;
        assert!(env.regions.iter().any(|&r| provider_of(r) == Provider::Gcp));

        for bench in InputSize::ALL.into_iter().flat_map(all_benchmarks) {
            let week = Week::new(&env, &bench, TransmissionScenario::BEST, 24, SEED);
            let base = week.coarse(env.home);
            let [aws_only, free, pinned] = planners(&week, &env).map(|plan_at| {
                let mut used = Vec::new();
                let r = week.eval(|h| {
                    let plan = plan_at(h);
                    used.extend(plan.regions_used());
                    plan
                });
                (r, used)
            });
            for (r, used) in [&aws_only, &free, &pinned] {
                let norm = r.carbon_g / base.carbon_g;
                assert!(norm > 0.0 && norm < 1.05, "norm {norm}");
                assert!(!used.is_empty());
            }
            // Compliance pins the workflow to AWS whatever the universe
            // offers; the AWS-only set cannot leave AWS to begin with.
            for (_, used) in [&aws_only, &pinned] {
                assert!(used.iter().all(|&r| provider_of(r) == Provider::Aws));
            }
            // Same permitted regions in the same order, one bank, one walk
            // per hour, forecasts fitted per region: the same result.
            assert_eq!(pinned, aws_only, "{}", bench.name);
        }
    }
}
