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

use caribou_bench::harness::{coarse_over_week, eval_over_week, geomean, write_json, FineSolver};
use caribou_core::scenario::{default_tolerances, World, CARBON_EPOCH};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::constraints::Constraints;
use caribou_model::region::{Provider, ProviderSet};
use caribou_workloads::benchmarks::{all_benchmarks, Benchmark, InputSize};

/// Hours between evaluation points.
const STEP: usize = 6;

/// The three strategies for one benchmark: the
/// catalog's AWS evaluation set, the world's whole (cross-provider)
/// evaluation set, and that set again under an AWS-only compliance
/// constraint.
fn solvers<'e>(env: &'e World, bench: &'e Benchmark) -> [FineSolver<'e>; 3] {
    let aws_na = env.cloud.regions.evaluation_regions();
    let mut free = Constraints::unconstrained(bench.dag.node_count());
    free.tolerances = default_tolerances();
    let mut aws_pinned = free.clone();
    aws_pinned.workflow.allowed_providers = vec![Provider::Aws];
    let scenario = TransmissionScenario::BEST;
    [
        (&aws_na, &free, 1),
        (&env.regions, &free, 2),
        (&env.regions, &aws_pinned, 3),
    ]
    .map(|(set, constraints, seed)| {
        FineSolver::with_constraints(env, bench, set, constraints, scenario, seed)
    })
}

fn main() {
    let providers = ProviderSet::of(&[Provider::Aws, Provider::Gcp]);
    let env = World::new(providers, 77, CARBON_EPOCH).expect("aws and gcp have backends");
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
            let base = coarse_over_week(&env, &bench, scenario, STEP, env.home, 9);
            let [n1, n2, n3] = solvers(&env, &bench).map(|mut solver| {
                let r = eval_over_week(&env, &bench, scenario, STEP, |h| solver.plan_at(h), 2);
                r.carbon_g / base.carbon_g
            });
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
    use caribou_workloads::benchmarks::dna_visualization;

    #[test]
    fn multicloud_strategies_run_on_the_shared_harness() {
        let providers = ProviderSet::of(&[Provider::Aws, Provider::Gcp]);
        let env = World::new(providers, 77, CARBON_EPOCH).unwrap();
        let bench = dna_visualization(InputSize::Small);
        let provider_of = |r: RegionId| env.cloud.regions.spec(r).provider;
        assert!(env.regions.iter().any(|&r| provider_of(r) == Provider::Gcp));

        let base = coarse_over_week(&env, &bench, TransmissionScenario::BEST, 24, env.home, 9);
        let [aws_only, free, pinned] = solvers(&env, &bench).map(|mut solver| {
            let mut used = Vec::new();
            let r = eval_over_week(
                &env,
                &bench,
                TransmissionScenario::BEST,
                24,
                |h| {
                    let plan = solver.plan_at(h);
                    used.extend(plan.regions_used());
                    plan
                },
                2,
            );
            (r.carbon_g / base.carbon_g, used)
        });
        for (norm, used) in [&aws_only, &free, &pinned] {
            assert!(*norm > 0.0 && *norm < 1.05, "norm {norm}");
            assert!(!used.is_empty());
        }
        // Compliance pins the workflow to AWS whatever the universe
        // offers; the AWS-only set cannot leave AWS to begin with.
        for (_, used) in [&aws_only, &pinned] {
            assert!(used.iter().all(|&r| provider_of(r) == Provider::Aws));
        }
    }
}
