//! Ablation: HBSS solution quality versus exhaustive enumeration and the
//! coarse single-region strategy (§5.1's design rationale).
//!
//! For each benchmark with an enumerable search space, solves with all
//! three strategies and reports the carbon optimality gap and the number
//! of candidate evaluations — the quality/effort trade-off that justifies
//! HBSS.

use caribou_bench::harness::{mc_config, write_json};
use caribou_core::scenario::{default_tolerances, World};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::constraints::Constraints;
use caribou_model::rng::Pcg32;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_solver::{coarse, exhaustive};
use caribou_workloads::benchmarks::{
    dna_visualization, image_processing, rag_data_ingestion, text2speech_censoring, InputSize,
};

fn main() {
    let env = World::evaluation(55);
    println!("Solver ablation — carbon per invocation and evaluations per solve");
    println!(
        "{:<24}{:>7}{:>14}{:>8}{:>14}{:>8}{:>14}{:>8}",
        "benchmark", "|R|^|N|", "hbss g", "evals", "exhaustive g", "evals", "coarse g", "evals"
    );
    let mut rows = Vec::new();
    for bench in [
        dna_visualization(InputSize::Small),
        rag_data_ingestion(InputSize::Small),
        image_processing(InputSize::Small),
        text2speech_censoring(InputSize::Small),
    ] {
        let permitted = Constraints::unconstrained(bench.dag.node_count())
            .permitted_regions(&bench.dag, &env.regions, &env.cloud.regions, env.home)
            .unwrap();
        let case = env.case(&bench, TransmissionScenario::BEST, mc_config());
        let ctx = case.context(&permitted, default_tolerances(), &env.carbon);
        // One engine: the three solvers price every plan on the same draws.
        let engine = EvalEngine::new(1, 1);
        let hbss = HbssSolver::new().solve_with(&engine, &ctx, 12.5, &mut Pcg32::seed(1));
        let exact = exhaustive::solve_with(&engine, &ctx, 12.5);
        let single = coarse::solve_with(&engine, &ctx, 12.5);
        let h = ctx.metric_of(&hbss.best_estimate);
        let s = ctx.metric_of(&single.best_estimate);
        match exact {
            Some(ex) => {
                let e = ctx.metric_of(&ex.best_estimate);
                println!(
                    "{:<24}{:>7}{:>14.4e}{:>8}{:>14.4e}{:>8}{:>14.4e}{:>8}",
                    bench.name,
                    ctx.search_space_size(),
                    h,
                    hbss.evaluated,
                    e,
                    ex.evaluated,
                    s,
                    single.evaluated
                );
                rows.push(serde_json::json!({
                    "benchmark": bench.name,
                    "space": ctx.search_space_size(),
                    "hbss_g": h, "hbss_evals": hbss.evaluated,
                    "exhaustive_g": e, "exhaustive_evals": ex.evaluated,
                    "coarse_g": s, "coarse_evals": single.evaluated,
                    "hbss_gap": h / e,
                    "coarse_gap": s / e,
                }));
            }
            None => {
                println!(
                    "{:<24}{:>7}{:>14.4e}{:>8}{:>14}{:>8}{:>14.4e}{:>8}",
                    bench.name,
                    ctx.search_space_size(),
                    h,
                    hbss.evaluated,
                    "(too big)",
                    "-",
                    s,
                    single.evaluated
                );
            }
        }
    }
    println!(
        "\n(HBSS should sit within a few percent of exhaustive at a fraction of the evaluations;"
    );
    println!(" coarse is cheapest but misses fine-grained splits — the paper's §5.1 argument.)");
    write_json("ablation_solver", &serde_json::Value::Array(rows));
}
