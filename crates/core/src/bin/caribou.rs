//! The `caribou` command-line utility — the Rust analogue of the paper's
//! Deployment Utility CLI (§6.1, §8).
//!
//! ```text
//! caribou manifest validate <file.json>     # validate a deployment manifest
//! caribou manifest example                  # print a starter manifest
//! caribou carbon <region> [--hours N]       # dump grid carbon intensity
//! caribou plan <benchmark> [--input small|large] [--hour H]
//!                                           # solve a deployment plan
//! caribou simulate <benchmark> [--days D] [--per-day N] [--worst-case]
//!                  [--telemetry out.jsonl]  # run the full framework loop
//! caribou chaos [--seed N] [--requests N]   # seeded fault campaign with
//!               [--correlated]              # invariant checking; correlated
//!                                           # fault classes + failover
//! caribou fleet [--apps N] [--hours H]      # multi-tenant fleet re-plan
//!               [--perturb SPEC]            # with incremental re-solve
//! caribou trace <journal.jsonl> [--limit N] # replay a telemetry journal
//! caribou benchmarks                        # list available benchmarks
//! ```
//!
//! Argument parsing is hand-rolled to keep the dependency surface at the
//! workspace's approved set.

use std::process::ExitCode;

use caribou_carbon::error::CarbonError;
use caribou_carbon::source::{CarbonDataSource, ForecastingSource, RegionalSource};
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::loadgen::{run_loadgen, LoadgenConfig};
use caribou_core::scenario::{
    cli_constraints, grid, workflow_app, World, WorldError, CARBON_EPOCH, HOME,
};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_metrics::montecarlo::MonteCarloConfig;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::region::ProviderSet;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_solver::contingency::solve_hourly_with_contingency;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_solver::hourly::solve_hourly_with;
use caribou_solver::pool;
use caribou_workloads::arrivals::ArrivalProcess;
use caribou_workloads::benchmarks::{all_benchmarks, Benchmark, InputSize};
use caribou_workloads::traces::uniform_trace;

const USAGE: &str = "\
caribou — carbon-aware geospatial shifting of serverless workflows

USAGE:
    caribou benchmarks
    caribou manifest validate <file.json>
    caribou manifest example
    caribou carbon <region> [--hours N]
    caribou carbon --zone <grid-zone> [--hours N]
    caribou plan <benchmark> [--input small|large] [--hour H] [--worst-case]
                 [--hourly [--contingency K]] [--workers N]
                 [--providers aws[,gcp]]
    caribou simulate <benchmark> [--input small|large] [--days D] [--per-day N] [--worst-case]
                     [--telemetry <out.jsonl>] [--workers N] [--json]
                     [--providers aws[,gcp]]
    caribou loadgen <benchmark> [--invocations N] [--seed S] [--workers N]
                    [--arrival poisson|diurnal|bursty] [--rate PER_S]
                    [--shards N] [--no-warm-pool] [--keep-alive-s S]
                    [--input small|large] [--worst-case] [--telemetry <out.jsonl>]
    caribou chaos [--seed N] [--requests N] [--duration-s S] [--drop P]
                  [--no-breaker] [--seeds K] [--workers N] [--json]
                  [--correlated [--contingency K] [--scenario provider-outage]]
                  [--providers aws[,gcp]]
    caribou fleet [--apps N] [--hours H] [--workers K] [--seed S]
                  [--capacity C] [--perturb <spec>] [--verify]
                  [--telemetry <out.jsonl>] [--providers aws[,gcp]]
    caribou trace <journal.jsonl> [--limit N]

PROVIDERS:
    --providers takes a comma-separated provider list (aws, gcp). The
    default `aws` replays the single-provider substrate byte-for-byte;
    `aws,gcp` widens the candidate universe with the GCP backend's
    regions so plans may split one DAG across providers. Regions can be
    provider-qualified anywhere a region name is accepted
    (`aws:us-east-1`, `gcp:us-west1`).

FLEET PERTURBATION SPEC:
    Comma-separated forecast revisions: h<HOUR>[:<region>](*FACTOR|+DELTA|-DELTA)
    e.g. `h7*1.5` (hour 7, all regions, intensity x1.5),
         `h7:us-west-2+120,h3:ca-central-1-40` (per-region shifts in gCO2eq/kWh).
    With --perturb, the fleet is first solved on the base forecast, then
    incrementally re-solved against the revision: only apps whose permitted
    regions read the revised inputs re-enter the solver. --verify diffs the
    incremental result against a from-scratch solve (exit 1 on mismatch).
";

const FLEET_USAGE: &str = "\
caribou fleet — multi-tenant fleet re-plan with incremental re-solve

USAGE:
    caribou fleet [--apps N] [--hours H] [--workers K] [--seed S]
                  [--capacity C] [--perturb <spec>] [--verify]
                  [--telemetry <out.jsonl>] [--providers aws[,gcp]]

OPTIONS:
    --apps N             fleet size (default 24): seeded heterogeneous DAG
                         apps drawn from the species palette
    --hours H            simulated hours to re-plan each app for (default 24)
    --workers K          worker threads; results are bit-identical at any K
    --seed S             master seed for generation, evaluation and walks
    --capacity C         shared cross-app estimate-cache capacity (entries)
    --perturb <spec>     after the full solve, apply forecast revisions and
                         incrementally re-solve only the invalidated apps
    --verify             also re-solve the revised fleet from scratch and
                         fail (exit 1) unless the incremental schedule is
                         bit-identical
    --telemetry <path>   record fleet.* / solver.cache.* telemetry to JSONL
    --providers LIST     provider backends whose regions join the candidate
                         universe (default `aws`; `aws,gcp` for cross-cloud)

PERTURBATION SPEC (comma-separated terms):
    h<HOUR>[:<region>](*FACTOR|+DELTA|-DELTA)
    h7*1.5               hour 7, all regions, carbon intensity x1.5
    h7:us-west-2+120     hour 7, us-west-2 only, +120 gCO2eq/kWh
    h3:ca-central-1*2,h18-40
                         several revisions at once; a trailing -DELTA is
                         parsed after the hyphenated region name

Deterministic results (schedule digest, cell counts, carbon totals,
per-hour invalidation counts) print to stdout; wall-clock throughput
(app-hours/s) and cache statistics print to stderr.
";

/// A CLI failure: a one-line message plus the process exit code.
///
/// Bad input data (unknown regions or grid zones, unreadable carbon CSVs)
/// exits 2, distinguishing it from usage errors and simulation failures
/// (exit 1) so scripts can react differently.
struct CliError {
    message: String,
    exit: u8,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { message, exit: 1 }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            message: message.to_string(),
            exit: 1,
        }
    }
}

impl From<CarbonError> for CliError {
    fn from(e: CarbonError) -> Self {
        CliError {
            message: e.to_string(),
            exit: 2,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("benchmarks") => cmd_benchmarks(),
        Some("manifest") => cmd_manifest(&args[1..]),
        Some("carbon") => cmd_carbon(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.exit)
        }
    }
}

/// Parses `--key value` style flags from the tail of an argument list.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses `--workers N` (default 1); results never depend on the value.
fn workers(args: &[String]) -> Result<usize, String> {
    match flag(args, "--workers") {
        None => Ok(1),
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(_) => Err("--workers: must be at least 1".into()),
            Err(e) => Err(format!("--workers: {e}")),
        },
    }
}

/// Parses `--providers aws[,gcp]` (default AWS-only).
fn providers(args: &[String]) -> Result<ProviderSet, String> {
    match flag(args, "--providers") {
        None => Ok(ProviderSet::aws_only()),
        Some(spec) => ProviderSet::parse(spec).map_err(|e| format!("--providers: {e}")),
    }
}

/// Builds the evaluation world of a provider set the way every command
/// does: cloud seed 7 under the evaluation week's carbon data.
fn world_for(set: ProviderSet) -> Result<World, CliError> {
    World::new(set, 7, CARBON_EPOCH).map_err(|e| match e {
        WorldError::Cloud(e) => e.to_string().into(),
        WorldError::Carbon(e) => e.into(),
    })
}

/// Renders a region for output: bare name on single-provider runs (the
/// format the goldens pin), `provider:name` on cross-provider runs.
fn region_label(cloud: &SimCloud, set: ProviderSet, id: caribou_model::region::RegionId) -> String {
    if set.is_aws_only() {
        cloud.regions.name(id).to_string()
    } else {
        cloud.regions.qualified(id).to_string()
    }
}

fn input_size(args: &[String]) -> Result<InputSize, String> {
    match flag(args, "--input") {
        None | Some("small") => Ok(InputSize::Small),
        Some("large") => Ok(InputSize::Large),
        Some(other) => Err(format!("unknown input size `{other}` (small|large)")),
    }
}

fn scenario(args: &[String]) -> TransmissionScenario {
    if has_flag(args, "--worst-case") {
        TransmissionScenario::WORST
    } else {
        TransmissionScenario::BEST
    }
}

fn find_benchmark(name: &str, input: InputSize) -> Result<Benchmark, String> {
    let key = name.to_lowercase().replace(['-', '_'], "");
    all_benchmarks(input)
        .into_iter()
        .find(|b| {
            b.name
                .to_lowercase()
                .replace([' ', '-', '_'], "")
                .contains(&key)
                || b.dag.name().replace('_', "").contains(&key)
        })
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `caribou benchmarks`)"))
}

fn cmd_benchmarks() -> Result<(), CliError> {
    println!(
        "{:<24}{:<24}{:>7}{:>7}{:>6}{:>6}",
        "name", "id", "nodes", "edges", "sync", "cond"
    );
    for b in all_benchmarks(InputSize::Small) {
        println!(
            "{:<24}{:<24}{:>7}{:>7}{:>6}{:>6}",
            b.name,
            b.dag.name(),
            b.dag.node_count(),
            b.dag.edge_count(),
            if b.dag.has_sync_nodes() { "yes" } else { "no" },
            if b.dag.has_conditional_edges() {
                "yes"
            } else {
                "no"
            },
        );
    }
    Ok(())
}

fn cmd_manifest(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("example") => {
            println!(
                "{}",
                DeploymentManifest::new("my_workflow", "1.0", "us-east-1").to_json()
            );
            Ok(())
        }
        Some("validate") => {
            let path = args
                .get(1)
                .ok_or("usage: caribou manifest validate <file.json>")?;
            let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let manifest = DeploymentManifest::from_json(&json).map_err(|e| e.to_string())?;
            let catalog = caribou_model::region::RegionCatalog::aws_default();
            manifest.validate(&catalog).map_err(|e| e.to_string())?;
            println!(
                "ok: workflow `{}` v{} targeting {}",
                manifest.workflow_name, manifest.version, manifest.home_region
            );
            Ok(())
        }
        _ => Err("usage: caribou manifest <validate|example>".into()),
    }
}

fn cmd_carbon(args: &[String]) -> Result<(), CliError> {
    let hours: usize = flag(args, "--hours")
        .map(|v| v.parse().map_err(|e| format!("--hours: {e}")))
        .transpose()?
        .unwrap_or(48);
    let synth = grid(CARBON_EPOCH);
    if let Some(zone) = flag(args, "--zone") {
        println!("hour  gCO2eq/kWh   (grid zone {zone})");
        for h in 0..hours {
            let v = synth.zone_intensity(zone, h as f64 + 0.5)?;
            let bar = "#".repeat((v / 12.0) as usize);
            println!("{h:>4}  {v:>10.1}   {bar}");
        }
        return Ok(());
    }
    let region_name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: caribou carbon <region> [--hours N], or --zone <grid-zone>")?;
    let catalog = caribou_model::region::RegionCatalog::multi_cloud();
    let region = catalog.resolve(region_name).map_err(|e| CliError {
        message: e.to_string(),
        exit: 2,
    })?;
    let source = RegionalSource::new(&catalog, synth)?;
    println!(
        "hour  gCO2eq/kWh   ({}: grid {})",
        region_name,
        catalog.spec(region).grid_zone
    );
    for h in 0..hours {
        let v = source.intensity(region, h as f64 + 0.5);
        let bar = "#".repeat((v / 12.0) as usize);
        println!("{h:>4}  {v:>10.1}   {bar}");
    }
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), CliError> {
    let name = args
        .first()
        .ok_or("usage: caribou plan <benchmark> [...]")?;
    let input = input_size(args)?;
    let hour: f64 = flag(args, "--hour")
        .map(|v| v.parse().map_err(|e| format!("--hour: {e}")))
        .transpose()?
        .unwrap_or(12.5);
    let bench = find_benchmark(name, input)?;

    let pset = providers(args)?;
    let world = world_for(pset)?;
    let (cloud, regions) = (&world.cloud, &world.regions);
    let constraints = cli_constraints(&bench);
    let permitted = constraints
        .permitted_regions(&bench.dag, regions, &cloud.regions, world.home)
        .map_err(|e| e.to_string())?;
    let day_start = (hour / 24.0).floor() * 24.0;
    let forecast = ForecastingSource::fit(&world.carbon, regions, day_start, 48);
    let case = world.case(&bench, scenario(args), MonteCarloConfig::default());
    let ctx = case.context(&permitted, constraints.tolerances, &forecast);
    let engine = EvalEngine::new(7, workers(args)?);
    if has_flag(args, "--hourly") {
        // Full 24-hour schedule through the deterministic evaluation
        // engine: stdout is bit-identical at any --workers value (pool and
        // cache statistics go to stderr), which scripts/check.sh exploits
        // to smoke-test solver determinism. With --contingency K the
        // schedule prefix stays byte-identical (the primary solve consumes
        // the same RNG prefix) and K ranked fallback entries are appended.
        let k: usize = flag(args, "--contingency")
            .map(|v| v.parse().map_err(|e| format!("--contingency: {e}")))
            .transpose()?
            .unwrap_or(0);
        let solver = HbssSolver::new();
        let mut rng = Pcg32::seed(7);
        let (plans, table) = if k > 0 {
            let topology: Vec<_> = regions
                .iter()
                .map(|&r| (r, cloud.regions.spec(r).provider))
                .collect();
            let (plans, table) = solve_hourly_with_contingency(
                &engine, &solver, &ctx, &topology, day_start, 0.0, 86_400.0, &mut rng, 7, k,
            );
            (plans, Some(table))
        } else {
            let plans =
                solve_hourly_with(&engine, &solver, &ctx, day_start, 0.0, 86_400.0, &mut rng);
            (plans, None)
        };
        println!(
            "hourly deployment schedule for `{}` ({} input), day starting hour {day_start}:",
            bench.name,
            input.label()
        );
        for h in 0..24 {
            let plan = plans.plan_for_hour(h);
            let assignment: Vec<String> = bench
                .dag
                .all_nodes()
                .map(|n| region_label(cloud, pset, plan.region_of(n)))
                .collect();
            println!("  hour {h:>2}: {}", assignment.join(", "));
        }
        if let Some(table) = table {
            println!(
                "contingency table ({} fallback entries, coverage-first):",
                table.len()
            );
            for (i, e) in table.entries.iter().enumerate() {
                let fallback: Vec<String> = e
                    .plans
                    .regions_used()
                    .into_iter()
                    .map(|r| region_label(cloud, pset, r))
                    .collect();
                let excluded = match e.exclusion {
                    caribou_model::plan::Exclusion::Region(r) => {
                        format!("region:{}", region_label(cloud, pset, r))
                    }
                    caribou_model::plan::Exclusion::Provider(p) => format!("provider:{p}"),
                };
                println!(
                    "  {}. {:<28} metric {:.3e}  fallback uses {}",
                    i + 1,
                    excluded,
                    e.metric,
                    fallback.join(", ")
                );
            }
        }
        eprintln!(
            "cache: {} hits / {} misses over {} distinct plans",
            engine.hit_count(),
            engine.miss_count(),
            engine.cache_len()
        );
        return Ok(());
    }
    let outcome = HbssSolver::new().solve_with(&engine, &ctx, hour, &mut Pcg32::seed(7));
    println!(
        "deployment plan for `{}` ({} input) at hour {hour}:",
        bench.name,
        input.label()
    );
    for node in bench.dag.all_nodes() {
        println!(
            "  {:<20} -> {}",
            bench.dag.node(node).name,
            region_label(cloud, pset, outcome.best.region_of(node))
        );
    }
    let best = ctx.metric_of(&outcome.best_estimate);
    let home_m = ctx.metric_of(&outcome.home_estimate);
    println!(
        "estimated: {best:.3e} g/invocation vs {home_m:.3e} at home ({:+.1}%)",
        (best / home_m - 1.0) * 100.0
    );
    println!(
        "latency: {:.2} s mean / {:.2} s p95 (home {:.2} / {:.2})",
        outcome.best_estimate.latency.mean,
        outcome.best_estimate.latency.p95,
        outcome.home_estimate.latency.mean,
        outcome.home_estimate.latency.p95,
    );
    println!("evaluated {} candidate deployments", outcome.evaluated);
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let name = args
        .first()
        .ok_or("usage: caribou simulate <benchmark> [...]")?;
    let input = input_size(args)?;
    let days: f64 = flag(args, "--days")
        .map(|v| v.parse().map_err(|e| format!("--days: {e}")))
        .transpose()?
        .unwrap_or(2.0);
    let per_day: f64 = flag(args, "--per-day")
        .map(|v| v.parse().map_err(|e| format!("--per-day: {e}")))
        .transpose()?
        .unwrap_or(1500.0);
    let bench = find_benchmark(name, input)?;

    let pset = providers(args)?;
    let World {
        cloud,
        regions,
        carbon,
        home,
    } = world_for(pset)?;
    let mut config = CaribouConfig::new(regions, scenario(args));
    if flag(args, "--workers").is_some() {
        config.workers = workers(args)?;
    }
    let mut caribou = Caribou::new(cloud, carbon, config);
    let app = workflow_app(&bench, home);
    let manifest = DeploymentManifest::new(app.name.clone(), "1.0", HOME);
    let idx = caribou
        .deploy(app, &manifest, cli_constraints(&bench))
        .map_err(|e| e.to_string())?;
    let telemetry_path = flag(args, "--telemetry");
    if let Some(path) = telemetry_path {
        let sink = caribou_telemetry::JsonlSink::create(path)
            .map_err(|e| format!("--telemetry {path}: {e}"))?;
        caribou_telemetry::enable(Box::new(sink));
    }
    let trace = uniform_trace(30.0, days * 86_400.0, per_day);
    eprintln!(
        "simulating {} invocations over {days} day(s)...",
        trace.len()
    );
    let report = caribou.run_trace(idx, &trace);
    if let Some(path) = telemetry_path {
        if let Some(finished) = caribou_telemetry::finish() {
            let r = &finished.recorder;
            eprintln!(
                "telemetry: {} event kinds, {} journal entries ({} dropped) -> {path}",
                r.counters.len(),
                r.journal.len(),
                r.journal.dropped()
            );
        }
    }

    println!("invocations:       {}", report.samples.len());
    println!(
        "completed:         {:.2}%",
        report.completion_rate() * 100.0
    );
    println!(
        "workflow carbon:   {:.3} g total",
        report.workflow_carbon_g()
    );
    println!(
        "framework carbon:  {:.4} g total",
        report.framework_carbon_g
    );
    println!("cost:              ${:.4}", report.total_cost_usd());
    println!(
        "latency:           {:.2} s mean / {:.2} s p95",
        report.mean_latency_s(),
        report.p95_latency_s()
    );
    println!(
        "plan generations:  {:?} (hours)",
        report
            .dp_generations
            .iter()
            .map(|t| (t / 3600.0).round())
            .collect::<Vec<_>>()
    );
    let by_region = {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for s in &report.samples {
            let n = region_label(&caribou.cloud, pset, s.majority_region);
            match counts.iter_mut().find(|(r, _)| *r == n) {
                Some((_, c)) => *c += 1,
                None => counts.push((n, 1)),
            }
        }
        counts.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        counts
    };
    println!("majority regions:  {by_region:?}");
    if has_flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.summary_json()).expect("summary serializes")
        );
    }
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<(), CliError> {
    let name = args
        .first()
        .ok_or("usage: caribou loadgen <benchmark> [...]")?;
    let input = input_size(args)?;
    let bench = find_benchmark(name, input)?;
    let invocations: usize = flag(args, "--invocations")
        .map(|v| v.parse().map_err(|e| format!("--invocations: {e}")))
        .transpose()?
        .unwrap_or(100_000);
    if invocations == 0 {
        return Err("--invocations: must be at least 1".into());
    }
    let seed: u64 = flag(args, "--seed")
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let rate: f64 = flag(args, "--rate")
        .map(|v| v.parse().map_err(|e| format!("--rate: {e}")))
        .transpose()?
        .unwrap_or(100.0);
    let arrivals = ArrivalProcess::parse(flag(args, "--arrival").unwrap_or("poisson"), rate)?;
    let shards: usize = flag(args, "--shards")
        .map(|v| v.parse().map_err(|e| format!("--shards: {e}")))
        .transpose()?
        .unwrap_or(caribou_core::loadgen::DEFAULT_SHARDS);
    if shards == 0 {
        return Err("--shards: must be at least 1".into());
    }
    let keep_alive_s: f64 = flag(args, "--keep-alive-s")
        .map(|v| v.parse().map_err(|e| format!("--keep-alive-s: {e}")))
        .transpose()?
        .unwrap_or(caribou_simcloud::warm::DEFAULT_KEEP_ALIVE_S);
    let config = LoadgenConfig {
        invocations,
        seed,
        workers: workers(args)?,
        shards,
        arrivals,
        scenario: scenario(args),
        warm_pool: !has_flag(args, "--no-warm-pool"),
        keep_alive_s,
        capture_latencies: false,
    };
    let telemetry_path = flag(args, "--telemetry");
    if let Some(path) = telemetry_path {
        let sink = caribou_telemetry::JsonlSink::create(path)
            .map_err(|e| format!("--telemetry {path}: {e}"))?;
        caribou_telemetry::enable(Box::new(sink));
    }
    eprintln!(
        "loadgen: {} x {invocations} invocations, seed {seed}, {} worker(s)...",
        bench.dag.name(),
        config.workers
    );
    let wall = std::time::Instant::now();
    let report = run_loadgen(&bench, &config)?;
    let wall_s = wall.elapsed().as_secs_f64();
    if telemetry_path.is_some() {
        caribou_telemetry::finish();
    }

    // The deterministic summary goes to stdout: identical at any worker
    // count, so CI can diff a 1-worker run against an N-worker run.
    println!("benchmark:    {}", bench.dag.name());
    println!("arrival:      {:?}", config.arrivals);
    println!(
        "mode:         persistent ({} shards, {} chunks)",
        report.shards, report.chunks
    );
    println!("invocations:  {}", report.invocations());
    println!(
        "completed:    {} ({:.2}%)",
        report.completed,
        report.completed as f64 / report.invocations() as f64 * 100.0
    );
    println!("failovers:    {}", report.failovers);
    println!(
        "cold starts:  {} ({:.4}% of {} executions)",
        report.cold_starts,
        report.cold_start_rate() * 100.0,
        report.cold_starts + report.warm_starts
    );
    println!("sim span:     {:.1} s", report.span_s);
    println!(
        "latency:      {:.4} s mean / {:.4} s p50 / {:.4} s p95 / {:.4} s p99 / {:.4} s max",
        report.mean_latency_s(),
        report.latency_quantile(0.50),
        report.latency_quantile(0.95),
        report.latency_quantile(0.99),
        report.latency.max()
    );
    println!(
        "carbon:       {:.3} g exec + {:.3} g transmission",
        report.exec_carbon_g, report.trans_carbon_g
    );
    println!("cost:         ${:.4}", report.cost_usd);

    // Perf goes to stderr: wall-clock dependent, excluded from the diff.
    let throughput = report.invocations() as f64 / wall_s;
    eprintln!(
        "wall: {wall_s:.2} s, throughput: {throughput:.0} inv/s, pool utilization: {:.0}%",
        report.pool.utilization() * 100.0
    );
    match peak_rss_kb() {
        Some(kb) => eprintln!("peak rss: {:.1} MB", kb as f64 / 1024.0),
        None => eprintln!("peak rss: unavailable"),
    }
    Ok(())
}

/// Peak resident set size of this process in KiB, from /proc (Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn cmd_chaos(args: &[String]) -> Result<(), CliError> {
    let mut config = caribou_core::ChaosConfig::default();
    if let Some(v) = flag(args, "--seed") {
        config.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    if let Some(v) = flag(args, "--requests") {
        config.requests = v.parse().map_err(|e| format!("--requests: {e}"))?;
    }
    if let Some(v) = flag(args, "--duration-s") {
        config.duration_s = v.parse().map_err(|e| format!("--duration-s: {e}"))?;
    }
    if let Some(v) = flag(args, "--drop") {
        config.drop_prob = v.parse().map_err(|e| format!("--drop: {e}"))?;
        if !(0.0..=1.0).contains(&config.drop_prob) {
            return Err("--drop: probability must be in [0, 1]".into());
        }
    }
    config.breaker_enabled = !has_flag(args, "--no-breaker");
    config.providers = providers(args)?;
    if has_flag(args, "--correlated") {
        return cmd_chaos_correlated(args, config);
    }
    let sweep: usize = flag(args, "--seeds")
        .map(|v| v.parse().map_err(|e| format!("--seeds: {e}")))
        .transpose()?
        .unwrap_or(1);
    if sweep == 0 {
        return Err("--seeds: must be at least 1".into());
    }
    if sweep > 1 {
        return cmd_chaos_sweep(args, config, sweep);
    }

    eprintln!(
        "chaos campaign: seed {} · {} requests over {:.0} s · drop {} · breaker {} · providers {}",
        config.seed,
        config.requests,
        config.duration_s,
        config.drop_prob,
        if config.breaker_enabled { "on" } else { "off" },
        config.providers,
    );
    let report = caribou_core::chaos::run_campaign(&config);

    println!(
        "faults injected:   {} outage(s), {} partition(s), {} gray failure(s), {} KV throttle(s), {} cold storm(s)",
        report.faults.outages,
        report.faults.partitions,
        report.faults.gray_failures,
        report.faults.kv_throttles,
        report.faults.cold_storms,
    );
    println!("requests:          {}", report.requests);
    println!("completed clean:   {}", report.completed_clean);
    println!("fell back home:    {}", report.fell_back_home);
    println!("reported failed:   {}", report.failed);
    println!("breaker reroutes:  {}", report.breaker_reroutes);
    println!(
        "latency:           {:.2} s p50 / {:.2} s p99 / {:.2} s mean",
        report.p50_latency_s, report.p99_latency_s, report.mean_latency_s
    );
    if has_flag(args, "--json") {
        println!(
            "{}",
            serde_json::json!({
                "seed": config.seed,
                "requests": report.requests,
                "completed_clean": report.completed_clean,
                "fell_back_home": report.fell_back_home,
                "failed": report.failed,
                "breaker_reroutes": report.breaker_reroutes,
                "p50_latency_s": report.p50_latency_s,
                "p99_latency_s": report.p99_latency_s,
                "mean_latency_s": report.mean_latency_s,
                "violations": report.violations,
            })
        );
    }
    if report.ok() {
        println!("invariants:        all upheld");
        Ok(())
    } else {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        Err(format!(
            "{} invariant violation(s) detected",
            report.violations.len()
        )
        .into())
    }
}

/// `caribou chaos --correlated`: campaign under correlated fault classes
/// (provider-wide outages, shared failure domains, carbon-data outages)
/// with optional precomputed-contingency failover. `--contingency K`
/// arms a K-entry fallback table and appends a paired comparison against
/// the re-route-home baseline (same seed, same faults, no table).
/// `--scenario provider-outage` swaps the randomized fault plan for the
/// pinned seeded provider-wide outage (EXPERIMENTS.md "Contingency").
fn cmd_chaos_correlated(
    args: &[String],
    mut config: caribou_core::ChaosConfig,
) -> Result<(), CliError> {
    config.contingency = flag(args, "--contingency")
        .map(|v| v.parse().map_err(|e| format!("--contingency: {e}")))
        .transpose()?
        .unwrap_or(0);
    config.workers = workers(args)?;
    let scenario = match flag(args, "--scenario") {
        None => false,
        Some("provider-outage") => true,
        Some(s) => {
            return Err(format!("--scenario: unknown scenario `{s}` (try provider-outage)").into())
        }
    };
    let run = |c: &caribou_core::ChaosConfig| {
        if scenario {
            caribou_core::chaos::run_provider_outage_scenario(c)
        } else {
            caribou_core::chaos::run_correlated_campaign(c)
        }
    };

    eprintln!(
        "correlated chaos: seed {} · {} requests over {:.0} s · contingency {} · providers {} · {} worker(s)",
        config.seed,
        config.requests,
        config.duration_s,
        config.contingency,
        config.providers,
        config.workers.max(1),
    );
    let report = run(&config);

    println!(
        "correlated faults: {} provider outage(s), {} failure domain(s), {} carbon-data outage(s)",
        report.correlated.provider_outages,
        report.correlated.failure_domains,
        report.correlated.carbon_outages,
    );
    println!(
        "contingency table: {} fallback entries",
        report.contingency_entries
    );
    println!("requests:          {}", report.base.requests);
    println!("completed clean:   {}", report.base.completed_clean);
    println!("fell back home:    {}", report.base.fell_back_home);
    println!("reported failed:   {}", report.base.failed);
    println!("breaker reroutes:  {}", report.base.breaker_reroutes);
    println!("fallback routed:   {}", report.fallback_routed);
    println!("recovery probes:   {}", report.probe_requests);
    println!(
        "latency:           {:.2} s p50 / {:.2} s p99 / {:.2} s mean",
        report.base.p50_latency_s, report.base.p99_latency_s, report.base.mean_latency_s
    );
    println!("carbon:            {:.3} g total", report.total_carbon_g);
    let (fresh, lkg, yearly) = report.stale_queries;
    println!("carbon queries:    {fresh} fresh / {lkg} last-known-good / {yearly} yearly-average");

    if config.contingency > 0 {
        let mut base_cfg = config;
        base_cfg.contingency = 0;
        let baseline = run(&base_cfg);
        println!(
            "vs re-route-home:  p99 {:.2} s -> {:.2} s · carbon {:.3} g -> {:.3} g",
            baseline.base.p99_latency_s,
            report.base.p99_latency_s,
            baseline.total_carbon_g,
            report.total_carbon_g,
        );
    }

    if report.base.ok() {
        println!("invariants:        all upheld");
        Ok(())
    } else {
        for v in &report.base.violations {
            eprintln!("VIOLATION: {v}");
        }
        Err(format!(
            "{} invariant violation(s) detected",
            report.base.violations.len()
        )
        .into())
    }
}

/// `caribou chaos --seeds K`: K independent campaigns on consecutive
/// seeds, fanned across the worker pool. Each campaign is a pure function
/// of its config, so the sweep's output is identical at any `--workers`.
fn cmd_chaos_sweep(
    args: &[String],
    base: caribou_core::ChaosConfig,
    sweep: usize,
) -> Result<(), CliError> {
    let w = workers(args)?;
    eprintln!(
        "chaos sweep: seeds {}..{} · {} requests over {:.0} s each · {} worker(s)",
        base.seed,
        base.seed + sweep as u64 - 1,
        base.requests,
        base.duration_s,
        w,
    );
    let (reports, _stats) = pool::map_indexed(w, sweep, |i| {
        let mut config = base;
        config.seed = base.seed + i as u64;
        caribou_core::chaos::run_campaign(&config)
    });

    println!(
        "{:<8}{:>10}{:>8}{:>10}{:>8}{:>10}{:>10}{:>12}",
        "seed", "requests", "clean", "fallback", "failed", "reroutes", "p50 (s)", "p99 (s)"
    );
    let mut violations: Vec<String> = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        let seed = base.seed + i as u64;
        println!(
            "{:<8}{:>10}{:>8}{:>10}{:>8}{:>10}{:>10.2}{:>12.2}",
            seed,
            r.requests,
            r.completed_clean,
            r.fell_back_home,
            r.failed,
            r.breaker_reroutes,
            r.p50_latency_s,
            r.p99_latency_s,
        );
        violations.extend(r.violations.iter().map(|v| format!("seed {seed}: {v}")));
    }
    let total_requests: u64 = reports.iter().map(|r| u64::from(r.requests)).sum();
    let total_failed: u64 = reports.iter().map(|r| u64::from(r.failed)).sum();
    println!(
        "total:             {} requests, {} reported failed across {} campaigns",
        total_requests, total_failed, sweep
    );
    if has_flag(args, "--json") {
        let per_seed: Vec<serde_json::Value> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                serde_json::json!({
                    "seed": base.seed + i as u64,
                    "requests": r.requests,
                    "completed_clean": r.completed_clean,
                    "fell_back_home": r.fell_back_home,
                    "failed": r.failed,
                    "breaker_reroutes": r.breaker_reroutes,
                    "p50_latency_s": r.p50_latency_s,
                    "p99_latency_s": r.p99_latency_s,
                    "violations": r.violations,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({ "campaigns": per_seed }))
                .expect("sweep serializes")
        );
    }
    if violations.is_empty() {
        println!("invariants:        all upheld in every campaign");
        Ok(())
    } else {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        Err(format!(
            "{} invariant violation(s) detected across the sweep",
            violations.len()
        )
        .into())
    }
}

/// `caribou fleet`: the multi-tenant fleet re-plan campaign.
///
/// Solves `--apps` heterogeneous DAG apps for `--hours` simulated hours
/// through one shared cross-app estimate cache. Deterministic results
/// (schedule digest, cell counts, carbon totals) go to stdout — identical
/// at any `--workers` value, so CI diffs a 1-worker run against a
/// K-worker run. Wall-clock throughput and (slightly racy under parallel
/// misses) cache tallies go to stderr.
fn cmd_fleet(args: &[String]) -> Result<(), CliError> {
    use caribou_core::fleet::{
        parse_perturb, replan_incremental, solve_fleet, FleetConfig, FleetEnv,
    };
    use caribou_solver::engine::EstimateCache;
    use caribou_workloads::fleet::generate_fleet;

    if has_flag(args, "--help") || has_flag(args, "-h") {
        print!("{FLEET_USAGE}");
        return Ok(());
    }
    let mut cfg = FleetConfig {
        workers: workers(args)?,
        ..FleetConfig::default()
    };
    if let Some(v) = flag(args, "--apps") {
        cfg.apps = v.parse().map_err(|e| format!("--apps: {e}"))?;
    }
    if let Some(v) = flag(args, "--hours") {
        cfg.hours = v.parse().map_err(|e| format!("--hours: {e}"))?;
    }
    if let Some(v) = flag(args, "--seed") {
        cfg.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    if let Some(v) = flag(args, "--capacity") {
        cfg.cache_capacity = v.parse().map_err(|e| format!("--capacity: {e}"))?;
    }
    if cfg.apps == 0 || cfg.hours == 0 {
        return Err("--apps and --hours must be at least 1".into());
    }
    let telemetry_path = flag(args, "--telemetry");
    if let Some(path) = telemetry_path {
        let sink = caribou_telemetry::JsonlSink::create(path)
            .map_err(|e| format!("--telemetry {path}: {e}"))?;
        caribou_telemetry::enable(Box::new(sink));
    }

    let pset = providers(args)?;
    let env = FleetEnv::for_providers(cfg.seed, cfg.hours, pset).map_err(|e| e.to_string())?;
    let apps = generate_fleet(cfg.seed, cfg.apps, &env.universe);
    let perturbs = flag(args, "--perturb")
        .map(|spec| parse_perturb(spec, &env.cloud.regions, &env.universe, cfg.hours))
        .transpose()?;

    eprintln!(
        "fleet: {} apps x {} hours, seed {}, {} worker(s), cache capacity {}...",
        cfg.apps, cfg.hours, cfg.seed, cfg.workers, cfg.cache_capacity
    );
    let cache = EstimateCache::shared(cfg.cache_capacity);
    let wall = std::time::Instant::now();
    let full = solve_fleet(&apps, &env, &cfg, &cache);
    let wall_s = wall.elapsed().as_secs_f64();

    println!("fleet:             {} apps x {} hours", cfg.apps, cfg.hours);
    println!("schedule digest:   {:016x}", full.schedule.digest());
    println!(
        "cells solved:      {} ({} reused)",
        full.solved_cells, full.reused_cells
    );
    println!(
        "schedule carbon:   {:.3} g/invocation-hour (fleet sum)",
        full.schedule.total_carbon_mean()
    );
    println!("solve footprint:   {:.4} g modeled", full.solve_carbon_g);
    let hits = cache.hit_count();
    let misses = cache.miss_count();
    eprintln!(
        "wall: {wall_s:.2} s, throughput: {:.0} app-hours/s",
        full.solved_cells as f64 / wall_s
    );
    eprintln!(
        "cache: {hits} hits / {misses} misses ({:.1}% hit rate), {} entries, {} evicted",
        hits as f64 / (hits + misses).max(1) as f64 * 100.0,
        cache.len(),
        cache.eviction_count()
    );

    if let Some(perturbs) = perturbs {
        let mut revised =
            FleetEnv::for_providers(cfg.seed, cfg.hours, pset).map_err(|e| e.to_string())?;
        revised.apply_perturbations(&perturbs);
        let wall = std::time::Instant::now();
        let inc = replan_incremental(&apps, &revised, &cfg, &cache, &full.schedule, &perturbs);
        let inc_wall_s = wall.elapsed().as_secs_f64();

        println!("-- incremental re-solve after forecast revision --");
        println!("revisions:         {}", perturbs.len());
        println!("apps invalidated:  {} of {}", inc.dirty_apps, cfg.apps);
        let index = caribou_core::fleet::DependencyIndex::build(&apps);
        for (h, n) in &index.dirty_cells(&revised.universe, &perturbs).per_hour {
            println!("  hour {h:>2}: {n} app(s) re-planned");
        }
        println!(
            "cells re-solved:   {} ({} reused verbatim)",
            inc.solved_cells, inc.reused_cells
        );
        println!(
            "cache invalidated: {} entries",
            inc.cache_entries_invalidated
        );
        println!("schedule digest:   {:016x}", inc.schedule.digest());
        println!(
            "solve footprint:   {:.4} g modeled ({:.4} g saved vs full re-plan)",
            inc.solve_carbon_g, inc.saved_solve_carbon_g
        );
        eprintln!(
            "incremental wall: {inc_wall_s:.2} s, throughput: {:.0} app-hours/s",
            inc.solved_cells.max(1) as f64 / inc_wall_s
        );

        if has_flag(args, "--verify") {
            let scratch_cache = EstimateCache::shared(cfg.cache_capacity);
            let scratch = solve_fleet(&apps, &revised, &cfg, &scratch_cache);
            if scratch.schedule == inc.schedule {
                println!("verify:            incremental == from-scratch (bit-identical)");
            } else {
                if telemetry_path.is_some() {
                    caribou_telemetry::finish();
                }
                return Err(format!(
                    "verify FAILED: incremental digest {:016x} != from-scratch {:016x}",
                    inc.schedule.digest(),
                    scratch.schedule.digest()
                )
                .into());
            }
        }
    }
    if telemetry_path.is_some() {
        caribou_telemetry::finish();
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .ok_or("usage: caribou trace <journal.jsonl> [--limit N]")?;
    let limit: usize = flag(args, "--limit")
        .map(|v| v.parse().map_err(|e| format!("--limit: {e}")))
        .transpose()?
        .unwrap_or(60);
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines = caribou_telemetry::replay::parse_journal(&text);
    if lines.is_empty() {
        return Err(format!("{path}: no telemetry records found").into());
    }
    print!(
        "{}",
        caribou_telemetry::replay::render_timeline(&lines, limit)
    );
    println!();
    print!("{}", caribou_telemetry::replay::render_summary(&lines));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["plan", "dna", "--hour", "12", "--worst-case"]);
        assert_eq!(flag(&a, "--hour"), Some("12"));
        assert_eq!(flag(&a, "--days"), None);
        assert!(has_flag(&a, "--worst-case"));
        assert!(!has_flag(&a, "--json"));
        // A flag at the end without a value yields None.
        let b = args(&["plan", "--hour"]);
        assert_eq!(flag(&b, "--hour"), None);
    }

    #[test]
    fn input_size_parsing() {
        assert_eq!(input_size(&args(&[])).unwrap(), InputSize::Small);
        assert_eq!(
            input_size(&args(&["--input", "large"])).unwrap(),
            InputSize::Large
        );
        assert!(input_size(&args(&["--input", "huge"])).is_err());
    }

    #[test]
    fn benchmark_lookup_is_fuzzy() {
        assert_eq!(
            find_benchmark("dna", InputSize::Small).unwrap().name,
            "DNA Visualization"
        );
        assert_eq!(
            find_benchmark("text2speech", InputSize::Small)
                .unwrap()
                .name,
            "Text2Speech Censoring"
        );
        assert_eq!(
            find_benchmark("video-analytics", InputSize::Large)
                .unwrap()
                .name,
            "Video Analytics"
        );
        assert!(find_benchmark("pacman", InputSize::Small).is_err());
    }

    #[test]
    fn scenario_parsing() {
        assert_eq!(
            scenario(&args(&["--worst-case"])),
            TransmissionScenario::WORST
        );
        assert_eq!(scenario(&args(&[])), TransmissionScenario::BEST);
    }
}
