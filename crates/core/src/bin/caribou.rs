//! The `caribou` command-line utility — the Rust analogue of the paper's
//! Deployment Utility CLI (§6.1, §8).
//!
//! Every subcommand is one row of [`COMMANDS`]: its operands, its flag
//! table (name, value type, default, one-line help) and the function that
//! runs it. The `flags` module checks the argument list against that row
//! once — an unknown flag, a missing or unparsable value or a stray
//! operand is exit 1, naming the flag — and renders `caribou --help` and
//! `caribou <command> --help` from it; README.md's CLI reference is that
//! output. Argument parsing is hand-rolled to keep the dependency surface
//! at the workspace's approved set.

use std::fs::File;
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
use caribou_telemetry::JsonlSink;
use caribou_workloads::arrivals::ArrivalProcess;
use caribou_workloads::benchmarks::{all_benchmarks, Benchmark, InputSize};
use caribou_workloads::traces::uniform_trace;

#[path = "caribou/flags.rs"]
mod flags;
use flags::Kind::{Count, Int, Positive, Real, Switch, Text};
use flags::{Command, Flag, Parsed};

/// The flag and command tables, kept one row a line.
#[rustfmt::skip]
mod table {
    use super::*;

    const fn row(name: &'static str, kind: flags::Kind, default: &'static str, help: &'static str) -> Flag {
        Flag { name, kind, default, help }
    }

    pub const INPUT: Flag = row("--input", Text("small|large"), "small", "benchmark input size");
    pub const WORST_CASE: Flag = row("--worst-case", Switch, "", "worst-case transmission carbon (default: best-case)");
    pub const WORKERS: Flag = row("--workers", Count, "1", "worker threads; results are bit-identical at any value");
    pub const SIM_WORKERS: Flag = row("--workers", Count, "", "solver threads (default: all cores); results do not change");
    pub const PROVIDERS: Flag = row("--providers", Text("aws[,gcp]"), "aws", "provider backends whose regions are candidates");
    pub const TELEMETRY: Flag = row("--telemetry", Text("<out.jsonl>"), "", "record the run's telemetry to a JSONL journal");
    pub const JSON: Flag = row("--json", Switch, "", "also print the report's machine-readable summary");
    pub const ZONE: Flag = row("--zone", Text("<grid-zone>"), "", "print a grid zone instead of a region");
    pub const CARBON_HOURS: Flag = row("--hours", Count, "48", "hours to print");
    pub const HOUR: Flag = row("--hour", Real, "12.5", "hour of the carbon week to plan for");
    pub const HOURLY: Flag = row("--hourly", Switch, "", "solve the 24-hour schedule of that hour's day");
    pub const PLAN_CONTINGENCY: Flag = row("--contingency", Int, "0", "with --hourly: ranked fallback plan sets to append");
    pub const DAYS: Flag = row("--days", Positive, "2", "simulated days");
    pub const PER_DAY: Flag = row("--per-day", Positive, "1500", "invocations per simulated day");
    pub const INVOCATIONS: Flag = row("--invocations", Count, "100000", "invocations to drive");
    pub const LOAD_SEED: Flag = row("--seed", Int, "42", "master seed");
    pub const ARRIVAL: Flag = row("--arrival", Text("poisson|diurnal|bursty"), "poisson", "arrival process");
    pub const RATE: Flag = row("--rate", Real, "100", "mean arrivals per second");
    pub const SHARDS: Flag = row("--shards", Count, "8", "persistent shard clouds (part of the result contract)");
    pub const CHAOS_SEED: Flag = row("--seed", Int, "42", "master seed of the cloud, the fault plan and every request");
    pub const REQUESTS: Flag = row("--requests", Count, "500", "requests replayed, evenly spaced over the campaign");
    pub const DURATION_S: Flag = row("--duration-s", Positive, "21600", "campaign length, simulated seconds");
    pub const DROP: Flag = row("--drop", Real, "0.02", "per-attempt message-drop probability in [0, 1]");
    pub const NO_BREAKER: Flag = row("--no-breaker", Switch, "", "run without the per-region circuit breaker");
    pub const CORRELATED: Flag = row("--correlated", Switch, "", "correlated fault classes and contingency failover");
    pub const CHAOS_CONTINGENCY: Flag = row("--contingency", Int, "0", "with --correlated: precomputed fallback plan sets");
    pub const SCENARIO: Flag = row("--scenario", Text("provider-outage"), "", "with --correlated: the pinned scenario, no random plan");
    pub const APPS: Flag = row("--apps", Count, "24", "fleet size: seeded heterogeneous DAG apps");
    pub const FLEET_HOURS: Flag = row("--hours", Count, "24", "simulated hours to re-plan each app for");
    pub const FLEET_SEED: Flag = row("--seed", Int, "7", "master seed for generation, evaluation and walks");
    pub const CAPACITY: Flag = row("--capacity", Int, "1048576", "shared cross-app estimate-cache capacity, entries");
    pub const PERTURB: Flag = row("--perturb", Text("<spec>"), "", "forecast revisions to re-solve incrementally");
    pub const VERIFY: Flag = row("--verify", Switch, "", "with --perturb: fail unless a from-scratch re-solve agrees");
    pub const LIMIT: Flag = row("--limit", Int, "60", "timeline events to print");

    pub const COMMANDS: &[Command] = &[
        Command { name: "benchmarks", operands: &[], about: "list the paper's benchmark workflows",
            flags: &[], notes: "", run: cmd_benchmarks },
        Command { name: "manifest", operands: &["example|validate", "[<file.json>]"],
            about: "print a starter deployment manifest, or validate one",
            flags: &[], notes: "", run: cmd_manifest },
        Command { name: "carbon", operands: &["[<region>]"],
            about: "print a region's or a grid zone's hourly carbon intensity",
            flags: &[ZONE, CARBON_HOURS], notes: "", run: cmd_carbon },
        Command { name: "plan", operands: &["<benchmark>"], about: "solve a benchmark's deployment plan",
            flags: &[INPUT, HOUR, WORST_CASE, HOURLY, PLAN_CONTINGENCY, WORKERS, PROVIDERS],
            notes: PROVIDERS_NOTE, run: cmd_plan },
        Command { name: "simulate", operands: &["<benchmark>"],
            about: "run the full framework loop over a uniform trace",
            flags: &[INPUT, DAYS, PER_DAY, WORST_CASE, TELEMETRY, SIM_WORKERS, JSON, PROVIDERS],
            notes: PROVIDERS_NOTE, run: cmd_simulate },
        Command { name: "loadgen", operands: &["<benchmark>"], about: "sustained open-loop load on the home plan",
            flags: &[INVOCATIONS, LOAD_SEED, WORKERS, ARRIVAL, RATE, SHARDS, INPUT, WORST_CASE, TELEMETRY],
            notes: "", run: cmd_loadgen },
        Command { name: "chaos", operands: &[], about: "seeded fault campaign with invariant checking",
            flags: &[CHAOS_SEED, REQUESTS, DURATION_S, DROP, NO_BREAKER, CORRELATED, CHAOS_CONTINGENCY, SCENARIO,
                WORKERS, PROVIDERS],
            notes: PROVIDERS_NOTE, run: cmd_chaos },
        Command { name: "fleet", operands: &[], about: "multi-tenant fleet re-plan with incremental re-solve",
            flags: &[APPS, FLEET_HOURS, WORKERS, FLEET_SEED, CAPACITY, PERTURB, VERIFY, TELEMETRY, PROVIDERS],
            notes: FLEET_NOTE, run: cmd_fleet },
        Command { name: "trace", operands: &["<journal.jsonl>"], about: "replay a telemetry journal",
            flags: &[LIMIT], notes: "", run: cmd_trace },
    ];
}
use table::COMMANDS;

const PROVIDERS_NOTE: &str = "
PROVIDERS:
    The default `aws` replays the single-provider substrate byte-for-byte;
    `aws,gcp` widens the candidate universe with the GCP backend's regions
    so plans may split one DAG across providers. Regions can be
    provider-qualified anywhere a region name is accepted
    (`aws:us-east-1`, `gcp:us-west1`).
";

const FLEET_NOTE: &str = "
PERTURBATION SPEC (comma-separated terms):
    h<HOUR>[:<region>](*FACTOR|+DELTA|-DELTA)
    h7*1.5               hour 7, all regions, carbon intensity x1.5
    h7:us-west-2+120     hour 7, us-west-2 only, +120 gCO2eq/kWh
    h3:ca-central-1*2,h18-40
                         several revisions at once; a trailing -DELTA is
                         parsed after the hyphenated region name

With --perturb, the fleet is first solved on the base forecast, then only
the apps whose permitted regions read a revised input re-enter the solver.
Deterministic results (schedule digest, cell counts, carbon totals,
per-hour invalidation counts) print to stdout; wall-clock throughput
(app-hours/s) and cache statistics print to stderr.
";

/// The text of `caribou --help`.
fn usage() -> String {
    let mut out = String::from(
        "caribou — carbon-aware geospatial shifting of serverless workflows\n\n\
         USAGE:\n    caribou <command> [operands] [flags]\n    caribou <command> --help\n\n\
         COMMANDS:\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("    {:<42}{}\n", &c.synopsis()[8..], c.about));
    }
    out
}

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
        message.to_string().into()
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
        None | Some("--help" | "-h") => {
            print!("{}", usage());
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            None => Err(format!("unknown command `{name}`\n\n{}", usage()).into()),
            Some(command) => match command.parse(&args[1..]) {
                Ok(Some(parsed)) => (command.run)(&parsed),
                Ok(None) => {
                    print!("{}", command.help());
                    Ok(())
                }
                Err(message) => Err(message.into()),
            },
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.exit)
        }
    }
}

/// Parses `--providers aws[,gcp]`.
fn providers(p: &Parsed) -> Result<ProviderSet, String> {
    let spec = p.text("--providers").expect("has a default");
    ProviderSet::parse(spec).map_err(|e| format!("--providers: {e}"))
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

fn input_size(p: &Parsed) -> Result<InputSize, String> {
    match p.text("--input").expect("has a default") {
        "small" => Ok(InputSize::Small),
        "large" => Ok(InputSize::Large),
        other => Err(format!(
            "--input: unknown input size `{other}` (small|large)"
        )),
    }
}

fn scenario(p: &Parsed) -> TransmissionScenario {
    if p.has("--worst-case") {
        TransmissionScenario::WORST
    } else {
        TransmissionScenario::BEST
    }
}

/// The benchmark a command's first operand names, at its `--input` size.
fn benchmark(p: &Parsed) -> Result<Benchmark, String> {
    find_benchmark(&p.operands[0], input_size(p)?)
}

/// Runs `run` inside the `--telemetry` session when the flag is given:
/// the JSONL journal is opened before and finished (flushed, summarized on
/// stderr) after, whatever `run` returns.
fn traced<T>(p: &Parsed, run: impl FnOnce() -> T) -> Result<T, String> {
    let Some(path) = p.text("--telemetry") else {
        return Ok(run());
    };
    let sink = JsonlSink::create(path).map_err(|e| format!("--telemetry {path}: {e}"))?;
    caribou_telemetry::enable(Box::new(sink));
    let out = run();
    if let Some(finished) = caribou_telemetry::finish() {
        let sink = finished.sink.as_any().downcast_ref::<JsonlSink<File>>();
        if let Some(e) = sink.and_then(JsonlSink::error) {
            return Err(format!("--telemetry {path}: {e}"));
        }
        let r = &finished.recorder;
        eprintln!(
            "telemetry: {} event kinds, {} journal entries ({} dropped) -> {path}",
            r.counters.len(),
            r.journal.len(),
            r.journal.dropped()
        );
    }
    Ok(out)
}

/// The closing line of a chaos campaign: every invariant upheld, or each
/// violation on stderr and exit 1.
fn verdict(violations: &[String]) -> Result<(), CliError> {
    if violations.is_empty() {
        println!("invariants:        all upheld");
        return Ok(());
    }
    for v in violations {
        eprintln!("VIOLATION: {v}");
    }
    Err(format!("{} invariant violation(s) detected", violations.len()).into())
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

fn cmd_benchmarks(_: &Parsed) -> Result<(), CliError> {
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

fn cmd_manifest(p: &Parsed) -> Result<(), CliError> {
    match (p.operands[0].as_str(), p.operands.get(1)) {
        ("example", None) => {
            println!(
                "{}",
                DeploymentManifest::new("my_workflow", "1.0", "us-east-1").to_json()
            );
            Ok(())
        }
        ("validate", Some(path)) => {
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
        _ => Err("usage: caribou manifest example | caribou manifest validate <file.json>".into()),
    }
}

fn cmd_carbon(p: &Parsed) -> Result<(), CliError> {
    let synth = grid(CARBON_EPOCH);
    let print = |title: String, at: &dyn Fn(f64) -> Result<f64, CarbonError>| {
        println!("hour  gCO2eq/kWh   ({title})");
        for h in 0..p.count("--hours") {
            let v = at(h as f64 + 0.5)?;
            let bar = "#".repeat((v / 12.0) as usize);
            println!("{h:>4}  {v:>10.1}   {bar}");
        }
        Ok(())
    };
    if let Some(zone) = p.text("--zone") {
        return print(format!("grid zone {zone}"), &|h| {
            synth.zone_intensity(zone, h)
        });
    }
    let region_name = p
        .operands
        .first()
        .ok_or("usage: caribou carbon <region> [--hours N], or --zone <grid-zone>")?;
    let catalog = caribou_model::region::RegionCatalog::multi_cloud();
    let region = catalog.resolve(region_name).map_err(|e| CliError {
        message: e.to_string(),
        exit: 2,
    })?;
    let source = RegionalSource::new(&catalog, synth)?;
    let title = format!("{region_name}: grid {}", catalog.spec(region).grid_zone);
    print(title, &|h| Ok(source.intensity(region, h)))
}

fn cmd_plan(p: &Parsed) -> Result<(), CliError> {
    if p.count("--contingency") > 0 && !p.has("--hourly") {
        return Err("--contingency: needs --hourly, the schedule it appends fallbacks to".into());
    }
    let hour = p.real("--hour");
    let bench = benchmark(p)?;
    let input = input_size(p)?;

    let pset = providers(p)?;
    let world = world_for(pset)?;
    let (cloud, regions) = (&world.cloud, &world.regions);
    let constraints = cli_constraints(&bench);
    let permitted = constraints
        .permitted_regions(&bench.dag, regions, &cloud.regions, world.home)
        .map_err(|e| e.to_string())?;
    let day_start = (hour / 24.0).floor() * 24.0;
    let forecast = ForecastingSource::fit(&world.carbon, regions, day_start, 48);
    let case = world.case(&bench, scenario(p), MonteCarloConfig::default());
    let ctx = case.context(&permitted, constraints.tolerances, &forecast);
    let engine = EvalEngine::new(7, p.count("--workers"));
    if p.has("--hourly") {
        // Full 24-hour schedule through the deterministic evaluation
        // engine: stdout is bit-identical at any --workers value (pool and
        // cache statistics go to stderr), which scripts/check.sh exploits
        // to smoke-test solver determinism. With --contingency K the
        // schedule prefix stays byte-identical (the primary solve consumes
        // the same RNG prefix) and K ranked fallback entries are appended.
        let k = p.count("--contingency");
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

fn cmd_simulate(p: &Parsed) -> Result<(), CliError> {
    let (days, per_day) = (p.real("--days"), p.real("--per-day"));
    // The trace's first arrival slot opens 30 s in.
    if days * 86_400.0 <= 30.0 {
        return Err("--days: the window must outlast the trace's 30 s lead-in".into());
    }
    let bench = benchmark(p)?;

    let pset = providers(p)?;
    let World {
        cloud,
        regions,
        carbon,
        home,
    } = world_for(pset)?;
    let mut config = CaribouConfig::new(regions, scenario(p));
    if p.has("--workers") {
        config.workers = p.count("--workers");
    }
    let mut caribou = Caribou::new(cloud, carbon, config);
    let app = workflow_app(&bench, home);
    let manifest = DeploymentManifest::new(&*app.name, "1.0", HOME);
    let idx = caribou
        .deploy(app, &manifest, cli_constraints(&bench))
        .map_err(|e| e.to_string())?;
    let trace = uniform_trace(30.0, days * 86_400.0, per_day);
    eprintln!(
        "simulating {} invocations over {days} day(s)...",
        trace.len()
    );
    let report = traced(p, || caribou.run_trace(idx, &trace))?;

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
    if p.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.summary_json()).expect("summary serializes")
        );
    }
    Ok(())
}

fn cmd_loadgen(p: &Parsed) -> Result<(), CliError> {
    let bench = benchmark(p)?;
    let (invocations, seed) = (p.count("--invocations"), p.int("--seed"));
    let arrival = p.text("--arrival").expect("has a default");
    let config = LoadgenConfig {
        invocations,
        seed,
        workers: p.count("--workers"),
        shards: p.count("--shards"),
        arrivals: ArrivalProcess::parse(arrival, p.real("--rate"))?,
        scenario: scenario(p),
    };
    eprintln!(
        "loadgen: {} x {invocations} invocations, seed {seed}, {} worker(s)...",
        bench.dag.name(),
        config.workers
    );
    let wall = std::time::Instant::now();
    let report = traced(p, || run_loadgen(&bench, &config))??;
    let wall_s = wall.elapsed().as_secs_f64();

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

fn cmd_chaos(p: &Parsed) -> Result<(), CliError> {
    let config = caribou_core::ChaosConfig {
        seed: p.int("--seed"),
        requests: u32::try_from(p.int("--requests")).map_err(|e| format!("--requests: {e}"))?,
        duration_s: p.real("--duration-s"),
        breaker_enabled: !p.has("--no-breaker"),
        drop_prob: p.real("--drop"),
        providers: providers(p)?,
        contingency: p.count("--contingency"),
        workers: p.count("--workers"),
    };
    if !(0.0..=1.0).contains(&config.drop_prob) {
        return Err("--drop: probability must be in [0, 1]".into());
    }
    if p.has("--correlated") {
        return cmd_chaos_correlated(p, config);
    }
    if p.has("--scenario") {
        return Err("--scenario: needs --correlated, the campaign it pins".into());
    }
    if config.contingency > 0 {
        return Err("--contingency: needs --correlated, the campaign that fails over to it".into());
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
    print_outcomes(&report, false);
    verdict(&report.violations)
}

/// The requests and how they ended, as both campaigns print them; with
/// `failover`, the correlated campaign's routing counts join the block.
fn print_outcomes(report: &caribou_core::ChaosReport, failover: bool) {
    println!("requests:          {}", report.requests);
    println!("completed clean:   {}", report.completed_clean);
    println!("fell back home:    {}", report.fell_back_home);
    println!("reported failed:   {}", report.failed);
    println!("breaker reroutes:  {}", report.breaker_reroutes);
    if failover {
        println!("fallback routed:   {}", report.fallback_routed);
        println!("recovery probes:   {}", report.probe_requests);
    }
    println!(
        "latency:           {:.2} s p50 / {:.2} s p99 / {:.2} s mean",
        report.p50_latency_s, report.p99_latency_s, report.mean_latency_s
    );
}

/// `caribou chaos --correlated`. With `--contingency K` the report ends in
/// a paired comparison against the re-route-home baseline (same seed, same
/// faults, no table); `--scenario provider-outage` is the pinned outage of
/// EXPERIMENTS.md "Contingency".
fn cmd_chaos_correlated(p: &Parsed, config: caribou_core::ChaosConfig) -> Result<(), CliError> {
    let scenario = match p.text("--scenario") {
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
        report.faults.provider_outages, report.faults.failure_domains, report.faults.carbon_outages,
    );
    println!(
        "contingency table: {} fallback entries",
        report.contingency_entries
    );
    print_outcomes(&report, true);
    println!("carbon:            {:.3} g total", report.total_carbon_g);
    let (fresh, lkg, yearly) = report.stale_queries;
    println!("carbon queries:    {fresh} fresh / {lkg} last-known-good / {yearly} yearly-average");

    if config.contingency > 0 {
        let mut base_cfg = config;
        base_cfg.contingency = 0;
        let baseline = run(&base_cfg);
        println!(
            "vs re-route-home:  p99 {:.2} s -> {:.2} s · carbon {:.3} g -> {:.3} g",
            baseline.p99_latency_s,
            report.p99_latency_s,
            baseline.total_carbon_g,
            report.total_carbon_g,
        );
    }

    verdict(&report.violations)
}

/// `caribou fleet`: deterministic results go to stdout — identical at any
/// `--workers` value, so CI diffs a 1-worker run against a K-worker run;
/// wall-clock throughput and (slightly racy under parallel misses) cache
/// tallies go to stderr.
fn cmd_fleet(p: &Parsed) -> Result<(), CliError> {
    use caribou_core::fleet::FleetConfig;

    let cfg = FleetConfig {
        apps: p.count("--apps"),
        hours: p.count("--hours"),
        workers: p.count("--workers"),
        seed: p.int("--seed"),
        cache_capacity: p.count("--capacity"),
        ..FleetConfig::default()
    };
    let pset = providers(p)?;
    if p.has("--verify") && !p.has("--perturb") {
        return Err("--verify: needs --perturb, the revision whose re-solve it checks".into());
    }
    traced(p, || {
        run_fleet(&cfg, pset, p.text("--perturb"), p.has("--verify"))
    })?
}

/// The body of `caribou fleet`, inside the telemetry session.
fn run_fleet(
    cfg: &caribou_core::fleet::FleetConfig,
    pset: ProviderSet,
    perturb: Option<&str>,
    verify: bool,
) -> Result<(), CliError> {
    use caribou_core::fleet::{parse_perturb, replan_incremental, solve_fleet, FleetEnv};
    use caribou_solver::engine::EstimateCache;
    use caribou_workloads::fleet::generate_fleet;

    let env = FleetEnv::for_providers(cfg.seed, cfg.hours, pset).map_err(|e| e.to_string())?;
    let apps = generate_fleet(cfg.seed, cfg.apps, &env.universe);
    let perturbs = perturb
        .map(|spec| parse_perturb(spec, &env.cloud.regions, &env.universe, cfg.hours))
        .transpose()?;

    eprintln!(
        "fleet: {} apps x {} hours, seed {}, {} worker(s), cache capacity {}...",
        cfg.apps, cfg.hours, cfg.seed, cfg.workers, cfg.cache_capacity
    );
    let cache = EstimateCache::shared(cfg.cache_capacity);
    let wall = std::time::Instant::now();
    let full = solve_fleet(&apps, &env, cfg, &cache);
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
        let inc = replan_incremental(&apps, &revised, cfg, &cache, &full.schedule, &perturbs);
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

        if verify {
            let scratch_cache = EstimateCache::shared(cfg.cache_capacity);
            let scratch = solve_fleet(&apps, &revised, cfg, &scratch_cache);
            if scratch.schedule != inc.schedule {
                return Err(format!(
                    "verify FAILED: incremental digest {:016x} != from-scratch {:016x}",
                    inc.schedule.digest(),
                    scratch.schedule.digest()
                )
                .into());
            }
            println!("verify:            incremental == from-scratch (bit-identical)");
        }
    }
    Ok(())
}

fn cmd_trace(p: &Parsed) -> Result<(), CliError> {
    let (path, limit) = (&p.operands[0], p.count("--limit"));
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

    fn parse(command: &str, v: &[&str]) -> Result<Option<Parsed>, String> {
        let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        let command = COMMANDS.iter().find(|c| c.name == command).unwrap();
        command.parse(&args)
    }

    fn parsed(command: &str, v: &[&str]) -> Parsed {
        parse(command, v).unwrap().expect("not a help request")
    }

    #[test]
    fn flag_parsing() {
        let p = parsed("plan", &["dna", "--hour", "-3", "--worst-case"]);
        assert_eq!((p.operands[0].as_str(), p.real("--hour")), ("dna", -3.0));
        assert!(p.has("--worst-case") && !p.has("--hourly"));
        assert_eq!(p.count("--workers"), 1, "absent: the table's default");
        assert!(!parsed("simulate", &["dna"]).has("--workers"), "no default");
        assert!(parse("plan", &["dna", "-h", "--bogus"]).unwrap().is_none());

        let err = |c: &str, v: &[&str]| parse(c, v).unwrap_err();
        // A value-less flag is an error wherever it stands, not the default.
        assert_eq!(err("chaos", &["--seed"]), "--seed: missing value");
        assert_eq!(
            err("plan", &["x", "--hour", "--hourly"]),
            "--hour: missing value"
        );
        assert_eq!(
            err("chaos", &["--seed", "-1"]),
            "--seed: must be a non-negative integer"
        );
        assert_eq!(
            err("plan", &["x", "--workers", "0"]),
            "--workers: must be an integer of at least 1"
        );
        assert_eq!(
            err("plan", &["x", "--hour", "nan"]),
            "--hour: must be finite"
        );
        assert_eq!(
            err("plan", &["x", "--hourly", "--hourly"]),
            "--hourly: given more than once"
        );
        assert!(err("plan", &[]).starts_with("missing <benchmark>"));
        assert!(err("plan", &["a", "b"]).starts_with("unexpected argument `b`"));
        // A flag of another command is unknown to this one.
        assert!(err("plan", &["x", "--days", "2"]).starts_with("--days: unknown flag"));
    }

    #[test]
    fn table_defaults_are_the_library_defaults() {
        let (p, d) = (parsed("chaos", &[]), caribou_core::ChaosConfig::default());
        assert_eq!(
            (p.int("--seed"), p.int("--requests")),
            (d.seed, d.requests.into())
        );
        assert_eq!(
            (p.real("--duration-s"), p.real("--drop")),
            (d.duration_s, d.drop_prob)
        );
        assert_eq!(
            (p.count("--contingency"), p.count("--workers")),
            (d.contingency, d.workers)
        );
        let (p, d) = (
            parsed("fleet", &[]),
            caribou_core::fleet::FleetConfig::default(),
        );
        assert_eq!((p.count("--apps"), p.count("--hours")), (d.apps, d.hours));
        assert_eq!((p.int("--seed"), p.count("--workers")), (d.seed, d.workers));
        assert_eq!(p.count("--capacity"), d.cache_capacity);
        let (p, d) = (parsed("loadgen", &["dna"]), LoadgenConfig::default());
        assert_eq!(
            (p.count("--shards"), p.count("--workers")),
            (d.shards, d.workers)
        );
    }

    #[test]
    fn input_size_parsing() {
        let size = |v: &[&str]| input_size(&parsed("plan", v));
        assert_eq!(size(&["dna"]).unwrap(), InputSize::Small);
        assert_eq!(
            size(&["dna", "--input", "large"]).unwrap(),
            InputSize::Large
        );
        assert!(size(&["dna", "--input", "huge"]).is_err());
    }

    #[test]
    fn benchmark_lookup_is_fuzzy() {
        let name = |key: &str, size| find_benchmark(key, size).map(|b| b.name);
        assert_eq!(name("dna", InputSize::Small).unwrap(), "DNA Visualization");
        assert_eq!(
            name("text2speech", InputSize::Small).unwrap(),
            "Text2Speech Censoring"
        );
        assert_eq!(
            name("video-analytics", InputSize::Large).unwrap(),
            "Video Analytics"
        );
        assert!(name("pacman", InputSize::Small).is_err());
    }

    #[test]
    fn scenario_parsing() {
        let of = |v: &[&str]| scenario(&parsed("plan", v));
        assert_eq!(of(&["dna", "--worst-case"]), TransmissionScenario::WORST);
        assert_eq!(of(&["dna"]), TransmissionScenario::BEST);
    }
}
