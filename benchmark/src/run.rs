//! The benchmark driver: one process, closed loop, one client.
//!
//! `--workload W` measures one workload in this process (fresh `VmHWM`):
//! a small untimed warm-up lap, then timed laps of identical work (same
//! seed, fresh state) until `--seconds` have passed. Throughput is read
//! off the fastest lap and set-up off the median one, both at reference
//! speed (see [`crate::refwork`]); sim metrics must agree to the bit
//! across laps. The last line of standard output is the result as one
//! JSON object.
//!
//! Without `--workload` the driver runs every workload, each in a child
//! process of its own, untraced and then traced, prints every metric by
//! name with its unit, and writes `out/latest.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::{json, Map, Value};

use crate::api;
use crate::layers::{Kind, Layers, Metric, END_TO_END, PER_LAYER};
use crate::micro;
use crate::refwork::Reference;
use crate::stats;
use crate::workloads::{self, sim_mismatch, Lap, Scale, Workload};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: f64 = 18.0;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat N]

  --workload W   one of dataplane_home, dataplane_faults, adaptive_week,
                 plan_cold, fleet_replan; omit it to run all five, each in
                 its own process, untraced and then traced
  --seed N       workload seed (default 42): same seed, same inputs
  --seconds S    how long the timed laps of one run last (default 18)
  --trace 0|1    0: end-to-end metrics (default); 1: per-layer metrics and
                 a span file under benchmark/out/
  --repeat N     run the whole set N times and print each metric's spread
                 against its bound (all-workloads mode only)
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds: must be in (0, 3600]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--repeat" => {
                let n: usize = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--repeat: must be in 1..=100".into());
                }
                args.repeat = n;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Entry point of both binaries.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match workloads::by_name(name) {
            Some(w) => run_one(w, &args),
            None => {
                eprintln!("error: unknown workload `{name}`\n");
                eprint!("{USAGE}");
                ExitCode::from(2)
            }
        },
        None => run_all(&args),
    }
}

/// The result of one run, as printed on the last line.
struct Outcome {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(Metric, f64)>,
}

impl Outcome {
    fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for (m, value) in &self.metrics {
            metrics.insert(
                m.name.to_string(),
                json!({ "value": *value, "unit": m.unit }),
            );
        }
        json!({
            "correct": self.failures.is_empty(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::from(metrics),
        })
    }
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let outcome = if args.trace {
        traced_run(w, args)
    } else {
        end_to_end_run(w, args)
    };
    for (m, value) in &outcome.metrics {
        println!(
            "{:<42} {:>18} {:<6} {}",
            m.name,
            format_value(*value),
            m.unit,
            m.kind.label()
        );
    }
    for failure in &outcome.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.to_json()).expect("results serialize")
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.001 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Timed laps of `w` until `seconds` have passed (at least one), with the
/// reference work timed at every lap boundary.
fn timed_laps(w: &Workload, seed: u64, seconds: f64) -> (Vec<Lap>, Reference) {
    let mut laps = Vec::new();
    let mut reference = Reference::new();
    reference.at_boundary();
    let start = Instant::now();
    loop {
        laps.push((w.lap)(seed, Scale::Full));
        reference.at_boundary();
        if start.elapsed().as_secs_f64() >= seconds {
            return (laps, reference);
        }
    }
}

fn end_to_end_run(w: &Workload, args: &Args) -> Outcome {
    (w.lap)(args.seed, Scale::Warmup);
    let (laps, reference) = timed_laps(w, args.seed, args.seconds);
    // Memory of the measured laps only: the checks below allocate too.
    let peak_rss_mb = peak_rss_mb();

    let mut failures = Vec::new();
    for (i, lap) in laps.iter().enumerate().skip(1) {
        failures.extend(sim_mismatch(
            &format!("{}: lap {i} vs lap 0", w.name),
            &laps[0].sim,
            &lap.sim,
        ));
    }
    failures.extend((w.verify)(args.seed, &laps[0]));

    // Interference only slows a timed call down, so throughput is read
    // off the fastest time each of the lap's calls took in any lap; set-up
    // (sub-millisecond) off the median; both at reference speed (see
    // refwork).
    let walls: Vec<f64> = laps.iter().map(Lap::wall_s).collect();
    let setups: Vec<f64> = laps.iter().map(|l| l.setup_s).collect();
    let fastest_s = fastest_by_segment(&laps);
    let lap = &laps[0];
    eprintln!(
        "{}: {} laps of {} {}s in {} timed call(s); fastest calls add up to {:.3} s, fastest lap {:.3} s, median lap {:.3} s (raw); reference scale {:.3} fast / {:.3} median; latency tail is {} over {} samples",
        w.name,
        laps.len(),
        lap.ops,
        w.op,
        lap.segments_s.len(),
        fastest_s,
        walls.iter().copied().fold(f64::MAX, f64::min),
        stats::median(&walls),
        reference.fast_scale(),
        reference.median_scale(),
        lap.sim.tail,
        lap.sim.samples,
    );
    let values = [
        stats::median(&setups) * reference.median_scale(),
        lap.ops as f64 / (fastest_s * reference.fast_scale()),
        peak_rss_mb,
        lap.sim.latency_mean_s,
        lap.sim.latency_tail_s,
    ];
    Outcome {
        failures,
        attempted: laps.iter().map(|l| l.ops).sum(),
        failed: laps.iter().map(|l| l.failed).sum(),
        metrics: END_TO_END.iter().copied().zip(values).collect(),
    }
}

/// Laps of one run do identical work call by call: the sum over a lap's
/// timed calls of the fastest time that call took in any lap.
fn fastest_by_segment(laps: &[Lap]) -> f64 {
    let calls = laps[0].segments_s.len();
    assert!(
        laps.iter().all(|l| l.segments_s.len() == calls),
        "laps of one run make the same timed calls"
    );
    (0..calls)
        .map(|c| {
            laps.iter()
                .map(|l| l.segments_s[c])
                .fold(f64::MAX, f64::min)
        })
        .sum()
}

/// (max - min) / median of the laps' wall times.
fn lap_spread(walls: &[f64]) -> f64 {
    let max = walls.iter().copied().fold(f64::MIN, f64::max);
    let min = walls.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / stats::median(walls)
}

fn traced_run(w: &Workload, args: &Args) -> Outcome {
    let start = Instant::now();
    let mut layers = Layers::new();
    micro::run(args.seed, &mut layers);
    (w.traced)(args.seed, &mut layers);
    // Whatever is left of the run goes to untraced laps, for their spread.
    let remaining = (args.seconds - start.elapsed().as_secs_f64()).max(0.0);
    let mut walls: Vec<f64> = timed_laps(w, args.seed, remaining)
        .0
        .iter()
        .map(Lap::wall_s)
        .collect();
    if walls.len() < 2 {
        walls.push((w.lap)(args.seed, Scale::Full).wall_s());
    }
    layers.set("host.lap_spread", lap_spread(&walls));

    let mut failures = Vec::new();
    let path = out_dir().join(format!("trace-{}.json", w.name));
    let trace = serde_json::to_string(&layers.tracer.to_json(w.name)).expect("spans serialize");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, trace)) {
        failures.push(format!("cannot write {}: {e}", path.display()));
    } else {
        eprintln!(
            "{}: {} spans of the first ops written to {}",
            w.name,
            layers.tracer.spans().len(),
            path.display()
        );
    }
    Outcome {
        failures,
        attempted: layers.get("trace.ops") as u64,
        failed: 0,
        metrics: PER_LAYER.iter().map(|m| (*m, layers.get(m.name))).collect(),
    }
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Where trace files and `latest.json` go: `out/` beside `run.sh`.
fn out_dir() -> PathBuf {
    std::env::var_os("CARIBOU_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"))
        .join("out")
}

// ---------------------------------------------------------------------
// All-workloads mode
// ---------------------------------------------------------------------

/// One child run's parsed last line: metric name -> value.
type Values = BTreeMap<String, f64>;

fn child(exe: &Path, w: &Workload, args: &Args, trace: bool) -> Result<(Values, bool), String> {
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: no output", w.name))?;
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
    let correct = result["correct"].as_bool().unwrap_or(false) && output.status.success();
    let metrics = result["metrics"]
        .as_object()
        .ok_or_else(|| format!("{}: result has no metrics", w.name))?;
    let values = metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v["value"].as_f64()?)))
        .collect();
    Ok((values, correct))
}

fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the binary knows its own path");
    let traced_exe = exe.with_file_name(format!(
        "{}-traced",
        exe.file_name()
            .expect("a binary path has a file name")
            .to_string_lossy()
    ));
    let mut ok = true;
    // (workload, metric) -> one value per repeat.
    let mut series: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for round in 0..args.repeat {
        if args.repeat > 1 {
            eprintln!("== round {} of {} ==", round + 1, args.repeat);
        }
        for w in &workloads::ALL {
            for (trace, exe, catalog) in [
                (false, &exe, &END_TO_END[..]),
                (true, &traced_exe, &PER_LAYER[..]),
            ] {
                match child(exe, w, args, trace) {
                    Ok((values, correct)) => {
                        ok &= correct;
                        for m in catalog {
                            match values.get(m.name) {
                                Some(v) => series.entry((w.name, m.name)).or_default().push(*v),
                                None => {
                                    eprintln!("{}: metric {} was not printed", w.name, m.name);
                                    ok = false;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ok = false;
                    }
                }
            }
        }
    }

    print_tables(&series);
    if args.repeat > 1 {
        ok &= print_spreads(&series);
    }
    if let Err(e) = write_latest(args, &series) {
        eprintln!("error: cannot write latest.json: {e}");
        ok = false;
    }
    if ok {
        println!("all output checks passed");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: see the messages above");
        ExitCode::FAILURE
    }
}

fn print_tables(series: &BTreeMap<(&'static str, &'static str), Vec<f64>>) {
    for (title, catalog) in [
        ("end-to-end (untraced runs)", &END_TO_END[..]),
        ("per-layer (traced runs)", &PER_LAYER[..]),
    ] {
        println!("\n== {title}: median over repeats ==");
        print!("{:<42} {:<6} {:<5}", "metric", "unit", "kind");
        for w in &workloads::ALL {
            print!(" {:>16}", w.name);
        }
        println!();
        for m in catalog {
            print!("{:<42} {:<6} {:<5}", m.name, m.unit, m.kind.label());
            for w in &workloads::ALL {
                match series.get(&(w.name, m.name)) {
                    Some(v) if !v.is_empty() => print!(" {:>16}", format_value(stats::median(v))),
                    _ => print!(" {:>16}", "-"),
                }
            }
            println!();
        }
    }
}

/// Prints each end-to-end metric's spread over the repeats against its
/// bound; sim metrics (same seed every round) must match to the bit.
fn print_spreads(series: &BTreeMap<(&'static str, &'static str), Vec<f64>>) -> bool {
    let mut ok = true;
    println!("\n== spread over repeats: (q3 - q1) / median, against the bound ==");
    println!(
        "{:<18} {:<22} {:>10} {:>8}  verdict",
        "workload", "metric", "spread", "bound"
    );
    for w in &workloads::ALL {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let Some(values) = series.get(&(w.name, m.name)) else {
                continue;
            };
            if m.kind == Kind::Sim {
                if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    println!(
                        "{:<18} {:<22} sim metric differs between rounds",
                        w.name, m.name
                    );
                    ok = false;
                }
                continue;
            }
            if m.bound == 0.0 || values.len() < 2 {
                continue;
            }
            let spread = stats::relative_spread(values);
            let verdict = if spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound"
            } else {
                "NOISY"
            };
            println!(
                "{:<18} {:<22} {:>9.2}% {:>7.0}%  {verdict}",
                w.name,
                m.name,
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    ok
}

fn write_latest(
    args: &Args,
    series: &BTreeMap<(&'static str, &'static str), Vec<f64>>,
) -> std::io::Result<()> {
    let mut workloads_json = Map::new();
    for w in &workloads::ALL {
        let mut metrics = Map::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            if let Some(values) = series.get(&(w.name, m.name)) {
                metrics.insert(
                    m.name.to_string(),
                    json!({
                        "median": stats::median(values),
                        "values": values.clone(),
                        "unit": m.unit,
                        "kind": m.kind.label(),
                    }),
                );
            }
        }
        workloads_json.insert(w.name.to_string(), Value::from(metrics));
    }
    let latest = json!({
        "nproc": api::nproc() as u64,
        "git_rev": std::env::var("CARIBOU_BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat as u64,
        "sizes": sizes(),
        "workloads": Value::from(workloads_json),
    });
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(
        out_dir().join("latest.json"),
        serde_json::to_string_pretty(&latest).expect("results serialize"),
    )
}

/// The lap sizes, as recorded in the README and `latest.json`.
pub fn sizes() -> Value {
    use workloads::{adaptive_week, dataplane_faults, dataplane_home, fleet_replan};
    json!({
        "dataplane_home": json!({
            "invocations_per_lap": dataplane_home::INVOCATIONS as u64,
            "poisson_rate_per_sim_s": dataplane_home::RATE_PER_S,
        }),
        "dataplane_faults": json!({
            "campaigns_per_lap": dataplane_faults::CAMPAIGNS,
            "requests_per_campaign": dataplane_faults::REQUESTS,
            "sim_hours_per_campaign": dataplane_faults::DURATION_S / 3_600.0,
            "drop_prob": dataplane_faults::DROP_PROB,
        }),
        "adaptive_week": json!({
            "sim_days": adaptive_week::DAYS,
            "invocations_per_sim_day": adaptive_week::PER_DAY,
            "invocations_per_lap": adaptive_week::INVOCATIONS as u64,
        }),
        "plan_cold": json!({
            "cases": "5 paper benchmarks on aws + text2speech on aws+gcp",
            "cells_per_lap": 144,
            "monte_carlo": "batch 200, max 2000, cv 0.05",
        }),
        "fleet_replan": json!({
            "apps": fleet_replan::APPS as u64,
            "fleet_seed": fleet_replan::FLEET_SEED,
            "hours": fleet_replan::HOURS as u64,
            "revisions": fleet_replan::HOURS as u64,
        }),
    })
}
