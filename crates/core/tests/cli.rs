//! The `caribou` binary at its surface: every subcommand checks its
//! command line against its flag table, the help is that table, and the
//! seeded commands replay `goldens/` byte for byte.

use std::path::PathBuf;
use std::process::{Command, Output};

fn caribou(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_caribou"))
        .args(args)
        .output()
        .expect("the caribou binary runs")
}

fn repo_file(path: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A subcommand as its `--help` declares it.
struct Declared {
    name: String,
    help: String,
    /// One stand-in per required operand.
    operands: Vec<&'static str>,
    /// `(flag, takes a value)`, in table order.
    flags: Vec<(String, bool)>,
}

fn declared() -> Vec<Declared> {
    let top = caribou(&["--help"]);
    assert!(top.status.success());
    let top = String::from_utf8(top.stdout).unwrap();
    let (_, commands) = top.split_once("COMMANDS:\n").expect("a command list");
    commands
        .lines()
        .map(|line| {
            let name = line.split_whitespace().next().unwrap().to_string();
            let out = caribou(&[&name, "--help"]);
            assert!(out.status.success(), "{name} --help");
            let help = String::from_utf8(out.stdout).unwrap();
            let synopsis = help.lines().next().unwrap();
            let operands = synopsis
                .split_whitespace()
                .skip(2)
                .take_while(|t| *t != "—")
                .filter(|t| !t.starts_with('['))
                .map(|_| "x")
                .collect();
            let flags = flag_lines(&help)
                .map(|l| {
                    let (flag, placeholder, _) = flag_column(l);
                    (flag.to_string(), placeholder.is_some())
                })
                .collect();
            Declared {
                name,
                help,
                operands,
                flags,
            }
        })
        .collect()
}

/// The FLAGS lines of a help text.
fn flag_lines(help: &str) -> impl Iterator<Item = &str> {
    help.lines().filter(|l| l.starts_with("    --"))
}

/// One FLAGS line as `(flag, placeholder, column its text starts at)`.
/// A placeholder follows its flag after one space; two or more spaces end
/// the flag column, so text that runs into it reads as a placeholder.
fn flag_column(line: &str) -> (&str, Option<&str>, usize) {
    let token = |from: usize| {
        let end = line[from..].find(' ').map_or(line.len(), |i| from + i);
        let gap = line[end..].len() - line[end..].trim_start().len();
        (&line[from..end], end, gap)
    };
    let (flag, end, gap) = token(4);
    if gap != 1 {
        return (flag, None, end + gap);
    }
    let (placeholder, end, gap) = token(end + 1);
    (
        flag,
        Some(placeholder),
        if gap >= 2 { end + gap } else { end },
    )
}

fn with<'a>(command: &'a Declared, tail: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![command.name.as_str()];
    args.extend(&command.operands);
    args.extend(tail);
    args
}

fn assert_rejected(args: &[&str], names: &str) {
    let out = caribou(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {names}")),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed before failing");
}

#[test]
fn every_subcommand_rejects_unknown_and_valueless_flags() {
    let commands = declared();
    let names: Vec<&str> = commands.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "benchmarks",
            "manifest",
            "carbon",
            "plan",
            "simulate",
            "loadgen",
            "chaos",
            "fleet",
            "trace"
        ]
    );
    for command in &commands {
        // A typo of a real flag, or of none: never silently ignored.
        let typo = match command.flags.first() {
            Some((flag, _)) => format!("{flag}z"),
            None => "--bogus".to_string(),
        };
        assert_rejected(
            &with(command, &[&typo, "3"]),
            &format!("{typo}: unknown flag"),
        );
        for (flag, valued) in &command.flags {
            // Every flag the help lists is one the parser knows...
            let known = caribou(&with(command, &[flag, "1", "--help"]));
            assert!(known.status.success(), "{} {flag}", command.name);
            // ...and a trailing flag without its value is not a default.
            if *valued {
                assert_rejected(&with(command, &[flag]), &format!("{flag}: missing value"));
            }
        }
    }
    assert_rejected(&["plan", "dna", "--hourz", "--workrs", "3"], "--hourz:");
    assert_rejected(&["plan", "dna", "--hour", "noon"], "--hour: invalid float");
    assert_rejected(&["nonesuch"], "unknown command `nonesuch`");
    // Deleted knobs: the provider table sets the keep-alive, and every
    // loadgen shard runs its warm pool.
    assert_rejected(
        &["loadgen", "dna", "--no-warm-pool"],
        "--no-warm-pool: unknown flag",
    );
    assert_rejected(
        &["loadgen", "dna", "--keep-alive-s", "600"],
        "--keep-alive-s: unknown flag",
    );
    // A provider without regions is not a provider: the list is refused
    // before any cloud is assembled, naming the label.
    for args in [
        &["plan", "dna", "--providers", "azure"][..],
        &["chaos", "--providers", "aws,azure"],
    ] {
        assert_rejected(args, "--providers: unknown provider `azure`");
    }
}

#[test]
fn out_of_range_numbers_are_usage_errors_not_panics() {
    for (args, flag) in [
        (&["chaos", "--duration-s", "0"][..], "--duration-s"),
        (&["chaos", "--duration-s", "-5"], "--duration-s"),
        (
            &["chaos", "--correlated", "--duration-s", "0"],
            "--duration-s",
        ),
        (
            &["chaos", "--correlated", "--duration-s", "-5"],
            "--duration-s",
        ),
        (&["simulate", "dna", "--days", "0"], "--days"),
        (&["simulate", "dna", "--days", "-1"], "--days"),
        (&["simulate", "dna", "--per-day", "-5"], "--per-day"),
    ] {
        assert_rejected(args, &format!("{flag}: must be positive"));
    }
    assert_rejected(
        &["simulate", "dna", "--days", "0.0001"],
        "--days: the window",
    );
    // A run sized zero is no run: a count flag wants at least 1, and a bad
    // integer says what the flag takes instead of the parser's words.
    for (args, flag) in [
        (&["chaos", "--requests", "0"][..], "--requests"),
        (&["carbon", "us-east-1", "--hours", "0"], "--hours"),
        (&["carbon", "us-east-1", "--hours", "-3"], "--hours"),
        (&["fleet", "--apps", "x"], "--apps"),
    ] {
        assert_rejected(args, &format!("{flag}: must be an integer of at least 1"));
    }
    assert_rejected(
        &["trace", "run.jsonl", "--limit", "abc"],
        "--limit: must be a non-negative integer",
    );
}

#[test]
fn verify_without_a_perturbation_is_an_error_not_a_no_op() {
    assert_rejected(
        &["fleet", "--apps", "2", "--hours", "1", "--verify"],
        "--verify:",
    );
    assert_rejected(&["fleet", "--perturb", "h7*1.5", "--verfy"], "--verfy:");
}

#[test]
fn a_flag_its_companion_would_enable_is_an_error_not_a_no_op() {
    assert_rejected(
        &["chaos", "--scenario", "provider-outage"],
        "--scenario: needs --correlated",
    );
    assert_rejected(
        &["chaos", "--contingency", "3"],
        "--contingency: needs --correlated",
    );
    assert_rejected(
        &["plan", "dna", "--contingency", "2"],
        "--contingency: needs --hourly",
    );
}

/// `manifest example` prints a manifest `manifest validate` accepts, and a
/// key the manifest does not declare is an error naming it — a
/// `tolerances` block once parsed, validated and was silently ignored.
/// A journal the disk refused is an error, not a run that reports "0
/// dropped" over a file that holds nothing.
#[test]
fn a_telemetry_write_error_is_exit_1_naming_the_path() {
    let line = "loadgen text2speech --invocations 200 --telemetry /dev/full";
    let out = caribou(&line.split_whitespace().collect::<Vec<_>>());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "caribou {line}: {stderr}");
    assert!(
        stderr.contains("error: --telemetry /dev/full: "),
        "caribou {line}: {stderr}"
    );
}

#[test]
fn manifest_example_validates_and_an_undeclared_key_is_rejected() {
    let example = caribou(&["manifest", "example"]);
    assert!(example.status.success());
    let text = String::from_utf8(example.stdout).unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let good = dir.join("manifest_example.json");
    std::fs::write(&good, &text).unwrap();
    let out = caribou(&["manifest", "validate", good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("ok: workflow `my_workflow`"));

    let (head, _) = text.rsplit_once('}').expect("a JSON object");
    let bad = dir.join("manifest_with_tolerances.json");
    std::fs::write(
        &bad,
        format!(
            "{},\n  \"tolerances\": {{\"latency\": 0.02}}\n}}\n",
            head.trim_end()
        ),
    )
    .unwrap();
    let out = caribou(&["manifest", "validate", bad.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown key `tolerances`"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// Every FLAGS line of every subcommand's help keeps whitespace between
/// its flag column and its text, and the text starts at one column per
/// command — `--arrival poisson|diurnal|bursty` once ran into "arrival
/// process".
#[test]
fn help_text_never_runs_into_its_flag_column() {
    for command in declared() {
        let mut columns = Vec::new();
        for line in flag_lines(&command.help) {
            let (_, _, text) = flag_column(line);
            assert!(
                line[..text].ends_with("  "),
                "{}: no gap before the text of {line:?}",
                command.name
            );
            columns.push(text);
        }
        columns.dedup();
        assert!(
            columns.len() <= 1,
            "{}: text columns {columns:?}",
            command.name
        );
    }
}

#[test]
fn the_readme_cli_reference_is_the_rendered_help() {
    let readme = repo_file("README.md");
    let top = String::from_utf8(caribou(&[]).stdout).unwrap();
    assert!(readme.contains(&top), "README.md lacks `caribou --help`");
    for command in declared() {
        assert!(
            readme.contains(&command.help),
            "README.md lacks `caribou {} --help` as rendered",
            command.name
        );
    }
}

#[test]
fn seeded_commands_replay_the_goldens_byte_for_byte() {
    let fleet = "fleet --apps 32 --hours 6 --seed 42 --perturb h3:us-west-2*2 --verify";
    let correlated = "chaos --correlated --contingency 3 --seed 42 --requests 200 \
                      --duration-s 14400 --providers aws,gcp --workers 1";
    for (golden, line) in [
        ("plan_dna_hourly_aws", "plan dna --hourly"),
        ("plan_dna_aws", "plan dna"),
        ("plan_dna_aws", "plan dna --providers aws"),
        (
            "simulate_text2speech_aws",
            "simulate text2speech --days 2 --per-day 20",
        ),
        (
            "chaos_seed42_aws",
            "chaos --seed 42 --requests 200 --duration-s 7200",
        ),
        ("fleet_32x6_aws", fleet),
        ("chaos_correlated_seed42_awsgcp", correlated),
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = caribou(&args);
        assert!(out.status.success(), "caribou {line}");
        let expected = repo_file(&format!("goldens/{golden}.txt"));
        assert!(
            out.stdout == expected.as_bytes(),
            "caribou {line} differs from goldens/{golden}.txt:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
