//! The `repro` command line: `--list` advertises only tokens that select
//! cells, and every usage error exits 2 before anything runs.

use std::process::{Command, Output};

/// Runs `repro` with `args` in Cargo's scratch directory for tests,
/// where there is no history file to read or write.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("repro runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// One sweep's filter grammar as `repro --list` prints it.
struct Listed {
    sweep: String,
    /// Each filter position's name and tokens.
    positions: Vec<(String, Vec<String>)>,
}

/// The grammar of every sweep `repro --list` shows one for.
fn listed_grammars() -> Vec<Listed> {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let mut sweeps = Vec::new();
    let mut name = String::new();
    for line in text.lines() {
        if let Some(sweep) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
            name = sweep.to_string();
        } else if let Some(grammar) = line.trim().strip_prefix("--filter ") {
            let (_, tokens) = grammar.split_once("  (").expect("token list");
            let positions = tokens.trim_end_matches(')').split("; ").map(|position| {
                let (pos, tokens) = position.split_once(' ').expect("name and tokens");
                (
                    pos.to_string(),
                    tokens.split('|').map(String::from).collect(),
                )
            });
            sweeps.push(Listed {
                sweep: name.clone(),
                positions: positions.collect(),
            });
        }
    }
    sweeps
}

#[test]
fn every_listed_token_selects_a_cell() {
    let listed = listed_grammars();
    let names: Vec<&str> = listed.iter().map(|l| l.sweep.as_str()).collect();
    assert_eq!(names, ["perf", "scale", "steer", "poll", "churn"]);
    for Listed { sweep, positions } in &listed {
        // Every cell of the sweep, as its filter spec.
        let out = repro(&[sweep, "--list"]);
        assert!(out.status.success(), "{sweep} --list");
        let specs = stdout(&out);
        let specs: Vec<Vec<&str>> = specs.lines().map(|l| l.split('/').collect()).collect();
        for (i, (position, tokens)) in positions.iter().enumerate() {
            for token in tokens {
                let cell = specs
                    .iter()
                    .find(|spec| spec[i] == token)
                    .unwrap_or_else(|| panic!("{sweep}: {position} {token} selects no cell"));
                let spec = cell.join("/");
                let out = repro(&[sweep, "--list", "--filter", &spec]);
                assert!(out.status.success(), "{sweep} --filter {spec}");
                assert!(
                    stdout(&out).lines().any(|l| l == spec),
                    "{sweep} --filter {spec}"
                );
            }
        }
    }
}

#[test]
fn mode_aliases_select_matrix_cells() {
    for (alias, token) in [
        ("none/128/tx", "no/128/tx"),
        ("PROCESS/128/RX", "proc/128/rx"),
    ] {
        let out = repro(&["perf", "--list", "--filter", alias]);
        assert!(out.status.success(), "{alias}");
        assert!(stdout(&out).lines().all(|l| l == token), "{alias}");
    }
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        // A filter that matches no cell of the sweep.
        &["perf", "--filter", "rss/64/tx"][..],
        &["scale", "--filter", "rss/8"],
        &["churn", "--quick", "--filter", "irq/flowdir/8/1000"],
        // `--check` compares whole sweeps only.
        &["steer", "--check", "--filter", "rss/fixed/4"],
        &["fig3", "--check"],
        // An unknown artifact.
        &["bogus"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
}

#[test]
fn check_without_a_recorded_row_exits_1() {
    let out = repro(&["poll", "--check", "--quick"]);
    assert_eq!(out.status.code(), Some(1));
}
