//! The simulator's benchmark: end-to-end host time of `Machine::new` and
//! `Machine::run` over a workload's cells, and, in a separate traced run,
//! per-layer probe timings plus the exact counts the cells expose.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a readable report goes
//! to standard error. Cells and probes run in worker processes (this
//! same binary, started with `--worker`), so a cell that aborts is
//! counted as failed instead of ending the run. See `README.md`.

mod probes;
mod workloads;

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use affinity_sim::Machine;
use workloads::{Cell, Counts, COUNT_NAMES};

/// Address-space cap on every worker process, in KiB (`ulimit -v`), so
/// no cell can reserve more than 16 GiB of the host, whatever it asks for.
const WORKER_ADDRESS_SPACE_KIB: u64 = 16 << 20;

/// End-to-end metrics, printed by an untraced run.
const E2E_METRICS: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics derived from cell counts, printed by a traced run
/// after the probe metrics.
const COUNT_METRICS: [(&str, &str); 20] = [
    ("sim-mem.llc_misses", "count"),
    ("sim-mem.l2_misses", "count"),
    ("sim-mem.dtlb_misses", "count"),
    ("sim-core.sim_cycles", "cycles"),
    ("sim-tcp.accepts", "count"),
    ("sim-tcp.backlog_drops", "count"),
    ("sim-tcp.syn_accept_ratio", "ratio"),
    ("sim-os.wakeups", "count"),
    ("sim-os.resched_ipis", "count"),
    ("sim-os.wake_migrations", "count"),
    ("sim-os.lock_contended_ratio", "ratio"),
    ("affinity-sim.steer.resteers", "count"),
    ("affinity-sim.steer.table_rejects", "count"),
    ("sim-net.interrupts", "count"),
    ("affinity-sim.poll.useful_poll_ratio", "ratio"),
    ("affinity-sim.poll.spin_fraction", "ratio"),
    ("sim-cpu.instructions", "count"),
    ("sim-cpu.machine_clears", "count"),
    ("affinity-sim.run_ns_per_sim_instr", "ns"),
    ("affinity-sim.setup_ns_per_flow", "ns"),
];

/// Command-line options shared by the driver and its workers.
#[derive(Debug)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: Option<String>,
    start: usize,
    min_positions: usize,
    skip: Vec<usize>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        worker: None,
        start: 0,
        min_positions: 0,
        skip: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--worker" => opts.worker = Some(value),
            "--start" => opts.start = value.parse().map_err(|_| bad("an index"))?,
            "--min-positions" => {
                opts.min_positions = value.parse().map_err(|_| bad("a count"))?;
            }
            "--skip" => {
                opts.skip = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("comma-separated indices"))?;
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(cells) = workloads::cells(&opts.workload, opts.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; valid: {}",
            opts.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    match opts.worker.as_deref() {
        Some("cells") => cell_worker(&opts, &cells),
        Some("probes") => probes::run_all(&probes::Shape::of(&cells), |name, p| {
            println!("probe {name} {} {} {}", p.ns_per_op, p.ops, p.shape);
        }),
        Some(other) => {
            eprintln!("perfbench: unknown worker {other:?}");
            return ExitCode::from(2);
        }
        None => return drive(&opts, &cells),
    }
    ExitCode::SUCCESS
}

/// Peak resident set of this process, in KiB.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Restarts the peak-resident-set count from the current resident set,
/// so the next [`peak_rss_kib`] covers one cell. Where the kernel does
/// not support this the peak keeps covering the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Worker: runs the cyclic cell schedule from position `start`, one cell
/// per position, until at least `min_positions` positions are done and
/// `seconds` have passed. Announces each cell before starting it, so the
/// driver knows which one was running if the process dies.
fn cell_worker(opts: &Options, cells: &[Cell]) {
    let n = cells.len();
    let t0 = Instant::now();
    let mut out = std::io::stdout().lock();
    let mut pos = opts.start;
    while opts.skip.len() < n
        && (pos < opts.min_positions || t0.elapsed().as_secs_f64() < opts.seconds)
    {
        let idx = pos % n;
        if !opts.skip.contains(&idx) {
            let cell = &cells[idx];
            writeln!(out, "start {pos}")
                .and_then(|()| out.flush())
                .expect("stdout");
            reset_peak_rss();
            let t = Instant::now();
            let line = match Machine::new(&cell.config) {
                Err(e) => format!("error {pos} {e}"),
                Ok(mut machine) => {
                    let setup_ns = t.elapsed().as_nanos();
                    let t = Instant::now();
                    let metrics = machine.run();
                    let run_ns = t.elapsed().as_nanos();
                    let peak_kib = peak_rss_kib();
                    let counts = Counts::harvest(&cell.config, &machine, &metrics);
                    let counts: Vec<String> = counts.0.iter().map(u64::to_string).collect();
                    format!(
                        "done {pos} {setup_ns} {run_ns} {peak_kib} {}",
                        counts.join(" ")
                    )
                }
            };
            writeln!(out, "{line}")
                .and_then(|()| out.flush())
                .expect("stdout");
        }
        pos += 1;
    }
}

/// One timed, finished run of a cell.
#[derive(Debug, Clone, Copy)]
struct Sample {
    setup_ns: u64,
    run_ns: u64,
    peak_kib: u64,
    counts: Counts,
}

/// Everything the runs of one cell produced.
#[derive(Debug, Clone, Default)]
struct CellRecord {
    samples: Vec<Sample>,
    failure: Option<String>,
}

/// What a set of worker processes produced.
struct Harvest {
    records: Vec<CellRecord>,
    /// Failures not tied to a cell (a worker that died between cells).
    harness_errors: Vec<String>,
}

/// A worker process of this binary under the address-space cap.
fn worker_command(opts: &Options, role: &str, extra: &[String]) -> Command {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg(format!(
            "ulimit -v {WORKER_ADDRESS_SPACE_KIB} && exec \"$0\" \"$@\""
        ))
        .arg(exe)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--worker", role])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Runs `cmd`, handing each stdout line to `on_line` as it arrives.
/// Returns `None` if it exited cleanly, else why it died, from its exit
/// status and stderr (which is echoed to ours either way).
fn run_worker(mut cmd: Command, mut on_line: impl FnMut(&str)) -> Option<String> {
    let mut child = cmd.spawn().expect("spawn worker");
    let mut stderr = child.stderr.take().expect("piped stderr");
    let echo = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        eprint!("{text}");
        text
    });
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        match line {
            Ok(line) => on_line(&line),
            Err(_) => break,
        }
    }
    let status = child.wait().expect("wait for worker");
    let stderr = echo.join().unwrap_or_default();
    if status.success() {
        return None;
    }
    // The allocator's "memory allocation of N bytes failed", or a panic.
    let cause = stderr
        .lines()
        .find(|l| l.contains("memory allocation of") || l.contains("panicked"))
        .map_or(String::new(), |l| format!(": {}", l.trim()));
    Some(format!("worker {status}{cause}"))
}

/// Runs the cyclic cell schedule in workers until `min_positions` cells
/// have run and `seconds` have passed, restarting after any worker that
/// dies (its running cell is marked failed and never rerun).
fn run_cells(opts: &Options, cells: &[Cell], min_positions: usize, seconds: f64) -> Harvest {
    let n = cells.len();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut harvest = Harvest {
        records: vec![CellRecord::default(); n],
        harness_errors: Vec::new(),
    };
    let mut pos = 0;
    loop {
        let skip: Vec<String> = (0..n)
            .filter(|&i| harvest.records[i].failure.is_some())
            .map(|i| i.to_string())
            .collect();
        if skip.len() == n {
            break;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        let extra = [
            "--start".to_string(),
            pos.to_string(),
            "--min-positions".to_string(),
            min_positions.to_string(),
            "--seconds".to_string(),
            remaining.as_secs_f64().to_string(),
            "--skip".to_string(),
            skip.join(","),
        ];
        let mut running = None;
        let died = run_worker(worker_command(opts, "cells", &extra), |line| {
            let mut fields = line.split(' ');
            let tag = fields.next().unwrap_or_default();
            let num: Vec<u64> = fields.clone().filter_map(|f| f.parse().ok()).collect();
            match (tag, num.as_slice()) {
                ("start", [p]) => running = Some(*p as usize),
                ("done", [p, setup_ns, run_ns, peak_kib, counts @ ..])
                    if counts.len() == COUNT_NAMES.len() =>
                {
                    let mut c = [0; COUNT_NAMES.len()];
                    c.copy_from_slice(counts);
                    harvest.records[*p as usize % n].samples.push(Sample {
                        setup_ns: *setup_ns,
                        run_ns: *run_ns,
                        peak_kib: *peak_kib,
                        counts: Counts(c),
                    });
                    running = None;
                    pos = *p as usize + 1;
                }
                ("error", [p, ..]) => {
                    let msg: Vec<&str> = fields.skip(1).collect();
                    harvest.records[*p as usize % n].failure = Some(msg.join(" "));
                    running = None;
                    pos = *p as usize + 1;
                }
                _ => harvest
                    .harness_errors
                    .push(format!("bad worker line {line:?}")),
            }
        });
        let Some(why) = died else {
            break;
        };
        match running {
            Some(p) => {
                harvest.records[p % n].failure = Some(why);
                pos = p + 1;
            }
            None => {
                harvest
                    .harness_errors
                    .push(format!("cell {why} between cells"));
                break;
            }
        }
        if pos >= min_positions && Instant::now() >= deadline {
            break;
        }
    }
    for (cell, record) in cells.iter().zip(&mut harvest.records) {
        if record.failure.is_some() {
            continue;
        }
        let Some(first) = record.samples.first() else {
            record.failure = Some("never ran".to_string());
            continue;
        };
        record.failure = cell.check(&first.counts).or_else(|| {
            record
                .samples
                .iter()
                .any(|s| s.counts != first.counts)
                .then(|| "counts differ between runs of the same cell".to_string())
        });
    }
    harvest
}

/// Median of one cell's samples of a quantity.
fn median(samples: &[Sample], get: impl Fn(&Sample) -> u64) -> u64 {
    let mut v: Vec<u64> = samples.iter().map(get).collect();
    v.sort_unstable();
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2
    } else {
        v[m]
    }
}

/// What the cells that passed add up to, from per-cell medians.
struct Totals {
    /// Summed median `Machine::new` seconds.
    setup_s: f64,
    /// Summed median `Machine::run` seconds.
    run_s: f64,
    /// Largest median per-cell peak resident set, in KiB.
    peak_kib: u64,
    /// Counts of one run of each cell, summed.
    counts: Counts,
}

impl Totals {
    fn of(harvest: &Harvest) -> Self {
        let mut t = Totals {
            setup_s: 0.0,
            run_s: 0.0,
            peak_kib: 0,
            counts: Counts([0; COUNT_NAMES.len()]),
        };
        for r in harvest.records.iter().filter(|r| r.failure.is_none()) {
            t.setup_s += median(&r.samples, |s| s.setup_ns) as f64 / 1e9;
            t.run_s += median(&r.samples, |s| s.run_ns) as f64 / 1e9;
            t.peak_kib = t.peak_kib.max(median(&r.samples, |s| s.peak_kib));
            for (sum, v) in t.counts.0.iter_mut().zip(r.samples[0].counts.0) {
                *sum += v;
            }
        }
        t
    }

    /// The summed count named `name`.
    fn count(&self, name: &str) -> f64 {
        self.counts.get(name) as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The untraced run's end-to-end metrics, in [`E2E_METRICS`] order.
fn end_to_end(harvest: &Harvest) -> Vec<f64> {
    let t = Totals::of(harvest);
    vec![
        t.run_s,
        t.setup_s,
        ratio(t.count("instructions") / 1e6, t.run_s),
        t.peak_kib as f64 / 1024.0,
    ]
}

/// The traced run's per-layer metrics: probe timings, then the
/// [`COUNT_METRICS`] from the cells' exact counts and per-cell host time.
fn per_layer(probes: &[Option<probes::Probe>], harvest: &Harvest) -> Vec<f64> {
    let t = Totals::of(harvest);
    let get = |name: &str| t.count(name);
    let mut values: Vec<f64> = probes
        .iter()
        .map(|p| p.as_ref().map_or(0.0, |p| p.ns_per_op))
        .collect();
    values.extend([
        get("llc_misses"),
        get("l2_misses"),
        get("dtlb_misses"),
        get("wall_cycles"),
        get("accepts"),
        get("backlog_drops"),
        ratio(get("accepts"), get("accepts") + get("backlog_drops")),
        get("wakeups"),
        get("resched_ipis"),
        get("wake_migrations"),
        ratio(get("lock_contended"), get("lock_acquisitions")),
        get("resteers"),
        get("table_rejects"),
        get("interrupts"),
        ratio(get("polls"), get("polls") + get("empty_polls")),
        ratio(get("spin_cycles"), get("spin_cycles") + get("work_cycles")),
        get("instructions"),
        get("machine_clears"),
        ratio(t.run_s * 1e9, get("instructions")),
        ratio(t.setup_s * 1e9, get("flow_slots")),
    ]);
    values
}

/// Runs the probe worker; a probe that never reported (its worker died)
/// stays `None`.
fn run_probes(opts: &Options) -> (Vec<Option<probes::Probe>>, Option<String>) {
    let mut found: Vec<Option<probes::Probe>> = vec![None; probes::PROBES.len()];
    let died = run_worker(worker_command(opts, "probes", &[]), |line| {
        let mut f = line.splitn(5, ' ');
        if let (Some("probe"), Some(name), Some(ns), Some(ops), shape) =
            (f.next(), f.next(), f.next(), f.next(), f.next())
        {
            if let (Some(i), Ok(ns), Ok(ops)) = (
                probes::PROBES.iter().position(|&(n, _)| n == name),
                ns.parse(),
                ops.parse(),
            ) {
                found[i] = Some(probes::Probe {
                    ns_per_op: ns,
                    ops,
                    shape: shape.unwrap_or_default().to_string(),
                });
            }
        }
    });
    (found, died)
}

fn drive(opts: &Options, cells: &[Cell]) -> ExitCode {
    let n = cells.len();
    let mut checks: Vec<String> = Vec::new();
    let (harvest, names, values, probe_list) = if opts.trace {
        // Exactly two traced passes: every count must repeat between
        // them, which `run_cells` checks per cell.
        let harvest = run_cells(opts, cells, 2 * n, 0.0);
        let (probe_list, probe_failure) = run_probes(opts);
        checks.extend(probe_failure.map(|why| format!("probe {why}")));
        let names: Vec<(&str, &str)> = probes::PROBES
            .iter()
            .map(|&(name, _)| (name, "ns"))
            .chain(COUNT_METRICS)
            .collect();
        let values = per_layer(&probe_list, &harvest);
        (harvest, names, values, probe_list)
    } else {
        // The untraced run never starts a probe worker, so tracing adds
        // nothing to these numbers.
        let harvest = run_cells(opts, cells, 2 * n, opts.seconds);
        let values = end_to_end(&harvest);
        (harvest, E2E_METRICS.to_vec(), values, Vec::new())
    };
    checks.extend(harvest.harness_errors.iter().cloned());
    if names.len() != values.len() || values.iter().any(|v| !v.is_finite()) {
        checks.push("metric list and values disagree".to_string());
    }

    let failed = harvest
        .records
        .iter()
        .filter(|r| r.failure.is_some())
        .count();
    let probe_failures = probe_list.iter().filter(|p| p.is_none()).count();
    eprintln!(
        "\nperfbench {} (seed {}, {}): {n} cells, {failed} failed",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    for (cell, record) in cells.iter().zip(&harvest.records) {
        let runs = record.samples.len();
        match &record.failure {
            Some(why) => eprintln!("  FAILED {:<40} {why}", cell.label),
            None => eprintln!(
                "  ok     {:<40} {runs} runs, median run {:.1} ms, setup {:.1} ms, digest {:016x}",
                cell.label,
                median(&record.samples, |s| s.run_ns) as f64 / 1e6,
                median(&record.samples, |s| s.setup_ns) as f64 / 1e6,
                record.samples[0].counts.digest(cell.kind)
            ),
        }
    }
    for ((name, _), p) in probes::PROBES.iter().zip(&probe_list) {
        if let Some(p) = p {
            eprintln!(
                "  probe  {name:<32} {:>12.1} ns/op x {} ops ({})",
                p.ns_per_op, p.ops, p.shape
            );
        }
    }
    for check in &checks {
        eprintln!("  CHECK FAILED: {check}");
    }
    for ((name, unit), value) in names.iter().zip(&values) {
        eprintln!("  {name:<40} {value:>16.6} {unit}");
    }

    let metrics: Vec<String> = names
        .iter()
        .zip(&values)
        .map(|((name, unit), v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && probe_failures == 0 && checks.is_empty(),
        n + probe_list.len(),
        failed + probe_failures,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under
    /// `section`, in order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..start + text[start..].find(']').expect("closing bracket")];
        let field = |entry: &str, key: &str| {
            let from = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[from..from + entry[from..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_declared_ones() {
        assert_eq!(declared("end_to_end"), own(&E2E_METRICS));
        let layer: Vec<(&str, &str)> = probes::PROBES
            .iter()
            .map(|&(name, _)| (name, "ns"))
            .chain(COUNT_METRICS)
            .collect();
        assert_eq!(declared("per_layer"), own(&layer));
    }

    #[test]
    fn traced_and_untraced_runs_print_disjoint_metrics() {
        for (name, _) in E2E_METRICS {
            assert!(probes::PROBES.iter().all(|&(n, _)| n != name));
            assert!(COUNT_METRICS.iter().all(|&(n, _)| n != name));
        }
    }
}
