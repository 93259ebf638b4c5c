//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro                # everything
//! repro fig3           # one artifact: fig3 fig4 fig5 table1..table5 fourp
//! repro --sizes 128,65536 fig3   # restrict the size sweep
//! repro --filter full/4096/tx    # run exactly one matrix cell
//! repro perf           # time the benchmark matrix, append to BENCH_substrate.json
//! repro perf --check   # compare against the latest BENCH row; exit 1 on >10% regression
//! repro scale          # CPUs x flows x modes scaling sweep (incl. RSS)
//! repro steer          # steering-policy sweep: RSS vs Flow Director
//! repro poll           # interrupt-vs-poll sweep: IRQ stack vs PMD cores
//! repro churn          # connection-churn sweep: SYN-to-FIN lifecycle
//! repro --list         # sweeps, their filter tokens, latest digests
//! repro scale --list   # the filter spec of every cell of one sweep
//! repro --quick perf   # smoke variants at tiny message counts (CI)
//! ```
//!
//! Each sweep subcommand is one entry of [`SWEEPS`] — its cell grid, cell
//! runner, digest fold, printer and BENCH label — and [`run_sweep`]
//! drives them all, so `--filter`, `--check`, `--quick`, `--list` and the
//! history append behave alike for every sweep. The scale and churn
//! sweeps end with a large and a million-flow cell: one-cell entries
//! that run after every unfiltered run of their sweep.
//!
//! `--filter` takes one token per position of the sweep's grammar, e.g.
//! `irq/flowdir/8/1000` for `churn`; a filter that matches no cell lists
//! the valid tokens and exits 2, like a misspelled artifact. `--check`
//! gates the fresh wall time against the newest matching BENCH row
//! instead of appending a row. `REPRO_THREADS` sets the worker count of
//! the job pool; results are identical at any setting.

use affinity_sim::{
    report, AffinityMode, CoalesceConfig, DataplaneMode, Direction, DynamicSteer, ExperimentConfig,
    FlowPlacement, RunMetrics, RunResult, ServerWorkload, SteerSpec, VectorLayout, PAPER_SIZES,
};
use bench::{
    append_history, figure_row, fnv_fold, latest_entries_by_threads, latest_history_entry,
    pool_threads, run_cell, run_pool, BenchRow, CURRENT_PR, EXTREME_POINTS,
};
use sim_cpu::EventCosts;

/// History file the sweeps record into and `--check` reads.
const HISTORY_PATH: &str = "BENCH_substrate.json";

/// Wall-time slack `--check` allows over the recorded row.
const CHECK_SLACK: f64 = 1.10;

/// Absolute grace on top of [`CHECK_SLACK`]: scheduling noise is a
/// constant (~0.1-0.2 s), not a percentage, so sub-second sweeps would
/// flake on every gusty run without it.
const CHECK_NOISE_FLOOR_S: f64 = 0.25;

/// Wall seconds of the pre-optimization harness on the 112 matrix cells
/// (single core), recorded in matrix rows as `baseline_wall_s`.
const PRE_PR_BASELINE_S: f64 = 13.5;

/// Construction bound for the million-flow cells, in host ns per flow:
/// a quarter of the ~22,700 ns/flow the incremental (pre-slab) path
/// measured, ~5x above the slab rate, so a build this slow has fallen
/// back toward per-region provisioning.
const MAX_SETUP_NS_PER_FLOW: f64 = 22_700.0 / 4.0;

/// The paper artifacts; a bare `repro` regenerates them all.
const PAPER_ARTIFACTS: [&str; 9] = [
    "fig3", "fig4", "fig5", "table1", "table2", "table3", "table4", "table5", "fourp",
];

struct Args {
    artifacts: Vec<String>,
    sizes: Vec<u64>,
    /// `--filter <spec>`: one matrix cell, or a sweep's matching cells.
    filter: Option<String>,
    /// `--quick`: tiny message counts, no history row (CI smoke).
    quick: bool,
    /// `--check`: gate on the recorded wall time instead of appending.
    check: bool,
    /// `--list`: print the sweeps (or one sweep's cells) and exit.
    list: bool,
}

/// Rejects a bad command-line token: prints it and the accepted values,
/// then exits with status 2 (usage error).
fn usage_error(what: &str, got: &str, valid: &str) -> ! {
    eprintln!("repro: unknown {what} {got:?}");
    eprintln!("  valid {what}s: {valid}");
    eprintln!(
        "  usage: repro [--list] [--quick] [--check] [--sizes N,N,..] [--filter spec] [artifact..]"
    );
    std::process::exit(2);
}

/// The `--filter` token of a mode.
fn mode_token(mode: AffinityMode) -> &'static str {
    match mode {
        AffinityMode::None => "no",
        AffinityMode::Irq => "irq",
        AffinityMode::Process => "proc",
        AffinityMode::Full => "full",
        AffinityMode::Rss => "rss",
    }
}

/// A filter token as grids spell it: lower case, with the mode aliases
/// `none` and `process` folded onto `no` and `proc`.
fn canonical_token(token: &str) -> String {
    match token.to_ascii_lowercase().as_str() {
        "none" => "no".to_string(),
        "process" => "proc".to_string(),
        other => other.to_string(),
    }
}

/// Parses the single-cell `--filter mode/size/dir`, which takes any size
/// and mode, not only the matrix's.
fn parse_filter(spec: &str) -> (AffinityMode, u64, Direction) {
    let grammar = "<mode>/<size>/<dir>, e.g. full/4096/tx (mode: no|irq|proc|full|rss; dir: tx|rx)";
    let [mode, size, dir] = spec.split('/').collect::<Vec<_>>()[..] else {
        usage_error("filter", spec, grammar);
    };
    let mut modes = [AffinityMode::Rss].into_iter().chain(AffinityMode::ALL);
    let mode = modes
        .find(|&m| mode_token(m) == canonical_token(mode))
        .unwrap_or_else(|| usage_error("filter mode", mode, "no, irq, proc, full, rss"));
    let size = size.parse().unwrap_or_else(|_| {
        usage_error(
            "filter size",
            size,
            "a message size in bytes, e.g. 128, 4096, 65536",
        )
    });
    let direction = Direction::ALL
        .into_iter()
        .find(|d| d.label().eq_ignore_ascii_case(dir))
        .unwrap_or_else(|| usage_error("filter direction", dir, "tx, rx"));
    (mode, size, direction)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        artifacts: Vec::new(),
        sizes: PAPER_SIZES.to_vec(),
        filter: None,
        quick: false,
        check: false,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sizes" => {
                let list = args.next().unwrap_or_default();
                parsed.sizes = list
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect();
            }
            "--filter" => parsed.filter = Some(args.next().unwrap_or_default()),
            "--quick" => parsed.quick = true,
            "--check" => parsed.check = true,
            "--list" => parsed.list = true,
            _ => parsed.artifacts.push(arg),
        }
    }
    let known: Vec<&str> = PAPER_ARTIFACTS
        .into_iter()
        .chain(subcommands().map(|s| s.name))
        .collect();
    if let Some(bad) = parsed
        .artifacts
        .iter()
        .find(|a| !known.contains(&a.as_str()))
    {
        usage_error("artifact", bad, &known.join(", "));
    }
    if parsed.artifacts.is_empty() {
        parsed.artifacts = PAPER_ARTIFACTS.map(String::from).to_vec();
    }
    parsed
}

/// One simulation cell of a sweep.
struct Cell {
    /// The tokens `--filter` matches, one per grammar position.
    tokens: Vec<String>,
    /// The cell's variant (`RSS Aff`, `Irq/FlowDir`), or an extra cell's
    /// headline.
    name: String,
    config: ExperimentConfig,
}

impl Cell {
    /// A cell whose filter tokens are the `/`-separated parts of `spec`.
    fn new(spec: &str, name: &str, config: ExperimentConfig) -> Self {
        let tokens = spec.split('/').filter(|t| !t.is_empty());
        Cell {
            tokens: tokens.map(canonical_token).collect(),
            name: name.to_string(),
            config,
        }
    }

    fn cpus(&self) -> usize {
        self.config.cpus
    }

    fn flows(&self) -> usize {
        self.config.connections
    }
}

/// One `repro` sweep, or one extra cell that runs after a sweep.
struct Sweep {
    /// Subcommand (`scale`), or an extra cell's name (`scale 1M`).
    name: &'static str,
    /// The sweep an extra cell runs after; `None` for a subcommand.
    after: Option<&'static str>,
    /// Names of the `--filter` positions; none for an extra cell.
    grammar: &'static [&'static str],
    /// `benchmark` of the BENCH rows. The text before `" ("` is the
    /// label `--check` and `--list` find rows by.
    benchmark: &'static str,
    /// `baseline_wall_s` of the rows.
    baseline_s: Option<f64>,
    /// The cells in digest order; smoke counts (and grid) when quick.
    grid: fn(bool) -> Vec<Cell>,
    run: fn(&Cell) -> RunResult,
    /// The words one result folds into the digest.
    digest: fn(&RunResult) -> Vec<u64>,
    print: fn(&Run),
}

/// Every sweep and extra cell, in `--list` order.
#[rustfmt::skip]
const SWEEPS: [Sweep; 9] = [
    Sweep { name: "perf", after: None, baseline_s: Some(PRE_PR_BASELINE_S),
        grammar: &["mode", "size", "dir"],
        benchmark: "full figure matrix (2 dirs x 7 sizes x 4 modes x 2 seeds)",
        grid: perf_grid, run: run_plain, digest: cycles, print: print_perf },
    Sweep { name: "scale", after: None, baseline_s: None,
        grammar: &["mode", "cpus", "flows"],
        benchmark: "scale sweep (4 CPU counts x 3 flow counts x 4 modes, Rx 4KB)",
        grid: scale_grid, run: run_plain, digest: cycles, print: print_scale },
    Sweep { name: "scale large", after: Some("scale"), baseline_s: None,
        grammar: &[],
        benchmark: "scale large cell (16 cpus x 4096 flows, rss, Rx 4KB)",
        grid: scale_large_grid, run: run_plain, digest: cycles, print: print_scale_cell },
    Sweep { name: "scale 1M", after: Some("scale"), baseline_s: None,
        grammar: &[],
        benchmark: "scale 1M cell (16 cpus x 1000000 flows, rss, Rx 4KB)",
        grid: scale_million_grid, run: run_bounded, digest: cycles, print: print_scale_cell },
    Sweep { name: "steer", after: None, baseline_s: None,
        grammar: &["policy", "coalesce", "cpus"],
        benchmark: "steering sweep (3 CPU counts x 4 policies, Rx 4KB)",
        grid: steer_grid, run: run_plain, digest: cycles, print: print_steer },
    Sweep { name: "poll", after: None, baseline_s: None,
        grammar: &["plane", "policy", "cpus"],
        benchmark: "poll sweep (3 CPU counts x 4 dataplanes, Rx 4KB)",
        grid: poll_grid, run: run_plain, digest: cycles, print: print_poll },
    Sweep { name: "churn", after: None, baseline_s: None,
        grammar: &["plane", "policy", "cpus", "flows"],
        benchmark: "churn sweep (3 CPU counts x 2 flow targets x 4 planes, Tx RPC)",
        grid: churn_grid, run: run_churn, digest: churn_words, print: print_churn },
    Sweep { name: "churn large", after: Some("churn"), baseline_s: None,
        grammar: &[],
        benchmark: "churn large cell (16 cpus x 100000 flows, flowdir, mice)",
        grid: churn_large_grid, run: run_churn, digest: churn_words, print: print_churn_cell },
    Sweep { name: "churn 1M", after: Some("churn"), baseline_s: None,
        grammar: &[],
        benchmark: "churn 1M cell (16 cpus x 1000000 flow slots, flowdir, mice)",
        grid: churn_million_grid, run: run_churn_bounded, digest: churn_words,
        print: print_churn_cell },
];

/// The sweeps that are subcommands, not extra cells.
fn subcommands() -> impl Iterator<Item = &'static Sweep> {
    SWEEPS.iter().filter(|s| s.after.is_none())
}

impl Sweep {
    fn label(&self) -> &'static str {
        self.benchmark.split(" (").next().unwrap_or(self.benchmark)
    }

    /// The grammar with the tokens each position takes in `cells`, e.g.
    /// `<mode>/<cpus>  (mode no|irq; cpus 2|4)`.
    fn grammar_tokens(&self, cells: &[Cell]) -> String {
        let (mut names, mut tokens) = (Vec::new(), Vec::new());
        for (i, name) in self.grammar.iter().enumerate() {
            let mut seen: Vec<&str> = Vec::new();
            for token in cells.iter().map(|c| c.tokens[i].as_str()) {
                if !seen.contains(&token) {
                    seen.push(token);
                }
            }
            names.push(format!("<{name}>"));
            tokens.push(format!("{name} {}", seen.join("|")));
        }
        format!("{}  ({})", names.join("/"), tokens.join("; "))
    }

    /// The cells `spec` selects; exits 2, listing the valid tokens, when
    /// it selects none.
    fn select(&self, cells: Vec<Cell>, spec: &str) -> Vec<Cell> {
        let want: Vec<String> = spec.split('/').map(canonical_token).collect();
        let valid = self.grammar_tokens(&cells);
        let cells: Vec<Cell> = cells.into_iter().filter(|c| c.tokens == want).collect();
        if cells.is_empty() {
            eprintln!("repro {}: --filter {spec:?} matches no cells", self.name);
            eprintln!("  valid: {valid}");
            std::process::exit(2);
        }
        cells
    }
}

/// Runs one sweep the way the flags ask — listed, filtered, quick,
/// checked or recorded — then the extra cells that follow an unfiltered
/// run of it.
fn run_sweep(sweep: &Sweep, args: &Args) {
    let filter = args.filter.as_deref();
    if args.check && filter.is_some() {
        // The gate compares against rows recorded for the full sweep.
        eprintln!(
            "repro {}: --check times the full sweep; drop --filter",
            sweep.name
        );
        std::process::exit(2);
    }
    let mut cells = (sweep.grid)(args.quick);
    if let Some(spec) = filter {
        cells = sweep.select(cells, spec);
    }
    if args.list {
        for cell in &cells {
            println!("{}", cell.tokens.join("/"));
        }
        return;
    }
    let (n, threads) = (cells.len(), pool_threads());
    let quick = if args.quick {
        " (quick smoke counts)"
    } else {
        ""
    };
    eprintln!(
        "{}: {n} cells on {threads} worker(s){quick}...",
        sweep.label()
    );
    let t0 = std::time::Instant::now();
    let results = run_pool((0..n).collect(), threads, |i| (sweep.run)(&cells[i]));
    let wall = t0.elapsed().as_secs_f64();
    let row = BenchRow {
        pr: CURRENT_PR,
        benchmark: sweep.benchmark.to_string(),
        cells: n,
        threads,
        baseline_wall_s: sweep.baseline_s,
        current_wall_s: wall,
        setup_wall_s: Some(results.iter().map(|r| r.setup_wall_s).sum()),
        speedup: sweep.baseline_s.map(|b| b / wall),
        cells_per_sec: n as f64 / wall,
        digest: Some(fnv_fold(results.iter().flat_map(sweep.digest))),
    };
    let filtered = filter.is_some();
    (sweep.print)(&Run {
        cells: &cells,
        results: &results,
        row: &row,
        filtered,
    });
    if filtered {
        eprintln!("filtered run: not recorded in {HISTORY_PATH}");
        return;
    }
    if args.check {
        check_gate(sweep, wall, args.quick, threads);
    } else if args.quick {
        eprintln!("quick smoke run: not recorded in {HISTORY_PATH}");
    } else {
        append_history(HISTORY_PATH, &row);
    }
    for extra in SWEEPS.iter().filter(|s| s.after == Some(sweep.name)) {
        run_sweep(extra, args);
    }
}

/// The wall-time regression gate: exits 1 if the fresh wall is more than
/// [`CHECK_SLACK`] (plus the noise floor) over the newest row of the
/// sweep recorded at the same worker count. Quick runs time a different
/// workload, so they only verify that a row exists, at any count.
fn check_gate(sweep: &Sweep, wall: f64, quick: bool, threads: usize) {
    let (name, label) = (sweep.name, sweep.label());
    let Some(row) = latest_history_entry(HISTORY_PATH, label, (!quick).then_some(threads)) else {
        let at = if quick {
            String::new()
        } else {
            format!(" at threads={threads}")
        };
        eprintln!(
            "{name} check FAILED: no \"{label}\" row{at} in {HISTORY_PATH} to compare against"
        );
        std::process::exit(1);
    };
    let (recorded, pr) = (row.current_wall_s, row.pr);
    if quick {
        eprintln!(
            "{name} check: smoke mode — quick counts are not comparable to the recorded \
             {recorded:.2} s (PR {pr}); timing gate skipped"
        );
        return;
    }
    warn_parallel_regression(name, label);
    let limit = recorded * CHECK_SLACK + CHECK_NOISE_FLOOR_S;
    if wall > limit {
        eprintln!(
            "{name} check FAILED: {wall:.2} s vs recorded {recorded:.2} s (PR {pr}, threads {}) \
             — over the {limit:.2} s limit",
            row.threads
        );
        std::process::exit(1);
    }
    eprintln!(
        "{name} check OK: {wall:.2} s vs recorded {recorded:.2} s (PR {pr}, limit {limit:.2} s)"
    );
}

/// Non-fatal: warns when the newest threads>1 row of the sweep is slower
/// than its newest threads=1 row beyond the gate's tolerance — the
/// parallel runner is then a net loss, and that should never land
/// silently.
fn warn_parallel_regression(name: &str, label: &str) {
    let rows = latest_entries_by_threads(HISTORY_PATH, label);
    let Some(serial) = rows.iter().find(|e| e.threads == 1) else {
        return;
    };
    let slow = |row: &&BenchRow| {
        row.current_wall_s > serial.current_wall_s * CHECK_SLACK + CHECK_NOISE_FLOOR_S
    };
    for row in rows.iter().filter(|e| e.threads > 1).filter(slow) {
        eprintln!(
            "{name} check WARNING: threads={} row ({:.2} s, PR {}) is slower than threads=1 \
             ({:.2} s, PR {}) — the parallel runner is losing",
            row.threads, row.current_wall_s, row.pr, serial.current_wall_s, serial.pr
        );
    }
}

/// `repro --list`: per sweep, the filter grammar with the tokens its
/// grid takes (the listing the exit-2 paths print) and the newest
/// recorded history row.
fn list_sweeps() {
    println!("recorded sweeps ({HISTORY_PATH}):");
    for sweep in &SWEEPS {
        println!("\n  {}", sweep.name);
        match sweep.after {
            Some(parent) => {
                println!("    no filter grammar — runs after every unfiltered {parent} sweep")
            }
            None => println!(
                "    --filter {}",
                sweep.grammar_tokens(&(sweep.grid)(false))
            ),
        }
        let Some(row) = latest_history_entry(HISTORY_PATH, sweep.label(), None) else {
            println!("    latest: no recorded rows");
            continue;
        };
        // Older rows may lack the digest and the setup/run split.
        let digest = row
            .digest
            .map_or("(none recorded)".to_string(), |d| format!("{d:016x}"));
        let setup = row
            .setup_wall_s
            .map_or(String::new(), |s| format!(" (setup {s:.2} s)"));
        println!(
            "    latest: PR {}, {:.2} s{setup} at {} worker(s), digest {digest}",
            row.pr, row.current_wall_s, row.threads
        );
    }
}

fn run_plain(cell: &Cell) -> RunResult {
    affinity_sim::run_experiment(&cell.config).expect("valid sweep config")
}

/// Runs a churn cell and asserts the drain invariants every churn run
/// must satisfy: no live flows and no leaked steering-table entries.
fn run_churn(cell: &Cell) -> RunResult {
    let r = run_plain(cell);
    let lc = r.lifecycle;
    let at = format!("{} {}cpu {}flows", cell.name, cell.cpus(), cell.flows());
    assert!(lc.accepts > 0, "{at}: no accepts in window ({lc:?})");
    assert!(lc.completes > 0, "{at}: no completes in window ({lc:?})");
    assert_eq!(lc.final_live_flows, 0, "{at}: flows leaked ({lc:?})");
    assert_eq!(
        lc.final_table_entries, 0,
        "{at}: steering table leaked ({lc:?})"
    );
    r
}

fn run_bounded(cell: &Cell) -> RunResult {
    assert_setup_bound(cell, run_plain(cell))
}

fn run_churn_bounded(cell: &Cell) -> RunResult {
    assert_setup_bound(cell, run_churn(cell))
}

/// Asserts the million-flow construction bound and reports the rate.
fn assert_setup_bound(cell: &Cell, r: RunResult) -> RunResult {
    let ns_per_flow = r.setup_wall_s * 1e9 / cell.flows() as f64;
    let bound = MAX_SETUP_NS_PER_FLOW;
    assert!(
        ns_per_flow <= bound,
        "{}: construction ran at {ns_per_flow:.0} ns/flow, over the {bound:.0} ns/flow bound — \
         the slab path has regressed toward incremental provisioning",
        cell.name
    );
    eprintln!(
        "{}: construction {ns_per_flow:.0} ns/flow (bound {bound:.0})",
        cell.name
    );
    r
}

fn cycles(r: &RunResult) -> Vec<u64> {
    vec![r.metrics.wall_cycles]
}

/// Wall cycles *and* the lifecycle counters, so a change that keeps
/// timing but moves accept/drop accounting still moves the digest.
fn churn_words(r: &RunResult) -> Vec<u64> {
    let lc = &r.lifecycle;
    vec![
        r.metrics.wall_cycles,
        lc.accepts,
        lc.completes,
        lc.backlog_drops,
    ]
}

/// One finished run of a sweep, as its printer sees it.
struct Run<'a> {
    cells: &'a [Cell],
    results: &'a [RunResult],
    row: &'a BenchRow,
    /// Whether `--filter` narrowed the grid; a subset may lack the
    /// variants a cross-cell summary compares, so it gets none.
    filtered: bool,
}

impl Run<'_> {
    fn pairs(&self) -> impl Iterator<Item = (&Cell, &RunResult)> {
        self.cells.iter().zip(self.results)
    }

    /// The grid's last cell, at its largest CPU and flow counts.
    fn top(&self) -> &Cell {
        self.cells.last().expect("non-empty grid")
    }

    /// The result of variant `name` at the [`Run::top`] counts.
    fn at(&self, name: &str) -> &RunResult {
        let top = self.top();
        let at_top =
            |c: &Cell| c.cpus() == top.cpus() && c.flows() == top.flows() && c.name == name;
        self.pairs()
            .find(|(c, _)| at_top(c))
            .expect("variant present")
            .1
    }

    /// Prints `title`, the column headers and one row per cell.
    fn table(&self, title: &str, columns: &[Column]) {
        let line = |text: &dyn Fn(&Column) -> String| {
            let cols: Vec<String> = columns
                .iter()
                .map(|c| format!("{:>1$}", text(c), c.1))
                .collect();
            println!("{}", cols.join(" "));
        };
        println!("{title}");
        line(&|c| c.0.to_string());
        for (cell, r) in self.pairs() {
            line(&|c| (c.2)(cell, r));
        }
    }

    /// Prints an extra cell's line: its headline, `text`, its timing.
    fn cell_line(&self, text: &str) {
        let (name, setup) = (&self.cells[0].name, self.results[0].setup_wall_s);
        let (wall, digest) = (self.row.current_wall_s, self.digest());
        println!("{name}: {text} in {wall:.2} s (setup {setup:.2} s), digest {digest:016x}");
    }

    fn digest(&self) -> u64 {
        self.row.digest.expect("fresh rows carry their digest")
    }

    fn footer(&self) {
        let (row, digest) = (self.row, self.digest());
        let (wall, rate) = (row.current_wall_s, row.cells_per_sec);
        println!(
            "{} cells in {wall:.2} s ({rate:.1} cells/sec), digest {digest:016x}",
            row.cells
        );
    }
}

/// A table column: header, width, and a cell's value (right-aligned).
type Column = (&'static str, usize, fn(&Cell, &RunResult) -> String);

const CPUS: Column = ("cpus", 5, |c, _| c.cpus().to_string());
const BAR: Column = ("|", 1, |_, _| "|".to_string());
const BW: Column = ("BW (Mb/s)", 9, |_, r| mbps(r));
const COST: Column = ("GHz/Gbps", 9, |_, r| cost(r));

fn mbps(r: &RunResult) -> String {
    format!("{:.0}", r.metrics.throughput_mbps())
}

fn cost(r: &RunResult) -> String {
    format!("{:.2}", r.metrics.cost_ghz_per_gbps())
}

/// Completed connections per simulated second, in thousands.
fn kconn_s(r: &RunResult) -> f64 {
    let seconds = r.metrics.wall_cycles as f64 / r.metrics.freq.hertz() as f64;
    r.lifecycle.completes as f64 / seconds / 1e3
}

/// The benchmark matrix: both directions, every paper size, all four
/// modes, two seeds — 112 cells. Its stdout is the BENCH row.
fn perf_grid(quick: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for dir in Direction::ALL {
        for size in PAPER_SIZES {
            for mode in AffinityMode::ALL {
                for seed in [0x5EED, 42] {
                    let mut config = bench::cell(dir, size, mode, seed);
                    if quick {
                        config.workload = config.workload.quick();
                    }
                    let spec = format!("{}/{size}/{}", mode_token(mode), dir.label());
                    cells.push(Cell::new(&spec, mode.label(), config));
                }
            }
        }
    }
    cells
}

fn print_perf(run: &Run) {
    if run.filtered {
        run.footer();
    } else {
        println!("{}", run.row);
    }
}

/// The scale sweep's modes: the Figure 3 knobs plus RSS hash steering.
const SCALE_MODES: [AffinityMode; 4] = [
    AffinityMode::None,
    AffinityMode::Irq,
    AffinityMode::Full,
    AffinityMode::Rss,
];

/// CPU counts x flow counts x modes, Rx 4 KB. With flows hash-steered to
/// per-CPU vectors (RSS), adding CPUs should add bandwidth — the future
/// the paper's conclusion sketches.
fn scale_grid(quick: bool) -> Vec<Cell> {
    let (cpu_grid, flow_grid): (&[usize], &[usize]) = if quick {
        (&[2, 4], &[8, 16])
    } else {
        (&[2, 4, 8, 16], &[8, 64, 256])
    };
    let mut cells = Vec::new();
    for &cpus in cpu_grid {
        for &flows in flow_grid {
            for mode in SCALE_MODES {
                let mut config = ExperimentConfig::scale(Direction::Rx, cpus, flows, mode);
                if quick {
                    config.workload.warmup_messages = 2;
                    config.workload.measure_messages = 3;
                }
                let spec = format!("{}/{cpus}/{flows}", mode_token(mode));
                cells.push(Cell::new(&spec, mode.label(), config));
            }
        }
    }
    cells
}

fn print_scale(run: &Run) {
    if run.filtered {
        for (c, r) in run.pairs() {
            println!(
                "{} cpus, {} flows, {}: {} Mb/s, {} GHz/Gbps, {} cycles",
                c.cpus(),
                c.flows(),
                c.name,
                mbps(r),
                cost(r),
                r.metrics.wall_cycles
            );
        }
        return run.footer();
    }
    println!("scaling sweep (Rx, 4KB messages, one NIC queue per CPU)");
    let [a, b, c, d] = SCALE_MODES.map(AffinityMode::label);
    let header = format!("{:>5} {:>6} | {a:>9} {b:>9} {c:>9} {d:>9}", "cpus", "flows");
    let table = |unit: &str, value: fn(&RunResult) -> String| {
        println!("{header}  ({unit})");
        for (cells, results) in run.cells.chunks(4).zip(run.results.chunks(4)) {
            let cols: Vec<String> = results.iter().map(|r| format!("{:>9}", value(r))).collect();
            println!(
                "{:>5} {:>6} | {}",
                cells[0].cpus(),
                cells[0].flows(),
                cols.join(" ")
            );
        }
    };
    table("Mb/s", mbps);
    println!("\nprocessing cost shape");
    table("GHz/Gbps", cost);
    let max_flows = run.top().flows();
    let rss: Vec<String> = run
        .pairs()
        .filter(|(c, _)| c.flows() == max_flows && c.name == AffinityMode::Rss.label())
        .map(|(c, r)| format!("{} cpus -> {} Mb/s", c.cpus(), mbps(r)))
        .collect();
    println!("RSS scaling at {max_flows} flows: {}", rss.join(", "));
    run.footer();
}

/// 16 CPUs x 4096 flows under RSS: whether per-flow state and the
/// coherence directory hold their rate as the footprint grows past the
/// grid's 256-flow ceiling. Per-flow counts sit below the grid's.
fn scale_large_grid(quick: bool) -> Vec<Cell> {
    let mut config = ExperimentConfig::scale(Direction::Rx, 16, 4096, AffinityMode::Rss);
    let (warmup, measure) = if quick { (1, 1) } else { (2, 4) };
    config.workload.warmup_messages = warmup;
    config.workload.measure_messages = measure;
    let name = "large cell (16 cpus x 4096 flows, rss)";
    vec![Cell::new("", name, config)]
}

/// 1M provisioned flows under RSS with *aggregate* message targets: the
/// subject is provisioning and footprint, so the peers stream on a
/// bounded working set of 256 flows per CPU (all million streaming at
/// once is receive livelock by construction). Quick mode keeps the full
/// million flows — construction is the point — on fewer CPUs.
fn scale_million_grid(quick: bool) -> Vec<Cell> {
    let (cpus, flows) = (if quick { 4 } else { 16 }, 1_000_000);
    let (warmup, measure) = if quick { (256, 1024) } else { (4_096, 16_384) };
    let mut config = ExperimentConfig::scale(Direction::Rx, cpus, flows, AffinityMode::Rss);
    config.workload.aggregate_targets = true;
    config.workload.active_conns = 256 * cpus;
    config.workload.warmup_messages = warmup;
    config.workload.measure_messages = measure;
    let name = format!("1M cell ({cpus} cpus x {flows} flows, rss)");
    vec![Cell::new("", &name, config)]
}

fn print_scale_cell(run: &Run) {
    let r = &run.results[0];
    run.cell_line(&format!("{} Mb/s, {} GHz/Gbps", mbps(r), cost(r)));
}

/// Static RSS hashing with the queue vectors split evenly over CPUs.
const RSS: SteerSpec = SteerSpec {
    placement: FlowPlacement::RssHash,
    vectors: VectorLayout::SplitEven,
    dynamic: DynamicSteer::Off,
    pin_processes: false,
};

/// CPU counts x `variants` on the multi-queue SUT (one 4-queue NIC port
/// per four CPUs, 4 flows per CPU, Rx 4KB). A variant is a name, its
/// interrupt steering (`None`: the poll-mode dataplane) and its
/// interrupt-moderation override.
fn geometry_grid(
    quick: bool,
    variants: &[(&str, Option<SteerSpec>, Option<CoalesceConfig>)],
) -> Vec<Cell> {
    let cpu_grid: &[usize] = if quick { &[4] } else { &[4, 8, 16] };
    let mut cells = Vec::new();
    for &cpus in cpu_grid {
        for &(name, spec, coalesce) in variants {
            let mut config = match spec {
                Some(spec) => ExperimentConfig::steer_sweep(Direction::Rx, cpus, 4 * cpus, spec),
                None => ExperimentConfig::poll_sweep(Direction::Rx, cpus, 4 * cpus),
            };
            if let Some(coalesce) = coalesce {
                config.nic.coalesce = coalesce;
            }
            if !quick {
                config.workload.warmup_messages = 8;
                config.workload.measure_messages = 24;
            }
            let spec = format!("{name}/{cpus}");
            cells.push(Cell::new(&spec, name, config));
        }
    }
    cells
}

/// Static RSS vs Flow Director re-targeting, each under fixed and
/// adaptive interrupt moderation. Flow Director chases the consumer, so
/// some flows complete on a different CPU than their previous batch —
/// the reordering signature the steering counters show.
fn steer_grid(quick: bool) -> Vec<Cell> {
    let adaptive = Some(CoalesceConfig::AdaptiveTimeout {
        min_events: 1,
        max_events: 8,
        idle_gap_cycles: 8_000,
        timeout_cycles: 12_000,
    });
    let flowdir = Some(SteerSpec::flow_director());
    let variants = [
        ("RSS/fixed", Some(RSS), None),
        ("RSS/adaptive", Some(RSS), adaptive),
        ("FlowDir/fixed", flowdir, None),
        ("FlowDir/adaptive", flowdir, adaptive),
    ];
    geometry_grid(quick, &variants)
}

fn print_steer(run: &Run) {
    let title = "steering sweep (Rx, 4KB messages, 4 flows/CPU, 4-queue NIC per 4 CPUs)";
    let columns: [Column; 9] = [
        CPUS,
        ("policy", 17, |c, _| c.name.clone()),
        BAR,
        BW,
        COST,
        ("clears/msg", 11, |_, r| {
            let clears = r.metrics.total.machine_clears as f64;
            format!("{:.1}", clears / r.metrics.messages.max(1) as f64)
        }),
        ("resteers", 9, |_, r| r.steer.resteers.to_string()),
        ("rejects", 8, |_, r| r.steer.table_rejects.to_string()),
        ("ooo", 8, |_, r| r.steer.ooo_completions.to_string()),
    ];
    run.table(title, &columns);
    if !run.filtered {
        let flowdir = run.at("FlowDir/fixed").metrics.throughput_mbps();
        let rss = run.at("RSS/fixed").metrics.throughput_mbps();
        let (cpus, gain) = (run.top().cpus(), 100.0 * (flowdir / rss - 1.0));
        println!("\nat {cpus} cpus: FlowDir {flowdir:.0} Mb/s vs RSS {rss:.0} Mb/s ({gain:+.1}%)");
    }
    run.footer();
}

/// The interrupt-driven stack under three steering policies against the
/// kernel-bypass poll-mode dataplane. Poll mode takes zero interrupts;
/// its price is PMD cores spinning whether or not frames arrive, charged
/// as busy time, so GHz/Gbps prices the burned cores honestly.
fn poll_grid(quick: bool) -> Vec<Cell> {
    let irq_cpu0 = SteerSpec {
        placement: FlowPlacement::RoundRobin,
        vectors: VectorLayout::AllCpu0,
        ..RSS
    };
    let variants = [
        ("Irq/cpu0", Some(irq_cpu0), None),
        ("Irq/RSS", Some(RSS), None),
        ("Irq/FlowDir", Some(SteerSpec::flow_director()), None),
        ("Poll/pmd", None, None),
    ];
    geometry_grid(quick, &variants)
}

fn print_poll(run: &Run) {
    let title = "interrupt-vs-poll sweep (Rx, 4KB messages, 4 flows/CPU, 4-queue NIC per 4 CPUs)";
    let columns: [Column; 9] = [
        CPUS,
        ("dataplane", 12, |c, _| c.name.clone()),
        BAR,
        BW,
        COST,
        ("irqs", 6, |_, r| r.metrics.interrupts.to_string()),
        ("spin%", 6, |_, r| {
            format!("{:.1}", 100.0 * r.poll.spin_fraction())
        }),
        ("polls", 8, |_, r| r.poll.polls.to_string()),
        ("empty polls", 12, |_, r| r.poll.empty_polls.to_string()),
    ];
    run.table(title, &columns);
    if !run.filtered {
        let (poll, rss) = (&run.at("Poll/pmd").metrics, &run.at("Irq/RSS").metrics);
        let (poll_bw, rss_bw) = (poll.throughput_mbps(), rss.throughput_mbps());
        println!(
            "\nat {} cpus: Poll {poll_bw:.0} Mb/s vs Irq/RSS {rss_bw:.0} Mb/s ({:+.1}%), at {:.2} \
             vs {:.2} GHz/Gbps — poll's spin cycles are priced as busy cores",
            run.top().cpus(),
            100.0 * (poll_bw / rss_bw - 1.0),
            poll.cost_ghz_per_gbps(),
            rss.cost_ghz_per_gbps(),
        );
    }
    run.footer();
}

/// Flow Director with server processes pinned to their flows'
/// even-spread homes: without the pin the server runs where the softirq
/// delivered, and static RSS and Flow Director collapse into one policy.
fn pinned_flow_director() -> SteerSpec {
    SteerSpec {
        pin_processes: true,
        ..SteerSpec::flow_director()
    }
}

/// Short-lived SYN-to-FIN request/response connections on both
/// dataplanes under RSS and Flow Director, across CPU counts and
/// concurrent-flow targets. Quick slot counts sit below the quick
/// measurement window (24 completions), so slots recycle inside it and
/// the nonzero-accepts invariant stays checkable.
fn churn_grid(quick: bool) -> Vec<Cell> {
    let rss = SteerSpec {
        pin_processes: true,
        ..RSS
    };
    let flowdir = pinned_flow_director();
    let variants = [
        ("Irq/RSS", DataplaneMode::Interrupt, rss),
        ("Irq/FlowDir", DataplaneMode::Interrupt, flowdir),
        ("Poll/RSS", DataplaneMode::Poll, rss),
        ("Poll/FlowDir", DataplaneMode::Poll, flowdir),
    ];
    let (cpu_grid, flow_grid): (&[usize], &[usize]) = if quick {
        (&[4], &[12])
    } else {
        (&[4, 8, 16], &[1_000, 10_000])
    };
    let mut cells = Vec::new();
    for &cpus in cpu_grid {
        for &flows in flow_grid {
            for (name, plane, spec) in variants {
                let mut config = ExperimentConfig::churn(cpus, flows, spec, plane);
                if quick {
                    config = config.quick();
                }
                let spec = format!("{name}/{cpus}/{flows}");
                cells.push(Cell::new(&spec, name, config));
            }
        }
    }
    cells
}

fn print_churn(run: &Run) {
    let title = "connection-churn sweep (Tx RPC, SYN-to-FIN lifecycle, mice + 1-in-10 elephants)";
    let columns: [Column; 10] = [
        CPUS,
        ("flows", 6, |c, _| c.flows().to_string()),
        ("plane", 12, |c, _| c.name.clone()),
        BAR,
        ("kconn/s", 8, |_, r| format!("{:.1}", kconn_s(r))),
        COST,
        ("accepts", 8, |_, r| r.lifecycle.accepts.to_string()),
        ("drops", 7, |_, r| r.lifecycle.backlog_drops.to_string()),
        ("fct p50", 9, |_, r| r.lifecycle.fct_p50_cycles.to_string()),
        ("fct p99", 9, |_, r| r.lifecycle.fct_p99_cycles.to_string()),
    ];
    run.table(title, &columns);
    if !run.filtered {
        let (flowdir, rss) = (kconn_s(run.at("Irq/FlowDir")), kconn_s(run.at("Irq/RSS")));
        let (top, gain) = (run.top(), 100.0 * (flowdir / rss - 1.0));
        println!(
            "\nat {} cpus, {} flows: FlowDir {flowdir:.1} kconn/s vs RSS {rss:.1} kconn/s \
             ({gain:+.1}%) on the interrupt plane",
            top.cpus(),
            top.flows()
        );
    }
    run.footer();
}

/// 16 CPUs x 100k concurrent-flow slots, interrupt plane under Flow
/// Director, mice only: per-connection cost at 10x the grid's flow
/// population, where arena recycling and table install/teardown hold
/// their rate or visibly don't.
fn churn_large_grid(quick: bool) -> Vec<Cell> {
    let (cpus, flows) = if quick { (8, 16) } else { (16, 100_000) };
    let plane = DataplaneMode::Interrupt;
    let mut config = ExperimentConfig::churn(cpus, flows, pinned_flow_director(), plane);
    config.server = config.server.map(ServerWorkload::mice_only);
    if quick {
        config = config.quick();
    }
    let name = format!("large cell ({cpus} cpus x {flows} flows, flowdir, mice)");
    vec![Cell::new("", &name, config)]
}

/// A 1M-slot arena under Flow Director, mice only: slab provisioning,
/// per-flow region layout and the steering table at 1M entries. The
/// connection budget is a modest absolute count, and arrivals come 100k
/// cycles apart: at 1M slots every arrival is open-loop, and the default
/// 2k-cycle gap lands every accept before the measurement window opens.
fn churn_million_grid(quick: bool) -> Vec<Cell> {
    let (cpus, flows) = (if quick { 4 } else { 16 }, 1_000_000);
    let plane = DataplaneMode::Interrupt;
    let mut config = ExperimentConfig::churn(cpus, flows, pinned_flow_director(), plane);
    config.server = config.server.map(|s| ServerWorkload {
        warmup_conns: if quick { 64 } else { 4_000 },
        measure_conns: if quick { 256 } else { 12_000 },
        arrival_gap_cycles: 100_000,
        ..s.mice_only()
    });
    let name = format!("1M cell ({cpus} cpus x {flows} flow slots, flowdir, mice)");
    vec![Cell::new("", &name, config)]
}

fn print_churn_cell(run: &Run) {
    let (r, lc) = (&run.results[0], &run.results[0].lifecycle);
    run.cell_line(&format!(
        "{:.1} kconn/s, {} GHz/Gbps, {} accepts, {} drops, fct p50/p99 {}/{} cycles",
        kconn_s(r),
        cost(r),
        lc.accepts,
        lc.backlog_drops,
        lc.fct_p50_cycles,
        lc.fct_p99_cycles
    ));
}

/// Runs the single matrix cell named by `--filter` and prints its
/// headline metrics — the quickest way to reproduce one data point.
fn run_filtered(mode: AffinityMode, size: u64, direction: Direction, quick: bool) {
    let mut config = bench::cell(direction, size, mode, 0x5EED);
    if quick {
        config.workload = config.workload.quick();
    }
    eprintln!(
        "single cell: {} {} {}B ({} warmup + {} measured msgs/conn, seed 0x5EED)",
        mode.label(),
        direction.label(),
        size,
        config.workload.warmup_messages,
        config.workload.measure_messages,
    );
    let r = affinity_sim::run_experiment(&config).expect("valid experiment config");
    let m = &r.metrics;
    println!("mode        : {}", mode.label());
    println!("direction   : {}", direction.label());
    println!("message size: {size} B");
    println!("messages    : {}", m.messages);
    println!("wall cycles : {}", m.wall_cycles);
    println!("throughput  : {:.0} Mb/s", m.throughput_mbps());
    println!("cost        : {:.2} GHz/Gbps", m.cost_ghz_per_gbps());
    println!(
        "cpu util    : {}",
        (0..config.cpus)
            .map(|c| format!("{:.2}", m.cpu_utilization(c)))
            .collect::<Vec<_>>()
            .join(" ")
    );
}

fn sweep(direction: Direction, sizes: &[u64]) -> Vec<(u64, Vec<(AffinityMode, RunMetrics)>)> {
    sizes
        .iter()
        .map(|&size| {
            eprintln!("  sweep {direction} {size}B ...");
            (size, figure_row(direction, size))
        })
        .collect()
}

/// The four extreme points under no and full affinity (single seed; used
/// by Tables 1/3/4/5 and Figure 5).
fn extreme_runs() -> Vec<(String, RunResult, RunResult)> {
    EXTREME_POINTS
        .iter()
        .map(|&(dir, size)| {
            let label = format!(
                "{} {}",
                dir.label(),
                if size == 65536 { "64KB" } else { "128B" }
            );
            eprintln!("  extreme point {label} ...");
            let no = run_cell(dir, size, AffinityMode::None, 0x5EED);
            let full = run_cell(dir, size, AffinityMode::Full, 0x5EED);
            (label, no, full)
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let wants = |name: &str| args.artifacts.iter().any(|a| a == name);
    if let Some(sweep) = subcommands().find(|s| wants(s.name)) {
        return run_sweep(sweep, &args);
    }
    if args.list {
        return list_sweeps();
    }
    if args.check {
        let names: Vec<&str> = subcommands().map(|s| s.name).collect();
        let names = names.join(", ");
        eprintln!("repro: --check only applies to the sweep subcommands ({names})");
        std::process::exit(2);
    }
    let (sizes, quick) = (&args.sizes, args.quick);
    if let Some(spec) = &args.filter {
        let (mode, size, direction) = parse_filter(spec);
        run_filtered(mode, size, direction, quick);
        return;
    }

    let need_sweep = wants("fig3") || wants("fig4");
    let sweeps = if need_sweep {
        eprintln!(
            "running Figure 3/4 sweeps ({} sizes x 4 modes x 2 dirs)...",
            sizes.len()
        );
        Some((sweep(Direction::Tx, sizes), sweep(Direction::Rx, sizes)))
    } else {
        None
    };

    let need_extremes = ["table1", "table2", "fig5", "table3", "table4", "table5"]
        .iter()
        .any(|a| wants(a));
    let extremes = if need_extremes {
        eprintln!("running the four extreme points (no vs full affinity)...");
        Some(extreme_runs())
    } else {
        None
    };

    if let Some((tx, rx)) = &sweeps {
        if wants("fig3") {
            println!("{}", report::render_figure3("TX", tx));
            println!("{}", report::render_figure3("RX", rx));
        }
        if wants("fig4") {
            println!("{}", report::render_figure4("TX", tx));
            println!("{}", report::render_figure4("RX", rx));
        }
    }

    if let Some(extremes) = &extremes {
        if wants("table1") {
            for (label, no, full) in extremes {
                println!(
                    "{}",
                    report::render_table1_panel(label, &no.metrics, &full.metrics)
                );
            }
        }
        if wants("table2") {
            let (label, no, full) = &extremes[0];
            println!("(from {label})");
            println!("{}", report::render_table2(&no.metrics, &full.metrics));
        }
        if wants("fig5") {
            let costs = EventCosts::paper();
            for (label, no, full) in extremes {
                println!(
                    "{}",
                    report::render_figure5_panel(
                        &format!("{label} no affinity"),
                        &no.metrics,
                        &costs
                    )
                );
                println!(
                    "{}",
                    report::render_figure5_panel(
                        &format!("{label} full affinity"),
                        &full.metrics,
                        &costs
                    )
                );
            }
        }
        if wants("table3") {
            for (label, no, full) in extremes {
                println!(
                    "{}",
                    report::render_table3_panel(label, &no.metrics, &full.metrics)
                );
            }
        }
        if wants("table4") {
            for (label, no, full) in extremes {
                if label.contains("128B") {
                    println!(
                        "{}",
                        report::render_table4(&format!("{label} no affinity"), no, 10)
                    );
                    println!(
                        "{}",
                        report::render_table4(&format!("{label} full affinity"), full, 10)
                    );
                }
            }
        }
        if wants("table5") {
            let entries: Vec<(String, RunMetrics, RunMetrics)> = extremes
                .iter()
                .map(|(l, no, full)| (l.clone(), no.metrics.clone(), full.metrics.clone()))
                .collect();
            println!("{}", report::render_table5(&entries));
        }
    }

    if wants("fourp") {
        println!("4P extension (Section 5 note): 4 CPUs, 8 NICs, 64KB TX");
        println!(
            "{:>10} | {:>9} | {:>6} | {:>20}",
            "mode", "BW (Mb/s)", "cost", "per-CPU utilization"
        );
        for mode in AffinityMode::ALL {
            let mut config = ExperimentConfig::four_processor(Direction::Tx, 65536, mode);
            config.workload.measure_messages = 24;
            config.workload.warmup_messages = 8;
            let r = affinity_sim::run_experiment(&config).expect("valid 4P config");
            let utils: Vec<String> = (0..4)
                .map(|c| format!("{:.2}", r.metrics.cpu_utilization(c)))
                .collect();
            println!(
                "{:>10} | {:>9.0} | {:>6.2} | {}",
                mode.label(),
                r.metrics.throughput_mbps(),
                r.metrics.cost_ghz_per_gbps(),
                utils.join(" ")
            );
        }
    }
}
