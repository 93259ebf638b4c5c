//! Shared harness code for the `repro` binary and the criterion benches.
//!
//! The heavy lifting lives in [`affinity_sim`]; this crate adds the
//! experiment *matrices* the paper's evaluation section defines (which
//! sizes, which modes, which extreme points), seed-averaged sweeps, and a
//! deterministic work-stealing job pool that runs matrix cells in
//! parallel without letting the thread count leak into the results.

use affinity_sim::{
    run_experiment, AffinityMode, Direction, ExperimentConfig, RunMetrics, RunResult,
};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Seeds averaged for figure-level numbers (placement dynamics in the
/// unpinned modes are seed-sensitive, like real scheduler runs).
pub const FIGURE_SEEDS: [u64; 4] = [0x5EED, 42, 0xACE5, 2005];

/// The four "extreme data points" §6 analyses in depth.
pub const EXTREME_POINTS: [(Direction, u64); 4] = [
    (Direction::Tx, 65536),
    (Direction::Tx, 128),
    (Direction::Rx, 65536),
    (Direction::Rx, 128),
];

/// Builds the paper-scale experiment for one cell of the evaluation
/// matrix, with measurement counts trimmed to keep the full regeneration
/// run tractable.
#[must_use]
pub fn cell(direction: Direction, size: u64, mode: AffinityMode, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_sut(direction, size, mode).with_seed(seed);
    // ~1 MB measured per connection, bounded for wall-clock sanity.
    config.workload.measure_messages = (1024 * 1024 / size).clamp(16, 800) as u32;
    config.workload.warmup_messages = (config.workload.measure_messages / 3).max(6);
    config
}

/// Runs one cell and returns its metrics.
///
/// # Panics
///
/// Panics if the experiment configuration is invalid (a bug in the
/// harness, not an I/O condition).
#[must_use]
pub fn run_cell(direction: Direction, size: u64, mode: AffinityMode, seed: u64) -> RunResult {
    run_experiment(&cell(direction, size, mode, seed)).expect("valid experiment config")
}

/// Worker count for [`run_pool`]: the `REPRO_THREADS` environment
/// variable if set, otherwise the machine's available parallelism.
///
/// Results never depend on this number — only wall-clock time does.
#[must_use]
pub fn pool_threads() -> usize {
    std::env::var("REPRO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Hardware threads actually available to this process.
#[must_use]
pub fn hardware_threads() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Runs every job through `run` on a pool of workers and returns the
/// results **in job order**, regardless of scheduling.
///
/// `threads` is a *cap*, not a target: the simulation is pure CPU work,
/// so spawning more workers than the machine has hardware threads can
/// only add context-switch and cache-thrash overhead (measured as a
/// uniform threads=4 loss on a 1-core container before the clamp).
/// Results never depend on the worker count — only wall time does — so
/// clamping `REPRO_THREADS=8` to 2 workers on a 2-core box changes
/// nothing but speed.
///
/// Each simulation cell is self-contained (its own `Machine`, its own
/// RNG seeded from the config), so cells never share mutable state and
/// the per-cell results are bit-identical whether the pool runs with one
/// worker or many.
pub fn run_pool<J, R, F>(jobs: Vec<J>, threads: usize, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    run_pool_exact(jobs, threads.min(hardware_threads()), run)
}

/// [`run_pool`] without the hardware clamp: spawns exactly
/// `workers` threads (when there are that many jobs). Tests use this to
/// exercise the multi-worker claim/merge machinery even on machines
/// where the clamp would collapse the pool to one worker.
///
/// With `workers <= 1` (or a single job) the jobs run inline on the
/// caller's thread — no spawning, same results.
pub fn run_pool_exact<J, R, F>(jobs: Vec<J>, workers: usize, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let n = jobs.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return jobs.into_iter().map(run).collect();
    }
    // One shared cursor hands out job indices, so claiming a job is a
    // single uncontended `fetch_add` instead of a queue-mutex
    // acquisition. Each per-job slot is locked exactly once by the one
    // worker whose cursor draw claimed it. Workers accumulate results
    // in worker-local vectors (nothing shared to contend or false-share
    // on) and the join-time scatter restores job order, so the output
    // is independent of which worker ran what.
    let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let run = &run;
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            return local;
                        }
                        let job = slots[idx]
                            .lock()
                            .expect("job slot lock")
                            .take()
                            .expect("each job claimed exactly once");
                        local.push((idx, run(job)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (idx, out) in handle.join().expect("pool worker panicked") {
                results[idx] = Some(out);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("cursor covered every job"))
        .collect()
}

/// Folds a result stream into an order-sensitive FNV-1a digest, so a
/// benchmark run is checkable: identical inputs must give an identical
/// digest at any worker count, and the folded work can't be optimized
/// away.
#[must_use]
pub fn fnv_fold(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
        (h ^ c).wrapping_mul(0x0100_0000_01b3)
    })
}

/// PR number stamped on the rows `repro` appends to the history file.
pub const CURRENT_PR: u32 = 16;

/// One row of the append-only benchmark history (`BENCH_substrate.json`):
/// one timed run of a `repro` sweep or extra cell.
///
/// [`fmt::Display`] writes the row in the file's layout and
/// [`parse_history`] reads it back, so the writer and the reader are the
/// same type.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// PR number stamped on the row.
    pub pr: u32,
    /// What was timed; its text before `" ("` names the sweep.
    pub benchmark: String,
    /// Simulation cells in the run.
    pub cells: usize,
    /// Worker-pool size the row was recorded at.
    pub threads: usize,
    /// Wall seconds of the pre-optimization harness on the same cells
    /// (matrix rows only).
    pub baseline_wall_s: Option<f64>,
    /// Recorded wall seconds.
    pub current_wall_s: f64,
    /// Machine-construction wall seconds, the setup share of
    /// `current_wall_s` (`None` on rows predating the setup/run split).
    pub setup_wall_s: Option<f64>,
    /// `baseline_wall_s / current_wall_s` (matrix rows only).
    pub speedup: Option<f64>,
    /// `cells / current_wall_s`.
    pub cells_per_sec: f64,
    /// Result digest (`None` on rows predating the field).
    pub digest: Option<u64>,
}

impl fmt::Display for BenchRow {
    /// The row as `repro` prints it and the history file stores it: one
    /// `"key": value` pair per line, optional fields left out when unset.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut fields = vec![
            ("pr", self.pr.to_string()),
            ("benchmark", format!("\"{}\"", self.benchmark)),
            ("cells", self.cells.to_string()),
            ("threads", self.threads.to_string()),
        ];
        let secs = |s: f64| format!("{s:.2}");
        fields.extend(self.baseline_wall_s.map(|s| ("baseline_wall_s", secs(s))));
        fields.push(("current_wall_s", secs(self.current_wall_s)));
        fields.extend(self.setup_wall_s.map(|s| ("setup_wall_s", secs(s))));
        fields.extend(self.speedup.map(|s| ("speedup", secs(s))));
        fields.push(("cells_per_sec", format!("{:.1}", self.cells_per_sec)));
        fields.extend(self.digest.map(|d| ("digest", format!("\"{d:016x}\""))));
        let body: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        write!(f, "  {{\n    {}\n  }}", body.join(",\n    "))
    }
}

impl BenchRow {
    /// Builds a row from an object's `(key, raw value)` pairs. Unknown
    /// keys are ignored; a row missing a required field is `None`.
    fn from_fields(fields: &[(String, String)]) -> Option<BenchRow> {
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        let num = |key: &str| get(key).and_then(|v| v.parse::<f64>().ok());
        Some(BenchRow {
            pr: get("pr")?.parse().ok()?,
            benchmark: get("benchmark")?.to_string(),
            cells: get("cells")?.parse().ok()?,
            threads: get("threads")?.parse().ok()?,
            baseline_wall_s: num("baseline_wall_s"),
            current_wall_s: num("current_wall_s")?,
            setup_wall_s: num("setup_wall_s"),
            speedup: num("speedup"),
            cells_per_sec: num("cells_per_sec")?,
            digest: get("digest").and_then(|d| u64::from_str_radix(d, 16).ok()),
        })
    }
}

/// Parses a history file's text: a JSON array of rows, or a legacy
/// single-row snapshot (the format before the history grew). Rows are
/// flat objects whose string values hold no quotes or braces, as
/// [`BenchRow`] writes them; objects that are not complete rows are
/// skipped.
#[must_use]
pub fn parse_history(text: &str) -> Vec<BenchRow> {
    let unquote = |s: &str| s.trim().trim_matches('"').to_string();
    let objects = text.split('{').skip(1).filter_map(|o| o.split_once('}'));
    objects
        .filter_map(|(body, _)| {
            // Fields end at the commas outside string values.
            let mut in_string = false;
            let separator = |c: char| {
                in_string ^= c == '"';
                c == ',' && !in_string
            };
            let fields = body.split(separator).map(|field| {
                let (key, value) = field.split_once(':')?;
                Some((unquote(key), unquote(value)))
            });
            BenchRow::from_fields(&fields.collect::<Option<Vec<_>>>()?)
        })
        .collect()
}

/// Every row of the history file at `path`, oldest first (none when the
/// file is missing).
#[must_use]
pub fn read_history(path: &str) -> Vec<BenchRow> {
    std::fs::read_to_string(path).map_or_else(|_| Vec::new(), |text| parse_history(&text))
}

/// Appends one row to an append-only JSON-array history file.
///
/// The file holds one row per recorded benchmark run, newest last, so
/// the bench trajectory across PRs stays visible instead of being
/// clobbered by every run. The existing text is kept byte for byte. A
/// missing or empty file starts a new array; a legacy single-object
/// snapshot (the format before the history grew) is wrapped into the
/// array as its first entry.
///
/// # Panics
///
/// Panics if the file can't be written (the harness runs from the repo
/// root; failing to record a benchmark should be loud).
pub fn append_history(path: &str, row: &BenchRow) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim();
    let entry = row.to_string();
    let entry = entry.trim();
    let body = if trimmed.is_empty() {
        format!("[\n{entry}\n]\n")
    } else if let Some(rest) = trimmed.strip_prefix('[') {
        let inner = rest.strip_suffix(']').unwrap_or(rest).trim();
        if inner.is_empty() {
            format!("[\n{entry}\n]\n")
        } else {
            format!("[\n{inner},\n{entry}\n]\n")
        }
    } else {
        format!("[\n{trimmed},\n{entry}\n]\n")
    };
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write history {path}: {e}"));
}

/// Every row of the history file whose `benchmark` starts with
/// `benchmark_prefix`, oldest first.
fn rows_for(path: &str, benchmark_prefix: &str) -> Vec<BenchRow> {
    let mut rows = read_history(path);
    rows.retain(|row| row.benchmark.starts_with(benchmark_prefix));
    rows
}

/// Returns the **newest** history row whose `benchmark` starts with
/// `benchmark_prefix` and — when `threads` is given — whose recorded
/// worker count matches, so a fresh run is only compared against rows
/// timed the same way.
///
/// Returns `None` when the file is missing or no row matches.
#[must_use]
pub fn latest_history_entry(
    path: &str,
    benchmark_prefix: &str,
    threads: Option<usize>,
) -> Option<BenchRow> {
    rows_for(path, benchmark_prefix)
        .into_iter()
        .rfind(|row| threads.is_none_or(|n| n == row.threads))
}

/// Returns the newest matching history row **per recorded worker
/// count**, sorted by ascending thread count — the comparison set for
/// the parallel-runner regression warning (`repro <sweep> --check`
/// warns when a threads>1 row is slower than its threads=1
/// counterpart).
#[must_use]
pub fn latest_entries_by_threads(path: &str, benchmark_prefix: &str) -> Vec<BenchRow> {
    let mut newest: Vec<BenchRow> = Vec::new();
    for row in rows_for(path, benchmark_prefix) {
        if let Some(slot) = newest.iter_mut().find(|e| e.threads == row.threads) {
            *slot = row;
        } else {
            newest.push(row);
        }
    }
    newest.sort_by_key(|e| e.threads);
    newest
}

/// Averages the metrics of several runs of the same cell: every counter
/// — scalars, per-CPU vectors, the machine-wide event bank, the per-bin
/// banks and the clear-reason breakdown — becomes the rounded mean of
/// the inputs, so derived rates match the mean of the individual runs.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn average_metrics(runs: &[RunMetrics]) -> RunMetrics {
    assert!(!runs.is_empty(), "need at least one run");
    let n = runs.len() as u64;
    // Rounded (not floored) integer mean, so e.g. three runs of 1, 1, 2
    // average to 1 but 1, 2, 2 average to 2.
    let mean = |sum: u64| (sum + n / 2) / n;
    let field = |get: &dyn Fn(&RunMetrics) -> u64| mean(runs.iter().map(get).sum::<u64>());
    let counters = |get: &dyn Fn(&RunMetrics) -> &sim_cpu::PerfCounters| {
        let mut avg = sim_cpu::PerfCounters::default();
        for event in sim_cpu::HwEvent::ALL {
            avg.bump(
                event,
                mean(runs.iter().map(|r| get(r).get(event)).sum::<u64>()),
            );
        }
        avg
    };

    let mut avg = runs[0].clone();
    avg.wall_cycles = field(&|r| r.wall_cycles);
    avg.bytes_moved = field(&|r| r.bytes_moved);
    avg.messages = field(&|r| r.messages);
    for c in 0..avg.busy_cycles.len() {
        avg.busy_cycles[c] = field(&|r| r.busy_cycles[c]);
    }
    avg.total = counters(&|r| &r.total);
    for b in 0..avg.bins.len() {
        avg.bins[b].counters = counters(&|r| &r.bins[b].counters);
    }
    for i in 0..avg.clears_by_reason.len() {
        avg.clears_by_reason[i] = field(&|r| r.clears_by_reason[i]);
    }
    avg.resched_ipis = field(&|r| r.resched_ipis);
    avg.wake_migrations = field(&|r| r.wake_migrations);
    avg.balance_migrations = field(&|r| r.balance_migrations);
    avg.lock_acquisitions = field(&|r| r.lock_acquisitions);
    avg.lock_contended = field(&|r| r.lock_contended);
    avg.interrupts = field(&|r| r.interrupts);
    avg
}

/// Runs a whole figure row (all four modes for one size/direction) on
/// the job pool, seed-averaged. The row is assembled in matrix order
/// (mode-major, seed-minor), so the output is independent of how many
/// workers the pool used.
#[must_use]
pub fn figure_row(direction: Direction, size: u64) -> Vec<(AffinityMode, RunMetrics)> {
    figure_row_on(direction, size, pool_threads().min(hardware_threads()))
}

/// [`figure_row`] with an explicit, unclamped pool size (for
/// thread-independence tests, which need real multi-worker scheduling
/// even on single-core machines).
#[must_use]
pub fn figure_row_on(
    direction: Direction,
    size: u64,
    threads: usize,
) -> Vec<(AffinityMode, RunMetrics)> {
    let jobs: Vec<(AffinityMode, u64)> = AffinityMode::ALL
        .iter()
        .flat_map(|&mode| FIGURE_SEEDS.iter().map(move |&seed| (mode, seed)))
        .collect();
    let runs = run_pool_exact(jobs, threads, |(mode, seed)| {
        run_cell(direction, size, mode, seed).metrics
    });
    AffinityMode::ALL
        .iter()
        .zip(runs.chunks(FIGURE_SEEDS.len()))
        .map(|(&mode, chunk)| (mode, average_metrics(chunk)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_scales_counts_with_size() {
        let small = cell(Direction::Tx, 128, AffinityMode::None, 1);
        let large = cell(Direction::Tx, 65536, AffinityMode::None, 1);
        assert!(small.workload.measure_messages > large.workload.measure_messages);
        assert_eq!(large.workload.measure_messages, 16);
    }

    #[test]
    fn average_metrics_means_rates() {
        let mut a = run_cell(Direction::Tx, 1024, AffinityMode::Full, 1).metrics;
        let mut b = a.clone();
        a.wall_cycles = 100;
        a.bytes_moved = 100;
        b.wall_cycles = 300;
        b.bytes_moved = 100;
        let avg = average_metrics(&[a, b]);
        assert_eq!(avg.wall_cycles, 200);
        assert_eq!(avg.bytes_moved, 100);
    }

    #[test]
    fn average_metrics_rounds_every_counter() {
        let a = run_cell(Direction::Tx, 1024, AffinityMode::Full, 1).metrics;
        let mut b = a.clone();
        // Perturb a scalar, the event bank, a bin and a breakdown entry
        // by odd deltas so a floored mean would lose the .5.
        b.messages = a.messages + 1;
        b.total.llc_misses = a.total.llc_misses + 3;
        b.bins[0].counters.cycles = a.bins[0].counters.cycles + 5;
        b.clears_by_reason[0] = a.clears_by_reason[0] + 1;
        b.lock_contended = a.lock_contended + 7;
        let avg = average_metrics(&[a.clone(), b]);
        // (2x + d + 1) / 2 rounded = x + (d + 1) / 2 for odd d.
        assert_eq!(avg.messages, a.messages + 1);
        assert_eq!(avg.total.llc_misses, a.total.llc_misses + 2);
        assert_eq!(avg.bins[0].counters.cycles, a.bins[0].counters.cycles + 3);
        assert_eq!(avg.clears_by_reason[0], a.clears_by_reason[0] + 1);
        assert_eq!(avg.lock_contended, a.lock_contended + 4);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn average_empty_panics() {
        let _ = average_metrics(&[]);
    }

    #[test]
    fn fnv_fold_is_order_sensitive() {
        assert_eq!(fnv_fold([]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv_fold([1, 2]), fnv_fold([2, 1]));
        assert_eq!(fnv_fold([1, 2, 3]), fnv_fold([1, 2, 3]));
    }

    /// A scratch history file path unique to this test process.
    fn temp_history(tag: &str) -> String {
        let path = std::env::temp_dir().join(format!("bench_{tag}_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A row with only the required fields set.
    fn row(pr: u32, threads: usize, wall: f64, benchmark: &str) -> BenchRow {
        BenchRow {
            pr,
            benchmark: benchmark.to_string(),
            cells: 1,
            threads,
            baseline_wall_s: None,
            current_wall_s: wall,
            setup_wall_s: None,
            speedup: None,
            cells_per_sec: 1.0,
            digest: None,
        }
    }

    /// The committed history, as `repro` appends to it.
    const COMMITTED: &str = include_str!("../../../BENCH_substrate.json");

    #[test]
    fn bench_row_round_trips_the_committed_history() {
        let rows = parse_history(COMMITTED);
        assert_eq!(
            rows.len(),
            COMMITTED.matches("\"pr\":").count(),
            "a row was skipped"
        );
        let path = temp_history("round_trip");
        for row in &rows {
            append_history(&path, row);
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), COMMITTED);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn current_pr_is_not_older_than_the_committed_rows() {
        let newest = parse_history(COMMITTED).iter().map(|r| r.pr).max();
        assert!(newest.is_some_and(|pr| CURRENT_PR >= pr), "{newest:?}");
    }

    #[test]
    fn append_history_grows_an_array_and_wraps_legacy_snapshots() {
        let path = temp_history("history");
        let (one, two) = (row(1, 1, 1.0, "a"), row(2, 1, 2.0, "b"));
        let entry = |r: &BenchRow| r.to_string().trim().to_string();

        // Empty file -> fresh one-entry array.
        append_history(&path, &one);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("[\n{}\n]\n", entry(&one))
        );

        // Existing array -> appended, newest last.
        append_history(&path, &two);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("[\n{},\n{}\n]\n", entry(&one), entry(&two))
        );
        assert_eq!(read_history(&path), vec![one.clone(), two.clone()]);

        // Legacy single-object snapshot -> wrapped as the first entry,
        // its text kept as it was.
        let legacy = "{\n  \"pr\": 1, \"benchmark\": \"a\", \"cells\": 1, \"threads\": 1,\n  \
                      \"current_wall_s\": 1.0, \"cells_per_sec\": 1.0, \"old\": true\n}";
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        append_history(&path, &two);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("[\n{legacy},\n{}\n]\n", entry(&two))
        );
        assert_eq!(read_history(&path), vec![one, two]);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latest_history_entry_picks_newest_matching_row() {
        let path = temp_history("latest");
        assert_eq!(
            latest_history_entry(&path, "full figure matrix", None),
            None
        );

        for (pr, threads, wall, bench) in [
            (1, 1, 6.48, "full figure matrix (2 dirs x 7 sizes)"),
            (3, 1, 5.67, "scale sweep (4 CPU counts)"),
            (4, 1, 7.27, "full figure matrix (2 dirs x 7 sizes)"),
            (4, 8, 2.11, "full figure matrix (2 dirs x 7 sizes)"),
        ] {
            append_history(&path, &row(pr, threads, wall, bench));
        }

        // Newest matching row wins; the threads constraint narrows it.
        let any = latest_history_entry(&path, "full figure matrix", None).unwrap();
        assert_eq!((any.pr, any.threads, any.current_wall_s), (4, 8, 2.11));
        let single = latest_history_entry(&path, "full figure matrix", Some(1)).unwrap();
        assert_eq!((single.pr, single.current_wall_s), (4, 7.27));
        let scale = latest_history_entry(&path, "scale sweep", None).unwrap();
        assert_eq!((scale.pr, scale.current_wall_s), (3, 5.67));
        assert_eq!(latest_history_entry(&path, "steering sweep", None), None);
        assert_eq!(
            latest_history_entry(&path, "full figure matrix", Some(3)),
            None
        );

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn history_rows_carry_their_recorded_digest() {
        let path = temp_history("digest");

        // A legacy row without digest/setup fields parses to `None`s; a
        // modern row round-trips the hex digest string back to the u64
        // and carries its setup share.
        std::fs::write(
            &path,
            "[\n{\n    \"pr\": 5,\n    \"benchmark\": \"poll sweep\",\n    \"cells\": 12,\n    \
             \"threads\": 1,\n    \"current_wall_s\": 1.00,\n    \"cells_per_sec\": 12.0\n  }\n]\n",
        )
        .unwrap();
        let legacy = latest_history_entry(&path, "poll sweep", None).unwrap();
        assert_eq!((legacy.pr, legacy.cells), (5, 12));
        assert_eq!(legacy.setup_wall_s, None);
        assert_eq!(legacy.digest, None);
        let modern = BenchRow {
            setup_wall_s: Some(0.25),
            digest: Some(0x5b4b_100c_bd3a_3908),
            ..row(10, 1, 1.10, "poll sweep")
        };
        append_history(&path, &modern);
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"digest\": \"5b4b100cbd3a3908\""));

        let newest = latest_history_entry(&path, "poll sweep", None).unwrap();
        assert_eq!(newest, modern);
        let rows = latest_entries_by_threads(&path, "poll sweep");
        assert_eq!(rows.len(), 1, "both rows are threads=1; newest wins");
        assert_eq!(rows[0].pr, 10);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latest_entries_by_threads_keeps_newest_per_count() {
        let path = temp_history("threads");
        assert!(latest_entries_by_threads(&path, "full figure matrix").is_empty());

        for (pr, threads, wall) in [(4, 8, 2.11), (6, 1, 6.37), (6, 4, 6.77), (8, 1, 6.44)] {
            append_history(&path, &row(pr, threads, wall, "full figure matrix"));
        }

        let rows = latest_entries_by_threads(&path, "full figure matrix");
        let shape: Vec<(u32, usize, f64)> = rows
            .iter()
            .map(|e| (e.pr, e.threads, e.current_wall_s))
            .collect();
        // Newest row per thread count, ascending by count.
        assert_eq!(shape, vec![(8, 1, 6.44), (6, 4, 6.77), (4, 8, 2.11)]);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_pool_preserves_job_order() {
        let jobs: Vec<u64> = (0..37).collect();
        let serial = run_pool_exact(jobs.clone(), 1, |j| j * j);
        let parallel = run_pool_exact(jobs, 4, |j| j * j);
        assert_eq!(serial, parallel);
        assert_eq!(serial[5], 25);
    }

    #[test]
    fn run_pool_clamps_to_hardware() {
        // The clamped entry point must still produce identical results
        // at an absurd requested width (it may collapse to one worker
        // on a small machine — that's the point).
        let jobs: Vec<u64> = (0..25).collect();
        assert_eq!(
            run_pool(jobs, 1024, |j| j + 1),
            (1..=25).collect::<Vec<_>>()
        );
    }

    #[test]
    fn figure_row_independent_of_thread_count() {
        let one = figure_row_on(Direction::Tx, 8192, 1);
        let many = figure_row_on(Direction::Tx, 8192, 4);
        assert_eq!(one.len(), many.len());
        for ((m1, r1), (m2, r2)) in one.iter().zip(many.iter()) {
            assert_eq!(m1, m2);
            assert_eq!(r1, r2, "thread count leaked into {} results", m1.label());
        }
    }
}
