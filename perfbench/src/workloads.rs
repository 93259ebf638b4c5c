//! The benchmark's workloads: which simulator cells each one runs, the
//! counts a finished cell yields, and the checks its outputs must pass.
//!
//! A cell is one `ExperimentConfig`. Every workload is a closed loop over
//! its cells: the next cell starts when the previous one ends. At
//! [`DEFAULT_SEED`] each cell is exactly the configuration a `repro`
//! sweep records, so its output must match the recorded digest; any
//! other seed re-seeds every cell and is checked by invariants and by
//! determinism instead.

use affinity_sim::{
    AffinityMode, DataplaneMode, Direction, ExperimentConfig, Machine, ServerWorkload, SteerSpec,
    PAPER_SIZES,
};
use sim_core::SimRng;

/// The seed at which every cell reproduces its recorded digest.
pub const DEFAULT_SEED: u64 = 0;

/// Workload names, in the order the notes describe them.
pub const NAMES: [&str; 4] = [
    "paper_matrix",
    "churn_overload",
    "churn_steady",
    "million_flows",
];

/// Recorded simulated wall cycles of every matrix cell at the default
/// seed, in matrix order (direction, size, mode, seed). Folded in order
/// they give the recorded `repro perf` digest `667787c250c23ff6` (a unit
/// test pins this), so a mismatch is blamed on the one cell that moved.
const MATRIX_WALL_CYCLES: [u64; 112] = include!("matrix_wall_cycles.in");

/// What kind of output a cell yields, which picks its digest and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Immortal `ttcp` flows: the digest is the simulated wall cycles.
    Bulk,
    /// SYN-to-FIN churn: the digest folds wall cycles with the lifecycle
    /// accounting, and the drain invariants must hold.
    Churn,
}

/// One simulator run of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable cell name.
    pub label: String,
    /// The configuration handed to `Machine::new`.
    pub config: ExperimentConfig,
    /// Digest rule and invariants.
    pub kind: Kind,
    /// The recorded digest this cell must reproduce (default seed only).
    pub expected: Option<u64>,
}

/// Builds the cells of workload `name` at benchmark seed `seed`, or
/// `None` for an unknown name.
#[must_use]
pub fn cells(name: &str, seed: u64) -> Option<Vec<Cell>> {
    let mut cells = match name {
        "paper_matrix" => paper_matrix(),
        "churn_overload" => churn_overload(),
        "churn_steady" => churn_steady(),
        "million_flows" => million_flows(),
        _ => return None,
    };
    if seed != DEFAULT_SEED {
        let mut rng = SimRng::new(seed);
        for cell in &mut cells {
            cell.expected = None;
            cell.config.seed = rng.next_u64();
        }
    }
    Some(cells)
}

/// The `repro perf` matrix: 2 directions x 7 sizes x 4 modes x 2 seeds.
fn paper_matrix() -> Vec<Cell> {
    let mut cells = Vec::with_capacity(MATRIX_WALL_CYCLES.len());
    for dir in [Direction::Tx, Direction::Rx] {
        for &size in &PAPER_SIZES {
            for mode in AffinityMode::ALL {
                for seed in [0x5EED, 42] {
                    let config = bench::cell(dir, size, mode, seed);
                    cells.push(Cell {
                        label: format!("{dir}/{size}/{}/{seed:#x}", mode.label()),
                        config,
                        kind: Kind::Bulk,
                        expected: Some(MATRIX_WALL_CYCLES[cells.len()]),
                    });
                }
            }
        }
    }
    cells
}

/// Flow Director with server processes pinned to their flows' homes, as
/// every churn cell of `repro churn` runs it.
fn pinned_flowdir() -> SteerSpec {
    SteerSpec {
        pin_processes: true,
        ..SteerSpec::flow_director()
    }
}

/// The two 16-CPU, 10k-slot Flow Director cells of the churn grid, with
/// the default 2k-cycle open-loop arrivals (far past the knee).
fn churn_overload() -> Vec<Cell> {
    [
        (
            "irq/flowdir/16/10000",
            DataplaneMode::Interrupt,
            0x278a_e433_5be8_1558,
        ),
        (
            "poll/flowdir/16/10000",
            DataplaneMode::Poll,
            0x20d3_23fa_c3da_ee03,
        ),
    ]
    .into_iter()
    .map(|(label, plane, digest)| Cell {
        label: label.to_string(),
        config: ExperimentConfig::churn(16, 10_000, pinned_flowdir(), plane),
        kind: Kind::Churn,
        expected: Some(digest),
    })
    .collect()
}

/// Interrupt-plane Flow Director churn, mice only, spread-out arrivals
/// and a fixed 4k + 12k connection budget at `slots` flow slots on 16
/// CPUs: the shape of `repro churn`'s million-flow cell.
fn steady_config(slots: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::churn(16, slots, pinned_flowdir(), DataplaneMode::Interrupt);
    config.server = config.server.map(|s| ServerWorkload {
        warmup_conns: 4_000,
        measure_conns: 12_000,
        arrival_gap_cycles: 100_000,
        ..s.mice_only()
    });
    config
}

/// Below-the-knee churn at three slot populations.
fn churn_steady() -> Vec<Cell> {
    [
        (10_000, 0x4508_5c36_e6a4_8cd4),
        (100_000, 0x1c86_c5a6_0f28_5c9f),
        (500_000, 0x0e05_19fc_796f_756e),
    ]
    .into_iter()
    .map(|(slots, digest)| Cell {
        label: format!("irq/flowdir/16/{slots}/mice"),
        config: steady_config(slots),
        kind: Kind::Churn,
        expected: Some(digest),
    })
    .collect()
}

/// The 16-CPU million-flow cells of `repro scale` and `repro churn`.
fn million_flows() -> Vec<Cell> {
    let mut scale = ExperimentConfig::scale(Direction::Rx, 16, 1_000_000, AffinityMode::Rss);
    scale.workload.aggregate_targets = true;
    scale.workload.active_conns = 256 * 16;
    scale.workload.warmup_messages = 4_096;
    scale.workload.measure_messages = 16_384;
    vec![
        Cell {
            label: "scale/rss/16/1000000".to_string(),
            config: scale,
            kind: Kind::Bulk,
            expected: Some(0x611f_f048_9b04_8288),
        },
        Cell {
            label: "churn/irq/flowdir/16/1000000/mice".to_string(),
            config: steady_config(1_000_000),
            kind: Kind::Churn,
            expected: Some(0x42ba_d4ed_ada8_e17e),
        },
    ]
}

/// Names of the exact counts a finished cell reports, in [`Counts`]
/// order.
pub const COUNT_NAMES: [&str; 24] = [
    "wall_cycles",
    "instructions",
    "llc_misses",
    "l2_misses",
    "dtlb_misses",
    "machine_clears",
    "wakeups",
    "resched_ipis",
    "wake_migrations",
    "lock_acquisitions",
    "lock_contended",
    "interrupts",
    "accepts",
    "completes",
    "backlog_drops",
    "final_live_flows",
    "final_table_entries",
    "resteers",
    "table_rejects",
    "polls",
    "empty_polls",
    "spin_cycles",
    "work_cycles",
    "flow_slots",
];

/// The deterministic counts of one finished cell, in [`COUNT_NAMES`]
/// order: everything the public results expose that a layer metric or a
/// check reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts(pub [u64; COUNT_NAMES.len()]);

impl Counts {
    /// Reads the counts off a machine that has finished `run`.
    #[must_use]
    pub fn harvest(
        config: &ExperimentConfig,
        machine: &Machine,
        m: &affinity_sim::RunMetrics,
    ) -> Self {
        let sched = machine.scheduler_stats();
        let lc = machine.lifecycle_stats();
        let steer = machine.steer_stats();
        let poll = machine.poll_stats();
        Counts([
            m.wall_cycles,
            m.total.instructions,
            m.total.llc_misses,
            m.total.l2_misses,
            m.total.dtlb_misses,
            m.total.machine_clears,
            sched.wakeups,
            m.resched_ipis,
            m.wake_migrations,
            m.lock_acquisitions,
            m.lock_contended,
            m.interrupts,
            lc.accepts,
            lc.completes,
            lc.backlog_drops,
            lc.final_live_flows,
            lc.final_table_entries,
            steer.resteers,
            steer.table_rejects,
            poll.polls,
            poll.empty_polls,
            poll.spin_cycles,
            poll.work_cycles,
            config.connections as u64,
        ])
    }

    /// The count named `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`COUNT_NAMES`] (a benchmark bug).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNT_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown count {name}"));
        self.0[i]
    }

    /// The cell's digest under the rule of its `repro` sweep.
    #[must_use]
    pub fn digest(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Bulk => self.get("wall_cycles"),
            Kind::Churn => bench::fnv_fold([
                self.get("wall_cycles"),
                self.get("accepts"),
                self.get("completes"),
                self.get("backlog_drops"),
            ]),
        }
    }
}

impl Cell {
    /// Checks one finished run of this cell: the recorded digest where
    /// there is one, and the churn drain invariants. Returns why the
    /// cell failed, if it did.
    #[must_use]
    pub fn check(&self, counts: &Counts) -> Option<String> {
        if let Some(want) = self.expected {
            let got = counts.digest(self.kind);
            if got != want {
                return Some(format!("digest {got:016x}, recorded {want:016x}"));
            }
        }
        if self.kind == Kind::Churn {
            for (name, ok) in [
                ("accepts", counts.get("accepts") > 0),
                ("completes", counts.get("completes") > 0),
                ("final_live_flows", counts.get("final_live_flows") == 0),
                (
                    "final_table_entries",
                    counts.get("final_table_entries") == 0,
                ),
            ] {
                if !ok {
                    return Some(format!(
                        "drain invariant broken: {name} = {}",
                        counts.get(name)
                    ));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_table_folds_to_the_recorded_digest() {
        assert_eq!(bench::fnv_fold(MATRIX_WALL_CYCLES), 0x6677_87c2_50c2_3ff6);
    }

    #[test]
    fn every_workload_builds_and_reseeds() {
        for name in NAMES {
            let recorded = cells(name, DEFAULT_SEED).expect("known workload");
            let other = cells(name, 7).expect("known workload");
            assert_eq!(recorded.len(), other.len());
            assert!(recorded.iter().all(|c| c.expected.is_some()));
            assert!(other.iter().all(|c| c.expected.is_none()));
            assert_ne!(recorded[0].config.seed, other[0].config.seed);
        }
        assert!(cells("nope", 0).is_none());
    }
}
