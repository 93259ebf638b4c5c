//! The simulated system under test and its run loop.
//!
//! [`Machine`] wires the substrates into the paper's testbed: *N* CPUs
//! sharing a coherent memory system, NIC ports carrying long-lived
//! `ttcp` connections (one flow per port on the paper's 8-NIC SUT; many
//! flows per port in the scale sweep, round-robin or RSS-hash steered),
//! an IO-APIC routing the interrupt vectors (named `0x19`–`0x27` as in
//! the paper's Table 4), the scheduler, the IPI fabric and the modelled
//! TCP stack.
//!
//! The run loop is a conservative discrete-event simulation: each CPU
//! has a local clock advanced by the work it executes; device-side
//! events (frame arrivals, wire transmissions, coalescing timers) live
//! on a global queue and inject interrupts into whichever CPU the APIC
//! routes them to. Device interrupts and IPIs flush the target pipeline
//! — a machine clear charged at the paper's 500-cycle penalty and
//! attributed, Oprofile-skid-style, either to the interrupt handler or
//! to a cycle-weighted draw over the code recently executing on that
//! CPU.
//!
//! The kernel-bypass poll dataplane runs in the same loop, through the
//! same event dispatcher and per-flow bottom half. It differs in three
//! places only (the `Dataplane` enum): how a completion is handed off
//! after its DMA, how the next CPU work is picked (and who wins a tie
//! with an event), and the consumer and accounting tail.

use sim_core::{
    ConnectionId, CpuId, DeviceId, IrqVector, LazySlots, Result, ShardedEventQueue, SimError,
    SimRng, SimTime, TaskId,
};
use sim_cpu::{ClearReason, Core, PerfCounters};
use sim_mem::{MemorySystem, MAX_CPUS};
use sim_net::{Nic, Peer, PeerConfig};
use sim_os::{CpuMask, IoApic, IpiFabric, IpiKind, PmdCore, Scheduler, SchedulerConfig};
use sim_prof::{FuncId, PollCounters, Profiler, SteerCounters};
use sim_tcp::{Bin, ConnState, ExecCtx, TcpStack};

use crate::experiment::{DataplaneMode, ExperimentConfig};
use crate::metrics::{BinBreakdown, LifecycleCounters, RunMetrics};
use crate::poll::{PollPlane, RxDesc};
use crate::ready::ReadyCpus;
use crate::steer::{even_home, SteeringPolicy};
use crate::workload::{Direction, ServerWorkload};

/// True when run-loop iteration `guard` should emit a trace line: every
/// power of two (dense coverage early, when wedges usually happen) plus
/// every 200k iterations (steady cadence late). `guard = 0` is quiet —
/// the old `guard & (guard - 1) == 0` form mis-fired there, tracing an
/// iteration that never ran.
#[must_use]
pub fn should_trace(guard: u64) -> bool {
    guard.is_power_of_two() || (guard > 0 && guard.is_multiple_of(200_000))
}

/// The paper's NIC interrupt vectors (Table 4), reused cyclically for
/// machines with more than eight NICs.
pub const PAPER_VECTORS: [u32; 8] = [0x19, 0x1a, 0x1b, 0x1d, 0x23, 0x24, 0x25, 0x27];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A data frame from the peer arrives for a flow (RX workload).
    FrameArrival { flow: usize, bytes: u32 },
    /// A peer ACK arrives for a flow (TX workload).
    AckArrival { flow: usize, acked: u32 },
    /// The flow's NIC transmits one queued frame (TX workload).
    WireTx { flow: usize, bytes: u32 },
    /// Interrupt-moderation timer for one hardware queue.
    CoalesceFlush { queue: usize, armed_at: u64 },
    /// Retransmission timeout for a lost frame of a flow.
    RtoFire { flow: usize, bytes: u32 },
    /// Linux 2.6-style periodic interrupt rotation.
    IrqRotate,
    /// Periodic scheduler load balancing.
    LoadBalance,
    /// A client opens a new connection (server workload): a SYN reaches
    /// whatever queue the allocated flow slot rides.
    ConnArrival,
    /// The client's ACK of our FIN arrives (server workload teardown).
    FinAckArrival { flow: usize },
}

/// All dynamic-connection state of a server-workload run. `None` for the
/// immortal-flow `ttcp` workloads — every field here is dead weight on
/// those paths, so the whole thing lives behind one boxed option.
#[derive(Debug)]
struct ServerState {
    workload: ServerWorkload,
    /// Connection arrivals scheduled so far (client retries after a
    /// dropped SYN re-use their original arrival's budget).
    scheduled: u64,
    /// Serial number stamped on the next admitted connection — drives
    /// the deterministic mice/elephant response mix.
    serial: u64,
    /// Lifetime lifecycle counters.
    accepts: u64,
    completes: u64,
    backlog_drops: u64,
    /// Measurement-window lifecycle counters.
    window_accepts: u64,
    window_completes: u64,
    /// Per-slot scratch, indexed by flow slot (reset at each
    /// incarnation's admission).
    syn_pending: Vec<bool>,
    finack_pending: Vec<bool>,
    request_remaining: Vec<u64>,
    response_remaining: Vec<u64>,
    conn_bytes: Vec<u64>,
    started_at: Vec<u64>,
    /// Flow-completion-time samples (SYN arrival → teardown complete)
    /// from the measurement window.
    fct: Vec<u64>,
    /// Flows with work staged for their queue's next bottom half — the
    /// server-mode replacement for scanning every flow of a queue.
    queue_pending: Vec<Vec<usize>>,
    in_pending: Vec<bool>,
}

/// The dataplane: how device completions reach the per-flow stack work.
/// The event dispatcher, the per-flow bottom half and the send/receive
/// bodies are shared; each variant owns only the state of the step where
/// the two models differ — how a completion is handed off after its DMA.
#[derive(Debug)]
enum Dataplane {
    /// Interrupt-driven NAPI: completions are staged per flow and
    /// moderated per queue, a softirq on the vector's CPU drains them,
    /// and process context runs as scheduler tasks.
    Interrupt(IrqPlane),
    /// Kernel bypass: completions are descriptors on per-queue SPSC
    /// rings, drained run-to-completion by busy-polling PMD cores.
    Poll(PollPlane),
}

/// Interrupt-moderation state of the interrupt dataplane, per queue.
#[derive(Debug)]
struct IrqPlane {
    /// Cycle of each queue's latest device activity: a moderation timer
    /// that fires behind it re-arms instead of flushing.
    nic_activity: Vec<u64>,
    /// Whether each queue has a moderation timer in flight.
    flush_armed: Vec<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockReason {
    /// Sender waiting for send-buffer space.
    TxSpace,
    /// Receiver waiting for socket data.
    RxData,
}

/// The CPU some part of each flow's work last ran on, per flow, stored
/// as `cpu + 1` with `0` for "not yet" so the column starts as zeroed
/// pages.
#[derive(Debug)]
struct LastCpu(Vec<u32>);

impl LastCpu {
    fn new(flows: usize) -> Self {
        LastCpu(vec![0; flows])
    }

    #[inline]
    fn get(&self, flow: usize) -> Option<CpuId> {
        self.0[flow].checked_sub(1).map(CpuId::new)
    }

    #[inline]
    fn set(&mut self, flow: usize, cpu: CpuId) {
        self.0[flow] = cpu.index() as u32 + 1;
    }
}

/// The application side of one flow's process. Each flow of a ttcp
/// workload has exactly one process, spawned in flow order, so
/// `tasks[flow]` belongs to the task whose `TaskId` index is `flow`.
#[derive(Debug, Clone)]
struct TaskRun {
    /// RX: bytes still missing from the current application message.
    remaining: u64,
    blocked: Option<BlockReason>,
}

/// The simulated system under test.
#[derive(Debug)]
pub struct Machine {
    config: ExperimentConfig,
    mem: MemorySystem,
    cores: Vec<Core>,
    clocks: Vec<u64>,
    sched: Scheduler,
    apic: IoApic,
    ipi: IpiFabric,
    nics: Vec<Nic>,
    /// Each flow's peer, built on the flow's first segment from the seed
    /// drawn for it at construction (`peer_seeds[flow]`, the flow's
    /// `fork` of the machine's stream, drawn in flow order).
    peers: LazySlots<Peer>,
    peer_seeds: Vec<u64>,
    stack: TcpStack,
    prof: Profiler,
    rng: SimRng,
    /// Pending device/wire events, sharded into one lane per CPU plus a
    /// device lane (index `cpus`). Lane choice is storage layout only —
    /// the sharded queue merges lanes in global `(time, seq)` order, so
    /// routing cannot change pop order (see `sim_core::event`). Routing
    /// flow/queue events to the interrupt's current home CPU keeps each
    /// lane's calendar dense with same-CPU work.
    events: ShardedEventQueue<Event>,
    /// MSI-X vector of each hardware queue, in global queue order.
    vectors: Vec<IrqVector>,
    ready: ReadyCpus,

    /// The steering policy (placement/layout consulted at construction,
    /// dynamic hooks on the interrupt path). Built once from the
    /// experiment's [`SteerSpec`](crate::steer::SteerSpec) — no
    /// `AffinityMode` dispatch survives in the run loop.
    steering: Box<dyn SteeringPolicy>,
    steer_stats: SteerCounters,

    /// The dataplane (interrupt or kernel-bypass poll) — the run loop's
    /// only variation point.
    plane: Dataplane,

    /// Dynamic connection lifecycle — `Some` only for server workloads,
    /// where `connections` is a slot-arena bound, flows are born on SYN
    /// and die on FIN-ACK, and process context is charged directly on
    /// the connection's home CPU instead of through scheduler tasks.
    server: Option<Box<ServerState>>,
    /// Whether consumer processing pins to each queue's even-spread home
    /// CPU (the spec's `pin_processes`, cached for server-mode charging).
    pin_processes: bool,

    tasks: Vec<TaskRun>,
    last_task_on: Vec<Option<TaskId>>,
    run_since_sched: Vec<u64>,

    /// Hardware queue carrying each flow (global queue index): the
    /// steering policy's placement — round-robin reduces to the identity
    /// map on the paper SUT, RSS hashing spreads flows like a real
    /// indirection table.
    flow_queue: Vec<usize>,
    /// Flows of each queue, ascending — bottom halves drain a queue's
    /// flows in this order.
    queue_flows: Vec<Vec<usize>>,
    /// NIC port owning each global queue.
    queue_nic: Vec<usize>,
    /// Queue index local to its NIC port.
    queue_local: Vec<usize>,

    // Per-flow state: zeroed columns, and the frame lists built on a
    // flow's first frame.
    /// Work staged for each flow's next bottom half: data frame sizes,
    /// segments ACKed, ACK frames and tx completions. The interrupt plane
    /// stages at hand-off, a PMD core as it drains its rings.
    flow_rx_pending: LazySlots<Vec<u32>>,
    flow_ack_pending: Vec<u32>,
    flow_ack_frames: Vec<u32>,
    flow_txdone_pending: Vec<u32>,
    /// Wire transmission cursor per flow (each flow models its own NIC
    /// queue's bandwidth share).
    wire_cursor: Vec<u64>,
    tx_wire_offset: Vec<u64>,
    peer_inflight: Vec<u32>,
    last_softirq_cpu: LastCpu,
    last_process_cpu: LastCpu,

    /// Cycles each CPU has spent in interrupt context (top halves,
    /// bottom halves, flush penalties) — drives the wake-affine gate.
    irq_cycles: Vec<u64>,

    // Measurement state.
    total_messages: u64,
    measured_messages: u64,
    bytes_moved: u64,
    measuring: bool,
    done: bool,
    measure_start: u64,
    last_message_time: u64,

    // Attribution fallbacks.
    wake_up_func: FuncId,
}

impl Machine {
    /// Builds the system under test from an experiment configuration.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the CPU count is outside
    /// `1..=`[`MAX_CPUS`], there are no connections or no NICs, a server
    /// workload's listen backlog is zero (every SYN would be dropped and
    /// the run could never finish), the memory or stack config is
    /// invalid, or an affinity mask cannot be applied.
    pub fn new(config: &ExperimentConfig) -> Result<Self> {
        let cpus = config.cpus;
        if !(1..=MAX_CPUS).contains(&cpus) {
            return Err(SimError::config(format!(
                "machine supports 1..={MAX_CPUS} CPUs, got {cpus}"
            )));
        }
        if config.connections == 0 {
            return Err(SimError::config("machine needs at least one connection"));
        }
        if config.nics == 0 {
            return Err(SimError::config("machine needs at least one NIC"));
        }
        if config.server.is_some_and(|server| server.backlog == 0) {
            return Err(SimError::config("server listen backlog must be at least 1"));
        }
        config.mem.validate()?;
        let nics_n = config.nics;
        let flows = config.connections;
        let mut mem = MemorySystem::new(config.mem.clone());
        let mut rng = SimRng::new(config.seed);

        // Build the steering policy once; the run loop only ever sees
        // the trait object.
        let spec = config.steer_spec();
        let steering = spec.build();

        let queues_per_nic = config.nic.queues.max(1) as usize;
        let total_queues = nics_n * queues_per_nic;

        // Flow→queue steering per the policy's placement. Round-robin
        // reduces to the identity map on the paper SUT
        // (`connections == nics`, one queue per port), keeping those
        // runs bit-identical.
        let flow_queue: Vec<usize> = (0..flows)
            .map(|f| steering.place_flow(f, total_queues))
            .collect();
        let mut queue_flows = vec![Vec::new(); total_queues];
        for (f, &q) in flow_queue.iter().enumerate() {
            queue_flows[q].push(f);
        }
        let queue_nic: Vec<usize> = (0..total_queues).map(|q| q / queues_per_nic).collect();
        let queue_local: Vec<usize> = (0..total_queues).map(|q| q % queues_per_nic).collect();

        let vectors: Vec<IrqVector> = (0..total_queues)
            .map(|i| {
                let base = PAPER_VECTORS[i % PAPER_VECTORS.len()];
                IrqVector::new(base + (i / PAPER_VECTORS.len()) as u32 * 0x10)
            })
            .collect();

        let nics: Vec<Nic> = (0..nics_n)
            .map(|i| {
                Nic::new(
                    DeviceId::new(i as u32),
                    &vectors[i * queues_per_nic..(i + 1) * queues_per_nic],
                    config.nic,
                    &mut mem,
                )
            })
            .collect();

        // Each flow DMAs through its queue's receive buffers.
        let dma_regions: Vec<_> = (0..flows)
            .map(|f| {
                let q = flow_queue[f];
                nics[queue_nic[q]].rx_buffers(queue_local[q])
            })
            .collect();
        let mut stack = TcpStack::new(
            config.stack.clone(),
            &mut mem,
            &dma_regions,
            &vectors,
            config.workload.message_bytes,
        )?;

        let mut apic = IoApic::new(cpus);
        let mut sched = Scheduler::new(SchedulerConfig::new(cpus));

        // Program the static vector layout the policy prescribes
        // (everything-on-CPU0 layouts write the routing default back,
        // which is a no-op for delivery).
        for (q, &v) in vectors.iter().enumerate() {
            let home = steering.vector_home(q, total_queues, cpus);
            apic.set_affinity(v, CpuMask::single(home))?;
        }
        // Server workloads charge process context on each connection's
        // home CPU and never run a scheduler task, so only ttcp
        // workloads spawn one process per flow.
        let ttcp_flows = if config.server.is_none() { flows } else { 0 };
        let mut tasks = Vec::with_capacity(ttcp_flows);
        for (i, &q) in flow_queue[..ttcp_flows].iter().enumerate() {
            // A pinned process lives on its queue's even-spread home CPU
            // (the paper's `sched_setaffinity` half — identical to the
            // old per-connection pin on the paper SUT, where flow i
            // rides queue i).
            let mask = if spec.pin_processes {
                CpuMask::single(even_home(q, total_queues, cpus))
            } else {
                CpuMask::all(cpus)
            };
            let task = sched.spawn("ttcp", mask)?;
            debug_assert_eq!(task.index(), i, "one task per flow, in flow order");
            tasks.push(TaskRun {
                remaining: config.workload.message_bytes,
                blocked: None,
            });
        }

        let peer_seeds = (0..flows).map(|i| rng.fork_seed(i as u64)).collect();

        let cores = (0..cpus)
            .map(|c| Core::new(CpuId::new(c as u32), config.cpu))
            .collect();

        let wake_up_func = stack
            .registry()
            .lookup("__wake_up")
            .expect("stack registers __wake_up");

        // Kernel bypass: queue ownership follows the same `vector_home`
        // the APIC was just programmed with, so poll and interrupt cells
        // of a sweep are geometry-for-geometry comparable.
        let plane = if config.dataplane.mode == DataplaneMode::Poll {
            let homes: Vec<usize> = (0..total_queues)
                .map(|q| steering.vector_home(q, total_queues, cpus).index())
                .collect();
            Dataplane::Poll(PollPlane::new(
                cpus,
                &homes,
                &queue_flows,
                &config.dataplane,
                config.tunables.peer_window,
                config.tunables.send_buf_segments,
            ))
        } else {
            Dataplane::Interrupt(IrqPlane {
                nic_activity: vec![0; total_queues],
                flush_armed: vec![false; total_queues],
            })
        };

        // Server workloads: the arena starts empty (every slot in the
        // free list), the stack listens with the workload's backlog, and
        // all lifecycle bookkeeping is per-slot.
        let server = config.server.map(|workload| {
            stack.listen(workload.backlog);
            Box::new(ServerState {
                workload,
                scheduled: 0,
                serial: 0,
                accepts: 0,
                completes: 0,
                backlog_drops: 0,
                window_accepts: 0,
                window_completes: 0,
                syn_pending: vec![false; flows],
                finack_pending: vec![false; flows],
                request_remaining: vec![0; flows],
                response_remaining: vec![0; flows],
                conn_bytes: vec![0; flows],
                started_at: vec![0; flows],
                fct: Vec::new(),
                queue_pending: vec![Vec::new(); total_queues],
                in_pending: vec![false; flows],
            })
        });

        Ok(Machine {
            mem,
            cores,
            clocks: vec![0; cpus],
            sched,
            apic,
            ipi: IpiFabric::new(cpus),
            peers: LazySlots::new(flows),
            peer_seeds,
            prof: Profiler::new(cpus),
            rng,
            // Steady state carries a few in-flight events per queue
            // (wire segments, ACKs, coalescing timers) plus one peer
            // window per *streaming* flow; pre-size so the heaps rarely
            // reallocate mid-run. The budget is split across lanes —
            // per-lane full capacity would multiply the reserve by the
            // lane count, gigabytes of dead heap at 1M flows.
            events: ShardedEventQueue::with_capacity(
                cpus + 1,
                (64 * total_queues
                    + config.tunables.peer_window as usize
                        * match config.workload.active_conns {
                            0 => flows,
                            n => n.min(flows),
                        })
                .div_ceil(cpus + 1),
            ),
            ready: ReadyCpus::new(),
            steering,
            steer_stats: SteerCounters::default(),
            plane,
            server,
            pin_processes: spec.pin_processes,
            tasks,
            last_task_on: vec![None; cpus],
            run_since_sched: vec![0; cpus],
            flow_queue,
            queue_flows,
            queue_nic,
            queue_local,
            flow_rx_pending: LazySlots::new(flows),
            flow_ack_pending: vec![0; flows],
            flow_ack_frames: vec![0; flows],
            flow_txdone_pending: vec![0; flows],
            wire_cursor: vec![0; flows],
            tx_wire_offset: vec![0; flows],
            peer_inflight: vec![0; flows],
            last_softirq_cpu: LastCpu::new(flows),
            last_process_cpu: LastCpu::new(flows),
            irq_cycles: vec![0; cpus],
            total_messages: 0,
            measured_messages: 0,
            bytes_moved: 0,
            measuring: false,
            done: false,
            measure_start: 0,
            last_message_time: 0,
            wake_up_func,
            nics,
            stack,
            vectors,
            config: config.clone(),
        })
    }

    /// `flow`'s peer, built from its seed on first use.
    fn peer(&mut self, flow: usize) -> &mut Peer {
        let config = PeerConfig {
            ack_every: self.config.stack.ack_every,
            mss: self.config.stack.mss,
            jitter_cycles: self.config.tunables.arrival_jitter_cycles,
        };
        let seed = self.peer_seeds[flow];
        self.peers.get_or_insert_with(flow, || {
            Peer::new(ConnectionId::new(flow as u32), config, SimRng::new(seed))
        })
    }

    /// Schedules `event` at cycle `at`, clamped forward to the queue's
    /// causality watermark (see `sim_core::event`): CPU-local clocks can
    /// trail device time, so a wire/timer computation may produce a
    /// timestamp the queue has already passed. Every event the machine
    /// schedules goes through here, so the watermark panic in
    /// `EventQueue::push` is unreachable from the run loop.
    fn push_event(&mut self, at: u64, event: Event) {
        let at = at.max(self.events.now().cycles());
        let lane = self.event_lane(&event);
        self.events.push(lane, SimTime::from_cycles(at), event);
    }

    /// Storage lane for an event: flow and queue events live in the lane
    /// of the CPU their interrupt currently targets, machine-wide timers
    /// in the device lane. Pop order is lane-independent.
    fn event_lane(&self, event: &Event) -> usize {
        let queue = match *event {
            Event::FrameArrival { flow, .. }
            | Event::AckArrival { flow, .. }
            | Event::WireTx { flow, .. }
            | Event::RtoFire { flow, .. }
            | Event::FinAckArrival { flow } => self.flow_queue[flow],
            Event::CoalesceFlush { queue, .. } => queue,
            Event::ConnArrival | Event::IrqRotate | Event::LoadBalance => return self.config.cpus,
        };
        self.apic.route(self.vectors[queue]).index()
    }

    fn wire_time(&self, payload: u32) -> u64 {
        u64::from(payload + 66) * self.config.tunables.wire_cycles_per_byte
    }

    fn arm_flush(&mut self, queue: usize, at: u64) {
        if std::mem::replace(&mut self.irq_plane().flush_armed[queue], true) {
            return;
        }
        // The queue's coalescer may carry its own moderation-timer
        // period (adaptive policies); fixed-count falls back to the
        // machine-level default.
        let timeout = self.nics[self.queue_nic[queue]]
            .flush_timeout(self.queue_local[queue])
            .unwrap_or(self.config.tunables.coalesce_flush_cycles);
        self.push_event(
            at + timeout,
            Event::CoalesceFlush {
                queue,
                armed_at: at,
            },
        );
    }

    fn polling(&self) -> bool {
        matches!(self.plane, Dataplane::Poll(_))
    }

    /// The interrupt plane's moderation state (interrupt-only callers).
    fn irq_plane(&mut self) -> &mut IrqPlane {
        match &mut self.plane {
            Dataplane::Interrupt(irq) => irq,
            Dataplane::Poll(_) => unreachable!("interrupt moderation under the poll dataplane"),
        }
    }

    /// The poll plane's rings and counters (PMD-only callers).
    fn poll_plane(&mut self) -> &mut PollPlane {
        match &mut self.plane {
            Dataplane::Poll(plane) => plane,
            Dataplane::Interrupt(_) => unreachable!("PMD work under the interrupt dataplane"),
        }
    }

    /// Runs the workload to completion and returns the measured metrics.
    ///
    /// One loop serves both dataplanes. Each iteration runs whichever
    /// comes first: the next device event, or the earliest CPU work. On
    /// the interrupt plane that work is a scheduler step of the earliest
    /// runnable CPU, and it wins a tie with an event. On the poll plane
    /// it is one iteration of the PMD core with the earliest ring or
    /// send work, and an event at the same instant goes first (events
    /// only ever add work at that instant).
    ///
    /// # Panics
    ///
    /// Panics on an internal deadlock (no runnable work and no pending
    /// events before the measurement target is reached) or a wedged loop
    /// (past its iteration bound) — either would be a bug in the machine
    /// model.
    pub fn run(&mut self) -> RunMetrics {
        self.seed_work();
        let mut guard: u64 = 0;
        let guard_limit = self.guard_limit();
        // Probing the environment takes a lock and scans `environ`; do it
        // once, not once per event.
        let trace = std::env::var_os("AFFSIM_TRACE").is_some();
        while !self.done {
            guard += 1;
            assert!(
                guard < guard_limit,
                "run loop exceeded {guard_limit} iterations — machine wedged?"
            );
            if trace && should_trace(guard) {
                eprintln!(
                    "iter={guard} msgs={}/{} measuring={} clocks={:?} events={} loads={:?}",
                    self.total_messages,
                    self.measured_messages,
                    self.measuring,
                    self.clocks,
                    self.events.len(),
                    (0..self.config.cpus)
                        .map(|c| self.sched.load(CpuId::new(c as u32)))
                        .collect::<Vec<_>>(),
                );
            }
            let (work, cpu_wins_tie) = if self.polling() {
                (self.poll_next_work(), false)
            } else {
                (self.ready_cpu().map(|c| (self.clocks[c], c)), true)
            };
            let event_at = self.events.peek_time().map(SimTime::cycles);
            match work {
                Some((wt, c))
                    if event_at.is_none_or(|et| wt < et || (wt == et && cpu_wins_tie)) =>
                {
                    if self.polling() {
                        self.step_pmd(c, wt);
                    } else {
                        self.step_cpu(c);
                    }
                }
                _ if event_at.is_some() => self.process_event(),
                _ => panic!(
                    "machine deadlocked: no runnable work and no events \
                     ({}/{} messages measured)",
                    self.measured_messages,
                    self.measure_target()
                ),
            }
        }
        if self.polling() {
            self.finish_poll_spin();
        }
        self.collect_metrics()
    }

    fn guard_limit(&self) -> u64 {
        if let Some(srv) = &self.server {
            // Each connection is bounded by a few dozen loop iterations
            // (SYN, accept, request frames, response segments, ACKs,
            // FIN, drop retries); 50k per connection is wedge detection.
            return 50_000 * srv.workload.total_conns() + 1_000_000;
        }
        // Generous: every message costs well under 10k loop iterations.
        let msgs = u64::from(self.config.workload.warmup_messages)
            + u64::from(self.config.workload.measure_messages);
        10_000 * msgs * self.message_target_scale() + 1_000_000
    }

    /// The RX working set: how many connections the peers stream on.
    /// Everything above this index holds provisioned state (arena slot,
    /// page region, scheduler task) but never sources a frame.
    fn streaming_conns(&self) -> usize {
        match self.config.workload.active_conns {
            0 => self.config.connections,
            n => n.min(self.config.connections),
        }
    }

    /// What one unit of `warmup_messages`/`measure_messages` means:
    /// `connections` messages per unit historically, one message per
    /// unit when the workload asks for aggregate targets (the
    /// million-flow cells, where per-flow depth is the wrong knob).
    fn message_target_scale(&self) -> u64 {
        if self.config.workload.aggregate_targets {
            1
        } else {
            self.config.connections as u64
        }
    }

    fn warmup_target(&self) -> u64 {
        u64::from(self.config.workload.warmup_messages) * self.message_target_scale()
    }

    fn measure_target(&self) -> u64 {
        u64::from(self.config.workload.measure_messages) * self.message_target_scale()
    }

    /// The interrupt plane's next CPU: the earliest-clock CPU with
    /// runnable work. Runnability only moves when the scheduler mutates;
    /// reuse the cached ready mask until its generation slips. The pick
    /// reproduces the old `filter(cpu_has_work).min_by_key(|c| (clock,
    /// cpu))` scan bit-for-bit (see `ready.rs`).
    fn ready_cpu(&mut self) -> Option<usize> {
        let generation = self.sched.generation();
        if self.ready.stale(generation) {
            let mut mask = 0u64;
            for c in 0..self.config.cpus {
                if self.cpu_has_work(c) {
                    mask |= 1 << c;
                }
            }
            self.ready.set(generation, mask);
        }
        self.ready.pick(&self.clocks)
    }

    /// The poll plane's next CPU: the earliest `(time, cpu)` at which any
    /// PMD core can do useful work — drain a descriptor its device has
    /// enqueued, or (TX) push more segments for a flow with send-window
    /// room. Ties break to the lower CPU.
    fn poll_next_work(&self) -> Option<(u64, usize)> {
        let Dataplane::Poll(plane) = &self.plane else {
            return None;
        };
        let mut best: Option<(u64, usize)> = None;
        for c in 0..self.config.cpus {
            let mut at = plane.next_rx_at(c);
            // Server-mode sends happen inline with batch processing, so
            // rings are the only work source there — skip the TX scan.
            if self.server.is_none()
                && self.config.workload.direction == Direction::Tx
                && plane.cores[c]
                    .queues()
                    .iter()
                    .flat_map(|&q| self.queue_flows[q].iter())
                    .any(|&f| self.writable_room(f).is_some())
            {
                at = Some(at.map_or(self.clocks[c], |t| t.min(self.clocks[c])));
            }
            if let Some(t) = at {
                let ready = t.max(self.clocks[c]);
                if best.is_none_or(|(bt, _)| ready < bt) {
                    best = Some((ready, c));
                }
            }
        }
        best
    }

    /// One poll iteration of core `c`, starting at `t0`: spin across the
    /// idle gap, probe the owned rings, drain up to one burst per queue
    /// into the flows' staged work, and run each drained flow's bottom
    /// half — protocol and application — right here (run-to-completion
    /// is the whole point). TX cores then push more segments.
    fn step_pmd(&mut self, c: usize, t0: u64) {
        let (burst, epc, queues) = {
            let plane = self.poll_plane();
            (
                plane.pmd.burst as usize,
                plane.pmd.empty_poll_cycles,
                plane.cores[c].queues().to_vec(),
            )
        };
        if t0 > self.clocks[c] {
            // The core spun empty from its clock to t0. When the gap
            // straddles the measurement start (this core was idle when
            // another core's message completion reset the counters),
            // charge only the in-window part so busy never exceeds wall.
            let from = if self.measuring {
                self.clocks[c].max(self.measure_start).min(t0)
            } else {
                self.clocks[c]
            };
            self.poll_spin(c, t0 - from);
            self.clocks[c] = t0;
        }
        // The iteration's ring probes cost one poll quantum whether or
        // not they find anything.
        self.cores[c].charge_plain_cycles(epc);
        self.clocks[c] += epc;
        let mut found_work = false;
        let mut flows = Vec::new();
        for &q in &queues {
            // Drain one rx burst. Everything enqueued is observable:
            // events at or before t0 have already been processed.
            flows.clear();
            while flows.len() < burst {
                let plane = self.poll_plane();
                let Some(desc) = plane.rx[q].pop() else { break };
                if desc.pins_buffer() {
                    plane.pool[q].free();
                }
                flows.push(desc.flow());
                self.stage(desc);
            }
            if flows.is_empty() {
                continue;
            }
            found_work = true;
            flows.sort_unstable();
            flows.dedup();
            for &flow in &flows {
                self.flow_bottom_half(c, q, flow);
                if self.done {
                    return;
                }
            }
        }
        // TX: after completions opened window room (or on the very first
        // iteration), push more segments for this core's flows. Server
        // responses are pushed inline by the bottom half instead.
        if self.server.is_none() && self.config.workload.direction == Direction::Tx {
            for &q in &queues {
                for i in 0..self.queue_flows[q].len() {
                    if self.send_chunk(c, self.queue_flows[q][i]) {
                        found_work = true;
                        if self.done {
                            return;
                        }
                    }
                }
            }
        }
        let counters = &mut self.poll_plane().counters[c];
        if found_work {
            counters.polls += 1;
        } else {
            counters.empty_polls += 1;
            counters.spin_cycles += epc;
        }
    }

    /// Charges `gap` cycles of empty busy-polling to PMD core `c`.
    fn poll_spin(&mut self, c: usize, gap: u64) {
        if gap == 0 {
            return;
        }
        self.cores[c].charge_spin_cycles(gap);
        let plane = self.poll_plane();
        let epc = plane.pmd.empty_poll_cycles;
        let counters = &mut plane.counters[c];
        counters.empty_polls += PmdCore::empty_polls_for_gap(gap, epc);
        counters.spin_cycles += gap;
    }

    /// After the run completes, spin every PMD core forward to the last
    /// message time: a poll core is busy for the *entire* measurement
    /// window whether or not traffic reached it, and the GHz/Gbps cost
    /// metric must see that burn.
    fn finish_poll_spin(&mut self) {
        let end = self.last_message_time;
        for c in 0..self.config.cpus {
            let from = self.clocks[c].max(self.measure_start);
            self.poll_spin(c, end.saturating_sub(from));
            self.clocks[c] = self.clocks[c].max(end);
        }
    }

    /// Seeds the run: the periodic timers (interrupt plane only — PMD
    /// cores neither balance nor rotate vectors), then the workload.
    /// ttcp senders are woken (a PMD core sends unwoken); receivers start
    /// blocked with the peers streaming. A server workload has no tasks —
    /// server process context is charged directly on the connection's
    /// home CPU — and opens a wave of connection arrivals.
    fn seed_work(&mut self) {
        if !self.polling() {
            // Recurring load balancing — only if enabled. Linux 2.4 itself
            // had no periodic balancer (idle stealing and wake placement
            // did all the work); the event exists for the ablation benches.
            if self.config.tunables.balance_interval_cycles > 0 {
                self.push_event(
                    self.config.tunables.balance_interval_cycles,
                    Event::LoadBalance,
                );
            }
            if self.config.tunables.irq_rotation_cycles > 0 {
                self.push_event(self.config.tunables.irq_rotation_cycles, Event::IrqRotate);
            }
        }
        if self.server.is_none() && self.config.workload.direction == Direction::Tx {
            if !self.polling() {
                // Wake every sender; placement spreads per policy.
                for i in 0..self.tasks.len() {
                    let task = TaskId::new(i as u32);
                    let from = self
                        .sched
                        .task(task)
                        .expect("spawned")
                        .affinity
                        .first()
                        .expect("non-empty mask");
                    self.sched.wake(task, from, false).expect("task exists");
                }
            }
            return;
        }
        for task in &mut self.tasks {
            task.blocked = Some(BlockReason::RxData);
        }
        if self.server.is_some() {
            self.seed_arrivals();
        } else {
            // The peers start streaming into every NIC (the active
            // working set only — provisioned-but-quiet flows never
            // source a frame).
            for f in 0..self.streaming_conns() {
                self.refill_peer_window(f, 0);
            }
        }
    }

    /// The server workload's open-loop wave of connection arrivals, with
    /// exponential gaps.
    fn seed_arrivals(&mut self) {
        let (total, gap) = {
            let srv = self.server.as_ref().expect("server mode");
            (srv.workload.total_conns(), srv.workload.arrival_gap_cycles)
        };
        let slots = self.config.connections as u64;
        // Overbook the initial wave by an eighth so the SYN-drop/retry
        // path is exercised deterministically: the first `slots`
        // arrivals fill the arena, the excess retry after the client's
        // RTO. Later arrivals are closed-loop replacements (one per
        // completion), which cannot contend for slots on their own.
        let initial = total.min(slots + (slots / 8).max(1));
        let mut at = 0u64;
        for _ in 0..initial {
            at += self.rng.exponential(gap as f64) as u64;
            self.push_event(at, Event::ConnArrival);
        }
        self.server.as_mut().expect("server mode").scheduled = initial;
    }

    /// Admits one arriving connection: allocates an arena slot, stamps
    /// the incarnation's serial and request/response sizes, and returns
    /// the slot — or counts a drop and schedules the client's SYN
    /// retransmission.
    fn server_admit(&mut self, t: u64) -> Option<usize> {
        let Some(conn) = self.stack.flow_alloc() else {
            let srv = self.server.as_mut().expect("server mode");
            srv.backlog_drops += 1;
            self.push_event(t + self.config.tunables.rto_cycles, Event::ConnArrival);
            return None;
        };
        let flow = conn.index();
        let srv = self.server.as_mut().expect("server mode");
        let serial = srv.serial;
        srv.serial += 1;
        srv.request_remaining[flow] = srv.workload.request_bytes;
        srv.response_remaining[flow] = srv.workload.response_for(serial);
        srv.conn_bytes[flow] = srv.request_remaining[flow] + srv.response_remaining[flow];
        srv.started_at[flow] = t;
        srv.syn_pending[flow] = false;
        srv.finack_pending[flow] = false;
        Some(flow)
    }

    /// Stages `flow` for its queue's next bottom half (server mode): the
    /// pending list replaces the legacy every-flow-of-the-queue scan,
    /// which is quadratic at 100k concurrent connections.
    fn server_mark_pending(&mut self, flow: usize) {
        let queue = self.flow_queue[flow];
        let srv = self.server.as_mut().expect("server mode");
        if !srv.in_pending[flow] {
            srv.in_pending[flow] = true;
            srv.queue_pending[queue].push(flow);
        }
    }

    fn refill_peer_window(&mut self, flow: usize, now: u64) {
        if self.done {
            return;
        }
        let window = self.config.tunables.peer_window;
        let mss = u64::from(self.config.stack.mss);
        while self.peer_inflight[flow] < window {
            // TCP receive-window flow control: don't exceed the
            // advertised socket buffer with unread + in-flight data.
            let committed = self.stack.rx_available(ConnectionId::new(flow as u32))
                + u64::from(self.peer_inflight[flow]) * mss;
            if committed + mss > self.config.tunables.rcv_buf_bytes {
                break;
            }
            let (seg, gap) = self.peer(flow).source_frame();
            let at = self.wire_cursor[flow].max(now) + self.wire_time(seg.payload) + gap;
            self.wire_cursor[flow] = at;
            self.peer_inflight[flow] += 1;
            self.push_event(
                at,
                Event::FrameArrival {
                    flow,
                    bytes: seg.payload,
                },
            );
        }
    }

    fn cpu_has_work(&self, c: usize) -> bool {
        let cpu = CpuId::new(c as u32);
        self.sched.current(cpu).is_some() || self.sched.load(cpu) > 0 || self.can_steal(cpu)
    }

    fn can_steal(&self, cpu: CpuId) -> bool {
        self.sched.current(cpu).is_none() && self.sched.can_steal_into(cpu)
    }

    fn step_cpu(&mut self, c: usize) {
        let cpu = CpuId::new(c as u32);
        if self.sched.current(cpu).is_none() {
            if self.sched.pick_next(cpu).is_none() {
                if self.sched.steal_into(cpu).is_some() {
                    self.sched.pick_next(cpu);
                } else {
                    return;
                }
            }
            let current = self.sched.current(cpu).expect("picked");
            if self.last_task_on[c] != Some(current) {
                // Address-space switch: TLBs flush, fixed switch cost.
                self.mem.flush_tlbs(cpu);
                self.cores[c].charge_plain_cycles(self.config.tunables.context_switch_cycles);
                self.clocks[c] += self.config.tunables.context_switch_cycles;
                self.last_task_on[c] = Some(current);
            }
            self.run_since_sched[c] = 0;
        }
        let flow = self.sched.current(cpu).expect("running task").index();
        // `write()` fills the send buffer until it is full, then blocks —
        // the real ttcp dynamic that lets completions (and therefore
        // interrupt affinity) steer where the process wakes up. `read()`
        // blocks on an empty socket.
        let blocked = match self.config.workload.direction {
            Direction::Tx => (!self.send_chunk(c, flow)).then_some(BlockReason::TxSpace),
            Direction::Rx if self.stack.rx_available(ConnectionId::new(flow as u32)) == 0 => {
                Some(BlockReason::RxData)
            }
            Direction::Rx => {
                self.recv_chunk(c, flow);
                None
            }
        };
        if blocked.is_some() {
            self.tasks[flow].blocked = blocked;
            self.sched.block_current(cpu);
        }
        // Timeslice expiry: 2.4-style global requeue (the expired task
        // resumes wherever capacity is — migration under asymmetric
        // interrupt load).
        if self.sched.current(cpu).is_some()
            && self.run_since_sched[c] >= self.config.tunables.timeslice_cycles
        {
            self.sched.yield_current_global(cpu);
        }
    }

    /// Free send room of `flow` in segments: the smaller of free
    /// send-buffer space and what Reno's congestion window still allows
    /// (cwnd binds on unACKed segments, not on device completions).
    fn send_room(&self, flow: usize) -> u32 {
        let conn_id = ConnectionId::new(flow as u32);
        let buf_free = self
            .config
            .tunables
            .send_buf_segments
            .saturating_sub(self.stack.tx_inflight(conn_id));
        let cwnd_free = self
            .stack
            .tx_window(conn_id)
            .saturating_sub(self.stack.tx_unacked(conn_id));
        buf_free.min(cwnd_free)
    }

    /// The send room when it clears the low watermark, `None` when a
    /// writer should wait instead (like `sock_wait_for_wmem`: don't
    /// dribble one-segment writes into a nearly full buffer — though a
    /// ramping congestion window may legitimately be tiny).
    fn writable_room(&self, flow: usize) -> Option<u32> {
        let room = self.send_room(flow);
        let window = self.stack.tx_window(ConnectionId::new(flow as u32));
        (room >= 8.min(window / 2).max(1)).then_some(room)
    }

    /// One `write()` of `flow`'s ttcp sender on CPU `c`: as much of the
    /// message as the send room allows, with the segments queued on the
    /// wire. Returns `false`, sending nothing, when the room is below the
    /// low watermark.
    fn send_chunk(&mut self, c: usize, flow: usize) -> bool {
        let Some(room) = self.writable_room(flow) else {
            return false;
        };
        let cpu = CpuId::new(c as u32);
        let conn_id = ConnectionId::new(flow as u32);
        let chunk_bytes =
            (u64::from(room) * u64::from(self.config.stack.mss)).min(self.tasks[flow].remaining);
        let cross = self.last_softirq_cpu.get(flow).is_some_and(|s| s != cpu);
        let queue = self.flow_queue[flow];
        let tx_ring = self.nics[self.queue_nic[queue]].tx_ring(self.queue_local[queue]);
        let (segs, delta) = self.charge(c, self.clocks[c], |stack, ctx| {
            let segs = stack.sendmsg(ctx, conn_id, chunk_bytes, cross);
            for (i, &seg) in segs.iter().enumerate() {
                stack.driver_tx(ctx, conn_id, tx_ring, i as u64, seg);
            }
            segs
        });
        self.last_process_cpu.set(flow, cpu);
        match &mut self.plane {
            Dataplane::Interrupt(_) => {
                self.sched.charge_current(cpu, delta);
                self.run_since_sched[c] += delta;
                self.steering.consumer_ran(flow, cpu, &mut self.steer_stats);
            }
            Dataplane::Poll(plane) => {
                plane.counters[c].tx_frames += segs.len() as u64;
                self.last_softirq_cpu.set(flow, cpu);
                // The segments cross the queue's SPSC tx ring to the
                // device, which drains it onto the wire at once.
                for &seg in &segs {
                    plane.tx[queue].push(seg).unwrap_or_else(|_| {
                        panic!("poll tx ring overflow on queue {queue} — sizing invariant violated")
                    });
                }
                while plane.tx[queue].pop().is_some() {}
            }
        }
        let now = self.clocks[c];
        self.put_on_wire(flow, &segs, now);
        self.tasks[flow].remaining -= chunk_bytes;
        if self.tasks[flow].remaining == 0 {
            self.tasks[flow].remaining = self.config.workload.message_bytes;
            self.on_message_complete(now);
        }
        true
    }

    /// One `read()` of `flow`'s ttcp receiver on CPU `c`, crediting every
    /// message it completes; returns the bytes read.
    fn recv_chunk(&mut self, c: usize, flow: usize) -> u64 {
        let cpu = CpuId::new(c as u32);
        let conn_id = ConnectionId::new(flow as u32);
        let want = self.tasks[flow].remaining;
        let cross = self.last_softirq_cpu.get(flow).is_some_and(|s| s != cpu);
        let (got, delta) = self.charge(c, self.clocks[c], |stack, ctx| {
            stack.recvmsg(ctx, conn_id, want, cross)
        });
        let now = self.clocks[c];
        if !self.polling() {
            self.sched.charge_current(cpu, delta);
            self.run_since_sched[c] += delta;
            self.last_process_cpu.set(flow, cpu);
            self.steering.consumer_ran(flow, cpu, &mut self.steer_stats);
            // Reading freed socket-buffer space: the advertised window
            // opens.
            self.refill_peer_window(flow, now);
        }
        let mut left = got;
        while left >= self.tasks[flow].remaining {
            left -= self.tasks[flow].remaining;
            self.tasks[flow].remaining = self.config.workload.message_bytes;
            self.on_message_complete(now);
            if self.done {
                return got;
            }
        }
        self.tasks[flow].remaining -= left;
        got
    }

    /// Queues `segs` on `flow`'s wire no earlier than `now`, serialized
    /// behind whatever the flow already has in flight.
    fn put_on_wire(&mut self, flow: usize, segs: &[u32], now: u64) {
        let mut cursor = self.wire_cursor[flow].max(now);
        for &bytes in segs {
            cursor += self.wire_time(bytes);
            self.push_event(cursor, Event::WireTx { flow, bytes });
        }
        self.wire_cursor[flow] = cursor;
    }

    fn process_event(&mut self) {
        let Some((time, event)) = self.events.pop() else {
            return;
        };
        let t = time.cycles();
        match event {
            Event::FrameArrival { flow, bytes } => {
                self.device_rx(RxDesc::Data { flow, bytes, at: t });
            }
            Event::AckArrival { flow, acked } => {
                self.device_rx(RxDesc::Ack { flow, acked, at: t });
            }
            Event::ConnArrival => {
                if let Some(flow) = self.server_admit(t) {
                    self.device_rx(RxDesc::Syn { flow, at: t });
                }
            }
            Event::FinAckArrival { flow } => self.device_rx(RxDesc::FinAck { flow, at: t }),
            Event::WireTx { flow, bytes } => {
                let queue = self.flow_queue[flow];
                let skb_data = self.stack.regions(ConnectionId::new(flow as u32)).skb_data;
                let off = self.tx_wire_offset[flow];
                self.tx_wire_offset[flow] += u64::from(bytes);
                let polling = self.polling();
                let nic = &mut self.nics[self.queue_nic[queue]];
                let local = self.queue_local[queue];
                let raise = if polling {
                    nic.dma_tx_frame_polled(local, &mut self.mem, skb_data, off, bytes);
                    false
                } else {
                    nic.dma_tx_frame(local, &mut self.mem, skb_data, off, bytes, t)
                };
                self.hand_off(queue, RxDesc::TxDone { flow, at: t }, raise);
                if self.server.is_some() && bytes == 0 {
                    // The zero-byte segment is the FIN (server teardown):
                    // the client ACKs it one RTT out; no data-ACK logic.
                    let jitter = self
                        .rng
                        .exponential(self.config.tunables.rtt_cycles as f64 / 4.0)
                        as u64;
                    self.push_event(
                        t + self.config.tunables.rtt_cycles + jitter,
                        Event::FinAckArrival { flow },
                    );
                    return;
                }
                if bytes > 0 && self.rng.chance(self.config.tunables.loss_rate) {
                    // Lost on the wire: the peer never sees it; Reno's
                    // retransmission timer will fire.
                    self.push_event(
                        t + self.config.tunables.rto_cycles,
                        Event::RtoFire { flow, bytes },
                    );
                    return;
                }
                if self.peer(flow).on_data_segment().is_some() {
                    // Jittered RTT: client-side processing and switch
                    // queueing desynchronize the connections.
                    let jitter = self
                        .rng
                        .exponential(self.config.tunables.rtt_cycles as f64 / 4.0)
                        as u64;
                    self.push_event(
                        t + self.config.tunables.rtt_cycles + jitter,
                        Event::AckArrival {
                            flow,
                            acked: self.config.stack.ack_every,
                        },
                    );
                }
            }
            Event::CoalesceFlush { queue, armed_at } => {
                let irq = self.irq_plane();
                irq.flush_armed[queue] = false;
                let activity = irq.nic_activity[queue];
                if activity > armed_at {
                    self.arm_flush(queue, activity);
                } else {
                    if self.nics[self.queue_nic[queue]].flush_coalescing(self.queue_local[queue]) {
                        self.deliver_interrupt(queue, t);
                    }
                    // Server flows ACK every segment (`ack_every == 1`),
                    // so no delayed-ACK state ever pends there — and the
                    // scan below is quadratic at 100k flows per machine.
                    if self.config.workload.direction == Direction::Tx && self.server.is_none() {
                        // Flush the delayed-ACK timers of every flow on
                        // this queue, ascending (one flow per queue on
                        // the paper SUT).
                        for i in 0..self.queue_flows[queue].len() {
                            let flow = self.queue_flows[queue][i];
                            if let Some(_ack) = self.peer(flow).flush_ack() {
                                self.push_event(
                                    t + self.config.tunables.rtt_cycles,
                                    Event::AckArrival { flow, acked: 1 },
                                );
                            }
                        }
                    }
                }
            }
            Event::RtoFire { flow, bytes } => {
                // Collapse the window, rebuild the segment, requeue it on
                // the wire — in the timer softirq on the vector's CPU, or
                // run to completion on the queue's PMD core.
                let queue = self.flow_queue[flow];
                let c = match &self.plane {
                    Dataplane::Interrupt(_) => self.apic.route(self.vectors[queue]).index(),
                    Dataplane::Poll(plane) => plane.cpu_of_queue[queue],
                };
                let conn_id = ConnectionId::new(flow as u32);
                let cross = self
                    .last_process_cpu
                    .get(flow)
                    .is_some_and(|p| p.index() != c);
                let ((), delta) = self.charge(c, t, |stack, ctx| {
                    stack.retransmit_timeout(ctx, conn_id, bytes, cross);
                });
                if !self.polling() {
                    self.irq_cycles[c] += delta;
                }
                let now = self.clocks[c];
                self.put_on_wire(flow, &[bytes], now);
            }
            Event::LoadBalance => {
                self.sched.load_balance();
                if !self.done {
                    self.push_event(
                        t + self.config.tunables.balance_interval_cycles,
                        Event::LoadBalance,
                    );
                }
            }
            Event::IrqRotate => {
                // Rotate every vector's affinity to the next CPU (the
                // 2.6 scheme). The TPR update is an uncacheable write;
                // charge a small fixed cost to each CPU.
                let cpus = self.config.cpus as u32;
                for &v in &self.vectors.clone() {
                    let current = self.apic.route(v);
                    let next = CpuId::new((current.raw() + 1) % cpus);
                    self.apic
                        .set_affinity(v, sim_os::CpuMask::single(next))
                        .expect("rotation target exists");
                }
                for c in 0..self.config.cpus {
                    self.cores[c].charge_plain_cycles(600);
                    self.clocks[c] += 600;
                }
                if !self.done {
                    self.push_event(
                        t + self.config.tunables.irq_rotation_cycles,
                        Event::IrqRotate,
                    );
                }
            }
        }
    }

    /// A frame from the wire reaches its flow's queue: the device DMAs it
    /// (a bare 66-byte header for ACK, SYN and FIN-ACK frames) and hands
    /// the completion to the dataplane.
    fn device_rx(&mut self, desc: RxDesc) {
        let bytes = match desc {
            RxDesc::Data { bytes, .. } => bytes,
            _ => 66,
        };
        let queue = self.flow_queue[desc.flow()];
        let polling = self.polling();
        let nic = &mut self.nics[self.queue_nic[queue]];
        let local = self.queue_local[queue];
        let raise = if polling {
            nic.dma_rx_frame_polled(local, &mut self.mem, bytes);
            false
        } else {
            nic.dma_rx_frame(local, &mut self.mem, bytes, desc.at())
        };
        self.hand_off(queue, desc, raise);
    }

    /// Hands a DMA'd completion to the dataplane. The interrupt plane
    /// stages it for the queue's next bottom half, then raises the vector
    /// (when moderation lets the event through) or arms the moderation
    /// timer. The poll plane pins a mempool buffer for it and pushes the
    /// descriptor onto the queue's SPSC ring for the owning PMD core.
    fn hand_off(&mut self, queue: usize, desc: RxDesc, raise: bool) {
        let t = desc.at();
        match &mut self.plane {
            Dataplane::Poll(plane) => {
                if desc.pins_buffer() {
                    assert!(
                        plane.pool[queue].try_alloc(),
                        "poll mempool exhausted on queue {queue} — sizing invariant violated"
                    );
                }
                plane.rx[queue].push(desc).unwrap_or_else(|_| {
                    panic!("poll rx ring overflow on queue {queue} — sizing invariant violated")
                });
            }
            Dataplane::Interrupt(irq) => {
                irq.nic_activity[queue] = t;
                self.stage(desc);
                if self.server.is_some() {
                    self.server_mark_pending(desc.flow());
                }
                if raise {
                    self.deliver_interrupt(queue, t + self.config.tunables.irq_latency_cycles);
                } else {
                    self.arm_flush(queue, t);
                }
            }
        }
    }

    /// Stages a completion as work for its flow's next bottom half.
    fn stage(&mut self, desc: RxDesc) {
        match desc {
            RxDesc::Data { flow, bytes, .. } => self
                .flow_rx_pending
                .get_or_insert_with(flow, Vec::new)
                .push(bytes),
            RxDesc::Ack { flow, acked, .. } => {
                self.flow_ack_pending[flow] += acked;
                self.flow_ack_frames[flow] += 1;
            }
            RxDesc::TxDone { flow, .. } => self.flow_txdone_pending[flow] += 1,
            RxDesc::Syn { flow, .. } => {
                self.server.as_mut().expect("server mode").syn_pending[flow] = true;
            }
            RxDesc::FinAck { flow, .. } => {
                self.server.as_mut().expect("server mode").finack_pending[flow] = true;
            }
        }
    }

    fn deliver_interrupt(&mut self, queue: usize, t: u64) {
        let vector = self.vectors[queue];
        let mut target = self.apic.deliver(vector);
        let mut t = t;
        if self.steering.dynamic() {
            // Directed steering (Flow Director / aRFS): re-target the
            // queue's vector to wherever the consumer of the queue's
            // first pending flow last ran (the queue's only flow on the
            // paper SUT). Reprogramming is a real MSI rewrite: it costs
            // delivery latency and is visible in the APIC's route for
            // subsequent deliveries.
            let flow = if let Some(srv) = &self.server {
                // Server mode: the pending list already names exactly
                // the flows with staged work; take the lowest, matching
                // the legacy ascending scan, without walking the
                // queue's full (100k-scale) flow population.
                srv.queue_pending[queue].iter().copied().min()
            } else {
                self.queue_flows[queue]
                    .iter()
                    .copied()
                    .find(|&f| self.flow_has_pending(f))
                    .or_else(|| self.queue_flows[queue].first().copied())
            };
            if let Some(decision) = flow.and_then(|f| self.steering.steer(f, &mut self.steer_stats))
            {
                if decision.target != target {
                    self.apic
                        .retarget(vector, decision.target)
                        .expect("steer target is an online CPU");
                    self.steer_stats.resteers += 1;
                    t += decision.resteer_cycles;
                    target = decision.target;
                }
            }
        }
        let c = target.index();
        self.clocks[c] = self.clocks[c].max(t);
        let irq_start = self.cores[c].busy_cycles();

        // Pipeline flushes on the target: interrupt entry, EOI and iret
        // are all serializing on the P4's deep pipeline.
        let handler = self.stack.irq_func(vector);
        for _ in 0..self.config.tunables.clears_per_device_interrupt {
            self.deliver_clear(c, ClearReason::DeviceInterrupt, handler);
        }

        // Top half.
        self.charge(c, t, |stack, ctx| stack.irq_top_half(ctx, vector));

        // Bottom half runs right here, on the same CPU. Saturating: a
        // server-mode completion inside the bottom half can start the
        // measurement window, which resets the core's counters below
        // `irq_start`.
        self.run_bottom_half(c, queue);
        self.irq_cycles[c] += self.cores[c].busy_cycles().saturating_sub(irq_start);

        // Refresh the scheduler's view of interrupt pressure so wakeup
        // placement steers processes away from interrupt-saturated CPUs.
        for cpu in 0..self.config.cpus {
            let pressure = (self.irq_load(cpu) / 0.15) as usize;
            self.sched.set_pressure(CpuId::new(cpu as u32), pressure);
        }
    }

    fn deliver_clear(&mut self, c: usize, reason: ClearReason, handler: Option<FuncId>) {
        let penalty = self.cores[c].machine_clear(reason);
        self.clocks[c] += penalty;
        let to_handler = handler.is_some()
            && reason == ClearReason::DeviceInterrupt
            && self.rng.chance(self.config.tunables.skid_to_handler);
        let func = if to_handler {
            handler.expect("checked")
        } else {
            self.weighted_func_draw(c)
                .or(handler)
                .unwrap_or(self.wake_up_func)
        };
        let delta = PerfCounters {
            machine_clears: 1,
            cycles: penalty,
            ..PerfCounters::default()
        };
        self.prof.record(CpuId::new(c as u32), func, &delta);
    }

    /// Draws a function weighted by the cycles it has accumulated on
    /// `cpu` — the statistical shape of Oprofile's attribution skid: a
    /// flush lands in whatever code was in flight.
    fn weighted_func_draw(&mut self, c: usize) -> Option<FuncId> {
        let cpu = CpuId::new(c as u32);
        let total = self.prof.cpu_cycles(cpu);
        if total == 0 {
            return None;
        }
        let mut r = self.rng.next_below(total);
        for (f, counters) in self.prof.nonzero_on(cpu) {
            if r < counters.cycles {
                return Some(f);
            }
            r -= counters.cycles;
        }
        None
    }

    /// True when `flow` has anything staged for its next bottom half.
    fn flow_has_pending(&self, flow: usize) -> bool {
        self.flow_txdone_pending[flow] > 0
            || self.flow_ack_pending[flow] > 0
            || self
                .flow_rx_pending
                .get(flow)
                .is_some_and(|frames| !frames.is_empty())
    }

    /// The NAPI poll loop of one queue's softirq: drains every flow of
    /// the queue in ascending flow order (exactly the single-flow body
    /// on the paper SUT, where each queue carries one connection).
    fn run_bottom_half(&mut self, c: usize, queue: usize) {
        if self.server.is_some() {
            // Drain the queue's pending list instead of scanning every
            // flow — ascending, like the legacy loop.
            let mut pending = std::mem::take(
                &mut self.server.as_mut().expect("server mode").queue_pending[queue],
            );
            pending.sort_unstable();
            {
                let srv = self.server.as_mut().expect("server mode");
                for &flow in &pending {
                    srv.in_pending[flow] = false;
                }
            }
            for flow in pending {
                self.flow_bottom_half(c, queue, flow);
            }
            return;
        }
        // Only the streaming prefix can have staged work; the
        // provisioned-but-quiet tail past `active_conns` never sources
        // a frame, so scanning it would only burn host time (a quarter
        // million no-op polls per interrupt at 1M flows). `queue_flows`
        // is ascending, so the active flows are a strict prefix.
        let streaming = self.streaming_conns();
        for i in 0..self.queue_flows[queue].len() {
            let flow = self.queue_flows[queue][i];
            if flow >= streaming {
                break;
            }
            self.flow_bottom_half(c, queue, flow);
        }
    }

    /// One flow's share of a bottom half on CPU `c`, for both dataplanes:
    /// retire tx completions, absorb ACKs, take a SYN, receive data
    /// frames and a FIN-ACK — everything staged since the flow's last
    /// pass — then hand the flow to its consumer. The interrupt plane
    /// IPIs a remote process CPU and wakes the blocked task; the poll
    /// plane runs the consumer inline (its process context is always
    /// this core, so nothing here ever crosses CPUs).
    fn flow_bottom_half(&mut self, c: usize, queue: usize, flow: usize) {
        let cpu = CpuId::new(c as u32);
        let nic = self.queue_nic[queue];
        let local = self.queue_local[queue];
        let (tx_ring, rx_ring) = (self.nics[nic].tx_ring(local), self.nics[nic].rx_ring(local));
        let conn_id = ConnectionId::new(flow as u32);
        let cross = self.last_process_cpu.get(flow).is_some_and(|p| p != cpu);

        let txdone = std::mem::take(&mut self.flow_txdone_pending[flow]);
        let acked = std::mem::take(&mut self.flow_ack_pending[flow]);
        let ack_frames = std::mem::take(&mut self.flow_ack_frames[flow]);
        let frames = self
            .flow_rx_pending
            .get_mut(flow)
            .map(std::mem::take)
            .unwrap_or_default();
        let (syn, finack) = match self.server.as_mut() {
            Some(srv) => (
                std::mem::take(&mut srv.syn_pending[flow]),
                std::mem::take(&mut srv.finack_pending[flow]),
            ),
            None => (false, false),
        };

        let (syn_queued, _) = self.charge(c, self.clocks[c], |stack, ctx| {
            if txdone > 0 {
                stack.tx_complete(ctx, conn_id, tx_ring, txdone);
            }
            if acked > 0 {
                stack.rx_ack(ctx, conn_id, acked, cross);
            }
            let syn_queued = syn && stack.on_syn(ctx, conn_id, cross).queued;
            if !frames.is_empty() {
                stack.rx_bottom_half(ctx, conn_id, &frames, rx_ring, cross);
            }
            if finack {
                stack.on_fin_ack(ctx, conn_id, cross);
            }
            syn_queued
        });
        let rx_frames = frames.len() as u32;
        self.peer_inflight[flow] = self.peer_inflight[flow].saturating_sub(rx_frames);
        match &mut self.plane {
            // The driver reclaims the rx descriptors it consumed (ACK,
            // SYN, FIN-ACK and data frames alike).
            Dataplane::Interrupt(_) => self.nics[nic].reclaim_rx(
                local,
                ack_frames + u32::from(syn) + u32::from(finack) + rx_frames,
            ),
            // The PMD freed its buffers at dequeue; process context is
            // this core.
            Dataplane::Poll(plane) => {
                plane.counters[c].rx_frames += u64::from(rx_frames);
                self.last_process_cpu.set(flow, cpu);
            }
        }
        // Out-of-order-completion signature (Wu et al.): data frames of
        // this flow completing on a different CPU than the previous
        // batch means the in-window ordering the consumer observes can
        // interleave — the reordering pathology of directed steering
        // migrating a flow mid-window. Tracked for every policy so
        // sweeps can compare.
        if rx_frames > 0
            && self
                .last_softirq_cpu
                .get(flow)
                .is_some_and(|prev| prev != cpu)
        {
            self.steer_stats.ooo_completions += u64::from(rx_frames);
        }
        self.last_softirq_cpu.set(flow, cpu);
        let now = self.clocks[c];

        // Completing execution of a split stack requires interrupting
        // the CPU that owns the process context (the paper's IPI story):
        // the bottom half ran here, the connection's process runs there.
        if let Some(proc_cpu) = self.last_process_cpu.get(flow) {
            if proc_cpu != cpu && (rx_frames > 0 || acked > 0) {
                self.deliver_ipi(cpu, proc_cpu, IpiKind::FunctionCall, now);
            }
        }

        if self.server.is_some() {
            // Server lifecycle: process context runs now, charged on the
            // connection's home CPU — no scheduler task to wake.
            if syn && !syn_queued {
                self.server_syn_drop(flow, now);
            } else {
                self.server_flow_progress(c, queue, flow, syn, finack);
            }
            return;
        }

        let rx_data = self.config.workload.direction == Direction::Rx && rx_frames > 0;
        if self.polling() {
            // Run to completion: the application drains the socket right
            // here, then the advertised window reopens.
            if rx_data {
                while self.stack.rx_available(conn_id) > 0
                    && self.recv_chunk(c, flow) > 0
                    && !self.done
                {}
                self.refill_peer_window(flow, self.clocks[c]);
            }
            return;
        }
        // Keep the peer's window full (RX workload).
        if rx_data {
            self.refill_peer_window(flow, now);
        }
        // Wake whoever was blocked on this connection.
        let should_wake = match self.tasks[flow].blocked {
            Some(BlockReason::TxSpace) => {
                // High watermark: a third of the buffer free again, and
                // the congestion window has room.
                let inflight = self.stack.tx_inflight(conn_id);
                inflight + self.config.tunables.send_buf_segments / 3
                    <= self.config.tunables.send_buf_segments
                    && self.stack.tx_window(conn_id) > self.stack.tx_unacked(conn_id)
            }
            Some(BlockReason::RxData) => self.stack.rx_available(conn_id) > 0,
            None => false,
        };
        if should_wake {
            self.wake_task(flow, c, now);
        }
    }

    /// The CPU that runs a server connection's process context. With
    /// pinned processes (`sched_setaffinity`) the worker owning a flow
    /// slot lives on `slot % cpus` — accept-distributed workers, the
    /// SO_REUSEPORT shape — which is deliberately *not* a function of
    /// the flow's hash-placed NIC queue: static RSS then pays a
    /// persistent vector-home-vs-worker mismatch that a dynamic
    /// steering policy can close by chasing the consumer. Unpinned,
    /// the worker runs wherever the softirq just ran. Poll mode always
    /// runs to completion on the owning PMD core.
    fn server_proc_cpu(&self, flow: usize, softirq_cpu: usize) -> usize {
        if self.pin_processes && !self.polling() {
            flow % self.config.cpus
        } else {
            softirq_cpu
        }
    }

    /// Runs one stack operation on CPU `c`, pulling its clock forward to
    /// `from` first (whatever staged the work has finished by then), and
    /// advances the clock by the busy cycles it cost — which a PMD core
    /// also books as useful work. Returns the operation's result and its
    /// cost in cycles.
    fn charge<R>(
        &mut self,
        c: usize,
        from: u64,
        f: impl FnOnce(&mut TcpStack, &mut ExecCtx<'_>) -> R,
    ) -> (R, u64) {
        self.clocks[c] = self.clocks[c].max(from);
        let before = self.cores[c].busy_cycles();
        let r = {
            let mut ctx = ExecCtx::new(
                &mut self.cores[c],
                &mut self.mem,
                &mut self.prof,
                &mut self.rng,
            );
            f(&mut self.stack, &mut ctx)
        };
        let delta = self.cores[c].busy_cycles() - before;
        self.clocks[c] += delta;
        if let Dataplane::Poll(plane) = &mut self.plane {
            plane.counters[c].work_cycles += delta;
        }
        (r, delta)
    }

    /// The stack refused a SYN (listen backlog full): free the slot the
    /// arrival held and schedule the client's retransmission.
    fn server_syn_drop(&mut self, flow: usize, now: u64) {
        self.stack.flow_free(ConnectionId::new(flow as u32));
        self.server.as_mut().expect("server mode").backlog_drops += 1;
        self.push_event(now + self.config.tunables.rto_cycles, Event::ConnArrival);
    }

    /// Everything a server connection does outside the softirq: accept,
    /// consume the request, push response segments and the FIN as
    /// windows allow, and retire the connection after its FIN is ACKed.
    fn server_flow_progress(
        &mut self,
        c: usize,
        queue: usize,
        flow: usize,
        accepted: bool,
        closed: bool,
    ) {
        if closed {
            let now = self.clocks[c];
            self.server_complete(flow, now);
            return;
        }
        if accepted {
            self.server_accept(c, flow);
        }
        if self.stack.conn_state(ConnectionId::new(flow as u32)) == ConnState::Established {
            self.server_consume_request(c, flow);
            self.server_pump_response(c, queue, flow);
        }
    }

    /// `accept()` on the connection's process CPU: transitions the
    /// connection to ESTABLISHED, installs its steering-table entry, and
    /// starts the client's request one RTT out.
    fn server_accept(&mut self, c: usize, flow: usize) {
        let conn_id = ConnectionId::new(flow as u32);
        let pc = self.server_proc_cpu(flow, c);
        let cpu = CpuId::new(pc as u32);
        let cross = pc != c;
        let now = self.clocks[c];
        self.charge(pc, now, |stack, ctx| stack.accept(ctx, conn_id, cross));
        self.last_process_cpu.set(flow, cpu);
        self.steering.flow_opened(flow, cpu, &mut self.steer_stats);
        let measuring = self.measuring;
        let srv = self.server.as_mut().expect("server mode");
        srv.accepts += 1;
        if measuring {
            srv.window_accepts += 1;
        }
        self.server_schedule_request(flow, now);
    }

    /// Schedules the client's request frames on the wire, one RTT (plus
    /// jitter) after the SYN-ACK.
    fn server_schedule_request(&mut self, flow: usize, now: u64) {
        let request = self
            .server
            .as_ref()
            .expect("server mode")
            .workload
            .request_bytes;
        let mss = u64::from(self.config.stack.mss);
        let rtt = self.config.tunables.rtt_cycles;
        let jitter = self.rng.exponential(rtt as f64 / 4.0) as u64;
        let mut at = self.wire_cursor[flow].max(now + rtt + jitter);
        let mut left = request;
        while left > 0 {
            let chunk = left.min(mss) as u32;
            left -= u64::from(chunk);
            at += self.wire_time(chunk);
            self.peer_inflight[flow] += 1;
            self.push_event(at, Event::FrameArrival { flow, bytes: chunk });
        }
        self.wire_cursor[flow] = at;
    }

    /// `recvmsg` loop on the process CPU, consuming whatever request
    /// bytes the softirq queued.
    fn server_consume_request(&mut self, c: usize, flow: usize) {
        let conn_id = ConnectionId::new(flow as u32);
        loop {
            let want = self.server.as_ref().expect("server mode").request_remaining[flow];
            if want == 0 || self.stack.rx_available(conn_id) == 0 {
                return;
            }
            let pc = self.server_proc_cpu(flow, c);
            let cpu = CpuId::new(pc as u32);
            let cross = self.last_softirq_cpu.get(flow).is_some_and(|s| s != cpu);
            let now = self.clocks[c];
            let (got, _) = self.charge(pc, now, |stack, ctx| {
                stack.recvmsg(ctx, conn_id, want, cross)
            });
            self.last_process_cpu.set(flow, cpu);
            self.steering.consumer_ran(flow, cpu, &mut self.steer_stats);
            if got == 0 {
                return;
            }
            let srv = self.server.as_mut().expect("server mode");
            srv.request_remaining[flow] = srv.request_remaining[flow].saturating_sub(got);
        }
    }

    /// Submits response segments as send-buffer and congestion-window
    /// room allows; once the response is fully submitted and every
    /// segment is ACKed, sends the FIN.
    fn server_pump_response(&mut self, c: usize, queue: usize, flow: usize) {
        let conn_id = ConnectionId::new(flow as u32);
        {
            let srv = self.server.as_ref().expect("server mode");
            if srv.request_remaining[flow] > 0 {
                return; // request still in flight from the client
            }
        }
        let remaining = self
            .server
            .as_ref()
            .expect("server mode")
            .response_remaining[flow];
        if remaining > 0 {
            let mss = u64::from(self.config.stack.mss);
            let chunk = (u64::from(self.send_room(flow)) * mss).min(remaining);
            if chunk == 0 {
                return; // window closed; the next ACK/TxDone reopens it
            }
            let pc = self.server_proc_cpu(flow, c);
            let cpu = CpuId::new(pc as u32);
            let cross = self.last_softirq_cpu.get(flow).is_some_and(|s| s != cpu);
            let now = self.clocks[c];
            let nic = self.queue_nic[queue];
            let local = self.queue_local[queue];
            let tx_ring = self.nics[nic].tx_ring(local);
            let (segs, _) = self.charge(pc, now, |stack, ctx| {
                let segs = stack.sendmsg(ctx, conn_id, chunk, cross);
                for (i, &seg) in segs.iter().enumerate() {
                    stack.driver_tx(ctx, conn_id, tx_ring, i as u64, seg);
                }
                segs
            });
            self.last_process_cpu.set(flow, cpu);
            self.steering.consumer_ran(flow, cpu, &mut self.steer_stats);
            self.put_on_wire(flow, &segs, self.clocks[pc]);
            let srv = self.server.as_mut().expect("server mode");
            srv.response_remaining[flow] -= chunk;
            return;
        }
        // Response fully submitted: FIN once the retransmission queue
        // drains (no in-flight or unACKed segments left).
        if self.stack.conn_state(conn_id) == ConnState::Established
            && self.stack.tx_unacked(conn_id) == 0
            && self.stack.tx_inflight(conn_id) == 0
        {
            let pc = self.server_proc_cpu(flow, c);
            let cpu = CpuId::new(pc as u32);
            let cross = self.last_softirq_cpu.get(flow).is_some_and(|s| s != cpu);
            let now = self.clocks[c];
            self.charge(pc, now, |stack, ctx| stack.send_fin(ctx, conn_id, cross));
            self.last_process_cpu.set(flow, cpu);
            self.put_on_wire(flow, &[0], self.clocks[pc]);
        }
    }

    /// The FIN-ACK arrived and the stack closed the connection: tear
    /// down steering state, free the slot, record the completion, and
    /// keep the open loop fed.
    fn server_complete(&mut self, flow: usize, now: u64) {
        let conn_id = ConnectionId::new(flow as u32);
        debug_assert_eq!(self.stack.conn_state(conn_id), ConnState::Closed);
        self.steering.flow_closed(flow, &mut self.steer_stats);
        self.stack.flow_free(conn_id);
        // Drop leftover client delayed-ACK state so the slot's next
        // incarnation starts clean.
        let _ = self.peer(flow).flush_ack();
        let measuring = self.measuring;
        let (completes, warmup, total, needs_replacement, bytes) = {
            let srv = self.server.as_mut().expect("server mode");
            srv.completes += 1;
            if measuring {
                srv.window_completes += 1;
                srv.fct.push(now.saturating_sub(srv.started_at[flow]));
            }
            (
                srv.completes,
                srv.workload.warmup_conns,
                srv.workload.total_conns(),
                srv.scheduled < srv.workload.total_conns(),
                srv.conn_bytes[flow],
            )
        };
        self.total_messages += 1;
        if measuring {
            self.measured_messages += 1;
            self.bytes_moved += bytes;
            self.last_message_time = now;
        }
        if !self.measuring && completes >= warmup {
            self.begin_measurement(now);
        }
        if completes >= total {
            self.done = true;
        }
        if needs_replacement && !self.done {
            let gap = self
                .server
                .as_ref()
                .expect("server mode")
                .workload
                .arrival_gap_cycles;
            let at = now + self.rng.exponential(gap as f64) as u64;
            self.server.as_mut().expect("server mode").scheduled += 1;
            self.push_event(at, Event::ConnArrival);
        }
    }

    /// Lifecycle counters of the finished run (all zero for the
    /// immortal-flow workloads): window accepts/completes, lifetime SYN
    /// drops, flow-completion-time percentiles, and the drain state —
    /// live slots and steering-table occupancy, both zero after a fully
    /// drained churn run.
    #[must_use]
    pub fn lifecycle_stats(&self) -> LifecycleCounters {
        let Some(srv) = self.server.as_ref() else {
            return LifecycleCounters::default();
        };
        let mut fct = srv.fct.clone();
        fct.sort_unstable();
        let pct = |p: u64| -> u64 {
            if fct.is_empty() {
                0
            } else {
                fct[((fct.len() as u64 - 1) * p / 100) as usize]
            }
        };
        LifecycleCounters {
            accepts: srv.window_accepts,
            completes: srv.window_completes,
            backlog_drops: srv.backlog_drops,
            fct_p50_cycles: pct(50),
            fct_p99_cycles: pct(99),
            final_live_flows: self.stack.live_flows() as u64,
            final_table_entries: self.steering.occupancy().map_or(0, |(occ, _)| occ as u64),
        }
    }

    /// Fraction of a CPU's time spent in interrupt context.
    fn irq_load(&self, c: usize) -> f64 {
        self.irq_cycles[c] as f64 / self.clocks[c].max(1) as f64
    }

    fn deliver_ipi(&mut self, from: CpuId, to: CpuId, kind: IpiKind, now: u64) {
        self.ipi.send(from, to, kind);
        let tc = to.index();
        self.clocks[tc] = self.clocks[tc].max(now);
        let start = self.cores[tc].busy_cycles();
        for _ in 0..self.config.tunables.clears_per_ipi {
            self.deliver_clear(tc, ClearReason::Ipi, None);
        }
        self.irq_cycles[tc] += self.cores[tc].busy_cycles() - start;
    }

    fn wake_task(&mut self, flow: usize, from_c: usize, now: u64) {
        let task = TaskId::new(flow as u32);
        let from = CpuId::new(from_c as u32);
        // The bottom half hands the consumer off to its own CPU only if
        // that CPU is not carrying disproportionately more interrupt
        // work than its peers — an interrupt-saturated default CPU0
        // repels processes instead of attracting them.
        let min_irq = (0..self.config.cpus)
            .map(|c| self.irq_load(c))
            .fold(f64::INFINITY, f64::min);
        let affine = self.irq_load(from_c) <= min_irq + self.config.tunables.irq_load_gate;
        let placement = self.sched.wake(task, from, affine).expect("task exists");
        self.tasks[flow].blocked = None;
        if placement.needs_resched_ipi {
            self.deliver_ipi(from, placement.cpu, IpiKind::Reschedule, now);
        }
    }

    fn on_message_complete(&mut self, now: u64) {
        self.total_messages += 1;
        if !self.measuring {
            if self.total_messages >= self.warmup_target() {
                self.begin_measurement(now);
            }
            return;
        }
        self.measured_messages += 1;
        self.bytes_moved += self.config.workload.message_bytes;
        self.last_message_time = now;
        if self.measured_messages >= self.measure_target() {
            self.done = true;
        }
    }

    fn begin_measurement(&mut self, now: u64) {
        self.measuring = true;
        self.measure_start = now;
        self.last_message_time = now;
        self.mem.reset_stats();
        for core in &mut self.cores {
            core.reset_counters();
        }
        self.prof.reset();
        self.sched.reset_stats();
        self.apic.reset_stats();
        self.ipi.reset_stats();
        self.steer_stats = SteerCounters::default();
        for nic in &mut self.nics {
            nic.reset_stats();
        }
        if let Dataplane::Poll(plane) = &mut self.plane {
            plane.reset_counters();
        }
        if let Some(srv) = &mut self.server {
            srv.window_accepts = 0;
            srv.window_completes = 0;
            srv.fct.clear();
        }
    }

    fn collect_metrics(&self) -> RunMetrics {
        let wall = self
            .last_message_time
            .saturating_sub(self.measure_start)
            .max(1);
        let bins = Bin::ALL
            .into_iter()
            .map(|bin| BinBreakdown {
                bin,
                counters: self.prof.group_total(self.stack.registry(), bin.label()),
            })
            .collect();
        let mut clears_by_reason = [0u64; 5];
        for core in &self.cores {
            let by = core.clears_by_reason();
            for i in 0..5 {
                clears_by_reason[i] += by[i];
            }
        }
        let sched_stats = self.sched.stats();
        let (mut lock_acq, mut lock_cont) = (0, 0);
        for i in 0..self.config.connections {
            let s = self.stack.lock_stats(ConnectionId::new(i as u32));
            lock_acq += s.acquisitions;
            lock_cont += s.contended;
        }
        RunMetrics {
            wall_cycles: wall,
            freq: self.config.cpu.freq,
            bytes_moved: self.bytes_moved,
            messages: self.measured_messages,
            busy_cycles: self.cores.iter().map(Core::busy_cycles).collect(),
            total: self.prof.total(),
            bins,
            clears_by_reason,
            resched_ipis: sched_stats.resched_ipis,
            wake_migrations: sched_stats.wake_migrations,
            balance_migrations: sched_stats.balance_migrations,
            lock_acquisitions: lock_acq,
            lock_contended: lock_cont,
            interrupts: self.nics.iter().map(|n| n.stats().interrupts).sum(),
        }
    }

    /// The profiler (for table/figure rendering after a run).
    #[must_use]
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// The stack's function registry.
    #[must_use]
    pub fn registry(&self) -> &sim_prof::FunctionRegistry {
        self.stack.registry()
    }

    /// The interrupt vectors in global queue order (one per NIC on the
    /// paper SUT's single-queue ports).
    #[must_use]
    pub fn vectors(&self) -> &[IrqVector] {
        &self.vectors
    }

    /// Steering counters for the measurement window (re-steers, filter
    /// rejects, out-of-order completions).
    #[must_use]
    pub fn steer_stats(&self) -> SteerCounters {
        self.steer_stats
    }

    /// The hardware queue carrying each flow (global queue index).
    #[must_use]
    pub fn flow_queues(&self) -> &[usize] {
        &self.flow_queue
    }

    /// Busy-poll counters aggregated over all PMD cores (measurement
    /// window; all zero under the interrupt dataplane).
    #[must_use]
    pub fn poll_stats(&self) -> PollCounters {
        let mut total = PollCounters::default();
        if let Dataplane::Poll(plane) = &self.plane {
            for c in &plane.counters {
                total.merge(c);
            }
        }
        total
    }

    /// Busy-poll counters per CPU (empty under the interrupt dataplane).
    #[must_use]
    pub fn poll_stats_per_cpu(&self) -> Vec<PollCounters> {
        match &self.plane {
            Dataplane::Poll(plane) => plane.counters.clone(),
            Dataplane::Interrupt(_) => Vec::new(),
        }
    }

    /// Scheduler statistics (wakeups, migrations, IPIs).
    #[must_use]
    pub fn scheduler_stats(&self) -> sim_os::SchedulerStats {
        self.sched.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steer::SteerSpec;

    /// A churn cell with 20k provisioned slots that serves a few dozen
    /// connections builds peers and staged-frame lists for the slots it
    /// hands out, not for every slot.
    #[test]
    fn churn_builds_per_flow_state_only_for_used_slots() {
        let config = ExperimentConfig::churn(
            2,
            20_000,
            SteerSpec::flow_director(),
            DataplaneMode::Interrupt,
        )
        .quick();
        let mut machine = Machine::new(&config).unwrap();
        assert_eq!(
            (machine.peers.built(), machine.flow_rx_pending.built()),
            (0, 0)
        );
        let metrics = machine.run();
        assert!(metrics.bytes_moved > 0);
        let server = machine.server.as_ref().unwrap();
        let peers = machine.peers.built();
        assert!(peers > 0 && peers as u64 <= server.accepts, "{peers} peers");
        assert!(machine.flow_rx_pending.built() <= peers);
        assert_eq!(machine.peers.len(), 20_000);
    }

    #[test]
    fn trace_gate_fires_on_powers_of_two_and_200k_multiples() {
        assert!(!should_trace(0), "iteration 0 never runs");
        for g in [1, 2, 4, 1024, 1 << 40] {
            assert!(should_trace(g), "{g} is a power of two");
        }
        for g in [200_000u64, 400_000, 2_000_000] {
            assert!(should_trace(g), "{g} is a 200k multiple");
        }
        for g in [3, 5, 199_999, 200_001, 300_000] {
            assert!(!should_trace(g), "{g} should be quiet");
        }
    }
}
