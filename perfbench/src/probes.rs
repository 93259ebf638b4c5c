//! Per-layer probes: timed calls into each layer crate's public
//! functions, shaped by the workload's own configurations.
//!
//! A probe sees a layer from outside, so it prices one operation of that
//! layer in isolation; it does not say what share of a cell's run the
//! layer takes. Every probe runs a fixed number of operations per
//! repetition and reports the median ns/op over [`REPS`] repetitions,
//! after one untimed warm-up repetition.

use std::hint::black_box;
use std::time::{Duration, Instant};

use affinity_sim::{FlowPlacement, SteeringPolicy};
use sim_core::{ConnectionId, CpuId, IrqVector, ShardedEventQueue, SimRng, SimTime};
use sim_cpu::{Core, CpuConfig, PerfCounters};
use sim_mem::{MemoryConfig, MemorySystem, RegionId, RegionName, RegionPlan};
use sim_net::{Mempool, SpscRing};
use sim_os::{CpuMask, IpiFabric, IpiKind, Scheduler, SchedulerConfig};
use sim_prof::{FunctionRegistry, Profiler};
use sim_tcp::{ExecCtx, StackConfig, TcpStack};

use crate::workloads::Cell;

/// Timed repetitions per probe (the median is reported).
const REPS: usize = 5;

/// Burst size of the poll-mode rings, as the PMD cores drain them.
const BURST: usize = 32;

/// One probe's result.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Median host nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per repetition (fixed by the workload's shape).
    pub ops: u64,
    /// What one operation is, for the report.
    pub shape: String,
}

/// The workload properties the probes are sized from.
#[derive(Debug)]
pub struct Shape {
    /// CPUs of the workload's widest cell.
    pub cpus: usize,
    /// Event-queue lanes the machine builds for that cell (one per CPU
    /// plus one for devices).
    pub lanes: usize,
    /// Largest flow-slot count of any cell.
    pub slots: usize,
    /// Distinct payload spans the cells move, ascending.
    pub spans: Vec<u64>,
    /// NIC ports of the widest cell (one DMA buffer each in the probes).
    pub nics: usize,
    /// Largest application message (sizes the per-flow buffers).
    pub max_message: u64,
    /// Memory geometry of the widest cell.
    pub mem: MemoryConfig,
    /// Stack cost model of the widest cell.
    pub stack: StackConfig,
    /// CPU model of the widest cell.
    pub cpu: CpuConfig,
}

impl Shape {
    /// Derives the probe shape from a workload's cells.
    ///
    /// # Panics
    ///
    /// Panics on an empty cell list.
    #[must_use]
    pub fn of(cells: &[Cell]) -> Self {
        let widest = cells
            .iter()
            .map(|c| &c.config)
            .max_by_key(|c| (c.cpus, c.connections))
            .expect("a workload has cells");
        let mut spans: Vec<u64> = cells
            .iter()
            .flat_map(|c| match c.config.server {
                Some(s) => {
                    let mut v = vec![s.request_bytes, s.response_bytes];
                    if s.elephant_every > 0 {
                        v.push(s.elephant_response_bytes);
                    }
                    v
                }
                None => vec![c.config.workload.message_bytes],
            })
            .collect();
        spans.sort_unstable();
        spans.dedup();
        Shape {
            cpus: widest.cpus,
            lanes: widest.cpus + 1,
            slots: cells
                .iter()
                .map(|c| c.config.connections)
                .max()
                .unwrap_or(1),
            spans,
            nics: widest.nics,
            max_message: cells
                .iter()
                .map(|c| c.config.workload.message_bytes)
                .max()
                .unwrap_or(4096),
            mem: widest.mem.clone(),
            stack: widest.stack.clone(),
            cpu: widest.cpu,
        }
    }

    fn cpu(&self, i: u64) -> CpuId {
        CpuId::new((i % self.cpus as u64) as u32)
    }
}

/// Runs `rep` once untimed and [`REPS`] times timed; each call returns
/// the time its measured part took. Returns the median ns/op.
fn median_ns(ops: u64, mut rep: impl FnMut() -> Duration) -> f64 {
    let _ = rep();
    let mut ns: Vec<f64> = (0..REPS)
        .map(|_| rep().as_nanos() as f64 / ops as f64)
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[REPS / 2]
}

/// Times a whole repetition of `body`.
fn timed(body: impl FnOnce()) -> Duration {
    let t = Instant::now();
    body();
    t.elapsed()
}

/// A probe: times its layer's operations on a workload shape.
pub type ProbeFn = fn(&Shape) -> Probe;

/// Every probe, by metric name (`<layer>.<operation>_ns`), in report
/// order.
pub const PROBES: [(&str, ProbeFn); 14] = [
    ("sim-mem.data_touch_ns", data_touch),
    ("sim-mem.dma_write_ns", dma_write),
    ("sim-mem.code_fetch_ns", code_fetch),
    ("sim-mem.bulk_region_ns", bulk_region),
    ("sim-core.queue_push_pop_ns", queue_push_pop),
    ("sim-tcp.conn_lifecycle_ns", conn_lifecycle),
    ("sim-tcp.rx_bottom_half_ns", rx_bottom_half),
    ("sim-tcp.sendmsg_ns", sendmsg),
    ("sim-os.wake_pick_ns", wake_pick),
    ("sim-os.ipi_send_ns", ipi_send),
    ("affinity-sim.steer.flowdir_ns", flowdir),
    ("sim-net.spsc_burst_ns", spsc_burst),
    ("sim-net.mempool_ns", mempool),
    ("sim-prof.record_ns", prof_record),
];

/// Runs every probe on the workload shape. `emit` sees each result as
/// soon as it exists, so a probe that aborts the process keeps the ones
/// before it.
pub fn run_all(shape: &Shape, mut emit: impl FnMut(&str, &Probe)) {
    for (name, probe) in PROBES {
        emit(name, &probe(shape));
    }
}

/// Whole-span touches of one payload region per span, rotating CPUs and
/// alternating reads and writes, so lines migrate between caches as the
/// workload's payloads do.
fn data_touch(shape: &Shape) -> Probe {
    let mut mem = MemorySystem::new(shape.mem.clone());
    let regions: Vec<(RegionId, u64)> = shape
        .spans
        .iter()
        .map(|&span| (mem.add_region("probe.payload", span), span))
        .collect();
    let ops = 20_000;
    let k = regions.len() as u64;
    let ns = median_ns(ops, || {
        timed(|| {
            for i in 0..ops {
                let (region, span) = regions[(i % k) as usize];
                let write = (i / k) % 2 == 1;
                black_box(mem.data_touch(shape.cpu(i / k), region, 0, span, write));
            }
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("spans {:?} B on {} cpus", shape.spans, shape.cpus),
    }
}

/// NIC DMA writes into receive buffers the CPUs have cached: each round
/// writes every buffer (timed), then a CPU reads them back (untimed) so
/// the next round's writes find lines to invalidate.
fn dma_write(shape: &Shape) -> Probe {
    const BUFFERS: usize = 16;
    const ROUNDS: u64 = 400;
    let mut mem = MemorySystem::new(shape.mem.clone());
    let buffers: Vec<(RegionId, u64)> = shape
        .spans
        .iter()
        .flat_map(|&span| (0..BUFFERS).map(move |_| span))
        .map(|span| (mem.add_region("probe.rx_buffers", span), span))
        .collect();
    let ops = ROUNDS * buffers.len() as u64;
    let ns = median_ns(ops, || {
        let mut spent = Duration::ZERO;
        for round in 0..ROUNDS {
            let t = Instant::now();
            for &(region, span) in &buffers {
                mem.dma_write(region, 0, span);
            }
            spent += t.elapsed();
            for &(region, span) in &buffers {
                black_box(mem.data_touch(shape.cpu(round), region, 0, span, false));
            }
        }
        spent
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{BUFFERS} buffers per span {:?} B", shape.spans),
    }
}

/// Code sizes of the stack's hottest functions.
fn code_sizes(stack: &StackConfig) -> Vec<u64> {
    [
        &stack.tcp_sendmsg,
        &stack.tcp_v4_rcv,
        &stack.tcp_rcv_established,
        &stack.e1000_clean_rx,
        &stack.copy_to_user,
        &stack.irq_top_half,
    ]
    .iter()
    .map(|f| f.code_bytes)
    .collect()
}

/// Instruction fetches of the stack's hot functions through the trace
/// cache, rotating CPUs.
fn code_fetch(shape: &Shape) -> Probe {
    let mut mem = MemorySystem::new(shape.mem.clone());
    let code: Vec<(RegionId, u64)> = code_sizes(&shape.stack)
        .into_iter()
        .map(|bytes| (mem.add_region("probe.text", bytes), bytes))
        .collect();
    let ops = 100_000;
    let k = code.len() as u64;
    let ns = median_ns(ops, || {
        timed(|| {
            for i in 0..ops {
                let (region, bytes) = code[(i % k) as usize];
                black_box(mem.code_fetch(shape.cpu(i / k), region, 0, bytes));
            }
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{k} functions on {} cpus", shape.cpus),
    }
}

/// The per-flow regions `TcpStack::new` provisions, named and sized as
/// the stack's slab does.
fn flow_plan(stack: &StackConfig, slots: usize, max_message: u64) -> RegionPlan {
    let app_buf = max_message.max(4096);
    let requests = [
        ("tcp_ctx", stack.tcp_ctx_bytes),
        ("sock", stack.sock_bytes),
        ("skb_meta", stack.skb_meta_bytes),
        ("skb_data", stack.skb_data_bytes),
        ("tx_app_buf", app_buf),
        ("rx_app_buf", app_buf),
    ];
    let mut plan = RegionPlan::with_capacity(requests.len() * slots);
    for conn in 0..slots as u32 {
        for (suffix, size) in requests {
            plan.add(RegionName::indexed("conn", conn, suffix), size);
        }
    }
    plan
}

/// One slab call provisioning every flow slot's six regions, into a
/// fresh memory system each time (small populations repeat the build so
/// a repetition provisions at least 60k regions).
fn bulk_region(shape: &Shape) -> Probe {
    let per_build = 6 * shape.slots as u64;
    let builds = 60_000u64.div_ceil(per_build);
    let ops = builds * per_build;
    let ns = median_ns(ops, || {
        let mut spent = Duration::ZERO;
        for _ in 0..builds {
            let mut mem = MemorySystem::new(shape.mem.clone());
            let plan = flow_plan(&shape.stack, shape.slots, shape.max_message);
            let t = Instant::now();
            black_box(mem.add_regions_bulk(plan));
            spent += t.elapsed();
        }
        spent
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{} slots x 6 regions per build", shape.slots),
    }
}

/// Pop-then-push on the sharded event queue at the machine's lane count
/// and a steady depth of 64 events per lane.
fn queue_push_pop(shape: &Shape) -> Probe {
    let lanes = shape.lanes;
    let mut rng = SimRng::new(1);
    let mut queue: ShardedEventQueue<u32> = ShardedEventQueue::with_capacity(lanes, 64);
    for e in 0..(64 * lanes) as u32 {
        queue.push(
            e as usize % lanes,
            SimTime::from_cycles(rng.next_below(10_000)),
            e,
        );
    }
    let ops = 1_000_000;
    let ns = median_ns(ops, || {
        timed(|| {
            for _ in 0..ops {
                let (t, e) = queue.pop().expect("steady depth");
                let due = SimTime::from_cycles(t.cycles() + 1 + rng.next_below(10_000));
                queue.push(e as usize % lanes, due, e);
            }
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{lanes} lanes, depth {}", 64 * lanes),
    }
}

/// A stack with the workload's slot count, its regions provisioned in
/// a fresh memory system, plus one core per CPU and the rings a NIC
/// queue uses.
struct StackRig {
    mem: MemorySystem,
    cores: Vec<Core>,
    prof: Profiler,
    rng: SimRng,
    stack: TcpStack,
    rx_ring: RegionId,
    tx_ring: RegionId,
}

impl StackRig {
    fn new(shape: &Shape) -> Self {
        let mut mem = MemorySystem::new(shape.mem.clone());
        let dma: Vec<RegionId> = (0..shape.nics.max(1))
            .map(|i| mem.add_region(format!("nic{i}.rx_buffers"), 512 * 1024))
            .collect();
        let rx_ring = mem.add_region("nic0.rx_ring", 4096);
        let tx_ring = mem.add_region("nic0.tx_ring", 4096);
        let conn_dma: Vec<RegionId> = (0..shape.slots).map(|f| dma[f % dma.len()]).collect();
        let stack = TcpStack::new(
            shape.stack.clone(),
            &mut mem,
            &conn_dma,
            &[IrqVector::new(0x19)],
            shape.max_message,
        )
        .expect("the workload's own stack config is valid");
        StackRig {
            mem,
            cores: (0..shape.cpus)
                .map(|c| Core::new(CpuId::new(c as u32), shape.cpu))
                .collect(),
            prof: Profiler::new(shape.cpus),
            rng: SimRng::new(7),
            stack,
            rx_ring,
            tx_ring,
        }
    }

    /// An execution context on CPU `i % cpus` (one per episode, as the
    /// machine makes them).
    fn ctx(&mut self, i: u64) -> (ExecCtx<'_>, &mut TcpStack) {
        let c = (i % self.cores.len() as u64) as usize;
        (
            ExecCtx::new(
                &mut self.cores[c],
                &mut self.mem,
                &mut self.prof,
                &mut self.rng,
            ),
            &mut self.stack,
        )
    }
}

/// Spreads operation `i` over the slot population with a stride coprime
/// to it, so consecutive operations land on distant flows.
fn slot(i: u64, slots: usize) -> ConnectionId {
    ConnectionId::new(((i * 7919) % slots as u64) as u32)
}

/// One connection's whole life on a listening stack: slot alloc, SYN,
/// accept, FIN, FIN-ACK, slot free.
fn conn_lifecycle(shape: &Shape) -> Probe {
    let mut rig = StackRig::new(shape);
    rig.stack.listen(u32::MAX);
    let ops = 20_000;
    let ns = median_ns(ops, || {
        timed(|| {
            for i in 0..ops {
                let (mut ctx, stack) = rig.ctx(i);
                let conn = stack.flow_alloc().expect("slots recycle every op");
                assert!(stack.on_syn(&mut ctx, conn, false).queued);
                black_box(stack.accept(&mut ctx, conn, false));
                black_box(stack.send_fin(&mut ctx, conn, false));
                black_box(stack.on_fin_ack(&mut ctx, conn, false));
                drop(ctx);
                stack.flow_free(conn);
            }
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{} slots, SYN to slot free", shape.slots),
    }
}

/// Receive bottom halves of one message's worth of segments, each
/// followed (untimed) by the reader draining the socket.
fn rx_bottom_half(shape: &Shape) -> Probe {
    let mut rig = StackRig::new(shape);
    let mss = shape.stack.mss;
    let frames: Vec<Vec<u32>> = shape
        .spans
        .iter()
        .map(|&span| sim_net::wire::segments_for(span, mss))
        .collect();
    let ops = 2_000;
    let k = frames.len() as u64;
    let ns = median_ns(ops, || {
        let mut spent = Duration::ZERO;
        for i in 0..ops {
            let batch = &frames[(i % k) as usize];
            let bytes: u64 = batch.iter().map(|&f| u64::from(f)).sum();
            let rx_ring = rig.rx_ring;
            let (mut ctx, stack) = rig.ctx(i);
            let conn = slot(i, shape.slots);
            let t = Instant::now();
            black_box(stack.rx_bottom_half(&mut ctx, conn, batch, rx_ring, false));
            spent += t.elapsed();
            black_box(stack.recvmsg(&mut ctx, conn, bytes, false));
        }
        spent
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!(
            "one message of {:?} B over {} slots",
            shape.spans, shape.slots
        ),
    }
}

/// Application sends of one message each, followed (untimed) by the
/// driver completing and the peer acknowledging every segment.
fn sendmsg(shape: &Shape) -> Probe {
    let mut rig = StackRig::new(shape);
    let ops = 2_000;
    let k = shape.spans.len() as u64;
    let ns = median_ns(ops, || {
        let mut spent = Duration::ZERO;
        for i in 0..ops {
            let span = shape.spans[(i % k) as usize];
            let tx_ring = rig.tx_ring;
            let (mut ctx, stack) = rig.ctx(i);
            let conn = slot(i, shape.slots);
            let t = Instant::now();
            let segments = stack.sendmsg(&mut ctx, conn, span, false);
            spent += t.elapsed();
            let n = segments.len() as u32;
            black_box(stack.tx_complete(&mut ctx, conn, tx_ring, n));
            black_box(stack.rx_ack(&mut ctx, conn, n, false));
        }
        spent
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!(
            "one message of {:?} B over {} slots",
            shape.spans, shape.slots
        ),
    }
}

/// Wake a blocked task from a rotating CPU, pick it (or whoever heads
/// that runqueue) and block it again: one consumer hand-off.
fn wake_pick(shape: &Shape) -> Probe {
    let mut sched = Scheduler::new(SchedulerConfig::new(shape.cpus));
    let tasks: Vec<_> = (0..2 * shape.cpus)
        .map(|t| {
            sched
                .spawn(format!("probe{t}"), CpuMask::all(shape.cpus))
                .expect("non-empty mask")
        })
        .collect();
    let ops = 1_000_000;
    let n = tasks.len() as u64;
    let ns = median_ns(ops, || {
        timed(|| {
            for i in 0..ops {
                let placement = sched
                    .wake(tasks[(i % n) as usize], shape.cpu(i), i % 2 == 0)
                    .expect("spawned task");
                black_box(sched.pick_next(placement.cpu));
                black_box(sched.block_current(placement.cpu));
            }
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{n} tasks on {} cpus", shape.cpus),
    }
}

/// Reschedule IPIs between neighbouring CPUs.
fn ipi_send(shape: &Shape) -> Probe {
    let mut fabric = IpiFabric::new(shape.cpus);
    let ops = 5_000_000;
    let ns = median_ns(ops, || {
        timed(|| {
            for i in 0..ops {
                fabric.send(shape.cpu(i), shape.cpu(i + 1), IpiKind::Reschedule);
            }
            black_box(fabric.total());
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{} cpus", shape.cpus),
    }
}

/// Flow Director filter install, delivery-time lookup and teardown for
/// one connection, over a table as large as the slot population.
fn flowdir(shape: &Shape) -> Probe {
    let mut counters = sim_prof::SteerCounters::default();
    let mut director =
        affinity_sim::steer::FlowDirector::new(FlowPlacement::RssHash, shape.slots, 600);
    let ops = 1_000_000;
    let ns = median_ns(ops, || {
        timed(|| {
            for i in 0..ops {
                let flow = slot(i, shape.slots).index();
                director.flow_opened(flow, shape.cpu(i), &mut counters);
                black_box(director.steer(flow, &mut counters));
                director.flow_closed(flow, &mut counters);
            }
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{}-entry table, open/steer/close", shape.slots),
    }
}

/// A 32-descriptor burst pushed onto and drained from an SPSC ring.
fn spsc_burst(_shape: &Shape) -> Probe {
    let mut ring: SpscRing<u64> = SpscRing::with_capacity(512);
    let ops = 200_000;
    let ns = median_ns(ops, || {
        timed(|| {
            for i in 0..ops {
                for d in 0..BURST as u64 {
                    ring.push(i + d).expect("ring drained every burst");
                }
                for _ in 0..BURST {
                    black_box(ring.pop());
                }
            }
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("burst {BURST}, 512-entry ring"),
    }
}

/// A 32-buffer burst allocated from and returned to a mempool.
fn mempool(_shape: &Shape) -> Probe {
    let mut pool = Mempool::new(512);
    let ops = 200_000;
    let ns = median_ns(ops, || {
        timed(|| {
            for _ in 0..ops {
                for _ in 0..BURST {
                    black_box(pool.try_alloc());
                }
                for _ in 0..BURST {
                    pool.free();
                }
            }
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("burst {BURST}, 512 buffers"),
    }
}

/// Profiler attribution of one function episode's counter delta.
fn prof_record(shape: &Shape) -> Probe {
    let mut registry = FunctionRegistry::new();
    let funcs: Vec<_> = (0..32)
        .map(|f| registry.register(format!("probe_fn{f}"), "Engine"))
        .collect();
    let mut prof = Profiler::new(shape.cpus);
    let delta = PerfCounters {
        cycles: 1_200,
        instructions: 800,
        l2_misses: 3,
        llc_misses: 1,
        branches: 120,
        ..PerfCounters::default()
    };
    let ops = 2_000_000;
    let k = funcs.len() as u64;
    let ns = median_ns(ops, || {
        timed(|| {
            for i in 0..ops {
                prof.record(shape.cpu(i / k), funcs[(i % k) as usize], &delta);
            }
            black_box(prof.total());
        })
    });
    Probe {
        ns_per_op: ns,
        ops,
        shape: format!("{k} functions on {} cpus", shape.cpus),
    }
}
