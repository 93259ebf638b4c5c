//! The kernel-bypass poll-mode dataplane's state: per-queue SPSC
//! descriptor rings, the mempool backing them, and the PMD cores that
//! busy-poll them.
//!
//! Under [`DataplaneMode::Poll`](crate::DataplaneMode::Poll) the machine
//! routes every device-side completion through these rings instead of
//! the interrupt path: frame arrivals, peer ACKs and transmit
//! completions become descriptors pushed (device side) and popped (PMD
//! side) on the queue's single-producer/single-consumer ring. Queue →
//! core ownership is fixed at construction from the steering policy's
//! `vector_home`, which is exactly what makes each ring single-consumer.
//!
//! Ring capacity auto-sizes to the per-queue in-flight bound — each flow
//! can have at most `peer_window` data frames plus roughly
//! `2 × send_buf_segments` completions/ACKs outstanding — so the sizing
//! invariant *the dataplane never drops* holds by construction; the
//! machine asserts it rather than modeling poll-mode drop recovery.

use crate::experiment::DataplaneConfig;
use sim_net::{Mempool, SpscRing};
use sim_os::{PmdConfig, PmdCore};
use sim_prof::PollCounters;

/// A completion descriptor a PMD core finds on its queue's rx ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxDesc {
    /// A data frame from the peer (RX workload). Pins a mempool buffer.
    Data {
        /// Flow the frame belongs to.
        flow: usize,
        /// Payload bytes.
        bytes: u32,
        /// Cycle the device enqueued the descriptor.
        at: u64,
    },
    /// A peer ACK frame (TX workload). Pins a mempool buffer.
    Ack {
        /// Flow the ACK belongs to.
        flow: usize,
        /// Segments acknowledged.
        acked: u32,
        /// Cycle the device enqueued the descriptor.
        at: u64,
    },
    /// A transmit completion (TX workload). Reuses the tx descriptor —
    /// no mempool buffer.
    TxDone {
        /// Flow whose segment left the wire.
        flow: usize,
        /// Cycle the device enqueued the descriptor.
        at: u64,
    },
    /// A connection-opening SYN (server workload). Pins a mempool
    /// buffer; the flow slot was allocated device-side at arrival.
    Syn {
        /// Flow slot the new connection was allocated.
        flow: usize,
        /// Cycle the device enqueued the descriptor.
        at: u64,
    },
    /// The client's ACK of our FIN (server workload teardown). Pins a
    /// mempool buffer.
    FinAck {
        /// Flow being torn down.
        flow: usize,
        /// Cycle the device enqueued the descriptor.
        at: u64,
    },
}

impl RxDesc {
    /// The flow this descriptor completes work for.
    pub(crate) fn flow(&self) -> usize {
        match *self {
            RxDesc::Data { flow, .. }
            | RxDesc::Ack { flow, .. }
            | RxDesc::TxDone { flow, .. }
            | RxDesc::Syn { flow, .. }
            | RxDesc::FinAck { flow, .. } => flow,
        }
    }

    /// Cycle the device enqueued this descriptor (the earliest a PMD
    /// core can observe it).
    pub(crate) fn at(&self) -> u64 {
        match *self {
            RxDesc::Data { at, .. }
            | RxDesc::Ack { at, .. }
            | RxDesc::TxDone { at, .. }
            | RxDesc::Syn { at, .. }
            | RxDesc::FinAck { at, .. } => at,
        }
    }

    /// True when this descriptor pins a mempool buffer.
    pub(crate) fn pins_buffer(&self) -> bool {
        !matches!(self, RxDesc::TxDone { .. })
    }
}

/// All poll-dataplane state: rings, pools, core ownership, counters.
#[derive(Debug)]
pub(crate) struct PollPlane {
    /// Busy-poll knobs (burst size, empty-poll cost).
    pub pmd: PmdConfig,
    /// One PMD core per CPU (cores with no queues still spin).
    pub cores: Vec<PmdCore>,
    /// Owning PMD core of each global queue.
    pub cpu_of_queue: Vec<usize>,
    /// Per-queue rx/completion descriptor ring (device → PMD).
    pub rx: Vec<SpscRing<RxDesc>>,
    /// Per-queue tx descriptor ring (PMD → device), one entry per
    /// segment, carrying its payload bytes.
    pub tx: Vec<SpscRing<u32>>,
    /// Per-queue rx buffer pool.
    pub pool: Vec<Mempool>,
    /// Per-CPU poll accounting (measurement window).
    pub counters: Vec<PollCounters>,
}

impl PollPlane {
    /// Builds the dataplane: queue `q` is owned by `queue_homes[q]`, and
    /// each queue's ring is sized to its worst-case in-flight descriptor
    /// population (unless `config.ring_entries` overrides it).
    pub(crate) fn new(
        cpus: usize,
        queue_homes: &[usize],
        queue_flows: &[Vec<usize>],
        config: &DataplaneConfig,
        peer_window: u32,
        send_buf_segments: u32,
    ) -> Self {
        let mut cores: Vec<PmdCore> = (0..cpus)
            .map(|c| PmdCore::new(sim_core::CpuId::new(c as u32)))
            .collect();
        for (q, &home) in queue_homes.iter().enumerate() {
            cores[home].assign(q);
        }
        // +4 covers the server-lifecycle descriptors a flow can have
        // outstanding on top of its data windows (SYN, FIN completion,
        // FIN-ACK, and one frame of slack).
        let per_flow = (peer_window + 2 * send_buf_segments + 4) as usize;
        let mut rx = Vec::with_capacity(queue_homes.len());
        let mut tx = Vec::with_capacity(queue_homes.len());
        let mut pool = Vec::with_capacity(queue_homes.len());
        for flows in queue_flows {
            let entries = if config.ring_entries > 0 {
                config.ring_entries as usize
            } else {
                flows.len() * per_flow + 8
            };
            let ring: SpscRing<RxDesc> = SpscRing::with_capacity(entries);
            pool.push(Mempool::new(ring.capacity()));
            rx.push(ring);
            tx.push(SpscRing::with_capacity(entries));
        }
        PollPlane {
            pmd: PmdConfig {
                burst: config.burst.max(1),
                empty_poll_cycles: config.empty_poll_cycles.max(1),
            },
            cores,
            cpu_of_queue: queue_homes.to_vec(),
            rx,
            tx,
            pool,
            counters: vec![PollCounters::default(); cpus],
        }
    }

    /// Earliest enqueue time among the head descriptors of `cpu`'s
    /// queues, or `None` when every owned ring is empty.
    pub(crate) fn next_rx_at(&self, cpu: usize) -> Option<u64> {
        self.cores[cpu]
            .queues()
            .iter()
            .filter_map(|&q| self.rx[q].peek().map(RxDesc::at))
            .min()
    }

    /// Discards warm-up accounting (golden measurement windows only).
    pub(crate) fn reset_counters(&mut self) {
        for c in &mut self.counters {
            *c = PollCounters::default();
        }
    }
}
