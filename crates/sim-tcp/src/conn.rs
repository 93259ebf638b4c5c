//! Per-connection state: memory regions and the flow arena.
//!
//! Protocol state lives in [`FlowArena`], a structure-of-arrays arena
//! keyed by dense [`FlowId`] handles. One simulated cell touches a
//! handful of scalar fields per segment (cursors, queue byte counts,
//! in-flight counters) across every active flow; splitting each field
//! into its own dense array keeps those accesses on a few hot cache
//! lines instead of striding over ~200-byte per-connection structs, and
//! the generation stamp in the handle catches stale references the
//! moment an arena slot is ever reused.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use sim_core::{ConnectionId, LazySlots};
use sim_mem::{MemorySystem, RegionId, RegionPlan, RegionSpan};
use sim_os::SpinLock;

use crate::config::StackConfig;
use crate::congestion::CongestionState;

/// The memory regions belonging to one connection — the cacheable state
/// whose locality affinity protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionRegions {
    /// TCP control block (tcp_opt, inet sock, hash chain).
    pub tcp_ctx: RegionId,
    /// Generic socket structure (wait queues, callbacks, accounting).
    pub sock: RegionId,
    /// skb metadata pool (headers, shinfo).
    pub skb_meta: RegionId,
    /// Kernel payload area for the send queue (skb data).
    pub skb_data: RegionId,
    /// The application's transmit buffer (ttcp reuses one buffer, so it
    /// stays cached — the paper's TX setup).
    pub tx_app_buf: RegionId,
    /// The application's receive buffer.
    pub rx_app_buf: RegionId,
    /// The NIC RX buffer region packets are DMA'd into (copy source on
    /// RX — always uncached).
    pub rx_dma_buf: RegionId,
}

/// A generation-stamped handle into the [`FlowArena`].
///
/// The index is dense (slot `i` of every field array); the generation
/// must match the arena's current generation for that slot, so a handle
/// kept across a slot reuse panics instead of silently reading another
/// flow's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowId {
    index: u32,
    gen: u32,
}

impl FlowId {
    /// The dense slot index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.index as usize
    }
}

/// Per-connection lifecycle state.
///
/// The listener side (the ISSUE's LISTEN state) is not a per-flow state:
/// it lives in the stack's single [`crate::stack::ListenSocket`]. A slot
/// on the free list is in `Closed`; `alloc` hands it out still `Closed`
/// until the SYN is processed in the softirq.
///
/// `Established` is discriminant zero: a provisioned slot is an open
/// connection (the ttcp setup), so the arena's state column starts as
/// zeroed pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum ConnState {
    /// No connection: the slot is free or the handshake hasn't started.
    Closed = 1,
    /// SYN received and SYN-ACK sent; waiting in the accept backlog.
    SynRcvd = 2,
    /// Fully open — the data fast path.
    Established = 0,
    /// FIN sent, waiting for the peer's FIN-ACK before the slot is
    /// recycled.
    FinWait = 3,
}

impl ConnState {
    /// The state stored as `byte` in the arena's state column.
    fn from_byte(byte: u8) -> Self {
        match byte {
            0 => ConnState::Established,
            1 => ConnState::Closed,
            2 => ConnState::SynRcvd,
            _ => ConnState::FinWait,
        }
    }
}

/// A slot's per-connection state that has no all-zero fresh value: built
/// on the slot's first write (see [`LazySlots`]).
#[derive(Debug, Clone)]
pub(crate) struct Socket {
    /// Frames in the socket receive queue (payload bytes each), with the
    /// DMA-buffer offset they point at.
    pub rx_queue: VecDeque<(u32, u64)>,
    /// Reno congestion control for the send side.
    pub congestion: CongestionState,
    /// The connection's `sk_lock`.
    pub lock: SpinLock,
}

/// Structure-of-arrays arena of per-flow protocol state.
///
/// Field `x` of flow `f` is `x[f]` with `f = arena.slot(id)`; all arrays
/// share one length. Fields mirror the Linux state the model charges
/// for: socket receive queue, delayed-ACK counter, send-window
/// accounting, and the rolling slab/DMA cursors that decide which cache
/// lines each operation touches.
///
/// A provisioned slot costs only what a run touches. Every column's
/// fresh value is all zero bytes, so the columns start as untouched
/// zeroed pages; the [`Socket`] state, which has no such value, is built
/// on the slot's first write; and a slot's regions are arithmetic over
/// the provisioned slab.
#[derive(Debug, Clone)]
pub(crate) struct FlowArena {
    /// Current generation of each slot (bumped on reuse).
    generations: Vec<u32>,
    /// The six per-flow regions of every slot, slot-major.
    slab: RegionSpan,
    /// The NIC RX-buffer region each slot's packets are DMA'd into.
    rx_dma: Vec<RegionId>,
    /// Total bytes in the receive queue.
    pub rx_queue_bytes: Vec<u64>,
    /// Data segments received since the last ACK we sent.
    pub frames_since_ack: Vec<u32>,
    /// TX segments in flight (sent, not yet completed/acked).
    pub tx_inflight: Vec<u32>,
    /// TX segments sent but not yet cumulatively ACKed by the peer —
    /// what the congestion window binds on.
    pub tx_unacked: Vec<u32>,
    /// Rolling offset into the skb data area (send queue recycling).
    pub skb_data_cursor: Vec<u64>,
    /// Rolling skb-metadata allocation cursor (advances 256 B per skb).
    pub meta_alloc_cursor: Vec<u64>,
    /// Rolling skb-metadata free cursor — trails the allocation cursor,
    /// so frees touch the same slots allocations wrote (the cross-CPU
    /// transfer when allocation and free happen on different CPUs).
    pub meta_free_cursor: Vec<u64>,
    /// Rolling offset into the RX DMA buffer area.
    pub rx_dma_cursor: Vec<u64>,
    /// Bytes the application has consumed on RX.
    pub rx_bytes_delivered: Vec<u64>,
    /// Bytes the application has submitted on TX.
    pub tx_bytes_submitted: Vec<u64>,
    /// Lifecycle state of each slot, as [`ConnState`] discriminants. A
    /// connection is established exactly when its state is.
    /// Connections start established (the paper's ttcp setup connects
    /// once before measurement) but still slow-start from the initial
    /// window during warm-up.
    states: Vec<u8>,
    /// Each slot's [`Socket`], built on first write.
    sockets: LazySlots<Socket>,
    /// The congestion state a connection starts with.
    fresh_congestion: CongestionState,
    /// Freed slots, reused LIFO before any fresh one.
    recycle: Vec<u32>,
    /// Slots `0..fresh` are free and have never been handed out since
    /// the arena last emptied; [`alloc`](Self::alloc) takes them from
    /// the top down.
    fresh: usize,
    /// Slots currently allocated.
    live: usize,
}

impl FlowArena {
    /// The six per-flow region `(suffix, size)` requests, in the order
    /// each flow's regions are carved.
    fn region_requests(config: &StackConfig, max_message: u64) -> [(&'static str, u64); 6] {
        let app_buf = max_message.max(4096);
        [
            ("tcp_ctx", config.tcp_ctx_bytes),
            ("sock", config.sock_bytes),
            ("skb_meta", config.skb_meta_bytes),
            ("skb_data", config.skb_data_bytes),
            ("tx_app_buf", app_buf),
            ("rx_app_buf", app_buf),
        ]
    }

    /// An arena of `conn_dma.len()` live, established connection slots.
    /// The per-flow regions are carved out of simulated memory as one
    /// contiguous strided slab (six regions per flow, flow-major, named
    /// `conn{i}.{field}`), and the per-slot state costs nothing until a
    /// slot is used (see the type docs). Churn-mode `alloc`/`free`
    /// recycles these slots and never allocates regions at runtime.
    pub(crate) fn provision(
        mem: &mut MemorySystem,
        config: &StackConfig,
        conn_dma: &[RegionId],
        max_message: u64,
    ) -> Self {
        let mut plan = RegionPlan::default();
        let n = conn_dma.len();
        plan.add_slab(
            "conn",
            0..n as u32,
            &Self::region_requests(config, max_message),
        );
        FlowArena {
            generations: vec![0; n],
            slab: mem.add_regions_bulk(plan),
            rx_dma: conn_dma.to_vec(),
            rx_queue_bytes: vec![0; n],
            frames_since_ack: vec![0; n],
            tx_inflight: vec![0; n],
            tx_unacked: vec![0; n],
            skb_data_cursor: vec![0; n],
            meta_alloc_cursor: vec![0; n],
            meta_free_cursor: vec![0; n],
            rx_dma_cursor: vec![0; n],
            rx_bytes_delivered: vec![0; n],
            tx_bytes_submitted: vec![0; n],
            states: vec![ConnState::Established as u8; n],
            sockets: LazySlots::new(n),
            fresh_congestion: CongestionState::new(config.initial_cwnd, config.max_cwnd),
            recycle: Vec::new(),
            fresh: 0,
            live: n,
        }
    }

    /// Number of flows in the arena.
    pub(crate) fn len(&self) -> usize {
        self.generations.len()
    }

    /// Number of slots currently allocated (not on the free list).
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Number of slots whose [`Socket`] has been built.
    #[cfg(test)]
    pub(crate) fn built(&self) -> usize {
        self.sockets.built()
    }

    /// The memory regions of slot `s`.
    #[inline]
    pub(crate) fn regions(&self, s: usize) -> ConnectionRegions {
        let [tcp_ctx, sock, skb_meta, skb_data, tx_app_buf, rx_app_buf] = self.slab.array(6 * s);
        ConnectionRegions {
            tcp_ctx,
            sock,
            skb_meta,
            skb_data,
            tx_app_buf,
            rx_app_buf,
            rx_dma_buf: self.rx_dma[s],
        }
    }

    /// Lifecycle state of slot `s`. A free slot never handed out since
    /// the arena emptied is `Closed`, whatever its column byte says.
    #[inline]
    pub(crate) fn state(&self, s: usize) -> ConnState {
        if s < self.fresh {
            return ConnState::Closed;
        }
        ConnState::from_byte(self.states[s])
    }

    #[inline]
    pub(crate) fn set_state(&mut self, s: usize, state: ConnState) {
        self.states[s] = state as u8;
    }

    /// Slot `s`'s congestion state (a fresh one if the slot has none).
    #[inline]
    pub(crate) fn congestion(&self, s: usize) -> CongestionState {
        match self.sockets.get(s) {
            Some(socket) => socket.congestion,
            None => self.fresh_congestion,
        }
    }

    /// Slot `s`'s spinlock statistics.
    pub(crate) fn lock_stats(&self, s: usize) -> sim_os::SpinLockStats {
        self.sockets
            .get(s)
            .map_or_else(Default::default, |socket| socket.lock.stats())
    }

    /// Slot `s`'s [`Socket`], built first if this is its first write.
    #[inline]
    pub(crate) fn socket(&mut self, s: usize) -> &mut Socket {
        let congestion = &self.fresh_congestion;
        self.sockets.get_or_insert_with(s, || Socket {
            rx_queue: VecDeque::new(),
            congestion: *congestion,
            lock: SpinLock::new(),
        })
    }

    /// Hands out a free slot with fresh protocol state for a new
    /// connection, returning its current-generation handle: the most
    /// recently freed slot, else the highest never-used one. Returns
    /// `None` when every slot is live.
    ///
    /// The connection's memory regions and the rolling slab/DMA cursors
    /// are deliberately *kept*: the slab allocator cycles buffers through
    /// the same arena across connections, so a recycled slot inherits the
    /// cache weather of its predecessor — the same churn the real
    /// allocator produces.
    pub(crate) fn alloc(&mut self) -> Option<FlowId> {
        let index = match self.recycle.pop() {
            Some(index) => index,
            None if self.fresh > 0 => {
                self.fresh -= 1;
                self.fresh as u32
            }
            None => return None,
        };
        let s = index as usize;
        self.rx_queue_bytes[s] = 0;
        self.frames_since_ack[s] = 0;
        self.tx_inflight[s] = 0;
        self.tx_unacked[s] = 0;
        self.rx_bytes_delivered[s] = 0;
        self.tx_bytes_submitted[s] = 0;
        self.set_state(s, ConnState::Closed);
        let congestion = self.fresh_congestion;
        let socket = self.socket(s);
        socket.rx_queue.clear();
        socket.congestion = congestion;
        self.live += 1;
        Some(FlowId {
            index,
            gen: self.generations[s],
        })
    }

    /// Frees a live slot: bumps the generation (so `flow` and any copies
    /// of it go stale) and pushes the slot on the free list.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is already stale.
    pub(crate) fn free(&mut self, flow: FlowId) {
        let s = self.slot(flow);
        self.generations[s] = self.generations[s].wrapping_add(1);
        self.set_state(s, ConnState::Closed);
        self.recycle.push(s as u32);
        self.live -= 1;
    }

    /// Frees every slot (server-mode initialisation: slots are
    /// provisioned for their memory regions, then allocated on SYN
    /// arrival). The hand-out order is deterministic: highest slot
    /// first. Writes no per-slot state.
    pub(crate) fn free_all(&mut self) {
        self.recycle.clear();
        self.fresh = self.len();
        self.live = 0;
    }

    /// The current-generation handle for the dense connection `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub(crate) fn handle(&self, conn: ConnectionId) -> FlowId {
        let index = conn.index();
        FlowId {
            index: index as u32,
            gen: self.generations[index],
        }
    }

    /// Resolves a handle to its slot index, checking the generation.
    ///
    /// # Panics
    ///
    /// Panics if the handle's generation doesn't match the slot's (the
    /// slot was reused since the handle was taken).
    #[inline]
    pub(crate) fn slot(&self, flow: FlowId) -> usize {
        let index = flow.index as usize;
        assert_eq!(
            self.generations[index], flow.gen,
            "stale FlowId: slot {index} was reused"
        );
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::MemoryConfig;

    /// An arena of `n` slots on a fresh paper-SUT memory system, every
    /// slot DMA-ing through one receive buffer.
    fn arena_with_slots(n: u32) -> (MemorySystem, FlowArena) {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let dma = mem.add_region("nic0.rx_buffers", 64 * 1024);
        let arena = FlowArena::provision(
            &mut mem,
            &StackConfig::paper(),
            &vec![dma; n as usize],
            4096,
        );
        (mem, arena)
    }

    #[test]
    fn regions_are_allocated_distinct() {
        let (mem, arena) = arena_with_slots(4);
        let r = arena.regions(arena.slot(arena.handle(ConnectionId::new(3))));
        let all = [
            r.tcp_ctx,
            r.sock,
            r.skb_meta,
            r.skb_data,
            r.tx_app_buf,
            r.rx_app_buf,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(mem.regions().name(r.tcp_ctx).render(), "conn3.tcp_ctx");
    }

    /// The slab carves exactly what one `add_region` call per flow field,
    /// flow-major, would: same ids, bases, sizes and names.
    #[test]
    fn provision_matches_add_region_loop() {
        let config = StackConfig::paper();
        let (mut mem_a, mut mem_b) = (
            MemorySystem::new(MemoryConfig::paper_sut(2)),
            MemorySystem::new(MemoryConfig::paper_sut(2)),
        );
        let dma_a: Vec<_> = (0..3)
            .map(|i| mem_a.add_region(format!("nic{i}.rx_buffers"), 64 * 1024))
            .collect();
        let dma_b: Vec<_> = (0..3)
            .map(|i| mem_b.add_region(format!("nic{i}.rx_buffers"), 64 * 1024))
            .collect();
        let requests = FlowArena::region_requests(&config, 65536);
        let mut looped = Vec::new();
        for conn in 0..3 {
            for (suffix, size) in requests {
                looped.push(mem_a.add_region(format!("conn{conn}.{suffix}"), size));
            }
        }
        let arena = FlowArena::provision(&mut mem_b, &config, &dma_b, 65536);
        for s in 0..3 {
            let r = arena.regions(s);
            let ids = [
                r.tcp_ctx,
                r.sock,
                r.skb_meta,
                r.skb_data,
                r.tx_app_buf,
                r.rx_app_buf,
            ];
            assert_eq!(ids[..], looped[6 * s..6 * s + 6]);
            for id in ids {
                assert_eq!(mem_b.regions().get(id), mem_a.regions().get(id));
                assert_eq!(mem_b.regions().name(id), mem_a.regions().name(id));
            }
            assert_eq!(r.rx_dma_buf, dma_a[s]);
        }
        assert_eq!(mem_b.regions().len(), mem_a.regions().len());
        assert_eq!(mem_b.regions().footprint(), mem_a.regions().footprint());
        assert_eq!(mem_b.construction_layout(), mem_a.construction_layout());
    }

    #[test]
    fn fresh_state_is_empty() {
        let (_mem, mut arena) = arena_with_slots(1);
        let s = arena.slot(arena.handle(ConnectionId::new(0)));
        assert_eq!(arena.rx_queue_bytes[s], 0);
        assert_eq!(arena.tx_inflight[s], 0);
        assert_eq!(arena.state(s), ConnState::Established);
        assert_eq!(arena.built(), 0, "reads build nothing");
        let fresh = arena.congestion(s);
        assert!(arena.socket(s).rx_queue.is_empty());
        assert_eq!(arena.socket(s).congestion, fresh);
        assert_eq!(arena.built(), 1);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn handles_round_trip_through_slots() {
        let (_mem, arena) = arena_with_slots(1);
        let flow = arena.handle(ConnectionId::new(0));
        assert_eq!(flow.index(), 0);
        assert_eq!(arena.slot(flow), 0);
    }

    #[test]
    #[should_panic(expected = "stale FlowId")]
    fn stale_generation_is_rejected() {
        let (_mem, mut arena) = arena_with_slots(1);
        let flow = arena.handle(ConnectionId::new(0));
        // Simulate a slot reuse: bump the generation behind the handle.
        arena.generations[0] += 1;
        let _ = arena.slot(flow);
    }

    #[test]
    fn alloc_fails_when_no_slot_is_free() {
        let (_mem, mut arena) = arena_with_slots(2);
        // Provisioned slots are all live; nothing to alloc.
        assert!(arena.alloc().is_none());
        assert_eq!(arena.live(), 2);
    }

    #[test]
    fn free_then_alloc_recycles_with_bumped_generation() {
        let (_mem, mut arena) = arena_with_slots(1);
        let old = arena.handle(ConnectionId::new(0));
        arena.rx_queue_bytes[0] = 77;
        arena.tx_unacked[0] = 3;
        arena.free(old);
        assert_eq!(arena.live(), 0);
        let fresh = arena.alloc().expect("one slot free");
        assert_eq!(fresh.index(), 0);
        assert_ne!(fresh, old, "recycled handle must carry a new generation");
        assert_eq!(arena.slot(fresh), 0);
        assert_eq!(arena.rx_queue_bytes[0], 0, "protocol state resets");
        assert_eq!(arena.tx_unacked[0], 0);
        assert_eq!(arena.state(0), ConnState::Closed);
        assert_eq!(arena.live(), 1);
    }

    #[test]
    #[should_panic(expected = "stale FlowId")]
    fn freed_handle_is_stale() {
        let (_mem, mut arena) = arena_with_slots(1);
        let old = arena.handle(ConnectionId::new(0));
        arena.free(old);
        let _ = arena.slot(old);
    }

    #[test]
    fn free_all_empties_the_arena_deterministically() {
        let (_mem, mut arena) = arena_with_slots(3);
        arena.free_all();
        assert_eq!(arena.live(), 0);
        assert!((0..3).all(|s| arena.state(s) == ConnState::Closed));
        // Highest slot first.
        assert_eq!(arena.alloc().unwrap().index(), 2);
        assert_eq!(arena.alloc().unwrap().index(), 1);
        assert_eq!(arena.alloc().unwrap().index(), 0);
        assert!(arena.alloc().is_none());
        assert_eq!(arena.built(), 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        const SLOTS: usize = 8;

        proptest! {
            /// Satellite: random alloc/free sequences against a
            /// HashMap<slot, FlowId> model of the live set. Recycled
            /// slots must hand out a different generation than the
            /// handle they invalidated, the live count must equal the
            /// model's size after every op, and every live handle must
            /// keep resolving to its slot.
            ///
            /// Hand-out order follows a free stack that starts as
            /// `[0, 1, …, n−1]`: fresh slots from the top down (n−1,
            /// n−2, …), freed slots LIFO ahead of them. A recycled slot
            /// keeps its regions and its slab/DMA cursors, and only
            /// slots ever handed out get their socket state built.
            #[test]
            fn alloc_free_matches_hashmap_model(
                ops in prop::collection::vec((0u8..2, 0usize..SLOTS), 0..96),
            ) {
                let (_mem, mut arena) = arena_with_slots(SLOTS as u32);
                let regions: Vec<ConnectionRegions> = (0..SLOTS).map(|s| arena.regions(s)).collect();
                arena.free_all();
                let mut model: HashMap<usize, FlowId> = HashMap::new();
                let mut free_stack: Vec<usize> = (0..SLOTS).collect();
                let mut retired: Vec<FlowId> = Vec::new();
                let mut handed_out = std::collections::HashSet::new();
                for (op, pick) in ops {
                    match op {
                        0 => match arena.alloc() {
                            Some(flow) => {
                                prop_assert!(model.len() < SLOTS);
                                let slot = flow.index();
                                prop_assert_eq!(Some(slot), free_stack.pop());
                                prop_assert!(!model.contains_key(&slot));
                                if let Some(old) = retired.iter().find(|r| r.index() == slot) {
                                    prop_assert_ne!(
                                        *old, flow,
                                        "recycled slot must bump generation"
                                    );
                                }
                                prop_assert_eq!(arena.regions(slot), regions[slot]);
                                // A recycled slot's cursors carry its
                                // predecessor's weather; a fresh one's are
                                // zero.
                                let recycled = !handed_out.insert(slot);
                                let weather = u64::from(recycled) * (slot as u64 + 1);
                                prop_assert_eq!(arena.skb_data_cursor[slot], weather * 100);
                                prop_assert_eq!(arena.rx_dma_cursor[slot], weather * 7);
                                arena.skb_data_cursor[slot] = (slot as u64 + 1) * 100;
                                arena.rx_dma_cursor[slot] = (slot as u64 + 1) * 7;
                                model.insert(slot, flow);
                            }
                            None => {
                                prop_assert_eq!(model.len(), SLOTS);
                                prop_assert!(free_stack.is_empty());
                            }
                        },
                        _ => {
                            if model.is_empty() {
                                continue;
                            }
                            let mut live: Vec<usize> = model.keys().copied().collect();
                            live.sort_unstable();
                            let slot = live[pick % live.len()];
                            let flow = model.remove(&slot).unwrap();
                            arena.free(flow);
                            free_stack.push(slot);
                            retired.push(flow);
                        }
                    }
                    prop_assert_eq!(arena.live(), model.len());
                    prop_assert_eq!(arena.built(), handed_out.len());
                    for (&slot, &flow) in &model {
                        prop_assert_eq!(arena.slot(flow), slot);
                    }
                }
                // Every retired handle is stale: its generation no longer
                // matches the slot's.
                for old in retired {
                    prop_assert_ne!(arena.generations[old.index()], old.gen);
                }
            }
        }
    }
}
