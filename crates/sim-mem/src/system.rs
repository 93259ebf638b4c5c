//! The coherent, multi-CPU memory system.
//!
//! [`MemorySystem`] owns one cache hierarchy per CPU (L1D → L2 → LLC for
//! data, trace cache → L2 → LLC for code, plus ITLB/DTLB) and a directory
//! that keeps the hierarchies coherent, MESI-style:
//!
//! * a **write** by CPU *c* invalidates the line in every other CPU's
//!   caches (they will take an LLC miss on their next access — the
//!   ping-pong the paper's no-affinity mode suffers);
//! * a **read** of a line another CPU holds modified downgrades that copy
//!   to clean (writeback) — the reader still misses its own hierarchy;
//! * **device DMA writes** (arriving packets) invalidate everywhere, so
//!   receive payload is always uncached, exactly the paper's observation
//!   about RX copies;
//! * **device DMA reads** (transmit) only force writebacks.
//!
//! The LLC is kept inclusive: evicting a line from the LLC back-invalidates
//! the inner levels, so "resident in LLC" is an upper bound for the whole
//! hierarchy, matching how the paper reasons about last-level misses.
//!
//! # Hot-path layout
//!
//! Touches dominate simulation time, so the structures they walk are flat:
//!
//! * The directory is indexed by line address, paged in chunks that are
//!   mapped on their first write ([`Directory`]); a default entry (no
//!   sharers, no owner) is exactly equivalent to the absence of an entry
//!   in a sparse map, so an unwritten chunk reads as defaults.
//! * Cache and directory events are attributed to the region owning the
//!   affected line's page. A walk knows the owner of its own region's
//!   lines; any other line's owner is derived from the region layout
//!   ([`RegionTable`]), so no per-page table exists.
//! * A CPU's sharer bit is kept **exactly equal to LLC residency** (set by
//!   the fill that lands the line in the LLC, cleared by the inclusive
//!   eviction, the write-invalidation and DMA — the only ways a line
//!   leaves an LLC). With inclusion bounding the inner levels, one
//!   directory read classifies a whole access: a clear bit means every
//!   level misses (the walk fills directly, [`Cache::fill_absent`],
//!   skipping the doomed hit scans), a set bit means the LLC cannot miss
//!   and no remote modified owner can exist (skipping the downgrade
//!   check and the redundant re-record of residency).
//! * The directory keeps per-(region, CPU) **incremental exclusivity
//!   counts** (`excl`): how many of the region's own lines have sharer
//!   set exactly `{cpu}`, updated by delta at each sharer-set mutation
//!   and never recomputed by scan. A region whose count equals its line
//!   count is written (or read) with no directory traffic at all; the
//!   counts also give the write fast path its O(1) exclusivity check.
//! * TLBs are probed once per *page* of a touch instead of once per line
//!   ([`Tlb::access_n`] keeps the bookkeeping identical).
//! * Each CPU has a bounded [`ResidencyMemo`] of residency claims: a
//!   whole region is resident in the CPU's L1 (`Hot`), the exact span of
//!   a recent touch is (`Span`), or the span of a recent code fetch is
//!   resident in the trace cache (`Code`). While a claim holds, a repeat
//!   touch (writes additionally need the live exclusivity count, or a
//!   span claim recorded by a write walk) short-circuits the per-line
//!   coherence-and-hierarchy walk down to the hit bookkeeping, which is
//!   the only part with observable effects.
//! * The memo is a direct-mapped table of plain-data entries plus a ring
//!   arena of storage slots, both sized from the L1 and trace-cache line
//!   counts — a claim can only hold while its lines are resident, so the
//!   number of useful claims is bounded by the caches, not by the region
//!   count. A conflicting entry, or a run the arena has wrapped over, is
//!   simply forgotten: the next touch takes the exact walk and records
//!   the claim again. Forgetting never changes a counter.
//! * Data claims are stamped with the (region, CPU) generation in the
//!   flat `gens` table. Every event that could falsify one (fills,
//!   evictions, invalidations, DMA writes) advances the region's
//!   generation, so the fast path can never mask a miss or skip an
//!   invalidation: observable counters are bit-identical to the per-line
//!   walk. Generations move once per touch (accumulated masks,
//!   [`apply_bumps`]) rather than once per line — claims only test stamp
//!   equality, so the batching is invisible.
//! * A claim records each line's storage slot, so the fast path updates
//!   LRU state by direct index ([`Cache::touch_resident_run`]) instead of
//!   re-running the set-and-way search per line. Slots can only go stale
//!   through events that bump the generation, so a current claim implies
//!   current slots.
//! * Code claims need no generation. The trace cache is only ever changed
//!   by the owning CPU's fetch fills (no invalidations or flushes reach
//!   it), so the single falsifying event is a fill's eviction, which
//!   drops the victim region's code entry if the memo holds one.

use serde::{Deserialize, Serialize};
use sim_core::CpuId;

use crate::cache::{AccessKind, Cache, CacheStats};

use crate::config::MemoryConfig;
use crate::directory::Directory;
use crate::owner::{walk_owner, Owner, SlotOwners};
use crate::region::{MemRegion, RegionId, RegionName, RegionPlan, RegionSpan, RegionTable};
use crate::tlb::{Tlb, TlbStats};
use crate::zeroed::ZeroedVec;

/// Per-CPU cache stack.
#[derive(Debug, Clone)]
struct CpuCaches {
    l1: Cache,
    l2: Cache,
    llc: Cache,
    tc: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    /// Owners of the lines in `l1`, `llc` and `tc`, whose victims need
    /// one (`l2` victims need none).
    l1_owners: SlotOwners,
    llc_owners: SlotOwners,
    tc_owners: SlotOwners,
}

/// What a [`MemoEntry`] asserts about its region on the memo's CPU.
///
/// `Empty` is discriminant zero, so a zeroed table is a table of empty
/// entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
enum Claim {
    /// No claim.
    #[default]
    Empty = 0,
    /// Every line of the region is L1-resident at the recorded slots, so
    /// any touch inside the region is pure L1 hits and read coherence is
    /// a no-op (a resident line's owner is this CPU or nobody).
    Hot = 1,
    /// A verification scan found the region not fully L1-resident at the
    /// stamped generation; suppresses re-scans until the state moves.
    Cold = 2,
    /// Lines `first..first + len` are L1-resident at the recorded slots,
    /// so an exact repeat of that touch replays by slot.
    Span = 3,
    /// Lines `first..first + len` are trace-cache-resident at the
    /// recorded slots, so an exact repeat of that fetch replays by slot.
    Code = 4,
}

/// One residency claim of a [`ResidencyMemo`]: plain data, no heap.
///
/// A data claim (`Hot`, `Cold`, `Span`) is trusted only while `gen`
/// matches the (region, CPU) generation in [`MemorySystem::gens`]; every
/// event that could falsify it — an L1 fill or eviction, a coherence
/// invalidation, a directory sharer change, DMA — bumps that generation,
/// so a stale claim simply falls back to the exact per-line walk. Write
/// exclusivity of a whole region is not a claim at all:
/// [`MemorySystem::excl`] tracks it incrementally. A `Code` claim has no
/// generation; it lives until a trace-cache eviction removes it.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct MemoEntry {
    /// Index of the claimed region.
    region: u32,
    /// Lines covered, starting at `first`.
    len: u16,
    claim: Claim,
    /// A `Span` claim recorded by a write walk, which left every span
    /// line with sharer set exactly `{cpu}` — so a repeated *write* of the
    /// span is also coherence- and directory-free. (The directory owner
    /// field is deliberately not part of the claim: owner state is
    /// unobservable, see [`MemorySystem::dma_read`].)
    owned: bool,
    /// Value of the (region, CPU) generation when the claim was recorded.
    gen: u64,
    /// First line covered.
    first: u64,
    /// Absolute arena position of the claim's slot run: slot of
    /// `first + i` is at arena position `pos + i`.
    pos: u64,
}

// SAFETY: all-zero bytes decode to region 0, `len` 0, `Claim::Empty`
// (discriminant 0), `owned: false` and zero stamps — exactly
// `MemoEntry::default()`.
#[allow(unsafe_code)]
unsafe impl crate::zeroed::ZeroDefault for MemoEntry {}

/// Memo entries per CPU, per line of L1D plus trace-cache capacity.
const MEMO_ENTRIES_PER_LINE: usize = 4;
/// Arena slots per CPU, per line of L1D plus trace-cache capacity.
const MEMO_SLOTS_PER_LINE: usize = 16;

/// One CPU's bounded residency memo, backing the touch and fetch fast
/// paths.
///
/// `entries` is direct-mapped: a claim has exactly one home index, derived
/// from its region, kind and (for spans) bounds, and recording a claim
/// replaces whatever lived there. `slots` is a ring arena of L1/trace-cache
/// storage slots; each claim owns the run `[pos, pos + len)` of absolute
/// positions, and the run is readable until the arena wraps over it. Both
/// are sized from the cache geometry only, so a million-region machine
/// pays what a ten-region machine does.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ResidencyMemo {
    /// Power-of-two table of claims; all-zero bytes are empty entries.
    entries: ZeroedVec<MemoEntry>,
    /// Power-of-two ring of storage slots.
    slots: Vec<u32>,
    /// Absolute arena position where the next run starts.
    head: u64,
}

impl ResidencyMemo {
    /// A memo of `entries` claims over a ring of `slots` storage slots
    /// (both powers of two), built from zeroed pages so construction
    /// touches none of them.
    fn new(entries: usize, slots: usize) -> Self {
        debug_assert!(entries.is_power_of_two() && slots.is_power_of_two());
        let mut table = ZeroedVec::new();
        table.grow(entries);
        ResidencyMemo {
            entries: table,
            slots: vec![0; slots],
            head: 0,
        }
    }

    /// Home index of `region`'s `claim`. Spans also key on their bounds,
    /// so the distinct spans a region is touched with get distinct homes;
    /// whole-region and code claims pass zeros.
    #[inline]
    fn index(&self, region: u32, claim: Claim, first: u64, last: u64) -> usize {
        let key = (u64::from(region) << 3 | claim as u64)
            ^ first.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ last.wrapping_mul(0x1656_67B1_9E37_79F9);
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.entries.len() - 1)
    }

    /// The slot run of `e`, unless the arena has since wrapped over it.
    /// Every run written after `e` lies in `[e.pos + e.len, head)`, which
    /// cannot reach `e`'s ring cells before `head` passes
    /// `e.pos + slots.len()`.
    #[inline]
    fn run(&self, e: &MemoEntry) -> Option<&[u32]> {
        let n = self.slots.len();
        if self.head - e.pos > n as u64 {
            return None;
        }
        let p = e.pos as usize & (n - 1);
        Some(&self.slots[p..p + e.len as usize])
    }

    /// Records `claim` over `run` (the slots of lines `claim.first..`) at
    /// index `i`, replacing whatever claim lived there; fills in the
    /// claim's length and arena position. A run that would straddle the
    /// ring's end starts over at its beginning. A run too long for the
    /// arena is not recorded; the entry at `i` then keeps its old claim,
    /// which is still exactly as valid as before.
    #[inline]
    fn record(&mut self, i: usize, claim: MemoEntry, run: &[u32]) {
        let n = self.slots.len();
        let len = run.len();
        if len > n || len > usize::from(u16::MAX) {
            return;
        }
        let mut p = self.head as usize & (n - 1);
        if p + len > n {
            self.head += (n - p) as u64;
            p = 0;
        }
        self.slots[p..p + len].copy_from_slice(run);
        self.entries[i] = MemoEntry {
            len: len as u16,
            pos: self.head,
            ..claim
        };
        self.head += len as u64;
    }

    /// Drops `region`'s code claim if the memo holds one.
    #[inline]
    fn forget_code(&mut self, region: u32) {
        let i = self.index(region, Claim::Code, 0, 0);
        let e = &mut self.entries[i];
        if e.claim == Claim::Code && e.region == region {
            *e = MemoEntry::default();
        }
    }
}

/// Result of one data touch: how many lines were accessed and how far each
/// access had to go.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TouchResult {
    /// Cache lines spanned by the touch.
    pub lines: u64,
    /// Accesses that missed L1 (satisfied by L2 or beyond).
    pub l1_misses: u64,
    /// Accesses that missed L2 (satisfied by LLC or beyond).
    pub l2_misses: u64,
    /// Accesses that missed the last-level cache (memory access).
    pub llc_misses: u64,
    /// Data-TLB misses (page walks).
    pub dtlb_misses: u64,
}

impl TouchResult {
    /// Merges another result into this one.
    pub fn merge(&mut self, other: &TouchResult) {
        self.lines += other.lines;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.llc_misses += other.llc_misses;
        self.dtlb_misses += other.dtlb_misses;
    }
}

/// Result of one instruction fetch through the trace cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchResult {
    /// Cache lines of code footprint fetched.
    pub lines: u64,
    /// Trace-cache misses (decode path re-entered).
    pub tc_misses: u64,
    /// Code accesses that missed L2.
    pub l2_misses: u64,
    /// Code accesses that missed the LLC.
    pub llc_misses: u64,
    /// Instruction-TLB misses (page walks).
    pub itlb_misses: u64,
}

impl FetchResult {
    /// Merges another result into this one.
    pub fn merge(&mut self, other: &FetchResult) {
        self.lines += other.lines;
        self.tc_misses += other.tc_misses;
        self.l2_misses += other.l2_misses;
        self.llc_misses += other.llc_misses;
        self.itlb_misses += other.itlb_misses;
    }
}

/// Probes a TLB once per page covered by the line run `[first, last]`.
///
/// Bookkeeping is identical to one probe per line (see [`Tlb::access_n`]);
/// returns the number of page walks, which equals the per-line miss count
/// because within one run only the first probe of a page can miss.
#[inline]
fn probe_pages(tlb: &mut Tlb, first: u64, last: u64, lines_per_page_shift: u32) -> u64 {
    let mut misses = 0;
    let mut line = first;
    while line <= last {
        let page = line >> lines_per_page_shift;
        let page_last = ((page + 1) << lines_per_page_shift) - 1;
        let run = page_last.min(last) - line + 1;
        if !tlb.access_n(page, run) {
            misses += 1;
        }
        line = page_last + 1;
    }
    misses
}

/// The multi-CPU coherent memory system.
///
/// See the module documentation for the coherence rules.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemorySystem {
    config: MemoryConfig,
    regions: RegionTable,
    /// Regions the hot paths have looked up, by id, so a repeat lookup is
    /// one load rather than a search of the layout. An all-zero entry
    /// has not been looked up yet (no region has size zero).
    placed: ZeroedVec<MemRegion>,
    cpus: Vec<CpuCaches>,
    /// Coherence directory, indexed by line address. A default entry is
    /// equivalent to "line unknown".
    directory: Directory,
    /// `memos[cpu]`: the CPU's bounded residency memo, backing the touch
    /// and fetch fast paths.
    memos: Vec<ResidencyMemo>,
    /// `gens[region * cpus + cpu]`: the (CPU, region) change generation
    /// guarding that CPU's data claims on the region. Kept flat and region-contiguous so
    /// the fill path can bump every CPU's view of a region with one short
    /// contiguous run of increments.
    gens: ZeroedVec<u64>,
    /// `excl[region * cpus + cpu]`: incremental coherence-directory
    /// aggregate — the number of the region's own lines whose sharer set
    /// is exactly `{cpu}`. Maintained by delta at every directory
    /// mutation ([`excl_delta`]), never recomputed by scan, so write
    /// touches check exclusivity of a whole region in O(1):
    /// `excl == region lines` means a write is coherence- and
    /// directory-free. The directory *owner* is deliberately excluded
    /// from the predicate (see [`MemorySystem::dma_read`]).
    excl: ZeroedVec<u32>,
    /// Reused storage-slot buffer: the walks record where each line of
    /// the touch or fetch lands, and a claimable walk copies it into the
    /// memo's arena.
    #[serde(skip)]
    walk_slots: Vec<u32>,
    /// Reused per-line sharer-mask buffer for [`MemorySystem::dma_write`]'s
    /// two-pass directory delta (gather sharers, then apply per CPU).
    #[serde(skip)]
    dma_sharers: Vec<u32>,
    /// Reused deferred-coherence buffers for [`MemorySystem::data_touch`]:
    /// remote invalidations `(line, cpu mask)` from writes and remote
    /// downgrades `(line, owner)` from reads, applied after the walk so
    /// the walk loop holds a single CPU's caches borrowed throughout.
    #[serde(skip)]
    remote_invals: Vec<(u64, u32)>,
    #[serde(skip)]
    remote_cleans: Vec<(u64, u8)>,
    /// Reused per-touch accumulator of pending generation bumps,
    /// `(region, cpu mask)`. The walks record which (region, CPU) views
    /// changed and apply all bumps once at the end ([`apply_bumps`])
    /// instead of bumping per line: nothing reads `gens` mid-walk, and
    /// claims only compare stamped generations for equality, so one bump
    /// per touch invalidates exactly the same claims as one per line.
    #[serde(skip)]
    bump_masks: Vec<(u32, u32)>,
    /// Whether any touch or fetch has run yet (see
    /// [`MemorySystem::add_region`]).
    warm: bool,
    line_shift: u32,
    page_shift: u32,
}

/// Records that every CPU in `mask` must have its view of region `rid`
/// bumped before the touch returns. Touches span one or two regions, so a
/// linear scan of the accumulator beats any map.
#[inline]
fn note_bump(bumps: &mut Vec<(u32, u32)>, rid: u32, mask: u32) {
    for e in bumps.iter_mut() {
        if e.0 == rid {
            e.1 |= mask;
            return;
        }
    }
    bumps.push((rid, mask));
}

/// Applies the accumulated generation bumps. Claims stamped before this
/// touch become stale exactly as they would under per-line bumping; the
/// absolute generation values differ but only equality is ever tested.
#[inline]
fn apply_bumps(gens: &mut [u64], bumps: &[(u32, u32)], ncpus: usize) {
    for &(rid, mask) in bumps {
        let b = rid as usize * ncpus;
        let mut m = mask;
        while m != 0 {
            gens[b + m.trailing_zeros() as usize] += 1;
            m &= m - 1;
        }
    }
}

/// Incremental-directory delta: a line's sharer set changed from `old` to
/// `new`, so the per-(region, CPU) exclusive-line counts at `base` move
/// with it. A set is "exclusive" exactly when it is a single bit.
#[inline]
fn excl_delta(excl: &mut [u32], base: usize, old: u32, new: u32) {
    if old == new {
        return;
    }
    if old.count_ones() == 1 {
        excl[base + old.trailing_zeros() as usize] -= 1;
    }
    if new.count_ones() == 1 {
        excl[base + new.trailing_zeros() as usize] += 1;
    }
}

/// Drops `victim`, just evicted from CPU `me`'s inclusive LLC, from the
/// directory's view of `me`: clears its sharer bit and any ownership,
/// moves its owner's exclusivity count, and bumps the owner's generation
/// for `me`.
#[inline]
fn evict_llc_line(
    directory: &mut Directory,
    excl: &mut [u32],
    bumps: &mut Vec<(u32, u32)>,
    victim: u64,
    owner: Owner,
    me: u8,
    ncpus: usize,
) {
    let me_bit = 1u32 << me;
    let e = directory.get_mut(victim);
    let old = e.sharers;
    e.sharers = old & !me_bit;
    if e.owner_is(me) {
        e.clear_owner();
    }
    if owner.own() {
        excl_delta(excl, owner.base(ncpus), old, old & !me_bit);
    }
    note_bump(bumps, owner.region(), me_bit);
}

impl MemorySystem {
    /// Builds a memory system from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MemoryConfig::validate`]; construct the
    /// config through its helpers to avoid this.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        // A claim holds only while its lines are cache-resident, so the
        // number of useful claims scales with the L1 and trace-cache line
        // counts.
        let lines = ((u64::from(config.l1_size) + u64::from(config.tc_size))
            / u64::from(config.line_size.max(1))) as usize;
        Self::with_memo_capacity(
            config,
            (lines * MEMO_ENTRIES_PER_LINE).next_power_of_two(),
            (lines * MEMO_SLOTS_PER_LINE).next_power_of_two(),
        )
    }

    /// [`MemorySystem::new`] with a per-CPU memo of `entries` claims over
    /// `slots` arena slots (both rounded up to powers of two).
    fn with_memo_capacity(config: MemoryConfig, entries: usize, slots: usize) -> Self {
        config.validate().expect("invalid memory configuration");
        let memos = (0..config.cpus)
            .map(|_| ResidencyMemo::new(entries.next_power_of_two(), slots.next_power_of_two()))
            .collect();
        let line = config.line_size;
        let cpus: Vec<CpuCaches> = (0..config.cpus)
            .map(|i| {
                let cache = |level: &str, size, assoc| {
                    Cache::with_geometry(format!("cpu{i}.{level}"), size, assoc, line)
                };
                let l1 = cache("l1d", config.l1_size, config.l1_assoc);
                let llc = cache("llc", config.llc_size, config.llc_assoc);
                let tc = cache("tc", config.tc_size, config.tc_assoc);
                CpuCaches {
                    l1_owners: SlotOwners::new(&l1),
                    llc_owners: SlotOwners::new(&llc),
                    tc_owners: SlotOwners::new(&tc),
                    l1,
                    l2: cache("l2", config.l2_size, config.l2_assoc),
                    llc,
                    tc,
                    itlb: Tlb::new(config.itlb_entries as usize),
                    dtlb: Tlb::new(config.dtlb_entries as usize),
                }
            })
            .collect();
        MemorySystem {
            line_shift: config.line_size.trailing_zeros(),
            page_shift: config.page_size.trailing_zeros(),
            regions: RegionTable::new(config.page_size as u64),
            placed: ZeroedVec::new(),
            directory: Directory::new(),
            memos,
            gens: ZeroedVec::new(),
            excl: ZeroedVec::new(),
            walk_slots: Vec::new(),
            dma_sharers: Vec::new(),
            remote_invals: Vec::new(),
            remote_cleans: Vec::new(),
            bump_masks: Vec::new(),
            warm: false,
            cpus,
            config,
        }
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Allocates a named region of simulated memory.
    ///
    /// # Panics
    ///
    /// Panics once any touch or fetch has run: a new region would
    /// take over pages that earlier touches ran onto past the old last
    /// region, whose cached lines were attributed — and counted toward
    /// exclusivity — as another region's.
    pub fn add_region(&mut self, name: impl Into<RegionName>, bytes: u64) -> RegionId {
        let id = self.regions.add(name, bytes);
        self.cover_regions();
        id
    }

    /// Allocates every region in `plan` in one batched pass, returning
    /// the dense id range. Produces exactly the state a loop of
    /// [`add_region`](Self::add_region) calls, one per plan entry in
    /// order, would — same `RegionId`s, names, bases, footprint, page
    /// owners and table lengths (property-tested in `tests/proptests.rs`)
    /// — at a cost that grows with the plan's name runs, not its regions.
    ///
    /// # Panics
    ///
    /// As [`add_region`](Self::add_region).
    pub fn add_regions_bulk(&mut self, plan: RegionPlan) -> RegionSpan {
        let span = self.regions.add_plan(plan);
        self.cover_regions();
        span
    }

    /// Grows the directory to every line a touch can reach — a touch
    /// starting near a region's end runs past it by up to `size - 1`
    /// bytes (see `MemRegion::addr`), which [`RegionTable`] folds into
    /// its reach — and the per-(region, CPU) tables to the region count.
    /// The grown tails are untouched zeroed pages (see [`ZeroedVec`]).
    fn cover_regions(&mut self) {
        assert!(!self.warm, "regions must be added before the first access");
        if self.regions.is_empty() {
            return;
        }
        self.directory
            .grow((self.regions.reach() >> self.line_shift) as usize + 1);
        self.placed.grow(self.regions.len());
        let slots = self.regions.len() * self.cpus.len();
        self.gens.grow(slots);
        self.excl.grow(slots);
    }

    /// Region `id`'s placement, remembered after the first lookup.
    #[inline]
    fn region(&mut self, id: RegionId) -> MemRegion {
        let r = self.placed[id.index()];
        if r.size() != 0 {
            return r;
        }
        self.place(id)
    }

    #[cold]
    #[inline(never)]
    fn place(&mut self, id: RegionId) -> MemRegion {
        let r = self.regions.get(id);
        self.placed[id.index()] = r;
        r
    }

    /// The region directory.
    #[must_use]
    pub fn regions(&self) -> &RegionTable {
        &self.regions
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Touches `bytes` bytes of data in `region` starting at `offset`
    /// (wrapping at the region end) from `cpu`, as a read or a write.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn data_touch(
        &mut self,
        cpu: CpuId,
        region: RegionId,
        offset: u64,
        bytes: u64,
        write: bool,
    ) -> TouchResult {
        let mut result = TouchResult::default();
        if bytes == 0 {
            return result;
        }
        let idx = cpu.index();
        assert!(idx < self.cpus.len(), "cpu {idx} out of range");
        self.warm = true;
        let (start, end, region_first_line, region_last_line) = {
            let r = self.region(region);
            let start = r.addr(offset);
            (
                start,
                start + bytes.min(r.size()),
                r.base() >> self.line_shift,
                (r.base() + r.size() - 1) >> self.line_shift,
            )
        };
        let first = start >> self.line_shift;
        let last = (end - 1) >> self.line_shift;
        result.lines = last - first + 1;
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let lpp = self.page_shift - self.line_shift;

        // One DTLB probe per page instead of per line. The TLB shares no
        // state with the caches or the directory, so probing the pages up
        // front is indistinguishable from interleaving per-line probes.
        result.dtlb_misses = probe_pages(&mut self.cpus[idx].dtlb, first, last, lpp);

        let me_bit = 1u32 << idx;
        let me = idx as u8;
        let line_shift = self.line_shift;
        let MemorySystem {
            cpus,
            directory,
            memos,
            gens,
            excl,
            regions,
            walk_slots: span_slots,
            remote_invals,
            remote_cleans,
            bump_masks,
            ..
        } = self;
        let ncpus = cpus.len();
        // Flat (region, cpu) offset, shared by `gens` and `excl`.
        let si = region.index() * ncpus + idx;
        let rkey = region.index() as u32;
        let region_lines = region_last_line - region_first_line + 1;

        // Live exclusivity: every one of the region's own lines has
        // sharer set exactly `{me}`. The count is maintained
        // incrementally at each directory mutation, so this is O(1) where
        // the old `owned` stamp needed a verification scan. Exclusive
        // lines need no coherence (no remote copies to invalidate), no
        // directory write (the narrow and the owner store are no-ops —
        // owner state is unobservable, see `dma_read`), and are
        // guaranteed LLC-resident (a sharer bit is set iff the line is in
        // that CPU's inclusive LLC).
        let all_excl = last <= region_last_line
            && region_lines <= u64::from(u32::MAX)
            && excl[si] == region_lines as u32;

        // Fast paths: every line is a private L1 hit, so coherence and the
        // directory update are no-ops and only the L1 bookkeeping remains
        // — applied by pre-resolved storage slot, skipping the set scan.
        // Touches that run past the region end (offset wrap) take the
        // slow path — claims only cover the region's own lines.
        let gen = gens[si];
        let memo = &mut memos[idx];
        let hot_i = memo.index(rkey, Claim::Hot, 0, 0);
        let span_i = memo.index(rkey, Claim::Span, first, last);
        if last <= region_last_line {
            // The whole region is resident; writes additionally need the
            // live exclusivity count.
            let e = &memo.entries[hot_i];
            if e.claim == Claim::Hot && e.region == rkey && e.gen == gen && (!write || all_excl) {
                if let Some(run) = memo.run(e) {
                    let lo = (first - e.first) as usize;
                    cpus[idx].l1.touch_resident_run(
                        &run[lo..lo + result.lines as usize],
                        first,
                        write,
                    );
                    return result;
                }
            }
            // An exact repeat of a recently claimed span, while nothing
            // that could move or reclassify its lines has happened. The
            // span is fully L1-resident (pure hits), and for writes the
            // span is privately owned, so coherence and the directory are
            // no-ops either way.
            let e = &memo.entries[span_i];
            if e.claim == Claim::Span
                && e.region == rkey
                && e.gen == gen
                && e.first == first
                && u64::from(e.len) == result.lines
                && (!write || e.owned)
            {
                if let Some(run) = memo.run(e) {
                    cpus[idx].l1.touch_resident_run(run, first, write);
                    return result;
                }
            }
        }
        span_slots.clear();
        // The walk holds this CPU's caches borrowed for its whole length;
        // the rare coherence actions against *other* CPUs' caches are
        // recorded and applied after the loop. Deferral is exact: the
        // walk's lines are distinct and the walk only reads its own
        // hierarchy and the directory, never a remote cache or `gens` —
        // so a remote invalidation or downgrade commutes with everything
        // between its original position and the end of the walk, and the
        // accumulated generation bumps ([`note_bump`]) can land after the
        // loop too. The directory updates stay in line order.
        remote_invals.clear();
        remote_cleans.clear();
        bump_masks.clear();
        let all_mask = if ncpus >= 32 {
            u32::MAX
        } else {
            (1u32 << ncpus) - 1
        };
        let my = &mut cpus[idx];
        // Owner of a line this walk fills (see `CpuCaches::l1_owners`).
        let owner_of = |line: u64| walk_owner(regions, rkey, region_last_line, line, line_shift);
        if all_excl {
            // Directory-free walk: every line of the touch has sharer set
            // exactly `{me}`, so there are no remote copies to invalidate
            // or downgrade, the directory narrow/record writes are no-ops,
            // and no other CPU can hold a current claim over any of these
            // lines (a claim needs the line resident in *its* cache, which
            // exclusivity rules out) — so their generation bumps can be
            // skipped along with the directory traffic. Only the cache
            // hierarchy itself is walked; exclusive lines are
            // LLC-resident by the sharer-bit invariant, so the walk can
            // never reach the fill-and-record tail.
            for line in first..=last {
                let l1 = my.l1.access(line, kind);
                span_slots.push(l1.slot);
                if l1.hit {
                    continue;
                }
                result.l1_misses += 1;
                let victim = my.l1_owners.replace(l1.slot, owner_of(line));
                if l1.evicted.is_some() {
                    note_bump(bump_masks, victim.region(), me_bit);
                }
                if my.l2.access(line, kind).hit {
                    continue;
                }
                result.l2_misses += 1;
                let llc = my.llc.access(line, kind);
                debug_assert!(
                    llc.hit && llc.evicted.is_none(),
                    "exclusive line {line} must be LLC-resident"
                );
            }
        } else {
            for line in first..=last {
                // Coherence: writes invalidate remote copies; reads
                // downgrade a remote modified owner. For a read, the L1 is
                // probed first: a resident line's directory owner can only
                // be this CPU or nobody (a remote write would have
                // invalidated the copy), so read coherence on an L1 hit is
                // a no-op and the directory need not be touched at all.
                // The remote downgrade and the local fill operate on
                // disjoint state, so probing before the downgrade is
                // indistinguishable from the coherence-first order.
                match kind {
                    AccessKind::Write => {
                        let entry = directory.get_mut(line);
                        let old = entry.sharers;
                        let others = old & !me_bit;
                        entry.sharers = old & me_bit;
                        entry.set_owner(me);
                        if others != 0 {
                            let owner = owner_of(line);
                            note_bump(bump_masks, owner.region(), others);
                            if owner.own() {
                                excl_delta(excl, owner.base(ncpus), old, old & me_bit);
                            }
                            remote_invals.push((line, others));
                        }
                        if old & me_bit != 0 {
                            // The sharer bit says the line is in this
                            // CPU's LLC; the inner levels may still miss,
                            // but the LLC cannot, so the walk never
                            // reaches the fill-and-record tail — and the
                            // refill changes no directory state (bit
                            // already set, owner already this CPU), so
                            // no generation moves either.
                            let l1 = my.l1.access(line, kind);
                            span_slots.push(l1.slot);
                            if l1.hit {
                                continue;
                            }
                            result.l1_misses += 1;
                            let victim = my.l1_owners.replace(l1.slot, owner_of(line));
                            if l1.evicted.is_some() {
                                note_bump(bump_masks, victim.region(), me_bit);
                            }
                            if my.l2.access(line, kind).hit {
                                continue;
                            }
                            result.l2_misses += 1;
                            let llc = my.llc.access(line, kind);
                            debug_assert!(
                                llc.hit && llc.evicted.is_none(),
                                "shared line {line} must be LLC-resident"
                            );
                        } else {
                            // Clear bit ⇒ in none of this CPU's levels
                            // (sharer bit ⟺ LLC residency, LLC
                            // inclusive): straight fills, no doomed hit
                            // scans at any level.
                            result.l1_misses += 1;
                            result.l2_misses += 1;
                            result.llc_misses += 1;
                            let owner = owner_of(line);
                            let l1 = my.l1.fill_absent(line, kind);
                            span_slots.push(l1.slot);
                            let victim = my.l1_owners.replace(l1.slot, owner);
                            if l1.evicted.is_some() {
                                note_bump(bump_masks, victim.region(), me_bit);
                            }
                            let _ = my.l2.fill_absent(line, kind);
                            let llc = my.llc.fill_absent(line, kind);
                            let victim_owner = my.llc_owners.replace(llc.slot, owner);
                            if let Some(victim) = llc.evicted {
                                // Inclusive LLC: back-invalidate inner
                                // levels and drop the victim from the
                                // directory's view of this CPU.
                                my.l1.invalidate(victim);
                                my.l2.invalidate(victim);
                                evict_llc_line(
                                    directory,
                                    excl,
                                    bump_masks,
                                    victim,
                                    victim_owner,
                                    me,
                                    ncpus,
                                );
                            }
                            // Record residency: the narrow above left the
                            // set empty, so it becomes exactly `{me}`.
                            // The sharer set grows, so every CPU's view
                            // of this line's region may change.
                            directory.get_mut(line).sharers = me_bit;
                            if owner.own() {
                                excl_delta(excl, owner.base(ncpus), 0, me_bit);
                            }
                            note_bump(bump_masks, owner.region(), all_mask);
                        }
                    }
                    AccessKind::Read => {
                        let l1 = my.l1.access(line, kind);
                        span_slots.push(l1.slot);
                        if l1.hit {
                            continue;
                        }
                        result.l1_misses += 1;
                        let owner = owner_of(line);
                        let victim = my.l1_owners.replace(l1.slot, owner);
                        if l1.evicted.is_some() {
                            note_bump(bump_masks, victim.region(), me_bit);
                        }
                        // A read that gets here records residency below,
                        // so mapping the line's directory chunk is never
                        // wasted; a set sharer bit means it is mapped.
                        let pos = directory.position(line);
                        let entry = *directory.at(pos);
                        if entry.sharers & me_bit != 0 {
                            // In this CPU's LLC, so its owner can only be
                            // this CPU or nobody (a remote write would
                            // have cleared the bit): no downgrade, and
                            // the LLC cannot miss. The refill changes no
                            // directory state, so no generation moves.
                            if my.l2.access(line, kind).hit {
                                continue;
                            }
                            result.l2_misses += 1;
                            let llc = my.llc.access(line, kind);
                            debug_assert!(
                                llc.hit && llc.evicted.is_none(),
                                "shared line {line} must be LLC-resident"
                            );
                            continue;
                        }
                        if let Some(remote) = entry.owner() {
                            if remote as usize != idx {
                                // Remote modified copy: force writeback,
                                // keep shared. Owner-only change: the
                                // sharer set is untouched, so `excl`
                                // does not move.
                                directory.at(pos).clear_owner();
                                note_bump(bump_masks, owner.region(), 1u32 << remote);
                                remote_cleans.push((line, remote));
                            }
                        }
                        // Clear bit ⇒ absent from every level: straight
                        // fills (see the write path).
                        result.l2_misses += 1;
                        result.llc_misses += 1;
                        let _ = my.l2.fill_absent(line, kind);
                        let llc = my.llc.fill_absent(line, kind);
                        let victim_owner = my.llc_owners.replace(llc.slot, owner);
                        if let Some(victim) = llc.evicted {
                            my.l1.invalidate(victim);
                            my.l2.invalidate(victim);
                            evict_llc_line(
                                directory,
                                excl,
                                bump_masks,
                                victim,
                                victim_owner,
                                me,
                                ncpus,
                            );
                        }
                        // Record residency.
                        let entry = directory.at(pos);
                        let old = entry.sharers;
                        entry.sharers = old | me_bit;
                        if owner.own() {
                            excl_delta(excl, owner.base(ncpus), old, old | me_bit);
                        }
                        note_bump(bump_masks, owner.region(), all_mask);
                    }
                }
            }
        }
        // Apply the deferred remote-cache coherence actions (see above).
        for &(line, others) in remote_invals.iter() {
            let mut m = others;
            while m != 0 {
                let other = m.trailing_zeros() as usize;
                let c = &mut cpus[other];
                c.l1.invalidate(line);
                c.l2.invalidate(line);
                c.llc.invalidate(line);
                m &= m - 1;
            }
        }
        for &(line, owner) in remote_cleans.iter() {
            let c = &mut cpus[owner as usize];
            c.l1.clean(line);
            c.l2.clean(line);
            c.llc.clean(line);
        }
        apply_bumps(gens, bump_masks, ncpus);

        // Span promotion: the walk leaves the whole span L1-resident at
        // the recorded slots when it was all hits (hits cannot evict) or
        // when the span fits in distinct L1 sets — consecutive lines,
        // span <= sets — so no fill in this touch can displace an earlier
        // span line. A write walk additionally leaves every span line
        // with sharer set exactly `{cpu}` (the directory-free walk had
        // that as its precondition), making a repeat write coherence-free
        // too. Touches that run past the region end are not claimable:
        // their trailing lines belong to other regions, whose events bump
        // other generations. The generation is stamped after the walk,
        // absorbing bumps the walk's own victims caused.
        let gen_now = gens[si];
        if last <= region_last_line
            && (result.l1_misses == 0 || result.lines <= cpus[idx].l1.sets() as u64)
        {
            let claim = MemoEntry {
                region: rkey,
                claim: Claim::Span,
                owned: write,
                gen: gen_now,
                first,
                ..MemoEntry::default()
            };
            memo.record(span_i, claim, span_slots);
        }

        // Whole-region promotion: a touch that never left the L1 cannot
        // have changed anything mid-walk, so a verification scan over the
        // region's own lines can (re-)establish the `Hot` claim for future
        // touches. The scan only resolves L1 slots — write exclusivity
        // comes from the live `excl` count, so the directory is not read
        // at all. A failed scan is remembered as `Cold` until the
        // generation moves.
        if result.l1_misses == 0 && region_lines <= cpus[idx].l1.capacity_lines() as u64 {
            let e = &memo.entries[hot_i];
            let known = e.region == rkey
                && e.gen == gen_now
                && match e.claim {
                    Claim::Cold => true,
                    Claim::Hot => memo.run(e).is_some(),
                    _ => false,
                };
            if !known {
                let l1 = &cpus[idx].l1;
                span_slots.clear();
                let mut hot = true;
                for line in region_first_line..=region_last_line {
                    let Some(slot) = l1.slot_of(line) else {
                        hot = false;
                        break;
                    };
                    span_slots.push(slot);
                }
                let claim = MemoEntry {
                    region: rkey,
                    claim: if hot { Claim::Hot } else { Claim::Cold },
                    gen: gen_now,
                    first: region_first_line,
                    ..MemoEntry::default()
                };
                if hot {
                    memo.record(hot_i, claim, span_slots);
                } else {
                    memo.entries[hot_i] = claim;
                }
            }
        }
        result
    }

    /// Fetches `bytes` of code footprint from `region` at `offset` on
    /// `cpu`, through the trace cache.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn code_fetch(
        &mut self,
        cpu: CpuId,
        region: RegionId,
        offset: u64,
        bytes: u64,
    ) -> FetchResult {
        let mut result = FetchResult::default();
        if bytes == 0 {
            return result;
        }
        let idx = cpu.index();
        assert!(idx < self.cpus.len(), "cpu {idx} out of range");
        self.warm = true;
        let (start, end, region_last_line) = {
            let r = self.region(region);
            let start = r.addr(offset);
            (
                start,
                start + bytes.min(r.size()),
                (r.base() + r.size() - 1) >> self.line_shift,
            )
        };
        let first = start >> self.line_shift;
        let last = (end - 1) >> self.line_shift;
        result.lines = last - first + 1;
        let lpp = self.page_shift - self.line_shift;
        result.itlb_misses = probe_pages(&mut self.cpus[idx].itlb, first, last, lpp);
        let me_bit = 1u32 << idx;
        let me = idx as u8;
        let line_shift = self.line_shift;
        let MemorySystem {
            cpus,
            directory,
            memos,
            gens,
            excl,
            regions,
            walk_slots: slot_buf,
            bump_masks,
            ..
        } = self;
        let ncpus = cpus.len();
        let rkey = region.index() as u32;

        // Fast path: a recent fetch covered exactly this span and left
        // every line in the trace cache. An all-hit fetch touches neither
        // the directory nor the outer levels, so only the TC's LRU/hit
        // bookkeeping remains — applied by slot.
        let memo = &mut memos[idx];
        let code_i = memo.index(rkey, Claim::Code, 0, 0);
        let e = &memo.entries[code_i];
        if e.claim == Claim::Code
            && e.region == rkey
            && e.first == first
            && u64::from(e.len) == result.lines
        {
            if let Some(run) = memo.run(e) {
                cpus[idx].tc.touch_resident_run(run, first, false);
                return result;
            }
        }

        let caches = &mut cpus[idx];
        // Record where each span line lands, so promotion below costs no
        // extra residency scan.
        slot_buf.clear();
        bump_masks.clear();
        let all_mask = if ncpus >= 32 {
            u32::MAX
        } else {
            (1u32 << ncpus) - 1
        };
        for line in first..=last {
            let tc = caches.tc.access(line, AccessKind::Read);
            slot_buf.push(tc.slot);
            if tc.hit {
                continue;
            }
            result.tc_misses += 1;
            // The fill may displace another region's code; its span claim
            // dies with the victim.
            let owner = walk_owner(regions, rkey, region_last_line, line, line_shift);
            let victim = caches.tc_owners.replace(tc.slot, owner);
            if tc.evicted.is_some() {
                memo.forget_code(victim.region());
            }
            // A set sharer bit means the line's chunk is mapped, and a
            // clear one leads to the record below.
            let pos = directory.position(line);
            if directory.at(pos).sharers & me_bit != 0 {
                // In this CPU's LLC (sharer bit ⟺ LLC residency): the L2
                // may miss but the LLC cannot, and the refill changes no
                // directory state, so no generation moves.
                if caches.l2.access(line, AccessKind::Read).hit {
                    continue;
                }
                result.l2_misses += 1;
                let llc = caches.llc.access(line, AccessKind::Read);
                debug_assert!(
                    llc.hit && llc.evicted.is_none(),
                    "shared code line {line} must be LLC-resident"
                );
                continue;
            }
            // Clear bit ⇒ absent from L2 and LLC (the trace cache is
            // exempt from inclusion, but it was probed above): straight
            // fills, no doomed hit scans.
            result.l2_misses += 1;
            result.llc_misses += 1;
            let _ = caches.l2.fill_absent(line, AccessKind::Read);
            let llc = caches.llc.fill_absent(line, AccessKind::Read);
            let victim_owner = caches.llc_owners.replace(llc.slot, owner);
            if let Some(victim) = llc.evicted {
                caches.l1.invalidate(victim);
                caches.l2.invalidate(victim);
                evict_llc_line(directory, excl, bump_masks, victim, victim_owner, me, ncpus);
            }
            let e = directory.at(pos);
            let old = e.sharers;
            e.sharers = old | me_bit;
            if owner.own() {
                excl_delta(excl, owner.base(ncpus), old, old | me_bit);
            }
            note_bump(bump_masks, owner.region(), all_mask);
        }
        apply_bumps(gens, bump_masks, ncpus);

        // Promotion: the walk leaves every span line resident at its
        // recorded slot when either (a) the fetch was all hits (hits
        // cannot evict), or (b) the span fits in distinct trace-cache
        // sets — consecutive lines, span <= sets — so no fill in this
        // fetch can displace an earlier span line, and a resident line
        // keeps its slot (nothing else touches the TC). The claim is
        // recorded *after* the walk, replacing any the walk's own victims
        // dropped. Larger missy spans self-conflict mid-fetch; their slots
        // are stale, so they are not claimed. An older claim on this
        // region stays: the walk dropped it if it evicted any of the
        // region's lines.
        if result.tc_misses == 0 || result.lines <= caches.tc.sets() as u64 {
            let claim = MemoEntry {
                region: rkey,
                claim: Claim::Code,
                first,
                ..MemoEntry::default()
            };
            memo.record(code_i, claim, slot_buf);
        }
        result
    }

    /// Device DMA write into memory (packet arrival): invalidates the
    /// touched lines in *every* CPU's caches, so the next CPU read is an
    /// LLC miss — receive payload is always uncached.
    pub fn dma_write(&mut self, region: RegionId, offset: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let (start, end, region_last_line) = {
            let r = self.region(region);
            let start = r.addr(offset);
            (
                start,
                start + bytes.min(r.size()),
                (r.base() + r.size() - 1) >> self.line_shift,
            )
        };
        let first = self.line_of(start);
        let last = self.line_of(end.saturating_sub(1));
        let line_shift = self.line_shift;
        let rkey = region.index() as u32;
        let MemorySystem {
            cpus,
            directory,
            gens,
            excl,
            regions,
            dma_sharers,
            bump_masks,
            ..
        } = self;
        let ncpus = cpus.len();
        // Two-pass directory delta. Pass 1 reads each line's directory
        // entry once: the sharer mask says exactly which LLCs hold the
        // line (bit ⟺ LLC residency; inclusion bounds the inner levels),
        // so CPUs outside the mask need no cache probe — on them
        // `invalidate` would miss and count nothing — and no generation
        // bump, because any residency claim of theirs involving the line
        // was already false (and its gen already bumped) when the line
        // left their caches. A zero mask also means the entry is already
        // default (an owner is always a sharer), so the reset is skipped
        // too. Generation bumps accumulate per region and land once after
        // the pass, which invalidates the same claims as per-line bumps
        // (only stamp equality is ever tested).
        dma_sharers.clear();
        bump_masks.clear();
        let mut union_mask = 0u32;
        for line in first..=last {
            let mask = directory.take(line).sharers;
            dma_sharers.push(mask);
            if mask != 0 {
                union_mask |= mask;
                let owner = walk_owner(regions, rkey, region_last_line, line, line_shift);
                if owner.own() {
                    excl_delta(excl, owner.base(ncpus), mask, 0);
                }
                note_bump(bump_masks, owner.region(), mask);
            }
        }
        apply_bumps(gens, bump_masks, ncpus);
        // Pass 2 applies the delta one CPU at a time, so each CPU's cache
        // arrays are walked in one contiguous burst. Invalidations of
        // distinct lines in distinct caches commute, so the per-CPU order
        // is indistinguishable from the old per-line sweep.
        let mut m = union_mask;
        while m != 0 {
            let cpu = m.trailing_zeros() as usize;
            let bit = 1u32 << cpu;
            let c = &mut cpus[cpu];
            for (i, &mask) in dma_sharers.iter().enumerate() {
                if mask & bit != 0 {
                    let line = first + i as u64;
                    c.l1.invalidate(line);
                    c.l2.invalidate(line);
                    c.llc.invalidate(line);
                }
            }
            m &= m - 1;
        }
    }

    /// Device DMA read from memory (packet transmit): forces writeback of
    /// any modified copy but leaves lines cached.
    ///
    /// Takes the directory owner but bumps no generation: nothing the
    /// fast-path claims assert can be falsified here. Residency claims
    /// (`Hot`, `Span`) are about L1 contents, which a writeback leaves in
    /// place; exclusivity (`excl`, `MemoEntry::owned`) is defined over
    /// the *sharer set* only, which is untouched. That makes the owner
    /// field unobservable outside the directory itself — its only readers
    /// are the remote-read downgrade and this writeback, and both are
    /// no-ops whenever the owner is the accessing CPU or nobody — which
    /// in turn is what lets the fast paths skip re-asserting
    /// `owner = cpu` on repeated writes. The per-transmit generation
    /// churn this used to cause is what kept small-message TX off the
    /// span fast path entirely.
    pub fn dma_read(&mut self, region: RegionId, offset: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let (start, end) = {
            let r = self.region(region);
            (r.addr(offset), r.addr(offset) + bytes.min(r.size()))
        };
        let first = self.line_of(start);
        let last = self.line_of(end.saturating_sub(1));
        let MemorySystem {
            cpus, directory, ..
        } = self;
        for line in first..=last {
            if let Some(owner) = directory.get(line).owner() {
                directory.get_mut(line).clear_owner();
                let c = &mut cpus[owner as usize];
                c.l1.clean(line);
                c.l2.clean(line);
                c.llc.clean(line);
            }
        }
    }

    /// Flushes a CPU's TLBs (address-space switch on context switch).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn flush_tlbs(&mut self, cpu: CpuId) {
        let c = &mut self.cpus[cpu.index()];
        c.itlb.flush();
        c.dtlb.flush();
    }

    /// LLC statistics for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn llc_stats(&self, cpu: CpuId) -> CacheStats {
        self.cpus[cpu.index()].llc.stats()
    }

    /// ITLB/DTLB statistics for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn tlb_stats(&self, cpu: CpuId) -> (TlbStats, TlbStats) {
        let c = &self.cpus[cpu.index()];
        (c.itlb.stats(), c.dtlb.stats())
    }

    /// Fraction of `region`'s lines resident in `cpu`'s LLC — a direct
    /// measure of the cache locality affinity buys.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn resident_fraction(&self, cpu: CpuId, region: RegionId) -> f64 {
        let r = self.regions.get(region);
        let first = self.line_of(r.base());
        let last = self.line_of(r.base() + r.size() - 1);
        let total = last - first + 1;
        let resident = (first..=last)
            .filter(|&l| self.cpus[cpu.index()].llc.contains(l))
            .count();
        resident as f64 / total as f64
    }

    /// Cross-checks the incremental coherence-directory state against a
    /// naive full recompute, panicking on any divergence. Testing hook
    /// for the model-based property tests; not part of the public API.
    ///
    /// Verifies the two invariants the hot paths rely on:
    ///
    /// 1. `excl[region][cpu]` equals the number of the region's own lines
    ///    whose directory sharer set is exactly `{cpu}` (the incremental
    ///    aggregate matches the full-recompute model directory);
    /// 2. a line's sharer bit for a CPU is set **iff** the line is
    ///    resident in that CPU's LLC, and inclusion bounds L1/L2 by the
    ///    LLC (what lets walks turn a clear bit into scan-free fills and
    ///    a set bit into a guaranteed LLC hit).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    #[doc(hidden)]
    pub fn verify_incremental_state(&self) {
        let ncpus = self.cpus.len();
        for (id, r) in self.regions.iter() {
            let first = self.line_of(r.base());
            let last = self.line_of(r.base() + r.size() - 1);
            let mut naive = vec![0u32; ncpus];
            for line in first..=last {
                let e = self.directory.get(line);
                if e.sharers.count_ones() == 1 {
                    naive[e.sharers.trailing_zeros() as usize] += 1;
                }
                for (cpu, c) in self.cpus.iter().enumerate() {
                    let bit = e.sharers & (1u32 << cpu) != 0;
                    let in_llc = c.llc.contains(line);
                    assert_eq!(
                        bit, in_llc,
                        "line {line} of {}: sharer bit {bit} but LLC residency {in_llc} on cpu {cpu}",
                        self.regions.name(id)
                    );
                    if !in_llc {
                        assert!(
                            !c.l1.contains(line) && !c.l2.contains(line),
                            "line {line} of {}: inner level holds a line outside the LLC on cpu {cpu}",
                            self.regions.name(id)
                        );
                    }
                }
            }
            let b = id.index() * ncpus;
            for (cpu, &want) in naive.iter().enumerate() {
                assert_eq!(
                    self.excl[b + cpu],
                    want,
                    "excl[{}][{cpu}] diverged from full recompute",
                    self.regions.name(id)
                );
            }
        }
    }

    /// Snapshot of the construction-time layout: directory shape, the
    /// owner of every page a touch can reach, and the per-CPU tables. Two
    /// systems built by different provisioning paths (incremental
    /// `add_region` loop vs `add_regions_bulk`) must compare equal here —
    /// the equivalence the bulk path's property test pins.
    #[must_use]
    pub fn construction_layout(&self) -> ConstructionLayout {
        let lpp = self.page_shift - self.line_shift;
        let pages = if self.regions.is_empty() {
            0
        } else {
            (self.regions.reach() >> self.page_shift) + 1
        };
        ConstructionLayout {
            directory_lines: self.directory.lines(),
            page_owners: (0..pages)
                .map(|page| self.regions.line_owner(page << lpp, self.line_shift).0)
                .collect(),
            gens: self.gens.to_vec(),
            excl: self.excl.to_vec(),
        }
    }

    /// Resets every hit/miss counter, keeping cache contents (used to
    /// discard warm-up before measurement, as the paper's steady-state
    /// profiling does).
    pub fn reset_stats(&mut self) {
        for c in &mut self.cpus {
            c.l1.reset_stats();
            c.l2.reset_stats();
            c.llc.reset_stats();
            c.tc.reset_stats();
            c.itlb.reset_stats();
            c.dtlb.reset_stats();
        }
    }
}

/// Construction-layout snapshot returned by
/// [`MemorySystem::construction_layout`]; see there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructionLayout {
    /// `directory` length in cache lines.
    pub directory_lines: usize,
    /// The owner of every page up to the furthest a touch can reach
    /// (`page -> region index`), as derived from the region layout.
    pub page_owners: Vec<u32>,
    /// Per-region × per-CPU residency generations.
    pub gens: Vec<u64>,
    /// Per-region × per-CPU live exclusivity counts.
    pub excl: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemoryConfig::tiny(2))
    }

    const CPU0: CpuId = CpuId::new(0);
    const CPU1: CpuId = CpuId::new(1);

    #[test]
    fn cold_then_warm() {
        let mut m = sys();
        let r = m.add_region("ctx", 256);
        let cold = m.data_touch(CPU0, r, 0, 256, false);
        assert_eq!(cold.lines, 4);
        assert_eq!(cold.llc_misses, 4);
        let warm = m.data_touch(CPU0, r, 0, 256, false);
        assert_eq!(warm.llc_misses, 0);
        assert_eq!(warm.l1_misses, 0);
    }

    #[test]
    fn remote_write_invalidates() {
        let mut m = sys();
        let r = m.add_region("ctx", 128);
        m.data_touch(CPU0, r, 0, 128, false);
        assert_eq!(m.data_touch(CPU0, r, 0, 128, false).llc_misses, 0);
        // CPU1 writes the same lines: CPU0's copies must die.
        m.data_touch(CPU1, r, 0, 128, true);
        let again = m.data_touch(CPU0, r, 0, 128, false);
        assert_eq!(again.llc_misses, 2, "remote write should invalidate");
    }

    #[test]
    fn remote_read_of_modified_downgrades_but_keeps_owner_copy() {
        let mut m = sys();
        let r = m.add_region("ctx", 64);
        m.data_touch(CPU0, r, 0, 64, true); // CPU0 holds modified
        let c1 = m.data_touch(CPU1, r, 0, 64, false);
        assert_eq!(c1.llc_misses, 1); // CPU1's own hierarchy is cold
                                      // CPU0 still has the line (now clean): no miss.
        let c0 = m.data_touch(CPU0, r, 0, 64, false);
        assert_eq!(c0.llc_misses, 0);
    }

    #[test]
    fn dma_write_uncaches_everywhere() {
        let mut m = sys();
        let r = m.add_region("payload", 128);
        m.data_touch(CPU0, r, 0, 128, false);
        m.data_touch(CPU1, r, 0, 128, false);
        m.dma_write(r, 0, 128);
        assert_eq!(m.data_touch(CPU0, r, 0, 128, false).llc_misses, 2);
        assert_eq!(m.data_touch(CPU1, r, 0, 128, false).llc_misses, 2);
    }

    #[test]
    fn dma_read_cleans_but_keeps_cached() {
        let mut m = sys();
        let r = m.add_region("txbuf", 64);
        m.data_touch(CPU0, r, 0, 64, true);
        m.dma_read(r, 0, 64);
        // Still cached on CPU0.
        assert_eq!(m.data_touch(CPU0, r, 0, 64, false).llc_misses, 0);
    }

    #[test]
    fn code_fetch_tc_behaviour() {
        let mut m = sys();
        let code = m.add_region("tcp_sendmsg.text", 256);
        let cold = m.code_fetch(CPU0, code, 0, 256);
        assert_eq!(cold.lines, 4);
        assert_eq!(cold.tc_misses, 4);
        let warm = m.code_fetch(CPU0, code, 0, 256);
        assert_eq!(warm.tc_misses, 0);
        // Other CPU has its own trace cache.
        let other = m.code_fetch(CPU1, code, 0, 256);
        assert_eq!(other.tc_misses, 4);
    }

    #[test]
    fn tc_capacity_evictions() {
        let mut m = sys(); // tiny tc: 512B = 8 lines
        let big = m.add_region("big.text", 2048);
        m.code_fetch(CPU0, big, 0, 2048);
        let again = m.code_fetch(CPU0, big, 0, 2048);
        assert!(again.tc_misses > 0, "code bigger than TC must keep missing");
    }

    #[test]
    fn dtlb_misses_on_new_pages() {
        let mut m = sys();
        // tiny config: 4 dtlb entries; touch 6 pages.
        let r = m.add_region("big", 6 * 4096);
        let res = m.data_touch(CPU0, r, 0, 6 * 4096, false);
        assert!(res.dtlb_misses >= 6);
        let again = m.data_touch(CPU0, r, 0, 6 * 4096, false);
        // Working set exceeds DTLB: keeps missing.
        assert!(again.dtlb_misses > 0);
    }

    #[test]
    fn tlb_flush_forces_walks() {
        let mut m = sys();
        let r = m.add_region("x", 64);
        m.data_touch(CPU0, r, 0, 64, false);
        assert_eq!(m.data_touch(CPU0, r, 0, 64, false).dtlb_misses, 0);
        m.flush_tlbs(CPU0);
        assert_eq!(m.data_touch(CPU0, r, 0, 64, false).dtlb_misses, 1);
    }

    #[test]
    fn llc_capacity_eviction_and_inclusion() {
        let mut m = sys(); // llc: 4096B = 64 lines
        let big = m.add_region("big", 16 * 1024);
        m.data_touch(CPU0, big, 0, 16 * 1024, false);
        let again = m.data_touch(CPU0, big, 0, 16 * 1024, false);
        assert!(
            again.llc_misses > 0,
            "working set 4x LLC must thrash: {again:?}"
        );
    }

    #[test]
    fn resident_fraction_reflects_locality() {
        let mut m = sys();
        let ctx = m.add_region("ctx", 256);
        assert_eq!(m.resident_fraction(CPU0, ctx), 0.0);
        m.data_touch(CPU0, ctx, 0, 256, false);
        assert_eq!(m.resident_fraction(CPU0, ctx), 1.0);
        assert_eq!(m.resident_fraction(CPU1, ctx), 0.0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut m = sys();
        let r = m.add_region("x", 256);
        m.data_touch(CPU0, r, 0, 256, false);
        assert!(m.llc_stats(CPU0).misses > 0);
        let (_, d) = m.tlb_stats(CPU0);
        assert!(d.misses > 0);
        m.reset_stats();
        assert_eq!(m.llc_stats(CPU0).misses, 0);
        // Contents preserved: warm access.
        assert_eq!(m.data_touch(CPU0, r, 0, 256, false).llc_misses, 0);
    }

    #[test]
    fn zero_byte_touch_is_noop() {
        let mut m = sys();
        let r = m.add_region("x", 64);
        assert_eq!(m.data_touch(CPU0, r, 0, 0, false), TouchResult::default());
        assert_eq!(m.code_fetch(CPU0, r, 0, 0), FetchResult::default());
    }

    #[test]
    fn merge_results() {
        let mut a = TouchResult {
            lines: 1,
            l1_misses: 1,
            l2_misses: 1,
            llc_misses: 1,
            dtlb_misses: 0,
        };
        a.merge(&a.clone());
        assert_eq!(a.lines, 2);
        assert_eq!(a.llc_misses, 2);
        let mut f = FetchResult {
            lines: 2,
            tc_misses: 1,
            l2_misses: 0,
            llc_misses: 0,
            itlb_misses: 1,
        };
        f.merge(&f.clone());
        assert_eq!(f.tc_misses, 2);
    }

    // --- residency fast-path behaviour ---

    /// Drives a region until its whole-region claim is established (two
    /// touches: the first warms, the second is all-hits and triggers the
    /// scan).
    fn warm(m: &mut MemorySystem, cpu: CpuId, r: RegionId, bytes: u64, write: bool) {
        m.data_touch(cpu, r, 0, bytes, write);
        let second = m.data_touch(cpu, r, 0, bytes, write);
        assert_eq!(second.l1_misses, 0, "warm touch should be all hits");
    }

    #[test]
    fn fast_path_keeps_counters_and_tlb_stats_exact() {
        let mut m = sys();
        let r = m.add_region("ctx", 256); // 4 lines, 1 page
        warm(&mut m, CPU0, r, 256, false);
        let (_, before) = m.tlb_stats(CPU0);
        let hits_before = m.cpus[0].l1.stats().hits;
        let fast = m.data_touch(CPU0, r, 0, 256, false);
        assert_eq!(
            fast,
            TouchResult {
                lines: 4,
                ..TouchResult::default()
            }
        );
        // One page, four lines: four DTLB hits, four L1 hits — identical
        // to the per-line walk.
        let (_, after) = m.tlb_stats(CPU0);
        assert_eq!(after.hits - before.hits, 4);
        assert_eq!(after.misses, before.misses);
        assert_eq!(m.cpus[0].l1.stats().hits - hits_before, 4);
    }

    #[test]
    fn remote_write_breaks_fast_path() {
        let mut m = sys();
        let r = m.add_region("ctx", 128);
        warm(&mut m, CPU0, r, 128, false);
        m.data_touch(CPU1, r, 0, 128, true);
        let again = m.data_touch(CPU0, r, 0, 128, false);
        assert_eq!(
            again.llc_misses, 2,
            "invalidation must be visible after fast path"
        );
    }

    #[test]
    fn remote_read_breaks_write_fast_path() {
        let mut m = sys();
        let r = m.add_region("ctx", 64);
        warm(&mut m, CPU0, r, 64, true); // hot + owned
        m.data_touch(CPU1, r, 0, 64, false); // downgrade + share
                                             // CPU0's write must go the slow path and invalidate CPU1's copy.
        let w = m.data_touch(CPU0, r, 0, 64, true);
        assert_eq!(w.l1_misses, 0);
        let c1 = m.data_touch(CPU1, r, 0, 64, false);
        assert_eq!(c1.llc_misses, 1, "CPU1's copy must have been invalidated");
    }

    #[test]
    fn eviction_breaks_fast_path() {
        let mut m = sys(); // tiny l1: 1 KB = 16 lines
        let small = m.add_region("small", 256);
        let big = m.add_region("big", 4096);
        warm(&mut m, CPU0, small, 256, false);
        // Thrash the L1 so the small region's lines get evicted.
        m.data_touch(CPU0, big, 0, 4096, false);
        let again = m.data_touch(CPU0, small, 0, 256, false);
        assert!(again.l1_misses > 0, "stale claim must not mask L1 misses");
    }

    #[test]
    fn dma_write_breaks_fast_path() {
        let mut m = sys();
        let r = m.add_region("payload", 128);
        warm(&mut m, CPU0, r, 128, false);
        m.dma_write(r, 0, 128);
        let again = m.data_touch(CPU0, r, 0, 128, false);
        assert_eq!(
            again.llc_misses, 2,
            "DMA write must uncache despite the claim"
        );
    }

    #[test]
    fn dma_read_keeps_residency_fast_path() {
        let mut m = sys();
        let r = m.add_region("txbuf", 128);
        warm(&mut m, CPU0, r, 128, true);
        m.dma_read(r, 0, 128); // takes ownership away, leaves lines cached
        let again = m.data_touch(CPU0, r, 0, 128, true);
        assert_eq!(again.l1_misses, 0, "DMA read must not evict");
        // And a later read stays hot too.
        assert_eq!(m.data_touch(CPU0, r, 0, 128, false).l1_misses, 0);
    }

    #[test]
    fn wrapping_touch_past_region_end_stays_exact() {
        let mut m = sys();
        let a = m.add_region("a", 128);
        let b = m.add_region("b", 128);
        warm(&mut m, CPU0, b, 128, false);
        // Touch `a` starting at its last line with a full-size length:
        // runs past the region end into the following pages.
        let bleed = m.data_touch(CPU0, a, 64, 128, false);
        assert_eq!(bleed.lines, 2);
        // `b`'s lines were untouched; its fast path must still be exact.
        let again = m.data_touch(CPU0, b, 0, 128, false);
        assert_eq!(again.l1_misses, 0);
    }

    #[test]
    fn fast_path_never_engages_for_regions_larger_than_l1() {
        let mut m = sys(); // tiny l1: 1 KB
        let big = m.add_region("big", 2048);
        m.data_touch(CPU0, big, 0, 2048, false);
        m.data_touch(CPU0, big, 0, 2048, false);
        // Lines wrap through the L1; misses must keep being reported.
        let again = m.data_touch(CPU0, big, 0, 2048, false);
        assert!(again.l1_misses > 0);
    }

    // --- bounded residency memo ---

    /// A geometry where whole regions fit the L1 and trace cache, so every
    /// fast path engages.
    fn memo_config() -> MemoryConfig {
        MemoryConfig {
            l1_size: 1024,
            tc_size: 1024,
            ..MemoryConfig::tiny(3)
        }
    }

    #[test]
    fn memo_eviction_is_unobservable() {
        let config = memo_config();
        let lines = (config.l1_size.max(config.tc_size) / config.line_size) as usize;
        // Against the default memo: one entry per CPU, so every recorded
        // claim displaces the previous one; and a roomy table over an
        // arena that holds exactly one largest claim, so runs are
        // overwritten while their entries still stand.
        let mut systems = [
            MemorySystem::new(config.clone()),
            MemorySystem::with_memo_capacity(config.clone(), 1, lines),
            MemorySystem::with_memo_capacity(config, 1 << 10, lines),
        ];
        let sizes = [64u64, 128, 192, 256, 512, 1024, 2048];
        let regions: Vec<RegionId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let ids: Vec<RegionId> = systems
                    .iter_mut()
                    .map(|m| m.add_region(format!("r{i}"), b))
                    .collect();
                assert!(ids.iter().all(|&id| id == ids[0]));
                ids[0]
            })
            .collect();
        let mut rng = sim_core::SimRng::new(0x5EED);
        for op in 0..20_000 {
            let r = regions[rng.next_below(regions.len() as u64) as usize];
            let cpu = CpuId::new(rng.next_below(3) as u32);
            // A few offsets and lengths, so spans repeat.
            let offset = 64 * rng.next_below(4);
            let bytes = 64 * rng.range(1, 9);
            let kind = rng.next_below(16);
            let results: Vec<(TouchResult, FetchResult)> = systems
                .iter_mut()
                .map(|m| match kind {
                    0 => {
                        m.dma_write(r, offset, bytes);
                        Default::default()
                    }
                    1 => {
                        m.dma_read(r, offset, bytes);
                        Default::default()
                    }
                    2..=5 => (TouchResult::default(), m.code_fetch(cpu, r, offset, bytes)),
                    k => (
                        m.data_touch(cpu, r, offset, bytes, k >= 12),
                        FetchResult::default(),
                    ),
                })
                .collect();
            assert!(
                results.iter().all(|x| *x == results[0]),
                "op {op}: {results:?}"
            );
        }
        let [full, rest @ ..] = &systems;
        for m in rest {
            for (i, (a, b)) in m.cpus.iter().zip(&full.cpus).enumerate() {
                assert_eq!(a.l1.stats(), b.l1.stats(), "cpu {i} l1");
                assert_eq!(a.l2.stats(), b.l2.stats(), "cpu {i} l2");
                assert_eq!(a.llc.stats(), b.llc.stats(), "cpu {i} llc");
                assert_eq!(a.tc.stats(), b.tc.stats(), "cpu {i} tc");
                assert_eq!(a.itlb.stats(), b.itlb.stats(), "cpu {i} itlb");
                assert_eq!(a.dtlb.stats(), b.dtlb.stats(), "cpu {i} dtlb");
            }
        }
        for m in &systems {
            m.verify_incremental_state();
            // Every memo recorded claims on every CPU.
            assert!(m.memos.iter().all(|memo| memo.head > 0));
        }
    }

    #[test]
    #[should_panic(expected = "before the first access")]
    fn regions_are_laid_out_before_the_first_access() {
        let mut m = sys();
        let a = m.add_region("a", 4096);
        m.data_touch(CPU0, a, 0, 64, false);
        m.add_region("b", 64);
    }

    #[test]
    fn memo_storage_does_not_depend_on_region_count() {
        let memo_bytes = |regions: u32| {
            let mut m = MemorySystem::new(MemoryConfig::paper_sut(4));
            let mut plan = RegionPlan::with_capacity(regions as usize);
            for i in 0..regions {
                plan.add(RegionName::indexed("flow", i, "tcb"), 512);
            }
            m.add_regions_bulk(plan);
            m.memos
                .iter()
                .map(|memo| {
                    memo.entries.len() * size_of::<MemoEntry>()
                        + memo.slots.len() * size_of::<u32>()
                })
                .sum::<usize>()
        };
        assert_eq!(memo_bytes(1_000), memo_bytes(100_000));
    }
}
