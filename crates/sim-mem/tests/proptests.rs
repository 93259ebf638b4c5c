//! Property-based tests for the cache/coherence invariants the machine
//! model depends on.

use proptest::prelude::*;
use sim_core::CpuId;
use sim_mem::{AccessKind, Cache, MemoryConfig, MemorySystem, RegionName, RegionPlan, Tlb};

proptest! {
    /// Hits + misses always equals accesses, and residency never exceeds
    /// capacity, for arbitrary access streams.
    #[test]
    fn cache_accounting_identities(lines in prop::collection::vec(0u64..512, 1..400)) {
        let mut c = Cache::new("t", 8, 4); // 32 lines
        for (i, &l) in lines.iter().enumerate() {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            c.access(l, kind);
            prop_assert!(c.resident_lines() <= c.capacity_lines());
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, lines.len() as u64);
    }

    /// An access immediately after an access to the same line always hits.
    #[test]
    fn cache_back_to_back_hits(lines in prop::collection::vec(0u64..256, 1..100)) {
        let mut c = Cache::new("t", 16, 4);
        for &l in &lines {
            c.access(l, AccessKind::Read);
            let again = c.access(l, AccessKind::Read);
            prop_assert!(again.hit, "immediate re-access of line {l} missed");
        }
    }

    /// Invalidate really removes: a subsequent access misses.
    #[test]
    fn cache_invalidate_forces_miss(line in 0u64..1024) {
        let mut c = Cache::new("t", 16, 4);
        c.access(line, AccessKind::Write);
        prop_assert!(c.contains(line));
        c.invalidate(line);
        prop_assert!(!c.contains(line));
        prop_assert!(!c.access(line, AccessKind::Read).hit);
    }

    /// TLB: hits + misses == accesses; capacity bound holds.
    #[test]
    fn tlb_accounting(pages in prop::collection::vec(0u64..64, 1..200)) {
        let mut t = Tlb::new(8);
        for &p in &pages {
            t.access(p);
            prop_assert!(t.resident() <= 8);
        }
        let s = t.stats();
        prop_assert_eq!(s.hits + s.misses, pages.len() as u64);
    }

    /// Coherence safety: a CPU re-reading data it just read hits, unless
    /// another CPU wrote or a device DMA'd in between.
    #[test]
    fn reread_without_remote_write_hits(
        offsets in prop::collection::vec(0u64..4000, 1..40),
    ) {
        let mut m = MemorySystem::new(MemoryConfig::tiny(2));
        let r = m.add_region("x", 4096);
        let cpu = CpuId::new(0);
        for &off in &offsets {
            m.data_touch(cpu, r, off, 64, false);
            let again = m.data_touch(cpu, r, off, 64, false);
            prop_assert_eq!(again.llc_misses, 0, "re-read missed at {}", off);
        }
    }

    /// Coherence: after a remote write, the next local read misses the
    /// local hierarchy; after a local re-read it hits again.
    #[test]
    fn remote_write_invalidates_then_recovers(off in 0u64..1024) {
        let mut m = MemorySystem::new(MemoryConfig::tiny(2));
        let r = m.add_region("x", 2048);
        let (c0, c1) = (CpuId::new(0), CpuId::new(1));
        m.data_touch(c0, r, off, 64, false);
        m.data_touch(c1, r, off, 64, true); // remote write
        let miss = m.data_touch(c0, r, off, 64, false);
        prop_assert!(miss.llc_misses > 0);
        let hit = m.data_touch(c0, r, off, 64, false);
        prop_assert_eq!(hit.llc_misses, 0);
    }

    /// DMA writes make the touched range uncached for every CPU.
    #[test]
    fn dma_uncaches_everywhere(off in 0u64..1000, len in 1u64..512) {
        let mut m = MemorySystem::new(MemoryConfig::tiny(2));
        let r = m.add_region("buf", 2048);
        for c in 0..2 {
            m.data_touch(CpuId::new(c), r, off, len, false);
        }
        m.dma_write(r, off, len);
        for c in 0..2 {
            let res = m.data_touch(CpuId::new(c), r, off, len, false);
            prop_assert!(res.llc_misses >= 1, "cpu{c} still had DMA'd data cached");
        }
    }

    /// Touch accounting: misses never exceed lines touched, per level.
    #[test]
    fn touch_miss_bounds(off in 0u64..100_000, len in 1u64..8192) {
        let mut m = MemorySystem::new(MemoryConfig::paper_sut(1));
        let r = m.add_region("big", 128 * 1024);
        let res = m.data_touch(CpuId::new(0), r, off, len, true);
        prop_assert!(res.llc_misses <= res.lines);
        prop_assert!(res.l2_misses <= res.lines);
        prop_assert!(res.l1_misses <= res.lines);
        prop_assert!(res.llc_misses <= res.l2_misses);
        prop_assert!(res.l2_misses <= res.l1_misses);
    }

    /// The incremental coherence directory (live `excl` exclusivity
    /// counts, sharer-bit ⟺ LLC-residency, inclusion) matches a naive
    /// full-recompute model directory after **every** step of an
    /// arbitrary operation sequence — reads, writes, instruction
    /// fetches, DMA invalidations and writebacks, issued by randomly
    /// steered CPUs against overlapping regions. Same idiom as the
    /// calendar-vs-heap and SPSC-vs-VecDeque model tests:
    /// `verify_incremental_state` rebuilds the aggregates from the
    /// directory and the actual cache contents and panics on any
    /// divergence, so a bug in any delta-update site shrinks to a
    /// minimal op sequence.
    #[test]
    fn incremental_directory_matches_full_recompute(
        ops in prop::collection::vec(
            (0u8..6, 0u32..3, 0usize..2, 0u64..6000, 1u64..700),
            1..60,
        ),
    ) {
        // Tiny geometry (64-line LLC) so capacity evictions,
        // back-invalidations and cross-CPU steals happen constantly.
        let mut m = MemorySystem::new(MemoryConfig::tiny(3));
        let regions = [m.add_region("a", 4096), m.add_region("b", 8192)];
        for &(kind, cpu, rix, off, len) in &ops {
            let cpu = CpuId::new(cpu);
            let r = regions[rix];
            match kind {
                0 => { m.data_touch(cpu, r, off, len, false); }
                1 => { m.data_touch(cpu, r, off, len, true); }
                2 => { m.code_fetch(cpu, r, off, len.min(300)); }
                3 => m.dma_write(r, off, len),
                4 => m.dma_read(r, off, len),
                _ => m.flush_tlbs(cpu),
            }
            m.verify_incremental_state();
        }
    }

    /// `add_regions_bulk` is byte-identical to a loop of `add_region`
    /// calls: same `RegionId`s, names, bases, sizes, footprint, directory
    /// and page-table shape, full page ownership, and per-CPU vector
    /// state — for arbitrary size sequences (including zero-size regions
    /// and the overlap case where a large region's cover runs past later
    /// small regions' pages), optionally on top of pre-existing
    /// incrementally-added regions.
    ///
    /// Regions no longer carry their names, so every id's name is
    /// compared too. Each segment of the plan is a static name, an owned
    /// name, or a block of flows `prefix{i}.{field}` over one of two
    /// field lists, which may repeat a field. Consecutive blocks often
    /// share a prefix and field list, and may skip indices, switch to
    /// the other list, or change one size for their last flow — every
    /// way a run of indexed names can continue, start, widen or break.
    /// The incremental side names each region with the eager string.
    #[test]
    fn bulk_region_allocation_matches_incremental(
        pre in prop::collection::vec(1u64..5000, 0..4),
        field_lists in prop::collection::vec(
            prop::collection::vec((0usize..4, 0u64..20_000), 1..4),
            2..3,
        ),
        segments in prop::collection::vec((0u32..8, 0u32..3, 1u32..5, 0usize..2), 1..12),
    ) {
        const FIELDS: [&str; 4] = ["tcp_ctx", "sock", "skb_data", "sock"];
        const STATICS: [&str; 3] = ["tcp_v4_rcv.text", "tcp_fin.text", "conn0.sock"];
        let mut inc = MemorySystem::new(MemoryConfig::tiny(3));
        let mut bulk = MemorySystem::new(MemoryConfig::tiny(3));
        for (i, &s) in pre.iter().enumerate() {
            let a = inc.add_region(format!("pre{i}"), s);
            let b = bulk.add_region(format!("pre{i}"), s);
            prop_assert_eq!(a, b);
        }
        let mut requests: Vec<(RegionName, u64)> = Vec::new();
        let mut next_index = 0u32;
        for &(kind, skip, flows, list) in &segments {
            let fields = &field_lists[list];
            match kind {
                0 => requests.push((STATICS[skip as usize].into(), fields[0].1)),
                1 => requests.push((format!("dev{skip}.ring").into(), fields[0].1)),
                _ => {
                    let prefix = if kind == 7 { "flow" } else { "conn" };
                    let first = next_index + skip;
                    for flow in first..first + flows {
                        for (j, &(field, size)) in fields.iter().enumerate() {
                            let last = flow + 1 == first + flows;
                            let size = if kind == 6 && last && j == 0 { size + 64 } else { size };
                            requests.push((RegionName::indexed(prefix, flow, FIELDS[field]), size));
                        }
                    }
                    next_index = first + flows;
                }
            }
        }
        let mut plan = RegionPlan::default();
        let mut inc_ids = Vec::with_capacity(requests.len());
        for (name, size) in requests {
            inc_ids.push(inc.add_region(name.render(), size));
            plan.add(name, size);
        }
        let span = bulk.add_regions_bulk(plan);
        prop_assert_eq!(span.len(), inc_ids.len());
        for (i, &want) in inc_ids.iter().enumerate() {
            prop_assert_eq!(span.get(i), want);
            let (ri, rb) = (inc.regions().get(want), bulk.regions().get(want));
            prop_assert_eq!(ri, rb, "region {} diverged", i);
        }
        prop_assert_eq!(inc.regions().len(), bulk.regions().len());
        for (id, _) in inc.regions().iter() {
            prop_assert_eq!(
                inc.regions().name(id).render(),
                bulk.regions().name(id).render()
            );
        }
        prop_assert_eq!(inc.regions().footprint(), bulk.regions().footprint());
        prop_assert_eq!(inc.construction_layout(), bulk.construction_layout());
        bulk.verify_incremental_state();
    }
}
