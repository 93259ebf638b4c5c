//! Which region a line's cache and directory events are charged to.
//!
//! Events are attributed to the region owning the affected line's page
//! ([`RegionTable::line_owner`]). A walk knows the owner of its own
//! region's lines; a victim's owner is recorded in its cache slot when
//! the line is filled, so evictions never ask the layout.

use crate::cache::Cache;
use crate::region::RegionTable;

/// The region a line's cache and directory events are attributed to
/// (see [`RegionTable::line_owner`]), and whether the line is one of
/// that region's own — only own lines count toward its exclusivity.
/// Packed into one word, bit 31 being "own".
#[derive(Debug, Clone, Copy)]
pub(crate) struct Owner(u32);

impl Owner {
    #[inline]
    pub(crate) fn new((region, own): (u32, bool)) -> Self {
        debug_assert!(region < 1 << 31, "region ids fit 31 bits");
        Owner(region | u32::from(own) << 31)
    }

    #[inline]
    pub(crate) fn region(self) -> u32 {
        self.0 & !(1 << 31)
    }

    #[inline]
    pub(crate) fn own(self) -> bool {
        self.0 >> 31 != 0
    }

    /// Offset of the owner's row in the flat per-(region, CPU) tables.
    #[inline]
    pub(crate) fn base(self, ncpus: usize) -> usize {
        self.region() as usize * ncpus
    }
}

/// The [`Owner`] of the line in each storage slot of one cache, recorded
/// when the line is filled and read back when it is evicted, so victims
/// cost no layout lookup. Kept as raw words so the table starts zeroed.
#[derive(Debug, Clone)]
pub(crate) struct SlotOwners(Vec<u32>);

impl SlotOwners {
    pub(crate) fn new(cache: &Cache) -> Self {
        SlotOwners(vec![0; cache.capacity_lines()])
    }

    /// Records `owner` for the line just filled into `slot`, returning
    /// the owner recorded for the line that lived there before (the
    /// victim, if the fill evicted one).
    #[inline]
    pub(crate) fn replace(&mut self, slot: u32, owner: Owner) -> Owner {
        Owner(std::mem::replace(&mut self.0[slot as usize], owner.0))
    }
}

/// Owner of a line a walk over `region` reaches. Walks start inside
/// their region, so up to its last line the owner is the region itself;
/// only a touch that runs past the region's end needs the layout.
#[inline]
pub(crate) fn walk_owner(
    regions: &RegionTable,
    region: u32,
    region_last_line: u64,
    line: u64,
    line_shift: u32,
) -> Owner {
    if line <= region_last_line {
        Owner::new((region, true))
    } else {
        Owner::new(regions.line_owner(line, line_shift))
    }
}
