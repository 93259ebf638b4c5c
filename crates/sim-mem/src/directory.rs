//! The coherence directory: one entry per simulated line, paged.
//!
//! The directory must answer for every line a touch can reach, and at a
//! million flows that is billions of lines, of which a run touches a few
//! million. So the table is two-level: a small index of fixed-size
//! chunks, each chunk mapped on its first write. An absent chunk reads
//! as all-zero entries, which is exactly "no sharers, no owner", so
//! reads never allocate. Chunk 0 is that shared zero chunk; it is never
//! written, so a read needs no branch.

use serde::{Deserialize, Serialize};

use crate::zeroed::ZeroedVec;

/// One line's coherence state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct DirEntry {
    /// Bitmask of CPUs that may hold the line.
    pub(crate) sharers: u32,
    /// CPU holding the line modified, plus one; `0` means no owner.
    /// Packed (instead of `Option<u8>`, whose `None` bit pattern is
    /// unspecified) so the all-zero byte pattern *is* the default entry.
    owner_plus1: u8,
}

impl DirEntry {
    #[inline]
    pub(crate) fn owner(self) -> Option<u8> {
        self.owner_plus1.checked_sub(1)
    }

    #[inline]
    pub(crate) fn owner_is(self, cpu: u8) -> bool {
        self.owner_plus1 == cpu + 1
    }

    #[inline]
    pub(crate) fn set_owner(&mut self, cpu: u8) {
        self.owner_plus1 = cpu + 1;
    }

    #[inline]
    pub(crate) fn clear_owner(&mut self) {
        self.owner_plus1 = 0;
    }
}

// SAFETY: all-zero bytes decode to `sharers: 0, owner_plus1: 0` — no
// sharers, no owner — which is exactly `DirEntry::default()`.
#[allow(unsafe_code)]
unsafe impl crate::zeroed::ZeroDefault for DirEntry {}

/// Lines per chunk, as a shift. A chunk is 512 KiB of entries (4 MiB of
/// simulated memory), but its host pages are faulted in only where
/// written, so memory is paid per 4 KiB page as with a flat table, while
/// the index stays a few KiB — L1-resident — for a 10k-flow machine.
const CHUNK_SHIFT: u32 = 16;
const CHUNK_MASK: usize = (1 << CHUNK_SHIFT) - 1;

/// The paged directory (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    /// Chunk holding each run of `1 << CHUNK_SHIFT` lines; 0 while the
    /// run has never been written.
    index: ZeroedVec<u32>,
    /// Chunk storage, chunk after chunk; chunk 0 stays all zero.
    chunks: ZeroedVec<DirEntry>,
    /// Lines covered.
    lines: usize,
}

impl Directory {
    /// A directory covering no lines.
    pub(crate) fn new() -> Self {
        let mut chunks = ZeroedVec::new();
        chunks.grow(1 << CHUNK_SHIFT);
        Directory {
            index: ZeroedVec::new(),
            chunks,
            lines: 0,
        }
    }

    /// Lines covered.
    pub(crate) fn lines(&self) -> usize {
        self.lines
    }

    /// Covers lines `0..lines`; never shrinks. Only the index grows.
    pub(crate) fn grow(&mut self, lines: usize) {
        self.lines = self.lines.max(lines);
        self.index.grow(self.lines.div_ceil(1 << CHUNK_SHIFT));
    }

    /// The entry of `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` lies past the covered lines' last chunk.
    #[inline]
    pub(crate) fn get(&self, line: u64) -> DirEntry {
        let chunk = self.index[(line >> CHUNK_SHIFT) as usize] as usize;
        self.chunks[chunk << CHUNK_SHIFT | (line as usize & CHUNK_MASK)]
    }

    /// Where `line`'s entry lives, for [`at`](Self::at); maps the line's
    /// chunk if it has none yet. Positions stay valid as chunks are added.
    ///
    /// # Panics
    ///
    /// As for [`get`](Self::get).
    #[inline]
    pub(crate) fn position(&mut self, line: u64) -> usize {
        let i = (line >> CHUNK_SHIFT) as usize;
        let mut chunk = self.index[i];
        if chunk == 0 {
            chunk = self.map_chunk(i);
        }
        (chunk as usize) << CHUNK_SHIFT | (line as usize & CHUNK_MASK)
    }

    /// The entry at `position`.
    #[inline]
    pub(crate) fn at(&mut self, position: usize) -> &mut DirEntry {
        &mut self.chunks[position]
    }

    /// The entry of `line`, for writing; maps the line's chunk if it has
    /// none yet.
    #[inline]
    pub(crate) fn get_mut(&mut self, line: u64) -> &mut DirEntry {
        let position = self.position(line);
        self.at(position)
    }

    /// Resets `line`'s entry to the default and returns what it held.
    /// Writes nothing to an entry without sharers (which holds no owner
    /// either), and maps nothing.
    #[inline]
    pub(crate) fn take(&mut self, line: u64) -> DirEntry {
        let chunk = self.index[(line >> CHUNK_SHIFT) as usize] as usize;
        if chunk == 0 {
            return DirEntry::default();
        }
        let entry = &mut self.chunks[chunk << CHUNK_SHIFT | (line as usize & CHUNK_MASK)];
        let held = *entry;
        if held.sharers != 0 {
            *entry = DirEntry::default();
        }
        held
    }

    /// Maps a fresh chunk for index entry `i` and returns its number.
    #[cold]
    #[inline(never)]
    fn map_chunk(&mut self, i: usize) -> u32 {
        let fresh = self.chunks.len();
        self.chunks.grow(fresh + (1 << CHUNK_SHIFT));
        let chunk = u32::try_from(fresh >> CHUNK_SHIFT).expect("directory chunk count fits u32");
        self.index[i] = chunk;
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_zero_until_written_and_keeps_writes() {
        let mut d = Directory::new();
        d.grow(10_000);
        assert_eq!(d.lines(), 10_000);
        assert_eq!(d.get(9_999), DirEntry::default());
        d.get_mut(700).sharers = 5;
        d.get_mut(701).set_owner(2);
        assert_eq!(d.get(700).sharers, 5);
        assert_eq!(d.get(701).owner(), Some(2));
        // Same chunk as 700, never written; and a chunk never mapped.
        assert_eq!(d.get(702), DirEntry::default());
        assert_eq!(d.get(5_000), DirEntry::default());
        d.grow(5);
        assert_eq!(d.lines(), 10_000, "never shrinks");
    }

    /// Entries spread over more than a TiB of simulated lines cost the
    /// chunks written and an index of four bytes per chunk, not a table
    /// of the whole range. Measured as growth of `VmSize` (this process's
    /// address space, from `/proc/self/status`) in a child process that
    /// runs only this test, so no concurrently running test moves it.
    #[cfg(target_os = "linux")]
    #[test]
    fn spread_entries_cost_their_chunks() {
        const CHILD: &str = "SIM_MEM_DIRECTORY_VMSIZE_CHILD";
        if std::env::var_os(CHILD).is_none() {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "--exact",
                    "directory::tests::spread_entries_cost_their_chunks",
                ])
                .args(["--test-threads=1", "--nocapture"])
                .env(CHILD, "1")
                .output()
                .expect("rerun the test binary");
            assert!(
                out.status.success(),
                "the measuring child failed:\n{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        fn vm_kib() -> u64 {
            let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
            let line = status
                .lines()
                .find(|l| l.starts_with("VmSize:"))
                .expect("VmSize line");
            line.split_whitespace().nth(1).unwrap().parse().unwrap()
        }
        // 2^35 lines of 64 bytes: 2 TiB of simulated memory, which a flat
        // table of 8-byte entries would map as 256 GiB.
        let lines = 1u64 << 35;
        let spots: Vec<u64> = (0..64).map(|i| i * (lines / 64) + 17 * i).collect();
        let before = vm_kib();
        let mut d = Directory::new();
        d.grow(lines as usize);
        for (i, &line) in spots.iter().enumerate() {
            d.get_mut(line).sharers = i as u32 + 1;
        }
        for (i, &line) in spots.iter().enumerate() {
            assert_eq!(d.get(line).sharers, i as u32 + 1);
            assert_eq!(d.get(line + 1), DirEntry::default());
            assert_eq!(d.get(line ^ (1 << 20)), DirEntry::default());
        }
        let grown = vm_kib().saturating_sub(before);
        // Index: 4 B per chunk of lines. Chunks: the shared zero chunk and
        // one per spot. Allowed: a few chunks more than that.
        let chunk_kib = (size_of::<DirEntry>() << CHUNK_SHIFT) as u64 / 1024;
        let index_kib = (lines >> CHUNK_SHIFT) * 4 / 1024;
        let written_kib = (spots.len() as u64 + 1) * chunk_kib;
        assert!(
            grown <= index_kib + written_kib + 4 * chunk_kib,
            "address space grew {grown} KiB; index {index_kib} KiB, chunks {written_kib} KiB"
        );
    }
}
