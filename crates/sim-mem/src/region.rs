//! Named memory regions.
//!
//! Higher layers (the TCP stack model, the NIC model) never compute raw
//! addresses; they allocate a [`MemRegion`] per logical object — a
//! connection's TCP context, a socket buffer, a payload buffer, a NIC
//! descriptor ring, a function's code footprint — and touch byte ranges
//! within it. The [`RegionTable`] lays regions out in a flat physical
//! address space, page-aligned so that distinct regions never share a
//! cache line or a page.
//!
//! A region is only its placement, `{base, size}`. Names are kept apart,
//! once per *run* of consecutive regions: either one [`RegionName`], or
//! an indexed run `"{prefix}{i}.{field}"` that cycles through a field
//! list for consecutive `i` — the shape of a per-flow slab. A
//! million-flow machine's regions therefore cost 16 bytes each and their
//! names a few dozen bytes in all; [`RegionTable::name`] renders a name
//! when a report asks for it.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Handle to a region allocated from a [`RegionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(u32);

impl RegionId {
    /// Placeholder id (`u32::MAX`) for pre-filling fixed-capacity buffers.
    /// Never handed out by a [`RegionTable`] and not valid for lookups.
    pub const PLACEHOLDER: RegionId = RegionId(u32::MAX);

    /// Raw index into the owning table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Interned region name: stored compactly, rendered to a `String` only
/// in reports and `Debug` output.
///
/// Machine construction at the million-flow scale allocates six regions
/// per flow; naming each with an eager `format!` costs a heap allocation
/// per region. The dominant shape — `"conn{index}.{field}"` — is carried
/// here as a static prefix, a flow index, and a static suffix, so bulk
/// provisioning performs zero format allocations, and the region table
/// folds consecutive indexed names into one run. Ad-hoc names (NIC
/// queues, IRQ handlers) still flow through [`RegionName::Owned`].
///
/// `Display` and `Debug` observe the *rendered* string, so an interned
/// name is indistinguishable from the eager `String` it replaces in
/// every report and snapshot. Equality is render-based for the same
/// reason: `Static("a.text") == Owned("a.text".into())`. Under the real
/// serde (the workspace ships a no-op stand-in), `Serialize` should emit
/// the rendered string and `Deserialize` should produce
/// [`RegionName::Owned`].
#[derive(Clone, Serialize, Deserialize)]
pub enum RegionName {
    /// A fixed label, e.g. `"tcp_v4_rcv.text"` — free to construct.
    Static(&'static str),
    /// An arbitrary pre-rendered name (NIC queues, IRQ handlers).
    Owned(String),
    /// Rendered as `"{prefix}{index}.{suffix}"`, e.g. `conn3.tcp_ctx`.
    Indexed {
        /// Static label before the index (`"conn"`).
        prefix: &'static str,
        /// Flow (or other entity) index.
        index: u32,
        /// Static field label after the dot (`"tcp_ctx"`).
        suffix: &'static str,
    },
}

impl RegionName {
    /// Interned `"{prefix}{index}.{suffix}"` name — no allocation.
    #[must_use]
    pub const fn indexed(prefix: &'static str, index: u32, suffix: &'static str) -> Self {
        RegionName::Indexed {
            prefix,
            index,
            suffix,
        }
    }

    /// Renders the name to an owned `String`, identical to the eager
    /// string the pre-interning code would have built.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            RegionName::Static(s) => (*s).to_string(),
            RegionName::Owned(s) => s.clone(),
            RegionName::Indexed {
                prefix,
                index,
                suffix,
            } => format!("{prefix}{index}.{suffix}"),
        }
    }
}

impl fmt::Display for RegionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionName::Static(s) => f.write_str(s),
            RegionName::Owned(s) => f.write_str(s),
            RegionName::Indexed {
                prefix,
                index,
                suffix,
            } => write!(f, "{prefix}{index}.{suffix}"),
        }
    }
}

impl fmt::Debug for RegionName {
    /// Debug output matches the old eager-`String` representation
    /// (`"conn3.tcp_ctx"`, quoted), so snapshots and dumps are
    /// variant-blind.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.render())
    }
}

impl PartialEq for RegionName {
    /// Render-based equality: two names are equal iff they render to the
    /// same string, regardless of interning variant.
    fn eq(&self, other: &Self) -> bool {
        use RegionName::{Owned, Static};
        match (self, other) {
            (Static(a), Static(b)) => a == b,
            (Owned(a), Owned(b)) => a == b,
            (Static(a), Owned(b)) | (Owned(b), Static(a)) => *a == b.as_str(),
            _ => self.render() == other.render(),
        }
    }
}

impl Eq for RegionName {}

impl From<&'static str> for RegionName {
    fn from(s: &'static str) -> Self {
        RegionName::Static(s)
    }
}

impl From<String> for RegionName {
    fn from(s: String) -> Self {
        RegionName::Owned(s)
    }
}

/// A contiguous, page-aligned span of simulated physical memory: just
/// its placement. The name lives in the owning [`RegionTable`]
/// ([`RegionTable::name`]), so a region is 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRegion {
    base: u64,
    size: u64,
}

impl MemRegion {
    /// First byte address.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Byte address of `offset` within the region, wrapping at the region
    /// size so cyclic buffers (rings, reused payload buffers) can be
    /// touched with a monotonically increasing offset.
    #[must_use]
    pub fn addr(&self, offset: u64) -> u64 {
        self.base + (offset % self.size)
    }
}

/// One run of consecutive region requests (see [`Requests`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Run {
    /// Position of the run's first request in the whole list.
    start: usize,
    kind: RunKind,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum RunKind {
    /// A single request.
    Single(RegionName, u64),
    /// Request `k` of the run is named `"{prefix}{index + k / n}.{field}"`
    /// with `(field, size) = fields[k % n]` and `n = fields.len()`: the
    /// same fields, in the same order and sizes, for each of a range of
    /// consecutive indices.
    Indexed {
        prefix: &'static str,
        index: u32,
        fields: Vec<(&'static str, u64)>,
        /// The field position and index the run's next request would
        /// have, so extending the run takes no division.
        next: (usize, u64),
    },
}

/// `(name, size)` region requests in allocation order, run-length
/// encoded: a flow slab of any size — six fields for each of a range of
/// flows — is one run, so storage grows with the number of name
/// patterns, not with the number of regions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Requests {
    runs: Vec<Run>,
    len: usize,
}

impl Requests {
    /// Appends one request, usually by extending the open run. A slab
    /// plan calls this once per region from its caller's loop; left to
    /// the inliner the call stays out of line there and costs about
    /// twice as much, hence `always`, with new runs kept out of line.
    #[inline(always)]
    fn push(&mut self, name: RegionName, size: u64) {
        if let RegionName::Indexed {
            prefix,
            index,
            suffix,
        } = name
        {
            if self.extend_last(prefix, index, suffix, size) {
                self.len += 1;
                return;
            }
        }
        self.start_run(name, size);
    }

    /// Appends one request as a new run.
    #[inline(never)]
    fn start_run(&mut self, name: RegionName, size: u64) {
        let kind = match name {
            RegionName::Indexed {
                prefix,
                index,
                suffix,
            } => RunKind::Indexed {
                prefix,
                index,
                fields: vec![(suffix, size)],
                next: (0, u64::from(index) + 1),
            },
            name => RunKind::Single(name, size),
        };
        self.runs.push(Run {
            start: self.len,
            kind,
        });
        self.len += 1;
    }

    /// Appends `"{prefix}{index}.{suffix}"` to the last run if it
    /// continues that run's cycle, or widens the cycle while the run has
    /// completed exactly one pass over its first index. Returns whether
    /// it did.
    #[inline]
    fn extend_last(&mut self, prefix: &str, index: u32, suffix: &'static str, size: u64) -> bool {
        let Some(Run {
            kind:
                RunKind::Indexed {
                    prefix: run_prefix,
                    index: first,
                    fields,
                    next,
                },
            ..
        }) = self.runs.last_mut()
        else {
            return false;
        };
        if !same_str(run_prefix, prefix) {
            return false;
        }
        let (pos, expected) = *next;
        let (field, field_size) = fields[pos];
        if u64::from(index) == expected && field_size == size && same_str(field, suffix) {
            *next = if pos + 1 == fields.len() {
                (0, expected + 1)
            } else {
                (pos + 1, expected)
            };
            return true;
        }
        if pos == 0 && expected == u64::from(*first) + 1 && index == *first {
            fields.push((suffix, size));
            return true;
        }
        false
    }

    /// Moves every run of `other` to the end of this list.
    fn append(&mut self, other: Requests) {
        let offset = self.len;
        self.runs.extend(other.runs.into_iter().map(|mut run| {
            run.start += offset;
            run
        }));
        self.len += other.len;
    }

    /// Number of requests in run `r`.
    fn run_len(&self, r: usize) -> usize {
        self.runs.get(r + 1).map_or(self.len, |next| next.start) - self.runs[r].start
    }

    /// Name of request `i`.
    fn name(&self, i: usize) -> RegionName {
        assert!(i < self.len, "region {i} out of range");
        let run = &self.runs[self.runs.partition_point(|run| run.start <= i) - 1];
        let k = i - run.start;
        match &run.kind {
            RunKind::Single(name, _) => name.clone(),
            RunKind::Indexed {
                prefix,
                index,
                fields,
                ..
            } => RegionName::indexed(
                prefix,
                index + (k / fields.len()) as u32,
                fields[k % fields.len()].0,
            ),
        }
    }
}

/// String equality with a pointer fast path: the names of a slab are
/// usually the same `&'static str` literals request after request.
fn same_str(a: &str, b: &str) -> bool {
    (a.as_ptr() == b.as_ptr() && a.len() == b.len()) || a == b
}

/// Allocator and directory of all simulated memory regions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegionTable {
    regions: Vec<MemRegion>,
    /// The requests the regions were carved from, one per region; names
    /// render from here.
    requests: Requests,
    next_base: u64,
    page_size: u64,
}

impl RegionTable {
    /// Creates a table that aligns regions to `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a positive power of two.
    #[must_use]
    pub fn new(page_size: u64) -> Self {
        assert!(
            page_size > 0 && page_size.is_power_of_two(),
            "page size must be a positive power of two"
        );
        RegionTable {
            regions: Vec::new(),
            requests: Requests::default(),
            // Leave page 0 unmapped, like a real kernel.
            next_base: page_size,
            page_size,
        }
    }

    /// Allocates a region of at least `size` bytes (rounded up to one line
    /// is the caller's concern; zero-size regions are rounded up to one
    /// byte so `addr()` never divides by zero).
    pub fn add(&mut self, name: impl Into<RegionName>, size: u64) -> RegionId {
        self.requests.push(name.into(), size);
        self.carve(size)
    }

    /// Allocates every request of `plan`, in order, exactly as a loop of
    /// [`add`](Self::add) calls would.
    pub(crate) fn add_plan(&mut self, plan: RegionPlan) -> RegionSpan {
        let requests = plan.requests;
        let span = RegionSpan::new(self.regions.len(), requests.len);
        self.regions.reserve(requests.len);
        for (r, run) in requests.runs.iter().enumerate() {
            let len = requests.run_len(r);
            match &run.kind {
                RunKind::Single(_, size) => {
                    self.carve(*size);
                }
                RunKind::Indexed { fields, .. } => {
                    for (_, size) in fields.iter().cycle().take(len) {
                        self.carve(*size);
                    }
                }
            }
        }
        self.requests.append(requests);
        span
    }

    /// Places the next region right after the previous one's last page.
    fn carve(&mut self, size: u64) -> RegionId {
        let size = size.max(1);
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(MemRegion {
            base: self.next_base,
            size,
        });
        // Advance to the next page boundary past the region (the page
        // size is a power of two, so a mask rounds up without a divide).
        self.next_base = (self.next_base + size + self.page_size - 1) & !(self.page_size - 1);
        id
    }

    /// Looks up a region.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    #[must_use]
    pub fn get(&self, id: RegionId) -> MemRegion {
        self.regions[id.index()]
    }

    /// The region's name ("conn3.tcp_context", "nic0.rx_ring", …),
    /// rendered from the run it was allocated in.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    #[must_use]
    pub fn name(&self, id: RegionId) -> RegionName {
        self.requests.name(id.index())
    }

    /// Number of regions allocated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` if no regions have been allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterates over `(id, region)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, MemRegion)> + '_ {
        self.regions
            .iter()
            .enumerate()
            .map(|(i, &r)| (RegionId(i as u32), r))
    }

    /// Last line of region `index`'s own bytes, for lines of
    /// `1 << line_shift` bytes: the bound on which lines count toward a
    /// region's exclusivity (touches can run past a region's end into
    /// overflow pages attributed to it; those lines must not count).
    #[inline]
    pub(crate) fn last_line(&self, index: u32, line_shift: u32) -> u64 {
        let r = self.regions[index as usize];
        (r.base + r.size - 1) >> line_shift
    }

    /// The regions allocated after the first `from`, in id order.
    pub(crate) fn since(&self, from: usize) -> &[MemRegion] {
        &self.regions[from..]
    }

    /// Total bytes of simulated memory spanned (including alignment gaps).
    #[must_use]
    pub fn footprint(&self) -> u64 {
        self.next_base
    }

    #[cfg(test)]
    fn name_runs(&self) -> usize {
        self.requests.runs.len()
    }
}

/// An ordered batch of region requests for
/// [`MemorySystem::add_regions_bulk`](crate::MemorySystem::add_regions_bulk).
///
/// Requests are kept run-length encoded: consecutive
/// [`RegionName::indexed`] requests that repeat the same fields and sizes
/// for consecutive indices fold into one run, so a million-flow plan
/// takes a few dozen bytes and [`add`](Self::add) allocates only when a
/// new run starts. The region table keeps the runs to render names.
#[derive(Debug, Default)]
pub struct RegionPlan {
    requests: Requests,
}

impl RegionPlan {
    /// Creates an empty plan for about `_requests` requests. The runs
    /// take the same room whatever the count, so nothing is reserved;
    /// this is [`RegionPlan::default`] under the name callers that size
    /// their plans up front use.
    #[must_use]
    pub fn with_capacity(_requests: usize) -> Self {
        RegionPlan::default()
    }

    /// Appends a region request. Requests are allocated in insertion
    /// order, exactly as an equivalent sequence of `add_region` calls.
    #[inline]
    pub fn add(&mut self, name: impl Into<RegionName>, size: u64) {
        self.requests.push(name.into(), size);
    }

    /// Number of requests in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len
    }

    /// Returns `true` if the plan holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.len == 0
    }

    #[cfg(test)]
    fn name_runs(&self) -> usize {
        self.requests.runs.len()
    }
}

/// Dense handle range returned by a bulk region allocation: the `len`
/// regions with consecutive ids starting at `first`.
///
/// `RegionId`s are allocated sequentially, so a single bulk call owns a
/// contiguous id range; this span converts a slot index back into the
/// exact `RegionId` the equivalent incremental `add` loop would have
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpan {
    first: u32,
    len: u32,
}

impl RegionSpan {
    /// Creates a span covering ids `first .. first + len`.
    #[must_use]
    pub(crate) fn new(first: usize, len: usize) -> Self {
        RegionSpan {
            first: first as u32,
            len: len as u32,
        }
    }

    /// The `i`-th region id in the span.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> RegionId {
        assert!(i < self.len as usize, "region span index out of range");
        RegionId(self.first + i as u32)
    }

    /// Number of regions in the span.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the span holds no regions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the span's region ids in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = RegionId> {
        let first = self.first;
        (0..self.len).map(move |i| RegionId(first + i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_page_aligned_and_disjoint() {
        let mut t = RegionTable::new(4096);
        let a = t.add("a", 100);
        let b = t.add("b", 5000);
        let c = t.add("c", 1);
        let (ra, rb, rc) = (t.get(a), t.get(b), t.get(c));
        assert_eq!(ra.base() % 4096, 0);
        assert_eq!(rb.base() % 4096, 0);
        assert!(ra.base() + ra.size() <= rb.base());
        assert!(rb.base() + rb.size() <= rc.base());
    }

    #[test]
    fn page_zero_unmapped() {
        let mut t = RegionTable::new(4096);
        let a = t.add("a", 8);
        assert!(t.get(a).base() >= 4096);
    }

    #[test]
    fn addr_wraps_at_region_size() {
        let mut t = RegionTable::new(4096);
        let a = t.add("ring", 256);
        let r = t.get(a);
        assert_eq!(r.addr(0), r.base());
        assert_eq!(r.addr(256), r.base());
        assert_eq!(r.addr(300), r.base() + 44);
    }

    #[test]
    fn zero_size_rounds_up() {
        let mut t = RegionTable::new(4096);
        let a = t.add("z", 0);
        assert_eq!(t.get(a).size(), 1);
        let _ = t.get(a).addr(17); // must not panic
    }

    #[test]
    fn iter_and_len() {
        let mut t = RegionTable::new(4096);
        t.add("x", 1);
        t.add("y", 1);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let names: Vec<String> = t.iter().map(|(id, _)| t.name(id).render()).collect();
        assert_eq!(names, ["x", "y"]);
    }

    #[test]
    fn interned_names_render_like_eager_strings() {
        let eager = RegionName::Owned("conn3.tcp_ctx".to_string());
        let interned = RegionName::indexed("conn", 3, "tcp_ctx");
        assert_eq!(interned.render(), "conn3.tcp_ctx");
        assert_eq!(format!("{interned}"), format!("{eager}"));
        assert_eq!(format!("{interned:?}"), format!("{eager:?}"));
        assert_eq!(format!("{interned:?}"), "\"conn3.tcp_ctx\"");
        let st = RegionName::Static("tcp_v4_rcv.text");
        assert_eq!(st.render(), "tcp_v4_rcv.text");
        assert_eq!(format!("{st:?}"), "\"tcp_v4_rcv.text\"");
    }

    #[test]
    fn region_name_equality_is_render_based() {
        assert_eq!(
            RegionName::Static("a.text"),
            RegionName::Owned("a.text".to_string())
        );
        assert_eq!(
            RegionName::indexed("conn", 12, "sock"),
            RegionName::Owned("conn12.sock".to_string())
        );
        assert_ne!(
            RegionName::indexed("conn", 12, "sock"),
            RegionName::indexed("conn", 21, "sock")
        );
    }

    #[test]
    fn region_span_indexes_sequential_ids() {
        let span = RegionSpan::new(5, 3);
        assert_eq!(span.len(), 3);
        assert!(!span.is_empty());
        assert_eq!(span.get(0).index(), 5);
        assert_eq!(span.get(2).index(), 7);
        let ids: Vec<usize> = span.iter().map(RegionId::index).collect();
        assert_eq!(ids, [5, 6, 7]);
        assert!(RegionSpan::new(9, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn region_span_bounds_checked() {
        let _ = RegionSpan::new(0, 2).get(2);
    }

    #[test]
    fn name_storage_does_not_scale_with_regions() {
        assert_eq!(size_of::<MemRegion>(), 16);
        let fields = [
            ("tcp_ctx", 1344),
            ("sock", 1472),
            ("skb_meta", 4096),
            ("skb_data", 16384),
            ("tx_app_buf", 4096),
            ("rx_app_buf", 4096),
        ];
        let runs = |flows: u32| {
            let mut plan = RegionPlan::default();
            for flow in 0..flows {
                for (field, size) in fields {
                    plan.add(RegionName::indexed("conn", flow, field), size);
                }
            }
            let plan_runs = plan.name_runs();
            let mut t = RegionTable::new(4096);
            t.add("tcp_v4_rcv.text", 2048);
            t.add_plan(plan);
            t.add("tcp_fin.text", 512);
            assert_eq!(t.len(), 6 * flows as usize + 2);
            (plan_runs, t.name_runs())
        };
        assert_eq!(runs(100_000), (1, 3));
        assert_eq!(runs(100_000), runs(10));
    }

    #[test]
    fn runs_fold_only_what_renders_the_same() {
        let mut t = RegionTable::new(4096);
        // A skipped index and a changed size start new runs; a new or
        // repeated field on a run's first index widens its cycle.
        let names = [
            ("conn", 0, "a", 64),
            ("conn", 0, "b", 64),
            ("conn", 1, "a", 64),
            ("conn", 1, "b", 64),
            ("conn", 3, "a", 64),
            ("conn", 3, "b", 128),
            ("conn", 4, "a", 64),
            ("conn", 4, "b", 64),
            ("conn", 5, "a", 64),
            ("conn", 5, "a", 64),
            ("flow", 6, "a", 64),
        ];
        let ids: Vec<RegionId> = names
            .iter()
            .map(|&(prefix, i, field, size)| t.add(RegionName::indexed(prefix, i, field), size))
            .collect();
        t.add(String::from("nic0.rx"), 64);
        for (&id, &(prefix, i, field, _)) in ids.iter().zip(&names) {
            assert_eq!(t.name(id).render(), format!("{prefix}{i}.{field}"));
        }
        assert_eq!(t.name(RegionId(11)).render(), "nic0.rx");
        assert_eq!(t.name_runs(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn name_of_unknown_region_panics() {
        let mut t = RegionTable::new(4096);
        t.add("a", 1);
        let _ = t.name(RegionId(1));
    }

    #[test]
    fn footprint_grows() {
        let mut t = RegionTable::new(4096);
        assert_eq!(t.footprint(), 4096);
        t.add("a", 4097);
        assert_eq!(t.footprint(), 4096 + 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_rejected() {
        let _ = RegionTable::new(1000);
    }
}
