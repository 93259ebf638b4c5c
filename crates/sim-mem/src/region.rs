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

// SAFETY: all-zero bytes decode to `base: 0, size: 0`, a valid value of
// two integers (one no table hands out: every region has a size).
#[allow(unsafe_code)]
unsafe impl crate::zeroed::ZeroDefault for MemRegion {}

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

    /// Extends the last run by whole passes through index `end - 1`, if
    /// it is an indexed run of `n` fields whose next request starts the
    /// pass of index `next`; returns whether it did.
    fn extend_passes(&mut self, n: usize, next: u64, end: u32) -> bool {
        let Some(Run {
            kind: RunKind::Indexed {
                fields, next: at, ..
            },
            ..
        }) = self.runs.last_mut()
        else {
            return false;
        };
        if fields.len() != n || *at != (0, next) {
            return false;
        }
        let passes = u64::from(end).saturating_sub(next);
        *at = (0, next + passes);
        self.len += passes as usize * n;
        true
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

    /// Number of fields run `r` cycles through.
    fn field_count(&self, r: usize) -> usize {
        match &self.runs[r].kind {
            RunKind::Single(..) => 1,
            RunKind::Indexed { fields, .. } => fields.len(),
        }
    }

    /// The sizes of run `r`'s fields, in cycle order.
    fn field_sizes(&self, r: usize) -> impl Iterator<Item = u64> + '_ {
        let (single, fields) = match &self.runs[r].kind {
            RunKind::Single(_, size) => (Some(*size), &[][..]),
            RunKind::Indexed { fields, .. } => (None, &fields[..]),
        };
        single.into_iter().chain(fields.iter().map(|f| f.1))
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

/// Where one run of consecutive regions lies. The run's regions cycle
/// through its fields: region `k` is field `k % n` of pass `k / n`,
/// placed `k / n` strides past the run's first page. A single request
/// is a run of one field. Regions are carved back to back, so a run's
/// placement is arithmetic and nothing per region needs storing.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Place {
    /// Id of the run's first region.
    start: usize,
    /// Page of the run's first region.
    first_page: u64,
    /// Pages one pass over the fields spans.
    stride: u64,
    /// `(page offset within a pass, size in bytes)` of each field, the
    /// size already rounded up to one byte.
    fields: Vec<(u64, u64)>,
}

impl Place {
    /// The placement of a run starting at region `start` on `first_page`
    /// whose fields have `sizes`.
    fn new(
        start: usize,
        first_page: u64,
        sizes: impl Iterator<Item = u64>,
        page_shift: u32,
    ) -> Self {
        let mut stride = 0;
        let fields = sizes
            .map(|size| {
                let size = size.max(1);
                let field = (stride, size);
                stride += size.div_ceil(1 << page_shift);
                field
            })
            .collect();
        Place {
            start,
            first_page,
            stride,
            fields,
        }
    }

    /// First page and size of the run's `k`-th region.
    #[inline]
    fn region(&self, k: usize) -> (u64, u64) {
        let n = self.fields.len();
        let (pass, j) = (k / n, k % n);
        let (offset, size) = self.fields[j];
        (self.first_page + pass as u64 * self.stride + offset, size)
    }

    /// The run-relative index of the region whose pages hold `page`,
    /// which must lie inside the run.
    #[inline]
    fn index_of_page(&self, page: u64) -> usize {
        let rel = page - self.first_page;
        let pass = rel / self.stride;
        let within = rel - pass * self.stride;
        let j = self.fields[1..]
            .iter()
            .take_while(|f| f.0 <= within)
            .count();
        pass as usize * self.fields.len() + j
    }

    /// Pages the run's first `len` regions span.
    fn pages(&self, len: usize) -> u64 {
        let n = self.fields.len();
        let (passes, rest) = (len / n, len % n);
        passes as u64 * self.stride + self.fields.get(rest).map_or(0, |f| f.0)
    }
}

/// Allocator and directory of all simulated memory regions.
///
/// Besides placement and names, the table answers which region owns a
/// page. A touch of a region may run past its end by up to `size - 1`
/// bytes (offsets wrap, lengths do not; see [`MemRegion::addr`]), so the
/// memory system attributes each page to a region by the rule it has
/// always used: region `i` claims the pages from its first one through
/// its *cover*, `max(base + 2·size, base of region i + 1)`, and a later
/// claim overrides an earlier one. That rule has a closed form, so no
/// per-page table exists:
///
/// - inside the footprint, a page belongs to the region whose pages hold
///   it (each region's cover reaches the next region's first page, which
///   that region claims after it);
/// - past the footprint, a page belongs to the last region whose cover
///   reaches it. Only regions whose cover reaches further than every
///   later region's can be that owner; they form the short `tail` list.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegionTable {
    /// The requests the regions were carved from, one per region; names
    /// render from here.
    requests: Requests,
    /// Placement of each run of `requests`, in the same order: a
    /// region's base and size are arithmetic over its run's, so no
    /// per-region record exists.
    places: Vec<Place>,
    /// `(last page of the cover, id)` of each region whose cover reaches
    /// a page no later region's does: ids ascending, pages strictly
    /// descending.
    tail: Vec<(u64, u32)>,
    /// Furthest cover byte of any region.
    reach: u64,
    next_base: u64,
    page_shift: u32,
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
            // Leave page 0 unmapped, like a real kernel.
            next_base: page_size,
            page_shift: page_size.trailing_zeros(),
            ..RegionTable::default()
        }
    }

    /// Allocates a region of at least `size` bytes (rounded up to one line
    /// is the caller's concern; zero-size regions are rounded up to one
    /// byte so `addr()` never divides by zero).
    pub fn add(&mut self, name: impl Into<RegionName>, size: u64) -> RegionId {
        let runs = self.requests.runs.len();
        self.requests.push(name.into(), size);
        // The request starts a run, continues the last run's cycle, or
        // widens its field list during its first pass: place the new run,
        // or place the widened one again.
        let r = self.requests.runs.len() - 1;
        let new_run = r == runs;
        if new_run || self.places[r].fields.len() != self.requests.field_count(r) {
            let first_page = if new_run {
                self.next_base >> self.page_shift
            } else {
                self.places[r].first_page
            };
            self.places.truncate(r);
            self.places.push(Place::new(
                self.requests.runs[r].start,
                first_page,
                self.requests.field_sizes(r),
                self.page_shift,
            ));
        }
        let id = self.len() - 1;
        self.carve(id, 1);
        RegionId(id as u32)
    }

    /// Allocates every request of `plan`, in order, exactly as a loop of
    /// [`add`](Self::add) calls would.
    pub(crate) fn add_plan(&mut self, plan: RegionPlan) -> RegionSpan {
        let requests = plan.requests;
        let first = self.len();
        let span = RegionSpan::new(first, requests.len);
        for r in 0..requests.runs.len() {
            let start = first + requests.runs[r].start;
            let place = Place::new(
                start,
                self.next_base >> self.page_shift,
                requests.field_sizes(r),
                self.page_shift,
            );
            self.places.push(place);
            self.carve(start, requests.run_len(r));
        }
        self.requests.append(requests);
        span
    }

    /// Places the `len` regions from id `start` on, the last ones of the
    /// last run in `places`: moves the next base past them and updates
    /// the tail and reach.
    fn carve(&mut self, start: usize, len: usize) {
        let place = self.places.last().expect("carved regions have a place");
        let k0 = start - place.start;
        let end_page = place.first_page + place.pages(k0 + len);
        self.next_base = end_page << self.page_shift;
        // A region's pass successor (same field, next pass) covers
        // strictly further, so only each field's last region of the run
        // can join the tail: the run's last `min(n, len)` regions.
        let n = place.fields.len().min(len);
        for id in start + len - n..start + len {
            let (page, size) = place.region(id - place.start);
            let base = page << self.page_shift;
            let next = base + (size.div_ceil(1 << self.page_shift) << self.page_shift);
            let cover = (base + 2 * size).max(next);
            self.reach = self.reach.max(cover);
            let last = cover >> self.page_shift;
            while self.tail.last().is_some_and(|&(p, _)| p <= last) {
                self.tail.pop();
            }
            self.tail.push((last, id as u32));
        }
    }

    /// Looks up a region: a search over the runs, then arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    #[must_use]
    pub fn get(&self, id: RegionId) -> MemRegion {
        let i = id.index();
        assert!(i < self.len(), "region {i} out of range");
        let place = &self.places[self.places.partition_point(|p| p.start <= i) - 1];
        let (page, size) = place.region(i - place.start);
        MemRegion {
            base: page << self.page_shift,
            size,
        }
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
        self.requests.len
    }

    /// Returns `true` if no regions have been allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.len == 0
    }

    /// Iterates over `(id, region)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, MemRegion)> + '_ {
        (0..self.len()).map(|i| (RegionId(i as u32), self.get(RegionId(i as u32))))
    }

    /// The region that owns `line`'s page (see the type docs), and
    /// whether the line lies within that region's own bytes — lines in an
    /// owner's padding or overflow pages do not count toward its
    /// exclusivity. Lines below the first region (page 0 is never
    /// carved) report region 0, not its own.
    #[inline]
    pub(crate) fn line_owner(&self, line: u64, line_shift: u32) -> (u32, bool) {
        let page = line >> (self.page_shift - line_shift);
        if page >= self.next_base >> self.page_shift {
            let i = self.tail.partition_point(|&(last, _)| last >= page);
            debug_assert!(i > 0, "line {line} lies past every region's cover");
            return (self.tail[i.max(1) - 1].1, false);
        }
        let r = self.places.partition_point(|p| p.first_page <= page);
        if r == 0 {
            return (0, false);
        }
        let place = &self.places[r - 1];
        let k = place.index_of_page(page);
        let (first_page, size) = place.region(k);
        let own = line <= ((first_page << self.page_shift) + size - 1) >> line_shift;
        ((place.start + k) as u32, own)
    }

    /// Furthest byte any region's cover reaches (see the type docs): the
    /// end of the address range a touch can reach.
    pub(crate) fn reach(&self) -> u64 {
        self.reach
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

    /// Appends the requests `"{prefix}{i}.{field}"` for every `i` in
    /// `indices` and every `(field, size)` of `fields`, index-major —
    /// exactly what the nested loop of [`add`](Self::add) calls would
    /// append, in time independent of the number of indices.
    pub fn add_slab(
        &mut self,
        prefix: &'static str,
        indices: std::ops::Range<u32>,
        fields: &[(&'static str, u64)],
    ) {
        let Some(first) = indices.clone().next() else {
            return;
        };
        for &(field, size) in fields {
            self.add(RegionName::indexed(prefix, first, field), size);
        }
        if !self
            .requests
            .extend_passes(fields.len(), u64::from(first) + 1, indices.end)
        {
            for i in first + 1..indices.end {
                for &(field, size) in fields {
                    self.add(RegionName::indexed(prefix, i, field), size);
                }
            }
        }
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

    /// The `N` region ids from the `i`-th on.
    ///
    /// # Panics
    ///
    /// Panics if `i + N > len()`.
    #[inline]
    #[must_use]
    pub fn array<const N: usize>(&self, i: usize) -> [RegionId; N] {
        assert!(i + N <= self.len as usize, "region span index out of range");
        let first = self.first + i as u32;
        std::array::from_fn(|k| RegionId(first + k as u32))
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
        assert_eq!(span.array::<2>(1), [span.get(1), span.get(2)]);
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

    /// `add_slab` appends what the nested loop of `add` calls would,
    /// whether it starts a run, continues the plan's last run, widens a
    /// run still in its first pass, or meets a run it cannot continue.
    #[test]
    fn add_slab_matches_the_nested_loop() {
        let fields: [(&str, u64); 2] = [("a", 64), ("b", 5000)];
        let lead: [&[(u32, &str, u64)]; 5] = [
            &[],
            &[(0, "a", 64), (0, "b", 5000), (1, "a", 64), (1, "b", 5000)],
            &[(2, "x", 64)],
            &[(0, "a", 64), (0, "b", 5000), (1, "a", 64)],
            &[(0, "a", 64), (0, "b", 77)],
        ];
        for (case, lead) in lead.iter().enumerate() {
            for indices in [2..6, 2..3, 2..2] {
                let (mut slab, mut looped) = (RegionPlan::default(), RegionPlan::default());
                for &(i, field, size) in *lead {
                    slab.add(RegionName::indexed("conn", i, field), size);
                    looped.add(RegionName::indexed("conn", i, field), size);
                }
                slab.add_slab("conn", indices.clone(), &fields);
                for i in indices.clone() {
                    for (field, size) in fields {
                        looped.add(RegionName::indexed("conn", i, field), size);
                    }
                }
                let (mut a, mut b) = (RegionTable::new(4096), RegionTable::new(4096));
                a.add_plan(slab);
                b.add_plan(looped);
                assert_eq!(a.len(), b.len(), "case {case} {indices:?}");
                assert_eq!(a.footprint(), b.footprint());
                for (id, r) in b.iter() {
                    assert_eq!(a.get(id), r, "case {case} {indices:?} region {id}");
                    assert_eq!(a.name(id).render(), b.name(id).render());
                }
            }
        }
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

    mod owners {
        use super::*;
        use proptest::prelude::*;

        const PAGE: u64 = 4096;
        const LINE_SHIFT: u32 = 6;
        const LINES_PER_PAGE: u32 = 6;

        /// The page-owner table the memory system kept before owners were
        /// derived: each region in id order writes its id over the pages
        /// from its first through its cover, `max(base + 2·size,
        /// footprint right after it was carved)`, last writer wins.
        /// Returns the table and the furthest cover.
        fn dense_owners(t: &RegionTable) -> (Vec<u32>, u64) {
            let regions: Vec<MemRegion> = t.iter().map(|(_, r)| r).collect();
            let (mut pages, mut reach) = (Vec::new(), 0);
            for (i, r) in regions.iter().enumerate() {
                let footprint = regions.get(i + 1).map_or(t.footprint(), MemRegion::base);
                let cover = (r.base() + 2 * r.size()).max(footprint);
                reach = reach.max(cover);
                let end = (cover / PAGE) as usize + 1;
                if pages.len() < end {
                    pages.resize(end, 0);
                }
                pages[(r.base() / PAGE) as usize..end].fill(i as u32);
            }
            (pages, reach)
        }

        proptest! {
            /// The derived owner of every page up to the furthest cover
            /// equals the dense table's, and so does "own line": whether
            /// the page's first line lies inside the owner's bytes. Plans
            /// mix single requests with indexed slabs of uneven field
            /// sizes (zero and multi-page, so covers reach past later
            /// regions and past the footprint), and single regions and
            /// slab continuations are added after the bulk plans, as the
            /// stack adds its lifecycle symbols.
            #[test]
            fn derived_page_owners_match_dense_table(
                ops in prop::collection::vec((0u8..4, 1u32..5, 0usize..2), 1..10),
                sizes in prop::collection::vec(0u64..40_000, 4..8),
            ) {
                const FIELDS: [&str; 3] = ["tcp_ctx", "sock", "skb_data"];
                let mut t = RegionTable::new(PAGE);
                let mut next = 0u32;
                for (step, &(kind, count, shape)) in ops.iter().enumerate() {
                    let size = sizes[step % sizes.len()];
                    match kind {
                        0 => {
                            t.add(format!("dev{step}.ring"), size);
                        }
                        1 => {
                            let fields = &FIELDS[..1 + shape + count as usize % 2];
                            let mut plan = RegionPlan::default();
                            for flow in next..next + count {
                                for (j, field) in fields.iter().enumerate() {
                                    plan.add(
                                        RegionName::indexed("conn", flow, field),
                                        sizes[(j + shape) % sizes.len()],
                                    );
                                }
                            }
                            next += count;
                            t.add_plan(plan);
                        }
                        2 => {
                            // Continues the last slab's cycle when the
                            // field and size line up, else starts a run.
                            t.add(RegionName::indexed("conn", next, FIELDS[0]), sizes[shape]);
                            next += 1;
                        }
                        _ => {
                            t.add("tcp_fin.text", size);
                        }
                    }
                }
                let (dense, reach) = dense_owners(&t);
                prop_assert_eq!(t.reach(), reach);
                for (page, &want) in dense.iter().enumerate() {
                    let line = (page as u64) << LINES_PER_PAGE;
                    let (owner, own) = t.line_owner(line, LINE_SHIFT);
                    prop_assert_eq!(owner, want, "page {}", page);
                    if page > 0 {
                        let r = t.get(RegionId(owner));
                        let last_line = (r.base() + r.size() - 1) >> LINE_SHIFT;
                        prop_assert_eq!(own, line <= last_line, "page {}", page);
                    }
                }
            }
        }
    }
}
