//! Lockless single-producer/single-consumer descriptor rings and the
//! packet-buffer mempool behind them — the kernel-bypass dataplane's
//! substrate.
//!
//! DPDK-style poll-mode drivers replace the kernel's interrupt-driven
//! descriptor handling with userspace rings: the device (or a peer core)
//! produces descriptors at the tail, a single busy-polling PMD core
//! consumes them at the head, and because there is exactly one producer
//! and one consumer, no atomics beyond two monotone cursors are needed —
//! no spinlock, no cache-line ping-pong on contended lock words. The
//! simulator models the *semantics* (bounded FIFO, full-drop behavior,
//! watermark back-pressure) and leaves the cycle cost of ring probes to
//! the PMD accounting layer.
//!
//! [`SpscRing`] is deliberately a plain sequential structure: the
//! simulator is single-threaded per machine, so the SPSC discipline is a
//! modeling contract (one producer site, one consumer site in the
//! machine's event loop), not a synchronization mechanism.

/// Counters for one ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Descriptors successfully enqueued.
    pub pushes: u64,
    /// Descriptors dequeued.
    pub pops: u64,
    /// Enqueue attempts rejected because the ring was full.
    pub full_rejects: u64,
    /// Enqueues that left occupancy at or above the high watermark.
    pub watermark_hits: u64,
    /// Highest occupancy ever observed.
    pub high_water: usize,
}

/// A bounded single-producer/single-consumer FIFO of descriptors.
///
/// Capacity is rounded up to a power of two (like DPDK's `rte_ring`) so
/// cursor arithmetic is a mask. `push` fails — returning the rejected
/// value — when the ring is full; the high watermark (3/4 of capacity)
/// marks the occupancy at which a real driver would start asserting
/// back-pressure.
#[derive(Debug, Clone)]
pub struct SpscRing<T> {
    slots: Vec<Option<T>>,
    mask: u64,
    head: u64, // consumer cursor: next slot to pop
    tail: u64, // producer cursor: next slot to fill
    watermark: usize,
    stats: RingStats,
}

impl<T> SpscRing<T> {
    /// Creates a ring holding at least `capacity` descriptors (rounded up
    /// to a power of two, minimum 2).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        SpscRing {
            // Slots come into being on the producer cursor's first lap,
            // so construction reserves the buffer without touching it.
            slots: Vec::with_capacity(cap),
            mask: (cap - 1) as u64,
            head: 0,
            tail: 0,
            watermark: cap - cap / 4,
            stats: RingStats::default(),
        }
    }

    /// Total descriptor slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Descriptors currently enqueued.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// True when nothing is enqueued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// True when no free slot remains.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Free slots remaining.
    #[must_use]
    pub fn free(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Occupancy at which back-pressure should engage (3/4 of capacity).
    #[must_use]
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// True while occupancy is at or above the watermark.
    #[must_use]
    pub fn above_watermark(&self) -> bool {
        self.len() >= self.watermark
    }

    /// Enqueues a descriptor at the tail. Returns the value back when the
    /// ring is full (the caller decides whether that is a drop or a
    /// retry).
    pub fn push(&mut self, value: T) -> Result<(), T> {
        if self.is_full() {
            self.stats.full_rejects += 1;
            return Err(value);
        }
        let slot = (self.tail & self.mask) as usize;
        if slot == self.slots.len() {
            self.slots.push(Some(value));
        } else {
            debug_assert!(self.slots[slot].is_none());
            self.slots[slot] = Some(value);
        }
        self.tail += 1;
        self.stats.pushes += 1;
        let len = self.len();
        if len >= self.watermark {
            self.stats.watermark_hits += 1;
        }
        if len > self.stats.high_water {
            self.stats.high_water = len;
        }
        Ok(())
    }

    /// Dequeues the head descriptor.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let slot = (self.head & self.mask) as usize;
        let value = self.slots[slot].take();
        debug_assert!(value.is_some());
        self.head += 1;
        self.stats.pops += 1;
        value
    }

    /// The head descriptor, without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        if self.is_empty() {
            return None;
        }
        self.slots[(self.head & self.mask) as usize].as_ref()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        self.stats
    }
}

/// A fixed pool of packet buffers (DPDK `rte_mempool`): descriptors in
/// flight each pin one buffer; `try_alloc` fails when the pool is
/// exhausted, which in a real dataplane surfaces as rx drops at the
/// device.
#[derive(Debug, Clone)]
pub struct Mempool {
    capacity: usize,
    available: usize,
    allocs: u64,
    frees: u64,
    alloc_failures: u64,
}

impl Mempool {
    /// Creates a pool of `capacity` buffers, all free.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Mempool {
            capacity,
            available: capacity,
            allocs: 0,
            frees: 0,
            alloc_failures: 0,
        }
    }

    /// Total buffers in the pool.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffers currently free.
    #[must_use]
    pub fn available(&self) -> usize {
        self.available
    }

    /// Buffers currently pinned by in-flight descriptors.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.capacity - self.available
    }

    /// Takes one buffer; `false` (counted) when the pool is exhausted.
    pub fn try_alloc(&mut self) -> bool {
        if self.available == 0 {
            self.alloc_failures += 1;
            return false;
        }
        self.available -= 1;
        self.allocs += 1;
        true
    }

    /// Returns one buffer to the pool.
    ///
    /// # Panics
    /// Panics on a double free (more frees than outstanding allocs).
    pub fn free(&mut self) {
        assert!(
            self.available < self.capacity,
            "mempool double free: all {} buffers already available",
            self.capacity
        );
        self.available += 1;
        self.frees += 1;
    }

    /// Failed allocation attempts (pool exhausted).
    #[must_use]
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_len() {
        let mut ring = SpscRing::with_capacity(8);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.peek(), Some(&0));
        for i in 0..5 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert!(ring.pop().is_none());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(SpscRing::<u32>::with_capacity(5).capacity(), 8);
        assert_eq!(SpscRing::<u32>::with_capacity(8).capacity(), 8);
        assert_eq!(SpscRing::<u32>::with_capacity(0).capacity(), 2);
    }

    #[test]
    fn full_ring_rejects_and_counts() {
        let mut ring = SpscRing::with_capacity(4);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert!(ring.is_full());
        assert_eq!(ring.push(99), Err(99));
        assert_eq!(ring.stats().full_rejects, 1);
        assert_eq!(ring.pop(), Some(0));
        ring.push(4).unwrap();
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn watermark_engages_at_three_quarters() {
        let mut ring = SpscRing::with_capacity(8);
        assert_eq!(ring.watermark(), 6);
        for i in 0..5 {
            ring.push(i).unwrap();
        }
        assert!(!ring.above_watermark());
        ring.push(5).unwrap();
        assert!(ring.above_watermark());
        assert_eq!(ring.stats().watermark_hits, 1);
        assert_eq!(ring.stats().high_water, 6);
    }

    #[test]
    fn cursors_wrap_without_loss() {
        let mut ring = SpscRing::with_capacity(4);
        for round in 0u64..100 {
            ring.push(round).unwrap();
            assert_eq!(ring.pop(), Some(round));
        }
        assert_eq!(ring.stats().pushes, 100);
        assert_eq!(ring.stats().pops, 100);
    }

    #[test]
    fn mempool_exhaustion_and_refill() {
        let mut pool = Mempool::new(2);
        assert!(pool.try_alloc());
        assert!(pool.try_alloc());
        assert!(!pool.try_alloc());
        assert_eq!(pool.alloc_failures(), 1);
        assert_eq!(pool.in_use(), 2);
        pool.free();
        assert!(pool.try_alloc());
        assert_eq!(pool.available(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn mempool_double_free_panics() {
        let mut pool = Mempool::new(1);
        pool.free();
    }
}
