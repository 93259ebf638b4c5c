//! Zero-touch tables for bulk provisioning.
//!
//! Growing the directory and the flat per-(region, CPU) tables to
//! million-flow sizes with `Vec::resize` writes every new element, which
//! at multi-gigabyte sizes means the *kernel page-fault* cost of dirtying
//! the whole allocation up front — the dominant term in large-machine
//! construction, dwarfing the simulator's own work. For element types
//! whose default value is the all-zero byte pattern, the same final state
//! is reachable without touching the tail at all: [`ZeroedVec`] keeps its
//! elements on private anonymous pages, which the kernel supplies zeroed
//! and faults in lazily, only where the run actually reaches.
//!
//! The pages come straight from the kernel rather than from the global
//! allocator on purpose. `alloc_zeroed` may hand back recycled heap
//! memory — after an earlier machine freed large tables — and must then
//! clear it byte by byte, faulting in the whole table at construction.
//! Which way it goes depends on the allocator's state, so construction
//! time and peak memory would depend on what ran before.

// The one place in the crate where unsafe is allowed; every block carries
// its safety argument.
#![allow(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Marker for types whose all-zero byte pattern is a valid value equal to
/// `T::default()`.
///
/// # Safety
///
/// Implementors guarantee that every field of `T` is valid — and compares
/// equal to its `Default` — when all of its bytes are zero. No padding
/// requirements arise (zeroed padding is always fine), but types holding
/// pointers, `NonZero*`, enums with non-zero niches, or non-zero default
/// values must not implement this.
pub(crate) unsafe trait ZeroDefault: Copy + 'static {}

// SAFETY: zero is the `Default` of the primitive integers.
unsafe impl ZeroDefault for u32 {}
// SAFETY: as above.
unsafe impl ZeroDefault for u64 {}

/// Most bytes of spare mapping [`ZeroedVec::grow`] adds past the request,
/// so a run of short appends does not remap every time.
const SPARE_BYTES: usize = 1 << 20;

/// A growable table of [`ZeroDefault`] elements whose unwritten tail costs
/// no memory and no fault time.
///
/// Dereferences to a slice of its `len` elements. It only ever grows, and
/// growth appends `T::default()` elements.
pub(crate) struct ZeroedVec<T: ZeroDefault> {
    /// Start of the mapping (dangling while `mapped == 0`).
    ptr: NonNull<T>,
    len: usize,
    /// Bytes mapped at `ptr`. Every byte past `len` elements is zero: the
    /// mapping starts zeroed, the slice never exposes those bytes, and
    /// the table never shrinks.
    mapped: usize,
}

// SAFETY: the table owns its mapping exclusively, like a `Vec<T>`, so it
// is as safe to send or share as the elements themselves.
unsafe impl<T: ZeroDefault + Send> Send for ZeroedVec<T> {}
// SAFETY: as above; `&ZeroedVec` only hands out `&[T]`.
unsafe impl<T: ZeroDefault + Sync> Sync for ZeroedVec<T> {}

impl<T: ZeroDefault> ZeroedVec<T> {
    /// An empty table; maps nothing until it first grows.
    pub(crate) fn new() -> Self {
        ZeroedVec {
            ptr: NonNull::dangling(),
            len: 0,
            mapped: 0,
        }
    }

    /// Grows the table to `new_len` elements, filling the tail with
    /// `T::default()` without faulting any of its pages. No-op when
    /// `new_len <= len`.
    ///
    /// # Panics
    ///
    /// Panics if the byte size of the grown table overflows `usize`;
    /// aborts if the kernel refuses the mapping.
    pub(crate) fn grow(&mut self, new_len: usize) {
        if new_len <= self.len {
            return;
        }
        debug_assert!(size_of::<T>() > 0, "zero-sized types need no storage");
        let bytes = new_len
            .checked_mul(size_of::<T>())
            .expect("zeroed table size overflows usize");
        if bytes > self.mapped {
            let want = bytes.max(self.mapped + (self.mapped / 8).min(SPARE_BYTES));
            // SAFETY: `ptr` and `mapped` describe this table's live
            // mapping (or nothing, when `mapped == 0`), and `want >
            // mapped`. The returned mapping holds the old bytes followed
            // by zeroes and replaces the old one, which is no longer used.
            let ptr = unsafe { sys::remap(self.ptr.as_ptr().cast(), self.mapped, want) };
            self.ptr = NonNull::new(ptr.cast()).expect("mapping is non-null");
            self.mapped = want;
        }
        self.len = new_len;
    }
}

impl<T: ZeroDefault> Deref for ZeroedVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: the first `len` elements lie inside the mapping (or
        // `len == 0` and the dangling pointer is well aligned), and each
        // is initialized: written through this table, or zero bytes — a
        // valid `T` by the `ZeroDefault` contract.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: ZeroDefault> DerefMut for ZeroedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: ZeroDefault> Drop for ZeroedVec<T> {
    fn drop(&mut self) {
        if self.mapped > 0 {
            // SAFETY: `ptr` and `mapped` describe this table's live
            // mapping, and nothing refers to it after the drop.
            unsafe { sys::unmap(self.ptr.as_ptr().cast(), self.mapped) };
        }
    }
}

impl<T: ZeroDefault> Clone for ZeroedVec<T> {
    fn clone(&self) -> Self {
        let mut copy = ZeroedVec::new();
        copy.grow(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl<T: ZeroDefault> fmt::Debug for ZeroedVec<T> {
    // Tables run to gigabytes; print the shape, not the contents.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZeroedVec").field("len", &self.len).finish()
    }
}

/// Private anonymous mappings straight from the kernel.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::alloc::{handle_alloc_error, Layout};
    use std::ffi::{c_int, c_void};

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    /// Reserve no swap or commit charge up front: the dense tables are
    /// sized for the whole address range (tens of GB at a million flows)
    /// but touched sparsely, so a strict commit check would refuse a
    /// mapping whose pages are mostly never faulted in.
    const MAP_NORESERVE: c_int = 0x4000;
    const MREMAP_MAYMOVE: c_int = 1;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn mremap(
            old: *mut c_void,
            old_len: usize,
            new_len: usize,
            flags: c_int,
            ...
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// Grows the mapping `(ptr, old)` to `new` bytes — or makes a fresh
    /// one when `old == 0` — and returns its start. The kernel moves the
    /// pages, never their contents, and zero-fills the new tail.
    ///
    /// # Safety
    ///
    /// `(ptr, old)` must be a live mapping from this module (ignored when
    /// `old == 0`), and `new > old`. The old mapping is gone afterwards.
    pub(super) unsafe fn remap(ptr: *mut c_void, old: usize, new: usize) -> *mut c_void {
        let p = if old == 0 {
            // SAFETY: an anonymous private mapping aliases nothing.
            unsafe {
                mmap(
                    std::ptr::null_mut(),
                    new,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                    -1,
                    0,
                )
            }
        } else {
            // SAFETY: the caller passes a live mapping of `old` bytes.
            unsafe { mremap(ptr, old, new, MREMAP_MAYMOVE) }
        };
        if p == MAP_FAILED {
            handle_alloc_error(Layout::from_size_align(new, 1).expect("size fits isize"));
        }
        p
    }

    /// Releases the mapping `(ptr, len)`.
    ///
    /// # Safety
    ///
    /// `(ptr, len)` must be a live mapping from this module, unused
    /// afterwards.
    pub(super) unsafe fn unmap(ptr: *mut c_void, len: usize) {
        // SAFETY: the caller passes a live mapping it no longer uses.
        unsafe { munmap(ptr, len) };
    }
}

/// Portable stand-in: zeroed global-allocator blocks, copied on growth.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
    use std::ffi::c_void;

    /// Alignment of every block: enough for any table element.
    const ALIGN: usize = 4096;

    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes, ALIGN).expect("size fits isize")
    }

    /// See the Linux version.
    ///
    /// # Safety
    ///
    /// As for the Linux version.
    pub(super) unsafe fn remap(ptr: *mut c_void, old: usize, new: usize) -> *mut c_void {
        // SAFETY: `new > old >= 0`, so the layout has non-zero size.
        let p = unsafe { alloc_zeroed(layout(new)) };
        if p.is_null() {
            handle_alloc_error(layout(new));
        }
        if old > 0 {
            // SAFETY: the caller passes a live block of `old` bytes, which
            // cannot overlap the fresh one; it is released right after.
            unsafe {
                std::ptr::copy_nonoverlapping(ptr.cast::<u8>(), p, old);
                unmap(ptr, old);
            }
        }
        p.cast()
    }

    /// See the Linux version.
    ///
    /// # Safety
    ///
    /// As for the Linux version.
    pub(super) unsafe fn unmap(ptr: *mut c_void, len: usize) {
        // SAFETY: the caller passes a live block of `len` bytes.
        unsafe { dealloc(ptr.cast(), layout(len)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_matches_resize() {
        let mut a: ZeroedVec<u64> = ZeroedVec::new();
        let mut b: Vec<u64> = Vec::new();
        for (i, len) in [17, 1000, 1001, 1_000_000].into_iter().enumerate() {
            a.grow(len);
            b.resize(len, 0);
            a[len - 1] = i as u64;
            b[len - 1] = i as u64;
            assert_eq!(&a[..], &b[..]);
        }
    }

    #[test]
    fn shrink_and_same_len_are_noops() {
        let mut v: ZeroedVec<u32> = ZeroedVec::new();
        v.grow(5);
        v.fill(7);
        v.grow(3);
        assert_eq!(&v[..], &[7; 5]);
        v.grow(5);
        assert_eq!(&v[..], &[7; 5]);
    }

    #[test]
    fn clone_copies_contents() {
        let mut v: ZeroedVec<u32> = ZeroedVec::new();
        assert!(v.clone().is_empty());
        v.grow(3000);
        v[2999] = 9;
        let c = v.clone();
        drop(v);
        assert_eq!(c.len(), 3000);
        assert_eq!(c[2999], 9);
        assert_eq!(c[..2999].iter().max(), Some(&0));
    }

    /// A table far larger than the host's memory costs only the pages it
    /// writes: the mapping is reserved lazily, not committed up front.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn sparse_table_larger_than_memory() {
        let len = (64usize << 30) / size_of::<u64>();
        let mut v: ZeroedVec<u64> = ZeroedVec::new();
        v.grow(len);
        v[len - 1] = 7;
        assert_eq!(v[len - 1], 7);
        for i in [0, 1, len / 2, len - 2] {
            assert_eq!(v[i], 0);
        }
    }
}
