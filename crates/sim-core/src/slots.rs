//! Per-slot state built on first use.
//!
//! A machine provisions flow slots by the hundred thousand but a run
//! uses a few thousand of them. State whose fresh value is all zero bytes
//! costs nothing until written (`vec![0; n]` maps untouched zeroed
//! pages); [`LazySlots`] covers the rest — queues, peers, locks — by
//! building a slot's value the first time the slot is written.

/// Values for slots `0..n`, each built the first time its slot is used
/// mutably.
///
/// Built values live densely in build order; a zero-initialised column
/// of `u32` maps each slot to its value (`0` = not built yet), so an
/// unused slot costs four untouched bytes.
#[derive(Debug, Clone, Default)]
pub struct LazySlots<T> {
    /// `rank[s]`: one plus the position of slot `s`'s value in `values`;
    /// `0` while the slot has none.
    rank: Vec<u32>,
    values: Vec<T>,
}

impl<T> LazySlots<T> {
    /// `n` slots, none built.
    #[must_use]
    pub fn new(n: usize) -> Self {
        LazySlots {
            rank: vec![0; n],
            values: Vec::new(),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// Returns `true` if there are no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Number of slots whose value has been built.
    #[must_use]
    pub fn built(&self) -> usize {
        self.values.len()
    }

    /// Slot `s`'s value, if it has been built.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, s: usize) -> Option<&T> {
        match self.rank[s] {
            0 => None,
            r => Some(&self.values[r as usize - 1]),
        }
    }

    /// Slot `s`'s value for writing, if it has been built.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    pub fn get_mut(&mut self, s: usize) -> Option<&mut T> {
        match self.rank[s] {
            0 => None,
            r => Some(&mut self.values[r as usize - 1]),
        }
    }

    /// Slot `s`'s value, built by `build` first if the slot has none.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    pub fn get_or_insert_with(&mut self, s: usize, build: impl FnOnce() -> T) -> &mut T {
        let r = match self.rank[s] {
            0 => self.insert(s, build()),
            r => r,
        };
        &mut self.values[r as usize - 1]
    }

    #[inline(never)]
    fn insert(&mut self, s: usize, value: T) -> u32 {
        self.values.push(value);
        let r = u32::try_from(self.values.len()).expect("slot count fits u32");
        self.rank[s] = r;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_each_slot_once_on_first_use() {
        let mut slots: LazySlots<Vec<u32>> = LazySlots::new(1_000_000);
        assert_eq!((slots.len(), slots.built()), (1_000_000, 0));
        assert!(slots.get(999_999).is_none());
        slots.get_or_insert_with(999_999, Vec::new).push(7);
        slots.get_or_insert_with(3, || vec![1, 2]).push(3);
        slots
            .get_or_insert_with(999_999, || unreachable!("already built"))
            .push(8);
        assert_eq!(slots.get(999_999).unwrap(), &[7, 8]);
        assert_eq!(slots.get(3).unwrap(), &[1, 2, 3]);
        assert!(slots.get(4).is_none());
        assert_eq!(slots.built(), 2);
    }
}
