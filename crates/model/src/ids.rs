//! Identifiers shared across layers.

use core::fmt;
use core::ops::{Index, IndexMut, Range};

/// A processing node of the simulated multicomputer.
///
/// Plain newtype over the node index; `NodeId(0)..NodeId(n-1)` for an
/// `n`-node machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The node index as a `usize` (for indexing per-node tables).
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Per-node state for the contiguous range of nodes one machine replica
/// owns, indexed by global node index.
///
/// A replica (one shard of a partitioned run, one thread of a native run,
/// or a whole single-shard machine) holds state only for the nodes it
/// executes. Indexing by a node outside the owned range panics with that
/// node's id: reaching it is a routing bug, not a quiet no-op.
#[derive(Debug, Clone)]
pub struct NodeTable<T> {
    first: usize,
    items: Vec<T>,
}

impl<T> NodeTable<T> {
    /// One entry per node of `owned`, built in node order.
    pub fn new(owned: Range<usize>, f: impl FnMut(NodeId) -> T) -> Self {
        NodeTable { first: owned.start, items: owned.map(NodeId).map(f).collect() }
    }

    /// The owned node range.
    pub fn owned(&self) -> Range<usize> {
        self.first..self.first + self.items.len()
    }

    /// The entries, in node order.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Iterate the entries in node order.
    pub fn iter(&self) -> core::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Slot of node `i` in `items`; panics naming `i` when not owned. One
    /// comparison: below the range, the wrapped difference is too large.
    #[inline]
    #[track_caller]
    fn slot(&self, i: usize) -> usize {
        let k = i.wrapping_sub(self.first);
        if k >= self.items.len() {
            not_owned(i, self.owned());
        }
        k
    }
}

#[cold]
#[track_caller]
fn not_owned(i: usize, owned: Range<usize>) -> ! {
    panic!(
        "{} is not owned by this replica (it owns n{}..=n{})",
        NodeId(i),
        owned.start,
        owned.end.saturating_sub(1)
    )
}

impl<T> From<Vec<T>> for NodeTable<T> {
    /// A table owning nodes `0..items.len()`.
    fn from(items: Vec<T>) -> Self {
        NodeTable { first: 0, items }
    }
}

impl<T> Index<usize> for NodeTable<T> {
    type Output = T;

    #[inline]
    #[track_caller]
    fn index(&self, i: usize) -> &T {
        &self.items[self.slot(i)]
    }
}

impl<T> IndexMut<usize> for NodeTable<T> {
    #[inline]
    #[track_caller]
    fn index_mut(&mut self, i: usize) -> &mut T {
        let k = self.slot(i);
        &mut self.items[k]
    }
}

impl<'a, T> IntoIterator for &'a NodeTable<T> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_table_indexes_by_global_id() {
        let t = NodeTable::new(4..7, |id| id.index() * 10);
        assert_eq!(t.owned(), 4..7);
        assert_eq!((t[4], t[6]), (40, 60));
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![40, 50, 60]);
    }

    #[test]
    #[should_panic(expected = "n9 is not owned by this replica (it owns n4..=n6)")]
    fn node_table_panics_naming_a_foreign_node() {
        let t = NodeTable::new(4..7, |_| ());
        let _ = &t[9];
    }

    #[test]
    #[should_panic(expected = "n3 is not owned")]
    fn node_table_panics_below_its_range() {
        let mut t = NodeTable::new(4..7, |_| 0u8);
        t[3] = 1;
    }

    #[test]
    fn node_id_roundtrip_and_display() {
        let n = NodeId(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "n7");
        assert!(NodeId(1) < NodeId(2));
    }
}
