//! Head/tail pointer table used by the unified linked-list buffer.

/// Head and tail pointers of one linked list, plus its length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ListPointers {
    head: Option<u32>,
    tail: Option<u32>,
    len: u32,
}

/// A table of head/tail pointers, one entry per linked list.
///
/// In hardware this is the small two-port direct-mapped structure described in
/// §7.1 ("another direct-mapped structure that stores the head and tail
/// pointers for each of the queues").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointerTable {
    lists: Vec<ListPointers>,
}

impl PointerTable {
    /// Creates a table for `num_lists` empty lists.
    pub fn new(num_lists: usize) -> Self {
        PointerTable {
            lists: vec![ListPointers::default(); num_lists],
        }
    }

    /// Number of lists tracked.
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Head entry index of list `list`, if non-empty.
    pub fn head(&self, list: usize) -> Option<u32> {
        self.lists[list].head
    }

    /// Tail entry index of list `list`, if non-empty.
    pub fn tail(&self, list: usize) -> Option<u32> {
        self.lists[list].tail
    }

    /// Length of list `list`.
    pub fn len(&self, list: usize) -> usize {
        self.lists[list].len as usize
    }

    /// Whether list `list` is empty.
    pub fn is_empty(&self, list: usize) -> bool {
        self.lists[list].len == 0
    }

    /// Records that `entry` became the new tail of `list`; returns the
    /// previous tail (whose next pointer must be updated by the caller).
    pub fn push_tail(&mut self, list: usize, entry: u32) -> Option<u32> {
        let l = &mut self.lists[list];
        let prev = l.tail;
        l.tail = Some(entry);
        if l.head.is_none() {
            l.head = Some(entry);
        }
        l.len += 1;
        prev
    }

    /// Removes the head of `list`, making `new_head` (the old head's next
    /// pointer) the new head. Returns the removed entry index.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty.
    pub fn pop_head(&mut self, list: usize, new_head: Option<u32>) -> u32 {
        let l = &mut self.lists[list];
        let old = l.head.expect("pop_head on empty list");
        l.head = new_head;
        l.len -= 1;
        if l.len == 0 {
            l.head = None;
            l.tail = None;
        }
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_pop_maintain_pointers() {
        let mut t = PointerTable::new(2);
        assert!(t.is_empty(0));
        assert_eq!(t.push_tail(0, 10), None);
        assert_eq!(t.push_tail(0, 11), Some(10));
        assert_eq!(t.head(0), Some(10));
        assert_eq!(t.tail(0), Some(11));
        assert_eq!(t.len(0), 2);
        assert_eq!(t.pop_head(0, Some(11)), 10);
        assert_eq!(t.head(0), Some(11));
        assert_eq!(t.pop_head(0, None), 11);
        assert!(t.is_empty(0));
        assert_eq!(t.tail(0), None);
        assert_eq!(t.num_lists(), 2);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn pop_empty_panics() {
        let mut t = PointerTable::new(1);
        t.pop_head(0, None);
    }

    #[test]
    fn lists_are_independent() {
        let mut t = PointerTable::new(3);
        t.push_tail(1, 5);
        assert!(t.is_empty(0));
        assert!(!t.is_empty(1));
        assert!(t.is_empty(2));
    }
}
