//! A reusable **segmented-LRU recency index** over slab slot ids.
//!
//! The result store ([`crate::ResultStore`]) runs this probation/protected
//! policy: fresh entries enter a *probationary* segment and are promoted
//! to a *protected* segment on their first re-use, so a one-shot stream (an open-ended corpus sweep, a
//! cold figure grid) cannot wash a long-lived store's re-used entries out.
//! Eviction takes the probationary LRU first and touches the protected
//! segment only when probation is empty.
//!
//! The index tracks recency *only*: callers own the slab of values and a
//! key map, and pair every slab insert/remove/lookup with the matching
//! [`SlruIndex`] call. Slot ids are the caller's slab indices.

/// Sentinel for "no slot" in the intrusive lists.
const NONE: u32 = u32::MAX;

/// Which segment a tracked slot lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    /// Freshly inserted, not yet re-used.
    Probation,
    /// Re-used at least once; evicted only when probation is empty.
    Protected,
}

/// Head/tail/length of one segment's recency list (head = MRU).
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
    len: usize,
}

impl List {
    const EMPTY: List = List {
        head: NONE,
        tail: NONE,
        len: 0,
    };
}

/// One tracked slot's intrusive links.
#[derive(Clone, Copy, Debug)]
struct Node {
    seg: Segment,
    prev: u32,
    next: u32,
}

/// The segmented-LRU recency index (see the module docs).
#[derive(Debug)]
pub(crate) struct SlruIndex {
    /// Links per slot id. An untracked id's node is stale and never read:
    /// callers pair every insert with one remove.
    nodes: Vec<Node>,
    /// Which ids are tracked, so debug builds catch an unpaired insert,
    /// touch or remove before it corrupts the lists.
    #[cfg(debug_assertions)]
    tracked: Vec<bool>,
    probation: List,
    protected: List,
    /// Maximum protected residents (the classic SLRU ~¾ split); promotion
    /// past this demotes the protected LRU back to probation instead of
    /// evicting it.
    protected_cap: usize,
}

impl SlruIndex {
    /// An empty index whose protected segment holds at most ~¾ of
    /// `capacity` entries.
    pub(crate) fn new(capacity: usize) -> SlruIndex {
        SlruIndex {
            nodes: Vec::new(),
            #[cfg(debug_assertions)]
            tracked: Vec::new(),
            probation: List::EMPTY,
            protected: List::EMPTY,
            protected_cap: (capacity * 3 / 4).max(1),
        }
    }

    fn list_mut(&mut self, seg: Segment) -> &mut List {
        match seg {
            Segment::Probation => &mut self.probation,
            Segment::Protected => &mut self.protected,
        }
    }

    /// Debug builds: asserts that `id` is tracked exactly when `was`, then
    /// records it as tracked exactly when `now`.
    #[cfg(debug_assertions)]
    fn check_tracked(&mut self, id: u32, was: bool, now: bool) {
        let i = id as usize;
        if self.tracked.len() <= i {
            self.tracked.resize(i + 1, false);
        }
        assert_eq!(self.tracked[i], was, "slot {id}: tracked is {}", !was);
        self.tracked[i] = now;
    }

    /// Release builds check nothing.
    #[cfg(not(debug_assertions))]
    fn check_tracked(&mut self, _: u32, _: bool, _: bool) {}

    /// Unthreads `id` from its segment list (the node stays allocated).
    fn unlink(&mut self, id: u32) {
        let Node { seg, prev, next } = self.nodes[id as usize];
        if prev == NONE {
            self.list_mut(seg).head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NONE {
            self.list_mut(seg).tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        self.list_mut(seg).len -= 1;
    }

    /// Starts tracking slot `id` as the probationary MRU.
    pub(crate) fn insert(&mut self, id: u32) {
        self.check_tracked(id, false, true);
        if self.nodes.len() <= id as usize {
            let untracked = Node {
                seg: Segment::Probation,
                prev: NONE,
                next: NONE,
            };
            self.nodes.resize(id as usize + 1, untracked);
        }
        self.push_front(Segment::Probation, id);
    }

    /// Threads `id` (not currently on any list) onto the MRU end of `seg`.
    fn push_front(&mut self, seg: Segment, id: u32) {
        let head = self.list_mut(seg).head;
        self.nodes[id as usize] = Node {
            seg,
            prev: NONE,
            next: head,
        };
        if head != NONE {
            self.nodes[head as usize].prev = id;
        }
        let list = self.list_mut(seg);
        list.head = id;
        if list.tail == NONE {
            list.tail = id;
        }
        list.len += 1;
    }

    /// Records a re-use of `id`: promotes it to the protected MRU,
    /// demoting the protected LRU back to probation when the segment
    /// overflows its share (it stays resident, ahead of cold entries).
    pub(crate) fn touch(&mut self, id: u32) {
        self.check_tracked(id, true, true);
        self.unlink(id);
        self.push_front(Segment::Protected, id);
        while self.protected.len > self.protected_cap {
            let lru = self.protected.tail;
            self.unlink(lru);
            self.push_front(Segment::Probation, lru);
        }
    }

    /// Stops tracking `id` (after the caller removed it from its slab).
    pub(crate) fn remove(&mut self, id: u32) {
        self.check_tracked(id, true, false);
        self.unlink(id);
    }

    /// The current eviction victim: the probationary LRU, else the
    /// protected LRU, else `None` when nothing is tracked. The caller
    /// removes the victim from its slab and then calls
    /// [`SlruIndex::remove`].
    pub(crate) fn victim(&self) -> Option<u32> {
        if self.probation.tail != NONE {
            Some(self.probation.tail)
        } else if self.protected.tail != NONE {
            Some(self.protected.tail)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_fifo_until_touched() {
        let mut ix = SlruIndex::new(8);
        for id in 0..4 {
            ix.insert(id);
        }
        assert_eq!(ix.victim(), Some(0), "probationary LRU is the oldest");
        ix.remove(0);
        assert_eq!(ix.victim(), Some(1));
    }

    #[test]
    fn touched_entries_outlive_a_cold_stream() {
        let mut ix = SlruIndex::new(4);
        ix.insert(0);
        ix.touch(0); // promoted
        for id in 1..40 {
            ix.insert(id);
            let v = ix.victim().unwrap();
            assert_ne!(v, 0, "protected entry must not be the victim");
            ix.remove(v);
        }
    }

    #[test]
    fn protected_overflow_demotes_not_evicts() {
        let mut ix = SlruIndex::new(4); // protected cap = 3
        for id in 0..5 {
            ix.insert(id);
            ix.touch(id);
        }
        // All five still tracked; two have been demoted to probation.
        let mut seen = 0;
        while let Some(v) = ix.victim() {
            ix.remove(v);
            seen += 1;
        }
        assert_eq!(seen, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot 1: tracked is true")]
    fn double_insert_panics_in_debug_builds() {
        let mut ix = SlruIndex::new(4);
        ix.insert(1);
        ix.insert(1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot 2: tracked is false")]
    fn touching_an_untracked_slot_panics_in_debug_builds() {
        let mut ix = SlruIndex::new(4);
        ix.insert(0);
        ix.insert(2);
        ix.remove(2);
        ix.touch(2);
    }
}
