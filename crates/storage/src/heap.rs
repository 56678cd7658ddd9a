//! Table heaps: append-oriented collections of slotted pages.

use crate::error::{Result, StorageError};
use crate::page::{Page, PAGE_SIZE};
use crate::spine::{Copies, Spine};

/// Physical address of a tuple: page number + slot within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    pub page: u32,
    pub slot: u16,
}

impl RecordId {
    pub fn new(page: u32, slot: u16) -> Self {
        RecordId { page, slot }
    }

    /// Pack into a u64 (page in high bits) for index payloads.
    pub fn to_u64(self) -> u64 {
        (u64::from(self.page) << 16) | u64::from(self.slot)
    }

    pub fn from_u64(v: u64) -> Self {
        RecordId {
            page: (v >> 16) as u32,
            slot: (v & 0xffff) as u16,
        }
    }
}

/// An append-oriented heap of slotted pages.
///
/// The pages sit in a [`Spine`]: `Clone` shares them with the original
/// (one refcount bump per chunk of pages), and a write copies only the
/// page it lands on (plus, the first time, its chunk's handles).
#[derive(Clone, Default)]
pub struct TableHeap {
    pages: Spine<Page>,
    live: usize,
}

impl TableHeap {
    pub fn new() -> Self {
        TableHeap::default()
    }

    /// An empty heap that continues this one's copy tally — what a
    /// rewrite of the whole heap fills, so [`crate::Table::cow_stats`]
    /// stays monotone across it.
    pub(crate) fn successor(&self) -> Self {
        let mut pages = Spine::with_capacity(self.pages.len());
        pages.carry(self.pages.copies());
        TableHeap { pages, live: 0 }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Pages (`elements`) and chunks of page handles copied so far by
    /// writes that hit one shared with another clone.
    pub(crate) fn copies(&self) -> Copies {
        self.pages.copies()
    }

    /// Append a tuple; allocates a new page when the last one is full.
    pub fn insert(&mut self, tuple: &[u8]) -> Result<RecordId> {
        if tuple.len() + 8 > PAGE_SIZE {
            return Err(StorageError::TupleTooLarge(tuple.len()));
        }
        let pno = match self.pages.last() {
            Some(last) if last.fits(tuple.len()) => self.pages.len() - 1,
            _ => self.pages.push(Page::new()),
        };
        let slot = self.pages[pno]
            .insert(tuple)
            .ok_or(StorageError::TupleTooLarge(tuple.len()))?;
        self.live += 1;
        Ok(RecordId::new(pno as u32, slot))
    }

    /// Point lookup.
    pub fn get(&self, rid: RecordId) -> Option<&[u8]> {
        self.pages.get(rid.page as usize)?.get(rid.slot)
    }

    /// Tombstone a tuple. Returns whether it was live; a refused delete
    /// copies nothing.
    pub fn delete(&mut self, rid: RecordId) -> bool {
        let pno = rid.page as usize;
        if !self.pages.get(pno).is_some_and(|p| p.is_live(rid.slot)) {
            return false;
        }
        self.pages[pno].delete(rid.slot);
        self.live -= 1;
        true
    }

    /// Replace a live tuple's bytes with `tuple` of the same length, in
    /// place: the record id stays. Returns false for a dead slot or a
    /// different length; a refused overwrite copies nothing.
    pub fn overwrite(&mut self, rid: RecordId, tuple: &[u8]) -> bool {
        let pno = rid.page as usize;
        let fits = (self.pages.get(pno).and_then(|p| p.get(rid.slot)))
            .is_some_and(|old| old.len() == tuple.len());
        fits && self.pages[pno].overwrite(rid.slot, tuple)
    }

    /// Full scan over live tuples.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &[u8])> {
        self.pages.iter().enumerate().flat_map(|(pno, page)| {
            page.iter()
                .map(move |(slot, t)| (RecordId::new(pno as u32, slot), t))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_u64_roundtrip() {
        let rid = RecordId::new(123_456, 789);
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn insert_spills_to_new_pages() {
        let mut h = TableHeap::new();
        let tuple = vec![7u8; 1000];
        let mut rids = Vec::new();
        for _ in 0..50 {
            rids.push(h.insert(&tuple).unwrap());
        }
        assert!(
            h.bytes() > PAGE_SIZE,
            "50 tuples of 1000 bytes fit one page"
        );
        assert_eq!(h.len(), 50);
        for rid in rids {
            assert_eq!(h.get(rid).unwrap(), &tuple[..]);
        }
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut h = TableHeap::new();
        assert!(matches!(
            h.insert(&vec![0u8; PAGE_SIZE]),
            Err(StorageError::TupleTooLarge(_))
        ));
    }

    #[test]
    fn clone_shares_pages_and_a_write_copies_one() {
        let mut base = TableHeap::new();
        let tuple = vec![7u8; 1000];
        let rids: Vec<_> = (0..50).map(|_| base.insert(&tuple).unwrap()).collect();
        let mut next = base.clone();
        assert_eq!(next.copies(), Copies::default());
        // a refused write copies nothing: a slot past the page's end, a
        // page past the heap's end
        assert!(!next.delete(RecordId::new(0, 99)));
        assert!(!next.delete(RecordId::new(99, 0)));
        assert_eq!(next.copies(), Copies::default());
        // two deletes on one page copy it once; the base keeps its rows
        assert!(next.delete(rids[0]));
        assert!(next.delete(rids[1]));
        assert_eq!(
            next.copies(),
            Copies {
                elements: 1,
                chunks: 1
            }
        );
        // a dead slot on a page this clone already owns is refused too
        assert!(!next.delete(rids[0]));
        assert_eq!((base.len(), next.len()), (50, 48));
        assert_eq!(base.get(rids[0]).unwrap(), &tuple[..]);
        assert!(next.get(rids[0]).is_none());
        // an append copies the shared last page, never a fresh one
        next.insert(b"tail").unwrap();
        assert_eq!(next.copies().elements, 2);
        assert_eq!(base.copies(), Copies::default());
    }

    #[test]
    fn a_delete_of_a_dead_slot_on_a_shared_page_copies_nothing() {
        let mut base = TableHeap::new();
        let rid = base.insert(b"row").unwrap();
        assert!(base.delete(rid));
        let mut next = base.clone();
        assert!(!next.delete(rid));
        assert_eq!(next.copies(), Copies::default());
    }

    #[test]
    fn an_overwrite_copies_its_page_once_and_a_refusal_copies_nothing() {
        let mut base = TableHeap::new();
        let rid = base.insert(b"row").unwrap();
        let dead = base.insert(b"old").unwrap();
        assert!(base.delete(dead));
        let mut next = base.clone();
        assert!(!next.overwrite(rid, b"wider"));
        assert!(!next.overwrite(dead, b"new"));
        assert!(!next.overwrite(RecordId::new(9, 0), b"row"));
        assert_eq!(next.copies(), Copies::default());
        assert!(next.overwrite(rid, b"ROW"));
        assert_eq!(next.copies().elements, 1);
        assert_eq!(
            (base.get(rid).unwrap(), next.get(rid).unwrap()),
            (&b"row"[..], &b"ROW"[..])
        );
        assert_eq!(next.len(), 1);
    }

    #[test]
    fn scan_sees_all_live() {
        let mut h = TableHeap::new();
        let a = h.insert(b"one").unwrap();
        let _ = h.insert(b"two").unwrap();
        let _ = h.insert(b"three").unwrap();
        h.delete(a);
        let seen: Vec<_> = h.iter().map(|(_, t)| t.to_vec()).collect();
        assert_eq!(seen, vec![b"two".to_vec(), b"three".to_vec()]);
        assert_eq!(h.len(), 2);
    }
}
