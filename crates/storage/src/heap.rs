//! Table heaps: append-oriented collections of slotted pages.

use crate::error::{Result, StorageError};
use crate::page::{Page, PAGE_SIZE};

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
/// `Clone` shares every page with the original (one refcount bump per
/// page); a write copies only the page it lands on.
#[derive(Clone, Default)]
pub struct TableHeap {
    pages: Vec<Page>,
    live: usize,
    /// Pages copied because a write hit one shared with another clone.
    /// Carried across `clone`, so a writer reads its own cost as a delta.
    pages_copied: u64,
}

impl TableHeap {
    pub fn new() -> Self {
        TableHeap {
            pages: Vec::new(),
            live: 0,
            pages_copied: 0,
        }
    }

    /// An empty heap that continues this one's copy tally — what a
    /// rewrite of the whole heap fills, so [`crate::Table::cow_stats`]
    /// stays monotone across it.
    pub(crate) fn successor(&self) -> Self {
        TableHeap {
            pages: Vec::with_capacity(self.pages.len()),
            live: 0,
            pages_copied: self.pages_copied,
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Pages copied so far by writes to pages shared with another clone.
    pub(crate) fn pages_copied(&self) -> u64 {
        self.pages_copied
    }

    /// Append a tuple; allocates a new page when the last one is full.
    pub fn insert(&mut self, tuple: &[u8]) -> Result<RecordId> {
        if tuple.len() + 8 > PAGE_SIZE {
            return Err(StorageError::TupleTooLarge(tuple.len()));
        }
        if let Some(last) = self.pages.last_mut() {
            let shared = last.is_shared();
            if let Some(slot) = last.insert(tuple) {
                self.live += 1;
                self.pages_copied += u64::from(shared);
                return Ok(RecordId::new((self.pages.len() - 1) as u32, slot));
            }
        }
        let mut page = Page::new();
        let slot = page
            .insert(tuple)
            .ok_or(StorageError::TupleTooLarge(tuple.len()))?;
        self.pages.push(page);
        self.live += 1;
        Ok(RecordId::new((self.pages.len() - 1) as u32, slot))
    }

    /// Point lookup.
    pub fn get(&self, rid: RecordId) -> Option<&[u8]> {
        self.pages.get(rid.page as usize)?.get(rid.slot)
    }

    /// Tombstone a tuple. Returns whether it was live.
    pub fn delete(&mut self, rid: RecordId) -> bool {
        if let Some(p) = self.pages.get_mut(rid.page as usize) {
            let shared = p.is_shared();
            if p.delete(rid.slot) {
                self.live -= 1;
                self.pages_copied += u64::from(shared);
                return true;
            }
        }
        false
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
        assert!(h.page_count() > 1);
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
        assert_eq!(next.pages_copied(), 0);
        // a refused write copies nothing
        assert!(!next.delete(RecordId::new(0, 99)));
        assert_eq!(next.pages_copied(), 0);
        // two deletes on one page copy it once; the base keeps its rows
        assert!(next.delete(rids[0]));
        assert!(next.delete(rids[1]));
        assert_eq!(next.pages_copied(), 1);
        assert_eq!((base.len(), next.len()), (50, 48));
        assert_eq!(base.get(rids[0]).unwrap(), &tuple[..]);
        assert!(next.get(rids[0]).is_none());
        // an append copies the shared last page, never a fresh one
        next.insert(b"tail").unwrap();
        assert_eq!(next.pages_copied(), 2);
        assert_eq!(base.pages_copied(), 0);
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
