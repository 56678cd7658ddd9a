//! Slotted pages: the unit of heap storage.
//!
//! Layout (offsets in bytes):
//! ```text
//! 0..2   slot_count   (u16)
//! 2..4   free_end     (u16)  -- tuple data grows downward from PAGE_SIZE
//! 4..    slot array   (4 bytes each: u16 offset, u16 len)
//! ...    free space
//! ...    tuple data   (packed at the end of the page)
//! ```
//! A slot with `len == 0` is a tombstone (deleted tuple).
//!
//! A page is a plain buffer: sharing it between table versions, and
//! copying it on the first write, is the heap's [`crate::spine::Spine`]'s
//! job. A write that may be refused is therefore checked first
//! ([`Page::fits`], [`Page::is_live`], [`Page::get`] for an overwrite's
//! width), so it never copies.

/// Page size in bytes. 8 KiB, matching the common DBMS default.
pub const PAGE_SIZE: usize = 8192;
const HEADER: usize = 4;
const SLOT: usize = 4;

/// A single slotted page.
#[derive(Clone)]
pub struct Page {
    data: [u8; PAGE_SIZE],
}

impl Page {
    /// Create an empty page.
    pub fn new() -> Self {
        let mut data = [0u8; PAGE_SIZE];
        write_u16(&mut data, 2, PAGE_SIZE as u16);
        Page { data }
    }

    pub fn slot_count(&self) -> u16 {
        read_u16(&self.data, 0)
    }

    fn free_end(&self) -> usize {
        read_u16(&self.data, 2) as usize
    }

    fn slot(&self, idx: u16) -> (usize, usize) {
        let base = HEADER + idx as usize * SLOT;
        (
            read_u16(&self.data, base) as usize,
            read_u16(&self.data, base + 2) as usize,
        )
    }

    /// Bytes of free space remaining (accounting for the slot entry an
    /// insert would need).
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER + self.slot_count() as usize * SLOT;
        self.free_end().saturating_sub(slots_end)
    }

    /// Whether a tuple of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    /// Insert a tuple, returning its slot id, or `None` if it does not fit.
    pub fn insert(&mut self, tuple: &[u8]) -> Option<u16> {
        if !self.fits(tuple.len()) {
            return None;
        }
        let slot_idx = self.slot_count();
        let new_end = self.free_end() - tuple.len();
        let data = &mut self.data;
        data[new_end..new_end + tuple.len()].copy_from_slice(tuple);
        let base = HEADER + slot_idx as usize * SLOT;
        write_u16(data, base, new_end as u16);
        write_u16(data, base + 2, tuple.len() as u16);
        write_u16(data, 0, slot_idx + 1);
        write_u16(data, 2, new_end as u16);
        Some(slot_idx)
    }

    /// Read a tuple by slot id. Returns `None` for out-of-range slots and
    /// tombstones.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return None;
        }
        Some(&self.data[off..off + len])
    }

    /// Whether `slot` holds a live tuple (in range, not a tombstone).
    pub fn is_live(&self, slot: u16) -> bool {
        slot < self.slot_count() && self.slot(slot).1 != 0
    }

    /// Tombstone a slot. Space is not reclaimed (read-mostly workload).
    /// Returns true if the slot existed and was live.
    pub fn delete(&mut self, slot: u16) -> bool {
        if !self.is_live(slot) {
            return false;
        }
        write_u16(&mut self.data, HEADER + slot as usize * SLOT + 2, 0);
        true
    }

    /// Replace a live tuple's bytes in place with `tuple` of the same
    /// length; the slot keeps its id and offset. Returns false, writing
    /// nothing, for a dead slot or a different length.
    pub fn overwrite(&mut self, slot: u16, tuple: &[u8]) -> bool {
        if self.get(slot).map(<[u8]>::len) != Some(tuple.len()) {
            return false;
        }
        let (off, len) = self.slot(slot);
        self.data[off..off + len].copy_from_slice(tuple);
        true
    }

    /// Iterate over live tuples as `(slot, bytes)`.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|t| (s, t)))
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn write_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let tuple = vec![0xabu8; 100];
        let mut n = 0;
        while p.insert(&tuple).is_some() {
            n += 1;
        }
        // 8192 - 4 header; each tuple costs 104 bytes -> ~78 tuples.
        assert!(n >= 70, "inserted only {n}");
        assert!(!p.fits(100));
        assert!(p.fits(0) || !p.fits(1)); // no panic on boundary checks
    }

    #[test]
    fn delete_tombstones() {
        let mut p = Page::new();
        let a = p.insert(b"abc").unwrap();
        assert!(p.delete(a));
        assert!(p.get(a).is_none());
        assert!(!p.delete(a), "double delete must be a no-op");
        assert_eq!(p.iter().count(), 0);
    }

    #[test]
    fn overwrite_keeps_the_slot_and_refuses_a_new_width() {
        let mut p = Page::new();
        let a = p.insert(b"abc").unwrap();
        let b = p.insert(b"xyz").unwrap();
        assert!(p.overwrite(a, b"ABC"));
        assert_eq!(
            (p.get(a).unwrap(), p.get(b).unwrap()),
            (&b"ABC"[..], &b"xyz"[..])
        );
        assert!(!p.overwrite(a, b"ABCD"), "a longer tuple is refused");
        assert!(!p.overwrite(a, b"AB"), "so is a shorter one");
        assert!(!p.overwrite(9, b"ABC"), "and a slot past the end");
        p.delete(b);
        assert!(!p.overwrite(b, b"XYZ"), "and a tombstone");
        assert_eq!(p.get(a).unwrap(), b"ABC");
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut p = Page::new();
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(a);
        p.delete(c);
        let live: Vec<_> = p.iter().map(|(_, t)| t.to_vec()).collect();
        assert_eq!(live, vec![b"b".to_vec()]);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        // zero-length is indistinguishable from a tombstone by design; we
        // document that empty tuples read back as None.
        assert!(p.get(s).is_none());
    }
}
