//! Copy-on-write arenas: the one structure behind heap pages and index
//! nodes.
//!
//! A [`Spine`] is a growable array whose elements each sit behind an
//! `Arc`, grouped into fixed chunks of [`CHUNK`] handles, each chunk behind
//! an `Arc` of its own. So a version of a table costs what it changed, not
//! what it holds:
//!
//! * `clone` bumps one count per chunk, ⌈len / [`CHUNK`]⌉ in all;
//! * the first write into a chunk another clone still shares copies that
//!   chunk's ≤ [`CHUNK`] handles once, then the element itself if another
//!   chunk still holds it ([`Spine::get_mut`]); a later write into the same
//!   chunk copies at most its element;
//! * dropping a version releases its chunks, and an element only when the
//!   last chunk holding it goes.
//!
//! An element's index never changes, so the B+tree and the R-tree use it
//! as a node's identity in every version: a copied node needs no pointer
//! fix-up in its parent or in a leaf chain. [`Spine::copies`] tallies what
//! writes copied; the tally is carried across `clone`, so a writer reads
//! its own cost as a delta.
//!
//! A write that may be refused (a delete of a dead slot, a page too full
//! for a tuple) must be checked through [`Spine::get`] first: `get_mut`
//! copies before it returns.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Handles per chunk. A power of two, so an index splits into chunk and
/// slot with a shift and a mask.
pub const CHUNK: usize = 32;
const SHIFT: u32 = CHUNK.trailing_zeros();
const MASK: usize = CHUNK - 1;
const _: () = assert!(CHUNK.is_power_of_two());

/// Slots at or past the spine's length are `None` (only the last chunk
/// has any).
type Chunk<T> = [Option<Arc<T>>; CHUNK];

/// What copy-on-write has copied in one spine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Copies {
    /// Elements copied because a write hit one another chunk still held.
    pub elements: u64,
    /// Chunks copied because a write (or a push) hit one another clone
    /// still shared.
    pub chunks: u64,
}

impl std::ops::AddAssign for Copies {
    fn add_assign(&mut self, other: Copies) {
        self.elements += other.elements;
        self.chunks += other.chunks;
    }
}

/// A two-level copy-on-write arena; see the module docs.
pub struct Spine<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
    copies: Copies,
}

impl<T> Clone for Spine<T> {
    /// Shares every chunk: one refcount bump per chunk.
    fn clone(&self) -> Self {
        Spine {
            chunks: self.chunks.clone(),
            len: self.len,
            copies: self.copies,
        }
    }
}

impl<T> Default for Spine<T> {
    fn default() -> Self {
        Spine::new()
    }
}

impl<T> Spine<T> {
    pub fn new() -> Self {
        Spine {
            chunks: Vec::new(),
            len: 0,
            copies: Copies::default(),
        }
    }

    /// An empty spine with room for `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        Spine {
            chunks: Vec::with_capacity(n.div_ceil(CHUNK)),
            len: 0,
            copies: Copies::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunks, i.e. the refcount bumps a `clone` costs.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// What writes have copied so far, carried across `clone`.
    pub fn copies(&self) -> Copies {
        self.copies
    }

    /// Continue the copy tally of the spine this one replaces, so the
    /// tally stays monotone across a rewrite of the whole arena.
    pub fn carry(&mut self, from_predecessor: Copies) {
        self.copies += from_predecessor;
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> SHIFT)?[i & MASK].as_deref()
    }

    pub fn last(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    /// Append an element and return its index. Copies the last chunk
    /// first if another clone shares it; never copies an element.
    pub fn push(&mut self, value: T) -> usize {
        let at = self.len;
        if at & MASK == 0 {
            self.chunks.push(Arc::new(std::array::from_fn(|_| None)));
        }
        let chunk = unshare(&mut self.chunks[at >> SHIFT], &mut self.copies.chunks);
        chunk[at & MASK] = Some(Arc::new(value));
        self.len += 1;
        at
    }

    /// Elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter().map_while(Option::as_deref))
    }
}

impl<T: Clone> Spine<T> {
    /// Writable access to element `i`: its chunk is copied first if another
    /// clone shares it, then the element if another chunk still holds it.
    /// `None` (and nothing copied) when `i` is out of range.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let chunk = unshare(&mut self.chunks[i >> SHIFT], &mut self.copies.chunks);
        let element = chunk[i & MASK]
            .as_mut()
            .expect("slots below len are filled");
        Some(unshare(element, &mut self.copies.elements))
    }
}

/// `Arc::make_mut`, counting the copy it makes: the value moved iff it was
/// cloned (no `Weak` handle is ever made). One atomic read-modify-write
/// when nothing is shared, and no window for a concurrent drop of the
/// other handle to make the count disagree with the copy.
fn unshare<'a, X: Clone>(arc: &'a mut Arc<X>, copied: &mut u64) -> &'a mut X {
    let before = Arc::as_ptr(arc);
    let value = Arc::make_mut(arc);
    if !std::ptr::eq(before, value) {
        *copied += 1;
    }
    value
}

impl<T> Spine<T> {
    /// A spine over elements already behind their `Arc`s, allocating its
    /// chunks one after another: the chunks of a spine built in one go sit
    /// side by side in memory, as a flat array of handles would, while each
    /// element stays where the caller allocated it.
    pub fn from_handles(handles: Vec<Arc<T>>) -> Self {
        let len = handles.len();
        let mut handles = handles.into_iter();
        let chunks = (0..len.div_ceil(CHUNK))
            .map(|_| Arc::new(std::array::from_fn(|_| handles.next())))
            .collect();
        Spine {
            chunks,
            len,
            copies: Copies::default(),
        }
    }
}

impl<T> Index<usize> for Spine<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i).expect("spine index out of range")
    }
}

impl<T: Clone> IndexMut<usize> for Spine<T> {
    /// [`Spine::get_mut`], panicking out of range.
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i).expect("spine index out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts the element clones of one test.
    #[derive(Clone, Default)]
    struct Clones(Arc<AtomicUsize>);

    impl Clones {
        fn get(&self) -> usize {
            self.0.load(Ordering::Relaxed)
        }

        fn element(&self, value: u32) -> Counted {
            Counted {
                value,
                clones: self.clone(),
            }
        }
    }

    /// An element whose `clone` is counted.
    struct Counted {
        value: u32,
        clones: Clones,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.0.fetch_add(1, Ordering::Relaxed);
            self.clones.element(self.value)
        }
    }

    fn counted(n: u32) -> (Spine<Counted>, Clones) {
        let clones = Clones::default();
        let mut s = Spine::new();
        for value in 0..n {
            assert_eq!(s.push(clones.element(value)), value as usize);
        }
        (s, clones)
    }

    fn values(s: &Spine<Counted>) -> Vec<u32> {
        s.iter().map(|c| c.value).collect()
    }

    #[test]
    fn cloning_copies_no_element() {
        let (base, clones) = counted(1000);
        let next = base.clone();
        assert_eq!(clones.get(), 0);
        assert_eq!(next.chunk_count(), 1000usize.div_ceil(CHUNK));
        assert_eq!(values(&next), (0..1000).collect::<Vec<_>>());
        assert_eq!(next.copies(), Copies::default());
    }

    #[test]
    fn first_write_copies_the_chunk_once_and_the_element() {
        let (base, clones) = counted(3 * CHUNK as u32);
        let mut next = base.clone();
        next.get_mut(CHUNK + 1).unwrap().value = 1000;
        assert_eq!(clones.get(), 1);
        assert_eq!(
            next.copies(),
            Copies {
                elements: 1,
                chunks: 1
            }
        );
        // the same element again: nothing is shared any more
        next.get_mut(CHUNK + 1).unwrap().value = 1001;
        assert_eq!(clones.get(), 1);
        // a neighbour in the same chunk: its handle was already copied, the
        // element is still held by the base's chunk
        next[CHUNK + 2].value = 1002;
        assert_eq!(clones.get(), 2);
        assert_eq!(
            next.copies(),
            Copies {
                elements: 2,
                chunks: 1
            }
        );
        assert_eq!((next[CHUNK + 1].value, next[CHUNK + 2].value), (1001, 1002));
        assert_eq!(values(&base), (0..3 * CHUNK as u32).collect::<Vec<_>>());
        assert_eq!(base.copies(), Copies::default());
    }

    #[test]
    fn a_refused_write_copies_nothing() {
        let (base, clones) = counted(CHUNK as u32 + 3);
        let mut next = base.clone();
        assert!(next.get_mut(CHUNK + 3).is_none());
        assert!(next.get_mut(usize::MAX).is_none());
        assert_eq!((clones.get(), next.copies()), (0, Copies::default()));
    }

    #[test]
    fn a_spine_over_handles_is_the_spine_pushes_build() {
        let (pushed, clones) = counted(CHUNK as u32 + 3);
        let handles = (0..CHUNK as u32 + 3)
            .map(|value| Arc::new(clones.element(value)))
            .collect();
        let mut built = Spine::from_handles(handles);
        assert_eq!((built.len(), built.chunk_count()), (CHUNK + 3, 2));
        assert_eq!(values(&built), values(&pushed));
        assert!(built.get(CHUNK + 3).is_none());
        let at = built.push(clones.element(7));
        assert_eq!(
            (at, built.copies(), clones.get()),
            (CHUNK + 3, Copies::default(), 0)
        );
    }

    #[test]
    fn a_push_into_a_shared_chunk_copies_its_handles_not_its_elements() {
        let (base, clones) = counted(CHUNK as u32 + 1);
        let mut next = base.clone();
        let at = next.push(clones.element(99));
        assert_eq!(at, CHUNK + 1);
        assert_eq!(
            next.copies(),
            Copies {
                elements: 0,
                chunks: 1
            }
        );
        assert_eq!(clones.get(), 0);
        assert_eq!((base.len(), next.len()), (CHUNK + 1, CHUNK + 2));
        assert!(base.get(CHUNK + 1).is_none());
        assert_eq!(next.last().unwrap().value, 99);
    }

    #[test]
    fn a_rewrite_carries_the_tally() {
        let (base, _) = counted(4);
        let mut next = base.clone();
        next[0].value = 7;
        let mut rebuilt: Spine<Counted> = Spine::with_capacity(4);
        rebuilt.carry(next.copies());
        assert!(rebuilt.is_empty());
        assert_eq!(
            rebuilt.copies(),
            Copies {
                elements: 1,
                chunks: 1
            }
        );
    }
}
