//! Frozen pages: immutable, shared byte chunks that carry their digest.
//!
//! A [`Page`] is the unit the checkpoint data path shares instead of
//! copying: one [`crate::memory::PAGE`]-sized chunk of a
//! [`crate::memory::DenseSnap`], the same handle inside a
//! [`crate::scatter::Segment::Shared`], a store's page pool or a restored
//! address space. Because the bytes never change once frozen, the page
//! can also remember their XXH64 ([`checksum_bytes`]): the first
//! [`Page::digest`] computes it, and every later call — through any
//! clone, in any snapshot epoch, image or store layer — reads it back.
//! A clean page shared across a run is therefore digested at most once
//! in its life. Anything that makes new bytes (a dirty-page copy, a
//! patch, a flat decode) makes a new page with an empty digest, so a
//! cached digest can never go stale.
//!
//! A page is one allocation holding its digest cell and a full
//! [`PAGE`]-byte frame, of which the first `len` bytes are content (only
//! a region's final page is ever shorter). Keeping the cell beside the
//! bytes, rather than in a second small allocation, keeps the allocator
//! from interleaving long-lived small chunks with the page frames.

use crate::checksum::checksum_bytes;
use crate::memory::PAGE;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

const FRAME: usize = PAGE as usize;

struct Frozen {
    digest: OnceLock<u64>,
    len: usize,
    frame: [u8; FRAME],
}

/// A shared, immutable page of at most [`PAGE`] bytes with a lazily
/// computed digest. Cloning bumps a reference count; the bytes and the
/// digest are shared.
#[derive(Clone)]
pub struct Page(Arc<Frozen>);

impl Page {
    /// Freeze a copy of `bytes` as a new page (no digest yet).
    ///
    /// # Panics
    /// If `bytes` is longer than [`PAGE`].
    pub fn new(bytes: &[u8]) -> Page {
        assert!(
            bytes.len() <= FRAME,
            "a page holds at most {FRAME} bytes, got {}",
            bytes.len()
        );
        let mut frozen = Arc::new(Frozen {
            digest: OnceLock::new(),
            len: bytes.len(),
            frame: [0; FRAME],
        });
        Arc::get_mut(&mut frozen)
            .expect("a fresh Arc is unique")
            .frame[..bytes.len()]
            .copy_from_slice(bytes);
        Page(frozen)
    }

    /// [`checksum_bytes`] of the page, computed on the first call and
    /// cached for every holder of the page.
    pub fn digest(&self) -> u64 {
        self.digest_computed().0
    }

    /// The page's digest and whether this call computed it (`true` on
    /// the one cache miss of the page's life).
    pub fn digest_computed(&self) -> (u64, bool) {
        let mut computed = false;
        let d = *self.0.digest.get_or_init(|| {
            computed = true;
            checksum_bytes(self)
        });
        (d, computed)
    }

    /// The digest if some holder has already computed it.
    pub fn cached_digest(&self) -> Option<u64> {
        self.0.digest.get().copied()
    }

    /// Whether `a` and `b` are the same page (shared, not merely equal).
    pub fn ptr_eq(a: &Page, b: &Page) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Page {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.frame[..self.0.len]
    }
}

impl PartialEq for Page {
    /// Content equality; the same page compares equal without reading
    /// its bytes.
    fn eq(&self, other: &Page) -> bool {
        Page::ptr_eq(self, other) || **self == **other
    }
}

impl Eq for Page {}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AddressSpace, Backing, DenseBuf, Half, RegionKind, SnapshotContent};
    use crate::scatter::{ScatterBuf, Segment};

    #[test]
    fn digest_is_the_checksum_and_is_computed_once() {
        let page = Page::new(&[5u8; 4096]);
        let twin = page.clone();
        assert_eq!(page.cached_digest(), None);
        assert_eq!(page.digest_computed(), (checksum_bytes(&[5u8; 4096]), true));
        // Every holder sees the one computed digest; no second miss.
        assert_eq!(twin.cached_digest(), Some(page.digest()));
        assert!(!twin.digest_computed().1);
        // Equal bytes in a new page start with an empty digest.
        let copy = Page::new(&page);
        assert_eq!(copy, page);
        assert!(!Page::ptr_eq(&copy, &page));
        assert_eq!(copy.cached_digest(), None);
    }

    #[test]
    fn digests_travel_with_shared_pages() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "state",
                4 * PAGE,
                Backing::Dense(DenseBuf::zeroed(4 * PAGE as usize)),
            )
            .unwrap();
        let dense = |snap: &crate::memory::HalfSnapshot| match &snap.regions[0].content {
            SnapshotContent::Dense(d) => d.clone(),
            SnapshotContent::Pattern { .. } => panic!("dense region expected"),
        };
        let s1 = dense(&a.snapshot_half_tracked(Half::Upper));
        a.clear_dirty(Half::Upper);
        let clone = s1.clone();
        for i in 0..s1.page_count() {
            assert!(s1.page_handle(i).digest_computed().1);
            assert!(clone.page_handle(i).cached_digest().is_some());
        }

        // The next epoch's clean pages are the same pages, digest
        // included; the dirty one is a new page with no digest.
        a.write_bytes(addr + PAGE, &[1]).unwrap();
        let s2 = dense(&a.snapshot_half_tracked(Half::Upper));
        for i in 0..s2.page_count() {
            let cached = s2.page_handle(i).cached_digest();
            assert_eq!(cached.is_some(), i != 1, "page {i}");
        }

        // A scatter carries the handle as-is.
        let mut sc = ScatterBuf::new();
        sc.push_shared(s2.page_handle(0));
        match sc.raw_segments() {
            [Segment::Shared(p)] => assert_eq!(p.cached_digest(), Some(s1.page_handle(0).digest())),
            _ => panic!("one shared segment expected"),
        }
    }
}
