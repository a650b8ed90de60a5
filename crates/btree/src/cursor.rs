//! Forward cursors over the leaf chain.

use bytes::Bytes;
use upi_storage::error::Result;
use upi_storage::PageId;

use crate::node::{NodeKind, NodeView};
use crate::tree::BTree;

/// A forward-only cursor over a [`BTree`]'s leaf chain.
///
/// A cursor holds the current leaf as a **ref-counted snapshot of its
/// buffer-pool frame** plus that page's entry-offset table; keys and
/// values are slices of the frame, so reading an entry copies nothing.
/// A later write to the page installs a new frame in the pool rather than
/// editing the snapshot, so a cursor never observes a torn page. It
/// becomes stale if the tree is mutated (Rust's borrow rules enforce
/// this: a cursor borrows the tree immutably). The offset table's
/// capacity is reused from leaf to leaf.
///
/// Advancing across a leaf boundary reads the next leaf through the buffer
/// pool — physically adjacent leaves (bulk-loaded trees) cost sequential
/// reads, scattered leaves (churned trees) cost seeks. Range-scan cost is
/// therefore an emergent property of the tree's history, as in §4.1 of the
/// paper. A malformed page on the way is a
/// [`StorageError::Corrupted`](upi_storage::error::StorageError::Corrupted).
pub struct Cursor<'a> {
    tree: &'a BTree,
    page: PageId,
    frame: Bytes,
    kind: NodeKind,
    link: PageId,
    offsets: Vec<u32>,
    slot: usize,
    exhausted: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor holding node `page`, which must be a `kind` node,
    /// positioned at its first entry. Tree descents load internal nodes
    /// into it before the leaf.
    pub(crate) fn open(tree: &'a BTree, page: PageId, kind: NodeKind) -> Result<Cursor<'a>> {
        let mut offsets = Vec::new();
        let (frame, link) = fetch(tree, page, kind, &mut offsets)?;
        Ok(Cursor {
            tree,
            page,
            frame,
            kind,
            link,
            offsets,
            slot: 0,
            exhausted: false,
        })
    }

    /// Replace the held node with page `page`, which must be a `kind`
    /// node. On failure the cursor holds no entries, so it reads as
    /// exhausted.
    pub(crate) fn load(&mut self, page: PageId, kind: NodeKind) -> Result<()> {
        match fetch(self.tree, page, kind, &mut self.offsets) {
            Ok((frame, link)) => {
                (self.page, self.frame, self.kind, self.link) = (page, frame, kind, link);
                self.slot = 0;
                Ok(())
            }
            Err(e) => {
                self.offsets.clear();
                Err(e)
            }
        }
    }

    /// The held node.
    pub(crate) fn view(&self) -> NodeView<'_> {
        NodeView::from_parts(&self.frame, self.kind, self.link, &self.offsets)
    }

    /// Position at entry `slot` of the held leaf, hopping forward if the
    /// leaf holds no entry at or after it.
    pub(crate) fn position(&mut self, slot: usize) -> Result<()> {
        self.slot = slot;
        self.skip_exhausted()
    }

    /// True while the cursor points at an entry.
    pub fn valid(&self) -> bool {
        !self.exhausted && self.slot < self.offsets.len()
    }

    /// Key at the cursor (panics if `!valid()`).
    pub fn key(&self) -> &[u8] {
        self.view().key(self.slot)
    }

    /// Value at the cursor (panics if `!valid()`).
    pub fn value(&self) -> &[u8] {
        self.view().value(self.slot)
    }

    /// Page currently under the cursor (diagnostics).
    pub fn page(&self) -> PageId {
        self.page
    }

    /// Move to the next entry in key order.
    pub fn advance(&mut self) -> Result<()> {
        if self.exhausted {
            return Ok(());
        }
        self.slot += 1;
        self.skip_exhausted()
    }

    /// If the current slot is past the end of this leaf, hop leaves until an
    /// entry is found or the chain ends. (Leaves are never left empty except
    /// transiently for the rightmost node, so this usually hops at most
    /// once.)
    fn skip_exhausted(&mut self) -> Result<()> {
        while self.slot >= self.offsets.len() {
            if !self.link.is_valid() {
                self.exhausted = true;
                return Ok(());
            }
            self.load(self.link, NodeKind::Leaf)?;
        }
        Ok(())
    }
}

/// Read page `page` through the pool, validate it as a `kind` node and
/// index its entries into `offsets`; returns the frame and the node's link.
fn fetch(
    tree: &BTree,
    page: PageId,
    kind: NodeKind,
    offsets: &mut Vec<u32>,
) -> Result<(Bytes, PageId)> {
    let frame = tree.store.pool.get(page)?;
    let view = NodeView::parse(page, &frame, offsets)?;
    view.expect_kind(page, kind)?;
    let link = view.link();
    Ok((frame, link))
}

#[cfg(test)]
mod tests {
    use crate::BTree;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk, Store};

    fn tree_with(n: u32, page: u32) -> BTree {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
        let mut t = BTree::create(store, "t", page).unwrap();
        for i in 0..n {
            t.insert(format!("{:08}", i).as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        t
    }

    #[test]
    fn full_scan_visits_everything_in_order() {
        let t = tree_with(1000, 512);
        let mut c = t.first().unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while c.valid() {
            if let Some(p) = &prev {
                assert!(p.as_slice() < c.key());
            }
            prev = Some(c.key().to_vec());
            count += 1;
            c.advance().unwrap();
        }
        assert_eq!(count, 1000);
    }

    #[test]
    fn advance_after_end_is_idempotent() {
        let t = tree_with(3, 512);
        let mut c = t.first().unwrap();
        for _ in 0..10 {
            c.advance().unwrap();
        }
        assert!(!c.valid());
        c.advance().unwrap();
        assert!(!c.valid());
    }

    #[test]
    fn empty_tree_cursor_is_invalid() {
        let t = tree_with(0, 512);
        let c = t.first().unwrap();
        assert!(!c.valid());
    }

    #[test]
    fn mid_range_scan() {
        let t = tree_with(500, 512);
        let mut c = t.seek(b"00000100").unwrap();
        let mut got = Vec::new();
        while c.valid() && c.key() < b"00000110".as_slice() {
            got.push(String::from_utf8(c.key().to_vec()).unwrap());
            c.advance().unwrap();
        }
        let want: Vec<String> = (100..110).map(|i| format!("{:08}", i)).collect();
        assert_eq!(got, want);
    }
}
