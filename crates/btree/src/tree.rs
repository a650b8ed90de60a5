//! The B+Tree proper: create, insert, delete, point lookup.

use upi_storage::error::{Result, StorageError};
use upi_storage::{FileId, PageId, Store};

use crate::cursor::Cursor;
use crate::node::{child_id, child_val, Node, NodeKind, NodeView, ENTRY_OVERHEAD, HEADER_LEN};

/// Summary statistics of a tree (sizes feed the cost models of §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Height including the leaf level (1 = root is a leaf). The cost
    /// models' `H`.
    pub height: usize,
    /// Number of live pages.
    pub pages: usize,
    /// Number of leaf pages (`N_leaf` in Table 6).
    pub leaf_pages: usize,
    /// Live entries.
    pub entries: u64,
    /// Live bytes (`pages * page_size`, `S_table` in Table 6).
    pub bytes: u64,
}

/// A disk-backed B+Tree with byte-string keys and values.
///
/// Writes go through the store's write-back buffer pool; structural changes
/// (splits, merges) allocate and free pages on the simulated device, which
/// is what makes fragmentation physically observable.
pub struct BTree {
    pub(crate) store: Store,
    pub(crate) file: FileId,
    pub(crate) page_size: usize,
    root: PageId,
    height: usize,
    entries: u64,
    leaf_pages: usize,
    internal_pages: usize,
}

/// A completed split: the separator key and the new right sibling.
type SplitResult = Option<(Vec<u8>, PageId)>;

/// Nodes below this fill fraction try to merge with their right sibling.
const UNDERFLOW_FRACTION: f64 = 0.25;
/// Merges must leave the combined node at most this full (hysteresis).
const MERGE_TARGET_FRACTION: f64 = 0.85;

impl BTree {
    /// Create an empty tree in a fresh file of `name` with the given page
    /// size.
    pub fn create(store: Store, name: &str, page_size: u32) -> Result<BTree> {
        let file = store.disk.create_file(name, page_size);
        let root = store.disk.alloc_page(file)?;
        let node = Node::new_leaf();
        store.pool.put(root, node.encode(page_size as usize));
        Ok(BTree {
            store,
            file,
            page_size: page_size as usize,
            root,
            height: 1,
            entries: 0,
            leaf_pages: 1,
            internal_pages: 0,
        })
    }

    /// The storage file backing this tree.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Height (1 = root is a leaf); the cost models' `H`.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Size statistics.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            height: self.height,
            pages: self.leaf_pages + self.internal_pages,
            leaf_pages: self.leaf_pages,
            entries: self.entries,
            bytes: ((self.leaf_pages + self.internal_pages) * self.page_size) as u64,
        }
    }

    /// Largest record (key + value bytes) that can be stored.
    pub fn max_record(&self) -> usize {
        (self.page_size - HEADER_LEN) / 2 - ENTRY_OVERHEAD
    }

    /// Decode page `pid` into an owned [`Node`] — the mutation path only;
    /// reads go through [`NodeView`]s.
    pub(crate) fn read_node(&self, pid: PageId) -> Result<Node> {
        Node::decode(pid, &self.store.pool.get(pid)?)
    }

    pub(crate) fn write_node(&self, pid: PageId, node: &Node) {
        self.store.pool.put(pid, node.encode(self.page_size));
    }

    pub(crate) fn root_page(&self) -> PageId {
        self.root
    }

    pub(crate) fn set_root(&mut self, root: PageId, height: usize) {
        self.root = root;
        self.height = height;
    }

    pub(crate) fn set_counts(&mut self, entries: u64, leaf_pages: usize, internal_pages: usize) {
        self.entries = entries;
        self.leaf_pages = leaf_pages;
        self.internal_pages = internal_pages;
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let cur = self.leaf_cursor(key)?;
        let leaf = cur.view();
        let idx = leaf.lower_bound(key);
        Ok((idx < leaf.len() && leaf.key(idx) == key).then(|| leaf.value(idx).to_vec()))
    }

    /// A cursor holding the leaf that covers `key`, reached by routing
    /// through every internal node on the way down (one pool read each).
    fn leaf_cursor(&self, key: &[u8]) -> Result<Cursor<'_>> {
        let kind_at = |depth: usize| {
            if depth + 1 == self.height {
                NodeKind::Leaf
            } else {
                NodeKind::Internal
            }
        };
        let mut cur = Cursor::open(self, self.root, kind_at(0))?;
        for depth in 1..self.height {
            let child = cur.view().route(key);
            cur.load(child, kind_at(depth))?;
        }
        Ok(cur)
    }

    /// Insert or replace. Returns `true` if the key was new.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        let record = key.len() + value.len();
        if record > self.max_record() {
            return Err(StorageError::RecordTooLarge {
                len: record,
                max: self.max_record(),
            });
        }
        let (outcome, split) = self.insert_rec(self.root, key, value)?;
        if let Some((sep, right)) = split {
            // Grow a new root.
            let old_root = self.root;
            let new_root = self.store.disk.alloc_page(self.file)?;
            let mut node = Node::new_internal(old_root);
            node.entries
                .push((sep.into_boxed_slice(), child_val(right)));
            self.write_node(new_root, &node);
            self.root = new_root;
            self.height += 1;
            self.internal_pages += 1;
        }
        if outcome {
            self.entries += 1;
        }
        Ok(outcome)
    }

    /// Recursive insert; returns (inserted-new-key, optional split
    /// (separator, new right sibling page)).
    fn insert_rec(&mut self, pid: PageId, key: &[u8], value: &[u8]) -> Result<(bool, SplitResult)> {
        let mut node = self.read_node(pid)?;
        match node.kind {
            NodeKind::Leaf => {
                let idx = node.lower_bound(key);
                let mut new_key = true;
                if idx < node.entries.len() && &*node.entries[idx].0 == key {
                    node.entries[idx].1 = value.to_vec().into_boxed_slice();
                    new_key = false;
                } else {
                    node.entries.insert(
                        idx,
                        (
                            key.to_vec().into_boxed_slice(),
                            value.to_vec().into_boxed_slice(),
                        ),
                    );
                }
                let split = self.maybe_split(pid, &mut node)?;
                Ok((new_key, split))
            }
            NodeKind::Internal => {
                let child = node.route(key);
                let (new_key, child_split) = self.insert_rec(child, key, value)?;
                let split = if let Some((sep, right)) = child_split {
                    let idx = node.lower_bound(&sep);
                    node.entries
                        .insert(idx, (sep.into_boxed_slice(), child_val(right)));
                    self.maybe_split(pid, &mut node)?
                } else {
                    None
                };
                Ok((new_key, split))
            }
        }
    }

    /// Split `node` (stored at `pid`) if it overflows the page; otherwise
    /// just write it back.
    fn maybe_split(&mut self, pid: PageId, node: &mut Node) -> Result<SplitResult> {
        if node.used_bytes() <= self.page_size {
            self.write_node(pid, node);
            return Ok(None);
        }
        // Find the split point by accumulated bytes so both halves fit.
        let total: usize = node.used_bytes() - HEADER_LEN;
        let mut acc = 0usize;
        let mut mid = node.entries.len() / 2;
        for (i, (k, v)) in node.entries.iter().enumerate() {
            acc += ENTRY_OVERHEAD + k.len() + v.len();
            if acc >= total / 2 {
                mid = (i + 1).min(node.entries.len() - 1);
                break;
            }
        }
        let right_pid = self.store.disk.alloc_page(self.file)?;
        match node.kind {
            NodeKind::Leaf => {
                let right_entries = node.entries.split_off(mid);
                let sep = right_entries[0].0.to_vec();
                let mut right = Node::new_leaf();
                right.entries = right_entries;
                right.link = node.link;
                node.link = right_pid;
                self.write_node(pid, node);
                self.write_node(right_pid, &right);
                self.leaf_pages += 1;
                Ok(Some((sep, right_pid)))
            }
            NodeKind::Internal => {
                // Promote the separator at `mid`; its child becomes the
                // right node's leftmost child.
                let mut right_entries = node.entries.split_off(mid);
                let (sep, promoted_child) = right_entries.remove(0);
                let mut right = Node::new_internal(child_id(&promoted_child));
                right.entries = right_entries;
                self.write_node(pid, node);
                self.write_node(right_pid, &right);
                self.internal_pages += 1;
                Ok(Some((sep.to_vec(), right_pid)))
            }
        }
    }

    /// Delete a key. Returns `true` if it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let removed = self.delete_rec(self.root, key)?;
        if removed {
            self.entries -= 1;
            // Shrink the root while it is an internal node with no
            // separators left.
            loop {
                let node = self.read_node(self.root)?;
                if node.kind == NodeKind::Internal && node.entries.is_empty() {
                    let old = self.root;
                    self.root = node.link;
                    self.height -= 1;
                    self.internal_pages -= 1;
                    self.store.pool.discard(old);
                    self.store.free_page(old)?;
                } else {
                    break;
                }
            }
        }
        Ok(removed)
    }

    fn delete_rec(&mut self, pid: PageId, key: &[u8]) -> Result<bool> {
        let mut node = self.read_node(pid)?;
        match node.kind {
            NodeKind::Leaf => {
                let idx = node.lower_bound(key);
                if idx < node.entries.len() && &*node.entries[idx].0 == key {
                    node.entries.remove(idx);
                    self.write_node(pid, &node);
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            NodeKind::Internal => {
                let child_slot = node.entries.partition_point(|(k, _)| k.as_ref() <= key);
                let child = if child_slot == 0 {
                    node.link
                } else {
                    child_id(&node.entries[child_slot - 1].1)
                };
                let removed = self.delete_rec(child, key)?;
                if removed {
                    self.maybe_merge_child(pid, &mut node, child_slot, child)?;
                }
                Ok(removed)
            }
        }
    }

    /// If `child` (the `child_slot`-th child of `parent`, 0 = leftmost)
    /// underflows, merge its *right* sibling into it and drop the sibling.
    ///
    /// Merging rightwards keeps the leaf chain repairable: the absorbed
    /// node's predecessor is the absorbing node itself, so `next` pointers
    /// are fixed locally (§ lib docs).
    fn maybe_merge_child(
        &mut self,
        parent_pid: PageId,
        parent: &mut Node,
        child_slot: usize,
        child_pid: PageId,
    ) -> Result<()> {
        let child = self.read_node(child_pid)?;
        let threshold = (self.page_size as f64 * UNDERFLOW_FRACTION) as usize;
        if child.used_bytes() >= threshold {
            return Ok(());
        }
        // The right sibling is the child at `child_slot + 1`, i.e. the
        // entry at index `child_slot` in the parent's separator list.
        if child_slot >= parent.entries.len() {
            return Ok(()); // rightmost child: leave it underfull
        }
        let right_pid = child_id(&parent.entries[child_slot].1);
        let right = self.read_node(right_pid)?;
        let limit = (self.page_size as f64 * MERGE_TARGET_FRACTION) as usize;
        let combined = child.used_bytes() + right.used_bytes() - HEADER_LEN;
        let sep_key_len = parent.entries[child_slot].0.len();
        let mut child = child;
        match child.kind {
            NodeKind::Leaf => {
                if combined > limit {
                    return Ok(());
                }
                child.entries.extend(right.entries);
                child.link = right.link;
            }
            NodeKind::Internal => {
                // Pulling down the separator adds one entry.
                if combined + ENTRY_OVERHEAD + sep_key_len + 8 > limit {
                    return Ok(());
                }
                let sep = parent.entries[child_slot].0.clone();
                child.entries.push((sep, child_val(right.link)));
                child.entries.extend(right.entries);
            }
        }
        parent.entries.remove(child_slot);
        self.write_node(child_pid, &child);
        self.write_node(parent_pid, parent);
        self.store.pool.discard(right_pid);
        self.store.free_page(right_pid)?;
        match child.kind {
            NodeKind::Leaf => self.leaf_pages -= 1,
            NodeKind::Internal => self.internal_pages -= 1,
        }
        Ok(())
    }

    /// The leaf page a [`seek`](Self::seek) for `key` would land on,
    /// found by descending **internal** nodes only — the leaf itself is
    /// not read. Planner prefetch hints use this to name a run's first
    /// page before the run is opened, so the leaf's own (cold) read is
    /// the hinted first miss; the internal reads are exactly the ones the
    /// subsequent seek repeats against a now-warm cache.
    pub fn leaf_page_for(&self, key: &[u8]) -> Result<PageId> {
        let mut pid = self.root;
        let mut offsets = Vec::new();
        for _ in 1..self.height {
            let frame = self.store.pool.get(pid)?;
            let node = NodeView::parse(pid, &frame, &mut offsets)?;
            node.expect_kind(pid, NodeKind::Internal)?;
            pid = node.route(key);
        }
        Ok(pid)
    }

    /// Cursor positioned at the first entry with key `>= key`.
    pub fn seek(&self, key: &[u8]) -> Result<Cursor<'_>> {
        let mut cur = self.leaf_cursor(key)?;
        let slot = cur.view().lower_bound(key);
        cur.position(slot)?;
        Ok(cur)
    }

    /// Cursor at the smallest key.
    pub fn first(&self) -> Result<Cursor<'_>> {
        self.seek(&[])
    }

    /// Iterate every entry in key order (allocates owned pairs).
    pub fn iter(&self) -> Result<TreeIter<'_>> {
        Ok(TreeIter {
            cursor: self.first()?,
        })
    }
}

/// Owned-entry iterator over a whole tree.
pub struct TreeIter<'a> {
    cursor: Cursor<'a>,
}

impl Iterator for TreeIter<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        if !self.cursor.valid() {
            return None;
        }
        let item = (self.cursor.key().to_vec(), self.cursor.value().to_vec());
        self.cursor.advance().expect("iteration I/O failed");
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
    }

    fn tree(page: u32) -> BTree {
        BTree::create(store(), "t", page).unwrap()
    }

    #[test]
    fn insert_get_replace() {
        let mut t = tree(4096);
        assert!(t.insert(b"k1", b"v1").unwrap());
        assert!(t.insert(b"k2", b"v2").unwrap());
        assert!(!t.insert(b"k1", b"v1b").unwrap(), "replace is not new");
        assert_eq!(t.get(b"k1").unwrap().unwrap(), b"v1b");
        assert_eq!(t.get(b"k2").unwrap().unwrap(), b"v2");
        assert_eq!(t.get(b"nope").unwrap(), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let mut t = tree(512);
        let mut model = BTreeMap::new();
        // Insert in a scrambled order.
        for i in 0u32..2000 {
            let k = format!("key{:05}", (i * 7919) % 2000);
            let v = format!("val{i}");
            t.insert(k.as_bytes(), v.as_bytes()).unwrap();
            model.insert(k.into_bytes(), v.into_bytes());
        }
        assert_eq!(t.len() as usize, model.len());
        assert!(t.height() > 1, "512-byte pages must have split");
        let got: Vec<_> = t.iter().unwrap().collect();
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deletes_and_merges_preserve_order() {
        let mut t = tree(512);
        let mut model = BTreeMap::new();
        for i in 0u32..1500 {
            let k = format!("{:06}", i);
            t.insert(k.as_bytes(), b"x").unwrap();
            model.insert(k.into_bytes(), b"x".to_vec());
        }
        // Delete ~2/3 of keys in scrambled order.
        for i in 0u32..1500 {
            if i % 3 != 0 {
                let k = format!("{:06}", (i * 7919) % 1500);
                let removed = t.delete(k.as_bytes()).unwrap();
                assert_eq!(removed, model.remove(k.as_bytes()).is_some());
            }
        }
        assert_eq!(t.len() as usize, model.len());
        let got: Vec<_> = t.iter().unwrap().map(|(k, _)| k).collect();
        let want: Vec<_> = model.keys().cloned().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_everything_shrinks_to_empty_root() {
        let mut t = tree(512);
        for i in 0u32..800 {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        for i in 0u32..800 {
            assert!(t.delete(format!("{:06}", i).as_bytes()).unwrap());
        }
        assert_eq!(t.len(), 0);
        assert!(!t.first().unwrap().valid());
        assert!(t.get(b"000001").unwrap().is_none());
        // Tree can be reused afterwards.
        t.insert(b"again", b"yes").unwrap();
        assert_eq!(t.get(b"again").unwrap().unwrap(), b"yes");
    }

    #[test]
    fn seek_positions_at_lower_bound_across_leaves() {
        let mut t = tree(512);
        for i in (0u32..1000).step_by(2) {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        // Seek to an absent odd key: cursor must land on the next even key.
        let c = t.seek(b"000101").unwrap();
        assert!(c.valid());
        assert_eq!(c.key(), b"000102");
        // Seek past the end.
        let c = t.seek(b"999999").unwrap();
        assert!(!c.valid());
    }

    #[test]
    fn leaf_page_for_matches_seek_landing_page() {
        let mut t = tree(512);
        for i in (0u32..2000).step_by(2) {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        assert!(t.height() > 1);
        // Present keys only: seeking an absent key can legitimately land
        // one leaf later (the routed leaf's tail ends before it).
        for i in (0u32..2000).step_by(138) {
            let key = format!("{:06}", i);
            let predicted = t.leaf_page_for(key.as_bytes()).unwrap();
            let cur = t.seek(key.as_bytes()).unwrap();
            assert!(cur.valid());
            assert_eq!(predicted, cur.page(), "key {key}");
        }
        // Single-leaf tree: the root is the leaf, no pages read at all.
        let t1 = tree(512);
        assert_eq!(t1.leaf_page_for(b"anything").unwrap(), t1.root_page());
    }

    /// Rewrite page `pid` in the pool with `damage` applied.
    fn corrupt(t: &BTree, pid: PageId, damage: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = t.store.pool.get(pid).unwrap().to_vec();
        damage(&mut bytes);
        t.store.pool.put(pid, bytes.into());
    }

    /// A named way to damage a page image.
    type Damage = (&'static str, fn(&mut Vec<u8>));

    fn is_corrupted<T>(r: Result<T>) -> bool {
        matches!(r, Err(StorageError::Corrupted(_)))
    }

    /// A bad tag, an impossible entry count and an entry overrunning the
    /// page each surface as `StorageError::Corrupted` — never a panic —
    /// from every read entry point and from the owned decode on the
    /// mutation path.
    #[test]
    fn malformed_pages_are_typed_corruption_on_every_entry_point() {
        let damages: [Damage; 3] = [
            ("bad tag", |b| b[0] = 9),
            ("entry count past the page", |b| {
                b[2..4].copy_from_slice(&u16::MAX.to_le_bytes())
            }),
            // The first entry's key length runs past the page end.
            ("overrunning entry", |b| {
                b[16..18].copy_from_slice(&u16::MAX.to_le_bytes())
            }),
        ];
        for (what, damage) in damages {
            let mut t = tree(512);
            for i in 0u32..400 {
                t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
            }
            assert!(t.height() > 1);
            // The second leaf and a key stored on it, read before the
            // damage; `cur` holds a snapshot of the first leaf.
            let mut c = t.first().unwrap();
            let first_leaf = c.page();
            while c.page() == first_leaf {
                c.advance().unwrap();
            }
            let (second_leaf, on_second) = (c.page(), c.key().to_vec());
            let mut cur = t.first().unwrap();

            // A damaged leaf: reads landing on it fail typed, and so does
            // a cursor hopping onto it from its left neighbour.
            corrupt(&t, second_leaf, damage);
            assert!(is_corrupted(t.get(&on_second)), "{what}: get on the leaf");
            assert!(is_corrupted(t.seek(&on_second)), "{what}: seek to the leaf");
            let mut hopped = Ok(());
            while hopped.is_ok() && cur.valid() {
                hopped = cur.advance();
            }
            assert!(is_corrupted(hopped), "{what}: Cursor::advance");
            assert!(
                !cur.valid(),
                "{what}: a failed hop leaves the cursor exhausted"
            );

            // A damaged root: every descent fails typed.
            let key = b"000000";
            corrupt(&t, t.root_page(), damage);
            assert!(is_corrupted(t.get(key)), "{what}: get");
            assert!(is_corrupted(t.seek(key)), "{what}: seek");
            assert!(is_corrupted(t.leaf_page_for(key)), "{what}: leaf_page_for");
            // The owned decode on the mutation path fails the same way.
            assert!(is_corrupted(t.insert(b"new", b"v")), "{what}: insert");
            assert!(is_corrupted(t.delete(key)), "{what}: delete");
        }
    }

    #[test]
    fn record_too_large_is_rejected() {
        let mut t = tree(512);
        let big = vec![0u8; 400];
        let err = t.insert(&big, &big).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn stats_reflect_structure() {
        let mut t = tree(512);
        for i in 0u32..500 {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        let s = t.stats();
        assert_eq!(s.entries, 500);
        assert!(s.leaf_pages > 1);
        assert_eq!(s.height, t.height());
        assert_eq!(s.bytes, (s.pages * 512) as u64);
    }

    #[test]
    fn duplicate_heavy_workload() {
        // Same key overwritten many times must not leak entries or pages.
        let mut t = tree(512);
        for i in 0u32..1000 {
            t.insert(b"hot", format!("{i}").as_bytes()).unwrap();
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"hot").unwrap().unwrap(), b"999");
    }
}
