//! On-page node representation.
//!
//! Reads never materialize a node: [`NodeView`] borrows an encoded page
//! (a pool frame) plus an entry-offset table and answers
//! [`lower_bound`](NodeView::lower_bound) / [`route`](NodeView::route)
//! by binary search, handing out keys and values as slices of the page.
//! Building a view validates the page — the tag, the entry count, and
//! that every entry lies inside the page — so a malformed page is a
//! typed [`StorageError::Corrupted`], never a panic or an out-of-bounds
//! slice. The owned [`Node`] exists only for mutation (insert, delete,
//! split, merge, bulk load): decode, edit, re-encode. Layout (all
//! integers little-endian):
//!
//! ```text
//! [0]      tag: 1 = leaf, 2 = internal
//! [1]      reserved
//! [2..4]   entry count (u16)
//! [4..12]  leaf: next-leaf page id / internal: leftmost child page id
//! [12..16] reserved
//! [16..]   entries: (klen u16, vlen u16, key bytes, value bytes)*
//! ```
//!
//! Internal-node "values" are 8-byte child page ids. Entry `i` of an
//! internal node holds separator `k_i` and child `c_i`, where `c_i` covers
//! keys in `[k_i, k_{i+1})` and the leftmost child covers keys below `k_0`.

use bytes::Bytes;
use upi_storage::error::{Result, StorageError};
use upi_storage::{PageId, INVALID_PAGE};

/// Fixed per-page header length.
pub(crate) const HEADER_LEN: usize = 16;
/// Per-entry overhead beyond key and value bytes.
pub(crate) const ENTRY_OVERHEAD: usize = 4;

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Node kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// Holds user entries and a `next` chain pointer.
    Leaf,
    /// Holds separators and child pointers.
    Internal,
}

/// One decoded entry: key bytes and value bytes (internal-node values are
/// 8-byte child ids).
pub(crate) type Entry = (Box<[u8]>, Box<[u8]>);

/// Decoded node.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub kind: NodeKind,
    /// Leaf: next leaf in key order (or [`INVALID_PAGE`]).
    /// Internal: leftmost child.
    pub link: PageId,
    /// Sorted entries. For internal nodes the value is the 8-byte child id.
    pub entries: Vec<Entry>,
}

impl Node {
    pub fn new_leaf() -> Node {
        Node {
            kind: NodeKind::Leaf,
            link: INVALID_PAGE,
            entries: Vec::new(),
        }
    }

    pub fn new_internal(child0: PageId) -> Node {
        Node {
            kind: NodeKind::Internal,
            link: child0,
            entries: Vec::new(),
        }
    }

    /// Bytes this node occupies when encoded.
    pub fn used_bytes(&self) -> usize {
        HEADER_LEN
            + self
                .entries
                .iter()
                .map(|(k, v)| ENTRY_OVERHEAD + k.len() + v.len())
                .sum::<usize>()
    }

    /// Encode into a page buffer of exactly `page_size` bytes.
    ///
    /// Panics if the node does not fit; callers must split first (enforced
    /// by the tree layer via [`Node::used_bytes`]).
    pub fn encode(&self, page_size: usize) -> Bytes {
        let used = self.used_bytes();
        assert!(
            used <= page_size,
            "node of {used} bytes exceeds page size {page_size}"
        );
        let mut buf = vec![0u8; page_size];
        buf[0] = match self.kind {
            NodeKind::Leaf => TAG_LEAF,
            NodeKind::Internal => TAG_INTERNAL,
        };
        buf[2..4].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        buf[4..12].copy_from_slice(&self.link.0.to_le_bytes());
        let mut at = HEADER_LEN;
        for (k, v) in &self.entries {
            buf[at..at + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
            buf[at + 2..at + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
            at += 4;
            buf[at..at + k.len()].copy_from_slice(k);
            at += k.len();
            buf[at..at + v.len()].copy_from_slice(v);
            at += v.len();
        }
        Bytes::from(buf)
    }

    /// Decode page `page`'s buffer into an owned node (mutation path);
    /// validated exactly like a [`NodeView`].
    pub fn decode(page: PageId, data: &[u8]) -> Result<Node> {
        let mut offsets = Vec::new();
        let view = NodeView::parse(page, data, &mut offsets)?;
        Ok(Node {
            kind: view.kind(),
            link: view.link(),
            entries: (0..view.len())
                .map(|i| (view.key(i).into(), view.value(i).into()))
                .collect(),
        })
    }

    /// Index of the first entry with key `>= target` (binary search).
    pub fn lower_bound(&self, target: &[u8]) -> usize {
        self.entries.partition_point(|(k, _)| k.as_ref() < target)
    }

    /// For internal nodes: the child that covers `target`.
    pub fn route(&self, target: &[u8]) -> PageId {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        // Rightmost separator <= target.
        let idx = self.entries.partition_point(|(k, _)| k.as_ref() <= target);
        if idx == 0 {
            self.link
        } else {
            child_id(&self.entries[idx - 1].1)
        }
    }
}

/// A validated, borrowed view of one encoded node page: its kind, its
/// link, and the byte offset of each entry. Nothing is copied; keys and
/// values are slices of the page.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeView<'a> {
    data: &'a [u8],
    kind: NodeKind,
    link: PageId,
    /// Offset of each entry's `(klen, vlen)` header, in key order.
    offsets: &'a [u32],
}

impl<'a> NodeView<'a> {
    /// Validate page `page`'s bytes and index its entries into `offsets`
    /// (cleared first; its capacity is reused across pages). Fails with
    /// [`StorageError::Corrupted`] on a bad tag, an entry count the page
    /// cannot hold, an entry running past the page end, or an internal
    /// entry whose child id is not 8 bytes.
    pub fn parse(page: PageId, data: &'a [u8], offsets: &'a mut Vec<u32>) -> Result<NodeView<'a>> {
        let corrupt =
            |what: String| StorageError::Corrupted(format!("B+Tree node {page:?}: {what}"));
        if data.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "{} bytes, shorter than the header",
                data.len()
            )));
        }
        let kind = match data[0] {
            TAG_LEAF => NodeKind::Leaf,
            TAG_INTERNAL => NodeKind::Internal,
            t => return Err(corrupt(format!("bad tag {t}"))),
        };
        let count = u16::from_le_bytes([data[2], data[3]]) as usize;
        if HEADER_LEN + count * ENTRY_OVERHEAD > data.len() {
            return Err(corrupt(format!(
                "{count} entries cannot fit in {} bytes",
                data.len()
            )));
        }
        let link = PageId(u64::from_le_bytes(
            data[4..12]
                .try_into()
                .expect("the header holds an 8-byte link"),
        ));
        offsets.clear();
        let mut at = HEADER_LEN;
        for i in 0..count {
            let header = data.get(at..at + ENTRY_OVERHEAD);
            let (klen, vlen) = match header {
                Some(h) => (
                    u16::from_le_bytes([h[0], h[1]]) as usize,
                    u16::from_le_bytes([h[2], h[3]]) as usize,
                ),
                None => return Err(corrupt(format!("entry {i} header overruns the page"))),
            };
            let end = at + ENTRY_OVERHEAD + klen + vlen;
            if end > data.len() {
                return Err(corrupt(format!(
                    "entry {i} ({klen}+{vlen} bytes at {at}) overruns the page"
                )));
            }
            if kind == NodeKind::Internal && vlen != 8 {
                return Err(corrupt(format!(
                    "internal entry {i} child id is {vlen} bytes"
                )));
            }
            offsets.push(at as u32);
            at = end;
        }
        Ok(NodeView {
            data,
            kind,
            link,
            offsets,
        })
    }

    /// Reassemble a view from a page already validated by
    /// [`parse`](Self::parse) and the parts it returned.
    pub fn from_parts(
        data: &'a [u8],
        kind: NodeKind,
        link: PageId,
        offsets: &'a [u32],
    ) -> NodeView<'a> {
        NodeView {
            data,
            kind,
            link,
            offsets,
        }
    }

    /// Leaf or internal.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Leaf: next leaf in key order (or [`INVALID_PAGE`]). Internal:
    /// leftmost child.
    pub fn link(&self) -> PageId {
        self.link
    }

    /// [`StorageError::Corrupted`] unless this node (page `page`) is of
    /// kind `want` — the kind its position in the tree implies.
    pub fn expect_kind(&self, page: PageId, want: NodeKind) -> Result<()> {
        if self.kind == want {
            return Ok(());
        }
        Err(StorageError::Corrupted(format!(
            "B+Tree node {page:?}: {:?} node where the tree expects {want:?}",
            self.kind
        )))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Key and value slices of entry `i`.
    #[inline]
    fn entry(&self, i: usize) -> (&'a [u8], &'a [u8]) {
        let at = self.offsets[i] as usize;
        let klen = u16::from_le_bytes([self.data[at], self.data[at + 1]]) as usize;
        let vlen = u16::from_le_bytes([self.data[at + 2], self.data[at + 3]]) as usize;
        let key = at + ENTRY_OVERHEAD;
        (
            &self.data[key..key + klen],
            &self.data[key + klen..key + klen + vlen],
        )
    }

    /// Key of entry `i`.
    #[inline]
    pub fn key(&self, i: usize) -> &'a [u8] {
        self.entry(i).0
    }

    /// Value of entry `i` (internal nodes: the 8-byte child id).
    #[inline]
    pub fn value(&self, i: usize) -> &'a [u8] {
        self.entry(i).1
    }

    /// Index of the first entry with key `>= target` (binary search).
    pub fn lower_bound(&self, target: &[u8]) -> usize {
        self.partition_point(|k| k < target)
    }

    /// For internal nodes: the child that covers `target`.
    pub fn route(&self, target: &[u8]) -> PageId {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        // Rightmost separator <= target.
        match self.partition_point(|k| k <= target) {
            0 => self.link,
            idx => child_id(self.value(idx - 1)),
        }
    }

    /// First entry index whose key fails `pred` (keys are sorted, so
    /// `pred` holds on a prefix).
    fn partition_point(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Decode an internal entry value into a child page id.
#[inline]
pub(crate) fn child_id(v: &[u8]) -> PageId {
    PageId(u64::from_le_bytes(v.try_into().expect("8-byte child id")))
}

/// Encode a child page id as an internal entry value.
#[inline]
pub(crate) fn child_val(p: PageId) -> Box<[u8]> {
    p.0.to_le_bytes().to_vec().into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let mut n = Node::new_leaf();
        n.link = PageId(77);
        n.entries.push((b"a".to_vec().into(), b"1".to_vec().into()));
        n.entries
            .push((b"bb".to_vec().into(), b"22".to_vec().into()));
        let enc = n.encode(256);
        assert_eq!(enc.len(), 256);
        let back = Node::decode(PageId(0), &enc).unwrap();
        assert_eq!(back.kind, NodeKind::Leaf);
        assert_eq!(back.link, PageId(77));
        assert_eq!(back.entries.len(), 2);
        assert_eq!(&*back.entries[1].0, b"bb");
        assert_eq!(&*back.entries[1].1, b"22");
    }

    #[test]
    fn internal_roundtrip_and_route() {
        let mut n = Node::new_internal(PageId(1));
        n.entries.push((b"m".to_vec().into(), child_val(PageId(2))));
        n.entries.push((b"t".to_vec().into(), child_val(PageId(3))));
        let back = Node::decode(PageId(0), &n.encode(256)).unwrap();
        assert_eq!(back.route(b"a"), PageId(1));
        assert_eq!(back.route(b"m"), PageId(2));
        assert_eq!(back.route(b"p"), PageId(2));
        assert_eq!(back.route(b"t"), PageId(3));
        assert_eq!(back.route(b"z"), PageId(3));
    }

    #[test]
    fn lower_bound_finds_first_ge() {
        let mut n = Node::new_leaf();
        for k in ["b", "d", "f"] {
            n.entries
                .push((k.as_bytes().to_vec().into(), b"".to_vec().into()));
        }
        assert_eq!(n.lower_bound(b"a"), 0);
        assert_eq!(n.lower_bound(b"b"), 0);
        assert_eq!(n.lower_bound(b"c"), 1);
        assert_eq!(n.lower_bound(b"f"), 2);
        assert_eq!(n.lower_bound(b"g"), 3);
    }

    #[test]
    fn used_bytes_matches_definition() {
        let mut n = Node::new_leaf();
        assert_eq!(n.used_bytes(), HEADER_LEN);
        n.entries
            .push((b"key".to_vec().into(), b"value".to_vec().into()));
        assert_eq!(n.used_bytes(), HEADER_LEN + ENTRY_OVERHEAD + 3 + 5);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn encode_rejects_overflow() {
        let mut n = Node::new_leaf();
        n.entries
            .push((vec![0u8; 300].into(), vec![0u8; 300].into()));
        n.encode(256);
    }

    mod view_vs_owned {
        use super::*;
        use crate::BTree;
        use proptest::prelude::*;
        use std::collections::BTreeMap;
        use std::sync::Arc;
        use upi_storage::{DiskConfig, SimDisk, Store};

        /// Keys in three families: no prefix, a short one, and a long
        /// prefix most of a small page's key bytes share; decimal
        /// suffixes also make some keys prefixes of others (`..1`,
        /// `..10`).
        const PREFIX: &[u8] = b"a-long-shared-prefix-that-many-keys-start-with/";

        fn key_of(n: u32, family: u8) -> Vec<u8> {
            let mut k = match family {
                0 => Vec::new(),
                1 => PREFIX[..6].to_vec(),
                _ => PREFIX.to_vec(),
            };
            k.extend_from_slice(n.to_string().as_bytes());
            k
        }

        /// Every page of `t`, walked from the root through owned nodes.
        fn all_pages(t: &BTree) -> Vec<PageId> {
            let (mut out, mut stack) = (Vec::new(), vec![t.root_page()]);
            while let Some(pid) = stack.pop() {
                out.push(pid);
                let node = t.read_node(pid).unwrap();
                if node.kind == NodeKind::Internal {
                    stack.push(node.link);
                    stack.extend(node.entries.iter().map(|(_, v)| child_id(v)));
                }
            }
            out
        }

        /// Probe keys around `keys`: each key, just below and above it,
        /// its prefixes' families, and both ends of the key space.
        fn probes(keys: impl Iterator<Item = Vec<u8>>) -> Vec<Vec<u8>> {
            let mut out = vec![
                Vec::new(),
                vec![0xFF; 4],
                PREFIX[..6].to_vec(),
                PREFIX.to_vec(),
            ];
            for k in keys {
                let mut below = k.clone();
                below.pop();
                let mut above = k.clone();
                above.push(0);
                out.extend([below, k, above]);
            }
            out
        }

        /// On every page of `t` the view answers exactly as the owned
        /// decode does.
        fn views_match_owned(t: &BTree, probes: &[Vec<u8>]) -> std::result::Result<(), String> {
            let mut offsets = Vec::new();
            for pid in all_pages(t) {
                let frame = t.store.pool.get(pid).unwrap();
                let owned = Node::decode(pid, &frame).unwrap();
                let view = NodeView::parse(pid, &frame, &mut offsets).unwrap();
                prop_assert_eq!(view.kind(), owned.kind);
                prop_assert_eq!(view.link(), owned.link);
                prop_assert_eq!(view.len(), owned.entries.len());
                for (i, (k, v)) in owned.entries.iter().enumerate() {
                    prop_assert_eq!(view.key(i), &**k);
                    prop_assert_eq!(view.value(i), &**v);
                }
                for p in probes {
                    prop_assert_eq!(view.lower_bound(p), owned.lower_bound(p));
                    if owned.kind == NodeKind::Internal {
                        prop_assert_eq!(view.route(p), owned.route(p));
                    }
                }
            }
            Ok(())
        }

        /// Full scans, seek landings and point gets agree with `model`.
        fn reads_match_model(
            t: &BTree,
            model: &BTreeMap<Vec<u8>, Vec<u8>>,
            probes: &[Vec<u8>],
        ) -> std::result::Result<(), String> {
            let scanned: Vec<_> = t.iter().unwrap().collect();
            let want: Vec<_> = model.clone().into_iter().collect();
            prop_assert_eq!(scanned, want);
            for p in probes {
                let cur = t.seek(p).unwrap();
                let landed = cur
                    .valid()
                    .then(|| (cur.key().to_vec(), cur.value().to_vec()));
                let want = model
                    .range(p.clone()..)
                    .next()
                    .map(|(k, v)| (k.clone(), v.clone()));
                prop_assert_eq!(landed, want);
                prop_assert_eq!(t.get(p).unwrap(), model.get(p).cloned());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Views equal owned decodes on every node, and reads through
            /// views match a `BTreeMap` model, after a bulk of inserts and
            /// again after random insert/delete churn — at a tiny, a small
            /// and the default page size, with empty values included.
            #[test]
            fn views_equal_owned_nodes_and_reads_match_model(
                ops in proptest::collection::vec(
                    (0u32..300, 0u8..3, 0usize..24, any::<bool>()),
                    1..400,
                ),
            ) {
                for page in [256u32, 512, 8192] {
                    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
                    let mut t = BTree::create(store, "t", page).unwrap();
                    let mut model = BTreeMap::new();
                    for &(n, family, vlen, _) in &ops {
                        let (k, v) = (key_of(n, family), vec![b'v'; vlen]);
                        t.insert(&k, &v).unwrap();
                        model.insert(k, v);
                    }
                    let probe = probes(model.keys().cloned());
                    views_match_owned(&t, &probe)?;
                    reads_match_model(&t, &model, &probe)?;
                    for &(n, family, vlen, delete) in ops.iter().rev() {
                        let k = key_of(n.wrapping_mul(7) % 300, family);
                        if delete {
                            prop_assert_eq!(t.delete(&k).unwrap(), model.remove(&k).is_some());
                        } else {
                            t.insert(&k, &vec![b'w'; vlen]).unwrap();
                            model.insert(k, vec![b'w'; vlen]);
                        }
                    }
                    views_match_owned(&t, &probe)?;
                    reads_match_model(&t, &model, &probe)?;
                }
            }
        }
    }
}
