//! Continuous UPI (§5) and the secondary U-Tree baseline.
//!
//! "Our solution is to build a primary index on top of R-Tree variants like
//! PTIs and U-Trees. … we build a separate heap file structure that is
//! synchronized with the underlying R-Tree nodes … clustered by the
//! hierarchical location of corresponding nodes in the R-Tree. "It
//! consists of R-Tree nodes with small page sizes (e.g., 4 KB) and heap
//! pages with larger page size (e.g., 64 KB). Each leaf node of the R-Tree
//! is mapped to one heap page (or more than one when tuples for the leaf
//! node do not fit into one heap page)" — Figure 2.
//!
//! Three structures live here:
//!
//! * [`ContinuousUpi`] — the primary index: R-Tree + synchronized heap.
//! * [`SecondaryUTree`] — the baseline of Figure 7: the same R-Tree used as
//!   a *secondary* index, fetching each qualifying tuple from an
//!   unclustered heap by tuple id (one random seek per tuple).
//! * [`ContinuousSecondary`] — a PII-style B+Tree on a discrete attribute
//!   (road segment) whose pointers are *heap page locations* of the
//!   continuous UPI; spatial correlation between location and segment makes
//!   these pointers collapse onto few pages (Figure 8).

use std::collections::HashMap;

use bytes::Bytes;
use upi_btree::BTree;
use upi_rtree::{LeafEntry, Point, RTree, RTreeStats, SplitEvent};
use upi_storage::error::Result;
use upi_storage::{FileId, PageId, Store};
use upi_uncertain::tuple::{decode_tuple, encode_tuple};
use upi_uncertain::{AttrStats, ConstrainedGaussian, Tuple, TupleId};

use crate::exec::{sort_results, PtqResult};
use crate::heap::UnclusteredHeap;
use crate::keys;

/// Page-size configuration for the continuous UPI (paper: 4 KB R-Tree
/// nodes, 64 KB heap pages).
#[derive(Debug, Clone, Copy)]
pub struct ContinuousConfig {
    /// R-Tree node page size.
    pub node_page: u32,
    /// Heap page size.
    pub heap_page: u32,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig {
            node_page: 4096,
            heap_page: 65536,
        }
    }
}

/// Build an R-Tree leaf entry from a tuple's location distribution.
fn leaf_entry(t: &Tuple, loc_attr: usize) -> LeafEntry {
    let g = t.point(loc_attr);
    let (min_x, min_y, max_x, max_y) = g.mbr();
    LeafEntry {
        rect: upi_rtree::Rect::new(min_x, min_y, max_x, max_y),
        tid: t.id.0,
        aux: [g.cx, g.cy, g.sigma, g.bound],
    }
}

fn gaussian_of(e: &LeafEntry) -> ConstrainedGaussian {
    ConstrainedGaussian::new(e.aux[0], e.aux[1], e.aux[2], e.aux[3])
}

// ---------------------------------------------------------------------------
// Heap page codec: [count u16][(len u32, tuple bytes)*]
// ---------------------------------------------------------------------------

fn encode_heap_page(tuples: &[&Tuple], page_size: usize) -> Bytes {
    let mut buf = vec![0u8; page_size];
    buf[0..2].copy_from_slice(&(tuples.len() as u16).to_le_bytes());
    let mut at = 2;
    for t in tuples {
        let enc = encode_tuple(t);
        buf[at..at + 4].copy_from_slice(&(enc.len() as u32).to_le_bytes());
        at += 4;
        buf[at..at + enc.len()].copy_from_slice(&enc);
        at += enc.len();
    }
    assert!(at <= page_size, "heap page overflow");
    Bytes::from(buf)
}

fn decode_heap_page(data: &[u8]) -> Vec<Tuple> {
    let count = u16::from_le_bytes(data[0..2].try_into().unwrap()) as usize;
    let mut at = 2;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        out.push(decode_tuple(&data[at..at + len]));
        at += len;
    }
    out
}

fn heap_page_bytes_needed(tuples: &[&Tuple]) -> usize {
    2 + tuples.iter().map(|t| 4 + t.encoded_len()).sum::<usize>()
}

// ---------------------------------------------------------------------------
// ContinuousUpi
// ---------------------------------------------------------------------------

/// The continuous UPI: an R-Tree over constrained-Gaussian locations with a
/// heap file clustered in the tree's depth-first leaf order.
pub struct ContinuousUpi {
    store: Store,
    cfg: ContinuousConfig,
    loc_attr: usize,
    rtree: RTree,
    heap_file: FileId,
    /// R-Tree leaf page → chain of heap pages (first + overflow).
    leaf_chain: HashMap<PageId, Vec<PageId>>,
    /// Tuple id → heap page currently holding it (maintained on splits;
    /// this is the in-RAM piece of the leaf↔heap synchronization).
    tid_page: HashMap<u64, PageId>,
    n_tuples: u64,
}

impl ContinuousUpi {
    /// Create an empty continuous UPI on point field `loc_attr`.
    pub fn create(
        store: Store,
        name: &str,
        loc_attr: usize,
        cfg: ContinuousConfig,
    ) -> Result<ContinuousUpi> {
        let rtree = RTree::create(store.clone(), &format!("{name}.rtree"), cfg.node_page)?;
        let heap_file = store
            .disk
            .create_file(&format!("{name}.cheap"), cfg.heap_page);
        Ok(ContinuousUpi {
            store,
            cfg,
            loc_attr,
            rtree,
            heap_file,
            leaf_chain: HashMap::new(),
            tid_page: HashMap::new(),
            n_tuples: 0,
        })
    }

    /// Bulk-load tuples: STR-build the R-Tree, then lay heap pages out in
    /// depth-first leaf order (Figure 2's hierarchical clustering).
    pub fn bulk_load(&mut self, tuples: &[Tuple]) -> Result<()> {
        assert!(self.n_tuples == 0, "bulk_load requires an empty index");
        let by_tid: HashMap<u64, &Tuple> = tuples.iter().map(|t| (t.id.0, t)).collect();
        let entries: Vec<LeafEntry> = tuples
            .iter()
            .map(|t| leaf_entry(t, self.loc_attr))
            .collect();
        self.rtree.bulk_load(entries)?;

        for leaf in self.rtree.leaf_order()? {
            let leaf_tuples: Vec<&Tuple> = self
                .rtree
                .leaf_entries(leaf)?
                .iter()
                .map(|e| by_tid[&e.tid])
                .collect();
            let chain = self.write_chain(&leaf_tuples)?;
            self.index_chain(&chain)?;
            self.leaf_chain.insert(leaf, chain);
        }
        self.n_tuples = tuples.len() as u64;
        self.store.pool.flush_all();
        Ok(())
    }

    /// Write tuples into a fresh chain of heap pages (greedy packing).
    fn write_chain(&mut self, tuples: &[&Tuple]) -> Result<Vec<PageId>> {
        let page_size = self.cfg.heap_page as usize;
        let mut chain = Vec::new();
        let mut current: Vec<&Tuple> = Vec::new();
        for &t in tuples {
            let mut candidate = current.clone();
            candidate.push(t);
            if heap_page_bytes_needed(&candidate) > page_size && !current.is_empty() {
                let pid = self.store.disk.alloc_page(self.heap_file)?;
                self.store
                    .pool
                    .put(pid, encode_heap_page(&current, page_size));
                chain.push(pid);
                current = vec![t];
            } else {
                current = candidate;
            }
        }
        let pid = self.store.disk.alloc_page(self.heap_file)?;
        self.store
            .pool
            .put(pid, encode_heap_page(&current, page_size));
        chain.push(pid);
        Ok(chain)
    }

    /// Record tid→page for every tuple in a chain (reads through the pool,
    /// which still holds the just-written frames).
    fn index_chain(&mut self, chain: &[PageId]) -> Result<()> {
        for &pid in chain {
            for t in decode_heap_page(&self.store.pool.get(pid)?) {
                self.tid_page.insert(t.id.0, pid);
            }
        }
        Ok(())
    }

    /// Insert one tuple: R-Tree insert (splitting heap pages alongside leaf
    /// splits, §5) then append to the destination leaf's chain.
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        let mut events: Vec<SplitEvent> = Vec::new();
        let dest_leaf = self
            .rtree
            .insert(leaf_entry(t, self.loc_attr), &mut events)?;

        for ev in &events {
            self.split_chain(ev)?;
        }

        // Append the tuple to its leaf's chain (allocating an overflow page
        // when full — Figure 2's "overflow page").
        let page_size = self.cfg.heap_page as usize;
        let chain = self.leaf_chain.entry(dest_leaf).or_default();
        let mut placed = false;
        if let Some(&last) = chain.last() {
            let mut tuples = decode_heap_page(&self.store.pool.get(last)?);
            tuples.push(t.clone());
            let refs: Vec<&Tuple> = tuples.iter().collect();
            if heap_page_bytes_needed(&refs) <= page_size {
                self.store
                    .pool
                    .put(last, encode_heap_page(&refs, page_size));
                self.tid_page.insert(t.id.0, last);
                placed = true;
            }
        }
        if !placed {
            let pid = self.store.disk.alloc_page(self.heap_file)?;
            self.store.pool.put(pid, encode_heap_page(&[t], page_size));
            self.leaf_chain
                .get_mut(&dest_leaf)
                .expect("chain just ensured")
                .push(pid);
            self.tid_page.insert(t.id.0, pid);
        }
        self.n_tuples += 1;
        Ok(())
    }

    /// Mirror an R-Tree leaf split onto the heap: tuples of the moved
    /// entries migrate to a fresh chain for the new leaf.
    fn split_chain(&mut self, ev: &SplitEvent) -> Result<()> {
        let old_chain = self.leaf_chain.remove(&ev.old_leaf).unwrap_or_default();
        let mut all: Vec<Tuple> = Vec::new();
        for pid in &old_chain {
            all.extend(decode_heap_page(&self.store.pool.get(*pid)?));
            self.store.pool.discard(*pid);
            self.store.free_page(*pid)?;
        }
        let moved: std::collections::HashSet<u64> = ev.moved.iter().copied().collect();
        let (stay, go): (Vec<Tuple>, Vec<Tuple>) =
            all.into_iter().partition(|t| !moved.contains(&t.id.0));
        let stay_refs: Vec<&Tuple> = stay.iter().collect();
        let go_refs: Vec<&Tuple> = go.iter().collect();
        let stay_chain = self.write_chain(&stay_refs)?;
        let go_chain = self.write_chain(&go_refs)?;
        self.index_chain(&stay_chain)?;
        self.index_chain(&go_chain)?;
        self.leaf_chain.insert(ev.old_leaf, stay_chain);
        self.leaf_chain.insert(ev.new_leaf, go_chain);
        Ok(())
    }

    /// Query 4: `SELECT * WHERE Distance(location, q) ≤ radius` with
    /// confidence threshold `qt`.
    ///
    /// Descends the R-Tree (4 KB node reads), prunes candidates with the
    /// quantile-circle bound, then reads the candidate leaves' heap pages —
    /// which are contiguous thanks to the hierarchical clustering — and
    /// evaluates the exact circle probability on each candidate.
    pub fn query_circle(&self, qx: f64, qy: f64, radius: f64, qt: f64) -> Result<Vec<PtqResult>> {
        let groups = self
            .rtree
            .query_circle_grouped(Point::new(qx, qy), radius)?;
        // Collect candidate tids per heap page, pruning with the aux
        // distribution parameters (sound: existence ≤ 1).
        let mut page_tids: HashMap<PageId, Vec<u64>> = HashMap::new();
        for (_leaf, entries) in &groups {
            for e in entries {
                if gaussian_of(e).can_reach(qx, qy, radius, qt) {
                    let page = self.tid_page[&e.tid];
                    page_tids.entry(page).or_default().push(e.tid);
                }
            }
        }
        // Read pages in physical order.
        let mut pages: Vec<PageId> = page_tids.keys().copied().collect();
        pages.sort_unstable_by_key(|&p| self.store.disk.page_offset(p).unwrap_or(u64::MAX));
        let mut out = Vec::new();
        for pid in pages {
            let want = &page_tids[&pid];
            for t in decode_heap_page(&self.store.pool.get(pid)?) {
                if want.contains(&t.id.0) {
                    let g = t.point(self.loc_attr);
                    let conf = t.exist * g.prob_in_circle(qx, qy, radius);
                    if conf >= qt {
                        out.push(PtqResult {
                            tuple: t,
                            confidence: conf,
                        });
                    }
                }
            }
        }
        sort_results(&mut out);
        Ok(out)
    }

    /// Read every tuple stored in one heap page.
    pub fn read_page_tuples(&self, pid: PageId) -> Result<Vec<Tuple>> {
        Ok(decode_heap_page(&self.store.pool.get(pid)?))
    }

    /// The heap page currently holding tuple `tid`.
    pub fn page_of(&self, tid: TupleId) -> Option<PageId> {
        self.tid_page.get(&tid.0).copied()
    }

    /// Number of tuples.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// The indexed point field.
    pub fn attr(&self) -> usize {
        self.loc_attr
    }

    /// Bounding rectangle of every indexed location (`None` when empty) —
    /// the spatial domain for the planner's circle selectivity estimate.
    pub fn bounds(&self) -> Result<Option<upi_rtree::Rect>> {
        self.rtree.bounds()
    }

    /// R-Tree statistics.
    pub fn rtree_stats(&self) -> RTreeStats {
        self.rtree.stats()
    }

    /// The storage file backing the R-Tree.
    pub fn rtree_file(&self) -> FileId {
        self.rtree.file()
    }

    /// The storage file backing the clustered heap pages.
    pub fn heap_file(&self) -> FileId {
        self.heap_file
    }

    /// Live bytes (R-Tree nodes + heap pages).
    pub fn total_bytes(&self) -> u64 {
        let rtree_bytes = (self.rtree.stats().leaf_pages + self.rtree.stats().internal_pages)
            as u64
            * self.cfg.node_page as u64;
        let heap_bytes = self.store.disk.file_bytes(self.heap_file).unwrap_or(0);
        rtree_bytes + heap_bytes
    }
}

// ---------------------------------------------------------------------------
// SecondaryUTree
// ---------------------------------------------------------------------------

/// The Figure 7 baseline: the same probabilistic R-Tree used as a
/// *secondary* index — qualifying tuples are fetched one by one from an
/// unclustered heap.
pub struct SecondaryUTree {
    rtree: RTree,
    loc_attr: usize,
}

impl SecondaryUTree {
    /// Create on point field `loc_attr` with `node_page`-byte nodes.
    pub fn create(
        store: Store,
        name: &str,
        loc_attr: usize,
        node_page: u32,
    ) -> Result<SecondaryUTree> {
        Ok(SecondaryUTree {
            rtree: RTree::create(store, &format!("{name}.utree"), node_page)?,
            loc_attr,
        })
    }

    /// STR bulk load.
    pub fn bulk_load(&mut self, tuples: &[Tuple]) -> Result<()> {
        let entries: Vec<LeafEntry> = tuples
            .iter()
            .map(|t| leaf_entry(t, self.loc_attr))
            .collect();
        self.rtree.bulk_load(entries)
    }

    /// Insert one tuple's entry.
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        let mut events = Vec::new();
        self.rtree
            .insert(leaf_entry(t, self.loc_attr), &mut events)?;
        Ok(())
    }

    /// Query 4 through the secondary index: candidates from the R-Tree,
    /// then one unclustered-heap fetch per candidate (sorted by tid — the
    /// bitmap-scan discipline — but still one random hop each).
    pub fn query_circle(
        &self,
        heap: &UnclusteredHeap,
        qx: f64,
        qy: f64,
        radius: f64,
        qt: f64,
    ) -> Result<Vec<PtqResult>> {
        let mut candidates: Vec<u64> = self
            .rtree
            .query_circle(Point::new(qx, qy), radius)?
            .into_iter()
            .filter(|e| gaussian_of(e).can_reach(qx, qy, radius, qt))
            .map(|e| e.tid)
            .collect();
        candidates.sort_unstable();
        let mut out = Vec::new();
        for tid in candidates {
            if let Some(t) = heap.get(TupleId(tid))? {
                let g = t.point(self.loc_attr);
                let conf = t.exist * g.prob_in_circle(qx, qy, radius);
                if conf >= qt {
                    out.push(PtqResult {
                        tuple: t,
                        confidence: conf,
                    });
                }
            }
        }
        sort_results(&mut out);
        Ok(out)
    }

    /// R-Tree statistics.
    pub fn stats(&self) -> RTreeStats {
        self.rtree.stats()
    }

    /// The storage file backing the R-Tree.
    pub fn file(&self) -> FileId {
        self.rtree.file()
    }

    /// The indexed point field.
    pub fn attr(&self) -> usize {
        self.loc_attr
    }

    /// Bounding rectangle of every indexed location (`None` when empty).
    pub fn bounds(&self) -> Result<Option<upi_rtree::Rect>> {
        self.rtree.bounds()
    }
}

// ---------------------------------------------------------------------------
// ContinuousSecondary
// ---------------------------------------------------------------------------

/// A PII-style secondary index on a discrete attribute of a continuous-UPI
/// table (Query 5: road segment). Entries are `(segment, confidence DESC,
/// tid)`; the payload is the heap **page** holding the tuple, so the index
/// exploits the UPI's replicated spatial clustering: one road segment's
/// tuples collapse onto a handful of heap pages.
pub struct ContinuousSecondary {
    attr: usize,
    tree: BTree,
    stats: AttrStats,
}

impl ContinuousSecondary {
    /// Create on discrete field `attr`.
    pub fn create(
        store: Store,
        name: &str,
        attr: usize,
        page_size: u32,
    ) -> Result<ContinuousSecondary> {
        Ok(ContinuousSecondary {
            attr,
            tree: BTree::create(store, name, page_size)?,
            stats: AttrStats::new(),
        })
    }

    /// Bulk-load entries for `tuples`, resolving heap pages through `upi`.
    pub fn bulk_load(&mut self, upi: &ContinuousUpi, tuples: &[Tuple]) -> Result<u64> {
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for t in tuples {
            let page = upi
                .page_of(t.id)
                .expect("tuple must be loaded into the continuous UPI first");
            for (i, &(v, p)) in t.discrete(self.attr).alternatives().iter().enumerate() {
                entries.push((
                    keys::entry_key(v, p * t.exist, t.id.0),
                    page.0.to_le_bytes().to_vec(),
                ));
                self.stats.add(v, p * t.exist, i == 0);
            }
        }
        entries.sort();
        self.tree.bulk_load(entries)
    }

    /// Query 5: `SELECT * WHERE segment = value, confidence ≥ qt` through
    /// the continuous UPI's heap.
    pub fn ptq(&self, upi: &ContinuousUpi, value: u64, qt: f64) -> Result<Vec<PtqResult>> {
        // Index scan.
        let mut matches: Vec<(u64, f64, PageId)> = Vec::new();
        let mut cur = self.tree.seek(&keys::value_prefix(value))?;
        while cur.valid() {
            let (v, prob, tid) = keys::decode_entry_key(cur.key());
            if v != value || prob < qt {
                break;
            }
            let page = PageId(u64::from_le_bytes(cur.value().try_into().unwrap()));
            matches.push((tid, prob, page));
            cur.advance()?;
        }
        // Group by page, visit pages in physical order.
        let mut page_tids: HashMap<PageId, Vec<(u64, f64)>> = HashMap::new();
        for (tid, prob, page) in matches {
            page_tids.entry(page).or_default().push((tid, prob));
        }
        let mut pages: Vec<PageId> = page_tids.keys().copied().collect();
        pages.sort_unstable_by_key(|&p| upi.store.disk.page_offset(p).unwrap_or(u64::MAX));
        let mut out = Vec::new();
        for pid in pages {
            let want = &page_tids[&pid];
            let tuples = upi.read_page_tuples(pid)?;
            for (tid, prob) in want {
                match tuples.iter().find(|t| t.id.0 == *tid) {
                    Some(t) => out.push(PtqResult {
                        tuple: t.clone(),
                        confidence: *prob,
                    }),
                    None => {
                        // The tuple migrated during a later leaf split;
                        // resolve through the synchronization map.
                        if let Some(actual) = upi.page_of(TupleId(*tid)) {
                            let t = upi
                                .read_page_tuples(actual)?
                                .into_iter()
                                .find(|t| t.id.0 == *tid)
                                .expect("tid_page map must be current");
                            out.push(PtqResult {
                                tuple: t,
                                confidence: *prob,
                            });
                        }
                    }
                }
            }
        }
        sort_results(&mut out);
        Ok(out)
    }

    /// Entry count.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Live bytes.
    pub fn bytes(&self) -> u64 {
        self.tree.stats().bytes
    }

    /// The indexed discrete field.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Height of the backing tree (cost-model `H`).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// The storage file backing the index.
    pub fn file(&self) -> FileId {
        self.tree.file()
    }

    /// Histogram statistics of the indexed attribute (folded
    /// probabilities) — selectivity estimation for the planner.
    pub fn attr_stats(&self) -> &AttrStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, Field};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 16 << 20)
    }

    /// Deterministic observation at (x, y) on segment `seg`.
    fn obs(id: u64, x: f64, y: f64, seg: u64) -> Tuple {
        Tuple::new(
            TupleId(id),
            1.0,
            vec![
                Field::Point(ConstrainedGaussian::new(x, y, 10.0, 50.0)),
                Field::Discrete(DiscretePmf::new(vec![(seg, 0.8), (seg + 1000, 0.15)])),
                Field::Certain(Datum::F64(13.0)),
                Field::Certain(Datum::Str("p".repeat(100))),
            ],
        )
    }

    fn cloud(n: u64) -> Vec<Tuple> {
        let mut state = 0xC0FFEEu64;
        let mut unif = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let x = unif() * 5000.0;
                let y = unif() * 5000.0;
                let seg = ((x / 500.0) as u64) * 10 + (y / 500.0) as u64;
                obs(i, x, y, seg)
            })
            .collect()
    }

    fn linear_query(tuples: &[Tuple], qx: f64, qy: f64, r: f64, qt: f64) -> Vec<u64> {
        let mut out: Vec<u64> = tuples
            .iter()
            .filter(|t| t.exist * t.point(0).prob_in_circle(qx, qy, r) >= qt)
            .map(|t| t.id.0)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn bulk_query_matches_linear_scan() {
        let tuples = cloud(4000);
        let mut upi = ContinuousUpi::create(store(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        for (qx, qy, r, qt) in [
            (2500.0, 2500.0, 300.0, 0.5),
            (1000.0, 4000.0, 150.0, 0.1),
            (0.0, 0.0, 500.0, 0.9),
        ] {
            let mut got: Vec<u64> = upi
                .query_circle(qx, qy, r, qt)
                .unwrap()
                .iter()
                .map(|r| r.tuple.id.0)
                .collect();
            got.sort_unstable();
            assert_eq!(
                got,
                linear_query(&tuples, qx, qy, r, qt),
                "q=({qx},{qy},{r},{qt})"
            );
        }
    }

    #[test]
    fn secondary_utree_matches_continuous_upi_results() {
        let st = store();
        let tuples = cloud(3000);
        let mut upi =
            ContinuousUpi::create(st.clone(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut heap = UnclusteredHeap::create(st.clone(), "uheap", 8192).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut ut = SecondaryUTree::create(st.clone(), "ut", 0, 4096).unwrap();
        ut.bulk_load(&tuples).unwrap();

        let a: Vec<u64> = upi
            .query_circle(2500.0, 2500.0, 400.0, 0.3)
            .unwrap()
            .iter()
            .map(|r| r.tuple.id.0)
            .collect();
        let b: Vec<u64> = ut
            .query_circle(&heap, 2500.0, 2500.0, 400.0, 0.3)
            .unwrap()
            .iter()
            .map(|r| r.tuple.id.0)
            .collect();
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn continuous_upi_reads_fewer_seeks_than_utree() {
        // The Figure 7 mechanism at unit-test scale. File-open charges are
        // excluded (both sides open two files; the interesting quantity is
        // the transfer/seek pattern). Buffer-pool read-ahead is disabled:
        // at this tiny scale the U-Tree's tid-order candidate fetches land
        // on adjacent heap pages and read-ahead collapses them into a
        // near-sequential scan, masking the clustering-vs-seek mechanism
        // this test isolates (at benchmark scale candidates are sparse and
        // read-ahead never arms on that path).
        let st = Store::new(
            Arc::new(SimDisk::new(upi_storage::DiskConfig {
                readahead_pages: 0,
                ..upi_storage::DiskConfig::default()
            })),
            8 << 20,
        );
        let tuples = cloud(12_000);
        let mut upi =
            ContinuousUpi::create(st.clone(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut heap = UnclusteredHeap::create(st.clone(), "uheap", 8192).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut ut = SecondaryUTree::create(st.clone(), "ut", 0, 4096).unwrap();
        ut.bulk_load(&tuples).unwrap();

        let io_ms = |st: &Store, f: &dyn Fn()| {
            st.go_cold();
            let before = st.disk.stats();
            f();
            let d = st.disk.stats().since(&before);
            d.total_ms() - d.init_ms
        };
        let upi_ms = io_ms(&st, &|| {
            upi.query_circle(2500.0, 2500.0, 600.0, 0.3).unwrap();
        });
        let ut_ms = io_ms(&st, &|| {
            ut.query_circle(&heap, 2500.0, 2500.0, 600.0, 0.3).unwrap();
        });
        // At unit-test scale the win is small (the unclustered heap is only
        // a few MB); the order-of-magnitude factor of Figure 7 is exercised
        // at benchmark scale. Here we only require a strict win.
        assert!(
            upi_ms < ut_ms,
            "continuous UPI ({upi_ms:.0}ms) must beat secondary U-Tree ({ut_ms:.0}ms)"
        );
    }

    #[test]
    fn incremental_insert_with_splits_preserves_queries() {
        let tuples = cloud(1500);
        let mut upi = ContinuousUpi::create(
            store(),
            "c",
            0,
            ContinuousConfig {
                node_page: 4096,
                heap_page: 8192, // small pages force overflow + split handling
            },
        )
        .unwrap();
        upi.bulk_load(&tuples[..500]).unwrap();
        for t in &tuples[500..] {
            upi.insert(t).unwrap();
        }
        assert_eq!(upi.n_tuples(), 1500);
        for (qx, qy, r, qt) in [(2500.0, 2500.0, 400.0, 0.4), (500.0, 500.0, 300.0, 0.2)] {
            let mut got: Vec<u64> = upi
                .query_circle(qx, qy, r, qt)
                .unwrap()
                .iter()
                .map(|r| r.tuple.id.0)
                .collect();
            got.sort_unstable();
            assert_eq!(got, linear_query(&tuples, qx, qy, r, qt));
        }
    }

    #[test]
    fn continuous_secondary_ptq_matches_direct_filter() {
        let st = store();
        let tuples = cloud(3000);
        let mut upi =
            ContinuousUpi::create(st.clone(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut sec = ContinuousSecondary::create(st.clone(), "seg", 1, 8192).unwrap();
        sec.bulk_load(&upi, &tuples).unwrap();

        let seg = 55u64;
        let qt = 0.5;
        let mut got: Vec<u64> = sec
            .ptq(&upi, seg, qt)
            .unwrap()
            .iter()
            .map(|r| r.tuple.id.0)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = tuples
            .iter()
            .filter(|t| t.exist * t.discrete(1).prob_of(seg) >= qt)
            .map(|t| t.id.0)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "busy segment must match something");
    }

    #[test]
    fn heap_page_codec_roundtrip() {
        let tuples = cloud(10);
        let refs: Vec<&Tuple> = tuples.iter().collect();
        let page = encode_heap_page(&refs, 65536);
        let back = decode_heap_page(&page);
        assert_eq!(back, tuples);
    }
}
