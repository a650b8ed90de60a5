//! Unclustered heap table (the paper's baseline table layout).
//!
//! "We compare an unclustered table (clustered by an auto-increment
//! sequence)" (§7.2): tuples are stored in a B+Tree keyed by their
//! monotonically increasing tuple id, so inserts append at the right edge
//! (sequential) while point fetches by id from an index scatter across the
//! file.

use upi_btree::{BTree, Cursor, TreeStats};

use crate::exec::CursorStats;
use upi_storage::error::Result;
use upi_storage::Store;
use upi_uncertain::tuple::{decode_tuple, encode_tuple};
use upi_uncertain::{Tuple, TupleId};

/// A heap file clustered by auto-increment tuple id.
pub struct UnclusteredHeap {
    tree: BTree,
}

impl UnclusteredHeap {
    /// Create an empty heap in file `name` with `page_size` pages.
    pub fn create(store: Store, name: &str, page_size: u32) -> Result<UnclusteredHeap> {
        Ok(UnclusteredHeap {
            tree: BTree::create(store, name, page_size)?,
        })
    }

    /// Bulk-load tuples (must be in ascending id order).
    pub fn bulk_load<'a, I>(&mut self, tuples: I) -> Result<u64>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        self.tree.bulk_load(
            tuples
                .into_iter()
                .map(|t| (t.id.0.to_be_bytes().to_vec(), encode_tuple(t)))
                .collect::<Vec<_>>(),
        )
    }

    /// Insert one tuple.
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        self.tree.insert(&t.id.0.to_be_bytes(), &encode_tuple(t))?;
        Ok(())
    }

    /// Delete by id; returns whether it existed.
    pub fn delete(&mut self, id: TupleId) -> Result<bool> {
        self.tree.delete(&id.0.to_be_bytes())
    }

    /// Point fetch by id.
    pub fn get(&self, id: TupleId) -> Result<Option<Tuple>> {
        Ok(self
            .tree
            .get(&id.0.to_be_bytes())?
            .map(|bytes| decode_tuple(&bytes)))
    }

    /// Sequentially scan every tuple in id order.
    pub fn scan(&self) -> Result<Vec<Tuple>> {
        Ok(self.tree.iter()?.map(|(_, v)| decode_tuple(&v)).collect())
    }

    /// Streaming sequential scan in id order (the full-table-scan access
    /// path of the `upi-query` executor).
    pub fn scan_run(&self) -> Result<HeapScanRun<'_>> {
        Ok(HeapScanRun {
            cur: self.tree.first()?,
            stats: CursorStats::default(),
        })
    }

    /// The first leaf page — where a full sequential scan starts (feeds
    /// the planner's scan prefetch hint).
    pub fn first_leaf_page(&self) -> Result<upi_storage::PageId> {
        self.tree.leaf_page_for(&[])
    }

    /// Number of tuples.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True if the heap holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Live bytes of the backing file.
    pub fn bytes(&self) -> u64 {
        self.tree.stats().bytes
    }

    /// Height of the backing B+Tree (cost-model `H`).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Tree statistics of the backing file (cost-model `S_table`,
    /// `N_leaf`, `H`).
    pub fn stats(&self) -> TreeStats {
        self.tree.stats()
    }
}

/// Streaming full-scan iterator (see [`UnclusteredHeap::scan_run`]).
pub struct HeapScanRun<'a> {
    cur: Cursor<'a>,
    stats: CursorStats,
}

impl HeapScanRun<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// [`Iterator::next`] with a row filter applied to each tuple's
    /// **encoded** bytes before it is decoded: a row failing `keep` (a
    /// scan predicate evaluated by byte-level peek) is counted as
    /// suppressed and never materialized.
    pub fn next_where(&mut self, keep: &dyn Fn(&[u8]) -> bool) -> Option<Result<Tuple>> {
        while self.cur.valid() {
            let tuple = keep(self.cur.value()).then(|| decode_tuple(self.cur.value()));
            match tuple {
                Some(_) => self.stats.decodes += 1,
                None => self.stats.suppressed += 1,
            }
            if let Err(e) = self.cur.advance() {
                return Some(Err(e));
            }
            if let Some(tuple) = tuple {
                self.stats.rows += 1;
                return Some(Ok(tuple));
            }
        }
        None
    }
}

impl Iterator for HeapScanRun<'_> {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_where(&|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, Field};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
    }

    fn tup(id: u64) -> Tuple {
        Tuple::new(
            TupleId(id),
            1.0,
            vec![Field::Certain(Datum::Str(format!("tuple-{id}")))],
        )
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut h = UnclusteredHeap::create(store(), "h", 4096).unwrap();
        for i in 0..100 {
            h.insert(&tup(i)).unwrap();
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.get(TupleId(42)).unwrap().unwrap(), tup(42));
        assert!(h.delete(TupleId(42)).unwrap());
        assert!(!h.delete(TupleId(42)).unwrap());
        assert!(h.get(TupleId(42)).unwrap().is_none());
        assert_eq!(h.len(), 99);
    }

    #[test]
    fn bulk_load_and_scan_in_id_order() {
        let tuples: Vec<Tuple> = (0..500).map(tup).collect();
        let mut h = UnclusteredHeap::create(store(), "h", 4096).unwrap();
        h.bulk_load(&tuples).unwrap();
        let scanned = h.scan().unwrap();
        assert_eq!(scanned, tuples);
    }

    #[test]
    fn appends_are_sequential() {
        // Auto-increment clustering: inserting ascending ids should be
        // nearly seek-free once flushed (Table 7: unclustered insert is
        // fast).
        let st = store();
        let mut h = UnclusteredHeap::create(st.clone(), "h", 4096).unwrap();
        st.go_cold();
        let before = st.disk.stats();
        for i in 0..2000 {
            h.insert(&tup(i)).unwrap();
        }
        st.pool.flush_all();
        let d = st.disk.stats().since(&before);
        // Write-back elevator flush: page writes ≈ live pages, few seeks.
        assert!(
            d.seeks < d.page_writes / 4 + 8,
            "append workload must be mostly sequential: {d}"
        );
    }
}
