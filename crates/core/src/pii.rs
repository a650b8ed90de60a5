//! PII — Probabilistic Inverted Index baseline (Singh et al., ICDE 2007).
//!
//! "PII is an uncertain index based on an inverted index which orders
//! inverted entries by their probability. We compared UPI with PII because
//! PII has been shown to perform fast for discrete distributions" (§7.2).
//!
//! A PII is a *secondary* index: entries are `(value, prob DESC, tid)` keys
//! with no payload; qualifying tuple ids are fetched from the unclustered
//! heap. Following the paper's setup, pointers are sorted in heap order
//! before fetching ("similarly to PostgreSQL's bitmap index scan"), which
//! is what produces the saturation behaviour of §6.3 — at low thresholds
//! the fetch degenerates into a near-full table scan.

use upi_btree::{BTree, Cursor};
use upi_storage::error::Result;
use upi_storage::Store;
use upi_uncertain::{AttrStats, Tuple, TupleId};

use crate::exec::{sort_results, PtqResult};
use crate::heap::UnclusteredHeap;
use crate::keys;

/// A probabilistic inverted index over one discrete uncertain attribute.
pub struct Pii {
    attr: usize,
    tree: BTree,
    stats: AttrStats,
}

impl Pii {
    /// Create an empty PII on field `attr` in file `name`.
    pub fn create(store: Store, name: &str, attr: usize, page_size: u32) -> Result<Pii> {
        Ok(Pii {
            attr,
            tree: BTree::create(store, name, page_size)?,
            stats: AttrStats::new(),
        })
    }

    /// The indexed field.
    pub fn attr(&self) -> usize {
        self.attr
    }

    fn folded_alts(&self, t: &Tuple) -> Vec<(u64, f64)> {
        t.discrete(self.attr)
            .alternatives()
            .iter()
            .map(|&(v, p)| (v, p * t.exist))
            .collect()
    }

    /// Bulk-load from tuples: one entry per alternative, keyed
    /// `(value, confidence DESC, tid)`.
    pub fn bulk_load<'a, I>(&mut self, tuples: I) -> Result<u64>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for t in tuples {
            for (i, (v, p)) in self.folded_alts(t).into_iter().enumerate() {
                entries.push((keys::entry_key(v, p, t.id.0), Vec::new()));
                self.stats.add(v, p, i == 0);
            }
        }
        entries.sort();
        self.tree.bulk_load(entries)
    }

    /// Index one tuple.
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        for (i, (v, p)) in self.folded_alts(t).into_iter().enumerate() {
            self.tree.insert(&keys::entry_key(v, p, t.id.0), &[])?;
            self.stats.add(v, p, i == 0);
        }
        Ok(())
    }

    /// Remove a tuple's entries.
    pub fn delete(&mut self, t: &Tuple) -> Result<()> {
        for (i, (v, p)) in self.folded_alts(t).into_iter().enumerate() {
            self.tree.delete(&keys::entry_key(v, p, t.id.0))?;
            self.stats.remove(v, p, i == 0);
        }
        Ok(())
    }

    /// Index-only part of a PTQ: `(tid, confidence)` of every entry for
    /// `value` with confidence `≥ qt`, in descending confidence order.
    pub fn matching(&self, value: u64, qt: f64) -> Result<Vec<(u64, f64)>> {
        self.matching_run(value, qt)?.collect()
    }

    /// Streaming variant of [`matching`](Self::matching): yields
    /// `(tid, confidence)` in descending-confidence order without
    /// materializing the inverted list (the `upi-query` executor's PII
    /// probe operator).
    pub fn matching_run(&self, value: u64, qt: f64) -> Result<PiiRun<'_>> {
        let cur = self.tree.seek(&keys::value_prefix(value))?;
        Ok(PiiRun { cur, value, qt })
    }

    /// Full PTQ: read qualifying pointers, sort them in heap (tid) order,
    /// and fetch each tuple from the unclustered heap.
    pub fn ptq(&self, heap: &UnclusteredHeap, value: u64, qt: f64) -> Result<Vec<PtqResult>> {
        let mut matches = self.matching(value, qt)?;
        // Bitmap-scan style: visit the heap in physical order.
        matches.sort_unstable_by_key(|&(tid, _)| tid);
        let mut out = Vec::with_capacity(matches.len());
        for (tid, confidence) in matches {
            if let Some(tuple) = heap.get(TupleId(tid))? {
                out.push(PtqResult { tuple, confidence });
            }
        }
        // Present results in descending confidence like the UPI does.
        sort_results(&mut out);
        Ok(out)
    }

    /// Range PTQ through the inverted index:
    /// `SELECT * WHERE attr BETWEEN lo AND hi, confidence ≥ qt`.
    ///
    /// Confidence is `existence × Σ_{v ∈ [lo,hi]} P(v)` (alternatives
    /// sum), so every index entry in the range is read; qualifying tuples
    /// are then fetched from the heap in physical order.
    pub fn ptq_range(
        &self,
        heap: &UnclusteredHeap,
        lo: u64,
        hi: u64,
        qt: f64,
    ) -> Result<Vec<PtqResult>> {
        assert!(lo <= hi, "inverted range");
        let mut sums: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        let mut cur = self.tree.seek(&keys::value_prefix(lo))?;
        while cur.valid() {
            let (v, prob, tid) = keys::decode_entry_key(cur.key());
            if v > hi {
                break;
            }
            *sums.entry(tid).or_insert(0.0) += prob;
            cur.advance()?;
        }
        let mut qualifying: Vec<(u64, f64)> =
            sums.into_iter().filter(|&(_, conf)| conf >= qt).collect();
        qualifying.sort_unstable_by_key(|&(tid, _)| tid);
        let mut out = Vec::with_capacity(qualifying.len());
        for (tid, confidence) in qualifying {
            if let Some(tuple) = heap.get(TupleId(tid))? {
                out.push(PtqResult { tuple, confidence });
            }
        }
        sort_results(&mut out);
        Ok(out)
    }

    /// Top-k most confident tuples for `value`: scan the inverted list in
    /// probability order, fetching as we go (§9's alternative TAL).
    pub fn top_k(&self, heap: &UnclusteredHeap, value: u64, k: usize) -> Result<Vec<PtqResult>> {
        let mut out = Vec::with_capacity(k);
        let mut cur = self.tree.seek(&keys::value_prefix(value))?;
        while cur.valid() && out.len() < k {
            let (v, prob, tid) = keys::decode_entry_key(cur.key());
            if v != value {
                break;
            }
            if let Some(tuple) = heap.get(TupleId(tid))? {
                out.push(PtqResult {
                    tuple,
                    confidence: prob,
                });
            }
            cur.advance()?;
        }
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

    /// Live bytes of the backing file.
    pub fn bytes(&self) -> u64 {
        self.tree.stats().bytes
    }

    /// Height of the backing tree (cost-model `H`).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// The storage file backing the inverted lists.
    pub fn file(&self) -> upi_storage::FileId {
        self.tree.file()
    }

    /// Histogram statistics of the indexed attribute (folded
    /// probabilities) — selectivity estimation for the planner.
    pub fn stats(&self) -> &AttrStats {
        &self.stats
    }
}

/// Streaming iterator over one value's inverted list (see
/// [`Pii::matching_run`]). Yields `(tid, confidence)` descending.
pub struct PiiRun<'a> {
    cur: Cursor<'a>,
    value: u64,
    qt: f64,
}

impl Iterator for PiiRun<'_> {
    type Item = Result<(u64, f64)>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.cur.valid() {
            return None;
        }
        let (v, prob, tid) = keys::decode_entry_key(self.cur.key());
        if v != self.value || prob < self.qt {
            return None;
        }
        if let Err(e) = self.cur.advance() {
            return Some(Err(e));
        }
        Some(Ok((tid, prob)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, Field};

    const BROWN: u64 = 0;
    const MIT: u64 = 1;
    const UCB: u64 = 2;

    fn author(id: u64, exist: f64, alts: Vec<(u64, f64)>) -> Tuple {
        Tuple::new(
            TupleId(id),
            exist,
            vec![
                Field::Certain(Datum::Str(format!("author-{id}"))),
                Field::Discrete(DiscretePmf::new(alts)),
            ],
        )
    }

    fn table1() -> Vec<Tuple> {
        vec![
            author(1, 0.9, vec![(BROWN, 0.8), (MIT, 0.2)]),
            author(2, 1.0, vec![(MIT, 0.95), (UCB, 0.05)]),
            author(3, 0.8, vec![(BROWN, 0.6), (3, 0.4)]),
        ]
    }

    fn setup() -> (UnclusteredHeap, Pii) {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
        let tuples = table1();
        let mut heap = UnclusteredHeap::create(store.clone(), "heap", 8192).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut pii = Pii::create(store, "pii", 1, 8192).unwrap();
        pii.bulk_load(&tuples).unwrap();
        (heap, pii)
    }

    #[test]
    fn query1_answers_match_paper() {
        let (heap, pii) = setup();
        // WHERE Institution=MIT → {(Bob, 95%), (Alice, 18%)}.
        let res = pii.ptq(&heap, MIT, 0.1).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].tuple.id, TupleId(2));
        assert!((res[0].confidence - 0.95).abs() < 1e-6);
        assert_eq!(res[1].tuple.id, TupleId(1));
        assert!((res[1].confidence - 0.18).abs() < 1e-6);
        // QT=0.5 filters Alice out.
        let res = pii.ptq(&heap, MIT, 0.5).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].tuple.id, TupleId(2));
    }

    #[test]
    fn matching_is_descending_and_thresholded() {
        let (_, pii) = setup();
        let m = pii.matching(BROWN, 0.0).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m[0].1 >= m[1].1);
        assert!((m[0].1 - 0.72).abs() < 1e-6); // Alice@Brown 0.9*0.8
        assert!((m[1].1 - 0.48).abs() < 1e-6); // Carol@Brown 0.8*0.6
        assert!(pii.matching(BROWN, 0.9).unwrap().is_empty());
    }

    #[test]
    fn insert_delete_maintenance() {
        let (mut heap, mut pii) = setup();
        let newt = author(10, 1.0, vec![(MIT, 0.5), (UCB, 0.5)]);
        heap.insert(&newt).unwrap();
        pii.insert(&newt).unwrap();
        assert_eq!(pii.ptq(&heap, MIT, 0.4).unwrap().len(), 2);
        pii.delete(&newt).unwrap();
        heap.delete(newt.id).unwrap();
        assert_eq!(pii.ptq(&heap, MIT, 0.4).unwrap().len(), 1);
    }

    #[test]
    fn top_k_returns_most_confident_first() {
        let (heap, pii) = setup();
        let top = pii.top_k(&heap, BROWN, 1).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].tuple.id, TupleId(1)); // Alice 72% > Carol 48%
        let top2 = pii.top_k(&heap, BROWN, 5).unwrap();
        assert_eq!(top2.len(), 2);
        assert!(top2[0].confidence >= top2[1].confidence);
    }
}
