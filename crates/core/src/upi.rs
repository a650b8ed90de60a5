//! The discrete UPI: clustered heap + cutoff index + secondary indexes
//! (§§2–3, Algorithms 1–3).

use std::collections::{HashMap, HashSet};

use upi_btree::{BTree, Cursor, TreeStats};
use upi_storage::codec::{grid_prob, quantize_prob};
use upi_storage::error::{Result, StorageError};
use upi_storage::Store;
use upi_uncertain::tuple::{decode_tuple, encode_tuple, peek_first_alt, peek_folded_mass};
use upi_uncertain::{AttrStats, Tuple};

use crate::cutoff::{CutoffIndex, CutoffPointer};
use crate::exec::{CursorStats, PtqResult};
use crate::keys;
use crate::secondary::SecondaryIndex;

/// Tuning parameters of a UPI (per-fracture tunable, §4.2).
#[derive(Debug, Clone, Copy)]
pub struct UpiConfig {
    /// The cutoff threshold `C`: alternatives with folded probability below
    /// it are stored in the cutoff index instead of the heap (§3.1).
    pub cutoff: f64,
    /// Page size of the heap / cutoff / secondary B+Trees.
    pub page_size: u32,
    /// Maximum pointers per secondary-index entry (§3.2's tuning option).
    pub max_secondary_pointers: usize,
}

impl Default for UpiConfig {
    fn default() -> Self {
        UpiConfig {
            cutoff: 0.1,
            page_size: 8192,
            max_secondary_pointers: 10,
        }
    }
}

/// Folded `(value, confidence)` alternatives of one tuple.
type Alts = Vec<(u64, f64)>;

/// A primary (clustered) index on a discrete uncertain attribute.
///
/// The heap file is a B+Tree keyed `{value ASC, confidence DESC, tid}`
/// whose values are whole encoded tuples, duplicated once per non-cutoff
/// alternative (Table 2). Below-cutoff alternatives live in the
/// [`CutoffIndex`]; secondary indexes carry multi-pointer entries.
pub struct DiscreteUpi {
    cfg: UpiConfig,
    attr: usize,
    name: String,
    store: Store,
    heap: BTree,
    cutoff: CutoffIndex,
    secondaries: Vec<SecondaryIndex>,
    stats: AttrStats,
    n_tuples: u64,
}

impl DiscreteUpi {
    /// Create an empty UPI named `name` on discrete field `attr`.
    pub fn create(store: Store, name: &str, attr: usize, cfg: UpiConfig) -> Result<DiscreteUpi> {
        let heap = BTree::create(store.clone(), &format!("{name}.heap"), cfg.page_size)?;
        let cutoff = CutoffIndex::create(store.clone(), &format!("{name}.cutoff"), cfg.page_size)?;
        Ok(DiscreteUpi {
            cfg,
            attr,
            name: name.to_string(),
            store,
            heap,
            cutoff,
            secondaries: Vec::new(),
            stats: AttrStats::new(),
            n_tuples: 0,
        })
    }

    /// Attach a secondary index on discrete field `attr`. Returns its
    /// position for [`secondary_run`](Self::secondary_run).
    ///
    /// On an empty UPI this is free; on a loaded one the index is
    /// **backfilled** with one sequential distinct scan of the heap
    /// followed by a sorted bulk load — the same sequential-write path a
    /// fracture flush uses — so secondaries are no longer restricted to
    /// the load order (fractured tables grow them across every component,
    /// see `FracturedUpi::add_secondary`).
    pub fn add_secondary(&mut self, attr: usize) -> Result<usize> {
        let idx = self.secondaries.len();
        let mut sec = SecondaryIndex::create(
            self.store.clone(),
            &format!("{}.sec{}", self.name, idx),
            attr,
            self.cfg.page_size,
            self.cfg.max_secondary_pointers,
        )?;
        if self.n_tuples > 0 {
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for t in self.distinct_scan()? {
                let t = t?;
                let alts = self.folded_alts(&t);
                let (heap_alts, _) = self.partition(&alts);
                sec.prepare_entries(&t, &heap_alts, &mut entries);
            }
            entries.sort();
            sec.bulk_load(entries)?;
        }
        self.secondaries.push(sec);
        Ok(idx)
    }

    /// The primary uncertain attribute's field index.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Configuration in force.
    pub fn config(&self) -> &UpiConfig {
        &self.cfg
    }

    /// Folded `(value, confidence)` alternatives of a tuple, descending.
    fn folded_alts(&self, t: &Tuple) -> Alts {
        t.discrete(self.attr)
            .alternatives()
            .iter()
            .map(|&(v, p)| (v, p * t.exist))
            .collect()
    }

    /// Algorithm 1's partition: the first alternative always stays in the
    /// heap; others go to the heap iff their folded probability `≥ C`.
    fn partition(&self, alts: &[(u64, f64)]) -> (Alts, Alts) {
        let mut heap = Vec::with_capacity(alts.len());
        let mut cut = Vec::new();
        for (i, &(v, p)) in alts.iter().enumerate() {
            if i == 0 || p >= self.cfg.cutoff {
                heap.push((v, p));
            } else {
                cut.push((v, p));
            }
        }
        (heap, cut)
    }

    /// Insert a tuple (Algorithm 1).
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        let alts = self.folded_alts(t);
        let (heap_alts, cut_alts) = self.partition(&alts);
        let bytes = encode_tuple(t);
        for &(v, p) in &heap_alts {
            self.heap.insert(&keys::entry_key(v, p, t.id.0), &bytes)?;
        }
        let (fv, fp) = heap_alts[0];
        for &(v, p) in &cut_alts {
            self.cutoff.insert(v, p, t.id.0, fv, fp)?;
        }
        for sec in &mut self.secondaries {
            sec.insert_for(t, &heap_alts)?;
        }
        for (i, &(v, p)) in alts.iter().enumerate() {
            self.stats.add(v, p, i == 0);
        }
        self.n_tuples += 1;
        Ok(())
    }

    /// Delete a tuple ("deleting entries from the heap file or cutoff index
    /// depends on the probability"). The caller supplies the tuple, as a
    /// real system would have fetched it to execute the `DELETE`.
    pub fn delete(&mut self, t: &Tuple) -> Result<()> {
        let alts = self.folded_alts(t);
        let (heap_alts, cut_alts) = self.partition(&alts);
        for &(v, p) in &heap_alts {
            self.heap.delete(&keys::entry_key(v, p, t.id.0))?;
        }
        for &(v, p) in &cut_alts {
            self.cutoff.delete(v, p, t.id.0)?;
        }
        for sec in &mut self.secondaries {
            sec.delete_for(t)?;
        }
        for (i, &(v, p)) in alts.iter().enumerate() {
            self.stats.remove(v, p, i == 0);
        }
        self.n_tuples -= 1;
        Ok(())
    }

    /// Bulk-load tuples into an empty UPI (sequential writes for every
    /// component file — the fracture-flush path of §4.2).
    pub fn bulk_load<'a, I>(&mut self, tuples: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        assert!(self.n_tuples == 0, "bulk_load requires an empty UPI");
        let mut heap_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut cut_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut sec_entries: Vec<Vec<(Vec<u8>, Vec<u8>)>> =
            self.secondaries.iter().map(|_| Vec::new()).collect();
        for t in tuples {
            let alts = self.folded_alts(t);
            let (heap_alts, cut_alts) = self.partition(&alts);
            let bytes = encode_tuple(t);
            for &(v, p) in &heap_alts {
                heap_entries.push((keys::entry_key(v, p, t.id.0), bytes.clone()));
            }
            let (fv, fp) = heap_alts[0];
            for &(v, p) in &cut_alts {
                cut_entries.push((keys::entry_key(v, p, t.id.0), keys::pointer_bytes(fv, fp)));
            }
            for (i, sec) in self.secondaries.iter().enumerate() {
                sec.prepare_entries(t, &heap_alts, &mut sec_entries[i]);
            }
            for (i, &(v, p)) in alts.iter().enumerate() {
                self.stats.add(v, p, i == 0);
            }
            self.n_tuples += 1;
        }
        heap_entries.sort();
        cut_entries.sort();
        self.heap.bulk_load(heap_entries)?;
        self.cutoff.bulk_load(cut_entries)?;
        for (i, mut entries) in sec_entries.into_iter().enumerate() {
            entries.sort();
            self.secondaries[i].bulk_load(entries)?;
        }
        Ok(())
    }

    /// Streaming cursor over the heap run of `value` with confidence
    /// `≥ qt`: one index seek, then sequential leaf-chain reads, yielding
    /// results in descending-confidence order without materializing the
    /// run. Both point-PTQ cursors ([`CutoffMerge`], [`PointRun`]) read
    /// the heap through it.
    pub fn heap_run(&self, value: u64, qt: f64) -> Result<HeapRun<'_>> {
        let cur = self.heap.seek(&keys::value_prefix(value))?;
        Ok(HeapRun {
            cur,
            value,
            qt,
            stats: CursorStats::default(),
        })
    }

    /// Streaming scan of the whole heap yielding each distinct tuple once
    /// (its first-alternative copy, which Algorithm 1 guarantees to be
    /// heap-resident) — the full-scan fallback access path.
    pub fn distinct_scan(&self) -> Result<DistinctScan<'_>> {
        let cur = self.heap.first()?;
        Ok(DistinctScan {
            cur,
            attr: self.attr,
            stats: CursorStats::default(),
        })
    }

    /// The heap leaf page where the clustered run for `value` begins —
    /// i.e. the first page [`heap_run`](Self::heap_run) (or a
    /// [`range_run`](Self::range_run) starting at `value`) will read.
    /// Only internal pages are touched (the later seek re-reads them
    /// warm), so the leaf's own read stays cold for the buffer pool's
    /// hinted read-ahead to arm on.
    pub fn run_start_page(&self, value: u64) -> Result<upi_storage::PageId> {
        self.heap.leaf_page_for(&keys::value_prefix(value))
    }

    /// The heap's first leaf page — where a full sequential scan starts.
    pub fn first_leaf_page(&self) -> Result<upi_storage::PageId> {
        self.heap.leaf_page_for(&[])
    }

    /// Fetch the heap copy stored under primary key `(value, prob, tid)`.
    pub fn fetch_by_pointer(&self, value: u64, prob: f64, tid: u64) -> Result<Option<Tuple>> {
        Ok(self
            .heap
            .get(&keys::entry_key(value, prob, tid))?
            .map(|b| decode_tuple(&b)))
    }

    /// Dereference a cutoff or secondary pointer. Every live pointer has
    /// a heap copy (Algorithm 1), so a missing one is corruption: a typed
    /// [`StorageError::Corrupted`], never a panic.
    fn deref_pointer(&self, kind: &str, value: u64, prob: f64, tid: u64) -> Result<Tuple> {
        self.fetch_by_pointer(value, prob, tid)?.ok_or_else(|| {
            StorageError::Corrupted(format!(
                "{}: dangling {kind} pointer to heap entry ({value}, {prob}, tid {tid})",
                self.name
            ))
        })
    }

    /// Algorithm 2 as a streaming cursor, for an unbounded point PTQ
    /// `SELECT * WHERE attr = value, confidence ≥ qt`: the heap run for
    /// `value` (one seek, then sequential), then — when `qt < C` — every
    /// qualifying cutoff pointer, dereferenced in heap key order so the
    /// fetches sweep the heap once instead of seeking at random.
    ///
    /// I/O order: the heap seek and the whole cutoff list are read at
    /// open (the list is a compact pointer run), then the heap run
    /// streams as the consumer pulls, then the pointer fetches. Rows are
    /// *not* confidence-ordered; a top-k consumer wants
    /// [`point_run`](Self::point_run) instead.
    pub fn cutoff_merge(&self, value: u64, qt: f64) -> Result<CutoffMerge<'_>> {
        let run = self.heap_run(value, qt)?;
        let mut pointers = Vec::new();
        if qt < self.cfg.cutoff {
            // Every cutoff entry is below C; at qt ≥ C none qualify.
            pointers = self.cutoff.scan(value, qt)?;
            pointers.sort_unstable_by_key(|cp| {
                (
                    cp.first_value,
                    u32::MAX - quantize_prob(cp.first_prob),
                    cp.tid,
                )
            });
        }
        Ok(CutoffMerge {
            upi: self,
            run: Some(run),
            pending: pointers.into_iter(),
            run_stats: CursorStats::default(),
            ptr_stats: CursorStats::default(),
        })
    }

    /// Confidence-ordered streaming cursor for a point PTQ `(value, qt)`
    /// — the top-k cursor (an unbounded query wants the heap-order
    /// fetches of [`cutoff_merge`](Self::cutoff_merge)):
    /// merges the heap run with the (lazily consulted) cutoff list so
    /// results come out in `{confidence DESC, tid ASC}` order and a top-k
    /// consumer can stop pulling — and therefore stop *reading* — after k
    /// rows. The cutoff list is only opened once the run's head falls
    /// below the cutoff threshold `C` (every cutoff entry is below `C`,
    /// so until then the heap run wins outright, §3.1).
    ///
    /// `cutoff_limit` bounds how many cutoff pointers are scanned — pass
    /// `Some(k)` for a top-k query over a standalone UPI (at most k
    /// pointers can matter), `None` when results may be filtered
    /// downstream (e.g. fracture suppression).
    pub fn point_run(
        &self,
        value: u64,
        qt: f64,
        cutoff_limit: Option<usize>,
    ) -> Result<PointRun<'_>> {
        Ok(PointRun {
            upi: self,
            run: Some(self.heap_run(value, qt)?),
            run_head: None,
            value,
            qt,
            cutoff_limit,
            consulted: false,
            pointers: None,
            ptr_head: None,
            ptr_taken: 0,
            stats: CursorStats::default(),
        })
    }

    /// Streaming range cursor:
    /// `SELECT * WHERE attr BETWEEN lo AND hi, confidence ≥ qt` as one
    /// pass over the clustered heap plus the cutoff index, yielding each
    /// qualifying tuple exactly once *as soon as it is first
    /// encountered* (its total in-range confidence is computed from the
    /// decoded PMF on the spot — alternatives sum under possible-world
    /// semantics, and the tuple carries them all). Rows stream in value
    /// order, not confidence order; sinks that need ranking sort at the
    /// end, but I/O is a single seek + sequential run either way.
    pub fn range_run(&self, lo: u64, hi: u64, qt: f64) -> Result<RangeRun<'_>> {
        assert!(lo <= hi, "inverted range");
        Ok(RangeRun {
            upi: self,
            cur: Some(self.heap.seek(&keys::value_prefix(lo))?),
            lo,
            hi,
            qt,
            seen: HashSet::new(),
            pending: None,
            stats: CursorStats::default(),
        })
    }

    /// Streaming secondary-index probe (Queries 3 and 5 of the paper):
    /// `SELECT * WHERE sec_attr = value, confidence ≥ qt`. Scans the
    /// compact entry run, chooses one heap pointer per entry, then
    /// dereferences lazily in heap (bitmap) order. With `tailored` the
    /// choice is Algorithm 3 — Tailored Secondary Index Access: entries
    /// with a single pointer fix the set of heap regions first, and
    /// multi-pointer entries then prefer a pointer into an already-visited
    /// region; otherwise every entry uses its first (highest-probability)
    /// pointer, a conventional secondary index over the UPI. With
    /// `limit = Some(k)` only the k most-confident entries are read and
    /// fetched — the secondary entry run is `{confidence DESC}`-ordered,
    /// so a top-k query's result set is decided by its first k entries.
    pub fn secondary_run(
        &self,
        sec_idx: usize,
        value: u64,
        qt: f64,
        tailored: bool,
        limit: Option<usize>,
    ) -> Result<SecondaryRun<'_>> {
        self.secondary_run_where(sec_idx, value, qt, tailored, limit, &|_| true)
    }

    /// [`secondary_run`](Self::secondary_run) with a tuple-id filter
    /// applied *before* pointer choice and heap fetches — the fractured
    /// executor uses this to drop suppressed tuples without paying their
    /// heap I/O. `limit` counts entries that pass the filter.
    pub(crate) fn secondary_run_where(
        &self,
        sec_idx: usize,
        value: u64,
        qt: f64,
        tailored: bool,
        limit: Option<usize>,
        keep: &dyn Fn(u64) -> bool,
    ) -> Result<SecondaryRun<'_>> {
        let mut entries = Vec::new();
        let mut suppressed = 0u64;
        for e in self.secondaries[sec_idx].scan_run(value, qt)? {
            let e = e?;
            if !keep(e.tid) {
                suppressed += 1;
                continue;
            }
            entries.push(e);
            if limit.is_some_and(|k| entries.len() >= k) {
                break;
            }
        }
        // (pointer value, pointer prob, tid, result confidence)
        let mut chosen: Vec<(u64, f64, u64, f64)> = Vec::with_capacity(entries.len());
        if tailored {
            let mut seen: HashSet<u64> = HashSet::new();
            for e in &entries {
                if e.pointers.len() == 1 {
                    seen.insert(e.pointers[0].0);
                }
            }
            for e in &entries {
                let ptr = e
                    .pointers
                    .iter()
                    .find(|p| seen.contains(&p.0))
                    .copied()
                    .unwrap_or(e.pointers[0]);
                seen.insert(ptr.0);
                chosen.push((ptr.0, ptr.1, e.tid, e.prob));
            }
        } else {
            for e in &entries {
                let ptr = e.pointers[0];
                chosen.push((ptr.0, ptr.1, e.tid, e.prob));
            }
        }
        // Bitmap-scan style: dereference in heap key order.
        chosen.sort_unstable_by_key(|&(v, p, tid, _)| (v, u32::MAX - quantize_prob(p), tid));
        Ok(SecondaryRun {
            upi: self,
            chosen: chosen.into_iter(),
            stats: CursorStats {
                suppressed,
                ..CursorStats::default()
            },
        })
    }

    /// Enumerate every distinct tuple by scanning the heap sequentially,
    /// keeping only each tuple's first-alternative copy (which Algorithm 1
    /// guarantees to be present). This is the merge path's full read (§4.3).
    pub fn scan_tuples(&self) -> Result<Vec<Tuple>> {
        self.distinct_scan()?.collect()
    }

    /// Number of distinct tuples.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// Heap tree statistics (feeds the cost models' `H`, `N_leaf`,
    /// `S_table`).
    pub fn heap_stats(&self) -> TreeStats {
        self.heap.stats()
    }

    /// The storage file backing the clustered heap.
    pub fn heap_file(&self) -> upi_storage::FileId {
        self.heap.file()
    }

    /// The cutoff index.
    pub fn cutoff_index(&self) -> &CutoffIndex {
        &self.cutoff
    }

    /// Attached secondary indexes.
    pub fn secondaries(&self) -> &[SecondaryIndex] {
        &self.secondaries
    }

    /// Histogram statistics of the primary attribute (folded
    /// probabilities), for selectivity estimation (§6.1).
    pub fn attr_stats(&self) -> &AttrStats {
        &self.stats
    }

    /// Serialize the primary-attribute statistics plus every secondary's
    /// statistics (selectivity + pointer regions) for the checkpoint
    /// payload.
    pub fn stats_payload(&self) -> Vec<u8> {
        let stats = self.stats.to_bytes();
        let mut out = Vec::with_capacity(8 + stats.len());
        out.extend_from_slice(&(stats.len() as u32).to_le_bytes());
        out.extend(stats);
        out.extend_from_slice(&(self.secondaries.len() as u32).to_le_bytes());
        for sec in &self.secondaries {
            let p = sec.stats_payload();
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend(p);
        }
        out
    }

    /// Inverse of [`stats_payload`](Self::stats_payload): replace the
    /// primary statistics and each attached secondary's. `false` (state
    /// untouched) on malformation or a secondary-count mismatch.
    pub fn restore_stats_payload(&mut self, data: &[u8]) -> bool {
        let Some((stats_bytes, rest)) = crate::secondary::take_prefixed(data) else {
            return false;
        };
        let Some(stats) = AttrStats::from_bytes(stats_bytes) else {
            return false;
        };
        let Some(count_bytes) = rest.get(..4) else {
            return false;
        };
        let n = u32::from_le_bytes(count_bytes.try_into().unwrap()) as usize;
        if n != self.secondaries.len() {
            return false;
        }
        let mut rest = &rest[4..];
        let mut sec_payloads = Vec::with_capacity(n);
        for _ in 0..n {
            let Some((p, r)) = crate::secondary::take_prefixed(rest) else {
                return false;
            };
            sec_payloads.push(p);
            rest = r;
        }
        if !rest.is_empty() {
            return false;
        }
        // Two-phase: validate every blob before mutating anything, so a
        // torn payload never leaves half-replaced statistics.
        let mut replaced = Vec::with_capacity(n);
        for p in &sec_payloads {
            let Some(pair) = crate::secondary::decode_stats_payload(p) else {
                return false;
            };
            replaced.push(pair);
        }
        self.stats = stats;
        for (sec, (s, r)) in self.secondaries.iter_mut().zip(replaced) {
            sec.set_stats(s, r);
        }
        true
    }

    /// Total live bytes across heap + cutoff + secondaries.
    pub fn total_bytes(&self) -> u64 {
        self.heap.stats().bytes
            + self.cutoff.bytes()
            + self.secondaries.iter().map(|s| s.bytes()).sum::<u64>()
    }

    /// Free every page of every component file (used after a merge
    /// replaces this UPI). Metadata-only: dropping an index does not
    /// transfer data, but freeing keeps `total_live_bytes` — the "DB size"
    /// column of Table 8 — honest.
    pub fn destroy(self) -> Result<()> {
        let mut files = vec![self.heap.file(), self.cutoff.file()];
        files.extend(self.secondaries.iter().map(|s| s.file()));
        for f in files {
            self.store.free_file_pages(f)?;
        }
        // Drop any cached frames of the freed pages; flush errors on freed
        // pages are ignored by the pool.
        self.store.pool.clear();
        Ok(())
    }
}

/// Streaming iterator over one value's heap run (see
/// [`DiscreteUpi::heap_run`]). Yields entries in `{prob DESC, tid}` order
/// and stops at the first entry of a different value or below the
/// threshold.
pub struct HeapRun<'a> {
    cur: Cursor<'a>,
    value: u64,
    qt: f64,
    stats: CursorStats,
}

impl HeapRun<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// [`Iterator::next`] with a confidence watermark and a tuple-id
    /// filter, both applied to the **keyed** entry before the tuple bytes
    /// are decoded: the key carries `(value, prob, tid)`, so a row failing
    /// `keep` (e.g. a fracture-suppressed tuple) is skipped without
    /// decoding its payload, and the first entry below `min_conf` ends the
    /// run without reading further leaves — the run is probability-
    /// descending, so a long suppressed (or below-watermark) tail costs
    /// zero decodes and no extra page I/O. Callers must only ever *raise*
    /// `min_conf` across calls.
    pub fn next_where(
        &mut self,
        min_conf: f64,
        keep: &dyn Fn(u64) -> bool,
    ) -> Option<Result<PtqResult>> {
        loop {
            if !self.cur.valid() {
                return None;
            }
            let (v, prob, tid) = keys::decode_entry_key(self.cur.key());
            if v != self.value || prob < self.qt || prob < min_conf {
                return None;
            }
            if !keep(tid) {
                // Suppressed: skip past it pre-decode.
                self.stats.suppressed += 1;
                if let Err(e) = self.cur.advance() {
                    return Some(Err(e));
                }
                continue;
            }
            let tuple = decode_tuple(self.cur.value());
            self.stats.decodes += 1;
            if let Err(e) = self.cur.advance() {
                return Some(Err(e));
            }
            self.stats.rows += 1;
            return Some(Ok(PtqResult {
                tuple,
                confidence: prob,
            }));
        }
    }
}

impl Iterator for HeapRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_where(f64::NEG_INFINITY, &|_| true)
    }
}

/// Streaming full-heap scan yielding each distinct tuple once (see
/// [`DiscreteUpi::distinct_scan`]).
pub struct DistinctScan<'a> {
    cur: Cursor<'a>,
    attr: usize,
    stats: CursorStats,
}

impl DistinctScan<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// [`Iterator::next`] with a row filter applied to each distinct
    /// tuple's **encoded** bytes before it is decoded: a row failing
    /// `keep` (a scan predicate evaluated by byte-level peek) is counted
    /// as suppressed and never materialized.
    pub fn next_where(&mut self, keep: &dyn Fn(&[u8]) -> bool) -> Option<Result<Tuple>> {
        while self.cur.valid() {
            let (v, prob, _tid) = keys::decode_entry_key(self.cur.key());
            // Keep only the first-alternative copy, comparing on the
            // quantized grid the key uses (as in scan_tuples). The peek
            // reads the key fields straight off the encoded bytes, so
            // the (payload-heavy) duplicate copies are skipped without
            // allocating a tuple per entry.
            let first = match peek_first_alt(self.cur.value(), self.attr) {
                Some((exist, (fv, fp))) => {
                    fv == v && quantize_prob(fp * exist) == quantize_prob(prob)
                }
                None => true, // malformed entry: decode and let it panic
            };
            let wanted = first && keep(self.cur.value());
            if first && !wanted {
                self.stats.suppressed += 1;
            }
            let t = wanted.then(|| decode_tuple(self.cur.value()));
            if t.is_some() {
                self.stats.decodes += 1;
            }
            if let Err(e) = self.cur.advance() {
                return Some(Err(e));
            }
            if let Some(t) = t {
                debug_assert_eq!(t.discrete(self.attr).first().0, v);
                self.stats.rows += 1;
                return Some(Ok(t));
            }
        }
        None
    }
}

impl Iterator for DistinctScan<'_> {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_where(&|_| true)
    }
}

/// Algorithm 2 as a streaming cursor (see [`DiscreteUpi::cutoff_merge`]):
/// drains the heap run, then dereferences the qualifying cutoff pointers
/// in heap key order, one per pull.
pub struct CutoffMerge<'a> {
    upi: &'a DiscreteUpi,
    run: Option<HeapRun<'a>>,
    /// Qualifying cutoff pointers in heap key order, read at open.
    pending: std::vec::IntoIter<CutoffPointer>,
    /// Heap-run counters, harvested when the run phase ends.
    run_stats: CursorStats,
    /// Pointer-phase counters (fetches, suppressed pointers, rows).
    ptr_stats: CursorStats,
}

impl CutoffMerge<'_> {
    /// Counters of the heap-run phase so far.
    pub fn run_stats(&self) -> CursorStats {
        match &self.run {
            Some(run) => run.stats(),
            None => self.run_stats,
        }
    }

    /// Counters of the pointer phase so far.
    pub fn pointer_stats(&self) -> CursorStats {
        self.ptr_stats
    }

    /// Both phases' counters.
    pub fn stats(&self) -> CursorStats {
        self.run_stats().merged(self.ptr_stats)
    }

    /// [`Iterator::next`] with a tuple-id filter applied before any
    /// work on a row: a heap entry failing `keep` is skipped before its
    /// payload is decoded, and a cutoff pointer failing it is dropped
    /// before its heap fetch (the fractured chain drops suppressed
    /// tuples this way without paying their I/O).
    pub fn next_where(&mut self, keep: &dyn Fn(u64) -> bool) -> Option<Result<PtqResult>> {
        if let Some(run) = &mut self.run {
            match run.next_where(f64::NEG_INFINITY, keep) {
                Some(item) => return Some(item),
                None => {
                    self.run_stats = run.stats();
                    self.run = None;
                }
            }
        }
        for cp in self.pending.by_ref() {
            if !keep(cp.tid) {
                self.ptr_stats.suppressed += 1;
                continue;
            }
            self.ptr_stats.pointer_fetches += 1;
            let tuple = self
                .upi
                .deref_pointer("cutoff", cp.first_value, cp.first_prob, cp.tid);
            return Some(tuple.map(|tuple| {
                self.ptr_stats.rows += 1;
                PtqResult {
                    tuple,
                    confidence: cp.prob,
                }
            }));
        }
        None
    }
}

impl Iterator for CutoffMerge<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_where(&|_| true)
    }
}

/// Confidence-ordered point-PTQ cursor (see [`DiscreteUpi::point_run`]):
/// a lazy merge of the heap run with the cutoff list. The cutoff list is
/// a streaming cursor consulted one entry at a time, and cutoff targets
/// are dereferenced only as the merge emits them, so an early-terminated
/// consumer never pays for the tail — and a *bounded* consumer
/// ([`next_where`](PointRun::next_where)) can stop the cutoff scan as
/// soon as its next candidate falls below a confidence watermark.
pub struct PointRun<'a> {
    upi: &'a DiscreteUpi,
    run: Option<HeapRun<'a>>,
    run_head: Option<PtqResult>,
    value: u64,
    qt: f64,
    cutoff_limit: Option<usize>,
    /// Whether the cutoff list has been consulted yet (it is only opened
    /// once the run's head falls below `C` or the run is exhausted).
    consulted: bool,
    /// The streaming cutoff cursor; dropped once exhausted, past the
    /// limit, or below a caller-supplied watermark.
    pointers: Option<crate::cutoff::CutoffValueRun<'a>>,
    ptr_head: Option<CutoffPointer>,
    /// Cutoff entries consumed so far (bounded by `cutoff_limit`).
    ptr_taken: usize,
    /// Merge-level counters; the live heap run keeps its own, folded in
    /// by [`stats`](Self::stats) (and harvested when the run ends).
    stats: CursorStats,
}

impl PointRun<'_> {
    /// Instrumentation counters accumulated so far, including the child
    /// heap run's decode/suppression work. `rows` counts rows *this*
    /// merge emitted (a pulled-but-buffered run head is not a row yet).
    pub fn stats(&self) -> CursorStats {
        match &self.run {
            Some(run) => self.stats.merged(Self::child_contrib(run)),
            None => self.stats,
        }
    }

    /// A child run's counters minus its `rows`: rows are counted at this
    /// operator's own emit points, not at the pull into `run_head`.
    fn child_contrib(run: &HeapRun<'_>) -> CursorStats {
        CursorStats {
            rows: 0,
            ..run.stats()
        }
    }

    /// Pull the next heap-run row passing `keep` into `run_head`. The
    /// filter and the watermark are pushed down into
    /// [`HeapRun::next_where`], so suppressed rows are skipped before
    /// their payload is decoded and a below-`min_conf` stretch ends the
    /// run without scanning it entry-by-entry (sound: the run descends in
    /// confidence and callers only ever raise the watermark).
    fn fill_run_head(&mut self, min_conf: f64, keep: &dyn Fn(u64) -> bool) -> Result<()> {
        while self.run_head.is_none() {
            let Some(run) = &mut self.run else { break };
            match run.next_where(min_conf, keep) {
                Some(r) => self.run_head = Some(r?),
                None => {
                    // Harvest the exhausted run's counters before dropping it.
                    self.stats = self.stats.merged(Self::child_contrib(run));
                    self.run = None;
                }
            }
        }
        Ok(())
    }

    /// Open the cutoff cursor if it has not been consulted yet.
    fn ensure_consulted(&mut self) -> Result<()> {
        if !self.consulted {
            self.consulted = true;
            if self.qt < self.upi.cfg.cutoff {
                // Every cutoff entry is below C; when qt ≥ C none qualify
                // and the cursor is never opened.
                self.pointers = Some(self.upi.cutoff.scan_value_run(self.value, self.qt)?);
            }
        }
        Ok(())
    }

    /// Pull the next cutoff pointer passing `keep` into `ptr_head`,
    /// without dereferencing it. Stops — permanently — at the limit or at
    /// the first entry below `min_conf` (the list is probability-
    /// descending, so nothing further can qualify; `min_conf` callers
    /// guarantee the watermark never decreases).
    fn fill_ptr_head(&mut self, min_conf: f64, keep: &dyn Fn(u64) -> bool) -> Result<()> {
        while self.ptr_head.is_none() {
            let Some(ptrs) = &mut self.pointers else {
                break;
            };
            if self.cutoff_limit.is_some_and(|k| self.ptr_taken >= k) {
                self.pointers = None;
                break;
            }
            match ptrs.next() {
                None => self.pointers = None,
                Some(cp) => {
                    let cp = cp?;
                    if cp.prob < min_conf {
                        self.pointers = None; // watermark bound: stop the scan
                        break;
                    }
                    self.ptr_taken += 1;
                    if keep(cp.tid) {
                        self.ptr_head = Some(cp);
                    } else {
                        self.stats.suppressed += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// [`Iterator::next`] with a confidence watermark and a tuple-id
    /// filter: rows whose id fails `keep` are skipped *before* any heap
    /// fetch (the fractured merge drops suppressed tuples this way
    /// without paying their I/O), and `None` is returned as soon as no
    /// remaining row can reach `min_conf` — both the heap run and the
    /// cutoff list stream in descending confidence, so the first
    /// below-watermark candidate proves the tail is out too. Callers must
    /// only ever *raise* `min_conf` across calls (a top-k watermark).
    pub fn next_where(
        &mut self,
        min_conf: f64,
        keep: &dyn Fn(u64) -> bool,
    ) -> Option<Result<PtqResult>> {
        if let Err(e) = self.fill_run_head(min_conf, keep) {
            return Some(Err(e));
        }
        // While the run head is at/above C, no cutoff entry can beat it:
        // emit without ever touching the cutoff index.
        if let Some(head) = &self.run_head {
            if head.confidence >= self.upi.cfg.cutoff {
                if head.confidence < min_conf {
                    return None; // run is descending: nothing can qualify
                }
                self.stats.rows += 1;
                return Some(Ok(self.run_head.take().unwrap()));
            }
        }
        if let Err(e) = self.ensure_consulted() {
            return Some(Err(e));
        }
        if let Err(e) = self.fill_ptr_head(min_conf, keep) {
            return Some(Err(e));
        }
        // A head cached under an older (lower) watermark may have fallen
        // below the current one: drop it — and the rest of the
        // descending list with it — before paying its heap fetch.
        if self.ptr_head.is_some_and(|p| p.prob < min_conf) {
            self.ptr_head = None;
            self.pointers = None;
        }
        let take_ptr = match (&self.run_head, &self.ptr_head) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            // The canonical order: higher confidence, then lower tid.
            (Some(r), Some(p)) => p
                .prob
                .total_cmp(&r.confidence)
                .then_with(|| r.tuple.id.0.cmp(&p.tid))
                .is_gt(),
        };
        if !take_ptr {
            let r = self.run_head.take().unwrap();
            if r.confidence < min_conf {
                // The winner is already below the watermark (the cutoff
                // head, if any, is bounded too): the merge is done.
                self.run_head = Some(r);
                return None;
            }
            self.stats.rows += 1;
            return Some(Ok(r));
        }
        // The stale-head check above guarantees the pointer is at/above
        // `min_conf`.
        let cp = self.ptr_head.take().unwrap();
        self.stats.pointer_fetches += 1;
        let tuple = self
            .upi
            .deref_pointer("cutoff", cp.first_value, cp.first_prob, cp.tid);
        Some(tuple.map(|tuple| {
            self.stats.rows += 1;
            PtqResult {
                tuple,
                confidence: cp.prob,
            }
        }))
    }
}

impl Iterator for PointRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_where(f64::NEG_INFINITY, &|_| true)
    }
}

/// Streaming range-PTQ cursor (see [`DiscreteUpi::range_run`]). Phase 1
/// streams the clustered heap run, emitting each tuple at its first
/// in-range copy with its full possible-world confidence computed from
/// the decoded PMF. Phase 2 streams the cutoff index for tuples whose
/// in-range mass is entirely below-cutoff, fetching only qualifiers (in
/// heap order).
pub struct RangeRun<'a> {
    upi: &'a DiscreteUpi,
    cur: Option<Cursor<'a>>,
    lo: u64,
    hi: u64,
    qt: f64,
    seen: HashSet<u64>,
    /// Phase-2 fetch list `(ptr value, ptr prob, tid, confidence)`, heap
    /// order; built when the heap run is exhausted.
    pending: Option<std::vec::IntoIter<(u64, f64, u64, f64)>>,
    stats: CursorStats,
}

impl RangeRun<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Quantized-grid possible-world confidence of `tuple` for this
    /// range, exactly as the index keys would sum it.
    fn range_confidence(&self, tuple: &Tuple) -> f64 {
        tuple.folded_mass(self.upi.attr, self.lo, self.hi, grid_prob)
    }

    /// Build the phase-2 fetch list: accumulate cutoff mass per unseen
    /// tuple, keep qualifiers, order by heap key.
    fn build_pending(&mut self) -> Result<()> {
        let mut acc: HashMap<u64, (u64, f64, f64)> = HashMap::new(); // tid -> (ptr v, ptr p, conf)
        for r in self.upi.cutoff.scan_range_run(self.lo, self.hi)? {
            let (_, cp) = r?;
            if self.seen.contains(&cp.tid) {
                continue; // full PMF mass already counted in phase 1
            }
            let e = acc
                .entry(cp.tid)
                .or_insert((cp.first_value, cp.first_prob, 0.0));
            e.2 += cp.prob;
        }
        let mut pending: Vec<(u64, f64, u64, f64)> = acc
            .into_iter()
            .filter(|&(_, (_, _, conf))| conf >= self.qt)
            .map(|(tid, (v, p, conf))| (v, p, tid, conf))
            .collect();
        pending.sort_unstable_by_key(|&(v, p, tid, _)| (v, u32::MAX - quantize_prob(p), tid));
        self.pending = Some(pending.into_iter());
        Ok(())
    }
}

impl Iterator for RangeRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        // Phase 1: the clustered run.
        while let Some(cur) = &mut self.cur {
            if !cur.valid() {
                self.cur = None;
                break;
            }
            let (v, _prob, tid) = keys::decode_entry_key(cur.key());
            if v > self.hi {
                self.cur = None;
                break;
            }
            // A tuple's first in-range copy settles it: its confidence is
            // peeked off the encoded bytes, and only a qualifier (or a row
            // the peek cannot read) is decoded.
            let fresh = self.seen.insert(tid);
            let peeked = fresh
                .then(|| peek_folded_mass(cur.value(), self.upi.attr, self.lo, self.hi, grid_prob))
                .flatten();
            let wanted = fresh && peeked.is_none_or(|c| c >= self.qt);
            if fresh && !wanted {
                self.stats.suppressed += 1;
            }
            let tuple = wanted.then(|| decode_tuple(cur.value()));
            if tuple.is_some() {
                self.stats.decodes += 1;
            }
            if let Err(e) = cur.advance() {
                return Some(Err(e));
            }
            if let Some(tuple) = tuple {
                let confidence = self.range_confidence(&tuple);
                if confidence >= self.qt {
                    self.stats.rows += 1;
                    return Some(Ok(PtqResult { tuple, confidence }));
                }
            }
        }
        // Phase 2: tuples visible only through the cutoff index.
        if self.pending.is_none() {
            if let Err(e) = self.build_pending() {
                return Some(Err(e));
            }
        }
        let (v, p, tid, confidence) = self.pending.as_mut().unwrap().next()?;
        self.stats.pointer_fetches += 1;
        Some(self.upi.deref_pointer("cutoff", v, p, tid).map(|tuple| {
            self.stats.rows += 1;
            PtqResult { tuple, confidence }
        }))
    }
}

/// Streaming secondary probe (see [`DiscreteUpi::secondary_run`]): the
/// pointer choices are fixed up front from the compact entry run; heap
/// tuples are fetched lazily, one per pull, in heap (bitmap) order.
pub struct SecondaryRun<'a> {
    upi: &'a DiscreteUpi,
    /// `(pointer value, pointer prob, tid, confidence)`, heap key order.
    chosen: std::vec::IntoIter<(u64, f64, u64, f64)>,
    stats: CursorStats,
}

impl SecondaryRun<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }
}

impl Iterator for SecondaryRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        let (v, p, tid, confidence) = self.chosen.next()?;
        self.stats.pointer_fetches += 1;
        Some(self.upi.deref_pointer("secondary", v, p, tid).map(|tuple| {
            self.stats.rows += 1;
            PtqResult { tuple, confidence }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::codec::dequantize_prob;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, Field, TupleId};

    const BROWN: u64 = 0;
    const MIT: u64 = 1;
    const UCB: u64 = 2;
    const UTOKYO: u64 = 3;
    const US: u64 = 0;
    const JAPAN: u64 = 1;

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
    }

    /// Table 4's Author table: name, institution, country.
    fn table4() -> Vec<Tuple> {
        let author = |id, exist, inst: Vec<(u64, f64)>, country: Vec<(u64, f64)>| {
            Tuple::new(
                TupleId(id),
                exist,
                vec![
                    Field::Certain(Datum::Str(format!("author-{id}"))),
                    Field::Discrete(DiscretePmf::new(inst)),
                    Field::Discrete(DiscretePmf::new(country)),
                ],
            )
        };
        vec![
            author(1, 0.9, vec![(BROWN, 0.8), (MIT, 0.2)], vec![(US, 1.0)]),
            author(2, 1.0, vec![(MIT, 0.95), (UCB, 0.05)], vec![(US, 1.0)]),
            author(
                3,
                0.8,
                vec![(BROWN, 0.6), (UTOKYO, 0.4)],
                vec![(US, 0.6), (JAPAN, 0.4)],
            ),
        ]
    }

    /// Unbounded point PTQ through Algorithm 2, in canonical order.
    fn ptq(u: &DiscreteUpi, value: u64, qt: f64) -> Vec<PtqResult> {
        let mut rows: Vec<PtqResult> = u
            .cutoff_merge(value, qt)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        crate::exec::sort_results(&mut rows);
        rows
    }

    /// Drain a cursor and put its rows in canonical order.
    fn sorted(rows: impl Iterator<Item = Result<PtqResult>>) -> Vec<PtqResult> {
        let mut rows: Vec<PtqResult> = rows.collect::<Result<_>>().unwrap();
        crate::exec::sort_results(&mut rows);
        rows
    }

    /// Brute-force answer over the source tuples: `(tid, confidence)` of
    /// every tuple whose folded mass on `lo..=hi` of field `attr` is
    /// positive and `≥ qt`, on the key grid, in canonical order.
    fn oracle(attr: usize, lo: u64, hi: u64, qt: f64) -> Vec<(u64, f64)> {
        let q = |p: f64| dequantize_prob(quantize_prob(p));
        let mut out: Vec<(u64, f64)> = table4()
            .iter()
            .filter_map(|t| {
                let conf: f64 = t
                    .discrete(attr)
                    .alternatives()
                    .iter()
                    .filter(|&&(v, _)| (lo..=hi).contains(&v))
                    .map(|&(_, p)| q(p * t.exist))
                    .sum();
                (conf > 0.0 && conf >= qt).then_some((t.id.0, conf))
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn pairs(rows: &[PtqResult]) -> Vec<(u64, f64)> {
        rows.iter().map(|r| (r.tuple.id.0, r.confidence)).collect()
    }

    fn assert_rows(got: &[(u64, f64)], want: &[(u64, f64)], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: {got:?} vs {want:?}");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.0, b.0, "{what}: {got:?} vs {want:?}");
            assert!((a.1 - b.1).abs() < 1e-9, "{what}: {got:?} vs {want:?}");
        }
    }

    fn upi_with(c: f64) -> DiscreteUpi {
        let mut u = DiscreteUpi::create(
            store(),
            "authors",
            1,
            UpiConfig {
                cutoff: c,
                ..UpiConfig::default()
            },
        )
        .unwrap();
        u.add_secondary(2).unwrap();
        for t in &table4() {
            u.insert(t).unwrap();
        }
        u
    }

    #[test]
    fn table3_partition() {
        // C=10%: only Bob's UCB (5%) is cut off; 5 heap entries remain.
        let u = upi_with(0.1);
        assert_eq!(u.heap_stats().entries, 5);
        assert_eq!(u.cutoff_index().len(), 1);
        let ptrs = u.cutoff_index().scan(UCB, 0.0).unwrap();
        assert_eq!(ptrs.len(), 1);
        assert_eq!(ptrs[0].tid, 2);
        assert_eq!(ptrs[0].first_value, MIT, "points at Bob's MIT copy");
    }

    #[test]
    fn query1_matches_paper_with_and_without_cutoff_path() {
        let u = upi_with(0.1);
        // QT=0.5 ≥ C: heap only. MIT → Bob (95%).
        let res = ptq(&u, MIT, 0.5);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].tuple.id, TupleId(2));
        // QT=0.1: Bob + Alice (18%).
        let res = ptq(&u, MIT, 0.1);
        assert_eq!(res.len(), 2);
        assert!((res[0].confidence - 0.95).abs() < 1e-6);
        assert!((res[1].confidence - 0.18).abs() < 1e-6);
        // QT=0.01 < C: the cutoff path must surface Bob's UCB copy.
        let res = ptq(&u, UCB, 0.01);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].tuple.id, TupleId(2));
        assert!((res[0].confidence - 0.05).abs() < 1e-6);
        // Without the cutoff path (QT ≥ C) the UCB copy is invisible.
        assert!(ptq(&u, UCB, 0.1).is_empty());
    }

    #[test]
    fn high_cutoff_keeps_first_alternatives_queryable() {
        // C=0.99 pushes everything but first alternatives to the cutoff
        // index; every tuple must still be found via pointers.
        let u = upi_with(0.99);
        assert_eq!(u.heap_stats().entries, 3, "only first alternatives");
        let res = ptq(&u, MIT, 0.01);
        assert_eq!(res.len(), 2, "Alice via cutoff pointer, Bob direct");
        let ids: Vec<u64> = res.iter().map(|r| r.tuple.id.0).collect();
        assert!(ids.contains(&1) && ids.contains(&2));
    }

    #[test]
    fn secondary_tailored_equals_untailored_results() {
        let u = upi_with(0.1);
        // Query 3's shape: WHERE Country=US, QT=0.4.
        let mut tailored = sorted(u.secondary_run(0, US, 0.4, true, None).unwrap());
        let mut plain = sorted(u.secondary_run(0, US, 0.4, false, None).unwrap());
        let key = |r: &PtqResult| (r.tuple.id.0, (r.confidence * 1e6) as u64);
        tailored.sort_by_key(key);
        plain.sort_by_key(key);
        assert_eq!(tailored.len(), plain.len());
        for (a, b) in tailored.iter().zip(&plain) {
            assert_eq!(a.tuple.id, b.tuple.id);
            assert!((a.confidence - b.confidence).abs() < 1e-9);
        }
        // Paper's example: US with QT=0.8 returns Bob (100%) and Alice (90%).
        let res = sorted(u.secondary_run(0, US, 0.8, true, None).unwrap());
        let ids: Vec<u64> = res.iter().map(|r| r.tuple.id.0).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn delete_removes_every_copy() {
        let mut u = upi_with(0.1);
        let bob = table4().remove(1);
        u.delete(&bob).unwrap();
        assert!(ptq(&u, MIT, 0.5).is_empty());
        assert!(ptq(&u, UCB, 0.01).is_empty());
        assert_eq!(u.n_tuples(), 2);
        // Alice's MIT copy is still there.
        assert_eq!(ptq(&u, MIT, 0.1).len(), 1);
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let tuples = table4();
        let mut bulk = DiscreteUpi::create(store(), "b", 1, UpiConfig::default()).unwrap();
        bulk.add_secondary(2).unwrap();
        bulk.bulk_load(&tuples).unwrap();
        let incr = upi_with(0.1);
        for value in [BROWN, MIT, UCB, UTOKYO] {
            for qt in [0.01, 0.1, 0.5] {
                let a = ptq(&bulk, value, qt);
                let b = ptq(&incr, value, qt);
                assert_eq!(a.len(), b.len(), "value={value} qt={qt}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.tuple.id, y.tuple.id);
                }
            }
        }
        assert_eq!(bulk.heap_stats().entries, incr.heap_stats().entries);
        assert_eq!(bulk.cutoff_index().len(), incr.cutoff_index().len());
    }

    #[test]
    fn scan_tuples_enumerates_each_once() {
        let u = upi_with(0.1);
        let mut ids: Vec<u64> = u.scan_tuples().unwrap().iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn stats_track_alternatives() {
        let u = upi_with(0.1);
        // 6 alternatives total across 3 tuples.
        assert_eq!(u.attr_stats().total(), 6);
        // MIT has two alternatives: 0.95 and 0.18.
        assert_eq!(u.attr_stats().value_count(MIT), 2);
        assert!(u.attr_stats().est_count_ge(MIT, 0.5) >= 0.9);
    }

    #[test]
    fn point_run_matches_ptq_in_confidence_order() {
        // Both point cursors against the brute-force answer, in both
        // regimes: cutoff merge needed (C=0.99 pushes all non-first
        // alternatives into the cutoff index) and not needed.
        for c in [0.1, 0.99] {
            let u = upi_with(c);
            for value in [BROWN, MIT, UCB, UTOKYO] {
                for qt in [0.0, 0.01, 0.1, 0.5] {
                    let want = oracle(1, value, value, qt);
                    let what = format!("C={c} v={value} qt={qt}");
                    let streamed: Vec<PtqResult> = u
                        .point_run(value, qt, None)
                        .unwrap()
                        .collect::<Result<_>>()
                        .unwrap();
                    // The top-k cursor is confidence-ordered as it streams.
                    assert_rows(&pairs(&streamed), &want, &format!("point_run {what}"));
                    assert_rows(&pairs(&ptq(&u, value, qt)), &want, &format!("Alg 2 {what}"));
                }
            }
        }
    }

    #[test]
    fn range_run_matches_ptq_range() {
        let u = upi_with(0.1);
        for (lo, hi) in [(BROWN, MIT), (BROWN, UTOKYO), (UCB, UTOKYO), (MIT, MIT)] {
            for qt in [0.0, 0.1, 0.4] {
                let streamed = sorted(u.range_run(lo, hi, qt).unwrap());
                assert_rows(
                    &pairs(&streamed),
                    &oracle(1, lo, hi, qt),
                    &format!("[{lo},{hi}] qt={qt}"),
                );
            }
        }
        // Alternatives must sum: Carol (exist .8) at [US: .6, Japan: .4]
        // on the primary attr {BROWN: .6, UTOKYO: .4} → range over both
        // values has confidence .8 * 1.0 = .8.
        let all = sorted(u.range_run(BROWN, UTOKYO, 0.0).unwrap());
        let carol = all.iter().find(|r| r.tuple.id.0 == 3).unwrap();
        assert!((carol.confidence - 0.8).abs() < 1e-6);
    }

    #[test]
    fn secondary_run_limit_truncates_to_most_confident() {
        let u = upi_with(0.1);
        let full = sorted(u.secondary_run(0, US, 0.0, true, None).unwrap());
        assert!(full.len() >= 2);
        let mut limited: Vec<PtqResult> = u
            .secondary_run(0, US, 0.0, true, Some(2))
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        crate::exec::sort_results(&mut limited);
        assert_eq!(limited.len(), 2);
        for (a, b) in full.iter().zip(&limited) {
            assert_eq!(a.tuple.id, b.tuple.id, "limit must keep the top entries");
            assert!((a.confidence - b.confidence).abs() < 1e-12);
        }
    }

    #[test]
    fn heap_scan_is_one_seek_then_sequential() {
        // The core UPI claim (§2): a PTQ needs one index seek followed by a
        // sequential scan. Build a larger UPI and measure.
        let st = store();
        let mut u = DiscreteUpi::create(st.clone(), "big", 1, UpiConfig::default()).unwrap();
        let tuples: Vec<Tuple> = (0..5000)
            .map(|i| {
                Tuple::new(
                    TupleId(i),
                    1.0,
                    vec![
                        Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(64)))),
                        Field::Discrete(DiscretePmf::new(vec![(i % 5, 0.7), ((i % 5) + 5, 0.3)])),
                    ],
                )
            })
            .collect();
        u.bulk_load(&tuples).unwrap();
        st.go_cold();
        let before = st.disk.stats();
        let res = u.cutoff_merge(2, 0.5).unwrap().count();
        assert_eq!(res, 1000);
        let d = st.disk.stats().since(&before);
        // Root-to-leaf descent plus the initial positioning: a handful of
        // seeks regardless of result size.
        assert!(d.seeks <= 6, "expected ~1 seek, saw {}", d.seeks);
    }

    /// Table 4 under C = 0.1 with Bob's heap copy (MIT, 95%) deleted out
    /// from under his live cutoff pointer (UCB, 5%) and his secondary
    /// entry (US): every pointer to it now dangles.
    fn dangling() -> DiscreteUpi {
        let mut u = upi_with(0.1);
        assert!(u.heap.delete(&keys::entry_key(MIT, 0.95, 2)).unwrap());
        u
    }

    fn assert_corrupted(rows: impl Iterator<Item = Result<PtqResult>>, what: &str) {
        let err = rows
            .collect::<Result<Vec<_>>>()
            .expect_err(&format!("{what}: a dangling pointer must be an error"));
        assert!(
            matches!(err, StorageError::Corrupted(_)),
            "{what}: expected Corrupted, got {err:?}"
        );
    }

    #[test]
    fn cutoff_merge_reports_dangling_pointer() {
        let u = dangling();
        assert_corrupted(u.cutoff_merge(UCB, 0.01).unwrap(), "cutoff_merge");
    }

    #[test]
    fn point_run_reports_dangling_pointer() {
        let u = dangling();
        assert_corrupted(u.point_run(UCB, 0.01, None).unwrap(), "point_run");
    }

    #[test]
    fn range_run_reports_dangling_pointer() {
        let u = dangling();
        assert_corrupted(u.range_run(UCB, UCB, 0.01).unwrap(), "range_run");
    }

    #[test]
    fn secondary_run_reports_dangling_pointer() {
        let u = dangling();
        for tailored in [true, false] {
            assert_corrupted(
                u.secondary_run(0, US, 0.0, tailored, None).unwrap(),
                "secondary_run",
            );
        }
    }

    #[test]
    fn cutoff_merge_filters_pointers_before_fetch() {
        // C=0.99: Alice's MIT alternative is a cutoff pointer. Dropping
        // her tid skips the pointer without a heap fetch.
        let u = upi_with(0.99);
        let mut run = u.cutoff_merge(MIT, 0.01).unwrap();
        let mut ids = Vec::new();
        while let Some(r) = run.next_where(&|tid| tid != 1) {
            ids.push(r.unwrap().tuple.id.0);
        }
        assert_eq!(ids, vec![2]);
        assert_eq!(run.pointer_stats().pointer_fetches, 0);
        assert_eq!(run.pointer_stats().suppressed, 1);
    }
}
