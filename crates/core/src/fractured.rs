//! Fractured UPIs — LSM-style maintenance (§4).
//!
//! "The insert buffer maintains changes to the UPI in main memory. When the
//! buffer becomes full, we sequentially output the changes … to a set of
//! files, called a Fracture. A fracture contains the same UPI, cutoff index
//! and secondary indexes as the main UPI except that it contains only the
//! data inserted or deleted since the previous flush" (§4.2).
//!
//! Implementation notes:
//!
//! * Every fracture is a self-contained [`DiscreteUpi`] plus a persisted
//!   delete set; its indexes point only into its own heap, so queries per
//!   fracture are independent (and the per-fracture cost is
//!   `Cost_init + H·T_seek`, the §6.2 model).
//! * Delete sets are persisted at flush (sequential write) and kept
//!   resident in RAM — they are tiny and checked "at the end of a lookup"
//!   for every query, as the paper prescribes.
//! * A delete set suppresses tuples in **older** components only; tuple ids
//!   are never reused, so an id deleted and re-inserted later is revived by
//!   the newer component.
//! * [`FracturedUpi::merge`] is the §4.3 reorganization: sequentially read
//!   every component, drop deleted tuples, and bulk-write a fresh main UPI
//!   — cost ≈ `S_table (T_read + T_write)` (Table 8).

use std::collections::{BTreeMap, HashSet};

use upi_btree::BTree;
use upi_storage::error::Result;
use upi_storage::Store;
use upi_uncertain::{Tuple, TupleId};

use crate::cost::DeviceCoeffs;
use crate::exec::{result_cmp, sort_results, CursorStats, PtqResult};
use crate::maintenance::{select_compaction, CompactionPlan, CompactionStep};
use crate::upi::{CutoffMerge, DiscreteUpi, PointRun, RangeRun, SecondaryRun, UpiConfig};

/// Configuration of a Fractured UPI.
#[derive(Debug, Clone, Copy)]
pub struct FracturedConfig {
    /// Parameters for the main UPI and (by default) each fracture. §4.2
    /// notes each fracture may be tuned independently;
    /// [`FracturedUpi::flush_with`] accepts a per-fracture override.
    pub upi: UpiConfig,
    /// Auto-flush threshold: the insert buffer flushes itself once it holds
    /// this many operations (0 disables auto-flush; callers flush manually).
    pub buffer_ops: usize,
}

impl Default for FracturedConfig {
    fn default() -> Self {
        FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 10_000,
        }
    }
}

struct Fracture {
    upi: DiscreteUpi,
    /// Persisted delete set (key = tid, no payload).
    delete_tree: BTree,
    /// RAM-resident copy of the delete set.
    deleted: HashSet<u64>,
    /// Tuple ids stored in this fracture (for exact liveness accounting).
    ids: HashSet<u64>,
}

/// A UPI stored as a main index plus a chain of immutable fractures and an
/// in-memory insert buffer (Figure 1).
pub struct FracturedUpi {
    store: Store,
    cfg: FracturedConfig,
    attr: usize,
    sec_attrs: Vec<usize>,
    name: String,
    seq: usize,
    main: DiscreteUpi,
    /// Ids stored in the main UPI.
    main_ids: HashSet<u64>,
    fractures: Vec<Fracture>,
    buf_inserts: BTreeMap<u64, Tuple>,
    buf_deletes: HashSet<u64>,
}

impl FracturedUpi {
    /// Create with a main UPI on field `attr` and secondary indexes on
    /// `sec_attrs`.
    pub fn create(
        store: Store,
        name: &str,
        attr: usize,
        sec_attrs: &[usize],
        cfg: FracturedConfig,
    ) -> Result<FracturedUpi> {
        let mut main = DiscreteUpi::create(store.clone(), &format!("{name}.main"), attr, cfg.upi)?;
        for &a in sec_attrs {
            main.add_secondary(a)?;
        }
        Ok(FracturedUpi {
            store,
            cfg,
            attr,
            sec_attrs: sec_attrs.to_vec(),
            name: name.to_string(),
            seq: 0,
            main,
            main_ids: HashSet::new(),
            fractures: Vec::new(),
            buf_inserts: BTreeMap::new(),
            buf_deletes: HashSet::new(),
        })
    }

    /// Bulk-load the initial contents of the main UPI.
    pub fn load_initial<'a, I>(&mut self, tuples: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        let tuples: Vec<&Tuple> = tuples.into_iter().collect();
        self.main_ids.extend(tuples.iter().map(|t| t.id.0));
        self.main.bulk_load(tuples)
    }

    /// Buffer an insert (RAM only — no I/O is charged, matching the
    /// "negligible" in-memory buffer of §4.3).
    pub fn insert(&mut self, t: Tuple) -> Result<()> {
        self.buf_deletes.remove(&t.id.0);
        self.buf_inserts.insert(t.id.0, t);
        self.maybe_autoflush()
    }

    /// Buffer a delete by tuple id.
    ///
    /// Dropping a buffered insert is not sufficient on its own: the
    /// buffered version was itself shadowing any older on-disk version of
    /// the same id (update = delete + insert re-uses ids, §3.1), so the
    /// delete must still leave a marker behind whenever an older component
    /// holds the id — otherwise the old version resurrects.
    pub fn delete(&mut self, id: TupleId) -> Result<()> {
        let on_disk =
            self.main_ids.contains(&id.0) || self.fractures.iter().any(|f| f.ids.contains(&id.0));
        if self.buf_inserts.remove(&id.0).is_none() || on_disk {
            self.buf_deletes.insert(id.0);
        }
        self.maybe_autoflush()
    }

    fn maybe_autoflush(&mut self) -> Result<()> {
        if self.cfg.buffer_ops > 0
            && self.buf_inserts.len() + self.buf_deletes.len() >= self.cfg.buffer_ops
        {
            self.flush()?;
        }
        Ok(())
    }

    /// Flush the insert buffer as a new fracture (sequential writes only).
    /// No-op on an empty buffer.
    pub fn flush(&mut self) -> Result<()> {
        self.flush_with(self.cfg.upi)
    }

    /// Flush with fracture-specific tuning parameters ("each fracture can
    /// have different tuning parameters", §4.2).
    pub fn flush_with(&mut self, upi_cfg: UpiConfig) -> Result<()> {
        if self.buf_inserts.is_empty() && self.buf_deletes.is_empty() {
            return Ok(());
        }
        let seq = self.seq;
        self.seq += 1;
        let mut upi = DiscreteUpi::create(
            self.store.clone(),
            &format!("{}.f{}", self.name, seq),
            self.attr,
            upi_cfg,
        )?;
        for &a in &self.sec_attrs {
            upi.add_secondary(a)?;
        }
        let inserts: Vec<&Tuple> = self.buf_inserts.values().collect();
        upi.bulk_load(inserts)?;

        let mut delete_tree = BTree::create(
            self.store.clone(),
            &format!("{}.f{}.del", self.name, seq),
            upi_cfg.page_size,
        )?;
        let mut deleted: Vec<u64> = self.buf_deletes.iter().copied().collect();
        deleted.sort_unstable();
        delete_tree.bulk_load(
            deleted
                .iter()
                .map(|tid| (tid.to_be_bytes().to_vec(), Vec::new()))
                .collect::<Vec<_>>(),
        )?;

        self.fractures.push(Fracture {
            upi,
            delete_tree,
            deleted: self.buf_deletes.drain().collect(),
            ids: self.buf_inserts.keys().copied().collect(),
        });
        self.buf_inserts.clear();
        Ok(())
    }

    /// True if `tid` found at component `level` is suppressed by a newer
    /// component: either a newer delete set (the paper's rule) or a newer
    /// *version* of the same tuple (update = delete + insert, §3.1; a newer
    /// copy shadows older ones). Levels: 0 = main, `i+1` = fracture `i`.
    fn suppressed(&self, tid: u64, level: usize) -> bool {
        for (i, f) in self.fractures.iter().enumerate() {
            if i + 1 > level && (f.deleted.contains(&tid) || f.ids.contains(&tid)) {
                return true;
            }
        }
        self.buf_deletes.contains(&tid) || self.buf_inserts.contains_key(&tid)
    }

    /// Insert-buffer rows whose confidence under `conf` is positive and
    /// `≥ qt`, in canonical order (the buffer is RAM-resident: no I/O).
    fn buffered_rows(&self, qt: f64, conf: impl Fn(&Tuple) -> f64) -> Vec<PtqResult> {
        let mut rows: Vec<PtqResult> = self
            .buf_inserts
            .values()
            .filter_map(|t| {
                let c = conf(t);
                (c >= qt && c > 0.0).then(|| PtqResult {
                    tuple: t.clone(),
                    confidence: c,
                })
            })
            .collect();
        sort_results(&mut rows);
        rows
    }

    /// Fracture-parallel streaming point PTQ across main + fractures +
    /// insert buffer (Figure 1's SELECT path), minus suppressed tuples.
    /// Delete-set suppression is applied *before* any heap fetch:
    /// suppressed heap entries are skipped before decode and suppressed
    /// cutoff pointers are never dereferenced. The two point-PTQ
    /// behaviours each run their one cursor per component:
    ///
    /// * `limit = None` — Algorithm 2 ([`DiscreteUpi::cutoff_merge`]) per
    ///   component, each opened once the previous one is drained, so a
    ///   component's I/O (heap seek, cutoff list, heap run, pointer
    ///   fetches in heap key order) stays contiguous — interleaving
    ///   components would pay a seek at every switch. Insert-buffer
    ///   matches come last. Rows are unordered across components; sinks
    ///   sort.
    /// * `limit = Some(k)` — a confidence-ordered k-way merge over one
    ///   [`PointRun`] per component, so a top-k consumer stops pulling —
    ///   and each component stops *reading* — after k surviving rows. It
    ///   keeps a running k-th-confidence [`TopKWatermark`] over the
    ///   surviving rows seen so far (heads, emitted rows, and the insert
    ///   buffer — each a distinct row of the merged output): once a
    ///   component's next cutoff candidate — or next **keyed heap
    ///   entry** — falls below the watermark, that component's scan stops
    ///   outright, before any decode. This is sound because suppression
    ///   only *removes* rows — it can never raise another row's
    ///   confidence — so k rows at/above the watermark already prove the
    ///   tail of every probability-descending component list irrelevant.
    ///   Per-component limits, by contrast, remain unsound (a component's
    ///   k-th row may be suppressed by a newer delete).
    pub fn ptq_run(
        &self,
        value: u64,
        qt: f64,
        limit: Option<usize>,
    ) -> Result<FracturedPointRun<'_>> {
        let buffered = self.buffered_rows(qt, |t| t.confidence_eq(self.attr, value));
        let merge = match limit {
            None => PointMerge::Chain {
                runs: Vec::new(),
                value,
                qt,
            },
            Some(k) => {
                let runs = self
                    .components()
                    .map(|upi| upi.point_run(value, qt, None))
                    .collect::<Result<Vec<_>>>()?;
                // Buffered rows are all part of the merged output: they
                // seed the watermark before any on-disk component is read.
                let mut watermark = TopKWatermark::new(k);
                for r in &buffered {
                    watermark.note(r.confidence);
                }
                PointMerge::TopK {
                    heads: runs.iter().map(|_| None).collect(),
                    runs,
                    buf_head: None,
                    watermark,
                }
            }
        };
        Ok(FracturedPointRun {
            f: self,
            merge,
            buffered: buffered.into_iter(),
            ext_floor: f64::NEG_INFINITY,
        })
    }

    /// Fracture-parallel streaming range PTQ: per-component
    /// [`RangeRun`]s pulled **round-robin** (each is one seek + one
    /// sequential run; the buffer pool tracks every hinted run
    /// concurrently, so interleaving keeps each component's prefetched
    /// window hot instead of letting it age out while an earlier
    /// component drains), suppression applied as rows surface,
    /// insert-buffer matches last. Rows are unordered across components;
    /// sinks sort.
    pub fn range_run(&self, lo: u64, hi: u64, qt: f64) -> Result<FracturedRangeRun<'_>> {
        let streams = self
            .components()
            .map(|upi| upi.range_run(lo, hi, qt))
            .collect::<Result<Vec<_>>>()?;
        let buffered = self.buffered_rows(qt, |t| {
            t.discrete(self.attr)
                .alternatives()
                .iter()
                .filter(|&&(v, _)| (lo..=hi).contains(&v))
                .map(|&(_, p)| p * t.exist)
                .sum()
        });
        let suppressed = vec![0; streams.len()];
        let rr = RoundRobin::new(streams.len());
        Ok(FracturedRangeRun {
            f: self,
            streams,
            rr,
            buffered: buffered.into_iter(),
            suppressed,
        })
    }

    /// Fracture-parallel streaming secondary PTQ: per-component
    /// [`SecondaryRun`]s with suppression applied *before* pointer choice
    /// (suppressed tuples never reach the heap), pulled round-robin so
    /// every component's heap-order fetch stream advances together,
    /// insert-buffer matches last. `limit` bounds each component's
    /// post-suppression entry count — sound for top-k because the global
    /// top-k is a subset of the per-component top-k unions.
    pub fn secondary_run(
        &self,
        sec_idx: usize,
        value: u64,
        qt: f64,
        tailored: bool,
        limit: Option<usize>,
    ) -> Result<FracturedSecondaryRun<'_>> {
        let mut streams = Vec::with_capacity(self.fractures.len() + 1);
        for (level, upi) in self.components().enumerate() {
            let keep = |tid: u64| !self.suppressed(tid, level);
            streams.push(upi.secondary_run_where(sec_idx, value, qt, tailored, limit, &keep)?);
        }
        let sec_attr = self.sec_attrs[sec_idx];
        let buffered = self.buffered_rows(qt, |t| t.confidence_eq(sec_attr, value));
        let rr = RoundRobin::new(streams.len());
        Ok(FracturedSecondaryRun {
            streams,
            rr,
            buffered: buffered.into_iter(),
        })
    }

    /// Attach a secondary index on discrete field `attr` to **every**
    /// on-disk component — the main UPI and each existing fracture, each
    /// backfilled from its own heap with a sequential scan + sorted bulk
    /// load — and to every fracture flushed afterwards; insert-buffer
    /// rows are matched in RAM at query time, as always. Returns the
    /// secondary's position (the `sec_idx` of
    /// [`secondary_run`](Self::secondary_run)).
    ///
    /// This lifts the old creation-order restriction: secondaries no
    /// longer have to be declared at [`create`](Self::create) time.
    /// Per-component indexes stay self-contained (each points only into
    /// its own heap), so the fracture-parallel query paths are untouched.
    pub fn add_secondary(&mut self, attr: usize) -> Result<usize> {
        let idx = self.sec_attrs.len();
        self.main.add_secondary(attr)?;
        for f in &mut self.fractures {
            f.upi.add_secondary(attr)?;
        }
        self.sec_attrs.push(attr);
        Ok(idx)
    }

    /// Merge every fracture into a fresh main UPI (§4.3): sequentially read
    /// all components, drop deleted tuples, bulk-write the result, free the
    /// old files. The insert buffer is left untouched.
    pub fn merge(&mut self) -> Result<()> {
        // Sequential read of every component (the read half of Cost_merge).
        let mut live: BTreeMap<u64, Tuple> = BTreeMap::new();
        for t in self.main.scan_tuples()? {
            if !self.suppressed(t.id.0, 0) {
                live.insert(t.id.0, t);
            }
        }
        for i in 0..self.fractures.len() {
            for t in self.fractures[i].upi.scan_tuples()? {
                if !self.suppressed(t.id.0, i + 1) {
                    live.insert(t.id.0, t);
                }
            }
        }
        // Also sequentially read each fracture's persisted delete set.
        for f in &self.fractures {
            let _ = f.delete_tree.iter()?.count();
        }

        let seq = self.seq;
        self.seq += 1;
        let mut new_main = DiscreteUpi::create(
            self.store.clone(),
            &format!("{}.m{}", self.name, seq),
            self.attr,
            self.cfg.upi,
        )?;
        for &a in &self.sec_attrs {
            new_main.add_secondary(a)?;
        }
        new_main.bulk_load(live.values())?;

        // Free the replaced files.
        self.main_ids = live.keys().copied().collect();
        let old_main = std::mem::replace(&mut self.main, new_main);
        old_main.destroy()?;
        for f in self.fractures.drain(..) {
            let file = f.delete_tree.file();
            f.upi.destroy()?;
            self.store.free_file_pages(file)?;
        }
        Ok(())
    }

    /// Per-component on-disk sizes: main first, then fractures
    /// oldest-to-newest, each fracture including its persisted delete
    /// set — the input shape of
    /// [`select_compaction`].
    pub fn component_bytes(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.fractures.len() + 1);
        out.push(self.main.total_bytes());
        for f in &self.fractures {
            out.push(f.upi.total_bytes() + f.delete_tree.stats().bytes);
        }
        out
    }

    /// Select (read-only) the best compaction step affordable within
    /// `budget_ms` of device time — see
    /// [`select_compaction`].
    pub fn plan_compaction(&self, coeffs: &DeviceCoeffs, budget_ms: f64) -> Option<CompactionPlan> {
        select_compaction(&self.component_bytes(), coeffs, budget_ms)
    }

    /// One incremental merge step: pick the best compaction affordable
    /// within `budget_ms` and execute it. Returns the number of
    /// components eliminated (0 when nothing fits the budget). Queries
    /// between steps answer correctly against whatever layout the steps
    /// have reached — every step preserves the possible-worlds state.
    pub fn merge_step(&mut self, coeffs: &DeviceCoeffs, budget_ms: f64) -> Result<usize> {
        match self.plan_compaction(coeffs, budget_ms) {
            Some(plan) => self.apply_compaction(plan.step),
            None => Ok(0),
        }
    }

    /// Execute one compaction step, clamped to the current chain (a
    /// step addressing components that no longer exist merges what it
    /// can and reports it — the WAL-replay path needs exactly this
    /// tolerance, since recovery rebuilds a different component layout
    /// than the one the step was logged against). Returns the number of
    /// components eliminated.
    pub fn apply_compaction(&mut self, step: CompactionStep) -> Result<usize> {
        match step {
            CompactionStep::FoldPrefix { fractures } => {
                let k = fractures.min(self.fractures.len());
                if k == 0 {
                    return Ok(0);
                }
                self.fold_prefix(k)?;
                Ok(k)
            }
            CompactionStep::CompactRun { first, last } => {
                let last = last.min(self.fractures.len().saturating_sub(1));
                if first >= last {
                    return Ok(0);
                }
                self.compact_run(first, last)?;
                Ok(last - first)
            }
        }
    }

    /// Merge main + the `k` oldest fractures into a fresh main UPI.
    /// The folded fractures' delete markers die with the fold: they
    /// only suppressed rows inside the folded prefix, which the fold
    /// applies. Remaining fractures shift down one level; their delete
    /// sets still suppress the new main (level 0), unchanged.
    fn fold_prefix(&mut self, k: usize) -> Result<()> {
        debug_assert!(k >= 1 && k <= self.fractures.len());
        // Sequential read of the folded components, full suppression
        // applied (a row any newer component suppresses is dead now).
        let mut live: BTreeMap<u64, Tuple> = BTreeMap::new();
        for t in self.main.scan_tuples()? {
            if !self.suppressed(t.id.0, 0) {
                live.insert(t.id.0, t);
            }
        }
        for i in 0..k {
            for t in self.fractures[i].upi.scan_tuples()? {
                if !self.suppressed(t.id.0, i + 1) {
                    live.insert(t.id.0, t);
                }
            }
        }
        for f in &self.fractures[..k] {
            let _ = f.delete_tree.iter()?.count();
        }

        let seq = self.seq;
        self.seq += 1;
        let mut new_main = DiscreteUpi::create(
            self.store.clone(),
            &format!("{}.m{}", self.name, seq),
            self.attr,
            self.cfg.upi,
        )?;
        for &a in &self.sec_attrs {
            new_main.add_secondary(a)?;
        }
        new_main.bulk_load(live.values())?;

        self.main_ids = live.keys().copied().collect();
        let old_main = std::mem::replace(&mut self.main, new_main);
        old_main.destroy()?;
        for f in self.fractures.drain(..k) {
            let file = f.delete_tree.file();
            f.upi.destroy()?;
            self.store.free_file_pages(file)?;
        }
        Ok(())
    }

    /// Merge the contiguous fracture run `first..=last` into one
    /// fracture at position `first`. Intra-run suppression is applied
    /// to the surviving tuples (a newer run member's delete or
    /// re-insert wins), but the run's delete markers are **kept** —
    /// unioned — because they still suppress components older than the
    /// run. Sound because a fracture's own delete set never suppresses
    /// its own ids (see [`suppressed`](Self::suppressed)'s strict
    /// level comparison).
    fn compact_run(&mut self, first: usize, last: usize) -> Result<()> {
        debug_assert!(first < last && last < self.fractures.len());
        let mut live: BTreeMap<u64, Tuple> = BTreeMap::new();
        for i in first..=last {
            for t in self.fractures[i].upi.scan_tuples()? {
                if !self.suppressed(t.id.0, i + 1) {
                    live.insert(t.id.0, t);
                }
            }
        }
        let mut deleted: HashSet<u64> = HashSet::new();
        for f in &self.fractures[first..=last] {
            let _ = f.delete_tree.iter()?.count();
            deleted.extend(f.deleted.iter().copied());
        }

        let seq = self.seq;
        self.seq += 1;
        let mut upi = DiscreteUpi::create(
            self.store.clone(),
            &format!("{}.f{}", self.name, seq),
            self.attr,
            self.cfg.upi,
        )?;
        for &a in &self.sec_attrs {
            upi.add_secondary(a)?;
        }
        upi.bulk_load(live.values())?;

        let mut delete_tree = BTree::create(
            self.store.clone(),
            &format!("{}.f{}.del", self.name, seq),
            self.cfg.upi.page_size,
        )?;
        let mut sorted: Vec<u64> = deleted.iter().copied().collect();
        sorted.sort_unstable();
        delete_tree.bulk_load(
            sorted
                .iter()
                .map(|tid| (tid.to_be_bytes().to_vec(), Vec::new()))
                .collect::<Vec<_>>(),
        )?;

        let merged = Fracture {
            upi,
            delete_tree,
            deleted,
            ids: live.keys().copied().collect(),
        };
        let old: Vec<Fracture> = self
            .fractures
            .splice(first..=last, std::iter::once(merged))
            .collect();
        for f in old {
            let file = f.delete_tree.file();
            f.upi.destroy()?;
            self.store.free_file_pages(file)?;
        }
        Ok(())
    }

    /// The live possible-worlds content: every tuple a query can see,
    /// across main, fractures and the insert buffer, minus everything a
    /// newer delete set suppresses. Non-mutating (unlike
    /// [`merge`](Self::merge), which uses the same enumeration to rebuild
    /// the main component) — this is what a checkpoint snapshots.
    pub fn live_tuples(&self) -> Result<Vec<Tuple>> {
        let mut live: BTreeMap<u64, Tuple> = BTreeMap::new();
        for t in self.main.scan_tuples()? {
            if !self.suppressed(t.id.0, 0) {
                live.insert(t.id.0, t);
            }
        }
        for i in 0..self.fractures.len() {
            for t in self.fractures[i].upi.scan_tuples()? {
                if !self.suppressed(t.id.0, i + 1) {
                    live.insert(t.id.0, t);
                }
            }
        }
        for (id, t) in &self.buf_inserts {
            live.insert(*id, t.clone());
        }
        Ok(live.into_values().collect())
    }

    /// Number of on-disk fractures (`N_frac` of the cost model).
    pub fn n_fractures(&self) -> usize {
        self.fractures.len()
    }

    /// Operations currently buffered in RAM.
    pub fn buffered_ops(&self) -> usize {
        self.buf_inserts.len() + self.buf_deletes.len()
    }

    /// The main UPI (for stats and cost-model inputs).
    pub fn main(&self) -> &DiscreteUpi {
        &self.main
    }

    /// Serialize the main component's statistics (the ones the cost
    /// models read; fractures carry only their own slice and are folded
    /// away by maintenance).
    pub fn stats_payload(&self) -> Vec<u8> {
        self.main.stats_payload()
    }

    /// Inverse of [`stats_payload`](Self::stats_payload).
    pub fn restore_stats_payload(&mut self, data: &[u8]) -> bool {
        self.main.restore_stats_payload(data)
    }

    /// Every on-disk component in age order (main first, then fractures
    /// oldest-to-newest) — the planner prices one open + descent per
    /// component (`N_frac + 1` of the §6.2 model).
    pub fn components(&self) -> impl Iterator<Item = &DiscreteUpi> {
        std::iter::once(&self.main).chain(self.fractures.iter().map(|f| &f.upi))
    }

    /// Live bytes across every on-disk component.
    pub fn total_bytes(&self) -> u64 {
        self.main.total_bytes()
            + self
                .fractures
                .iter()
                .map(|f| f.upi.total_bytes() + f.delete_tree.stats().bytes)
                .sum::<u64>()
    }

    /// Exact count of tuples visible to queries: per component, ids not
    /// suppressed by any newer delete set, plus the insert buffer.
    pub fn n_live_tuples(&self) -> u64 {
        let mut n = self.buf_inserts.len() as u64;
        n += self
            .main_ids
            .iter()
            .filter(|&&id| !self.suppressed(id, 0))
            .count() as u64;
        for (i, f) in self.fractures.iter().enumerate() {
            n += f
                .ids
                .iter()
                .filter(|&&id| !self.suppressed(id, i + 1))
                .count() as u64;
        }
        n
    }
}

/// Round-robin scheduler over N still-active streams: the interleaving
/// kernel shared by the fractured range/secondary merges (and, one level
/// up, the shard scatter-gather merge). Advancing after every pull keeps
/// all concurrently-hinted prefetch windows hot in the buffer pool
/// instead of draining one component while the others' windows age out.
pub(crate) struct RoundRobin {
    at: usize,
    live: Vec<bool>,
    n_live: usize,
}

impl RoundRobin {
    pub(crate) fn new(n: usize) -> RoundRobin {
        RoundRobin {
            at: 0,
            live: vec![true; n],
            n_live: n,
        }
    }

    /// The stream to pull from next, `None` once every stream retired.
    pub(crate) fn current(&mut self) -> Option<usize> {
        if self.n_live == 0 {
            return None;
        }
        while !self.live[self.at] {
            self.at = (self.at + 1) % self.live.len();
        }
        Some(self.at)
    }

    /// Move on to the next live stream (after a successful pull).
    pub(crate) fn advance(&mut self) {
        self.at = (self.at + 1) % self.live.len();
    }

    /// Retire an exhausted stream.
    pub(crate) fn retire(&mut self, i: usize) {
        if std::mem::replace(&mut self.live[i], false) {
            self.n_live -= 1;
        }
    }
}

/// A running top-k confidence watermark — the early-exit kernel of the
/// fractured point merge ([`FracturedUpi::ptq_run`]), packaged so a
/// scatter-gather merge one level up (`upi_query`'s shard merge) can
/// share **one** global watermark across many independent cursors:
/// every surviving row's confidence is [`note`](Self::note)d, and any
/// cursor whose best remaining confidence falls below
/// [`floor`](Self::floor) can stop its source I/O — rows strictly below
/// the k-th best seen so far can never reach the top k.
#[derive(Debug, Clone)]
pub struct TopKWatermark {
    topk: Vec<f64>,
    k: usize,
}

impl TopKWatermark {
    /// Watermark over the `k` best confidences seen so far.
    pub fn new(k: usize) -> TopKWatermark {
        TopKWatermark {
            topk: Vec::new(),
            k,
        }
    }

    /// Record one surviving row's confidence (`topk` stays ascending and
    /// at most `k` long).
    pub fn note(&mut self, conf: f64) {
        let at = self.topk.partition_point(|&c| c < conf);
        self.topk.insert(at, conf);
        if self.topk.len() > self.k {
            self.topk.remove(0);
        }
    }

    /// The current k-th-best confidence — `NEG_INFINITY` until `k` rows
    /// have been seen (before that there is no bound). Only ever rises.
    pub fn floor(&self) -> f64 {
        if self.k > 0 && self.topk.len() >= self.k {
            self.topk[0]
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// Streaming point-PTQ cursor over a fractured UPI's components (see
/// [`FracturedUpi::ptq_run`]).
pub struct FracturedPointRun<'a> {
    f: &'a FracturedUpi,
    merge: PointMerge<'a>,
    /// Insert-buffer matches, canonically ordered.
    buffered: std::vec::IntoIter<PtqResult>,
    /// External confidence floor (a *global* top-k watermark shared
    /// across sibling merges, e.g. other shards of a sharded table);
    /// combined with the internal watermark via `max`. Raise-only.
    ext_floor: f64,
}

/// How a [`FracturedPointRun`] draws on its components (one run per
/// on-disk component; index == suppression level).
enum PointMerge<'a> {
    /// Unbounded: Algorithm-2 cursors of the components reached so far,
    /// opened one after another; the last one is draining. Unordered.
    Chain {
        runs: Vec<CutoffMerge<'a>>,
        value: u64,
        qt: f64,
    },
    /// Top-k: a confidence-ordered k-way merge under a running watermark.
    TopK {
        runs: Vec<PointRun<'a>>,
        heads: Vec<Option<PtqResult>>,
        buf_head: Option<PtqResult>,
        watermark: TopKWatermark,
    },
}

impl FracturedPointRun<'_> {
    /// Whether rows stream in the canonical `{confidence DESC, tid ASC}`
    /// order (the top-k merge) or unordered (the Algorithm-2 chain).
    pub fn is_ordered(&self) -> bool {
        matches!(self.merge, PointMerge::TopK { .. })
    }

    /// Per-component instrumentation counters (index 0 = the main UPI,
    /// then one entry per fracture; suppression and decode work are
    /// pushed into each component cursor, so they land here).
    pub fn component_stats(&self) -> Vec<CursorStats> {
        match &self.merge {
            // Components the chain has not reached yet did no work.
            PointMerge::Chain { runs, .. } => (0..=self.f.n_fractures())
                .map(|i| runs.get(i).map_or_else(CursorStats::default, |r| r.stats()))
                .collect(),
            PointMerge::TopK { runs, .. } => runs.iter().map(|r| r.stats()).collect(),
        }
    }

    /// Raise the external confidence floor: rows strictly below `floor`
    /// are dropped, and the top-k merge's component cursors stop their
    /// source I/O once nothing at/above it can remain. Used by a sharded
    /// scatter-gather merge to propagate the *global* top-k watermark
    /// into this shard's merge; only ever raises (a watermark cannot
    /// recede).
    pub fn raise_conf_floor(&mut self, floor: f64) {
        if floor > self.ext_floor {
            self.ext_floor = floor;
        }
    }
}

impl Iterator for FracturedPointRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        let f = self.f;
        let floor = self.ext_floor;
        match &mut self.merge {
            PointMerge::Chain { runs, value, qt } => {
                loop {
                    if let Some(level) = runs.len().checked_sub(1) {
                        match runs[level].next_where(&|tid| !f.suppressed(tid, level)) {
                            Some(Err(e)) => return Some(Err(e)),
                            Some(Ok(r)) if r.confidence >= floor => return Some(Ok(r)),
                            Some(Ok(_)) => continue,
                            None => {}
                        }
                    }
                    // The draining component is done: open the next one.
                    let Some(upi) = f.components().nth(runs.len()) else {
                        break;
                    };
                    match upi.cutoff_merge(*value, *qt) {
                        Ok(run) => runs.push(run),
                        Err(e) => return Some(Err(e)),
                    }
                }
                self.buffered.find(|r| r.confidence >= floor).map(Ok)
            }
            PointMerge::TopK {
                runs,
                heads,
                buf_head,
                watermark,
            } => {
                // Refill every empty head with the next surviving row of
                // its component. Suppression and the watermark are pushed
                // into each component's `PointRun`, so a component whose
                // next candidate cannot reach the watermark stops reading.
                for (level, run) in runs.iter_mut().enumerate() {
                    if heads[level].is_some() {
                        continue;
                    }
                    let wm = watermark.floor().max(floor);
                    match run.next_where(wm, &|tid| !f.suppressed(tid, level)) {
                        Some(Err(e)) => return Some(Err(e)),
                        Some(Ok(r)) => {
                            watermark.note(r.confidence);
                            heads[level] = Some(r);
                        }
                        None => {}
                    }
                }
                if buf_head.is_none() {
                    *buf_head = self.buffered.next();
                }
                // The winner sorts first in canonical order (ties go to
                // the oldest component).
                let head = |i: usize| heads[i].as_ref().unwrap();
                let best = (0..heads.len())
                    .filter(|&i| heads[i].is_some())
                    .min_by(|&a, &b| result_cmp(head(a), head(b)));
                let buffer_wins = match (&*buf_head, best) {
                    (None, _) => false,
                    (Some(_), None) => true,
                    (Some(r), Some(b)) => result_cmp(r, head(b)).is_lt(),
                };
                if buffer_wins {
                    return buf_head.take().map(Ok);
                }
                best.map(|b| Ok(heads[b].take().unwrap()))
            }
        }
    }
}

/// Round-robin-interleaved per-component range streams with suppression
/// (see [`FracturedUpi::range_run`]).
pub struct FracturedRangeRun<'a> {
    f: &'a FracturedUpi,
    streams: Vec<RangeRun<'a>>,
    rr: RoundRobin,
    buffered: std::vec::IntoIter<PtqResult>,
    /// Rows dropped by suppression *after* surfacing from each component
    /// (range suppression is checked post-pull, unlike the point merge).
    suppressed: Vec<u64>,
}

impl FracturedRangeRun<'_> {
    /// Per-component instrumentation counters (index 0 = the main UPI,
    /// then one entry per fracture), including post-pull suppressions.
    pub fn component_stats(&self) -> Vec<CursorStats> {
        self.streams
            .iter()
            .zip(&self.suppressed)
            .map(|(s, &sup)| {
                let mut st = s.stats();
                st.suppressed += sup;
                st.rows -= sup; // suppressed rows never reached the consumer
                st
            })
            .collect()
    }
}

impl Iterator for FracturedRangeRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(i) = self.rr.current() {
            match self.streams[i].next() {
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(r)) => {
                    self.rr.advance();
                    if !self.f.suppressed(r.tuple.id.0, i) {
                        return Some(Ok(r));
                    }
                    self.suppressed[i] += 1;
                }
                None => self.rr.retire(i),
            }
        }
        self.buffered.next().map(Ok)
    }
}

/// Round-robin-interleaved per-component secondary probes (suppression
/// already applied at entry-choice time; see
/// [`FracturedUpi::secondary_run`]).
pub struct FracturedSecondaryRun<'a> {
    streams: Vec<SecondaryRun<'a>>,
    rr: RoundRobin,
    buffered: std::vec::IntoIter<PtqResult>,
}

impl FracturedSecondaryRun<'_> {
    /// Per-component instrumentation counters (index 0 = the main UPI,
    /// then one entry per fracture; suppression was applied at
    /// entry-choice time, so it is already counted inside each stream).
    pub fn component_stats(&self) -> Vec<CursorStats> {
        self.streams.iter().map(|s| s.stats()).collect()
    }
}

impl Iterator for FracturedSecondaryRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(i) = self.rr.current() {
            match self.streams[i].next() {
                Some(r) => {
                    self.rr.advance();
                    return Some(r);
                }
                None => self.rr.retire(i),
            }
        }
        self.buffered.next().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, Field};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
    }

    fn author(id: u64, inst: u64, p: f64) -> Tuple {
        let spill = ((1.0 - p) / 2.0).max(0.01);
        Tuple::new(
            TupleId(id),
            0.95,
            vec![
                Field::Certain(Datum::Str(format!("author-{id}"))),
                Field::Discrete(DiscretePmf::new(vec![(inst, p), (inst + 100, spill)])),
                Field::Discrete(DiscretePmf::new(vec![(inst % 7, 1.0)])),
            ],
        )
    }

    /// Drain a cursor and put its rows in canonical order.
    fn sorted(rows: impl Iterator<Item = Result<PtqResult>>) -> Vec<PtqResult> {
        let mut rows: Vec<PtqResult> = rows.collect::<Result<_>>().unwrap();
        sort_results(&mut rows);
        rows
    }

    /// Unbounded point PTQ (the per-component Algorithm-2 chain).
    fn ptq(f: &FracturedUpi, value: u64, qt: f64) -> Vec<PtqResult> {
        sorted(f.ptq_run(value, qt, None).unwrap())
    }

    fn ptq_range(f: &FracturedUpi, lo: u64, hi: u64, qt: f64) -> Vec<PtqResult> {
        sorted(f.range_run(lo, hi, qt).unwrap())
    }

    fn ptq_secondary(f: &FracturedUpi, value: u64, qt: f64, tailored: bool) -> Vec<PtqResult> {
        sorted(f.secondary_run(0, value, qt, tailored, None).unwrap())
    }

    fn fresh(buffer_ops: usize) -> FracturedUpi {
        FracturedUpi::create(
            store(),
            "frac",
            1,
            &[2],
            FracturedConfig {
                buffer_ops,
                ..FracturedConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn buffer_then_flush_preserves_answers() {
        let mut f = fresh(0);
        let initial: Vec<Tuple> = (0..200).map(|i| author(i, i % 10, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        f.insert(author(1000, 3, 0.9)).unwrap();
        let before = ptq(&f, 3, 0.5);
        assert!(before.iter().any(|r| r.tuple.id.0 == 1000));
        assert_eq!(f.n_fractures(), 0);
        f.flush().unwrap();
        assert_eq!(f.n_fractures(), 1);
        assert_eq!(f.buffered_ops(), 0);
        let after = ptq(&f, 3, 0.5);
        assert_eq!(before.len(), after.len());
        assert!(after.iter().any(|r| r.tuple.id.0 == 1000));
    }

    #[test]
    fn deletes_suppress_older_copies_only() {
        let mut f = fresh(0);
        f.load_initial(&[author(1, 5, 0.8), author(2, 5, 0.8)])
            .unwrap();
        f.delete(TupleId(1)).unwrap();
        assert_eq!(ptq(&f, 5, 0.1).len(), 1);
        f.flush().unwrap();
        assert_eq!(ptq(&f, 5, 0.1).len(), 1);
        // Re-insert id 1 in a NEWER fracture: it must be visible again.
        f.insert(author(1, 5, 0.9)).unwrap();
        f.flush().unwrap();
        let res = ptq(&f, 5, 0.1);
        assert_eq!(res.len(), 2);
        let revived = res.iter().find(|r| r.tuple.id.0 == 1).unwrap();
        assert!((revived.confidence - 0.9 * 0.95).abs() < 1e-6);
    }

    #[test]
    fn delete_of_buffered_insert_cancels_in_ram() {
        let mut f = fresh(0);
        f.load_initial(&[author(1, 5, 0.8)]).unwrap();
        f.insert(author(99, 5, 0.9)).unwrap();
        f.delete(TupleId(99)).unwrap();
        assert_eq!(f.buffered_ops(), 0, "insert+delete cancel in RAM");
        assert_eq!(ptq(&f, 5, 0.1).len(), 1);
    }

    #[test]
    fn autoflush_triggers_at_capacity() {
        let mut f = fresh(10);
        f.load_initial(&[author(0, 1, 0.8)]).unwrap();
        for i in 1..=25 {
            f.insert(author(i, 1, 0.8)).unwrap();
        }
        assert!(f.n_fractures() >= 2, "two autoflushes at buffer_ops=10");
        assert_eq!(ptq(&f, 1, 0.1).len(), 26);
    }

    #[test]
    fn merge_collapses_fractures_and_preserves_answers() {
        let mut f = fresh(0);
        let initial: Vec<Tuple> = (0..300).map(|i| author(i, i % 10, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        for batch in 0..3u64 {
            for i in 0..50u64 {
                f.insert(author(1000 + batch * 50 + i, i % 10, 0.85))
                    .unwrap();
            }
            for i in 0..5u64 {
                f.delete(TupleId(batch * 5 + i)).unwrap();
            }
            f.flush().unwrap();
        }
        assert_eq!(f.n_fractures(), 3);
        let before: Vec<(u64, u64)> = ptq(&f, 4, 0.1)
            .iter()
            .map(|r| (r.tuple.id.0, (r.confidence * 1e9) as u64))
            .collect();
        let bytes_before = f.total_bytes();
        f.merge().unwrap();
        assert_eq!(f.n_fractures(), 0);
        let after: Vec<(u64, u64)> = ptq(&f, 4, 0.1)
            .iter()
            .map(|r| (r.tuple.id.0, (r.confidence * 1e9) as u64))
            .collect();
        assert_eq!(before, after, "merge must not change query answers");
        // Merged DB is no bigger than the fractured one (deletes applied).
        assert!(f.total_bytes() <= bytes_before);
    }

    #[test]
    fn merge_cost_is_about_read_plus_write_of_the_db() {
        // Table 8's claim: merging ≈ sequentially reading + writing the DB.
        // File-open charges (Cost_init) are excluded: they are fixed
        // per-component costs that vanish at real scale but dominate a
        // unit-test-sized database.
        let st = store();
        let mut f =
            FracturedUpi::create(st.clone(), "m", 1, &[], FracturedConfig::default()).unwrap();
        let initial: Vec<Tuple> = (0..20_000).map(|i| author(i, i % 20, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        for i in 0..5_000u64 {
            f.insert(author(100_000 + i, i % 20, 0.8)).unwrap();
        }
        f.flush().unwrap();
        let db_bytes = f.total_bytes();
        st.go_cold();
        let before = st.disk.stats();
        f.merge().unwrap();
        st.pool.flush_all();
        let d = st.disk.stats().since(&before);
        let elapsed = d.total_ms() - d.init_ms;
        let cfg = st.disk.config();
        let expected = cfg.read_cost_ms(db_bytes) + cfg.write_cost_ms(db_bytes);
        // Within 3x (the new main's size differs from the old DB's; seeks
        // between interleaved files add a little).
        assert!(
            elapsed > expected * 0.3 && elapsed < expected * 3.0,
            "merge {elapsed:.0}ms vs sequential-read+write {expected:.0}ms"
        );
    }

    #[test]
    fn secondary_queries_span_components() {
        let mut f = fresh(0);
        f.load_initial(&[author(1, 7, 0.8)]).unwrap(); // country 0
        f.insert(author(2, 14, 0.8)).unwrap(); // country 0
        f.flush().unwrap();
        f.insert(author(3, 21, 0.8)).unwrap(); // country 0, buffered
        let res = ptq_secondary(&f, 0, 0.1, true);
        let mut ids: Vec<u64> = res.iter().map(|r| r.tuple.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn streaming_runs_match_batch_across_components() {
        // Main + one fracture + live insert buffer + deletes: every
        // streaming cursor must agree with a brute-force answer over a
        // model of the live tuples.
        let mut f = fresh(0);
        let mut live: BTreeMap<u64, Tuple> = BTreeMap::new();
        let initial: Vec<Tuple> = (0..120).map(|i| author(i, i % 6, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        live.extend(initial.into_iter().map(|t| (t.id.0, t)));
        for i in 0..40u64 {
            let t = author(500 + i, i % 6, 0.85);
            live.insert(t.id.0, t.clone());
            f.insert(t).unwrap();
        }
        for i in 0..6u64 {
            f.delete(TupleId(i)).unwrap();
            live.remove(&i);
        }
        f.flush().unwrap();
        for i in 0..10u64 {
            let t = author(900 + i, i % 6, 0.9); // stays buffered
            live.insert(t.id.0, t.clone());
            f.insert(t).unwrap();
        }
        f.delete(TupleId(7)).unwrap();
        live.remove(&7);

        // `(tid, confidence)` of every live tuple whose mass on
        // `lo..=hi` of field `attr` is positive and ≥ qt, canonical order.
        let oracle = |attr: usize, lo: u64, hi: u64, qt: f64| {
            let mut out: Vec<(u64, f64)> = live
                .values()
                .filter_map(|t| {
                    let conf: f64 = t
                        .discrete(attr)
                        .alternatives()
                        .iter()
                        .filter(|&&(v, _)| (lo..=hi).contains(&v))
                        .map(|&(_, p)| p * t.exist)
                        .sum();
                    (conf > 0.0 && conf >= qt).then_some((t.id.0, conf))
                })
                .collect();
            out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            out
        };
        // Compared by tid: buffered rows carry exact confidences and
        // on-disk rows key-grid ones, so exact ties may order either way.
        let check = |got: &[PtqResult], mut want: Vec<(u64, f64)>, what: &str| {
            let mut got: Vec<(u64, f64)> =
                got.iter().map(|r| (r.tuple.id.0, r.confidence)).collect();
            got.sort_by_key(|r| r.0);
            want.sort_by_key(|r| r.0);
            assert_eq!(got.len(), want.len(), "{what}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0, b.0, "{what}");
                assert!((a.1 - b.1).abs() < 1e-6, "{what}");
            }
        };
        for qt in [0.0, 0.1, 0.5] {
            // Point, both behaviours; the top-k merge must also stream in
            // descending confidence.
            let merged: Vec<PtqResult> = f
                .ptq_run(3, qt, Some(usize::MAX))
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            for w in merged.windows(2) {
                assert!(w[0].confidence >= w[1].confidence, "merge order broken");
            }
            check(
                &merged,
                oracle(1, 3, 3, qt),
                &format!("top-k point qt={qt}"),
            );
            check(
                &ptq(&f, 3, qt),
                oracle(1, 3, 3, qt),
                &format!("point qt={qt}"),
            );
            check(
                &ptq_range(&f, 1, 4, qt),
                oracle(1, 1, 4, qt),
                &format!("range qt={qt}"),
            );
            for tailored in [true, false] {
                check(
                    &ptq_secondary(&f, 2, qt, tailored),
                    oracle(2, 2, 2, qt),
                    &format!("secondary qt={qt} tailored={tailored}"),
                );
            }
        }
    }

    #[test]
    fn n_live_tuples_tracks_changes() {
        let mut f = fresh(0);
        f.load_initial(&(0..100).map(|i| author(i, 1, 0.8)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(f.n_live_tuples(), 100);
        f.insert(author(200, 1, 0.8)).unwrap();
        f.delete(TupleId(5)).unwrap();
        assert_eq!(f.n_live_tuples(), 100);
        f.flush().unwrap();
        assert_eq!(f.n_live_tuples(), 100);
        f.merge().unwrap();
        assert_eq!(f.n_live_tuples(), 100);
    }

    /// Deleting a *buffered* version of a tuple must not resurrect an
    /// older on-disk version of the same id. Regression: the buffered
    /// insert was shadowing the flushed original, and delete used to drop
    /// the buffer entry without leaving a marker behind.
    #[test]
    fn delete_of_buffered_update_suppresses_older_versions() {
        let mut f = fresh(0);
        f.insert(author(7, 1, 0.8)).unwrap();
        f.flush().unwrap(); // v1 lives in fracture 0

        // Update: delete v1 + insert v2, both while v2 stays buffered.
        f.delete(TupleId(7)).unwrap();
        f.insert(author(7, 2, 0.9)).unwrap();
        assert_eq!(f.n_live_tuples(), 1);

        // Delete the buffered v2 — id 7 must now be gone everywhere.
        f.delete(TupleId(7)).unwrap();
        assert_eq!(f.n_live_tuples(), 0);
        assert!(f.live_tuples().unwrap().is_empty());
        assert!(ptq(&f, 1, 0.0).is_empty(), "v1 resurrected");
        assert!(ptq(&f, 2, 0.0).is_empty(), "v2 survived its delete");

        // And the emptiness must survive a flush of the delete marker.
        f.flush().unwrap();
        assert!(ptq(&f, 1, 0.0).is_empty());
        assert_eq!(f.n_live_tuples(), 0);

        // Same shape against a version living in *main* (not a fracture).
        let mut g = fresh(0);
        g.load_initial(&[author(3, 1, 0.8)]).unwrap();
        g.delete(TupleId(3)).unwrap();
        g.insert(author(3, 2, 0.9)).unwrap();
        g.delete(TupleId(3)).unwrap();
        assert!(ptq(&g, 1, 0.0).is_empty(), "main version resurrected");
        assert_eq!(g.n_live_tuples(), 0);
    }

    /// Build a fractured UPI with several fractures carrying inserts,
    /// deletes and updates, plus a live insert buffer — the layout every
    /// incremental-merge test steps over.
    fn deteriorated() -> FracturedUpi {
        let mut f = fresh(0);
        let initial: Vec<Tuple> = (0..1200).map(|i| author(i, i % 8, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        for batch in 0..4u64 {
            for i in 0..30u64 {
                f.insert(author(1000 + batch * 30 + i, i % 8, 0.85))
                    .unwrap();
            }
            for i in 0..4u64 {
                f.delete(TupleId(batch * 4 + i)).unwrap();
            }
            // An update of a row from an older component: delete + insert.
            let vic = 100 + batch;
            f.delete(TupleId(vic)).unwrap();
            f.insert(author(vic, (vic % 8) + 1, 0.9)).unwrap();
            f.flush().unwrap();
        }
        // Live buffered tail: inserts and a delete of an on-disk row.
        for i in 0..7u64 {
            f.insert(author(2000 + i, i % 8, 0.9)).unwrap();
        }
        f.delete(TupleId(150)).unwrap();
        f
    }

    fn all_answers(f: &FracturedUpi) -> Vec<(u64, u64)> {
        let key = |r: &PtqResult| (r.tuple.id.0, (r.confidence * 1e9).round() as u64);
        let mut out = Vec::new();
        for v in 0..9u64 {
            out.extend(ptq(f, v, 0.1).iter().map(key));
            out.extend(ptq_secondary(f, v % 7, 0.2, true).iter().map(key));
        }
        out.extend(ptq_range(f, 2, 6, 0.0).iter().map(key));
        out
    }

    #[test]
    fn merge_steps_preserve_answers_and_converge_to_one_component() {
        let mut f = deteriorated();
        assert_eq!(f.n_fractures(), 4);
        let coeffs = DeviceCoeffs::from_disk(f.store.disk.config());
        let before = all_answers(&f);
        let live_before = f.n_live_tuples();
        let mut steps = 0;
        loop {
            let eliminated = f.merge_step(&coeffs, f64::INFINITY).unwrap();
            if eliminated == 0 {
                break;
            }
            steps += 1;
            assert_eq!(
                all_answers(&f),
                before,
                "answers drifted after step {steps}"
            );
            assert_eq!(f.n_live_tuples(), live_before);
            assert!(steps <= 8, "incremental merge failed to converge");
        }
        assert_eq!(f.n_fractures(), 0, "converged chain is a single component");
        assert!(
            f.buffered_ops() > 0,
            "merge steps leave the RAM buffer alone"
        );
    }

    #[test]
    fn bounded_budget_compacts_fracture_runs_without_touching_main() {
        let mut f = deteriorated();
        let coeffs = DeviceCoeffs::from_disk(f.store.disk.config());
        let sizes = f.component_bytes();
        assert_eq!(sizes.len(), 5);
        // Budget covering all four fractures but not main: the step must
        // be a run compaction, shrinking the chain while main survives.
        let frac_bytes: u64 = sizes[1..].iter().sum();
        let budget = crate::maintenance::merge_slice_cost_ms(&coeffs, frac_bytes) + 1e-9;
        assert!(crate::maintenance::merge_slice_cost_ms(&coeffs, sizes[0]) > budget);
        let before = all_answers(&f);
        let eliminated = f.merge_step(&coeffs, budget).unwrap();
        assert_eq!(eliminated, 3, "all four fractures compact into one");
        assert_eq!(f.n_fractures(), 1);
        assert_eq!(all_answers(&f), before);
        // Zero budget: nothing fits, the chain is untouched.
        assert_eq!(f.merge_step(&coeffs, 0.0).unwrap(), 0);
        assert_eq!(f.n_fractures(), 1);
    }

    #[test]
    fn compacted_run_keeps_suppressing_older_components() {
        // A delete marker for a main-resident row lives in fracture 1;
        // compacting fractures 0..=1 must keep that marker, and a row
        // deleted-then-reinserted across the run must keep exactly its
        // newest version.
        let mut f = fresh(0);
        f.load_initial(&[author(1, 3, 0.8), author(2, 3, 0.8)])
            .unwrap();
        f.insert(author(10, 3, 0.7)).unwrap();
        f.flush().unwrap(); // fracture 0: id 10 v1
        f.delete(TupleId(1)).unwrap(); // suppresses main
        f.delete(TupleId(10)).unwrap();
        f.insert(author(10, 4, 0.9)).unwrap(); // id 10 v2
        f.flush().unwrap(); // fracture 1
        assert_eq!(f.n_fractures(), 2);

        let coeffs = DeviceCoeffs::from_disk(f.store.disk.config());
        let eliminated = f
            .apply_compaction(CompactionStep::CompactRun { first: 0, last: 1 })
            .unwrap();
        assert_eq!(eliminated, 1);
        assert_eq!(f.n_fractures(), 1);
        let _ = coeffs;
        assert!(
            ptq(&f, 3, 0.0).iter().all(|r| r.tuple.id.0 != 1),
            "delete marker for the main-resident row was dropped"
        );
        assert!(
            ptq(&f, 3, 0.0).iter().all(|r| r.tuple.id.0 != 10),
            "stale v1 of the updated row survived the run compaction"
        );
        let v2 = ptq(&f, 4, 0.0);
        assert_eq!(v2.len(), 1);
        assert_eq!(v2[0].tuple.id.0, 10);
        assert_eq!(f.n_live_tuples(), 2, "id 2 in main + id 10 v2");
    }
}
