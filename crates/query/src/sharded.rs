//! Sharded scatter-gather PTQ: one logical table over N session shards.
//!
//! [`ShardedDb`] partitions a logical uncertain table across N
//! independent [`UncertainDb`] sessions by tuple id (see
//! [`upi::ShardLayout`]). Each shard is a complete vertical slice — its
//! own `Store` (SimDisk + buffer pool), WAL, statistics, and
//! self-calibrating cost model — so planning is **per shard**: the same
//! logical query may run a cutoff merge on one shard and a plain heap
//! run on another, priced by each shard's own observed scales.
//!
//! Execution is scatter-gather and **genuinely parallel**: every shard
//! runs its plan-and-drain on its own worker thread
//! (`std::thread::scope`), against its own simulated device. Top-k
//! point queries take the fast path: every shard whose chosen plan
//! streams in confidence order (`UpiHeap`, `FracturedProbe`) is opened
//! as a raw cursor, and all workers share one
//! [`TopKWatermark`] behind a lock. The k-th best
//! confidence seen *anywhere* becomes every cursor's pull watermark, so
//! a shard whose best remaining confidence falls below the global k-th
//! stops its source I/O early — even when the floor was raised by a
//! faster shard mid-drain. Shards whose chosen plan is not
//! confidence-ordered (or names a path this shard's layout cannot
//! serve — see [`ShardedDb::from_shards`]) fall back to a full
//! per-shard execution and join the merge as a pre-sorted batch; every
//! other query shape scatters whole queries in parallel and gathers
//! (re-sorts, re-aggregates, truncates) at the facade.
//!
//! **Pruning.** The facade maintains one [`upi::ShardStats`] per shard —
//! a raise-only max-confidence sketch per primary value — so an
//! `Eq`-on-primary scatter skips *opening* shards whose bound is
//! strictly below the confidence still needed (`qt`, or the current
//! watermark floor): no plan, no descent, zero pages. Skips are counted
//! on the facade ([`shards_skipped`](ShardedDb::shards_skipped)) and on
//! each skipped shard's metrics registry, and can be disabled with
//! [`set_pruning`](ShardedDb::set_pruning).
//!
//! Observability keeps the partition identity: the facade runs the
//! whole query under **one** attribution id; the attribution stack is
//! thread-local, so every worker re-pins its shard's window on its own
//! thread. The per-shard attributed device windows still sum to exactly
//! the query's total device time (`QueryOutput::device`), each shard's
//! `(estimated, observed)` pair feeds *that shard's* calibration store
//! with its own clock, and the merged trace carries one child span per
//! shard. Because the devices run concurrently, the query's
//! wall-clock-shaped latency is the **max** over the shard windows —
//! reported as `QueryOutput::latency_ms`, with the sum preserved in
//! `device` for calibration.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use upi::{PtqResult, RecoveryInfo, ShardLayout, ShardStats, TableLayout, TopKWatermark};
use upi_storage::error::Result as StorageResult;
use upi_storage::{BufferPool, IoStats, Lsn, PoolCounters, QueryId, Store};
use upi_uncertain::{Field, Schema, Tuple, TupleId};

use crate::error::QueryError;
use crate::exec::QueryOutput;
use crate::obs::{QueryTrace, TraceSpan};
use crate::plan::{AccessPath, PhysicalPlan};
use crate::query::{Predicate, PtqQuery};
use crate::session::UncertainDb;

/// The gather merge's total, explicit order: the canonical result order
/// ([`upi::result_cmp`]: confidence descending, then ascending tuple id),
/// then ascending shard index. Tuple ids are globally unique (id
/// routing), so the shard key never actually decides — it exists so the
/// order is *stated* to be total and stable.
fn merge_cmp(a: &(usize, PtqResult), b: &(usize, PtqResult)) -> std::cmp::Ordering {
    upi::result_cmp(&a.1, &b.1).then_with(|| a.0.cmp(&b.0))
}

/// A confidence-ordered per-shard cursor on the top-k fast path.
enum ShardCursor<'a> {
    /// Clustered UPI point merge (heap run + lazy cutoff).
    Upi(Box<upi::PointRun<'a>>),
    /// Fractured point merge; the global watermark is pushed in through
    /// [`raise_conf_floor`](upi::FracturedPointRun::raise_conf_floor).
    Frac(upi::FracturedPointRun<'a>),
}

impl ShardCursor<'_> {
    /// Next row at/above `floor` (confidence ties survive; the watermark
    /// only ever rises, which is what the underlying cursors require).
    fn next_above(&mut self, floor: f64) -> Result<Option<PtqResult>, QueryError> {
        match self {
            ShardCursor::Upi(run) => match run.next_where(floor, &|_| true) {
                Some(Ok(r)) => Ok(Some(r)),
                Some(Err(e)) => Err(e.into()),
                None => Ok(None),
            },
            ShardCursor::Frac(run) => {
                run.raise_conf_floor(floor);
                match run.next() {
                    Some(Ok(r)) => Ok(Some(r)),
                    Some(Err(e)) => Err(e.into()),
                    None => Ok(None),
                }
            }
        }
    }
}

/// The layout a shard actually has, for [`upi::ExecError::LayoutMismatch`].
fn layout_label(t: &upi::UncertainTable) -> &'static str {
    if t.as_fractured().is_some() {
        "fractured UPI"
    } else if t.unclustered_parts().is_some() {
        "unclustered heap"
    } else {
        "clustered UPI"
    }
}

/// Open the confidence-ordered cursor the fast path needs for `path` on
/// shard `s` — or a **typed** refusal.
///
/// `Ok(None)` means the chosen path is simply not confidence-ordered
/// (secondary, scan, PII …): the caller executes the whole shard query
/// instead. `Err(LayoutMismatch)` means the plan named a streaming path
/// this shard's physical layout cannot serve — possible once shards
/// have heterogeneous layouts ([`ShardedDb::from_shards`]) or a plan
/// was built against a foreign catalog — and the caller falls back the
/// same way rather than panicking. Note `UpiHeap` must also *reject* a
/// fractured shard: `as_upi()` would happily return the main component,
/// silently dropping buffered and fractured rows from the answer.
fn open_fast_cursor<'a>(
    s: &'a UncertainDb,
    path: &AccessPath,
    hints: &[upi_storage::AccessHint],
    pool: &BufferPool,
    value: u64,
    qt: f64,
    k: usize,
) -> Result<Option<ShardCursor<'a>>, QueryError> {
    let mismatch = |path: &AccessPath| {
        QueryError::Exec(upi::ExecError::LayoutMismatch {
            path: path.label(),
            layout: layout_label(s.table()).to_string(),
        })
    };
    match path {
        AccessPath::UpiHeap { .. } => {
            if s.table().as_fractured().is_some() {
                return Err(mismatch(path));
            }
            let Some(upi) = s.table().as_upi() else {
                return Err(mismatch(path));
            };
            for &hint in hints {
                pool.hint_run(hint);
            }
            match upi.point_run(value, qt, Some(k)) {
                Ok(run) => Ok(Some(ShardCursor::Upi(Box::new(run)))),
                Err(e) => {
                    for hint in hints {
                        pool.clear_hint(hint.start_page);
                    }
                    Err(e.into())
                }
            }
        }
        AccessPath::FracturedProbe => {
            let Some(f) = s.table().as_fractured() else {
                return Err(mismatch(path));
            };
            for &hint in hints {
                pool.hint_run(hint);
            }
            match f.ptq_run(value, qt, Some(k)) {
                Ok(run) => Ok(Some(ShardCursor::Frac(run))),
                Err(e) => {
                    for hint in hints {
                        pool.clear_hint(hint.start_page);
                    }
                    Err(e.into())
                }
            }
        }
        _ => Ok(None),
    }
}

/// What one shard worker brings back to the gather (everything here
/// crosses the thread boundary; cursors and guards never do).
struct ShardOutcome {
    /// This shard's qualifying rows, canonically ordered, at most k.
    rows: Vec<PtqResult>,
    /// The shard's chosen plan; `None` when the shard was skipped.
    plan: Option<PhysicalPlan>,
    /// Span label: the path label, a fallback annotation, or the skip
    /// reason.
    label: String,
    /// Set when the shard executed the whole query itself (its inner
    /// attribution window is this device view; the outer slot holds only
    /// plan-time I/O).
    fallback_device: Option<IoStats>,
    /// The shard was pruned: no plan, no cursor, zero pages.
    skipped: bool,
}

impl ShardOutcome {
    fn skipped(reason: String) -> ShardOutcome {
        ShardOutcome {
            rows: Vec::new(),
            plan: None,
            label: reason,
            fallback_device: None,
            skipped: true,
        }
    }
}

/// One shard's contribution to a gathered [`QueryOutput`] (see
/// `ShardedDb::gather`).
struct ShardPart {
    /// Span label after the `shard{i}: ` prefix.
    label: String,
    /// Rows this shard contributed.
    rows: u64,
    io: Option<PoolCounters>,
    device: Option<IoStats>,
    /// The chosen plan's estimated device ms, when the facade planned
    /// this shard.
    est_ms: Option<f64>,
    degraded: Option<String>,
    /// The shard was pruned.
    skipped: bool,
}

/// A sharded planner-first session: one logical uncertain table
/// partitioned by tuple id across N [`UncertainDb`] shards (see the
/// module docs for the execution model).
pub struct ShardedDb {
    shards: Vec<UncertainDb>,
    layout: ShardLayout,
    /// Per-shard pruning bounds, maintained by every DML entry point.
    stats: Vec<ShardStats>,
    /// Pruning switch (on by default); tests and benches flip it to
    /// compare skipped vs. exhaustive scatters.
    prune: AtomicBool,
    /// Shard openings avoided by pruning, across all queries.
    skipped: AtomicU64,
}

impl ShardedDb {
    /// Create one empty shard per store. Shard `i` lives in `stores[i]`
    /// under the name `{name}.s{i}` with the same schema and physical
    /// layout; `layout` routes tuple ids to shards.
    pub fn create(
        stores: Vec<Store>,
        name: &str,
        schema: Schema,
        primary_attr: usize,
        table_layout: TableLayout,
        layout: ShardLayout,
    ) -> StorageResult<ShardedDb> {
        assert_eq!(
            stores.len(),
            layout.n_shards(),
            "one store per shard required"
        );
        let shards = stores
            .into_iter()
            .enumerate()
            .map(|(i, store)| {
                UncertainDb::create(
                    store,
                    &format!("{name}.s{i}"),
                    schema.clone(),
                    primary_attr,
                    table_layout.clone(),
                )
            })
            .collect::<StorageResult<Vec<_>>>()?;
        // Empty shards: empty statistics, no scan.
        let stats = vec![ShardStats::new(); shards.len()];
        Ok(ShardedDb::assemble(shards, layout, stats))
    }

    /// Assemble a facade over existing shard sessions — the shards may
    /// have **heterogeneous physical layouts** (one clustered, one
    /// fractured, one unclustered …); the fast path falls back per shard
    /// where a layout cannot stream in confidence order. The pruning
    /// statistics are rebuilt from live tuples.
    pub fn from_shards(shards: Vec<UncertainDb>, layout: ShardLayout) -> StorageResult<ShardedDb> {
        assert_eq!(
            shards.len(),
            layout.n_shards(),
            "one shard session per routing slot required"
        );
        let mut db = ShardedDb::assemble(shards, layout, Vec::new());
        db.rebuild_stats()?;
        Ok(db)
    }

    /// The one constructor tail: validates the shard set and starts with
    /// pruning on and no skips counted.
    fn assemble(
        shards: Vec<UncertainDb>,
        layout: ShardLayout,
        stats: Vec<ShardStats>,
    ) -> ShardedDb {
        assert!(!shards.is_empty(), "at least one shard required");
        let primary = shards[0].table().primary_attr();
        assert!(
            shards.iter().all(|s| s.table().primary_attr() == primary),
            "shards must agree on the primary attribute"
        );
        ShardedDb {
            shards,
            layout,
            stats,
            prune: AtomicBool::new(true),
            skipped: AtomicU64::new(0),
        }
    }

    /// The id-routing layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard sessions (per-shard metrics, cost models, tables).
    pub fn shards(&self) -> &[UncertainDb] {
        &self.shards
    }

    /// One shard session, mutably (per-shard maintenance).
    pub fn shard_mut(&mut self, i: usize) -> &mut UncertainDb {
        &mut self.shards[i]
    }

    /// Per-shard pruning statistics, in shard order.
    pub fn stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Enable or disable statistics-based shard pruning (on by default).
    pub fn set_pruning(&self, on: bool) {
        self.prune.store(on, Ordering::Relaxed);
    }

    /// Total shard openings avoided by pruning, across all queries.
    pub fn shards_skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Rebuild every shard's pruning statistics from its live tuples —
    /// the only *tightening* operation (DML maintenance is raise-only,
    /// so deletes and down-updates accumulate slack until a rebuild).
    pub fn rebuild_stats(&mut self) -> StorageResult<()> {
        let attr = self.primary_attr();
        let mut stats = vec![ShardStats::new(); self.shards.len()];
        for (st, s) in stats.iter_mut().zip(&self.shards) {
            for t in s.table().live_tuples()? {
                st.note_tuple(attr, &t);
            }
        }
        self.stats = stats;
        Ok(())
    }

    fn primary_attr(&self) -> usize {
        self.shards[0].table().primary_attr()
    }

    // --- DML / maintenance (routed) ---------------------------------------

    /// Attach the same secondary index to every shard; returns the index
    /// position (identical on all shards).
    pub fn add_secondary(&mut self, attr: usize) -> StorageResult<usize> {
        let mut idx = 0;
        for s in &mut self.shards {
            idx = s.add_secondary(attr)?;
        }
        Ok(idx)
    }

    /// Bulk-load tuples, partitioned by the layout's id routing.
    pub fn load(&mut self, tuples: &[Tuple]) -> StorageResult<()> {
        let attr = self.primary_attr();
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); self.shards.len()];
        for t in tuples {
            let shard = self.layout.route(t.id.0);
            self.stats[shard].note_tuple(attr, t);
            parts[shard].push(t.clone());
        }
        for (s, part) in self.shards.iter_mut().zip(&parts) {
            s.load(part)?;
        }
        Ok(())
    }

    /// Insert a row: the facade assigns the next global tuple id and
    /// routes the tuple to its shard.
    ///
    /// The id horizon is the **max over shard id horizons**
    /// (`UncertainTable::next_id`), never the max live tuple id: a
    /// shard whose largest-id rows were deleted still reserves those
    /// ids, and on a hash layout a reused id would route back to the
    /// same shard and collide with its WAL history. Deriving it on every
    /// insert makes a live facade and a recovered one agree.
    pub fn insert(&mut self, exist: f64, fields: Vec<Field>) -> StorageResult<TupleId> {
        let next_id = self.shards.iter().map(|s| s.table().next_id()).max();
        let id = TupleId(next_id.unwrap_or(0));
        let t = Tuple::new(id, exist, fields);
        self.insert_tuple(&t)?;
        Ok(id)
    }

    /// Insert a fully-formed tuple (caller manages ids).
    pub fn insert_tuple(&mut self, t: &Tuple) -> StorageResult<()> {
        let attr = self.primary_attr();
        let shard = self.layout.route(t.id.0);
        self.stats[shard].note_tuple(attr, t);
        self.shards[shard].insert_tuple(t)
    }

    /// Delete a tuple from its shard. The shard's pruning bounds keep
    /// the deleted row's confidence as slack (raise-only; see
    /// [`rebuild_stats`](Self::rebuild_stats)).
    pub fn delete(&mut self, t: &Tuple) -> StorageResult<()> {
        self.shards[self.layout.route(t.id.0)].delete(t)
    }

    /// Replace `old` with `new` (same tuple id, hence same shard).
    pub fn update(&mut self, old: &Tuple, new: &Tuple) -> StorageResult<()> {
        assert_eq!(old.id, new.id, "update must keep the tuple id");
        let attr = self.primary_attr();
        let shard = self.layout.route(old.id.0);
        self.stats[shard].note_tuple(attr, new);
        self.shards[shard].update(old, new)
    }

    /// Flush every shard's insert buffer (fractured layout only).
    pub fn flush(&mut self) -> StorageResult<()> {
        for s in &mut self.shards {
            s.flush()?;
        }
        Ok(())
    }

    /// Merge every shard's fractures (fractured layout only), then
    /// tighten the pruning statistics: the merge visits every live tuple
    /// anyway, and a shard whose hot rows were deleted stays unprunable
    /// until its raise-only sketch is rebuilt.
    pub fn merge(&mut self) -> StorageResult<()> {
        for s in &mut self.shards {
            s.merge()?;
        }
        self.rebuild_stats()
    }

    /// One maintenance tick per shard. Each shard session decides
    /// independently on its **own** clock, metrics, and calibration —
    /// a hot shard compacts while a cold one declines — so the returned
    /// reports are per-shard (`None` where the shard's policy declined).
    /// Compaction never changes the live tuple set, so the pruning
    /// statistics stay exact.
    pub fn maintenance_tick(
        &mut self,
    ) -> StorageResult<Vec<Option<crate::session::MaintenanceReport>>> {
        self.shards
            .iter_mut()
            .map(|s| s.maintenance_tick())
            .collect()
    }

    /// Drain profitable maintenance on every shard (see
    /// [`UncertainDb::maintain`]); returns one summary per shard.
    pub fn maintain(&mut self) -> StorageResult<Vec<crate::session::MaintenanceSummary>> {
        self.shards.iter_mut().map(|s| s.maintain()).collect()
    }

    // --- Durability (per shard) -------------------------------------------

    /// Attach a WAL to every shard (each shard checkpoints its own
    /// calibration payload). Returns one LSN per shard.
    pub fn enable_durability(&mut self) -> StorageResult<Vec<Lsn>> {
        self.shards
            .iter_mut()
            .map(|s| s.enable_durability())
            .collect()
    }

    /// Checkpoint every shard.
    pub fn checkpoint(&mut self) -> StorageResult<Vec<Lsn>> {
        self.shards.iter_mut().map(|s| s.checkpoint()).collect()
    }

    /// Force every shard's WAL group-commit buffer durable.
    pub fn sync_wal(&mut self) -> StorageResult<Vec<Lsn>> {
        self.shards.iter_mut().map(|s| s.sync_wal()).collect()
    }

    /// Recover every shard (`{name}.s{i}` from `stores[i]`) and
    /// reassemble the facade. The global id horizon needs no re-seeding:
    /// it is always derived from the shards (see [`insert`](Self::insert)).
    /// Pruning statistics are rebuilt from live tuples.
    pub fn recover(
        stores: Vec<Store>,
        name: &str,
        layout: ShardLayout,
    ) -> StorageResult<(ShardedDb, Vec<RecoveryInfo>)> {
        assert_eq!(stores.len(), layout.n_shards());
        let mut shards = Vec::with_capacity(stores.len());
        let mut infos = Vec::with_capacity(stores.len());
        for (i, store) in stores.into_iter().enumerate() {
            let (db, info) = UncertainDb::recover(store, &format!("{name}.s{i}"))?;
            shards.push(db);
            infos.push(info);
        }
        let db = ShardedDb::from_shards(shards, layout)?;
        Ok((db, infos))
    }

    /// All live tuples across shards, ascending by tuple id.
    pub fn live_tuples(&self) -> StorageResult<Vec<Tuple>> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.table().live_tuples()?);
        }
        out.sort_by_key(|t| t.id);
        Ok(out)
    }

    /// Refit every shard's cost model from its own observed samples.
    pub fn recalibrate(&self) -> Vec<Vec<crate::cost::RefitOutcome>> {
        self.shards.iter().map(|s| s.recalibrate()).collect()
    }

    // --- Queries -----------------------------------------------------------

    /// Plan and execute a query across all shards (see the module docs
    /// for the two execution modes). Output is byte-identical to the
    /// same query on an unsharded table holding the union of the
    /// shards' tuples.
    pub fn query(&self, q: &PtqQuery) -> Result<QueryOutput, QueryError> {
        match (&q.predicate, q.top_k) {
            (Predicate::Eq { attr, value }, Some(k))
                if *attr == self.primary_attr()
                    && q.group_count.is_none()
                    && q.projection.is_none()
                    && k > 0 =>
            {
                self.scatter_topk(q, *value, k)
            }
            _ => self.scatter_whole(q),
        }
    }

    /// Point PTQ on the primary attribute.
    pub fn ptq(&self, value: u64, qt: f64) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::eq(self.primary_attr(), value).with_qt(qt))?
            .rows)
    }

    /// Range PTQ on the primary attribute (inclusive bounds).
    pub fn ptq_range(&self, lo: u64, hi: u64, qt: f64) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::range(self.primary_attr(), lo, hi).with_qt(qt))?
            .rows)
    }

    /// PTQ through secondary index `idx` (scattered to every shard's
    /// own planner: one shard may go tailored, another plain).
    pub fn ptq_secondary(
        &self,
        idx: usize,
        value: u64,
        qt: f64,
    ) -> Result<Vec<PtqResult>, QueryError> {
        let attr = self.shards[0].sec_attr(idx)?;
        Ok(self.query(&PtqQuery::eq(attr, value).with_qt(qt))?.rows)
    }

    /// Top-k most confident rows for a primary value — the scatter-
    /// gather fast path with the shared watermark.
    pub fn top_k(&self, value: u64, k: usize) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::eq(self.primary_attr(), value).with_top_k(k))?
            .rows)
    }

    // --- Scatter-gather execution -----------------------------------------

    /// The fast path: per-shard plans, confidence-ordered cursors, one
    /// shared top-k watermark (module docs). Wraps the inner body so
    /// attribution slots are drained even on error.
    fn scatter_topk(&self, q: &PtqQuery, value: u64, k: usize) -> Result<QueryOutput, QueryError> {
        let qid = QueryId::next();
        let result = self.scatter_topk_inner(q, value, k, qid);
        if result.is_err() {
            for s in &self.shards {
                s.table().store().pool.take_attributed(qid);
            }
        }
        result
    }

    fn scatter_topk_inner(
        &self,
        q: &PtqQuery,
        value: u64,
        k: usize,
        qid: QueryId,
    ) -> Result<QueryOutput, QueryError> {
        let n = self.shards.len();
        let pools: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.table().store().pool.as_ref())
            .collect();
        let before: Vec<PoolCounters> = pools.iter().map(|p| p.counters()).collect();
        let prune_on = self.prune.load(Ordering::Relaxed);
        let skips = self.static_skips(value, q.qt);
        // One shared floor for all workers: the lock is held only for a
        // note() or floor() read, never across I/O.
        let wm = Mutex::new(TopKWatermark::new(k));

        // Scatter: one worker per shard. Only `Send` data crosses the
        // boundary — plans and rows come back in a `ShardOutcome`;
        // cursors, catalogs, and attribution guards live and die on the
        // worker. The attribution stack is thread-local, so each worker
        // re-pins its shard's window (same `qid`) on its own thread.
        let run_shard = |i: usize, s: &UncertainDb| -> Result<ShardOutcome, QueryError> {
            if let Some(reason) = &skips[i] {
                return Ok(ShardOutcome::skipped(reason.clone()));
            }
            let pool = s.table().store().pool.as_ref();
            let _guard = pool.attributed(qid);
            // Dynamic pruning: a faster shard may already have raised the
            // k-th floor above this shard's best possible row.
            if prune_on {
                let bound = self.stats[i].bound(value);
                let floor = wm.lock().floor();
                if bound < floor {
                    return Ok(ShardOutcome::skipped(format!(
                        "skipped (bound {bound:.3} < floor {floor:.3})"
                    )));
                }
            }
            let catalog = s.catalog().with_query_id(qid);
            let plan = q.plan(&catalog)?;
            let chosen = &plan.candidates[0];
            let mut label = chosen.path.label();
            let cursor =
                match open_fast_cursor(s, &chosen.path, &chosen.hints, pool, value, q.qt, k) {
                    Ok(c) => c,
                    // The plan named a streaming path this shard's layout
                    // cannot serve: typed and recoverable — run the whole
                    // shard query instead of panicking.
                    Err(QueryError::Exec(e @ upi::ExecError::LayoutMismatch { .. })) => {
                        label = format!("{label} [fallback: {e}]");
                        None
                    }
                    Err(e) => return Err(e),
                };
            match cursor {
                Some(mut cur) => {
                    let mut rows = Vec::with_capacity(k);
                    loop {
                        let floor = wm.lock().floor();
                        match cur.next_above(floor)? {
                            Some(r) => {
                                wm.lock().note(r.confidence);
                                rows.push(r);
                                if rows.len() >= k {
                                    break;
                                }
                            }
                            None => break,
                        }
                    }
                    Ok(ShardOutcome {
                        rows,
                        plan: Some(plan),
                        label,
                        fallback_device: None,
                        skipped: false,
                    })
                }
                // Not confidence-ordered (e.g. a full scan won on a tiny
                // shard), or a layout mismatch: execute the whole shard
                // query — it pushes its own inner attribution window and
                // records its own calibration sample — and merge its
                // exact rows (noting them so other shards' floors rise).
                None => {
                    let out = s.query(q)?;
                    {
                        let mut wm = wm.lock();
                        for r in &out.rows {
                            wm.note(r.confidence);
                        }
                    }
                    Ok(ShardOutcome {
                        rows: out.rows,
                        plan: Some(plan),
                        label,
                        fallback_device: out.device,
                        skipped: false,
                    })
                }
            }
        };
        let results: Vec<Result<ShardOutcome, QueryError>> = std::thread::scope(|scope| {
            let run_shard = &run_shard;
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| scope.spawn(move || run_shard(i, s)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let mut outcomes = Vec::with_capacity(n);
        for r in results {
            outcomes.push(r?);
        }

        // Gather: merge the per-shard prefixes under the explicit total
        // order. Per-shard rows are each canonical already; any row a
        // worker's floor suppressed is provably outside the global top-k
        // (k noted-and-collected rows strictly beat it).
        let mut tagged: Vec<(usize, PtqResult)> = Vec::new();
        for (i, o) in outcomes.iter_mut().enumerate() {
            tagged.extend(o.rows.drain(..).map(|r| (i, r)));
        }
        tagged.sort_by(merge_cmp);
        tagged.truncate(k);
        let mut emitted = vec![0u64; n];
        let mut rows = Vec::with_capacity(tagged.len());
        for (i, r) in tagged {
            emitted[i] += 1;
            rows.push(r);
        }

        // Attribute and observe: per-shard windows feed each shard's
        // calibration with its own clock.
        let mut parts = Vec::with_capacity(n);
        for (i, (s, o)) in self.shards.iter().zip(outcomes).enumerate() {
            let attributed = pools[i].take_attributed(qid);
            let shard_io = pools[i].counters().since(&before[i]);
            let shard_device = match (&o.fallback_device, &o.plan) {
                // Fallback shards attributed their execution to their own
                // inner window; the outer slot holds only plan-time I/O.
                (Some(d), _) => attributed.merged(d),
                (None, Some(plan)) => {
                    s.note_external_execution(
                        &plan.candidates[0].cost,
                        attributed.total_ms(),
                        emitted[i],
                        Some(&shard_io),
                    );
                    attributed
                }
                // Skipped: an empty window — the shard was never opened.
                (None, None) => attributed,
            };
            parts.push(ShardPart {
                label: o.label,
                rows: emitted[i],
                io: Some(shard_io),
                device: Some(shard_device),
                est_ms: o.plan.map(|p| p.candidates[0].cost.device_ms()),
                degraded: pools[i].degraded(),
                skipped: o.skipped,
            });
        }
        Ok(self.gather(
            format!("ShardMerge(k={k})"),
            QueryTrace {
                query_id: qid.0,
                path: format!("ShardMerge({n} shards)"),
                spans: Vec::new(),
            },
            parts,
            rows,
            None,
        ))
    }

    /// The general path: scatter the whole query to every shard **in
    /// parallel**, gather by re-sorting (and re-aggregating /
    /// truncating) the shard outputs. Tuple-id partitioning makes the
    /// union exact — no row can appear on two shards, and per-group
    /// counts add. `Eq`-on-primary scatters prune with the same
    /// per-shard bounds as the fast path (a pruned shard's rows would
    /// all sit below `qt`, contributing neither rows nor group counts).
    fn scatter_whole(&self, q: &PtqQuery) -> Result<QueryOutput, QueryError> {
        let n = self.shards.len();
        let skips = match &q.predicate {
            Predicate::Eq { attr, value } if *attr == self.primary_attr() => {
                self.static_skips(*value, q.qt)
            }
            _ => vec![None; n],
        };
        let results: Vec<Option<Result<QueryOutput, QueryError>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .zip(&skips)
                .map(|(s, skip)| skip.is_none().then(|| scope.spawn(move || s.query(q))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.map(|h| h.join().expect("shard worker panicked")))
                .collect()
        });
        let mut rows: Vec<PtqResult> = Vec::new();
        let mut groups: Option<std::collections::BTreeMap<u64, u64>> = None;
        let mut parts = Vec::with_capacity(n);
        for (result, skip) in results.into_iter().zip(skips) {
            let Some(result) = result else {
                parts.push(ShardPart {
                    label: skip.unwrap_or_default(),
                    rows: 0,
                    io: None,
                    device: Some(IoStats::default()),
                    est_ms: None,
                    degraded: None,
                    skipped: true,
                });
                continue;
            };
            let out = result?;
            if let Some(g) = out.groups {
                let acc = groups.get_or_insert_with(Default::default);
                for (key, count) in g {
                    *acc.entry(key).or_insert(0) += count;
                }
            }
            parts.push(ShardPart {
                label: out.trace.map_or_else(|| "?".to_string(), |t| t.path),
                rows: out.rows.len() as u64,
                io: out.io,
                device: out.device,
                est_ms: None,
                degraded: out.degraded,
                skipped: false,
            });
            rows.extend(out.rows);
        }
        upi::sort_results(&mut rows);
        if let Some(k) = q.top_k {
            rows.truncate(k);
        }
        let root = format!("ShardScatter({n} shards)");
        let trace = QueryTrace {
            query_id: 0,
            path: root.clone(),
            spans: Vec::new(),
        };
        Ok(self.gather(
            root,
            trace,
            parts,
            rows,
            groups.map(|g| g.into_iter().collect()),
        ))
    }

    /// Static pruning for an `Eq`-on-primary scatter, decided before any
    /// worker starts so it is deterministic: shard `i` is skipped (with
    /// the span label returned here) when its per-value bound cannot
    /// reach `qt`. Qualifying rows have confidence >= qt, so only a
    /// *strictly* lower bound may skip.
    fn static_skips(&self, value: u64, qt: f64) -> Vec<Option<String>> {
        let prune = self.prune.load(Ordering::Relaxed);
        self.stats
            .iter()
            .map(|st| {
                let bound = st.bound(value);
                (prune && bound < qt).then(|| format!("skipped (bound {bound:.3} < qt {qt:.3})"))
            })
            .collect()
    }

    /// The gather both scatters finish with: count the skipped shards,
    /// give every shard a child span under a `root` span, and total the
    /// shards' pool counters and device windows. The device sum is the
    /// query's device view; the max over shard windows is its parallel
    /// latency. `trace` arrives with its id and path and leaves with the
    /// spans.
    fn gather(
        &self,
        root: String,
        mut trace: QueryTrace,
        parts: Vec<ShardPart>,
        rows: Vec<PtqResult>,
        groups: Option<Vec<(u64, u64)>>,
    ) -> QueryOutput {
        let mut io = PoolCounters::default();
        let mut device = IoStats::default();
        let mut latency_ms = 0.0f64;
        let mut degraded = None;
        trace.spans.push(TraceSpan::label_only(root, 0));
        for (i, (s, part)) in self.shards.iter().zip(parts).enumerate() {
            if part.skipped {
                self.skipped.fetch_add(1, Ordering::Relaxed);
                s.note_shard_skip();
            }
            let mut span = TraceSpan::label_only(format!("shard{i}: {}", part.label), 1);
            span.stats = Some(upi::CursorStats {
                rows: part.rows,
                ..Default::default()
            });
            if let Some(shard_io) = &part.io {
                span.demand_pages = Some(shard_io.demand_pages());
                span.prefetch_pages = Some(shard_io.sequential_pages());
                io = io.merged(shard_io);
            }
            if let Some(d) = &part.device {
                span.device_ms = Some(d.total_ms());
                latency_ms = latency_ms.max(d.total_ms());
                device = device.merged(d);
            }
            span.est_ms = part.est_ms;
            trace.spans.push(span);
            if degraded.is_none() {
                degraded = part.degraded;
            }
        }
        let top = &mut trace.spans[0];
        top.device_ms = Some(device.total_ms());
        top.end_ms = device.total_ms();
        top.stats = Some(upi::CursorStats {
            rows: rows.len() as u64,
            ..Default::default()
        });
        QueryOutput {
            rows,
            groups,
            io: Some(io),
            device: Some(device),
            latency_ms: Some(latency_ms),
            trace: Some(trace),
            degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi::{FracturedConfig, UpiConfig};
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, FieldKind};

    fn stores(n: usize) -> Vec<Store> {
        (0..n)
            .map(|_| Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20))
            .collect()
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", FieldKind::Str),
            ("institution", FieldKind::Discrete),
            ("country", FieldKind::Discrete),
            ("region", FieldKind::U64),
        ])
    }

    fn row(inst: u64, p: f64, country: u64) -> Vec<Field> {
        vec![
            Field::Certain(Datum::Str("x".into())),
            Field::Discrete(DiscretePmf::new(vec![
                (inst, p),
                (inst + 100, (1.0 - p) * 0.5),
            ])),
            Field::Discrete(DiscretePmf::new(vec![(country, 1.0)])),
            Field::Certain(Datum::U64(country)),
        ]
    }

    /// Build the same logical table sharded and unsharded. Both are
    /// flushed at the end: a row still in a fractured insert buffer
    /// carries its *exact* confidence while flushed rows carry the
    /// quantized one, and auto-flush boundaries legitimately differ
    /// between one table and N shards — flushing puts every tuple in
    /// the quantized state so answers compare byte-for-byte.
    fn filled(n_shards: usize, table_layout: TableLayout, rows_n: u64) -> (ShardedDb, UncertainDb) {
        let mut sharded = ShardedDb::create(
            stores(n_shards),
            "t",
            schema(),
            1,
            table_layout.clone(),
            ShardLayout::HashTid(n_shards),
        )
        .unwrap();
        let mut single =
            UncertainDb::create(stores(1).remove(0), "t", schema(), 1, table_layout).unwrap();
        if single.table().as_fractured().is_none() {
            sharded.add_secondary(2).unwrap();
            single.add_secondary(2).unwrap();
        }
        for i in 0..rows_n {
            let f = row(i % 7, 0.35 + (i % 6) as f64 * 0.1, i % 3);
            sharded.insert(0.9, f.clone()).unwrap();
            single.insert(0.9, f).unwrap();
        }
        sharded.flush().unwrap();
        single.flush().unwrap();
        (sharded, single)
    }

    fn fingerprint(rows: &[PtqResult]) -> Vec<(u64, u64)> {
        rows.iter()
            .map(|r| (r.tuple.id.0, r.confidence.to_bits()))
            .collect()
    }

    #[test]
    fn all_query_shapes_match_the_unsharded_answer() {
        for layout in [
            TableLayout::Upi(UpiConfig::default()),
            TableLayout::Unclustered,
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 40,
            }),
        ] {
            let (sharded, single) = filled(3, layout, 180);
            for qt in [0.0, 0.3, 0.6] {
                assert_eq!(
                    fingerprint(&sharded.ptq(3, qt).unwrap()),
                    fingerprint(&single.ptq(3, qt).unwrap())
                );
            }
            assert_eq!(
                fingerprint(&sharded.ptq_range(1, 5, 0.3).unwrap()),
                fingerprint(&single.ptq_range(1, 5, 0.3).unwrap())
            );
            for k in [1, 4, 17, 500] {
                assert_eq!(
                    fingerprint(&sharded.top_k(3, k).unwrap()),
                    fingerprint(&single.top_k(3, k).unwrap()),
                    "top-{k}"
                );
            }
        }
    }

    #[test]
    fn secondary_and_grouped_queries_match() {
        let (sharded, single) = filled(4, TableLayout::Upi(UpiConfig::default()), 160);
        assert_eq!(
            fingerprint(&sharded.ptq_secondary(0, 1, 0.4).unwrap()),
            fingerprint(&single.ptq_secondary(0, 1, 0.4).unwrap())
        );
        let q = PtqQuery::eq(1, 3).with_qt(0.2).with_group_count(3);
        assert_eq!(
            sharded.query(&q).unwrap().groups,
            single.query(&q).unwrap().groups
        );
    }

    #[test]
    fn top_k_attribution_and_trace_cover_every_shard() {
        let (sharded, _) = filled(3, TableLayout::Upi(UpiConfig::default()), 150);
        // Pruning off: this test asserts every shard was *opened* (the
        // dynamic floor-skip is legitimately timing-dependent).
        sharded.set_pruning(false);
        let out = sharded.query(&PtqQuery::eq(1, 3).with_top_k(5)).unwrap();
        assert_eq!(out.rows.len(), 5);
        let trace = out.trace.unwrap();
        assert!(trace.path.starts_with("ShardMerge"));
        assert_eq!(trace.spans.len(), 1 + 3, "root + one span per shard");
        // Σ per-shard device windows = the reported total (the partition
        // identity survives concurrent workers), and the parallel
        // latency is the max over the same windows.
        let children: Vec<f64> = trace.spans[1..]
            .iter()
            .map(|s| s.device_ms.unwrap())
            .collect();
        let total: f64 = children.iter().sum();
        assert!((total - out.device.unwrap().total_ms()).abs() < 1e-9);
        let max = children.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!((max - out.latency_ms.unwrap()).abs() < 1e-9);
        assert!(out.latency_ms.unwrap() <= total + 1e-9);
        // The fast path fed each shard's own metrics registry (the
        // calibration store may drop the sample as warm-cache, but the
        // registry records every observation).
        for s in sharded.shards() {
            assert_eq!(s.metrics().queries, 1);
        }
    }

    fn dml_layouts() -> [TableLayout; 3] {
        [
            TableLayout::Upi(UpiConfig::default()),
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 0,
            }),
            TableLayout::Unclustered,
        ]
    }

    /// Builds a durable 3-shard table, bulk-loads 40 rows, inserts 20,
    /// deletes one, flushes, merges and syncs the WAL. Returns the table
    /// and its live tuple ids.
    fn routed_dml(
        sts: Vec<Store>,
        table_layout: TableLayout,
        routing: &ShardLayout,
    ) -> (ShardedDb, Vec<TupleId>) {
        let mut sharded =
            ShardedDb::create(sts, "d", schema(), 1, table_layout, routing.clone()).unwrap();
        sharded.enable_durability().unwrap();
        let preload: Vec<Tuple> = (0..40u64)
            .map(|i| Tuple::new(TupleId(i), 0.9, row(i % 5, 0.7, i % 3)))
            .collect();
        sharded.load(&preload).unwrap();
        for i in 0..20u64 {
            let id = sharded.insert(0.9, row(i % 5, 0.7, i % 3)).unwrap();
            assert_eq!(id.0, 40 + i, "the global id sequence continues past load");
        }
        sharded.delete(&preload[7]).unwrap();
        sharded.flush().unwrap();
        sharded.merge().unwrap();
        sharded.sync_wal().unwrap();
        let live: Vec<TupleId> = sharded
            .live_tuples()
            .unwrap()
            .iter()
            .map(|t| t.id)
            .collect();
        assert_eq!(live.len(), 59, "60 inserted - 1 deleted");
        (sharded, live)
    }

    /// Every shard is non-empty and holds only the ids routed to it.
    fn assert_partitioned(sharded: &ShardedDb, routing: &ShardLayout) {
        for (i, s) in sharded.shards().iter().enumerate() {
            let live = s.table().live_tuples().unwrap();
            assert!(!live.is_empty(), "shard {i} is empty");
            for t in live {
                assert_eq!(routing.route(t.id.0), i, "misrouted {:?}", t.id);
            }
        }
    }

    /// DML routes by tuple id and the global id sequence continues past
    /// a bulk load, so the shards partition the table.
    #[test]
    fn dml_routes_by_id_and_shards_partition_the_table() {
        for table_layout in dml_layouts() {
            let routing = ShardLayout::HashTid(3);
            let (sharded, _) = routed_dml(stores(3), table_layout, &routing);
            assert_partitioned(&sharded, &routing);
        }
    }

    /// Every shard recovers exactly its own partition from its own WAL.
    #[test]
    fn per_shard_durability_recovers_the_partition() {
        for table_layout in dml_layouts() {
            let sts = stores(3);
            let routing = ShardLayout::HashTid(3);
            let (sharded, expect) = routed_dml(sts.clone(), table_layout, &routing);
            drop(sharded);

            let (recovered, _) = ShardedDb::recover(sts, "d", routing.clone()).unwrap();
            let got: Vec<TupleId> = recovered
                .live_tuples()
                .unwrap()
                .iter()
                .map(|t| t.id)
                .collect();
            assert_eq!(got, expect);
            assert_partitioned(&recovered, &routing);
        }
    }

    /// Inserts route by range onto their shard, a delete removes the row
    /// from its shard, and recovery rebuilds the same split.
    #[test]
    fn dml_routes_and_recovers_per_shard() {
        let sts = stores(2);
        let routing = ShardLayout::RangeTid(vec![50]);
        let mut sharded = ShardedDb::create(
            sts.clone(),
            "d",
            schema(),
            1,
            TableLayout::Upi(UpiConfig::default()),
            routing.clone(),
        )
        .unwrap();
        sharded.enable_durability().unwrap();
        for i in 0..80u64 {
            sharded.insert(0.9, row(i % 5, 0.6, i % 2)).unwrap();
        }
        let all = sharded.live_tuples().unwrap();
        assert_eq!(all.len(), 80);
        let victim = all[10].clone();
        sharded.delete(&victim).unwrap();
        assert_eq!(sharded.live_tuples().unwrap().len(), 79);
        assert_eq!(sharded.shards()[0].table().live_tuples().unwrap().len(), 49);
        sharded.sync_wal().unwrap();
        drop(sharded);

        let (recovered, _) = ShardedDb::recover(sts, "d", routing).unwrap();
        assert_eq!(recovered.live_tuples().unwrap().len(), 79);
        assert_eq!(
            recovered.shards()[0].table().live_tuples().unwrap().len(),
            49
        );
        assert_eq!(
            recovered.shards()[1].table().live_tuples().unwrap().len(),
            30
        );
    }

    #[test]
    fn per_shard_stats_follow_load_and_insert_routing() {
        let mut sharded = ShardedDb::create(
            stores(2),
            "st",
            schema(),
            1,
            TableLayout::Upi(UpiConfig::default()),
            ShardLayout::RangeTid(vec![10]),
        )
        .unwrap();
        sharded
            .load(&[Tuple::new(TupleId(1), 1.0, row(3, 0.8, 0))])
            .unwrap();
        sharded
            .insert_tuple(&Tuple::new(TupleId(20), 1.0, row(4, 0.9, 0)))
            .unwrap();
        // Shard 0 saw only value 3; shard 1 only value 4.
        let st = sharded.stats();
        assert!(st[0].bound(3) >= 0.8);
        assert!(st[0].bound(4) < 0.5);
        assert!(st[1].bound(4) >= 0.9);
        assert!(st[1].bound(3) < 0.5);
        let id = sharded.insert(1.0, row(5, 0.7, 0)).unwrap();
        assert_eq!(id.0, 21, "the id horizon continues past the routed ids");
    }

    #[test]
    fn merge_tightens_stats_so_a_cooled_shard_prunes_again() {
        let mut sharded = ShardedDb::create(
            stores(2),
            "cool",
            schema(),
            1,
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 0,
            }),
            ShardLayout::RangeTid(vec![100]),
        )
        .unwrap();
        // Shard 0 keeps a live row for value 7; shard 1's only row for it
        // is the hot one deleted below.
        let warm = Tuple::new(TupleId(1), 1.0, row(7, 0.6, 0));
        sharded.load(std::slice::from_ref(&warm)).unwrap();
        let hot = Tuple::new(TupleId(200), 1.0, row(7, 0.95, 0));
        sharded.insert_tuple(&hot).unwrap();
        assert!(sharded.stats()[1].bound(7) >= 0.95);

        // The raise-only sketch keeps the deleted row's bound (sound but
        // slack), so the shard still looks hot.
        sharded.delete(&hot).unwrap();
        assert!(
            sharded.stats()[1].bound(7) >= 0.95,
            "DML maintenance is raise-only"
        );

        // The merge visits every live tuple and rebuilds the sketch.
        sharded.merge().unwrap();
        assert!(
            sharded.stats()[1].bound(7) < 0.5,
            "bound stayed {} after merge",
            sharded.stats()[1].bound(7)
        );
        assert!(sharded.stats()[0].bound(7) >= 0.6);

        // A pruned `Eq` query skips the cooled shard and reads nothing
        // there.
        let reads_before = sharded.shards()[1].table().store().disk.stats();
        let rows = sharded.ptq(7, 0.5).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tuple.id, warm.id);
        assert_eq!(sharded.shards_skipped(), 1);
        assert_eq!(sharded.shards()[1].metrics().shards_skipped, 1);
        let delta = sharded.shards()[1]
            .table()
            .store()
            .disk
            .stats()
            .since(&reads_before);
        assert_eq!(delta.page_reads, 0, "a pruned shard reads zero pages");
    }

    #[test]
    fn unknown_secondary_index_is_rejected() {
        let (sharded, _) = filled(2, TableLayout::Upi(UpiConfig::default()), 0);
        match sharded.ptq_secondary(1, 1, 0.3) {
            Err(QueryError::Plan(crate::error::PlanError::InvalidQuery { reason })) => {
                assert!(reason.contains("out of range"), "{reason}")
            }
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    /// The old fast path `expect()`ed its way onto shards whose layout
    /// differed from the plan's path. With heterogeneous shards (now
    /// constructible via [`ShardedDb::from_shards`]) the facade must
    /// stream where it can, fall back where it cannot, and stay
    /// byte-equal to the unsharded answer — never panic.
    #[test]
    fn mixed_layout_shards_answer_top_k_without_panicking() {
        let layouts = [
            TableLayout::Upi(UpiConfig::default()),
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 25,
            }),
            TableLayout::Unclustered,
        ];
        let routing = ShardLayout::HashTid(3);
        let mut shard_dbs: Vec<UncertainDb> = layouts
            .iter()
            .enumerate()
            .map(|(i, l)| {
                UncertainDb::create(
                    stores(1).remove(0),
                    &format!("m.s{i}"),
                    schema(),
                    1,
                    l.clone(),
                )
                .unwrap()
            })
            .collect();
        let mut single =
            UncertainDb::create(stores(1).remove(0), "m", schema(), 1, layouts[0].clone()).unwrap();
        for i in 0..200u64 {
            let t = Tuple::new(
                TupleId(i),
                0.9,
                row(i % 7, 0.35 + (i % 6) as f64 * 0.1, i % 3),
            );
            shard_dbs[routing.route(i)].insert_tuple(&t).unwrap();
            single.insert_tuple(&t).unwrap();
        }
        for s in &mut shard_dbs {
            s.flush().unwrap();
        }
        single.flush().unwrap();
        let sharded = ShardedDb::from_shards(shard_dbs, routing).unwrap();
        for k in [1, 5, 40] {
            assert_eq!(
                fingerprint(&sharded.top_k(3, k).unwrap()),
                fingerprint(&single.top_k(3, k).unwrap()),
                "top-{k} over mixed layouts"
            );
        }
        for qt in [0.0, 0.4] {
            assert_eq!(
                fingerprint(&sharded.ptq(3, qt).unwrap()),
                fingerprint(&single.ptq(3, qt).unwrap())
            );
        }
    }

    /// Pin the typed refusal directly: a `UpiHeap` plan cannot open a
    /// streaming cursor on a fractured or unclustered shard, and a
    /// `FracturedProbe` cannot open one on a plain-UPI shard.
    #[test]
    fn fast_cursor_open_reports_layout_mismatch_as_typed_error() {
        let frac = UncertainDb::create(
            stores(1).remove(0),
            "f",
            schema(),
            1,
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 0,
            }),
        )
        .unwrap();
        let plain = UncertainDb::create(
            stores(1).remove(0),
            "p",
            schema(),
            1,
            TableLayout::Upi(UpiConfig::default()),
        )
        .unwrap();
        let heap_path = AccessPath::UpiHeap { use_cutoff: false };
        let err = open_fast_cursor(
            &frac,
            &heap_path,
            &[],
            frac.table().store().pool.as_ref(),
            3,
            0.0,
            5,
        )
        .err()
        .expect("UpiHeap on a fractured shard must be rejected");
        match err {
            QueryError::Exec(upi::ExecError::LayoutMismatch { path, layout }) => {
                assert!(path.starts_with("UpiHeap"), "{path}");
                assert_eq!(layout, "fractured UPI");
            }
            other => panic!("expected LayoutMismatch, got {other:?}"),
        }
        let err = open_fast_cursor(
            &plain,
            &AccessPath::FracturedProbe,
            &[],
            plain.table().store().pool.as_ref(),
            3,
            0.0,
            5,
        )
        .err()
        .expect("FracturedProbe on a plain UPI shard must be rejected");
        assert!(matches!(
            err,
            QueryError::Exec(upi::ExecError::LayoutMismatch { .. })
        ));
    }

    /// Pruning skips shards whose bound cannot reach qt, opens zero
    /// pages on them, and the answer stays identical to pruning off.
    #[test]
    fn pruning_skips_cold_shards_and_preserves_the_answer() {
        let routing = ShardLayout::RangeTid(vec![100]);
        let mut sharded = ShardedDb::create(
            stores(2),
            "pr",
            schema(),
            1,
            TableLayout::Upi(UpiConfig::default()),
            routing,
        )
        .unwrap();
        // Shard 0 (ids < 100): strong rows for value 3. Shard 1: only
        // sub-threshold rows for value 3 (conf ≈ 0.9*0.2), plus strong
        // rows for value 4 so the shard is not empty.
        for i in 0..60u64 {
            sharded
                .insert_tuple(&Tuple::new(TupleId(i), 0.9, row(3, 0.8, i % 3)))
                .unwrap();
        }
        for i in 100..160u64 {
            let v = if i % 2 == 0 { 4 } else { 3 };
            let p = if v == 3 { 0.2 } else { 0.8 };
            sharded
                .insert_tuple(&Tuple::new(TupleId(i), 0.9, row(v, p, i % 3)))
                .unwrap();
        }
        let q = PtqQuery::eq(1, 3).with_qt(0.5).with_top_k(5);

        sharded.set_pruning(false);
        let unpruned = sharded.query(&q).unwrap();
        sharded.set_pruning(true);
        let before_skips = sharded.shards_skipped();
        let reads_before = sharded.shards()[1].table().store().disk.stats();
        let pruned = sharded.query(&q).unwrap();
        assert_eq!(fingerprint(&pruned.rows), fingerprint(&unpruned.rows));
        assert!(
            sharded.shards_skipped() > before_skips,
            "the cold shard must be skipped"
        );
        assert_eq!(sharded.shards()[1].metrics().shards_skipped, 1);
        let delta = sharded.shards()[1]
            .table()
            .store()
            .disk
            .stats()
            .since(&reads_before);
        assert_eq!(delta.page_reads, 0, "a skipped shard opens zero pages");
        // The skip is visible in the trace.
        let trace = pruned.trace.unwrap();
        assert!(
            trace.spans.iter().any(|s| s.label.contains("skipped")),
            "{:?}",
            trace.spans.iter().map(|s| &s.label).collect::<Vec<_>>()
        );
        // The whole-query scatter prunes the same way.
        let whole = sharded.query(&PtqQuery::eq(1, 3).with_qt(0.5)).unwrap();
        sharded.set_pruning(false);
        let whole_off = sharded.query(&PtqQuery::eq(1, 3).with_qt(0.5)).unwrap();
        assert_eq!(fingerprint(&whole.rows), fingerprint(&whole_off.rows));
    }
}
