//! The streaming executor.
//!
//! Rows flow as `Iterator<Item = Result<PtqResult, QueryError>>` from a
//! source operator into the sink pipeline (`Filter` is fused into every
//! source; `TopK`, `GroupCount`, `Project` run at the sink). Every
//! discrete access path is a true streaming cursor over the B+Tree leaf
//! chains, and the point paths run the core crate's two point-PTQ
//! cursors and nothing else: `CutoffMerge` (Algorithm 2:
//! `upi::CutoffMerge`) for unbounded probes, `UpiPointMerge`
//! (`upi::PointRun`, confidence-ordered) for top-k, and `FracturedMerge`
//! chaining one of them per component. `UpiRange` streams clustered
//! range runs, `SecondaryProbe` (tailored) secondary access, plus
//! `PiiProbe` and the two full scans. Sources whose output is
//! **confidence-ordered** (the top-k point cursors) let a top-k sink stop
//! pulling — and therefore stop *reading* — after k rows. Only the
//! R-Tree circle paths remain batch, delegating to the owning index
//! structure and feeding rows through the same sinks.
//!
//! Every execution is observed: the concrete [`SourceOp`] wrapper keeps
//! per-operator [`CursorStats`], device time is attributed to a
//! [`QueryId`] via the pool's scoped attribution
//! guard, and the harvested span tree lands on
//! [`QueryOutput::trace`].

use upi::exec::group_count;
use upi::{CursorStats, DiscreteUpi, FracturedUpi, HeapScanRun, Pii, PtqResult, UnclusteredHeap};
use upi_storage::codec::grid_prob;
use upi_storage::error::Result as StorageResult;
use upi_storage::{IoStats, PoolCounters, QueryId};
use upi_uncertain::tuple::peek_folded_mass;
use upi_uncertain::Tuple;

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::obs::{QueryTrace, TraceSpan};
use crate::plan::{AccessPath, PhysicalPlan};
use crate::query::{Predicate, PtqQuery};

/// The answer of an executed plan.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Qualifying rows, descending confidence then ascending tuple id.
    /// Empty when the query aggregates (`group_count`).
    pub rows: Vec<PtqResult>,
    /// `(group value, count)` pairs, ascending, when the query groups.
    pub groups: Option<Vec<(u64, u64)>>,
    /// Buffer-pool counters attributed to this execution, when the
    /// catalog registered a pool (`Catalog::with_pool`). Feed back into
    /// [`PhysicalPlan::explain_with_io`] to render the plan with its
    /// measured page traffic (the demand-miss / read-ahead split is on
    /// the counters: `demand_pages()` / `sequential_pages()`).
    pub io: Option<PoolCounters>,
    /// Simulated device time attributed to this execution (seek +
    /// transfer + open milliseconds), when the catalog registered a pool.
    /// Measured on the **per-query attribution slot** — concurrent
    /// queries on one pool each observe only their own I/O. This is the
    /// observed side of cost-model calibration: the same quantity the
    /// benchmarks call "measured runtime", per query.
    pub device: Option<IoStats>,
    /// Wall-clock-shaped latency of this query in simulated device
    /// milliseconds. On a single store this equals `device.total_ms()`;
    /// on a sharded scatter it is the **max** over the per-shard
    /// attributed windows — shards run on independent devices in
    /// parallel, so the slowest shard bounds the query while `device`
    /// keeps the per-device **sum** for calibration and attribution.
    pub latency_ms: Option<f64>,
    /// The executed span tree: per-operator rows / decodes / suppressed /
    /// pointer fetches, plus attributed pages and device ms on the source
    /// root. Always populated by `execute` (instrumentation is always
    /// on); `None` only on hand-built outputs.
    pub trace: Option<QueryTrace>,
    /// `Some(reason)` when the store was in read-only degraded mode at
    /// the end of this execution (a persistent device fault defeated
    /// write-back retry, or the WAL could not advance). Set by the
    /// session layer, which knows the pool.
    pub degraded: Option<String>,
}

impl QueryOutput {
    /// Measured simulated milliseconds of this execution, if the catalog
    /// registered a pool.
    pub fn observed_ms(&self) -> Option<f64> {
        self.device.as_ref().map(|d| d.total_ms())
    }
    /// Row count (or number of groups for aggregates).
    pub fn len(&self) -> usize {
        match &self.groups {
            Some(g) => g.len(),
            None => self.rows.len(),
        }
    }

    /// True when nothing qualified.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Warning line when write-back trouble touched this query —
    /// surfaced here (and in `explain_analyze`) so durability incidents
    /// are visible at the query level, not only in store-wide counters.
    /// Distinguishes the three severities: degraded read-only mode
    /// (persistent fault), genuine flush failures (possible data loss),
    /// and transient faults fully absorbed by retry (no loss).
    pub fn flush_warning(&self) -> Option<String> {
        if let Some(reason) = &self.degraded {
            return Some(format!(
                "WARNING: store degraded to read-only — {reason}; writes are rejected \
                 until recovery"
            ));
        }
        match &self.io {
            Some(io) if io.flush_errors > 0 => Some(format!(
                "WARNING: {} eviction write-back failure(s) during this query; \
                 evicted dirty pages may not be durable",
                io.flush_errors
            )),
            Some(io) if io.flush_retries > 0 => Some(format!(
                "WARNING: {} transient write-back fault(s) during this query, \
                 all absorbed by retry; no durability was lost",
                io.flush_retries
            )),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming source operators
// ---------------------------------------------------------------------------

/// `PiiProbe` — streams the inverted list, then fetches qualifying tuples
/// from the unclustered heap in tid (bitmap) order, lazily.
pub struct PiiProbe<'a> {
    heap: &'a UnclusteredHeap,
    pending: std::vec::IntoIter<(u64, f64)>,
    /// Inverted-list matches read at open (the list is compact and eager).
    list_rows: u64,
    stats: CursorStats,
}

impl<'a> PiiProbe<'a> {
    /// Open over `pii` + `heap` for a point PTQ `(value, qt)`.
    pub fn open(
        pii: &'a Pii,
        heap: &'a UnclusteredHeap,
        value: u64,
        qt: f64,
    ) -> StorageResult<PiiProbe<'a>> {
        let mut matches: Vec<(u64, f64)> = Vec::new();
        for m in pii.matching_run(value, qt)? {
            matches.push(m?);
        }
        matches.sort_unstable_by_key(|&(tid, _)| tid);
        Ok(PiiProbe {
            heap,
            list_rows: matches.len() as u64,
            pending: matches.into_iter(),
            stats: CursorStats::default(),
        })
    }
}

impl Iterator for PiiProbe<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (tid, confidence) = self.pending.next()?;
            self.stats.pointer_fetches += 1;
            match self.heap.get(upi_uncertain::TupleId(tid)) {
                Ok(Some(tuple)) => {
                    self.stats.rows += 1;
                    return Some(Ok(PtqResult { tuple, confidence }));
                }
                Ok(None) => {
                    // Tuple deleted under the index.
                    self.stats.suppressed += 1;
                    continue;
                }
                Err(e) => return Some(Err(e.into())),
            }
        }
    }
}

/// The value window `(attr, lo, hi)` whose folded mass is a discrete
/// predicate's confidence (`None` for circles).
fn mass_window(pred: &Predicate) -> Option<(usize, u64, u64)> {
    match *pred {
        Predicate::Eq { attr, value } => Some((attr, value, value)),
        Predicate::Range { attr, lo, hi } => Some((attr, lo, hi)),
        Predicate::Circle { .. } => None, // circle scans are not enumerated
    }
}

/// Confidence of `tuple` for a discrete predicate, on the quantized grid
/// the index keys use (so scans agree bit-for-bit with index paths).
fn scan_confidence(tuple: &Tuple, pred: &Predicate) -> f64 {
    mass_window(pred).map_or(0.0, |(attr, lo, hi)| {
        tuple.folded_mass(attr, lo, hi, grid_prob)
    })
}

/// The scans' pre-decode filter: [`scan_confidence`] peeked off the
/// encoded tuple. A row whose predicate field cannot be peeked is kept,
/// so it is decoded and judged by the post-decode check instead.
fn peek_qualifies(bytes: &[u8], pred: &Predicate, qt: f64) -> bool {
    mass_window(pred)
        .and_then(|(attr, lo, hi)| peek_folded_mass(bytes, attr, lo, hi, grid_prob))
        .is_none_or(|c| c > 0.0 && c >= qt)
}

/// `HeapScan` — full sequential scan with a fused confidence `Filter`,
/// evaluated on each tuple's bytes before it is decoded.
pub struct HeapScan<'a> {
    inner: HeapScanRun<'a>,
    pred: Predicate,
    qt: f64,
    emitted: u64,
}

impl<'a> HeapScan<'a> {
    /// Open over the unclustered heap.
    pub fn open(
        heap: &'a UnclusteredHeap,
        pred: Predicate,
        qt: f64,
    ) -> StorageResult<HeapScan<'a>> {
        Ok(HeapScan {
            inner: heap.scan_run()?,
            pred,
            qt,
            emitted: 0,
        })
    }

    fn stats(&self) -> CursorStats {
        filtered_scan_stats(self.inner.stats(), self.emitted)
    }
}

impl Iterator for HeapScan<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let keep = |bytes: &[u8]| peek_qualifies(bytes, &self.pred, self.qt);
            let tuple = match self.inner.next_where(&keep)? {
                Ok(t) => t,
                Err(e) => return Some(Err(e.into())),
            };
            let confidence = scan_confidence(&tuple, &self.pred);
            if confidence > 0.0 && confidence >= self.qt {
                self.emitted += 1;
                return Some(Ok(PtqResult { tuple, confidence }));
            }
        }
    }
}

/// `UpiFullScan` — sequential scan of the clustered heap's distinct
/// tuples with a fused confidence `Filter`, evaluated on each tuple's
/// bytes before it is decoded.
pub struct UpiFullScan<'a> {
    inner: upi::DistinctScan<'a>,
    pred: Predicate,
    qt: f64,
    emitted: u64,
}

impl<'a> UpiFullScan<'a> {
    /// Open over the UPI's clustered heap.
    pub fn open(upi: &'a DiscreteUpi, pred: Predicate, qt: f64) -> StorageResult<UpiFullScan<'a>> {
        Ok(UpiFullScan {
            inner: upi.distinct_scan()?,
            pred,
            qt,
            emitted: 0,
        })
    }

    fn stats(&self) -> CursorStats {
        filtered_scan_stats(self.inner.stats(), self.emitted)
    }
}

impl Iterator for UpiFullScan<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let keep = |bytes: &[u8]| peek_qualifies(bytes, &self.pred, self.qt);
            let tuple = match self.inner.next_where(&keep)? {
                Ok(t) => t,
                Err(e) => return Some(Err(e.into())),
            };
            let confidence = scan_confidence(&tuple, &self.pred);
            if confidence > 0.0 && confidence >= self.qt {
                self.emitted += 1;
                return Some(Ok(PtqResult { tuple, confidence }));
            }
        }
    }
}

/// A filtered full scan's counters: every scanned tuple is either
/// emitted or suppressed — by the pre-decode peek (`inner.suppressed`) or
/// by the post-decode check (`inner.rows - emitted`).
fn filtered_scan_stats(inner: CursorStats, emitted: u64) -> CursorStats {
    CursorStats {
        rows: emitted,
        decodes: inner.decodes,
        suppressed: inner.suppressed + (inner.rows - emitted),
        pointer_fetches: 0,
    }
}

/// Which fractured merge is running (streams are per-component).
enum FracturedKind<'a> {
    /// Point merge: Algorithm 2 chained per component, or (top-k) the
    /// confidence-ordered k-way merge.
    Point(upi::FracturedPointRun<'a>),
    /// Chained per-component range runs.
    Range(upi::FracturedRangeRun<'a>),
    /// Chained per-component secondary probes.
    Secondary(upi::FracturedSecondaryRun<'a>),
}

/// `FracturedMerge` — the fracture-parallel merge cursor: one streaming
/// run per on-disk component plus the insert buffer, with delete-set
/// suppression applied *before* pointer dereferences. Top-k point probes
/// merge confidence-ordered (k-way, early-terminating, watermark-bounded:
/// each component's cutoff scan stops once its next candidate falls
/// below the running k-th confidence); unbounded point, range and
/// secondary probes chain per-component runs and let the sink sort.
pub struct FracturedMerge<'a> {
    kind: FracturedKind<'a>,
    /// Rows this merge handed to its consumer (component streams count
    /// their own pulls separately — under early termination the merge may
    /// have pulled rows it never emitted).
    emitted: u64,
}

impl<'a> FracturedMerge<'a> {
    /// Open a point merge for `(value, qt)`: Algorithm 2 per component
    /// when `limit` is `None`; with `Some(k)` the confidence-ordered
    /// merge whose component cutoff scans stop at the merge-wide
    /// k-th-confidence watermark (only the first k rows of the stream
    /// are then guaranteed — exactly what the top-k sink consumes).
    pub fn point(
        f: &'a FracturedUpi,
        value: u64,
        qt: f64,
        limit: Option<usize>,
    ) -> StorageResult<FracturedMerge<'a>> {
        Ok(FracturedMerge {
            kind: FracturedKind::Point(f.ptq_run(value, qt, limit)?),
            emitted: 0,
        })
    }

    /// Open a range merge for `[lo, hi]` at `qt`.
    pub fn range(
        f: &'a FracturedUpi,
        lo: u64,
        hi: u64,
        qt: f64,
    ) -> StorageResult<FracturedMerge<'a>> {
        Ok(FracturedMerge {
            kind: FracturedKind::Range(f.range_run(lo, hi, qt)?),
            emitted: 0,
        })
    }

    /// Open a secondary merge on probe #`index` for `(value, qt)`.
    pub fn secondary(
        f: &'a FracturedUpi,
        index: usize,
        value: u64,
        qt: f64,
        tailored: bool,
        limit: Option<usize>,
    ) -> StorageResult<FracturedMerge<'a>> {
        Ok(FracturedMerge {
            kind: FracturedKind::Secondary(f.secondary_run(index, value, qt, tailored, limit)?),
            emitted: 0,
        })
    }

    /// Per-component cursor counters (index 0 is the main component,
    /// the rest are fractures; buffered in-RAM rows do no I/O and carry
    /// no counters).
    pub fn component_stats(&self) -> Vec<CursorStats> {
        match &self.kind {
            FracturedKind::Point(run) => run.component_stats(),
            FracturedKind::Range(run) => run.component_stats(),
            FracturedKind::Secondary(run) => run.component_stats(),
        }
    }

    /// Whether rows stream in canonical result order (only the top-k
    /// point merge does).
    fn is_ordered(&self) -> bool {
        matches!(&self.kind, FracturedKind::Point(run) if run.is_ordered())
    }
}

impl Iterator for FracturedMerge<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        let item = match &mut self.kind {
            FracturedKind::Point(run) => run.next()?,
            FracturedKind::Range(run) => run.next()?,
            FracturedKind::Secondary(run) => run.next()?,
        };
        if item.is_ok() {
            self.emitted += 1;
        }
        Some(item.map_err(QueryError::from))
    }
}

// ---------------------------------------------------------------------------
// Source operator wrapper (concrete, so stats survive iteration)
// ---------------------------------------------------------------------------

/// Batch delegate: paths answered by the owning index structure in one
/// call, streamed through the sinks afterwards.
pub struct BatchRows {
    label: &'static str,
    pending: std::vec::IntoIter<PtqResult>,
    emitted: u64,
}

impl Iterator for BatchRows {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        let r = self.pending.next()?;
        self.emitted += 1;
        Some(Ok(r))
    }
}

/// The concrete source operator of an executing plan. A plain enum (not
/// a boxed trait object) so the executor can harvest every operator's
/// [`CursorStats`] **after** the row loop finishes — the trace needs the
/// cursors alive once iteration is done.
pub enum SourceOp<'a> {
    /// Heap run + cutoff-pointer dereference in heap order (Algorithm 2).
    CutoffMerge(upi::CutoffMerge<'a>),
    /// Confidence-ordered point merge of the heap run with the lazily
    /// consulted cutoff list; the top-k sink terminates it after k rows.
    UpiPointMerge(upi::PointRun<'a>),
    /// Streaming clustered range run: one seek, one sequential pass
    /// emitting each tuple at its first in-range copy, then the cutoff
    /// index for tuples whose in-range mass is entirely below-cutoff.
    UpiRange(upi::RangeRun<'a>),
    /// (Tailored) secondary probe: the compact entry run fixes the
    /// pointer choices (at most `limit` entries for a top-k query), then
    /// heap tuples are fetched lazily in heap (bitmap) order.
    SecondaryProbe(upi::SecondaryRun<'a>),
    /// Fracture-parallel merge.
    Fractured(FracturedMerge<'a>),
    /// Inverted-list probe + bitmap heap fetch.
    PiiProbe(PiiProbe<'a>),
    /// Sequential unclustered scan + fused filter.
    HeapScan(HeapScan<'a>),
    /// Sequential UPI distinct scan + fused filter.
    UpiFullScan(UpiFullScan<'a>),
    /// Batch delegate (circle paths, PII range).
    Batch(BatchRows),
}

impl Iterator for SourceOp<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        let core = |r: Option<StorageResult<PtqResult>>| r.map(|r| r.map_err(QueryError::from));
        match self {
            SourceOp::CutoffMerge(op) => core(op.next()),
            SourceOp::UpiPointMerge(op) => core(op.next()),
            SourceOp::UpiRange(op) => core(op.next()),
            SourceOp::SecondaryProbe(op) => core(op.next()),
            SourceOp::Fractured(op) => op.next(),
            SourceOp::PiiProbe(op) => op.next(),
            SourceOp::HeapScan(op) => op.next(),
            SourceOp::UpiFullScan(op) => op.next(),
            SourceOp::Batch(op) => op.next(),
        }
    }
}

impl SourceOp<'_> {
    /// Harvest the operator spans of this source: `(label, relative
    /// depth, counters)`, pre-order, depth 0 = the source root.
    pub fn spans(&self) -> Vec<(String, usize, CursorStats)> {
        match self {
            SourceOp::CutoffMerge(op) => {
                let run = op.run_stats();
                let ptr = op.pointer_stats();
                vec![
                    ("CutoffMerge".into(), 0, run.merged(ptr)),
                    ("IndexRun(upi.heap)".into(), 1, run),
                    ("PointerFetch(upi.cutoff, heap-order)".into(), 1, ptr),
                ]
            }
            SourceOp::UpiPointMerge(op) => {
                vec![(
                    "UpiPointMerge(confidence-ordered, early-terminating)".into(),
                    0,
                    op.stats(),
                )]
            }
            SourceOp::UpiRange(op) => {
                vec![(
                    "UpiRange(streaming, emit at first in-range copy)".into(),
                    0,
                    op.stats(),
                )]
            }
            SourceOp::SecondaryProbe(op) => {
                vec![(
                    "SecondaryProbe(lazy heap-order fetch)".into(),
                    0,
                    op.stats(),
                )]
            }
            SourceOp::Fractured(op) => {
                let comps = op.component_stats();
                let mut parent = comps
                    .iter()
                    .fold(CursorStats::default(), |acc, &s| acc.merged(s));
                // The merge's own emit count, not the sum of component
                // pulls (early termination pulls more than it emits).
                parent.rows = op.emitted;
                let label = match &op.kind {
                    FracturedKind::Point(run) if run.is_ordered() => {
                        "FracturedMerge(point, k-way confidence-ordered)"
                    }
                    FracturedKind::Point(_) => "FracturedMerge(point, Algorithm 2 per component)",
                    FracturedKind::Range(_) => "FracturedMerge(range, streaming per component)",
                    FracturedKind::Secondary(_) => {
                        "FracturedMerge(secondary, suppress-before-fetch)"
                    }
                };
                let mut spans = vec![(label.to_string(), 0, parent)];
                for (i, s) in comps.into_iter().enumerate() {
                    let name = if i == 0 {
                        "Component#0(main)".to_string()
                    } else {
                        format!("Component#{i}(fracture)")
                    };
                    spans.push((name, 1, s));
                }
                spans
            }
            SourceOp::PiiProbe(op) => {
                vec![
                    (
                        "BitmapHeapFetch(unclustered heap, tid-order)".into(),
                        0,
                        op.stats,
                    ),
                    (
                        "PiiProbe(inverted list)".into(),
                        1,
                        CursorStats {
                            rows: op.list_rows,
                            ..CursorStats::default()
                        },
                    ),
                ]
            }
            SourceOp::HeapScan(op) => {
                vec![(
                    "HeapScan(unclustered heap, sequential)".into(),
                    0,
                    op.stats(),
                )]
            }
            SourceOp::UpiFullScan(op) => {
                vec![(
                    "HeapScan(upi.heap distinct, sequential)".into(),
                    0,
                    op.stats(),
                )]
            }
            SourceOp::Batch(op) => {
                vec![(
                    format!("Batch({})", op.label),
                    0,
                    CursorStats {
                        rows: op.emitted,
                        ..CursorStats::default()
                    },
                )]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

fn collect_stream(
    stream: impl Iterator<Item = Result<PtqResult, QueryError>>,
) -> Result<Vec<PtqResult>, QueryError> {
    let mut rows = Vec::new();
    for r in stream {
        rows.push(r?);
    }
    Ok(rows)
}

fn project_rows(rows: &mut [PtqResult], fields: &[usize]) -> Result<(), QueryError> {
    for r in rows.iter_mut() {
        let mut projected = Vec::with_capacity(fields.len());
        for &f in fields {
            match r.tuple.fields.get(f) {
                Some(field) => projected.push(field.clone()),
                None => {
                    return Err(upi::ExecError::FieldOutOfBounds {
                        field: f,
                        arity: r.tuple.fields.len(),
                    }
                    .into())
                }
            }
        }
        r.tuple = Tuple::new(r.tuple.id, r.tuple.exist, projected);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

fn eq_params(q: &PtqQuery) -> Result<(usize, u64), QueryError> {
    match q.predicate {
        Predicate::Eq { attr, value } => Ok((attr, value)),
        _ => Err(QueryError::CatalogMismatch {
            missing: "equality predicate for a point access path".into(),
        }),
    }
}

fn need<T: Copy>(entry: Option<T>, what: &str) -> Result<T, QueryError> {
    entry.ok_or_else(|| QueryError::CatalogMismatch {
        missing: what.to_string(),
    })
}

fn range_params(q: &PtqQuery, what: &str) -> Result<(u64, u64), QueryError> {
    match q.predicate {
        Predicate::Range { lo, hi, .. } => Ok((lo, hi)),
        _ => Err(QueryError::CatalogMismatch {
            missing: format!("range predicate for {what}"),
        }),
    }
}

/// Open the chosen path as a streaming source; the `bool` says whether
/// the stream is already `{confidence DESC, tid ASC}`-ordered (ordered
/// streams let the top-k sink terminate the source early and skip the
/// sort).
fn open_source<'a>(
    path: &AccessPath,
    q: &PtqQuery,
    catalog: &Catalog<'a>,
) -> Result<(SourceOp<'a>, bool), QueryError> {
    let batch = |rows: Vec<PtqResult>, label: &'static str| {
        (
            SourceOp::Batch(BatchRows {
                label,
                pending: rows.into_iter(),
                emitted: 0,
            }),
            false,
        )
    };
    Ok(match path {
        AccessPath::UpiHeap { .. } => {
            let upi = need(catalog.upi, "the discrete UPI")?;
            let (_, value) = eq_params(q)?;
            if let Some(k) = q.top_k {
                // Early-terminating top-k (§3.1): the merge streams in
                // confidence order, so the sink stops the run (and the
                // cutoff fetches) after k rows.
                (
                    SourceOp::UpiPointMerge(upi.point_run(value, q.qt, Some(k))?),
                    true,
                )
            } else {
                // The cursor consults the cutoff index iff `qt < C`,
                // the same test that set the plan's `use_cutoff`.
                (SourceOp::CutoffMerge(upi.cutoff_merge(value, q.qt)?), false)
            }
        }
        AccessPath::UpiRange => {
            let upi = need(catalog.upi, "the discrete UPI")?;
            let (lo, hi) = range_params(q, "UpiRange")?;
            (SourceOp::UpiRange(upi.range_run(lo, hi, q.qt)?), false)
        }
        AccessPath::UpiSecondary { index, tailored } => {
            let upi = need(catalog.upi, "the discrete UPI")?;
            if *index >= upi.secondaries().len() {
                return Err(QueryError::CatalogMismatch {
                    missing: format!("upi secondary #{index}"),
                });
            }
            let (_, value) = eq_params(q)?;
            (
                SourceOp::SecondaryProbe(
                    upi.secondary_run(*index, value, q.qt, *tailored, q.top_k)?,
                ),
                false,
            )
        }
        AccessPath::FracturedProbe => {
            let f = need(catalog.fractured, "the fractured UPI")?;
            let (_, value) = eq_params(q)?;
            let merge = FracturedMerge::point(f, value, q.qt, q.top_k)?;
            let ordered = merge.is_ordered();
            (SourceOp::Fractured(merge), ordered)
        }
        AccessPath::FracturedRange => {
            let f = need(catalog.fractured, "the fractured UPI")?;
            let (lo, hi) = range_params(q, "FracturedRange")?;
            (
                SourceOp::Fractured(FracturedMerge::range(f, lo, hi, q.qt)?),
                false,
            )
        }
        AccessPath::FracturedSecondary { index, tailored } => {
            let f = need(catalog.fractured, "the fractured UPI")?;
            if *index >= f.main().secondaries().len() {
                return Err(QueryError::CatalogMismatch {
                    missing: format!("fractured secondary #{index}"),
                });
            }
            let (_, value) = eq_params(q)?;
            (
                SourceOp::Fractured(FracturedMerge::secondary(
                    f, *index, value, q.qt, *tailored, q.top_k,
                )?),
                false,
            )
        }
        AccessPath::PiiProbe { index } => {
            let heap = need(catalog.heap, "the unclustered heap")?;
            let pii = *catalog
                .piis
                .get(*index)
                .ok_or(QueryError::CatalogMismatch {
                    missing: format!("pii #{index}"),
                })?;
            let (_, value) = eq_params(q)?;
            (
                SourceOp::PiiProbe(PiiProbe::open(pii, heap, value, q.qt)?),
                false,
            )
        }
        AccessPath::PiiRange { index } => {
            let heap = need(catalog.heap, "the unclustered heap")?;
            let pii = *catalog
                .piis
                .get(*index)
                .ok_or(QueryError::CatalogMismatch {
                    missing: format!("pii #{index}"),
                })?;
            let (lo, hi) = range_params(q, "PiiRange")?;
            batch(pii.ptq_range(heap, lo, hi, q.qt)?, "PiiRange")
        }
        AccessPath::HeapScan => {
            let heap = need(catalog.heap, "the unclustered heap")?;
            (
                SourceOp::HeapScan(HeapScan::open(heap, q.predicate.clone(), q.qt)?),
                false,
            )
        }
        AccessPath::UpiFullScan => {
            let upi = need(catalog.upi, "the discrete UPI")?;
            (
                SourceOp::UpiFullScan(UpiFullScan::open(upi, q.predicate.clone(), q.qt)?),
                false,
            )
        }
        AccessPath::ContinuousCircle => {
            let cupi = need(catalog.cupi, "the continuous UPI")?;
            match q.predicate {
                Predicate::Circle { x, y, radius, .. } => batch(
                    cupi.query_circle(x, y, radius, q.qt)?,
                    "ContinuousCircle delegate",
                ),
                _ => {
                    return Err(QueryError::CatalogMismatch {
                        missing: "circle predicate for ContinuousCircle".into(),
                    })
                }
            }
        }
        AccessPath::UTreeCircle => {
            let utree = need(catalog.utree, "the secondary U-Tree")?;
            let heap = need(catalog.heap, "the unclustered heap")?;
            match q.predicate {
                Predicate::Circle { x, y, radius, .. } => batch(
                    utree.query_circle(heap, x, y, radius, q.qt)?,
                    "UTreeCircle delegate",
                ),
                _ => {
                    return Err(QueryError::CatalogMismatch {
                        missing: "circle predicate for UTreeCircle".into(),
                    })
                }
            }
        }
        AccessPath::ContinuousSecondaryProbe { index } => {
            let cupi = need(catalog.cupi, "the continuous UPI")?;
            let cs = *catalog
                .cont_secondaries
                .get(*index)
                .ok_or(QueryError::CatalogMismatch {
                    missing: format!("continuous secondary #{index}"),
                })?;
            let (_, value) = eq_params(q)?;
            batch(
                cs.ptq(cupi, value, q.qt)?,
                "ContinuousSecondaryProbe delegate",
            )
        }
    })
}

/// Build the executed span tree: sink operators (outermost first), then
/// the harvested source spans; attributed I/O and the planner's estimates
/// attach to the source root span.
#[allow(clippy::too_many_arguments)]
fn build_trace(
    plan: &PhysicalPlan,
    source: &SourceOp<'_>,
    out_rows: u64,
    io: Option<&PoolCounters>,
    device: Option<&IoStats>,
    start_ms: f64,
    query_id: QueryId,
) -> QueryTrace {
    let q = &plan.query;
    let chosen = &plan.candidates[0];
    let mut spans: Vec<TraceSpan> = Vec::with_capacity(8);
    let mut depth = 0usize;
    let mut push_sink = |spans: &mut Vec<TraceSpan>, label: String| {
        let mut s = TraceSpan::label_only(label, depth);
        if depth == 0 {
            // The outermost sink is what the query returns.
            s.stats = Some(CursorStats {
                rows: out_rows,
                ..CursorStats::default()
            });
        }
        spans.push(s);
        depth += 1;
    };
    if let Some(f) = q.group_count {
        push_sink(&mut spans, format!("GroupCount(field#{f})"));
    }
    if let Some(p) = &q.projection {
        push_sink(&mut spans, format!("Project({p:?})"));
    }
    if let Some(k) = q.top_k {
        push_sink(&mut spans, format!("TopK({k})"));
    }
    push_sink(&mut spans, format!("Filter(confidence >= {:.2})", q.qt));
    let root_depth = depth;
    let device_ms = device.map(|d| d.total_ms());
    for (i, (label, rel, stats)) in source.spans().into_iter().enumerate() {
        let mut span = TraceSpan {
            label,
            depth: root_depth + rel,
            stats: Some(stats),
            ..TraceSpan::default()
        };
        if i == 0 {
            span.est_rows = chosen.est_rows;
            span.est_pages = chosen.est_pages;
            span.est_ms = Some(chosen.cost.device_ms());
            if let Some(io) = io {
                span.demand_pages = Some(io.demand_pages());
                span.prefetch_pages = Some(io.sequential_pages());
            }
            span.device_ms = device_ms;
            span.start_ms = start_ms;
            span.end_ms = start_ms + device_ms.unwrap_or(0.0);
        }
        spans.push(span);
    }
    QueryTrace {
        query_id: query_id.0,
        path: chosen.path.label(),
        spans,
    }
}

/// Run a plan: source → (early-terminating) top-k → sort → group/project.
pub(crate) fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog<'_>,
) -> Result<QueryOutput, QueryError> {
    let q = &plan.query;
    let chosen = &plan.candidates[0];
    // Per-query attribution: every device charge issued while the guard
    // is alive lands on this query's slot, so concurrent queries on one
    // pool each observe only their own I/O. The session threads its own
    // id through the catalog (covering plan-time I/O too); stand-alone
    // executions allocate one here and consume the slot on exit.
    let qid = catalog.query_id.unwrap_or_else(QueryId::next);
    let own_qid = catalog.query_id.is_none();
    let _guard = catalog.pool.map(|p| {
        let g = p.attributed(qid);
        if chosen.hints.is_empty() {
            // Pointer-chasing plan: its scattered misses are not runs.
            // Keep the pool's two-adjacent-miss detector from arming
            // read-ahead windows this access pattern would waste
            // (hinted runs of concurrent queries still stream).
            g.suppress_run_detection()
        } else {
            g
        }
    });
    let pool_before = catalog.pool.map(|p| p.counters());
    let attr_before = catalog
        .pool
        .map(|p| p.attributed_stats(qid))
        .unwrap_or_default();
    // Planner-aware prefetch: run-shaped paths carry each expected run's
    // start page and estimated length — one hint for single-structure
    // paths, one *per component* for fracture-parallel merges — so the
    // pool arms read-ahead on each run's first miss with a
    // run-length-sized window instead of waiting for two adjacent misses
    // (pointer-chasing paths carry no hint and fall back to the pool's
    // own detection). Hints must be armed before the source opens — the
    // opens perform the seeks whose leaf reads consume them — so a
    // failed open clears exactly the hints this plan armed (by start
    // page), lest a stale hint mis-fire on a later unrelated access;
    // hints of concurrent queries are left alone.
    let armed = &chosen.hints;
    let hinted_pool = match catalog.pool {
        Some(pool) if !armed.is_empty() => {
            for &hint in armed {
                pool.hint_run(hint);
            }
            Some(pool)
        }
        _ => None,
    };
    let (mut source, ordered) = match open_source(plan.path(), q, catalog) {
        Ok(source) => source,
        Err(e) => {
            if let Some(pool) = hinted_pool {
                for hint in armed {
                    pool.clear_hint(hint.start_page);
                }
            }
            if own_qid {
                if let Some(pool) = catalog.pool {
                    pool.take_attributed(qid);
                }
            }
            return Err(e);
        }
    };
    let mut rows = match (q.top_k, ordered) {
        (Some(k), true) => {
            // The source streams in result order: take k rows and drop
            // the source, leaving the tail of the run unread.
            let mut out = Vec::with_capacity(k);
            for r in &mut source {
                out.push(r?);
                if out.len() == k {
                    break;
                }
            }
            out
        }
        _ => collect_stream(&mut source)?,
    };
    if !ordered {
        // The canonical ordering shared with every core cursor.
        upi::sort_results(&mut rows);
    }
    if let Some(k) = q.top_k {
        rows.truncate(k);
    }
    let io = catalog
        .pool
        .map(|p| p.counters().since(&pool_before.unwrap()));
    let device = catalog.pool.map(|p| {
        let now = if own_qid {
            // Stand-alone execution: consume the slot so the disk's
            // bounded attribution table is not littered.
            p.take_attributed(qid)
        } else {
            p.attributed_stats(qid)
        };
        now.since(&attr_before)
    });
    if let Some(field) = q.group_count {
        // Aggregate output: rows feed the counting sink and are dropped.
        let groups = group_count(&rows, field)?;
        let trace = build_trace(
            plan,
            &source,
            groups.len() as u64,
            io.as_ref(),
            device.as_ref(),
            attr_before.total_ms(),
            qid,
        );
        return Ok(QueryOutput {
            rows: Vec::new(),
            groups: Some(groups),
            io,
            device,
            latency_ms: None,
            trace: Some(trace),
            degraded: None,
        });
    }
    if let Some(fields) = &q.projection {
        project_rows(&mut rows, fields)?;
    }
    let trace = build_trace(
        plan,
        &source,
        rows.len() as u64,
        io.as_ref(),
        device.as_ref(),
        attr_before.total_ms(),
        qid,
    );
    Ok(QueryOutput {
        rows,
        groups: None,
        io,
        device,
        latency_ms: None,
        trace: Some(trace),
        degraded: None,
    })
}
