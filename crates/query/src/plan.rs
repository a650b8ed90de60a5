//! Physical plans: access paths, cost-ranked candidates, `explain()`.

use crate::catalog::Catalog;
use crate::cost::{PathCost, PathKind};
use crate::error::QueryError;
use crate::exec::QueryOutput;
use crate::query::{Predicate, PtqQuery};

/// One physical access path for a PTQ. Variants carry whatever identifies
/// the concrete structure inside the [`Catalog`].
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Clustered UPI heap run; merges the cutoff index when
    /// `use_cutoff` (i.e. `QT < C`).
    UpiHeap {
        /// Whether the cutoff-index merge half of Algorithm 2 runs.
        use_cutoff: bool,
    },
    /// UPI clustered range scan (+ cutoff range merge).
    UpiRange,
    /// Secondary-index access on the UPI (Algorithm 3 when `tailored`).
    UpiSecondary {
        /// Position in `DiscreteUpi::secondaries()`.
        index: usize,
        /// Tailored (pointer-overlap-aware) vs. first-pointer access.
        tailored: bool,
    },
    /// Point probe across a fractured UPI's components.
    FracturedProbe,
    /// Range scan across a fractured UPI's components.
    FracturedRange,
    /// Secondary access across a fractured UPI's components.
    FracturedSecondary {
        /// Position in the fractured UPI's secondary list.
        index: usize,
        /// Tailored vs. first-pointer access.
        tailored: bool,
    },
    /// PII probe (inverted-list scan + bitmap-order heap fetch).
    PiiProbe {
        /// Position in `Catalog::piis`.
        index: usize,
    },
    /// PII range (inverted-list range read + heap fetch).
    PiiRange {
        /// Position in `Catalog::piis`.
        index: usize,
    },
    /// Full sequential scan of the unclustered heap with a residual
    /// confidence filter.
    HeapScan,
    /// Full sequential scan of the UPI heap (distinct tuples) with a
    /// residual confidence filter.
    UpiFullScan,
    /// R-Tree circle query on the continuous UPI's clustered heap.
    ContinuousCircle,
    /// Circle query via the secondary U-Tree + per-candidate heap fetch.
    UTreeCircle,
    /// Segment-index probe over the continuous UPI's heap pages.
    ContinuousSecondaryProbe {
        /// Position in `Catalog::cont_secondaries`.
        index: usize,
    },
}

impl AccessPath {
    /// The calibration family this path is priced (and refit) under.
    pub fn kind(&self) -> PathKind {
        match self {
            AccessPath::UpiHeap { .. } => PathKind::PointMerge,
            AccessPath::UpiRange => PathKind::RangeRun,
            AccessPath::UpiSecondary { .. } => PathKind::SecondaryProbe,
            AccessPath::FracturedProbe
            | AccessPath::FracturedRange
            | AccessPath::FracturedSecondary { .. } => PathKind::FracturedMerge,
            AccessPath::PiiProbe { .. }
            | AccessPath::PiiRange { .. }
            | AccessPath::UTreeCircle
            | AccessPath::ContinuousSecondaryProbe { .. } => PathKind::PiiProbe,
            AccessPath::HeapScan | AccessPath::UpiFullScan => PathKind::Scan,
            AccessPath::ContinuousCircle => PathKind::SpatialRun,
        }
    }

    /// Short display name for candidate tables.
    pub fn label(&self) -> String {
        match self {
            AccessPath::UpiHeap { use_cutoff: true } => "UpiHeap+CutoffMerge".into(),
            AccessPath::UpiHeap { use_cutoff: false } => "UpiHeap".into(),
            AccessPath::UpiRange => "UpiRange".into(),
            AccessPath::UpiSecondary {
                index,
                tailored: true,
            } => {
                format!("UpiSecondary#{index}(tailored)")
            }
            AccessPath::UpiSecondary {
                index,
                tailored: false,
            } => {
                format!("UpiSecondary#{index}(plain)")
            }
            AccessPath::FracturedProbe => "FracturedProbe".into(),
            AccessPath::FracturedRange => "FracturedRange".into(),
            AccessPath::FracturedSecondary {
                index,
                tailored: true,
            } => {
                format!("FracturedSecondary#{index}(tailored)")
            }
            AccessPath::FracturedSecondary {
                index,
                tailored: false,
            } => {
                format!("FracturedSecondary#{index}(plain)")
            }
            AccessPath::PiiProbe { index } => format!("PiiProbe#{index}"),
            AccessPath::PiiRange { index } => format!("PiiRange#{index}"),
            AccessPath::HeapScan => "HeapScan".into(),
            AccessPath::UpiFullScan => "UpiFullScan".into(),
            AccessPath::ContinuousCircle => "ContinuousCircle".into(),
            AccessPath::UTreeCircle => "UTreeCircle".into(),
            AccessPath::ContinuousSecondaryProbe { index } => {
                format!("ContinuousSecondaryProbe#{index}")
            }
        }
    }
}

/// One priced candidate plan.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The access path.
    pub path: AccessPath,
    /// The ranking estimate, ms: expected device ms of the pages that
    /// will miss plus host work (`cost.est_ms()`; see [`crate::cost`]).
    pub est_ms: f64,
    /// The estimate's decomposition — path kind, fixed vs. dominant term,
    /// and the calibration scale in force — so an executed plan can feed
    /// the exact pricing ingredients back into the `CalibrationStore`.
    pub cost: PathCost,
    /// How the estimate was assembled (for `explain()`).
    pub note: String,
    /// Prefetch hints for run-shaped paths: each entry names the first
    /// page of one expected sequential run and its estimated length,
    /// derived from the same live statistics that priced the candidate.
    /// Single-structure paths carry one hint; fracture-parallel paths
    /// carry **one hint per component** (start page via each component's
    /// `BTree::leaf_page_for`, length via its per-component run
    /// estimate). When the catalog registers a buffer pool, the executor
    /// arms every hint via [`upi_storage::BufferPool::hint_run`] before
    /// opening the source, so each run's read-ahead arms on its own first
    /// miss with a run-length-sized window. Empty for pointer-chasing and
    /// batch paths.
    pub hints: Vec<upi_storage::AccessHint>,
    /// Planner-estimated result rows (pre-top-k qualifying rows), when
    /// the statistics support an estimate. Rendered next to the observed
    /// row count by `explain_analyze`.
    pub est_rows: Option<f64>,
    /// Planner-estimated pages read, when the statistics support an
    /// estimate. Rendered next to the observed page count by
    /// `explain_analyze`.
    pub est_pages: Option<f64>,
}

impl CandidatePlan {
    /// Attach row/page cardinality estimates (chainable; used by the
    /// planner at enumeration time so `explain_analyze` can show
    /// estimated-vs-observed columns).
    pub fn with_est(mut self, rows: f64, pages: f64) -> CandidatePlan {
        self.est_rows = Some(rows);
        self.est_pages = Some(pages);
        self
    }

    /// Attach a page estimate only (scans: pages are known from tree
    /// stats, qualifying rows depend on the residual filter).
    pub fn with_est_pages(mut self, pages: f64) -> CandidatePlan {
        self.est_pages = Some(pages);
        self
    }
}

/// An executable physical plan: the chosen access path plus the full
/// ranked candidate list it won against.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The query this plan answers.
    pub query: PtqQuery,
    /// Candidates in ascending estimated cost; `candidates[0]` is chosen.
    pub candidates: Vec<CandidatePlan>,
}

impl PhysicalPlan {
    /// The chosen access path.
    pub fn path(&self) -> &AccessPath {
        &self.candidates[0].path
    }

    /// Ranking estimate of the chosen path, ms (device + host).
    pub fn est_ms(&self) -> f64 {
        self.candidates[0].est_ms
    }

    /// Execute the plan against the catalog it was planned over.
    pub fn execute(&self, catalog: &Catalog<'_>) -> Result<QueryOutput, QueryError> {
        crate::exec::execute(self, catalog)
    }

    /// Execute the plan and render the **analyzed** explain: the plan as
    /// [`explain_with_io`](Self::explain_with_io), a warning line when
    /// eviction-flush errors occurred during the query, and the executed
    /// span tree with per-operator estimated-vs-observed columns (rows,
    /// pages, simulated ms — flagged `!` when off by more than 2x).
    pub fn execute_analyzed(
        &self,
        catalog: &Catalog<'_>,
    ) -> Result<(QueryOutput, String), QueryError> {
        let out = self.execute(catalog)?;
        let text = self.render_analyze(&out);
        Ok((out, text))
    }

    /// Render the analyzed explain for an already-obtained execution of
    /// this plan (see [`execute_analyzed`](Self::execute_analyzed)).
    pub fn render_analyze(&self, out: &QueryOutput) -> String {
        let mut text = self.explain_with_io(out.io.as_ref());
        if let Some(w) = out.flush_warning() {
            text.push_str(&w);
            text.push('\n');
        }
        if let Some(trace) = &out.trace {
            text.push_str(&trace.render());
        }
        text
    }

    /// Human-readable plan rendering: the logical query, the operator
    /// tree of the chosen path, and the ranked candidate table.
    pub fn explain(&self) -> String {
        self.explain_with_io(None)
    }

    /// [`explain`](Self::explain) plus the measured buffer-pool traffic
    /// of an execution of this plan (`QueryOutput::io`, available when
    /// the catalog registered a pool via `Catalog::with_pool`).
    pub fn explain_with_io(&self, io: Option<&upi_storage::PoolCounters>) -> String {
        let mut out = String::new();
        out.push_str(&format!("PtqQuery: {}\n", describe_query(&self.query)));
        out.push_str(&format!(
            "chosen: {} (est {:.1} ms)\n",
            self.path().label(),
            self.est_ms()
        ));
        let cost = &self.candidates[0].cost;
        out.push_str(&format!(
            "cost model: {} raw {:.1} ms -> calibrated {:.1} ms (scale {:.2}, {} sample{}); \
             cached {:.2} -> device {:.1} ms + host {:.3} ms\n",
            cost.kind.label(),
            cost.raw_ms(),
            cost.calibrated_ms(),
            cost.scale,
            cost.samples,
            if cost.samples == 1 { "" } else { "s" },
            cost.cached,
            cost.device_ms(),
            cost.host_ms
        ));
        for line in operator_tree(&self.query, self.path()) {
            out.push_str(&format!("  {line}\n"));
        }
        match self.candidates[0].hints.as_slice() {
            [] => {}
            [h] => out.push_str(&format!(
                "prefetch hint: run of ~{} page(s) from page {:?}\n",
                h.est_run_pages, h.start_page
            )),
            hints => {
                let total: usize = hints.iter().map(|h| h.est_run_pages).sum();
                out.push_str(&format!(
                    "prefetch hints: {} component runs, ~{} page(s) total\n",
                    hints.len(),
                    total
                ));
                for h in hints {
                    out.push_str(&format!(
                        "  run of ~{} page(s) from page {:?}\n",
                        h.est_run_pages, h.start_page
                    ));
                }
            }
        }
        if let Some(io) = io {
            out.push_str(&format!(
                "buffer pool: {} pages read ({} demand + {} sequential read-ahead), {} hits ({} from readahead), {} flush errors\n",
                io.pages_read(),
                io.demand_pages(),
                io.sequential_pages(),
                io.hits,
                io.readahead_hits,
                io.flush_errors
            ));
        }
        out.push_str(
            "candidates: est = (1 - cached) * calibrated device + host, ms; raw/cal are cold device ms\n",
        );
        for (i, c) in self.candidates.iter().enumerate() {
            let marker = if i == 0 { "  <- chosen" } else { "" };
            out.push_str(&format!(
                "  {:<34} {:>12.3} ms  (raw {:.1}, cal {:.1}, cached {:.2}, host {:.3}){}  [{}]\n",
                c.path.label(),
                c.est_ms,
                c.cost.raw_ms(),
                c.cost.calibrated_ms(),
                c.cost.cached,
                c.cost.host_ms,
                marker,
                c.note
            ));
        }
        out
    }
}

fn describe_query(q: &PtqQuery) -> String {
    let pred = match &q.predicate {
        Predicate::Eq { attr, value } => format!("field#{attr} = {value}"),
        Predicate::Range { attr, lo, hi } => format!("field#{attr} IN [{lo}, {hi}]"),
        Predicate::Circle { attr, x, y, radius } => {
            format!("Distance(field#{attr}, ({x:.1}, {y:.1})) <= {radius:.1}")
        }
    };
    let mut s = format!("{pred} (confidence >= {:.2})", q.qt);
    if let Some(k) = q.top_k {
        s.push_str(&format!(" TOP {k}"));
    }
    if let Some(f) = q.group_count {
        s.push_str(&format!(" GROUP COUNT BY field#{f}"));
    }
    if let Some(p) = &q.projection {
        s.push_str(&format!(" PROJECT {p:?}"));
    }
    s
}

/// Render the operator tree for a chosen path, innermost source last.
fn operator_tree(q: &PtqQuery, path: &AccessPath) -> Vec<String> {
    let mut ops: Vec<String> = Vec::new();
    if let Some(f) = q.group_count {
        ops.push(format!("GroupCount(field#{f})"));
    }
    if let Some(p) = &q.projection {
        ops.push(format!("Project({p:?})"));
    }
    if let Some(k) = q.top_k {
        ops.push(format!("TopK({k})"));
    }
    ops.push(format!("Filter(confidence >= {:.2})", q.qt));
    let source = match path {
        AccessPath::UpiHeap { use_cutoff } if q.top_k.is_some() => vec![
            "UpiPointMerge(confidence-ordered, early-terminating)".to_string(),
            "  IndexRun(upi.heap)".to_string(),
            if *use_cutoff {
                "  PointerFetch(upi.cutoff, lazy, confidence-order)".to_string()
            } else {
                "  PointerFetch(upi.cutoff, consulted only below C)".to_string()
            },
        ],
        AccessPath::UpiHeap { use_cutoff: false } => vec!["IndexRun(upi.heap)".to_string()],
        AccessPath::UpiHeap { use_cutoff: true } => vec![
            "CutoffMerge".to_string(),
            "  IndexRun(upi.heap)".to_string(),
            "  PointerFetch(upi.cutoff, heap-order)".to_string(),
        ],
        AccessPath::UpiRange => vec![
            "UpiRange(streaming, emit at first in-range copy)".to_string(),
            "  IndexRun(upi.heap, range)".to_string(),
            "  PointerFetch(upi.cutoff, range, qualifiers only)".to_string(),
        ],
        AccessPath::UpiSecondary { index, tailored } => vec![format!(
            "SecondaryProbe(upi.sec#{index}, {}, lazy heap-order fetch)",
            if *tailored {
                "tailored"
            } else {
                "first-pointer"
            }
        )],
        AccessPath::FracturedProbe if q.top_k.is_some() => {
            vec![
                "FracturedMerge(point, k-way confidence-ordered, main + fractures + buffer)"
                    .to_string(),
            ]
        }
        AccessPath::FracturedProbe => {
            vec!["FracturedMerge(point, Algorithm 2 per component + buffer)".to_string()]
        }
        AccessPath::FracturedRange => {
            vec!["FracturedMerge(range, streaming per component + buffer)".to_string()]
        }
        AccessPath::FracturedSecondary { index, tailored } => vec![format!(
            "FracturedMerge(sec#{index}, {}, suppress-before-fetch)",
            if *tailored {
                "tailored"
            } else {
                "first-pointer"
            }
        )],
        AccessPath::PiiProbe { index } => vec![
            "BitmapHeapFetch(unclustered heap, tid-order)".to_string(),
            format!("  PiiProbe(pii#{index} inverted list)"),
        ],
        AccessPath::PiiRange { index } => vec![
            "BitmapHeapFetch(unclustered heap, tid-order)".to_string(),
            format!("  RangeAccumulate(pii#{index} inverted lists)"),
        ],
        AccessPath::HeapScan => vec!["HeapScan(unclustered heap, sequential)".to_string()],
        AccessPath::UpiFullScan => vec!["HeapScan(upi.heap distinct, sequential)".to_string()],
        AccessPath::ContinuousCircle => vec![
            "ClusteredPageRead(cupi.heap, leaf order)".to_string(),
            "  RTreeProbe(cupi.rtree, circle)".to_string(),
        ],
        AccessPath::UTreeCircle => vec![
            "BitmapHeapFetch(unclustered heap, tid-order)".to_string(),
            "  RTreeProbe(utree, circle)".to_string(),
        ],
        AccessPath::ContinuousSecondaryProbe { index } => vec![
            "PageCollapseFetch(cupi.heap, physical order)".to_string(),
            format!("  PiiProbe(cont_sec#{index} inverted list)"),
        ],
    };
    ops.extend(source);
    // Indent into a tree.
    ops.iter()
        .enumerate()
        .map(|(i, op)| format!("{}{op}", "  ".repeat(i.min(4))))
        .collect()
}
