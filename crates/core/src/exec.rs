//! Query results and executor helpers (result order, aggregates).
//!
//! The cost-based planner and streaming operator tree live in the
//! `upi-query` crate, which re-exports these names.

use std::cmp::Ordering;

use upi_uncertain::{Datum, Field, Tuple};

/// One row of a probabilistic threshold query answer: the tuple plus the
/// confidence that it satisfies the predicate (`existence × P(value)`,
/// e.g. `(Alice, 18%)` for Query 1 of the paper).
#[derive(Debug, Clone)]
pub struct PtqResult {
    /// The qualifying tuple.
    pub tuple: Tuple,
    /// Confidence that the tuple satisfies the query predicate.
    pub confidence: f64,
}

/// Per-cursor instrumentation counters, accumulated by every streaming
/// cursor (`HeapRun`, `PointRun`, `RangeRun`, `SecondaryRun`, scans and
/// the fractured merges) as it pulls rows. Allocation-free — plain
/// increments on the cursor — and harvested by the query layer's trace
/// spans after execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// Rows emitted to the consumer.
    pub rows: u64,
    /// Tuples decoded from heap pages.
    pub decodes: u64,
    /// Candidates skipped by a suppression / residual predicate before
    /// any heap fetch.
    pub suppressed: u64,
    /// Pointer dereferences into the clustered heap (cutoff or secondary
    /// entries resolved to their tuple).
    pub pointer_fetches: u64,
}

impl CursorStats {
    /// Component-wise sum (merging a child cursor's counters into its
    /// parent's).
    pub fn merged(self, other: CursorStats) -> CursorStats {
        CursorStats {
            rows: self.rows + other.rows,
            decodes: self.decodes + other.decodes,
            suppressed: self.suppressed + other.suppressed,
            pointer_fetches: self.pointer_fetches + other.pointer_fetches,
        }
    }
}

/// Typed executor errors (library code must not panic on malformed
/// queries — a bad field index or type comes from the caller, not a bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The referenced field index is out of bounds for the tuple.
    FieldOutOfBounds {
        /// The requested field index.
        field: usize,
        /// The tuple's arity.
        arity: usize,
    },
    /// A grouping field was not a certain `U64` column.
    NotCertainU64 {
        /// The requested field index.
        field: usize,
        /// Debug rendering of the offending field value.
        got: String,
    },
    /// A plan named an access path the table's physical layout cannot
    /// serve (e.g. `UpiHeap` on a fractured or unclustered shard).
    /// Recoverable: callers fall back to a layout-agnostic execution
    /// instead of panicking.
    LayoutMismatch {
        /// Label of the access path the plan chose.
        path: String,
        /// The layout the table actually has.
        layout: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::FieldOutOfBounds { field, arity } => {
                write!(
                    f,
                    "field index {field} out of bounds for arity-{arity} tuple"
                )
            }
            ExecError::NotCertainU64 { field, got } => {
                write!(
                    f,
                    "group_count expects a certain u64 field at index {field}, got {got}"
                )
            }
            ExecError::LayoutMismatch { path, layout } => {
                write!(f, "access path {path} cannot run on a {layout} table")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Canonical PTQ result ordering: descending confidence, ties broken by
/// ascending tuple id. `total_cmp` makes it a total order, so a NaN
/// confidence sorts (first) instead of panicking.
pub fn result_cmp(a: &PtqResult, b: &PtqResult) -> Ordering {
    b.confidence
        .total_cmp(&a.confidence)
        .then_with(|| a.tuple.id.cmp(&b.tuple.id))
}

/// Sort rows into the canonical [`result_cmp`] order. Every access path
/// presents rows this way.
pub fn sort_results(rows: &mut [PtqResult]) {
    rows.sort_by(result_cmp);
}

/// Read the certain `U64` grouping key of `field` from a tuple.
pub fn group_key(tuple: &Tuple, field: usize) -> std::result::Result<u64, ExecError> {
    match tuple.fields.get(field) {
        Some(Field::Certain(Datum::U64(v))) => Ok(*v),
        Some(other) => Err(ExecError::NotCertainU64 {
            field,
            got: format!("{other:?}"),
        }),
        None => Err(ExecError::FieldOutOfBounds {
            field,
            arity: tuple.fields.len(),
        }),
    }
}

/// `SELECT field, COUNT(*) ... GROUP BY field` over PTQ results — the shape
/// of Queries 2 and 3 ("Publication Aggregate on Institution/Country").
/// Returns `(value, count)` sorted by value. `field` must be a certain
/// `U64` column (the journal id); anything else is a typed [`ExecError`].
pub fn group_count(
    results: &[PtqResult],
    field: usize,
) -> std::result::Result<Vec<(u64, u64)>, ExecError> {
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for r in results {
        *counts.entry(group_key(&r.tuple, field)?).or_insert(0) += 1;
    }
    let mut out: Vec<(u64, u64)> = counts.into_iter().collect();
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use upi_uncertain::TupleId;

    fn result(journal: u64, conf: f64) -> PtqResult {
        PtqResult {
            tuple: Tuple::new(
                TupleId(journal * 100),
                1.0,
                vec![Field::Certain(Datum::U64(journal))],
            ),
            confidence: conf,
        }
    }

    #[test]
    fn group_count_counts_per_value() {
        let rows = vec![
            result(3, 0.9),
            result(1, 0.5),
            result(3, 0.2),
            result(2, 0.8),
        ];
        assert_eq!(group_count(&rows, 0).unwrap(), vec![(1, 1), (2, 1), (3, 2)]);
    }

    #[test]
    fn group_count_empty() {
        assert!(group_count(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn group_count_rejects_wrong_field_type() {
        let r = PtqResult {
            tuple: Tuple::new(
                TupleId(0),
                1.0,
                vec![Field::Certain(Datum::Str("x".into()))],
            ),
            confidence: 1.0,
        };
        match group_count(&[r], 0) {
            Err(ExecError::NotCertainU64 { field: 0, .. }) => {}
            other => panic!("expected NotCertainU64, got {other:?}"),
        }
    }

    #[test]
    fn sort_results_survives_nan_confidence() {
        let mut rows = vec![result(1, 0.5), result(2, f64::NAN), result(3, 0.9)];
        sort_results(&mut rows);
        let ids: Vec<u64> = rows.iter().map(|r| r.tuple.id.0).collect();
        assert_eq!(
            ids,
            vec![200, 300, 100],
            "NaN ranks first, the rest descend"
        );
    }

    #[test]
    fn sort_results_keeps_finite_order() {
        // Descending confidence, ties by ascending id — the order every
        // access path has always presented.
        let mut rows = vec![
            result(4, 0.2),
            result(2, 0.7),
            result(1, 0.2),
            result(3, 1.0),
            result(5, 0.0),
        ];
        sort_results(&mut rows);
        let got: Vec<(u64, f64)> = rows.iter().map(|r| (r.tuple.id.0, r.confidence)).collect();
        assert_eq!(
            got,
            vec![(300, 1.0), (200, 0.7), (100, 0.2), (400, 0.2), (500, 0.0)]
        );
    }

    #[test]
    fn group_count_rejects_out_of_bounds_field() {
        let r = result(1, 0.5);
        match group_count(&[r], 9) {
            Err(ExecError::FieldOutOfBounds { field: 9, arity: 1 }) => {}
            other => panic!("expected FieldOutOfBounds, got {other:?}"),
        }
    }
}
