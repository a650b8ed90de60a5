//! Shared oracles for the integration tests in `tests/`: brute-force
//! answers computed from a plain model of the live tuples, never from an
//! index path, plus small helpers to drain the core cursors.

use upi::{sort_results, PtqResult};
use upi_storage::codec::{dequantize_prob, quantize_prob};
use upi_uncertain::Tuple;

/// Possible-world confidence of `t` for `lo ≤ field attr ≤ hi`: the
/// folded (`× existence`) masses of the in-range alternatives, summed.
/// `on_grid` rounds each alternative to the grid the index keys store
/// it on, as every on-disk index reports it; RAM-buffered rows report
/// exact masses.
fn confidence(t: &Tuple, attr: usize, lo: u64, hi: u64, on_grid: bool) -> f64 {
    t.discrete(attr)
        .alternatives()
        .iter()
        .filter(|&&(v, _)| (lo..=hi).contains(&v))
        .map(|&(_, p)| {
            let folded = p * t.exist;
            if on_grid {
                dequantize_prob(quantize_prob(folded))
            } else {
                folded
            }
        })
        .sum()
}

/// Brute-force PTQ answer: `(tid, confidence)` of every `(tuple,
/// on_grid)` whose `confidence` for `lo..=hi` of field `attr` is
/// positive and `≥ qt`, in canonical order (confidence descending, then
/// tid ascending).
pub fn oracle<'a>(
    rows: impl IntoIterator<Item = (&'a Tuple, bool)>,
    attr: usize,
    lo: u64,
    hi: u64,
    qt: f64,
) -> Vec<(u64, f64)> {
    let mut out: Vec<(u64, f64)> = rows
        .into_iter()
        .map(|(t, on_grid)| (t.id.0, confidence(t, attr, lo, hi, on_grid)))
        .filter(|&(_, c)| c > 0.0 && c >= qt)
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// [`oracle`] over tuples that all live on disk (key-grid confidences).
pub fn oracle_on_disk<'a>(
    tuples: impl IntoIterator<Item = &'a Tuple>,
    attr: usize,
    lo: u64,
    hi: u64,
    qt: f64,
) -> Vec<(u64, f64)> {
    oracle(tuples.into_iter().map(|t| (t, true)), attr, lo, hi, qt)
}

/// `(tid, confidence)` of each result row, in row order.
pub fn pairs(rows: &[PtqResult]) -> Vec<(u64, f64)> {
    rows.iter().map(|r| (r.tuple.id.0, r.confidence)).collect()
}

/// Drain a core cursor into rows in canonical order.
pub fn drain_sorted<E: std::fmt::Debug>(
    cursor: impl Iterator<Item = Result<PtqResult, E>>,
) -> Vec<PtqResult> {
    let mut rows: Vec<PtqResult> = cursor.collect::<Result<_, _>>().unwrap();
    sort_results(&mut rows);
    rows
}
