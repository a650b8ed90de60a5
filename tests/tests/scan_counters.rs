//! Predicate-first decoding, pinned by the scan cursors' own counters.
//!
//! The two full scans (`UpiFullScan` over the clustered heap, `HeapScan`
//! over the unclustered one) evaluate their confidence predicate on each
//! tuple's encoded bytes before decoding it, and `UpiRange` does the same
//! for phase 1 of its clustered run. On a DBLP author table at a low
//! threshold (qt 0.02, where the planner's scan fallback matters most)
//! the source span must show:
//!
//! * `decodes == rows` — a scan decodes exactly the rows it emits;
//! * `rows + suppressed == n_tuples` — every tuple is either emitted or
//!   rejected, and a rejected one is counted as suppressed pre-decode;
//! * for `UpiRange`, phase-1 decodes equal phase-1 rows (total rows less
//!   the phase-2 pointer fetches).
//!
//! Every answer is also checked against the brute-force oracle.

use std::sync::Arc;

use upi::{CursorStats, DiscreteUpi, UnclusteredHeap, UpiConfig};
use upi_query::{AccessPath, Catalog, PhysicalPlan, PtqQuery, QueryOutput};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_tests::{oracle_on_disk, pairs};
use upi_uncertain::Tuple;
use upi_workloads::dblp::{self, author_fields, DblpConfig};

const QT: f64 = 0.02;
const ATTR: usize = author_fields::INSTITUTION;

/// Execute `q` through `path` only.
fn forced(q: &PtqQuery, catalog: &Catalog<'_>, path: AccessPath) -> QueryOutput {
    let plan = q.plan(catalog).unwrap();
    let cand = plan
        .candidates
        .iter()
        .find(|c| c.path == path)
        .unwrap_or_else(|| panic!("{q:?}: no {} candidate", path.label()));
    let forced = PhysicalPlan {
        query: q.clone(),
        candidates: vec![cand.clone()],
    };
    forced.execute(catalog).unwrap()
}

/// Counters of the executed source operator (the span carrying the
/// planner's estimate).
fn source_stats(out: &QueryOutput) -> CursorStats {
    let trace = out.trace.as_ref().expect("execute always traces");
    let source = trace.spans.iter().find(|s| s.est_ms.is_some()).unwrap();
    source
        .stats
        .expect("the source span carries cursor counters")
}

/// The query returned exactly the oracle's tuples, each with the
/// oracle's confidence (phase-2 range rows sum their cutoff entries in
/// index order, so confidences may differ in the last bit).
fn assert_oracle(out: &QueryOutput, tuples: &[Tuple], (lo, hi, qt): (u64, u64, f64), what: &str) {
    let mut got = pairs(&out.rows);
    got.sort_by_key(|&(tid, _)| tid);
    let mut want = oracle_on_disk(tuples, ATTR, lo, hi, qt);
    want.sort_by_key(|&(tid, _)| tid);
    let ids = |rows: &[(u64, f64)]| rows.iter().map(|r| r.0).collect::<Vec<_>>();
    assert_eq!(ids(&got), ids(&want), "{what}");
    for (g, w) in got.iter().zip(&want) {
        assert!(
            (g.1 - w.1).abs() < 1e-12,
            "{what}: tid {} {g:?} vs {w:?}",
            g.0
        );
    }
}

#[test]
fn full_scans_decode_only_qualifying_rows() {
    let data = dblp::generate(&DblpConfig::tiny());
    let st = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let mut heap = UnclusteredHeap::create(st.clone(), "heap", 8192).unwrap();
    heap.bulk_load(&data.authors).unwrap();
    let mut upi = DiscreteUpi::create(st.clone(), "upi", ATTR, UpiConfig::default()).unwrap();
    upi.bulk_load(&data.authors).unwrap();
    let catalog = Catalog::new(st.disk.config())
        .with_upi(&upi)
        .with_heap(&heap);
    let n_tuples = data.authors.len() as u64;

    let popular = data.popular_institution();
    let selective = data.selective_institution();
    let queries = [
        (PtqQuery::eq(ATTR, popular).with_qt(QT), popular, popular),
        (
            PtqQuery::eq(ATTR, selective).with_qt(QT),
            selective,
            selective,
        ),
        (PtqQuery::range(ATTR, 10, 40).with_qt(QT), 10, 40),
    ];
    for (q, lo, hi) in &queries {
        for path in [AccessPath::UpiFullScan, AccessPath::HeapScan] {
            let out = forced(q, &catalog, path.clone());
            assert_oracle(
                &out,
                &data.authors,
                (*lo, *hi, QT),
                &format!("{q:?} via {}", path.label()),
            );
            let s = source_stats(&out);
            assert_eq!(s.rows, out.rows.len() as u64, "{q:?} via {}", path.label());
            assert_eq!(s.decodes, s.rows, "{q:?} via {}: decodes", path.label());
            assert_eq!(
                s.rows + s.suppressed,
                n_tuples,
                "{q:?} via {}: every tuple emitted or suppressed",
                path.label()
            );
            assert!(s.suppressed > 0, "{q:?} via {}", path.label());
        }
    }
}

#[test]
fn range_run_phase_one_decodes_only_emitted_rows() {
    let data = dblp::generate(&DblpConfig::tiny());
    let st = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    // A high cutoff puts many alternatives in the cutoff index, so both
    // phases of the range run have work.
    let cfg = UpiConfig {
        cutoff: 0.3,
        ..UpiConfig::default()
    };
    let mut upi = DiscreteUpi::create(st.clone(), "upi", ATTR, cfg).unwrap();
    upi.bulk_load(&data.authors).unwrap();
    let catalog = Catalog::new(st.disk.config()).with_upi(&upi);

    // Phase 1 rejects a tuple pre-decode when its in-range mass is
    // below qt; at qt 0.02 almost none is, so a high threshold runs too.
    let (mut phase_two, mut rejected) = (0, 0);
    for qt in [QT, 0.6] {
        for (lo, hi) in [(0u64, 5u64), (10, 40), (150, 199)] {
            let q = PtqQuery::range(ATTR, lo, hi).with_qt(qt);
            let out = forced(&q, &catalog, AccessPath::UpiRange);
            assert_oracle(&out, &data.authors, (lo, hi, qt), &format!("{q:?}"));
            let s = source_stats(&out);
            // Phase-2 rows are pointer fetches; the rest came from phase 1.
            assert_eq!(
                s.decodes,
                s.rows - s.pointer_fetches,
                "{q:?}: phase-1 decodes"
            );
            phase_two += s.pointer_fetches;
            rejected += s.suppressed;
        }
    }
    assert!(phase_two > 0, "some query must reach phase 2");
    assert!(
        rejected > 0,
        "some phase-1 tuple must be rejected pre-decode"
    );
}
