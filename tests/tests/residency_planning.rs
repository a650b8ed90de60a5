//! Residency-aware planning: the planner prices the pages a plan will
//! miss plus its host work. On a fully warmed pool the below-cutoff
//! point query on the most popular institution runs Algorithm 2 (heap
//! run + cutoff merge) instead of the sequential full scan the cold §6
//! model prefers there; after `go_cold()` the same query plans the scan
//! again. Both plans answer exactly what the brute-force oracle does.

use std::sync::Arc;

use upi::{TableLayout, UpiConfig};
use upi_query::{AccessPath, PtqQuery, QueryOutput, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_tests::oracle_on_disk;
use upi_workloads::dblp::{self, author_fields, DblpConfig, DblpData};

/// Sorted `(tid, confidence)` of a query's rows, in the oracle's order.
fn answer(out: &QueryOutput) -> Vec<(u64, f64)> {
    let mut rows: Vec<(u64, f64)> = out
        .rows
        .iter()
        .map(|r| (r.tuple.id.0, r.confidence))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

#[test]
fn warm_pool_plans_the_cutoff_merge_and_a_cold_pool_the_scan() {
    let data = dblp::generate(&DblpConfig {
        n_authors: 3_000,
        n_publications: 0,
        payload_bytes: 512,
        ..DblpConfig::default()
    });
    let inst = author_fields::INSTITUTION;
    let cutoff = 0.1;
    // A pool larger than the table: the load leaves every page cached.
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 64 << 20);
    let mut db = UncertainDb::create(
        store.clone(),
        "author",
        DblpData::author_schema(),
        inst,
        TableLayout::Upi(UpiConfig {
            cutoff,
            ..UpiConfig::default()
        }),
    )
    .unwrap();
    db.load(&data.authors).unwrap();
    let popular = data.popular_institution();
    let q = PtqQuery::eq(inst, popular).with_qt(0.05);
    assert!(q.qt < cutoff, "the query must reach below the cutoff");
    let want = oracle_on_disk(&data.authors, inst, popular, popular, q.qt);
    assert!(!want.is_empty());

    // Warm: every file the candidates read is resident, so device time
    // prices at zero and host work ranks the plans.
    let plan = db.plan(&q).unwrap();
    assert_eq!(
        plan.path(),
        &AccessPath::UpiHeap { use_cutoff: true },
        "{}",
        plan.explain()
    );
    assert!(plan.candidates.iter().all(|c| c.cost.cached == 1.0));
    assert_eq!(plan.candidates[0].cost.device_ms(), 0.0);
    assert!(plan.explain().contains("cached 1.00"), "{}", plan.explain());
    let out = db.query(&q).unwrap();
    assert_eq!(answer(&out), want, "warm cutoff merge vs oracle");
    assert_eq!(
        out.device.unwrap().total_ms(),
        0.0,
        "a fully resident plan reads nothing"
    );

    // Cold: nothing is resident, and the cold §6 prices rank exactly as
    // they did before residency was priced — the sequential scan wins
    // over the cutoff merge's pointer fetches on this popular value.
    store.go_cold();
    let plan = db.plan(&q).unwrap();
    assert_eq!(plan.path(), &AccessPath::UpiFullScan, "{}", plan.explain());
    // Planning's own prefetch-hint descents read a few index pages; the
    // rest of every file is cold.
    assert!(
        plan.candidates.iter().all(|c| c.cost.cached < 0.05),
        "{}",
        plan.explain()
    );
    let out = db.query(&q).unwrap();
    assert_eq!(answer(&out), want, "cold full scan vs oracle");
}
