//! DBLP-style analytics: the paper's motivating OLAP scenario.
//!
//! Generates a synthetic uncertain-DBLP dataset (Zipf-skewed institutions,
//! long-tailed alternative lists, country correlated with institution),
//! then answers the three evaluation queries with both a PII (secondary
//! index over an unclustered heap — prior work) and a UPI, reporting
//! simulated disk time for each.
//!
//! Run with: `cargo run --release -p upi-examples --example dblp_analytics`

use std::sync::Arc;

use upi::exec::group_count;
use upi::{DiscreteUpi, Pii, PtqResult, UnclusteredHeap, UpiConfig};
use upi_storage::error::Result;
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_workloads::dblp::{self, author_fields, publication_fields, DblpConfig};

fn timed<T>(store: &Store, label: &str, f: impl FnOnce() -> T) -> T {
    store.go_cold();
    let t0 = store.disk.clock_ms();
    let out = f();
    println!("  {label}: {:.0} simulated ms", store.disk.clock_ms() - t0);
    out
}

/// Drain a streaming UPI cursor into its rows.
fn rows(cursor: Result<impl Iterator<Item = Result<PtqResult>>>) -> Vec<PtqResult> {
    cursor.unwrap().collect::<Result<_>>().unwrap()
}

fn main() {
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let cfg = DblpConfig {
        n_authors: 30_000,
        n_publications: 60_000,
        payload_bytes: 256,
        ..DblpConfig::default()
    };
    println!(
        "generating {} authors / {} publications ...",
        cfg.n_authors, cfg.n_publications
    );
    let data = dblp::generate(&cfg);
    let mit = data.popular_institution();
    let japan = data.query_country();

    // --- Author table: unclustered + PII vs UPI --------------------------
    let mut heap = UnclusteredHeap::create(store.clone(), "author.heap", 8192).unwrap();
    heap.bulk_load(&data.authors).unwrap();
    let mut pii = Pii::create(
        store.clone(),
        "author.pii",
        author_fields::INSTITUTION,
        8192,
    )
    .unwrap();
    pii.bulk_load(&data.authors).unwrap();
    let mut upi = DiscreteUpi::create(
        store.clone(),
        "author.upi",
        author_fields::INSTITUTION,
        UpiConfig::default(),
    )
    .unwrap();
    upi.bulk_load(&data.authors).unwrap();

    println!("\nQuery 1: SELECT * FROM Author WHERE Institution=MIT (QT=0.3)");
    let a = timed(&store, "PII on unclustered heap", || {
        pii.ptq(&heap, mit, 0.3).unwrap()
    });
    let b = timed(&store, "UPI                    ", || {
        rows(upi.cutoff_merge(mit, 0.3))
    });
    assert_eq!(a.len(), b.len());
    println!("  -> {} qualifying authors", b.len());

    // --- Publication table with a Country secondary ----------------------
    let mut pub_heap = UnclusteredHeap::create(store.clone(), "pub.heap", 8192).unwrap();
    pub_heap.bulk_load(&data.publications).unwrap();
    let mut pub_pii_inst = Pii::create(
        store.clone(),
        "pub.pii.inst",
        publication_fields::INSTITUTION,
        8192,
    )
    .unwrap();
    pub_pii_inst.bulk_load(&data.publications).unwrap();
    let mut pub_pii_country = Pii::create(
        store.clone(),
        "pub.pii.country",
        publication_fields::COUNTRY,
        8192,
    )
    .unwrap();
    pub_pii_country.bulk_load(&data.publications).unwrap();
    let mut pub_upi = DiscreteUpi::create(
        store.clone(),
        "pub.upi",
        publication_fields::INSTITUTION,
        UpiConfig::default(),
    )
    .unwrap();
    pub_upi.add_secondary(publication_fields::COUNTRY).unwrap();
    pub_upi.bulk_load(&data.publications).unwrap();

    println!("\nQuery 2: journal COUNT(*) WHERE Institution=MIT (QT=0.3)");
    let g1 = timed(&store, "PII on unclustered heap", || {
        group_count(
            &pub_pii_inst.ptq(&pub_heap, mit, 0.3).unwrap(),
            publication_fields::JOURNAL,
        )
        .unwrap()
    });
    let g2 = timed(&store, "UPI                    ", || {
        group_count(
            &rows(pub_upi.cutoff_merge(mit, 0.3)),
            publication_fields::JOURNAL,
        )
        .unwrap()
    });
    assert_eq!(g1, g2);
    println!("  -> {} journals in the answer", g2.len());

    println!("\nQuery 3: journal COUNT(*) WHERE Country=Japan (QT=0.3)");
    let g3 = timed(&store, "PII on unclustered heap ", || {
        group_count(
            &pub_pii_country.ptq(&pub_heap, japan, 0.3).unwrap(),
            publication_fields::JOURNAL,
        )
        .unwrap()
    });
    let g4 = timed(&store, "UPI secondary (plain)   ", || {
        group_count(
            &rows(pub_upi.secondary_run(0, japan, 0.3, false, None)),
            publication_fields::JOURNAL,
        )
        .unwrap()
    });
    let g5 = timed(&store, "UPI secondary (tailored)", || {
        group_count(
            &rows(pub_upi.secondary_run(0, japan, 0.3, true, None)),
            publication_fields::JOURNAL,
        )
        .unwrap()
    });
    assert_eq!(g3, g4);
    assert_eq!(g4, g5);
    println!("  -> {} journals in the answer", g5.len());
    println!(
        "\n(The correlated Country≈Institution attributes are what make the \
         tailored access fast: overlapping pointers collapse onto few heap \
         regions — §3.2 of the paper.)"
    );
}
