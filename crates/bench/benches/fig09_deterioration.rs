//! Figure 9 — Query 1 (C = QT = 0.1) runtime deterioration over 10 insert
//! batches (each: insert 10 % of the initial table, delete 1 % of live
//! tuples) for an unclustered heap + PII, a non-fractured UPI, and a
//! Fractured UPI (one fracture per batch).
//!
//! Paper shape: after 10 batches the table grew only ~90 %, but the
//! unclustered heap is ~4× slower (deletion fragmentation), the
//! non-fractured UPI ~40× slower (random splits scatter the leaf chain),
//! and the Fractured UPI ~9× slower (per-fracture open + seek overhead) —
//! fracturing eliminates fragmentation but accumulates components.

use upi::{DiscreteUpi, FracturedConfig, FracturedUpi, Pii, UnclusteredHeap, UpiConfig};
use upi_bench::setups::author_setup;
use upi_bench::{banner, drain, fresh_store, header, measure_cold, ms, summary};
use upi_uncertain::Tuple;
use upi_workloads::dblp::author_fields;

const BATCHES: usize = 10;
const QT: f64 = 0.1;
const C: f64 = 0.1;

fn main() {
    // Base setup provides the data + the unclustered/PII and UPI systems.
    let s = author_setup(C);
    let key = s.data.popular_institution();
    let mut heap = s.heap;
    let mut pii = s.pii;
    let mut upi = s.upi;
    let store_ab = s.store;

    // Fractured UPI on its own simulated machine.
    let store_c = fresh_store();
    let mut fractured = FracturedUpi::create(
        store_c.clone(),
        "author.fupi",
        author_fields::INSTITUTION,
        &[],
        FracturedConfig {
            upi: UpiConfig {
                cutoff: C,
                ..UpiConfig::default()
            },
            buffer_ops: 0,
        },
    )
    .unwrap();
    fractured.load_initial(&s.data.authors).unwrap();

    banner(
        "Figure 9",
        "Query 1 (C=QT=0.1) deterioration over insert batches",
        "UPI degrades worst (~40x), fractured ~9x, unclustered ~4x",
    );
    header(&[
        "batch",
        "Unclustered_ms",
        "UPI_ms",
        "FracturedUPI_ms",
        "Unclustered_io",
        "UPI_io",
        "Fractured_io",
        "rows",
    ]);

    let mut live: Vec<Tuple> = s.data.authors.clone();
    let mut next_id = live.len() as u64;
    let batch_inserts = s.data.authors.len() / 10;
    let mut firsts = (0.0, 0.0, 0.0);
    let mut lasts = (0.0, 0.0, 0.0);
    let mut firsts_total = (0.0, 0.0, 0.0);
    let mut lasts_total = (0.0, 0.0, 0.0);

    let mut rng_state = 0x5EEDu64;
    let mut next_rand = move |n: usize| {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((rng_state >> 33) as usize) % n
    };

    for batch in 0..=BATCHES {
        if batch > 0 {
            // Insert 10% fresh tuples.
            let new = s.data.more_authors(batch_inserts, next_id, batch as u64);
            next_id += batch_inserts as u64;
            for t in &new {
                heap.insert(t).unwrap();
                pii.insert(t).unwrap();
                upi.insert(t).unwrap();
                fractured.insert(t.clone()).unwrap();
            }
            live.extend(new);
            // Delete 1% of live tuples at random positions.
            let n_del = live.len() / 100;
            for _ in 0..n_del {
                let idx = next_rand(live.len());
                let victim = live.swap_remove(idx);
                heap.delete(victim.id).unwrap();
                pii.delete(&victim).unwrap();
                upi.delete(&victim).unwrap();
                fractured.delete(victim.id).unwrap();
            }
            fractured.flush().unwrap();
            store_ab.pool.flush_all();
        }

        let a = measure_cold(&store_ab, || pii.ptq(&heap, key, QT).unwrap().len());
        let b = measure_cold(&store_ab, || drain(upi.cutoff_merge(key, QT)));
        let c = measure_cold(&store_c, || drain(fractured.ptq_run(key, QT, None)));
        assert_eq!(a.rows, b.rows);
        assert_eq!(b.rows, c.rows);
        let io = (
            a.sim_ms - a.io.init_ms,
            b.sim_ms - b.io.init_ms,
            c.sim_ms - c.io.init_ms,
        );
        if batch == 0 {
            firsts = io;
            firsts_total = (a.sim_ms, b.sim_ms, c.sim_ms);
        }
        lasts = io;
        lasts_total = (a.sim_ms, b.sim_ms, c.sim_ms);
        println!(
            "{batch}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            ms(a.sim_ms),
            ms(b.sim_ms),
            ms(c.sim_ms),
            ms(io.0),
            ms(io.1),
            ms(io.2),
            a.rows
        );
    }
    // Total-time factors are the paper-comparable ones: the fractured
    // UPI's per-fracture overhead *is* `Cost_init + H·T_seek` (§6.2), so
    // the open charges belong in its deterioration. The `_io` variants
    // isolate the transfer/seek component.
    summary(
        "fig9.deterioration_unclustered",
        format!(
            "{:.1}x total, {:.1}x io",
            lasts_total.0 / firsts_total.0,
            lasts.0 / firsts.0
        ),
    );
    summary(
        "fig9.deterioration_upi",
        format!(
            "{:.1}x total, {:.1}x io",
            lasts_total.1 / firsts_total.1,
            lasts.1 / firsts.1
        ),
    );
    summary(
        "fig9.deterioration_fractured",
        format!(
            "{:.1}x total, {:.1}x io",
            lasts_total.2 / firsts_total.2,
            lasts.2 / firsts.2
        ),
    );
    let _ = &upi as &DiscreteUpi;
    let _ = &pii as &Pii;
    let _ = &heap as &UnclusteredHeap;
}
