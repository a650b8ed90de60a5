//! Cross-index consistency: for the same generated table, every access
//! path — full scan, PII, UPI (any cutoff), fractured UPI — must return
//! exactly the same PTQ answers.

use std::sync::Arc;

use upi::{DiscreteUpi, FracturedConfig, FracturedUpi, Pii, UnclusteredHeap, UpiConfig};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_tests::drain_sorted;
use upi_uncertain::Tuple;
use upi_workloads::dblp::{self, author_fields, DblpConfig};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 16 << 20)
}

/// Ground truth by brute force over the tuple list.
fn scan_truth(tuples: &[Tuple], attr: usize, value: u64, qt: f64) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = tuples
        .iter()
        .filter_map(|t| {
            let conf = t.confidence_eq(attr, value);
            // Compare on the index's quantized probability grid so boundary
            // thresholds agree.
            let q = upi_storage::codec::quantize_prob(conf);
            if upi_storage::codec::dequantize_prob(q) >= qt && conf > 0.0 {
                Some((t.id.0, q as u64))
            } else {
                None
            }
        })
        .collect();
    out.sort_unstable();
    out
}

fn results_to_pairs(results: &[upi::PtqResult]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = results
        .iter()
        .map(|r| {
            (
                r.tuple.id.0,
                upi_storage::codec::quantize_prob(r.confidence) as u64,
            )
        })
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn every_access_path_agrees_on_dblp() {
    let data = dblp::generate(&DblpConfig::tiny());
    let tuples = &data.authors;
    let attr = author_fields::INSTITUTION;
    let st = store();

    let mut heap = UnclusteredHeap::create(st.clone(), "heap", 8192).unwrap();
    heap.bulk_load(tuples).unwrap();
    let mut pii = Pii::create(st.clone(), "pii", attr, 8192).unwrap();
    pii.bulk_load(tuples).unwrap();

    let mut upis = Vec::new();
    for (i, c) in [0.0, 0.1, 0.5, 0.99].into_iter().enumerate() {
        let mut u = DiscreteUpi::create(
            st.clone(),
            &format!("upi{i}"),
            attr,
            UpiConfig {
                cutoff: c,
                ..UpiConfig::default()
            },
        )
        .unwrap();
        u.bulk_load(tuples).unwrap();
        upis.push(u);
    }

    let mut fractured = FracturedUpi::create(
        st.clone(),
        "fupi",
        attr,
        &[],
        FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        },
    )
    .unwrap();
    // Load a third initially, flush a third as a fracture, keep a third
    // buffered — the query must span all components.
    let third = tuples.len() / 3;
    fractured.load_initial(&tuples[..third]).unwrap();
    for t in &tuples[third..2 * third] {
        fractured.insert(t.clone()).unwrap();
    }
    fractured.flush().unwrap();
    for t in &tuples[2 * third..] {
        fractured.insert(t.clone()).unwrap();
    }

    let keys = [
        data.popular_institution(),
        data.selective_institution(),
        17,
        999_999, // absent value
    ];
    for value in keys {
        for qt in [0.01, 0.05, 0.2, 0.5, 0.9] {
            let truth = scan_truth(tuples, attr, value, qt);
            let via_pii = results_to_pairs(&pii.ptq(&heap, value, qt).unwrap());
            assert_eq!(via_pii, truth, "PII value={value} qt={qt}");
            for (i, u) in upis.iter().enumerate() {
                let got = results_to_pairs(&drain_sorted(u.cutoff_merge(value, qt).unwrap()));
                assert_eq!(got, truth, "UPI#{i} value={value} qt={qt}");
            }
            let via_fr =
                results_to_pairs(&drain_sorted(fractured.ptq_run(value, qt, None).unwrap()));
            assert_eq!(via_fr, truth, "fractured value={value} qt={qt}");
        }
    }
}

#[test]
fn secondary_paths_agree_with_truth() {
    let data = dblp::generate(&DblpConfig::tiny());
    let tuples = &data.authors;
    let st = store();
    let mut heap = UnclusteredHeap::create(st.clone(), "heap", 8192).unwrap();
    heap.bulk_load(tuples).unwrap();
    let mut pii_country = Pii::create(st.clone(), "piic", author_fields::COUNTRY, 8192).unwrap();
    pii_country.bulk_load(tuples).unwrap();
    let mut upi = DiscreteUpi::create(
        st.clone(),
        "upi",
        author_fields::INSTITUTION,
        UpiConfig::default(),
    )
    .unwrap();
    upi.add_secondary(author_fields::COUNTRY).unwrap();
    upi.bulk_load(tuples).unwrap();

    for country in [0u64, 1, 3, 7] {
        for qt in [0.05, 0.3, 0.7] {
            let truth = scan_truth(tuples, author_fields::COUNTRY, country, qt);
            let a = results_to_pairs(&pii_country.ptq(&heap, country, qt).unwrap());
            let b = results_to_pairs(&drain_sorted(
                upi.secondary_run(0, country, qt, false, None).unwrap(),
            ));
            let c = results_to_pairs(&drain_sorted(
                upi.secondary_run(0, country, qt, true, None).unwrap(),
            ));
            assert_eq!(a, truth, "pii country={country} qt={qt}");
            assert_eq!(b, truth, "plain country={country} qt={qt}");
            assert_eq!(c, truth, "tailored country={country} qt={qt}");
        }
    }
}

#[test]
fn upi_incremental_equals_bulk_on_workload() {
    let data = dblp::generate(&DblpConfig::tiny());
    let attr = author_fields::INSTITUTION;
    let st = store();
    let mut bulk = DiscreteUpi::create(st.clone(), "bulk", attr, UpiConfig::default()).unwrap();
    bulk.bulk_load(&data.authors).unwrap();
    let mut incr = DiscreteUpi::create(st.clone(), "incr", attr, UpiConfig::default()).unwrap();
    for t in &data.authors {
        incr.insert(t).unwrap();
    }
    assert_eq!(bulk.heap_stats().entries, incr.heap_stats().entries);
    assert_eq!(bulk.cutoff_index().len(), incr.cutoff_index().len());
    for value in [data.popular_institution(), 5, 42] {
        for qt in [0.02, 0.2, 0.6] {
            let truth = scan_truth(&data.authors, attr, value, qt);
            for (name, u) in [("bulk", &bulk), ("incremental", &incr)] {
                assert_eq!(
                    results_to_pairs(&drain_sorted(u.cutoff_merge(value, qt).unwrap())),
                    truth,
                    "{name} value={value} qt={qt}"
                );
            }
        }
    }
}

#[test]
fn deletes_propagate_through_every_path() {
    let data = dblp::generate(&DblpConfig::tiny());
    let attr = author_fields::INSTITUTION;
    let st = store();
    let mut heap = UnclusteredHeap::create(st.clone(), "heap", 8192).unwrap();
    heap.bulk_load(&data.authors).unwrap();
    let mut pii = Pii::create(st.clone(), "pii", attr, 8192).unwrap();
    pii.bulk_load(&data.authors).unwrap();
    let mut upi = DiscreteUpi::create(st.clone(), "upi", attr, UpiConfig::default()).unwrap();
    upi.bulk_load(&data.authors).unwrap();

    // Delete every 7th tuple.
    let mut remaining: Vec<Tuple> = Vec::new();
    for (i, t) in data.authors.iter().enumerate() {
        if i % 7 == 0 {
            heap.delete(t.id).unwrap();
            pii.delete(t).unwrap();
            upi.delete(t).unwrap();
        } else {
            remaining.push(t.clone());
        }
    }
    let value = data.popular_institution();
    for qt in [0.05, 0.3] {
        let truth = scan_truth(&remaining, attr, value, qt);
        assert_eq!(results_to_pairs(&pii.ptq(&heap, value, qt).unwrap()), truth);
        assert_eq!(
            results_to_pairs(&drain_sorted(upi.cutoff_merge(value, qt).unwrap())),
            truth
        );
    }
}
