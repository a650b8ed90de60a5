//! Semantic oracle: the confidences the indexes report must equal the
//! possible-worlds probabilities (§1 of the paper), computed by exhaustive
//! enumeration on small tables.

use std::sync::Arc;

use upi::{DiscreteUpi, Pii, UnclusteredHeap, UpiConfig};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::worlds::{confidence_from_worlds, enumerate_worlds};
use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
}

/// A small randomized-but-deterministic uncertain table.
fn tiny_table(seed: u64, n: usize) -> Vec<Tuple> {
    let mut state = seed | 1;
    let mut unif = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let exist = 0.5 + unif() * 0.5;
            let k = 1 + (unif() * 3.0) as usize;
            let mut rem = 1.0;
            let mut alts = Vec::new();
            for j in 0..k {
                let p = if j == k - 1 {
                    rem * (0.3 + unif() * 0.7)
                } else {
                    rem * (0.2 + unif() * 0.5)
                };
                alts.push(((i as u64 * 4 + j as u64) % 6, p.max(1e-4)));
                rem -= p;
            }
            // Value ids may collide across j; dedupe by summing.
            let mut merged: Vec<(u64, f64)> = Vec::new();
            for (v, p) in alts {
                match merged.iter_mut().find(|(mv, _)| *mv == v) {
                    Some((_, mp)) => *mp += p,
                    None => merged.push((v, p)),
                }
            }
            Tuple::new(
                TupleId(i as u64),
                exist,
                vec![
                    Field::Certain(Datum::Str(format!("t{i}"))),
                    Field::Discrete(DiscretePmf::new(merged)),
                ],
            )
        })
        .collect()
}

#[test]
fn index_confidences_equal_world_mass() {
    for seed in [3, 17, 99] {
        let tuples = tiny_table(seed, 7);
        let worlds = enumerate_worlds(&tuples.to_vec(), 1);
        let st = store();
        let mut upi =
            DiscreteUpi::create(st.clone(), &format!("u{seed}"), 1, UpiConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut heap = UnclusteredHeap::create(st.clone(), &format!("h{seed}"), 8192).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut pii = Pii::create(st.clone(), &format!("p{seed}"), 1, 8192).unwrap();
        pii.bulk_load(&tuples).unwrap();

        for value in 0..6u64 {
            let from_upi: Vec<upi::PtqResult> = upi
                .cutoff_merge(value, 0.0)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            let from_pii = pii.ptq(&heap, value, 0.0).unwrap();
            assert_eq!(from_upi.len(), from_pii.len());
            for r in &from_upi {
                let oracle = confidence_from_worlds(&tuples, &worlds, r.tuple.id, value);
                assert!(
                    (r.confidence - oracle).abs() < 1e-6,
                    "seed={seed} value={value} tuple={:?}: index says {}, \
                     worlds say {oracle}",
                    r.tuple.id,
                    r.confidence
                );
            }
        }
    }
}

#[test]
fn threshold_filter_matches_world_semantics() {
    let tuples = tiny_table(7, 6);
    let worlds = enumerate_worlds(&tuples, 1);
    let st = store();
    let mut upi = DiscreteUpi::create(st.clone(), "u", 1, UpiConfig::default()).unwrap();
    upi.bulk_load(&tuples).unwrap();
    for value in 0..6u64 {
        for qt in [0.05, 0.25, 0.6] {
            let got: Vec<u64> = upi
                .cutoff_merge(value, qt)
                .unwrap()
                .map(|r| r.unwrap().tuple.id.0)
                .collect();
            for t in &tuples {
                let oracle = confidence_from_worlds(&tuples, &worlds, t.id, value);
                let should_match = oracle >= qt + 1e-9;
                let does = got.contains(&t.id.0);
                // Quantization can flip results exactly at the threshold;
                // allow the boundary band.
                if (oracle - qt).abs() > 1e-6 {
                    assert_eq!(
                        should_match, does,
                        "value={value} qt={qt} tuple={:?} oracle={oracle}",
                        t.id
                    );
                }
            }
        }
    }
}
