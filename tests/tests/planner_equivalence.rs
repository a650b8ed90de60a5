//! Planner equivalence oracle: on randomized uncertain tables, the
//! planner-chosen plan must return a result set identical to EVERY
//! alternative access path — point, secondary, range, top-k, and
//! group-count query shapes, across an unclustered-heap + PII baseline, a
//! discrete UPI with a secondary index, and a fractured UPI holding the
//! same rows.
//!
//! The cutoff-merge oracle covers the below-cutoff shapes (`qt < C`:
//! Algorithm 2's heap run plus cutoff pointers, unbounded and top-k) on
//! the clustered and the fractured layout, each planned and executed on
//! a cold pool and again on a fully warmed one — residency changes the
//! prices and so the chosen path, never the answer, which must equal the
//! brute-force oracle.
//!
//! The last oracle is **suppression-heavy**: randomized fractured
//! tables built from interleaved inserts, deletes, and updates across
//! 1–4 fracture events (with an optionally live insert buffer), where
//! the facade, every forced fractured path (including the
//! watermark-bounded top-k merge), and a forced full scan of the live
//! row set must agree on ptq / range / secondary / top-k result sets.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

use upi::{
    DiscreteUpi, FracturedConfig, FracturedUpi, Pii, TableLayout, UnclusteredHeap, UpiConfig,
};
use upi_query::{Catalog, PhysicalPlan, PtqQuery, QueryOutput, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_tests::oracle_on_disk;
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

/// A random PMF over a small value domain, deduped and normalized.
fn pmf_strategy(domain: u64) -> impl Strategy<Value = DiscretePmf> {
    proptest::collection::vec((0u64..domain, 0.01f64..1.0), 1..4).prop_map(|raw| {
        let mut alts: Vec<(u64, f64)> = Vec::new();
        for (v, w) in raw {
            match alts.iter_mut().find(|(av, _)| *av == v) {
                Some((_, aw)) => *aw += w,
                None => alts.push((v, w)),
            }
        }
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        let scale = 0.999 / total.max(1.0);
        DiscretePmf::new(
            alts.into_iter()
                .map(|(v, w)| (v, (w * scale).max(1e-6)))
                .collect(),
        )
    })
}

fn tuple_strategy(id: u64) -> impl Strategy<Value = Tuple> {
    (0.05f64..=1.0, pmf_strategy(8), pmf_strategy(6)).prop_map(move |(exist, prim, sec)| {
        Tuple::new(
            TupleId(id),
            exist,
            vec![
                Field::Certain(Datum::U64(id % 4)),
                Field::Discrete(prim),
                Field::Discrete(sec),
            ],
        )
    })
}

fn table_strategy() -> impl Strategy<Value = Vec<Tuple>> {
    (1usize..30).prop_flat_map(|n| (0..n as u64).map(tuple_strategy).collect::<Vec<_>>())
}

/// A tuple with a random id from a small domain, so later rounds update
/// (same id, newer component shadows) or revive (delete then re-insert)
/// earlier rows as often as they add fresh ones.
fn any_tuple_strategy() -> impl Strategy<Value = Tuple> {
    (0u64..40).prop_flat_map(tuple_strategy)
}

/// One maintenance round: tuples to insert/update, then ids to delete.
/// Each round ends in a fracture event (flush), except possibly the last.
fn rounds_strategy() -> impl Strategy<Value = Vec<(Vec<Tuple>, Vec<u64>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any_tuple_strategy(), 0..8),
            proptest::collection::vec(0u64..40, 0..6),
        ),
        1..=4,
    )
}

/// Comparable fingerprint: the group table, or sorted `(tid, confidence)`.
fn fingerprint(out: &QueryOutput) -> Vec<(u64, u64)> {
    match &out.groups {
        Some(g) => g.clone(),
        None => {
            let mut rows: Vec<(u64, u64)> = out
                .rows
                .iter()
                .map(|r| (r.tuple.id.0, (r.confidence * 1e9).round() as u64))
                .collect();
            rows.sort_unstable();
            rows
        }
    }
}

/// Check `q`'s planned and every forced path against the brute-force
/// `want` (`(tid, confidence)`, canonical order): unbounded queries must
/// return exactly `want`; top-k queries `want`'s k best confidences, each
/// row one of `want`'s. Returns the chosen path's label.
fn check_against_oracle(
    q: &PtqQuery,
    catalog: &Catalog<'_>,
    want: &[(u64, f64)],
    regime: &str,
) -> Result<String, String> {
    let plan = q.plan(catalog).unwrap();
    let mut paths = vec![plan.clone()];
    for cand in &plan.candidates {
        paths.push(PhysicalPlan {
            query: q.clone(),
            candidates: vec![cand.clone()],
        });
    }
    for p in paths {
        let out = p.execute(catalog).unwrap();
        let mut got: Vec<(u64, f64)> = out
            .rows
            .iter()
            .map(|r| (r.tuple.id.0, r.confidence))
            .collect();
        got.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        match q.top_k {
            None => prop_assert_eq!(
                &got,
                &want.to_vec(),
                "{} {:?}: path {} (planner chose {})",
                regime,
                q,
                p.path().label(),
                plan.path().label()
            ),
            Some(k) => {
                let confs: Vec<f64> = got.iter().map(|r| r.1).collect();
                let best: Vec<f64> = want.iter().take(k).map(|r| r.1).collect();
                prop_assert_eq!(
                    &confs,
                    &best,
                    "{} {:?}: path {}",
                    regime,
                    q,
                    p.path().label()
                );
                prop_assert!(got.iter().all(|r| want.contains(r)));
            }
        }
    }
    Ok(plan.path().label())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cutoff_merge_shapes_cold_and_warm(
        seed_rows in table_strategy(),
        copies in 1u64..48,
        cutoff in 0.2f64..=0.8,
        qt_frac in 0.0f64..1.0,
        value in 0u64..8,
        k in 1usize..5,
        layout in 0u8..2,
    ) {
        let st = store();
        let cfg = UpiConfig { cutoff, ..UpiConfig::default() };
        let qt = qt_frac * cutoff; // < C: the cutoff merge runs
        // Replicate the rows under fresh ids: tables from one heap page up
        // to a few hundred, so the scan and the cutoff merge trade places
        // between the cold and the warm prices.
        let tuples: Vec<Tuple> = (0..copies)
            .flat_map(|c| {
                seed_rows.iter().map(move |t| {
                    let mut t = t.clone();
                    t.id = TupleId(c * 64 + t.id.0);
                    (t.id.0, t)
                })
            })
            .collect::<BTreeMap<u64, Tuple>>()
            .into_values()
            .collect();

        let upi;
        let fractured;
        let heap;
        let catalog = if layout == 1 {
            // Two on-disk components, so each drains Algorithm 2 in turn.
            let mut f = FracturedUpi::create(
                st.clone(),
                "frac",
                1,
                &[2],
                FracturedConfig { upi: cfg, buffer_ops: 0 },
            )
            .unwrap();
            let half = tuples.len() / 2;
            f.load_initial(&tuples[..half]).unwrap();
            for t in &tuples[half..] {
                f.insert(t.clone()).unwrap();
            }
            f.flush().unwrap();
            fractured = f;
            // A scan alternative over the same rows.
            let mut h = UnclusteredHeap::create(st.clone(), "heap", 4096).unwrap();
            h.bulk_load(&tuples).unwrap();
            heap = h;
            Catalog::new(st.disk.config())
                .with_fractured(&fractured)
                .with_heap(&heap)
        } else {
            let mut u = DiscreteUpi::create(st.clone(), "upi", 1, cfg).unwrap();
            u.bulk_load(&tuples).unwrap();
            upi = u;
            Catalog::new(st.disk.config()).with_upi(&upi)
        }
        .with_pool(&st.pool);

        let want = oracle_on_disk(&tuples, 1, value, value, qt);
        let queries = [
            PtqQuery::eq(1, value).with_qt(qt),
            PtqQuery::eq(1, value).with_qt(qt).with_top_k(k),
        ];
        for q in &queries {
            st.go_cold();
            check_against_oracle(q, &catalog, &want, "cold")?;
            // The checks above read every structure the candidates touch,
            // and the pool holds them all: the second pass plans warm.
            check_against_oracle(q, &catalog, &want, "warm")?;
        }
    }

    #[test]
    fn planner_equals_every_forced_path(
        tuples in table_strategy(),
        cutoff in 0.0f64..=0.8,
        value in 0u64..8,
        sec_value in 0u64..6,
        qt in 0.0f64..=0.9,
        lo in 0u64..8,
        width in 0u64..4,
    ) {
        let st = store();
        let cfg = UpiConfig { cutoff, ..UpiConfig::default() };

        let mut heap = UnclusteredHeap::create(st.clone(), "heap", 4096).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut pii_prim = Pii::create(st.clone(), "pii1", 1, 4096).unwrap();
        pii_prim.bulk_load(&tuples).unwrap();
        let mut pii_sec = Pii::create(st.clone(), "pii2", 2, 4096).unwrap();
        pii_sec.bulk_load(&tuples).unwrap();

        let mut upi = DiscreteUpi::create(st.clone(), "upi", 1, cfg).unwrap();
        upi.add_secondary(2).unwrap();
        upi.bulk_load(&tuples).unwrap();

        // Same rows as main-load + buffered inserts + one flush, so the
        // fractured paths run over multiple components.
        let mut fractured = FracturedUpi::create(
            st.clone(),
            "frac",
            1,
            &[2],
            FracturedConfig { upi: cfg, buffer_ops: 0 },
        )
        .unwrap();
        let half = tuples.len() / 2;
        fractured.load_initial(&tuples[..half]).unwrap();
        for t in &tuples[half..] {
            fractured.insert(t.clone()).unwrap();
        }
        if !tuples[half..].is_empty() {
            fractured.flush().unwrap();
        }

        let catalog = Catalog::new(st.disk.config())
            .with_upi(&upi)
            .with_fractured(&fractured)
            .with_heap(&heap)
            .with_pii(&pii_prim)
            .with_pii(&pii_sec);

        // Facade oracle: the same rows behind the planner-first facade.
        // Every query below must come back identical to the reference the
        // manual catalog produces — i.e. the facade's plan() → execute()
        // pipeline is just another (always-planned) path to the same
        // answer.
        let mut facade = UncertainDb::create(
            st.clone(),
            "facade",
            Schema::new(vec![
                ("g", FieldKind::U64),
                ("prim", FieldKind::Discrete),
                ("sec", FieldKind::Discrete),
            ]),
            1,
            TableLayout::Upi(cfg),
        )
        .unwrap();
        facade.add_secondary(2).unwrap();
        facade.load(&tuples).unwrap();

        let queries = vec![
            PtqQuery::eq(1, value).with_qt(qt),
            PtqQuery::eq(2, sec_value).with_qt(qt),
            // Top-k on the clustered attribute: exercises the
            // confidence-ordered UpiPointMerge / FracturedMerge early
            // termination against every batch-ish alternative.
            PtqQuery::eq(1, value).with_qt(qt).with_top_k(3),
            PtqQuery::eq(1, value).with_top_k(1),
            // Top-k through the secondary probes: exercises the entry-run
            // limit pushdown (standalone) and the per-component
            // post-suppression limit (fractured).
            PtqQuery::eq(2, sec_value).with_qt(qt).with_top_k(2),
            PtqQuery::range(1, lo, (lo + width).min(7)).with_qt(qt),
            // Top-k over a range: no sound early exit (alternatives sum),
            // but the streaming UpiRange/FracturedMerge sources must agree
            // with every other path after the sink sorts.
            PtqQuery::range(1, lo, (lo + width).min(7))
                .with_qt(qt)
                .with_top_k(4),
            PtqQuery::range(1, lo, (lo + width).min(7))
                .with_qt(qt)
                .with_group_count(0),
        ];
        for q in queries {
            let plan = q.plan(&catalog).unwrap();
            let reference = fingerprint(&plan.execute(&catalog).unwrap());
            let via_facade = fingerprint(&facade.query(&q).unwrap());
            prop_assert_eq!(
                &via_facade,
                &reference,
                "query {:?}: facade (chose {}) disagrees with the manual \
                 catalog's planner choice {}",
                q,
                facade.plan(&q).unwrap().path().label(),
                plan.path().label()
            );
            for cand in &plan.candidates {
                let forced = PhysicalPlan {
                    query: q.clone(),
                    candidates: vec![cand.clone()],
                };
                let got = fingerprint(&forced.execute(&catalog).unwrap());
                prop_assert_eq!(
                    &got,
                    &reference,
                    "query {:?}: path {} disagrees with planner choice {}",
                    q,
                    cand.path.label(),
                    plan.path().label()
                );
            }
        }
    }

    #[test]
    fn suppression_heavy_fractured_oracle(
        initial in table_strategy(),
        rounds in rounds_strategy(),
        flush_last_bit in 0u8..2,
        cutoff in 0.0f64..=0.8,
        value in 0u64..8,
        sec_value in 0u64..6,
        qt in 0.0f64..=0.9,
        k in 1usize..6,
        lo in 0u64..8,
        width in 0u64..4,
    ) {
        let st = store();
        let cfg = UpiConfig { cutoff, ..UpiConfig::default() };

        // The structure under test: a fractured UPI taking the full
        // insert/delete/update history, one fracture event per round.
        let mut fractured = FracturedUpi::create(
            st.clone(),
            "frac",
            1,
            &[2],
            FracturedConfig { upi: cfg, buffer_ops: 0 },
        )
        .unwrap();

        // The same history through the planner-first facade. Its
        // secondary is added *after* load + first flush below, so the
        // cross-component backfill path is exercised against the
        // declared-at-creation secondary of `fractured`.
        let mut facade = UncertainDb::create(
            st.clone(),
            "facade",
            Schema::new(vec![
                ("g", FieldKind::U64),
                ("prim", FieldKind::Discrete),
                ("sec", FieldKind::Discrete),
            ]),
            1,
            TableLayout::FracturedUpi(FracturedConfig { upi: cfg, buffer_ops: 0 }),
        )
        .unwrap();

        // Model of the live row set (the scan ground truth).
        let mut model: BTreeMap<u64, Tuple> = BTreeMap::new();

        fractured.load_initial(&initial).unwrap();
        facade.load(&initial).unwrap();
        for t in &initial {
            model.insert(t.id.0, t.clone());
        }
        fractured.flush().unwrap();
        facade.flush().unwrap();
        facade.add_secondary(2).unwrap();

        let n_rounds = rounds.len();
        for (i, (inserts, deletes)) in rounds.into_iter().enumerate() {
            for t in inserts {
                fractured.insert(t.clone()).unwrap();
                facade.insert_tuple(&t).unwrap();
                model.insert(t.id.0, t);
            }
            for id in deletes {
                // Deleting an absent id buffers a (harmless) delete-set
                // entry in both structures; the model just ignores it.
                if let Some(old) = model.remove(&id) {
                    fractured.delete(TupleId(id)).unwrap();
                    facade.delete(&old).unwrap();
                } else {
                    fractured.delete(TupleId(id)).unwrap();
                    facade.delete(&Tuple::new(
                        TupleId(id),
                        1.0,
                        vec![
                            Field::Certain(Datum::U64(0)),
                            Field::Discrete(DiscretePmf::certain(0)),
                            Field::Discrete(DiscretePmf::certain(0)),
                        ],
                    )).unwrap();
                }
            }
            if i + 1 < n_rounds || flush_last_bit == 1 {
                fractured.flush().unwrap();
                facade.flush().unwrap();
            }
        }

        // Ground truth: a full scan over exactly the live rows.
        let live: Vec<Tuple> = model.values().cloned().collect();
        let mut heap = UnclusteredHeap::create(st.clone(), "live", 4096).unwrap();
        heap.bulk_load(&live).unwrap();

        let catalog = Catalog::new(st.disk.config())
            .with_fractured(&fractured)
            .with_heap(&heap);

        let hi = (lo + width).min(7);
        let queries = vec![
            PtqQuery::eq(1, value).with_qt(qt),
            // Watermark-bounded fracture-parallel top-k vs the scan.
            PtqQuery::eq(1, value).with_qt(qt).with_top_k(k),
            PtqQuery::eq(1, value).with_top_k(1),
            PtqQuery::eq(2, sec_value).with_qt(qt),
            PtqQuery::eq(2, sec_value).with_qt(qt).with_top_k(k),
            PtqQuery::range(1, lo, hi).with_qt(qt),
            PtqQuery::range(1, lo, hi).with_qt(qt).with_top_k(k),
        ];
        for q in queries {
            let plan = q.plan(&catalog).unwrap();
            let reference = fingerprint(&plan.execute(&catalog).unwrap());
            let via_facade = fingerprint(&facade.query(&q).unwrap());
            prop_assert_eq!(
                &via_facade,
                &reference,
                "query {:?}: facade (chose {}) disagrees with the manual \
                 catalog's planner choice {}",
                q,
                facade.plan(&q).unwrap().path().label(),
                plan.path().label()
            );
            for cand in &plan.candidates {
                let forced = PhysicalPlan {
                    query: q.clone(),
                    candidates: vec![cand.clone()],
                };
                let got = fingerprint(&forced.execute(&catalog).unwrap());
                prop_assert_eq!(
                    &got,
                    &reference,
                    "query {:?}: path {} disagrees with planner choice {} \
                     ({} fractures, {} buffered ops)",
                    q,
                    cand.path.label(),
                    plan.path().label(),
                    fractured.n_fractures(),
                    fractured.buffered_ops()
                );
            }
        }
    }
}
