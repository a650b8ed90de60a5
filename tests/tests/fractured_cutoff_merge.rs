//! Unbounded fractured point probes below the cutoff threshold run
//! Algorithm 2 per component, proven through pool and device counters.
//!
//! At `qt < C` a point PTQ must dereference cutoff pointers. Algorithm 2
//! sorts them into heap key order first, so the fetches sweep each
//! component's heap once; fetching them in confidence order instead
//! seeks at random. These tests build a fractured UPI with a long cutoff
//! list whose targets scatter over every component's heap, with newer
//! fractures suppressing a share of the older rows, and check the
//! executor's unbounded `FracturedProbe` against Algorithm 2 hand-rolled
//! per component from the raw structures (heap run, cutoff scan, sort,
//! fetch):
//!
//! * it reads no more demand pages and pays no more seeks;
//! * it fetches exactly the live pointers — never a suppressed one;
//! * it returns the brute-force answer over a model of the live tuples.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use upi::{DiscreteUpi, FracturedConfig, FracturedUpi, UpiConfig};
use upi_query::{AccessPath, Catalog, PtqQuery};
use upi_storage::codec::quantize_prob;
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_tests::{oracle_on_disk, pairs};
use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

/// The queried primary value.
const QV: u64 = 7;
/// Cutoff threshold: every second alternative below it is a pointer.
const C: f64 = 0.5;

/// A padded tuple whose first alternative `(first_v, 0.55)` is heap
/// resident and whose second `(QV, p)` (p < C) is a cutoff pointer.
fn donor(id: u64, first_v: u64, p: f64) -> Tuple {
    Tuple::new(
        TupleId(id),
        1.0,
        vec![
            Field::Certain(Datum::Str(format!("donor-{id}-{}", "x".repeat(160)))),
            Field::Discrete(DiscretePmf::new(vec![(first_v, 0.55), (QV, p)])),
        ],
    )
}

/// A tuple whose only alternative is `(QV, p)`, p ≥ C: a heap-run row.
fn head(id: u64, p: f64) -> Tuple {
    Tuple::new(
        TupleId(id),
        1.0,
        vec![
            Field::Certain(Datum::Str(format!("head-{id}-{}", "y".repeat(160)))),
            Field::Discrete(DiscretePmf::new(vec![(QV, p)])),
        ],
    )
}

/// Probability of donor `i`'s pointer: spread over (0.01, 0.45) in an
/// order unrelated to where its heap copy lives.
fn pointer_prob(i: u64) -> f64 {
    0.01 + 0.44 * ((i * 7_919) % 1_000) as f64 / 1_000.0
}

/// Heap value of donor `i`'s first alternative: scattered over the heap.
fn first_value(i: u64) -> u64 {
    100 + (i * 104_729) % 5_000
}

struct Fixture {
    store: Store,
    f: FracturedUpi,
    /// Live tuples by id (the model the oracle reads).
    live: BTreeMap<u64, Tuple>,
    /// Per fracture (oldest first): ids it deleted or re-inserted, i.e.
    /// the ids it suppresses in every older component.
    shadows: Vec<HashSet<u64>>,
}

impl Fixture {
    /// Whether `tid` found at component `level` (0 = main) is suppressed
    /// by a newer fracture.
    fn suppressed(&self, tid: u64, level: usize) -> bool {
        self.shadows[level..].iter().any(|s| s.contains(&tid))
    }
}

/// Main: 3000 donors + 120 heap-run rows; fracture 0 deletes every third
/// main donor and adds 1200 donors; fracture 1 deletes every fifth donor
/// of fracture 0 and updates a few main rows. Nothing stays buffered.
fn build() -> Fixture {
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 2 << 20);
    let cfg = UpiConfig {
        cutoff: C,
        page_size: 4096,
        ..UpiConfig::default()
    };
    let mut f = FracturedUpi::create(
        store.clone(),
        "fcm",
        1,
        &[],
        FracturedConfig {
            upi: cfg,
            buffer_ops: 0,
        },
    )
    .unwrap();
    let mut live = BTreeMap::new();
    let mut initial: Vec<Tuple> = (0..3_000)
        .map(|i| donor(i, first_value(i), pointer_prob(i)))
        .collect();
    initial.extend((0..120).map(|i| head(50_000 + i, 0.6 + (i % 37) as f64 / 100.0)));
    f.load_initial(&initial).unwrap();
    live.extend(initial.into_iter().map(|t| (t.id.0, t)));

    let mut shadows = Vec::new();
    let mut shadow = HashSet::new();
    for i in (0..3_000).step_by(3) {
        f.delete(TupleId(i)).unwrap();
        live.remove(&i);
        shadow.insert(i);
    }
    for i in 10_000..11_200 {
        let t = donor(i, first_value(i), pointer_prob(i));
        live.insert(i, t.clone());
        f.insert(t).unwrap();
        shadow.insert(i);
    }
    f.flush().unwrap();
    shadows.push(shadow);

    let mut shadow = HashSet::new();
    for i in (10_000..11_200).step_by(5) {
        f.delete(TupleId(i)).unwrap();
        live.remove(&i);
        shadow.insert(i);
    }
    for i in (1..600).step_by(3) {
        // Update: the old main version is shadowed by this fracture.
        let t = donor(i, first_value(i + 1), pointer_prob(i + 1));
        f.delete(TupleId(i)).unwrap();
        f.insert(t.clone()).unwrap();
        live.insert(i, t);
        shadow.insert(i);
    }
    f.flush().unwrap();
    shadows.push(shadow);
    assert_eq!(f.n_fractures(), 2);
    assert_eq!(f.buffered_ops(), 0);
    Fixture {
        store,
        f,
        live,
        shadows,
    }
}

/// What one Algorithm-2 pass over a component read and fetched.
#[derive(Default)]
struct Alg2 {
    rows: Vec<(u64, f64)>,
    fetches: u64,
    suppressed_pointers: u64,
}

/// Algorithm 2 for one component, from the raw structures: heap seek,
/// the whole qualifying cutoff list, the heap run, then the live
/// pointers fetched in heap key order.
fn algorithm2(upi: &DiscreteUpi, qt: f64, keep: &dyn Fn(u64) -> bool, out: &mut Alg2) {
    let mut run = upi.heap_run(QV, qt).unwrap();
    let mut pointers = upi.cutoff_index().scan(QV, qt).unwrap();
    pointers.sort_unstable_by_key(|cp| {
        (
            cp.first_value,
            u32::MAX - quantize_prob(cp.first_prob),
            cp.tid,
        )
    });
    while let Some(r) = run.next_where(f64::NEG_INFINITY, keep) {
        let r = r.unwrap();
        out.rows.push((r.tuple.id.0, r.confidence));
    }
    for cp in pointers {
        if !keep(cp.tid) {
            out.suppressed_pointers += 1;
            continue;
        }
        out.fetches += 1;
        let t = upi
            .fetch_by_pointer(cp.first_value, cp.first_prob, cp.tid)
            .unwrap()
            .expect("live pointer dereferences");
        out.rows.push((t.id.0, cp.prob));
    }
}

#[test]
fn unbounded_fractured_probe_below_cutoff_is_algorithm2_per_component() {
    let fx = build();
    let st = &fx.store;
    for qt in [0.02, 0.05, 0.2] {
        // Reference: Algorithm 2 per component, cold.
        st.go_cold();
        let pool0 = st.pool.counters();
        let disk0 = st.disk.stats();
        let mut reference = Alg2::default();
        for (level, upi) in fx.f.components().enumerate() {
            let keep = |tid: u64| !fx.suppressed(tid, level);
            algorithm2(upi, qt, &keep, &mut reference);
        }
        let ref_pool = st.pool.counters().since(&pool0);
        let ref_disk = st.disk.stats().since(&disk0);
        assert!(
            reference.fetches > 500,
            "qt={qt}: the fixture must fetch a long cutoff list, got {}",
            reference.fetches
        );
        assert!(reference.suppressed_pointers > 100, "qt={qt}");

        // The executor's unbounded FracturedProbe, cold (planning first:
        // its hint resolution touches internal pages).
        let catalog = Catalog::new(st.disk.config())
            .with_fractured(&fx.f)
            .with_pool(&st.pool);
        let plan = PtqQuery::eq(1, QV).with_qt(qt).plan(&catalog).unwrap();
        assert_eq!(plan.path(), &AccessPath::FracturedProbe);
        st.go_cold();
        let out = plan.execute(&catalog).unwrap();
        let io = out.io.unwrap();
        let device = out.device.unwrap();

        assert!(
            io.demand_pages() <= ref_pool.demand_pages(),
            "qt={qt}: FracturedProbe read {} demand pages vs {} for per-component \
             Algorithm 2",
            io.demand_pages(),
            ref_pool.demand_pages()
        );
        assert!(
            device.seeks <= ref_disk.seeks,
            "qt={qt}: FracturedProbe paid {} seeks vs {} for per-component Algorithm 2",
            device.seeks,
            ref_disk.seeks
        );

        // Suppressed pointers are dropped before any fetch: the probe
        // fetches exactly the live pointers.
        let trace = out.trace.as_ref().unwrap();
        let fetches: u64 = trace
            .spans
            .iter()
            .filter(|s| s.label.starts_with("Component#"))
            .map(|s| s.stats.unwrap().pointer_fetches)
            .sum();
        assert_eq!(fetches, reference.fetches, "qt={qt}");

        // And the answer is the brute-force one.
        let want = oracle_on_disk(fx.live.values(), 1, QV, QV, qt);
        let got = pairs(&out.rows);
        assert_eq!(got.len(), want.len(), "qt={qt}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0, "qt={qt}");
            assert!((g.1 - w.1).abs() < 1e-9, "qt={qt}");
        }
        let mut ref_rows = reference.rows;
        ref_rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(ref_rows, want, "qt={qt}: the hand-rolled reference drifted");
    }
}
