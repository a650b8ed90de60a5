//! Unit costs of single layers, measured by the traced run after its
//! measured loop (so probing cannot change what the loop measured).
//!
//! Each cost times a call into one layer's public functions: the
//! planner (`UncertainDb::plan`), the executor (`PhysicalPlan::execute`),
//! the UPI's core cursors (`point_run`, `range_run`, `secondary_run`,
//! `ptq_run`), the B+Tree (`BTree::seek`, `Cursor::advance`), tuple
//! decoding (`decode_tuple`), and the sharded facade against its own
//! shards (`ShardedDb::query` vs `UncertainDb::query`). Every probe runs
//! once untimed first, so the timed call sees a warm pool.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use upi::CursorStats;
use upi_btree::BTree;
use upi_query::UncertainDb;
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{decode_tuple, encode_tuple, Tuple};

use crate::trace::Tracer;
use crate::workloads::{Built, Query, Shape, System};

/// Queries of the stream the probes replay.
const PROBE_QUERIES: usize = 300;
/// B+Tree seeks timed.
const BTREE_SEEKS: usize = 20_000;
/// Tuples whose decoding is timed.
const DECODE_SAMPLE: usize = 20_000;

#[derive(Default)]
pub struct LayerCosts {
    pub plan_us: Vec<f64>,
    pub execute_us: Vec<f64>,
    /// Execute time minus the drain of the shape's core cursor.
    pub exec_self_us: Vec<f64>,
    pub candidates_per_q: f64,
    pub cursor_us: BTreeMap<Shape, Vec<f64>>,
    /// Whether the table is fractured (churn_sharded).
    pub fractured: bool,
    pub fractured_point_us: Vec<f64>,
    pub shard_overhead_us: Vec<f64>,
    /// Source-root cursor counters of the shard-level probe queries
    /// (the sharded facade's own trace carries row counts only).
    pub cursor: CursorStats,
    pub cursor_queries: f64,
    pub btree_seek_us: f64,
    pub btree_advance_ns: f64,
    /// Leaf-chain walk time per page visited: the price `btree.share`
    /// puts on each page a query visits.
    pub btree_page_us: f64,
    pub decode_ns: f64,
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Drain the core cursor that serves `query`'s shape; returns the rows
/// it produced (0 when the shape has no core cursor on this layout).
fn drain(db: &UncertainDb, query: &Query) -> usize {
    let v = query.value;
    let qt = query.shape.qt();
    let hi = match query.q.predicate {
        upi_query::Predicate::Range { hi, .. } => hi,
        _ => v,
    };
    let k = Shape::TOP_K;
    let table = db.table();
    if let Some(upi) = table.as_upi() {
        let rows = match query.shape {
            Shape::PointHi | Shape::PointMid | Shape::PointLo => {
                upi.point_run(v, qt, None).map(|c| c.count())
            }
            Shape::TopK => upi.point_run(v, qt, Some(k)).map(|c| c.take(k).count()),
            Shape::Range => upi.range_run(v, hi, qt).map(|c| c.count()),
            Shape::Secondary => upi
                .secondary_run(0, v, qt, true, Some(k))
                .map(|c| c.take(k).count()),
        };
        rows.expect("core cursor opens")
    } else if let Some(f) = table.as_fractured() {
        let rows = match query.shape {
            Shape::PointHi | Shape::PointMid | Shape::PointLo => {
                f.ptq_run(v, qt, None).map(|c| c.count())
            }
            Shape::TopK => f.ptq_run(v, qt, Some(k)).map(|c| c.take(k).count()),
            Shape::Range => f.range_run(v, hi, qt).map(|c| c.count()),
            Shape::Secondary => f
                .secondary_run(0, v, qt, true, Some(k))
                .map(|c| c.take(k).count()),
        };
        rows.expect("core cursor opens")
    } else {
        0
    }
}

/// Plan, execute and drain one query on one session.
fn probe_session(db: &UncertainDb, query: &Query, c: &mut LayerCosts, tracer: &mut Tracer, i: u64) {
    let root = Tracer::root();
    let span = tracer.open("probe", &root, i);
    // Warm: every structure the query touches is in the pool.
    let plan = db.plan(&query.q).expect("probe plans");
    plan.execute(&db.catalog()).expect("probe executes");
    black_box(drain(db, query));

    let t = Instant::now();
    let plan = tracer.span("planner.plan", &span, i, || db.plan(&query.q));
    c.plan_us.push(micros(t));
    let plan = plan.expect("probe plans");
    c.candidates_per_q += plan.candidates.len() as f64;
    let catalog = db.catalog();
    let t = Instant::now();
    let out = tracer.span("exec.execute", &span, i, || plan.execute(&catalog));
    let exec = micros(t);
    black_box(out.expect("probe executes"));
    let t = Instant::now();
    black_box(tracer.span("upi.cursor", &span, i, || drain(db, query)));
    let cursor = micros(t);
    tracer.close(span);
    c.execute_us.push(exec);
    c.exec_self_us.push(exec - cursor);
    c.cursor_us.entry(query.shape).or_default().push(cursor);
    if c.fractured && matches!(query.shape, Shape::PointHi | Shape::PointLo) {
        c.fractured_point_us.push(cursor);
    }
}

/// Measure every unit cost for the built system.
pub fn measure(b: &Built, tracer: &mut Tracer) -> LayerCosts {
    let mut c = LayerCosts::default();
    let probes: Vec<&Query> = b.queries.iter().take(PROBE_QUERIES).collect();
    match &b.system {
        System::Single(db) => {
            for (i, q) in probes.iter().enumerate() {
                probe_session(db, q, &mut c, tracer, i as u64);
            }
        }
        System::Sharded(sharded) => {
            c.fractured = true;
            let root = Tracer::root();
            for (i, q) in probes.iter().enumerate() {
                let i = i as u64;
                // Planner, executor and cursor on the first shard.
                probe_session(&sharded.shards()[0], q, &mut c, tracer, i);
                black_box(sharded.query(&q.q).expect("probe query"));
                let t = Instant::now();
                let out = tracer.span("shard.query", &root, i, || sharded.query(&q.q));
                let whole = micros(t);
                black_box(out.expect("probe query"));
                let mut slowest = 0.0f64;
                for s in sharded.shards() {
                    let t = Instant::now();
                    let out = tracer.span("shard.session_query", &root, i, || s.query(&q.q));
                    slowest = slowest.max(micros(t));
                    let out = out.expect("probe shard query");
                    if let Some(stats) = out
                        .trace
                        .as_ref()
                        .and_then(|t| t.spans.iter().find(|s| s.est_ms.is_some()))
                        .and_then(|s| s.stats)
                    {
                        c.cursor = c.cursor.merged(stats);
                    }
                }
                c.cursor_queries += 1.0;
                c.shard_overhead_us.push(whole - slowest);
            }
        }
    }
    c.candidates_per_q /= probes.len().max(1) as f64;
    let root = Tracer::root();
    tracer.span("btree.unit_costs", &root, 0, || {
        btree_costs(&b.sample, &mut c)
    });
    tracer.span("tuple.unit_costs", &root, 0, || {
        decode_cost(&b.sample, &mut c)
    });
    c
}

/// Time seeks and leaf-chain advances on a warm B+Tree holding as many
/// entries as the workload's table, each the size of one of its tuples.
fn btree_costs(sample: &[Tuple], c: &mut LayerCosts) {
    let records: Vec<Vec<u8>> = sample.iter().map(encode_tuple).collect();
    let bytes: usize = records.iter().map(|r| r.len() + 16).sum();
    let store = Store::new(
        Arc::new(SimDisk::new(DiskConfig::default())),
        2 * bytes + (8 << 20),
    );
    let tree_pool = store.pool.clone();
    let mut tree = BTree::create(store, "unit.btree", 8192).expect("create B+Tree");
    let n = records.len() as u64;
    tree.bulk_load(
        records
            .into_iter()
            .enumerate()
            .map(|(i, r)| ((i as u64).to_be_bytes().to_vec(), r)),
    )
    .expect("bulk-load B+Tree");
    // A fixed key sequence (multiplicative hashing over the key space).
    let keys: Vec<[u8; 8]> = (0..BTREE_SEEKS as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n.max(1)).to_be_bytes())
        .collect();
    let walk = |tree: &BTree| {
        let mut cur = tree.first().expect("open leaf chain");
        let mut steps = 0u64;
        while cur.valid() {
            cur.advance().expect("advance");
            steps += 1;
        }
        steps
    };
    for k in &keys {
        black_box(tree.seek(k).expect("seek").valid());
    }
    black_box(walk(&tree));
    let t = Instant::now();
    for k in &keys {
        black_box(tree.seek(black_box(k)).expect("seek").valid());
    }
    c.btree_seek_us = micros(t) / keys.len() as f64;
    let pool = tree_pool.counters();
    let t = Instant::now();
    let steps = black_box(walk(&tree));
    let walk_us = micros(t);
    let visits = tree_pool.counters().since(&pool);
    c.btree_advance_ns = walk_us * 1e3 / steps.max(1) as f64;
    c.btree_page_us = walk_us / (visits.hits + visits.misses).max(1) as f64;
}

/// Time `decode_tuple` over the workload's own encoded tuples.
fn decode_cost(sample: &[Tuple], c: &mut LayerCosts) {
    let encoded: Vec<Vec<u8>> = sample
        .iter()
        .take(DECODE_SAMPLE)
        .map(encode_tuple)
        .collect();
    for e in &encoded {
        black_box(decode_tuple(e));
    }
    let t = Instant::now();
    for e in &encoded {
        black_box(decode_tuple(black_box(e)));
    }
    c.decode_ns = micros(t) * 1e3 / encoded.len().max(1) as f64;
}
