//! The three workloads: set-up, the measured closed loop, the checks,
//! and the metrics each run reports.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{CursorStats, FracturedConfig, ShardLayout, TableLayout, UpiConfig};
use upi_query::{PtqQuery, QueryError, QueryOutput, ShardedDb, UncertainDb};
use upi_storage::{DiskConfig, IoStats, PoolCounters, SimDisk, Store};
use upi_uncertain::{Tuple, TupleId, Zipf};
use upi_workloads::dblp::{self, DblpConfig, DblpData};

use crate::layers::{self, LayerCosts};
use crate::oracle::Model;
use crate::stats::{mean, peak_rss_mb, quantile, ratio, RunResult};
use crate::trace::Tracer;
use crate::Args;

/// The uncertain attribute every UPI clusters on (Author and
/// Publication tables alike).
const INSTITUTION: usize = dblp::author_fields::INSTITUTION;
/// The secondary attribute (cold_mixed's tailored secondary index).
const COUNTRY: usize = dblp::author_fields::COUNTRY;
/// Cutoff threshold `C` of every UPI.
const CUTOFF: f64 = 0.1;
/// Zipf exponent of the query stream's institution and country choice.
const QUERY_SKEW: f64 = 0.6;
/// Times the set-up runs in one invocation; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Queries between two `recalibrate()` calls, as a long-lived session
/// would make them.
const RECALIBRATE_EVERY: usize = 500;

// churn_sharded's write path.
const SHARDS: usize = 2;
/// DML operations per committed batch.
const OPS_PER_ROUND: usize = 8;
/// Queries after each committed batch.
const QUERIES_PER_ROUND: usize = 4;
/// Rounds between two `flush` + `maintenance_tick` passes.
const MAINTAIN_EVERY: usize = 50;
/// Rounds between two checkpoints.
const CHECKPOINT_EVERY: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WarmPoint,
    ColdMixed,
    ChurnSharded,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmPoint,
        Workload::ColdMixed,
        Workload::ChurnSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmPoint => "warm_point",
            Workload::ColdMixed => "cold_mixed",
            Workload::ChurnSharded => "churn_sharded",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, and the layer it isolates.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WarmPoint => {
                "Pool larger than the table and warmed, so device ms are 0 and every \
                 microsecond is planner, executor, cursor, B-tree node and tuple-decode CPU."
            }
            Workload::ColdMixed => {
                "Pool about 12x smaller than the table, so queries are bound by the device \
                 through seeks, read-ahead, plan choice and below-cutoff pointer fetches."
            }
            Workload::ChurnSharded => {
                "Writes beside reads on a durable fractured table over 2 shards: WAL group \
                 commit, fracture flush, maintenance, scatter-gather top-k and recovery."
            }
        }
    }

    fn spec(self) -> Spec {
        match self {
            Workload::WarmPoint => Spec {
                authors: 30_000,
                publications: 0,
                pool_bytes: 128 << 20,
                shapes: &[
                    (Shape::PointHi, 3),
                    (Shape::PointMid, 2),
                    (Shape::TopK, 2),
                    (Shape::PointLo, 1),
                    (Shape::Range, 1),
                ],
                queries_per_second: 2_000,
            },
            Workload::ColdMixed => Spec {
                authors: 30_000,
                publications: 60_000,
                pool_bytes: 8 << 20,
                shapes: &[
                    (Shape::PointHi, 3),
                    (Shape::PointMid, 2),
                    (Shape::TopK, 2),
                    (Shape::PointLo, 1),
                    (Shape::Range, 1),
                    (Shape::Secondary, 1),
                ],
                queries_per_second: 1_600,
            },
            Workload::ChurnSharded => Spec {
                authors: 30_000,
                publications: 0,
                pool_bytes: 8 << 20,
                shapes: &[
                    (Shape::PointHi, 1),
                    (Shape::PointLo, 1),
                    (Shape::TopK, 1),
                    (Shape::Range, 1),
                ],
                queries_per_second: 330,
            },
        }
    }
}

/// A workload's fixed parameters.
struct Spec {
    authors: usize,
    publications: usize,
    /// Buffer pool of each store.
    pool_bytes: usize,
    /// Query shapes the stream mixes, with their weights (see
    /// [`query_stream`]). The cheap point shapes carry most of the
    /// weight, so the median query falls inside their cluster instead of
    /// on the edge between two clusters.
    shapes: &'static [(Shape, u32)],
    /// Queries a run sends per `--seconds`. A run measures a fixed
    /// count, so simulated device ms and work counters repeat exactly
    /// for a seed; the count is sized to take about `--seconds` on a
    /// 2-core x86-64 host.
    queries_per_second: u64,
}

/// The query shapes of the mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Shape {
    /// Equality above the cutoff (qt 0.5): a clustered heap run.
    PointHi,
    /// Equality at qt 0.2.
    PointMid,
    /// Equality below the cutoff (qt 0.05 < C): heap run plus cutoff
    /// pointers.
    PointLo,
    /// The 10 most confident rows for a value.
    TopK,
    /// A 3-value range at qt 0.3.
    Range,
    /// Top-10 through the tailored country secondary index.
    Secondary,
}

impl Shape {
    pub const ALL: [Shape; 6] = [
        Shape::PointHi,
        Shape::PointMid,
        Shape::PointLo,
        Shape::TopK,
        Shape::Range,
        Shape::Secondary,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::PointHi => "point_hi",
            Shape::PointMid => "point_mid",
            Shape::PointLo => "point_lo",
            Shape::TopK => "topk",
            Shape::Range => "range",
            Shape::Secondary => "secondary",
        }
    }

    pub fn qt(self) -> f64 {
        match self {
            Shape::PointHi => 0.5,
            Shape::PointMid => 0.2,
            Shape::PointLo => 0.05,
            Shape::TopK => 0.0,
            Shape::Range => 0.3,
            Shape::Secondary => 0.1,
        }
    }

    pub const TOP_K: usize = 10;
    pub const RANGE_WIDTH: u64 = 3;
}

/// One generated query.
#[derive(Clone)]
pub struct Query {
    pub shape: Shape,
    /// The institution (or country, for `Secondary`) it probes.
    pub value: u64,
    pub q: PtqQuery,
}

fn make_query(shape: Shape, value: u64, n_institutions: u64) -> Query {
    let q = match shape {
        Shape::PointHi | Shape::PointMid | Shape::PointLo => {
            PtqQuery::eq(INSTITUTION, value).with_qt(shape.qt())
        }
        Shape::TopK => PtqQuery::eq(INSTITUTION, value).with_top_k(Shape::TOP_K),
        Shape::Range => PtqQuery::range(
            INSTITUTION,
            value,
            (value + Shape::RANGE_WIDTH - 1).min(n_institutions - 1),
        )
        .with_qt(shape.qt()),
        Shape::Secondary => PtqQuery::eq(COUNTRY, value)
            .with_qt(shape.qt())
            .with_top_k(Shape::TOP_K),
    };
    Query { shape, value, q }
}

/// One DML operation of churn_sharded's script.
#[derive(Clone)]
enum Op {
    Insert(Tuple),
    /// Replace the live tuple with this id by this version.
    Update(Tuple),
    Delete(u64),
}

impl Op {
    fn id(&self) -> u64 {
        match self {
            Op::Insert(t) | Op::Update(t) => t.id.0,
            Op::Delete(id) => *id,
        }
    }
}

/// The system under test: one session, or a sharded facade. A run
/// holds exactly one, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum System {
    Single(UncertainDb),
    Sharded(ShardedDb),
}

impl System {
    pub fn query(&self, q: &PtqQuery) -> Result<QueryOutput, QueryError> {
        match self {
            System::Single(db) => db.query(q),
            System::Sharded(db) => db.query(q),
        }
    }

    pub fn sessions(&self) -> Vec<&UncertainDb> {
        match self {
            System::Single(db) => vec![db],
            System::Sharded(db) => db.shards().iter().collect(),
        }
    }

    /// Simulated device clock, summed over the system's stores.
    fn clock_ms(&self) -> f64 {
        self.sessions()
            .iter()
            .map(|s| s.table().store().disk.clock_ms())
            .sum()
    }

    fn disk_stats(&self) -> IoStats {
        self.sessions().iter().fold(IoStats::default(), |acc, s| {
            add_io(&acc, &s.table().store().disk.stats())
        })
    }

    fn recalibrate(&self) {
        match self {
            System::Single(db) => {
                db.recalibrate();
            }
            System::Sharded(db) => {
                db.recalibrate();
            }
        }
    }

    fn live_bytes(&self) -> u64 {
        self.sessions()
            .iter()
            .map(|s| s.table().store().disk.total_live_bytes())
            .sum()
    }

    /// Live fracture-chain length per shard, averaged (1 for an
    /// unfractured table).
    fn components(&self) -> f64 {
        let s = self.sessions();
        let total: usize = s
            .iter()
            .map(|db| db.table().as_fractured().map_or(1, |f| f.n_fractures() + 1))
            .sum();
        total as f64 / s.len() as f64
    }
}

fn add_io(a: &IoStats, b: &IoStats) -> IoStats {
    IoStats {
        page_reads: a.page_reads + b.page_reads,
        page_writes: a.page_writes + b.page_writes,
        seeks: a.seeks + b.seeks,
        bytes_read: a.bytes_read + b.bytes_read,
        bytes_written: a.bytes_written + b.bytes_written,
        file_opens: a.file_opens + b.file_opens,
        seek_ms: a.seek_ms + b.seek_ms,
        read_ms: a.read_ms + b.read_ms,
        write_ms: a.write_ms + b.write_ms,
        init_ms: a.init_ms + b.init_ms,
    }
}

fn add_pool(a: &PoolCounters, b: &PoolCounters) -> PoolCounters {
    PoolCounters {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
        readahead: a.readahead + b.readahead,
        readahead_hits: a.readahead_hits + b.readahead_hits,
        hinted_runs: a.hinted_runs + b.hinted_runs,
        flush_errors: a.flush_errors + b.flush_errors,
        flush_retries: a.flush_retries + b.flush_retries,
        readahead_wasted: a.readahead_wasted + b.readahead_wasted,
    }
}

/// Everything a set-up produces.
pub struct Built {
    pub system: System,
    /// The secondary attribute the oracle must index, if any.
    secondary: Option<usize>,
    /// The in-memory copy of the live rows (built after the timed
    /// set-up: it is the benchmark's, not the system's).
    pub model: Model,
    pub queries: Vec<Query>,
    /// churn_sharded's DML script, one entry per round.
    rounds: Vec<Vec<Op>>,
    /// churn_sharded's last, never-acknowledged batch (applied just
    /// before the crash).
    unacked: Vec<Op>,
    /// The loaded tuples: the oracle's starting state, and the input
    /// of the tuple-decode and B-tree unit costs.
    pub sample: Vec<Tuple>,
}

/// splitmix64: derive independent seeds from the workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fresh_store(pool_bytes: usize) -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), pool_bytes)
}

fn upi_config() -> UpiConfig {
    UpiConfig {
        cutoff: CUTOFF,
        ..UpiConfig::default()
    }
}

/// Generate the inputs and build the loaded system. Everything here is
/// `setup_s`: data generation, build, load, and warm-up.
fn setup(w: Workload, spec: &Spec, seed: u64, n_queries: usize) -> Built {
    let data = dblp::generate(&DblpConfig {
        n_authors: spec.authors,
        n_publications: spec.publications,
        payload_bytes: 512,
        seed: derive(seed, 1),
        ..DblpConfig::default()
    });
    let n_institutions = data.config.n_institutions as u64;
    let queries = query_stream(w, spec, &data, seed, n_queries);
    match w {
        Workload::WarmPoint => {
            let store = fresh_store(spec.pool_bytes);
            let mut db = UncertainDb::create(
                store,
                "author",
                DblpData::author_schema(),
                INSTITUTION,
                TableLayout::Upi(upi_config()),
            )
            .expect("create warm_point table");
            db.load(&data.authors).expect("load warm_point table");
            // The load writes every page through the pool, which holds
            // the whole table; one full-range scan then reads every heap
            // page once more, so the first timed query finds them hot.
            db.query(&PtqQuery::range(INSTITUTION, 0, n_institutions - 1))
                .expect("warm-up scan");
            Built {
                system: System::Single(db),
                secondary: None,
                model: Model::default(),
                queries,
                rounds: Vec::new(),
                unacked: Vec::new(),
                sample: data.authors,
            }
        }
        Workload::ColdMixed => {
            let store = fresh_store(spec.pool_bytes);
            let mut db = UncertainDb::create(
                store.clone(),
                "publication",
                DblpData::publication_schema(),
                INSTITUTION,
                TableLayout::Upi(upi_config()),
            )
            .expect("create cold_mixed table");
            db.add_secondary(COUNTRY).expect("add country secondary");
            db.load(&data.publications).expect("load cold_mixed table");
            store.go_cold();
            Built {
                system: System::Single(db),
                secondary: Some(COUNTRY),
                model: Model::default(),
                queries,
                rounds: Vec::new(),
                unacked: Vec::new(),
                sample: data.publications,
            }
        }
        Workload::ChurnSharded => {
            let stores: Vec<Store> = (0..SHARDS).map(|_| fresh_store(spec.pool_bytes)).collect();
            let mut db = ShardedDb::create(
                stores,
                "author",
                DblpData::author_schema(),
                INSTITUTION,
                TableLayout::FracturedUpi(FracturedConfig {
                    upi: upi_config(),
                    buffer_ops: 0,
                }),
                ShardLayout::HashTid(SHARDS),
            )
            .expect("create churn_sharded table");
            db.load(&data.authors).expect("load churn_sharded table");
            db.enable_durability().expect("enable durability");
            let n_rounds = n_queries.div_ceil(QUERIES_PER_ROUND);
            let (rounds, unacked) = dml_script(&data, seed, n_rounds);
            Built {
                system: System::Sharded(db),
                secondary: None,
                model: Model::default(),
                queries,
                rounds,
                unacked,
                sample: data.authors,
            }
        }
    }
}

/// The query stream. Each shape appears in exact proportion to its
/// weight (churn_sharded: one of each per round), and each shape's
/// values are stratified draws from Zipf(`QUERY_SKEW`): the j-th of n
/// draws falls in the j-th of n equal probability strata, so every run
/// asks each value about n·P(value) times. Runs then differ in the data,
/// the order and the jitter, not in how often a heavy value comes up —
/// which would otherwise dominate the spread of the p99.
fn query_stream(w: Workload, spec: &Spec, data: &DblpData, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 2));
    let shapes: Vec<Shape> = if w == Workload::ChurnSharded {
        (0..n)
            .map(|i| spec.shapes[i % spec.shapes.len()].0)
            .collect()
    } else {
        let total: u32 = spec.shapes.iter().map(|&(_, w)| w).sum();
        let mut shapes: Vec<Shape> = spec
            .shapes
            .iter()
            .flat_map(|&(s, w)| std::iter::repeat_n(s, n * w as usize / total as usize))
            .collect();
        shapes.resize(n, spec.shapes[0].0);
        shuffle(&mut shapes, &mut rng);
        shapes
    };
    let institutions = zipf_cdf(data.config.n_institutions);
    let countries = zipf_cdf(data.config.n_countries);
    let mut values: BTreeMap<Shape, Vec<u64>> = BTreeMap::new();
    for &(shape, _) in spec.shapes {
        let count = shapes.iter().filter(|&&s| s == shape).count();
        let cdf = if shape == Shape::Secondary {
            &countries
        } else {
            &institutions
        };
        let mut v: Vec<u64> = (0..count)
            .map(|j| {
                let u = (j as f64 + rng.gen::<f64>()) / count as f64;
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64
            })
            .collect();
        shuffle(&mut v, &mut rng);
        values.insert(shape, v);
    }
    shapes
        .into_iter()
        .map(|shape| {
            let value = values
                .get_mut(&shape)
                .and_then(Vec::pop)
                .expect("one value per query of the shape");
            make_query(shape, value, data.config.n_institutions as u64)
        })
        .collect()
}

/// Cumulative probabilities of Zipf(`QUERY_SKEW`) over `n` values.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let z = Zipf::new(n, QUERY_SKEW);
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += z.prob(k);
            acc
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// churn_sharded's DML: per round, inserts of fresh authors (half the
/// ops), updates of live rows to a fresh version, and deletes of live
/// rows (a quarter each). Returns the rounds and one more batch that is
/// applied but never acknowledged.
fn dml_script(data: &DblpData, seed: u64, n_rounds: usize) -> (Vec<Vec<Op>>, Vec<Op>) {
    let mut rng = StdRng::seed_from_u64(derive(seed, 3));
    let total = (n_rounds + 1) * OPS_PER_ROUND;
    let first_id = data.authors.len() as u64;
    let mut fresh = data
        .more_authors(total, first_id, derive(seed, 4))
        .into_iter();
    let mut live: Vec<u64> = data.authors.iter().map(|t| t.id.0).collect();
    let mut rounds: Vec<Vec<Op>> = (0..=n_rounds)
        .map(|_| {
            (0..OPS_PER_ROUND)
                .map(|_| {
                    let t = fresh.next().expect("one fresh author per op");
                    match rng.gen_range(0..4u32) {
                        0 | 1 => {
                            live.push(t.id.0);
                            Op::Insert(t)
                        }
                        2 => {
                            let id = live[rng.gen_range(0..live.len())];
                            Op::Update(Tuple::new(TupleId(id), t.exist, t.fields))
                        }
                        _ => {
                            let i = rng.gen_range(0..live.len());
                            Op::Delete(live.swap_remove(i))
                        }
                    }
                })
                .collect()
        })
        .collect();
    let unacked = rounds.pop().expect("one extra batch");
    (rounds, unacked)
}

/// Samples and counters of the measured loop.
#[derive(Default)]
struct LoopStats {
    wall_us: Vec<f64>,
    /// `QueryOutput::latency_ms` (max over shards when sharded).
    device_ms: Vec<f64>,
    /// Per shape: `(wall us, device ms)` of every query.
    by_shape: BTreeMap<Shape, Vec<(f64, f64)>>,
    /// Sum of per-query attributed device time (summed over shards).
    query_device_total_ms: f64,
    query_io: IoStats,
    query_pool: PoolCounters,
    /// Source-root cursor counters (single-session queries only).
    cursor: CursorStats,
    rows: u64,
    components: Vec<f64>,
    // Non-query work.
    other_device_ms: f64,
    other_wall_us: f64,
    commit_wall_us: Vec<f64>,
    commit_device_ms: Vec<f64>,
    sync_device_ms: f64,
    dml_ops: u64,
    user_bytes: u64,
    checkpoint_device_ms: Vec<f64>,
    tick_wall_us: Vec<f64>,
    merge_steps: u64,
    components_compacted: u64,
    maint_device_ms: f64,
    /// Expected WAL records per shard since the loop began, and since
    /// the last checkpoint rotated the log.
    wal_records: Vec<u64>,
    wal_records_generation: Vec<u64>,
    // Totals over the loop.
    clock_delta_ms: f64,
    disk_delta: IoStats,
    skipped_delta: u64,
    // Outcomes.
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl LoopStats {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// Run the measured loop: every query of the stream, and on
/// churn_sharded a committed DML batch before every round of queries.
fn measured_loop(b: &mut Built, tracer: &mut Tracer, counts0: &[Counts]) -> LoopStats {
    let mut st = LoopStats {
        wal_records: vec![0; counts0.len()],
        wal_records_generation: counts0.iter().map(|c| c.wal_records).collect(),
        ..LoopStats::default()
    };
    let clock0 = b.system.clock_ms();
    let disk0 = b.system.disk_stats();
    let skipped0 = match &b.system {
        System::Sharded(db) => db.shards_skipped(),
        System::Single(_) => 0,
    };
    let root = Tracer::root();
    let queries = std::mem::take(&mut b.queries);
    let rounds = std::mem::take(&mut b.rounds);
    for (i, query) in queries.iter().enumerate() {
        if !rounds.is_empty() && i.is_multiple_of(QUERIES_PER_ROUND) {
            let r = i / QUERIES_PER_ROUND;
            commit_round(b, &rounds[r], r, &mut st, tracer);
            if (r + 1).is_multiple_of(MAINTAIN_EVERY) {
                maintain(b, r, &mut st, tracer);
            }
            if (r + 1).is_multiple_of(CHECKPOINT_EVERY) {
                checkpoint(b, r, &mut st, tracer);
            }
        }
        if i > 0 && i.is_multiple_of(RECALIBRATE_EVERY) {
            let c0 = b.system.clock_ms();
            let t = Instant::now();
            tracer.span("session.recalibrate", &root, i as u64, || {
                b.system.recalibrate()
            });
            st.other_wall_us += t.elapsed().as_secs_f64() * 1e6;
            st.other_device_ms += b.system.clock_ms() - c0;
        }
        if tracer.enabled() {
            st.components.push(b.system.components());
        }
        st.attempted += 1;
        let span = tracer.open(query.shape.name(), &root, i as u64);
        let t = Instant::now();
        let out = b.system.query(&query.q);
        let wall = t.elapsed().as_secs_f64() * 1e6;
        tracer.close(span);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                st.fail(format!("query {i} {:?}: {e:?}", query.q));
                continue;
            }
        };
        if let Some(problem) = b.model.check(&query.q, &out) {
            st.fail(format!("query {i}: {problem}"));
        }
        let device = out.device.unwrap_or_default();
        let latency = out.latency_ms.unwrap_or(0.0);
        st.wall_us.push(wall);
        st.device_ms.push(latency);
        st.by_shape
            .entry(query.shape)
            .or_default()
            .push((wall, latency));
        st.query_device_total_ms += device.total_ms();
        st.query_io = add_io(&st.query_io, &device);
        if let Some(io) = &out.io {
            st.query_pool = add_pool(&st.query_pool, io);
        }
        if let Some(root_span) = out
            .trace
            .as_ref()
            .and_then(|t| t.spans.iter().find(|s| s.est_ms.is_some()))
        {
            if let System::Single(_) = b.system {
                st.cursor = st.cursor.merged(root_span.stats.unwrap_or_default());
            }
        }
        st.rows += out.rows.len() as u64;
    }
    b.queries = queries;
    st.clock_delta_ms = b.system.clock_ms() - clock0;
    st.disk_delta = b.system.disk_stats().since(&disk0);
    if let System::Sharded(db) = &b.system {
        st.skipped_delta = db.shards_skipped() - skipped0;
    }
    st
}

/// Apply one round's DML and make it durable with `sync_wal`. Only the
/// calls into the system are timed; the oracle follows afterwards.
fn commit_round(b: &mut Built, ops: &[Op], r: usize, st: &mut LoopStats, tracer: &mut Tracer) {
    let System::Sharded(db) = &mut b.system else {
        unreachable!("only churn_sharded writes")
    };
    // The version each update or delete replaces, as of its place in the
    // batch (an earlier op of the same batch may have written the row).
    let mut batch: HashMap<u64, Option<Tuple>> = HashMap::new();
    let olds: Vec<Option<Tuple>> = ops
        .iter()
        .map(|op| {
            let id = op.id();
            let old = match batch.get(&id) {
                Some(v) => v.clone(),
                None => b.model.get(id).cloned(),
            };
            let new = match op {
                Op::Insert(t) | Op::Update(t) => Some(t.clone()),
                Op::Delete(_) => None,
            };
            batch.insert(id, new);
            old
        })
        .collect();
    let root = Tracer::root();
    let c0: f64 = clock_of(db);
    let t = Instant::now();
    let span = tracer.open("commit", &root, r as u64);
    let mut results = Vec::with_capacity(ops.len());
    for (op, old) in ops.iter().zip(&olds) {
        // An update or delete whose row is not live in the oracle (an
        // earlier operation on it failed) is skipped and counted failed.
        results.push(match (op, old) {
            (Op::Insert(t), _) => {
                Some(tracer.span("dml.insert", &span, r as u64, || db.insert_tuple(t)))
            }
            (Op::Update(new), Some(old)) => {
                Some(tracer.span("dml.update", &span, r as u64, || db.update(old, new)))
            }
            (Op::Delete(_), Some(old)) => {
                Some(tracer.span("dml.delete", &span, r as u64, || db.delete(old)))
            }
            (_, None) => None,
        });
    }
    let s0 = clock_of(db);
    let synced = tracer.span("wal.sync", &span, r as u64, || db.sync_wal());
    st.sync_device_ms += clock_of(db) - s0;
    tracer.close(span);
    let wall = t.elapsed().as_secs_f64() * 1e6;
    let device = clock_of(db) - c0;
    st.commit_wall_us.push(wall);
    st.commit_device_ms.push(device);
    st.other_wall_us += wall;
    st.other_device_ms += device;

    let layout = db.layout().clone();
    for (op, result) in ops.iter().zip(results) {
        st.attempted += 1;
        let id = op.id();
        match result {
            None => st.fail(format!("round {r}: tuple {id} is not live")),
            Some(Err(e)) => st.fail(format!("round {r} DML on tuple {id}: {e:?}")),
            Some(Ok(())) => {
                apply(&mut b.model, op);
                st.wal_records[layout.route(id)] += 1;
                bump_generation(st, layout.route(id), 1);
                st.dml_ops += 1;
                if let Op::Insert(t) | Op::Update(t) = op {
                    st.user_bytes += t.encoded_len() as u64;
                }
            }
        }
    }
    if let Err(e) = synced {
        st.fail(format!("round {r} sync_wal: {e:?}"));
    }
}

fn apply(model: &mut Model, op: &Op) {
    match op {
        Op::Insert(t) | Op::Update(t) => model.insert(t.clone()),
        Op::Delete(id) => {
            model.remove(*id);
        }
    }
}

fn bump_generation(st: &mut LoopStats, shard: usize, n: u64) {
    st.wal_records_generation[shard] += n;
}

fn clock_of(db: &ShardedDb) -> f64 {
    db.shards()
        .iter()
        .map(|s| s.table().store().disk.clock_ms())
        .sum()
}

/// Flush every shard's insert buffer into a fracture, then one
/// maintenance tick per shard.
fn maintain(b: &mut Built, r: usize, st: &mut LoopStats, tracer: &mut Tracer) {
    let System::Sharded(db) = &mut b.system else {
        unreachable!("only churn_sharded maintains")
    };
    let root = Tracer::root();
    let c0 = clock_of(db);
    let t = Instant::now();
    if let Err(e) = tracer.span("fracture.flush", &root, r as u64, || db.flush()) {
        st.fail(format!("round {r} flush: {e:?}"));
    }
    for shard in 0..SHARDS {
        st.wal_records[shard] += 1;
        bump_generation(st, shard, 1);
    }
    let flush_wall = t.elapsed().as_secs_f64() * 1e6;
    let flush_device = clock_of(db) - c0;
    let c1 = clock_of(db);
    let t = Instant::now();
    let reports = tracer.span("maintenance.tick", &root, r as u64, || {
        db.maintenance_tick()
    });
    let tick_wall = t.elapsed().as_secs_f64() * 1e6;
    let tick_device = clock_of(db) - c1;
    match reports {
        Ok(reports) => {
            for (shard, rep) in reports.iter().enumerate() {
                if let Some(rep) = rep {
                    st.merge_steps += 1;
                    st.components_compacted += rep.components;
                    st.maint_device_ms += rep.device_ms;
                    st.wal_records[shard] += 1;
                    bump_generation(st, shard, 1);
                }
            }
        }
        Err(e) => st.fail(format!("round {r} maintenance_tick: {e:?}")),
    }
    st.tick_wall_us.push(tick_wall);
    st.other_wall_us += flush_wall + tick_wall;
    st.other_device_ms += flush_device + tick_device;
}

/// Checkpoint every shard (each rotates its WAL to a fresh generation).
fn checkpoint(b: &mut Built, r: usize, st: &mut LoopStats, tracer: &mut Tracer) {
    let System::Sharded(db) = &mut b.system else {
        unreachable!("only churn_sharded checkpoints")
    };
    let root = Tracer::root();
    let c0 = clock_of(db);
    let t = Instant::now();
    if let Err(e) = tracer.span("durability.checkpoint", &root, r as u64, || db.checkpoint()) {
        st.fail(format!("round {r} checkpoint: {e:?}"));
    }
    let device = clock_of(db) - c0;
    // One record seals the old generation, one opens the new one.
    for shard in 0..SHARDS {
        st.wal_records[shard] += 2;
        st.wal_records_generation[shard] = 1;
    }
    st.checkpoint_device_ms.push(device);
    st.other_wall_us += t.elapsed().as_secs_f64() * 1e6;
    st.other_device_ms += device;
}

/// Cross-check the benchmark's own accounting against the system's.
/// Returns the mismatches; any one fails the run.
fn check_accounting(b: &Built, st: &LoopStats, lsn0: &[u64], metrics0: &[Counts]) -> Vec<String> {
    let mut bad = Vec::new();
    // Partition identity: attributed query time plus everything else
    // the benchmark timed equals the stores' clock movement.
    let accounted = st.query_device_total_ms + st.other_device_ms;
    if (accounted - st.clock_delta_ms).abs() > 1e-6 * st.clock_delta_ms.max(1.0) {
        bad.push(format!(
            "device ms: queries {:.6} + other {:.6} != clock delta {:.6}",
            st.query_device_total_ms, st.other_device_ms, st.clock_delta_ms
        ));
    }
    let sessions = b.system.sessions();
    let now: Vec<Counts> = sessions.iter().map(|s| Counts::of(s)).collect();
    let n_queries = b.queries.len() as u64;
    let sessions_queried: u64 = now
        .iter()
        .zip(metrics0)
        .map(|(a, z)| (a.queries - z.queries) + (a.skipped - z.skipped))
        .sum();
    if sessions_queried != n_queries * sessions.len() as u64 {
        bad.push(format!(
            "queries: sessions recorded {sessions_queried} shard-queries, benchmark sent \
             {n_queries} x {} shards",
            sessions.len()
        ));
    }
    let merge_steps: u64 = now
        .iter()
        .zip(metrics0)
        .map(|(a, z)| a.merge_steps - z.merge_steps)
        .sum();
    if merge_steps != st.merge_steps {
        bad.push(format!(
            "merge steps: sessions {merge_steps}, benchmark {}",
            st.merge_steps
        ));
    }
    for (i, s) in sessions.iter().enumerate() {
        let lsn = s.table().last_lsn().0;
        if lsn - lsn0[i] != st.wal_records[i] {
            bad.push(format!(
                "shard {i}: WAL advanced {} records, benchmark logged {}",
                lsn - lsn0[i],
                st.wal_records[i]
            ));
        }
        let g = st.wal_records_generation[i];
        if now[i].wal_records != g {
            bad.push(format!(
                "shard {i}: metrics count {} WAL records since the last checkpoint, \
                 benchmark {g}",
                now[i].wal_records
            ));
        }
    }
    bad
}

/// The session counters the accounting check compares.
#[derive(Clone, Copy)]
struct Counts {
    queries: u64,
    skipped: u64,
    merge_steps: u64,
    wal_records: u64,
}

impl Counts {
    fn of(s: &UncertainDb) -> Counts {
        let m = s.metrics();
        Counts {
            queries: m.queries,
            skipped: m.shards_skipped,
            merge_steps: m.merge_steps,
            wal_records: m.wal_records,
        }
    }
}

/// What churn_sharded's crash and recovery found.
#[derive(Default)]
struct Recovery {
    device_ms: f64,
    wall_ms: f64,
    replayed: u64,
    lost_acked: u64,
    wrong: u64,
    checked: u64,
}

/// Apply the never-acknowledged batch, crash every shard, recover, and
/// check that every acknowledged write survived.
fn crash_and_recover(b: Built, tracer: &mut Tracer, st: &mut LoopStats) -> Recovery {
    let Built {
        system,
        model,
        unacked,
        ..
    } = b;
    let System::Sharded(mut db) = system else {
        unreachable!("only churn_sharded recovers")
    };
    // Every state each touched row passes through in the unacknowledged
    // batch: recovery may keep any prefix of it.
    let acked = model.clone();
    let mut after = model;
    let mut allowed: HashMap<u64, Vec<Option<Tuple>>> = HashMap::new();
    for op in &unacked {
        st.attempted += 1;
        let id = op.id();
        let old = after.get(id).cloned();
        let result = match (op, &old) {
            (Op::Insert(t), _) => db.insert_tuple(t),
            (Op::Update(new), Some(old)) => db.update(old, new),
            (Op::Delete(_), Some(old)) => db.delete(old),
            (_, None) => {
                st.fail(format!("unacknowledged DML: tuple {id} is not live"));
                continue;
            }
        };
        if let Err(e) = result {
            st.fail(format!("unacknowledged DML on tuple {id}: {e:?}"));
            continue;
        }
        apply(&mut after, op);
        allowed
            .entry(id)
            .or_insert_with(|| vec![old])
            .push(after.get(id).cloned());
    }
    let layout = db.layout().clone();
    let stores: Vec<Store> = db
        .shards()
        .iter()
        .map(|s| s.table().store().clone())
        .collect();
    drop(db);
    for s in &stores {
        s.reboot();
    }
    let c0: f64 = stores.iter().map(|s| s.disk.clock_ms()).sum();
    let t = Instant::now();
    let root = Tracer::root();
    let recovered = tracer.span("durability.recover", &root, 0, || {
        ShardedDb::recover(stores.clone(), "author", layout)
    });
    let mut rec = Recovery {
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        device_ms: stores.iter().map(|s| s.disk.clock_ms()).sum::<f64>() - c0,
        ..Recovery::default()
    };
    let (db, infos) = match recovered {
        Ok(x) => x,
        Err(e) => {
            st.fail(format!("recover: {e:?}"));
            rec.lost_acked = acked.len() as u64;
            return rec;
        }
    };
    rec.replayed = infos.iter().map(|i| i.replayed as u64).sum();
    let live = match db.live_tuples() {
        Ok(l) => l,
        Err(e) => {
            st.fail(format!("live_tuples after recovery: {e:?}"));
            return rec;
        }
    };
    let recovered: HashMap<u64, Tuple> = live.into_iter().map(|t| (t.id.0, t)).collect();
    let mut ids: BTreeSet<u64> = recovered.keys().copied().collect();
    ids.extend(acked.tuples().map(|t| t.id.0));
    for id in ids {
        rec.checked += 1;
        let got = recovered.get(&id);
        if got == acked.get(id) {
            continue;
        }
        if allowed
            .get(&id)
            .is_some_and(|states| states.iter().any(|s| s.as_ref() == got))
        {
            continue;
        }
        if acked.get(id).is_some() {
            rec.lost_acked += 1;
        } else {
            rec.wrong += 1;
        }
    }
    st.attempted += rec.checked;
    if rec.lost_acked + rec.wrong > 0 {
        st.fail(format!(
            "recovery: {} acknowledged rows lost, {} rows that were never written",
            rec.lost_acked, rec.wrong
        ));
        // `fail` counted one; count every lost or wrong row.
        st.failed += rec.lost_acked + rec.wrong - 1;
    }
    rec
}

/// Run one workload end to end and assemble its result.
pub fn run(args: &Args) -> RunResult {
    let w = args.workload;
    let spec = w.spec();
    let n_queries = (spec.queries_per_second * args.seconds) as usize;
    eprintln!(
        "perfbench: workload {} seed {} queries {} trace {} — {}",
        w.name(),
        args.seed,
        n_queries,
        args.trace as u8,
        w.why()
    );

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let b = setup(w, &spec, args.seed, n_queries);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    let mut b = built.expect("at least one set-up");
    b.model = Model::new(INSTITUTION, b.secondary, &b.sample);
    eprintln!("perfbench: set-up {:?} s", setup_s);

    let mut tracer = Tracer::new(args.trace);
    let lsn0: Vec<u64> = b
        .system
        .sessions()
        .iter()
        .map(|s| s.table().last_lsn().0)
        .collect();
    let counts0: Vec<Counts> = b.system.sessions().iter().map(|s| Counts::of(s)).collect();
    let mut st = measured_loop(&mut b, &mut tracer, &counts0);
    let accounting = check_accounting(&b, &st, &lsn0, &counts0);
    for a in &accounting {
        eprintln!("perfbench: ACCOUNTING MISMATCH {a}");
    }
    let space_amp = ratio(
        b.system.live_bytes() as f64,
        b.model.tuples().map(|t| t.encoded_len() as f64).sum(),
    );
    let misest: Vec<(f64, f64, u64)> = b
        .system
        .sessions()
        .iter()
        .map(|s| {
            let m = s.metrics();
            (m.misest_p50, m.misest_p95, m.refits)
        })
        .collect();

    let costs = if args.trace {
        Some(layers::measure(&b, &mut tracer))
    } else {
        None
    };
    let wal_mean_batch = {
        let (recs, batches) = b.system.sessions().iter().fold((0u64, 0u64), |acc, s| {
            let c = s.table().wal_counters();
            (acc.0 + c.synced_records, acc.1 + c.batches)
        });
        ratio(recs as f64, batches as f64)
    };

    let recovery = if w == Workload::ChurnSharded {
        Some(crash_and_recover(b, &mut tracer, &mut st))
    } else {
        drop(b);
        None
    };

    report_shapes(&st);
    for p in &st.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    let failed = st.failed + accounting.len() as u64;
    let attempted = st.attempted.max(1);
    let correct = failed == 0;
    eprintln!(
        "perfbench: {} attempted, {} failed, accounting {}",
        attempted,
        failed,
        if accounting.is_empty() {
            "ok"
        } else {
            "MISMATCH"
        }
    );

    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (value, unit));
    };
    let n = st.wall_us.len() as f64;
    let query_ms: Vec<f64> = st
        .wall_us
        .iter()
        .zip(&st.device_ms)
        .map(|(w, d)| w / 1e3 + d)
        .collect();
    let query_wall_s = st.wall_us.iter().sum::<f64>() / 1e6;
    let loop_ms = (st.wall_us.iter().sum::<f64>() + st.other_wall_us) / 1e3
        + st.device_ms.iter().sum::<f64>()
        + st.other_device_ms;
    // Latency as a client would see it: host time plus simulated device
    // time. On this host, raw wall time alone spreads too much from run
    // to run to be gated; it is reported by the traced run instead.
    let e2e = [
        ("query_ms_p50", quantile(&query_ms, 0.5), "ms"),
        ("query_ms_p99", quantile(&query_ms, 0.99), "ms"),
        ("loop_ms_per_query", ratio(loop_ms, n), "ms"),
    ];
    let wall = [
        ("query_wall_us_p50", quantile(&st.wall_us, 0.5), "us"),
        ("query_wall_us_p99", quantile(&st.wall_us, 0.99), "us"),
        ("queries_per_s", ratio(n, query_wall_s), "1/s"),
    ];
    eprintln!(
        "perfbench: {} queries, host wall us p50 {:.1} p99 {:.1}, {:.1} queries/s",
        n, wall[0].1, wall[1].1, wall[2].1
    );
    if !args.trace {
        for (name, v, unit) in e2e {
            put(name, v, unit);
        }
        put("space_amp", space_amp, "ratio");
        put("setup_s", quantile(&setup_s, 0.5), "s");
        put("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        for (name, v, unit) in e2e {
            put(&format!("traced.{name}"), v, unit);
        }
        put("traced.query_ms_mean", mean(&query_ms), "ms");
        for (name, v, unit) in wall {
            put(name, v, unit);
        }
        let costs = costs.expect("traced run measures layer costs");
        layer_metrics(
            &mut put,
            &st,
            &costs,
            recovery.as_ref(),
            &misest,
            wal_mean_batch,
        );
        put(
            "error_rate",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        let path = spans_path(w, args.seed);
        match tracer.write(&path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    RunResult {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

fn spans_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", w.name()))
}

/// Device ms of every query of the given shapes.
fn shape_device(st: &LoopStats, shapes: &[Shape]) -> Vec<f64> {
    shapes
        .iter()
        .filter_map(|s| st.by_shape.get(s))
        .flatten()
        .map(|&(_, d)| d)
        .collect()
}

/// Per-shape summary on standard error, for a reader of the run.
fn report_shapes(st: &LoopStats) {
    for (shape, v) in &st.by_shape {
        let wall: Vec<f64> = v.iter().map(|&(w, _)| w).collect();
        let device: Vec<f64> = v.iter().map(|&(_, d)| d).collect();
        eprintln!(
            "perfbench:   {:<10} n {:>6}  wall us p50 {:>9.1} p99 {:>9.1}  device ms p50 {:>8.3} \
             p99 {:>8.3} mean {:>8.3}",
            shape.name(),
            v.len(),
            quantile(&wall, 0.5),
            quantile(&wall, 0.99),
            quantile(&device, 0.5),
            quantile(&device, 0.99),
            mean(&device)
        );
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    put: &mut impl FnMut(&str, f64, &'static str),
    st: &LoopStats,
    costs: &LayerCosts,
    recovery: Option<&Recovery>,
    misest: &[(f64, f64, u64)],
    wal_mean_batch: f64,
) {
    let n = st.wall_us.len() as f64;
    let ops = st.dml_ops as f64;
    let commits = st.commit_wall_us.len() as f64;
    let wall_mean = mean(&st.wall_us);

    put("query_device_ms_p50", quantile(&st.device_ms, 0.5), "ms");
    put("query_device_ms_p99", quantile(&st.device_ms, 0.99), "ms");
    put("query_device_ms_mean", mean(&st.device_ms), "ms");
    put(
        "commit_device_ms_p50",
        quantile(&st.commit_device_ms, 0.5),
        "ms",
    );
    put(
        "commit_wall_us_p50",
        quantile(&st.commit_wall_us, 0.5),
        "us",
    );
    put(
        "commit_wall_us_p99",
        quantile(&st.commit_wall_us, 0.99),
        "us",
    );
    put(
        "write_device_ms_per_op",
        ratio(st.clock_delta_ms - st.query_device_total_ms, ops),
        "ms",
    );
    put(
        "recovery_device_ms",
        recovery.map_or(0.0, |r| r.device_ms),
        "ms",
    );

    // storage.disk
    let io = &st.query_io;
    put("disk.seeks_per_q", ratio(io.seeks as f64, n), "count");
    put(
        "disk.pages_read_per_q",
        ratio(io.page_reads as f64, n),
        "count",
    );
    put("disk.seek_ms_per_q", ratio(io.seek_ms, n), "ms");
    put("disk.read_ms_per_q", ratio(io.read_ms, n), "ms");
    put("disk.init_ms_per_q", ratio(io.init_ms, n), "ms");
    put(
        "disk.bytes_written_per_user_byte",
        ratio(st.disk_delta.bytes_written as f64, st.user_bytes as f64),
        "ratio",
    );
    put(
        "disk.write_ms_per_op",
        ratio(st.disk_delta.write_ms, ops),
        "ms",
    );

    // storage.pool
    let p = &st.query_pool;
    let gets = (p.hits + p.misses) as f64;
    put("pool.hit_ratio", ratio(p.hits as f64, gets), "ratio");
    put("pool.misses_per_q", ratio(p.misses as f64, n), "count");
    put(
        "pool.readahead_per_q",
        ratio(p.readahead as f64, n),
        "count",
    );
    put(
        "pool.readahead_efficiency",
        ratio(p.readahead_hits as f64, p.readahead as f64),
        "ratio",
    );
    put("pool.readahead_wasted", p.readahead_wasted as f64, "count");
    put(
        "pool.evictions_per_q",
        ratio(p.evictions as f64, n),
        "count",
    );
    let gets_per_q = ratio(gets, n);
    put("pool.gets_per_q", gets_per_q, "count");

    // storage.wal
    put("wal.records_per_commit", ratio(ops, commits), "count");
    put("wal.mean_batch", wal_mean_batch, "count");
    put(
        "wal.device_ms_per_commit",
        ratio(st.sync_device_ms, commits),
        "ms",
    );

    // btree
    put("btree.seek_us", costs.btree_seek_us, "us");
    put("btree.advance_ns", costs.btree_advance_ns, "ns");
    put(
        "btree.share",
        ratio(gets_per_q * costs.btree_page_us, wall_mean),
        "ratio",
    );

    // uncertain (tuple decode)
    let cursor = if costs.cursor.rows > 0 {
        costs.cursor
    } else {
        st.cursor
    };
    let cursor_n = if costs.cursor.rows > 0 {
        costs.cursor_queries
    } else {
        n
    };
    let decodes_per_q = ratio(cursor.decodes as f64, cursor_n);
    put("tuple.decode_ns", costs.decode_ns, "ns");
    put(
        "tuple.decodes_per_row",
        ratio(cursor.decodes as f64, cursor.rows as f64),
        "ratio",
    );
    put(
        "tuple.share",
        ratio(decodes_per_q * costs.decode_ns / 1e3, wall_mean),
        "ratio",
    );

    // upi
    for shape in Shape::ALL {
        put(
            &format!("upi.cursor_us.{}", shape.name()),
            costs
                .cursor_us
                .get(&shape)
                .map_or(0.0, |v| quantile(v, 0.5)),
            "us",
        );
        put(
            &format!("upi.device_ms.{}", shape.name()),
            mean(&shape_device(st, &[shape])),
            "ms",
        );
    }
    let fractured_point = if costs.fractured {
        shape_device(st, &[Shape::PointHi, Shape::PointLo])
    } else {
        Vec::new()
    };
    put(
        "upi.device_ms.fractured_point",
        mean(&fractured_point),
        "ms",
    );
    put(
        "upi.cursor_us.fractured_point",
        quantile(&costs.fractured_point_us, 0.5),
        "us",
    );
    put(
        "upi.pointer_fetches_per_q",
        ratio(cursor.pointer_fetches as f64, cursor_n),
        "count",
    );
    put(
        "upi.suppressed_per_q",
        ratio(cursor.suppressed as f64, cursor_n),
        "count",
    );

    // query.planner
    let plan_p50 = quantile(&costs.plan_us, 0.5);
    let exec_p50 = quantile(&costs.execute_us, 0.5);
    put("planner.plan_us_p50", plan_p50, "us");
    put(
        "planner.plan_share",
        ratio(
            costs.plan_us.iter().sum(),
            costs.plan_us.iter().sum::<f64>() + costs.execute_us.iter().sum::<f64>(),
        ),
        "ratio",
    );
    put("planner.candidates_per_q", costs.candidates_per_q, "count");
    let k = misest.len() as f64;
    put(
        "planner.misest_p50",
        misest.iter().map(|m| m.0).sum::<f64>() / k,
        "ratio",
    );
    put(
        "planner.misest_p95",
        misest.iter().map(|m| m.1).sum::<f64>() / k,
        "ratio",
    );
    put(
        "planner.refits",
        misest.iter().map(|m| m.2 as f64).sum(),
        "count",
    );

    // query.exec
    put("exec.execute_us_p50", exec_p50, "us");
    put("exec.self_us_p50", quantile(&costs.exec_self_us, 0.5), "us");
    put("exec.rows_per_q", ratio(st.rows as f64, n), "count");

    // query.sharded
    put(
        "shard.skipped_per_q",
        ratio(st.skipped_delta as f64, n),
        "count",
    );
    put(
        "shard.parallel_ratio",
        ratio(st.device_ms.iter().sum(), st.query_device_total_ms),
        "ratio",
    );
    put(
        "shard.overhead_us_p50",
        quantile(&costs.shard_overhead_us, 0.5),
        "us",
    );

    // maintenance
    put("maint.steps", st.merge_steps as f64, "count");
    put(
        "maint.components_compacted",
        st.components_compacted as f64,
        "count",
    );
    put(
        "maint.device_ms_per_op",
        ratio(st.maint_device_ms, ops),
        "ms",
    );
    put("maint.tick_us_p50", quantile(&st.tick_wall_us, 0.5), "us");
    put("maint.components_mean", mean(&st.components), "count");

    // durability
    put(
        "durability.checkpoint_device_ms",
        mean(&st.checkpoint_device_ms),
        "ms",
    );
    put(
        "durability.recover_wall_ms",
        recovery.map_or(0.0, |r| r.wall_ms),
        "ms",
    );
    put(
        "durability.replayed",
        recovery.map_or(0.0, |r| r.replayed as f64),
        "count",
    );
    put(
        "durability.lost_acked",
        recovery.map_or(0.0, |r| r.lost_acked as f64),
        "count",
    );
}
