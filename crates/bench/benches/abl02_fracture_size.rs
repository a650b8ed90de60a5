//! Ablation 2 — fracture granularity (§4.2: "even the size of one fracture
//! can vary").
//!
//! Applies the same stream of inserts with different insert-buffer sizes
//! and reports (a) total maintenance time and (b) Query 1 time afterwards.
//! Small fractures flush cheaply but accumulate per-fracture query
//! overhead (`N_frac (Cost_init + H T_seek)`); large fractures buffer more
//! RAM but keep queries fast.

use upi::{FracturedConfig, FracturedUpi, UpiConfig};
use upi_bench::{banner, dblp_config, drain, fresh_store, header, measure_cold, ms, summary};
use upi_workloads::dblp::{self, author_fields};

fn main() {
    let mut cfg = dblp_config();
    cfg.n_authors /= 2; // ablations run at half scale
    let data = dblp::generate(&cfg);
    let key = data.popular_institution();
    let stream = data.more_authors(data.n_stream(), data.authors.len() as u64, 7);
    banner(
        "Ablation 2",
        "Fracture size sweep: maintenance cost vs query cost",
        "small fractures: cheap flushes, slow queries; large: the reverse",
    );
    header(&[
        "buffer_ops",
        "n_fractures",
        "maintain_ms",
        "query1_ms",
        "query1_io_ms",
    ]);
    let total = stream.len();
    for buffer_ops in [total / 32, total / 8, total / 2, total] {
        let store = fresh_store();
        let mut f = FracturedUpi::create(
            store.clone(),
            "abl",
            author_fields::INSTITUTION,
            &[],
            FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops,
            },
        )
        .unwrap();
        f.load_initial(&data.authors).unwrap();
        let maintain = measure_cold(&store, || {
            for t in &stream {
                f.insert(t.clone()).unwrap();
            }
            f.flush().unwrap();
            stream.len()
        });
        let q = measure_cold(&store, || drain(f.ptq_run(key, 0.1, None)));
        println!(
            "{buffer_ops}\t{}\t{}\t{}\t{}",
            f.n_fractures(),
            ms(maintain.sim_ms),
            ms(q.sim_ms),
            ms(q.sim_ms - q.io.init_ms),
        );
    }
    summary("abl2.stream_len", total);
}

/// Size of the insert stream relative to the base table.
trait StreamLen {
    fn n_stream(&self) -> usize;
}

impl StreamLen for upi_workloads::DblpData {
    fn n_stream(&self) -> usize {
        self.authors.len() / 2
    }
}
