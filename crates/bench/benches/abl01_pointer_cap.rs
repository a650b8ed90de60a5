//! Ablation 1 — the §3.2 tuning option: "limit the number of pointers
//! stored in each secondary index entry. Though the query performance
//! gradually degenerates to the normal secondary index access with a
//! tighter limit, such a limit can lower storage consumption."
//!
//! Sweeps `max_secondary_pointers` and reports tailored-access runtime for
//! Query 3 plus the secondary index's size.

use upi::{DiscreteUpi, UpiConfig};
use upi_bench::{banner, dblp_config, drain, fresh_store, header, measure_cold, ms, summary};
use upi_workloads::dblp::{self, publication_fields};

fn main() {
    let mut cfg = dblp_config();
    cfg.n_publications /= 2; // ablations run at half scale
    let data = dblp::generate(&cfg);
    let japan = data.query_country();
    banner(
        "Ablation 1",
        "Secondary-index pointer cap: tailored Query 3 runtime vs index size",
        "tighter caps shrink the index but erode the tailored advantage",
    );
    header(&[
        "max_pointers",
        "tailored_ms",
        "plain_ms",
        "secondary_bytes",
        "rows",
    ]);
    let mut first_size = 0u64;
    let mut last_size = 0u64;
    for cap in [1usize, 2, 4, 10] {
        let store = fresh_store();
        let mut upi = DiscreteUpi::create(
            store.clone(),
            "pub.upi",
            publication_fields::INSTITUTION,
            UpiConfig {
                cutoff: 0.1,
                max_secondary_pointers: cap,
                ..UpiConfig::default()
            },
        )
        .unwrap();
        upi.add_secondary(publication_fields::COUNTRY).unwrap();
        upi.bulk_load(&data.publications).unwrap();
        let tailored = measure_cold(&store, || {
            drain(upi.secondary_run(0, japan, 0.2, true, None))
        });
        let plain = measure_cold(&store, || {
            drain(upi.secondary_run(0, japan, 0.2, false, None))
        });
        let size = upi.secondaries()[0].bytes();
        if cap == 1 {
            first_size = size;
        }
        last_size = size;
        println!(
            "{cap}\t{}\t{}\t{size}\t{}",
            ms(tailored.sim_ms),
            ms(plain.sim_ms),
            tailored.rows
        );
    }
    summary(
        "abl1.size_growth_1_to_10_pointers",
        format!("{:.2}x", last_size as f64 / first_size as f64),
    );
}
