//! Figure 10 — Fractured-UPI Query 1 runtime, real vs cost-model estimate,
//! over 30 insert batches with a merge after every 10.
//!
//! Paper shape: a sawtooth — runtime climbs with each accumulated fracture,
//! drops back to the initial level after each merge, and the §6.2 estimate
//! (`Cost_scan·sel + N_frac(Cost_init + H·T_seek)`) tracks the real curve.

use upi::cost::estimate_query_fractured_ms;
use upi_bench::setups::fractured_author_setup;
use upi_bench::{banner, drain, header, measure_cold, ms, summary};

const BATCHES: usize = 30;
const MERGE_EVERY: usize = 10;
const QT: f64 = 0.1;

fn main() {
    let mut s = fractured_author_setup(0.1);
    let key = s.data.popular_institution();
    banner(
        "Figure 10",
        "Fractured UPI runtime over 30 insert batches (merge every 10): real vs estimated",
        "sawtooth restored by merges; estimate tracks real",
    );
    header(&["batch", "n_fractures", "real_ms", "estimated_ms", "rows"]);
    let mut next_id = s.data.authors.len() as u64;
    let batch_inserts = s.data.authors.len() / 10;
    let mut ratios = Vec::new();
    for batch in 0..=BATCHES {
        if batch > 0 {
            let new = s
                .data
                .more_authors(batch_inserts, next_id, 1000 + batch as u64);
            next_id += batch_inserts as u64;
            for t in new {
                s.fractured.insert(t).unwrap();
            }
            // 1% deletes drawn from the original table.
            let n_del = s.data.authors.len() / 100;
            for i in 0..n_del {
                let idx = (batch * 7919 + i * 104729) % s.data.authors.len();
                s.fractured.delete(s.data.authors[idx].id).ok();
            }
            s.fractured.flush().unwrap();
        }
        let real = measure_cold(&s.store, || drain(s.fractured.ptq_run(key, QT, None)));
        let est = estimate_query_fractured_ms(s.store.disk.config(), &s.fractured, key, QT);
        ratios.push(est / real.sim_ms);
        println!(
            "{batch}\t{}\t{}\t{}\t{}",
            s.fractured.n_fractures(),
            ms(real.sim_ms),
            ms(est),
            real.rows
        );
        if batch > 0 && batch % MERGE_EVERY == 0 {
            s.fractured.merge().unwrap();
            let restored = measure_cold(&s.store, || drain(s.fractured.ptq_run(key, QT, None)));
            println!(
                "{batch}+merge\t{}\t{}\t{}\t{}",
                s.fractured.n_fractures(),
                ms(restored.sim_ms),
                ms(estimate_query_fractured_ms(
                    s.store.disk.config(),
                    &s.fractured,
                    key,
                    QT
                )),
                restored.rows
            );
        }
    }
    let gm = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    summary("fig10.geomean_est_over_real", format!("{gm:.2}"));
}
