//! Figure 4 — Query 1 (Author Extraction) runtime vs probability
//! threshold: PII on an unclustered heap vs UPI (C = 0.1).
//!
//! `SELECT * FROM Author WHERE Institution=MIT (confidence ≥ QT)`
//!
//! Paper shape: both curves fall as QT rises; the UPI is 20–100× faster
//! because it answers with one seek + a sequential run while PII performs a
//! bitmap-style heap fetch per qualifying tuple.

use upi_bench::setups::author_setup;
use upi_bench::{banner, drain, header, measure_cold, ms, summary};

fn main() {
    let s = author_setup(0.1);
    let mit = s.data.popular_institution();
    banner(
        "Figure 4",
        "Query 1 runtime vs probability threshold (PII vs UPI, C=0.1)",
        "UPI 20-100x faster than PII across QT",
    );
    header(&["QT", "PII_ms", "UPI_ms", "speedup", "rows"]);
    let mut speedups: Vec<f64> = Vec::new();
    for qt10 in 1..=9 {
        let qt = qt10 as f64 / 10.0;
        let pii = measure_cold(&s.store, || s.pii.ptq(&s.heap, mit, qt).unwrap().len());
        let upi = measure_cold(&s.store, || drain(s.upi.cutoff_merge(mit, qt)));
        assert_eq!(pii.rows, upi.rows, "indexes disagree at QT={qt}");
        let speedup = pii.sim_ms / upi.sim_ms;
        speedups.push(speedup);
        println!(
            "{qt:.1}\t{}\t{}\t{:.1}x\t{}",
            ms(pii.sim_ms),
            ms(upi.sim_ms),
            speedup,
            upi.rows
        );
    }
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    summary("fig4.speedup_range", format!("{min:.1}x - {max:.1}x"));
    summary("fig4.upi_always_faster", speedups.iter().all(|&s| s > 1.0));
}
