//! Figure 5 — Query 2 (Publication Aggregate on Institution) runtime vs
//! probability threshold: PII vs UPI.
//!
//! `SELECT Journal, COUNT(*) FROM Publication WHERE Institution=MIT
//!  (confidence ≥ QT) GROUP BY Journal`
//!
//! Paper shape: same ordering as Figure 4 on the larger Publication table —
//! UPI wins by 20–100×; absolute runtimes larger than Query 1's.

use upi::exec::group_count;
use upi_bench::setups::publication_setup;
use upi_bench::{banner, collect, header, measure_cold, ms, summary};
use upi_workloads::dblp::publication_fields;

fn main() {
    let s = publication_setup(0.1);
    let mit = s.data.popular_institution();
    banner(
        "Figure 5",
        "Query 2 runtime vs probability threshold (PII vs UPI, C=0.1)",
        "UPI 20-100x faster; larger absolute times than Fig 4",
    );
    header(&["QT", "PII_ms", "UPI_ms", "speedup", "groups"]);
    let mut speedups = Vec::new();
    for qt10 in 1..=9 {
        let qt = qt10 as f64 / 10.0;
        let pii = measure_cold(&s.store, || {
            let rows = s.pii_inst.ptq(&s.heap, mit, qt).unwrap();
            group_count(&rows, publication_fields::JOURNAL)
                .unwrap()
                .len()
        });
        let upi = measure_cold(&s.store, || {
            let rows = collect(s.upi.cutoff_merge(mit, qt));
            group_count(&rows, publication_fields::JOURNAL)
                .unwrap()
                .len()
        });
        assert_eq!(pii.rows, upi.rows, "aggregates disagree at QT={qt}");
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
    summary("fig5.speedup_range", format!("{min:.1}x - {max:.1}x"));
}
