//! Figure 6 — Query 3 (Publication Aggregate on Country) runtime vs
//! probability threshold: a *secondary*-attribute query answered by
//! (a) PII on an unclustered heap, (b) a secondary index on the UPI
//! without tailored access, (c) the same with Tailored Secondary Index
//! Access (Algorithm 3).
//!
//! `SELECT Journal, COUNT(*) FROM Publication WHERE Country=Japan
//!  (confidence ≥ QT) GROUP BY Journal`
//!
//! Paper shape: tailored access is up to 7× faster than the plain
//! secondary-on-UPI and up to 8× faster than PII; the plain secondary is
//! *not* much better than PII (sometimes worse) because it cannot exploit
//! pointer overlap.

use upi::exec::group_count;
use upi_bench::setups::publication_setup;
use upi_bench::{banner, collect, header, measure_cold, ms, summary};
use upi_workloads::dblp::publication_fields;

fn main() {
    let s = publication_setup(0.1);
    let japan = s.data.query_country();
    banner(
        "Figure 6",
        "Query 3 via secondary index on Country (PII vs UPI vs UPI+tailored)",
        "tailored up to 7-8x faster; untailored close to PII",
    );
    header(&[
        "QT",
        "PII_unclustered_ms",
        "UPI_secondary_ms",
        "UPI_tailored_ms",
        "tailored_vs_pii",
        "rows",
    ]);
    let mut best = 0.0f64;
    for qt10 in 1..=9 {
        let qt = qt10 as f64 / 10.0;
        let pii = measure_cold(&s.store, || {
            let rows = s.pii_country.ptq(&s.heap, japan, qt).unwrap();
            group_count(&rows, publication_fields::JOURNAL)
                .unwrap()
                .len()
        });
        let plain = measure_cold(&s.store, || {
            let rows = collect(s.upi.secondary_run(0, japan, qt, false, None));
            group_count(&rows, publication_fields::JOURNAL)
                .unwrap()
                .len()
        });
        let tailored = measure_cold(&s.store, || {
            let rows = collect(s.upi.secondary_run(0, japan, qt, true, None));
            group_count(&rows, publication_fields::JOURNAL)
                .unwrap()
                .len()
        });
        assert_eq!(
            plain.rows, tailored.rows,
            "access paths disagree at QT={qt}"
        );
        let ratio = pii.sim_ms / tailored.sim_ms;
        best = best.max(ratio);
        println!(
            "{qt:.1}\t{}\t{}\t{}\t{:.1}x\t{}",
            ms(pii.sim_ms),
            ms(plain.sim_ms),
            ms(tailored.sim_ms),
            ratio,
            tailored.rows
        );
    }
    summary("fig6.best_tailored_speedup_vs_pii", format!("{best:.1}x"));
}
