//! Ablation 4 — range PTQs (this repo's extension).
//!
//! The paper's intro motivates UPIs with "non-selective analytic queries";
//! its evaluation uses equality PTQs. This bench extends the comparison to
//! range predicates `WHERE Institution BETWEEN lo AND hi (confidence ≥
//! QT)`, where the clustered heap's advantage compounds: the UPI answers
//! with one seek + one sequential run across the whole range, while PII
//! degenerates to a near-full heap scan even faster than in the equality
//! case (alternatives *sum* under possible-world semantics, so no
//! per-alternative pruning applies).

use upi_bench::setups::author_setup_with;
use upi_bench::{banner, drain, header, measure_cold, ms, summary};

fn main() {
    let s = author_setup_with(0.1, Some(256));
    banner(
        "Ablation 4",
        "Range PTQ (Institution BETWEEN 0 AND width, QT=0.3): PII vs UPI",
        "UPI stays one-seek-then-sequential as the range widens",
    );
    header(&["range_width", "PII_ms", "UPI_ms", "speedup", "rows"]);
    let mut speedups = Vec::new();
    for width in [1u64, 4, 16, 64, 256] {
        let pii = measure_cold(&s.store, || {
            s.pii.ptq_range(&s.heap, 0, width, 0.3).unwrap().len()
        });
        let upi = measure_cold(&s.store, || drain(s.upi.range_run(0, width, 0.3)));
        assert_eq!(pii.rows, upi.rows, "range paths disagree at width {width}");
        let speedup = pii.sim_ms / upi.sim_ms;
        speedups.push(speedup);
        println!(
            "{width}\t{}\t{}\t{:.1}x\t{}",
            ms(pii.sim_ms),
            ms(upi.sim_ms),
            speedup,
            upi.rows
        );
    }
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    summary("abl4.range_speedup_range", format!("{min:.1}x - {max:.1}x"));
}
