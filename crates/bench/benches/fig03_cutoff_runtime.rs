//! Figure 3 — Cutoff-index *measured* runtime: Query 1 against UPIs built
//! with varying cutoff threshold `C`, for QT ∈ {0.05, 0.15, 0.25}; once
//! with a non-selective key (the paper's ~37 k-author institution) and once
//! with a selective key (~300 authors).
//!
//! Paper shape: queries with `QT ≥ C` are fast (pure sequential); when
//! `QT < C` the cutoff-pointer chase makes them slower — but for the
//! non-selective key the curves *flatten* (saturation): beyond a point the
//! pointer dereferences already touch almost every heap page, so lowering
//! QT further costs nothing more, and larger C can even be *faster* at
//! saturation because the (smaller) heap scans cheaper.

use upi_bench::setups::author_setup_with;
use upi_bench::{banner, drain, header, measure_cold, ms, summary};

const QTS: [f64; 3] = [0.05, 0.15, 0.25];
const CS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

fn main() {
    banner(
        "Figure 3",
        "Cutoff index measured runtime (top: non-selective, bottom: selective)",
        "cliff when QT<C; saturation flattens the non-selective curves",
    );
    for selective in [false, true] {
        println!(
            "\n# {} query",
            if selective {
                "selective"
            } else {
                "non-selective"
            }
        );
        header(&["C", "QT=0.05_ms", "QT=0.15_ms", "QT=0.25_ms", "rows@0.05"]);
        let mut rows_at_005 = 0usize;
        let mut flat_check: Vec<f64> = Vec::new();
        for &c in &CS {
            let s = author_setup_with(c, Some(128));
            let key = if selective {
                s.data.selective_institution()
            } else {
                s.data.popular_institution()
            };
            let mut cells = Vec::new();
            for &qt in &QTS {
                let m = measure_cold(&s.store, || drain(s.upi.cutoff_merge(key, qt)));
                if qt == QTS[0] {
                    rows_at_005 = m.rows;
                    if !selective && c >= 0.4 {
                        flat_check.push(m.sim_ms);
                    }
                }
                cells.push(ms(m.sim_ms));
            }
            println!("{c:.1}\t{}\t{rows_at_005}", cells.join("\t"));
        }
        if !selective && flat_check.len() >= 2 {
            let spread = (flat_check[0] - flat_check[1]).abs() / flat_check[0].max(flat_check[1]);
            summary(
                "fig3.saturation_flatness_C>=0.4",
                format!("{:.0}% spread", spread * 100.0),
            );
        }
    }
}
