//! Shared benchmark harness for the per-figure/table reproductions.
//!
//! Every `benches/figNN_*.rs` / `benches/tabNN_*.rs` target is a
//! `harness = false` binary that prints the corresponding figure's series
//! (parameter column + one column per curve) in TSV form, plus a shape
//! summary. Reported runtimes are **simulated disk milliseconds** (the
//! `upi_storage::SimDisk` clock under Table 6's parameters):
//! deterministic, host-independent, and faithful to the paper's
//! disk-bound setting.
//!
//! Scale: the environment variable `UPI_BENCH_SCALE` (float, default 1.0)
//! multiplies dataset sizes, e.g. `UPI_BENCH_SCALE=0.25 cargo bench` for a
//! quick pass.

use std::sync::Arc;

use upi_storage::{DiskConfig, IoStats, SimDisk, Store};
use upi_workloads::{CartelConfig, DblpConfig};

/// Buffer-pool size for experiments. Must be far smaller than the tables
/// (the paper runs with a cold database and buffer cache).
pub const POOL_BYTES: usize = 8 << 20;

/// A fresh simulated machine with Table 6's disk parameters.
pub fn fresh_store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), POOL_BYTES)
}

/// Dataset scale factor from `UPI_BENCH_SCALE`.
pub fn scale() -> f64 {
    std::env::var("UPI_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// DBLP generator configuration at the current scale.
///
/// At scale 1.0 the Author heap is a couple hundred MB — large enough that
/// the sequential-vs-random trade-off, not the fixed `Cost_init`, dominates
/// (the paper's tables are 0.3–2.5 GB).
pub fn dblp_config() -> DblpConfig {
    let s = scale();
    DblpConfig {
        n_authors: ((300_000.0 * s) as usize).max(2_000),
        n_publications: ((600_000.0 * s) as usize).max(4_000),
        payload_bytes: 512,
        ..DblpConfig::default()
    }
}

/// Cartel generator configuration at the current scale.
pub fn cartel_config() -> CartelConfig {
    let s = scale();
    CartelConfig {
        n_observations: ((400_000.0 * s) as usize).max(5_000),
        payload_bytes: 128,
        ..CartelConfig::default()
    }
}

/// One cold measurement of a query.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Simulated disk milliseconds.
    pub sim_ms: f64,
    /// I/O counter deltas.
    pub io: IoStats,
    /// Host wall-clock milliseconds (informational only).
    pub wall_ms: f64,
    /// Result rows returned.
    pub rows: usize,
}

/// Run `f` against a cold cache/cold files/parked head, returning the
/// simulated cost and the number of rows it reported.
pub fn measure_cold<F: FnMut() -> usize>(store: &Store, mut f: F) -> Measured {
    store.go_cold();
    let before = store.disk.stats();
    let wall0 = std::time::Instant::now();
    let rows = f();
    let io = store.disk.stats().since(&before);
    Measured {
        sim_ms: io.total_ms(),
        io,
        wall_ms: wall0.elapsed().as_secs_f64() * 1e3,
        rows,
    }
}

/// Drain a core streaming cursor, returning its row count (an I/O error
/// aborts the bench).
pub fn drain<T, E: std::fmt::Debug>(
    cursor: Result<impl Iterator<Item = Result<T, E>>, E>,
) -> usize {
    cursor
        .unwrap()
        .try_fold(0, |n, r| r.map(|_| n + 1))
        .unwrap()
}

/// Drain a core streaming cursor into its rows, in cursor order.
pub fn collect<T, E: std::fmt::Debug>(
    cursor: Result<impl Iterator<Item = Result<T, E>>, E>,
) -> Vec<T> {
    cursor.unwrap().collect::<Result<_, _>>().unwrap()
}

/// Print a figure/table banner.
pub fn banner(id: &str, title: &str, paper_shape: &str) {
    println!();
    println!("# {id} — {title}");
    println!("# paper shape: {paper_shape}");
    println!("# runtimes are simulated disk milliseconds (SimDisk, Table 6 parameters)");
}

/// Print a TSV header row.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Format milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Print a `## key: value` shape-summary line (the grep-able claim each
/// bench checks, e.g. `fig4.upi_always_faster: true`).
pub fn summary(key: &str, value: impl std::fmt::Display) {
    println!("## {key}: {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_store_uses_table6_parameters() {
        let st = fresh_store();
        let cfg = st.disk.config();
        assert_eq!(cfg.seek_ms, 10.0);
        assert_eq!(cfg.read_ms_per_mb, 20.0);
        assert_eq!(cfg.write_ms_per_mb, 50.0);
        assert_eq!(cfg.init_ms, 100.0);
    }

    #[test]
    fn measure_cold_counts_io() {
        let st = fresh_store();
        let f = st.disk.create_file("t", 4096);
        let p = st.disk.alloc_page(f).unwrap();
        st.pool.put(p, bytes::Bytes::from(vec![0u8; 4096]));
        st.pool.flush_all();
        let m = measure_cold(&st, || {
            st.pool.get(p).unwrap();
            1
        });
        assert_eq!(m.rows, 1);
        assert!(m.sim_ms > 0.0, "cold read must charge the clock");
        assert_eq!(m.io.page_reads, 1);
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(1234.4), "1234");
        assert_eq!(ms(12.34), "12.3");
        assert_eq!(ms(0.1234), "0.123");
    }
}

pub mod setups;
