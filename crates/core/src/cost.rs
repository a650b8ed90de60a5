//! Cost models (§6).
//!
//! Two models, verbatim from the paper:
//!
//! * **Fractured UPI** (§6.2):
//!   `Cost_frac = Cost_scan · Selectivity + N_frac (Cost_init + H·T_descend)`
//! * **Cutoff index** (§6.3):
//!   `Cost_cut = Cost_scan · Selectivity + 2(Cost_init + H·T_descend) + f(#Pointers)`
//!
//! The paper prices each of the `H` descent steps at a full `T_seek`;
//! we price them at the device's short-move cost instead (see
//! [`DeviceCoeffs::t_descend_ms`]) — a root-to-leaf walk moves between
//! nearby pages of one file, and charging the full stroke per level
//! overstates the fixed term enough to poison calibration on shallow
//! trees.
//!   where `f(x) = Cost_scan · (1 − e^{−kx}) / (1 + e^{−kx})` is a
//!   generalized logistic (sigmoid) capturing *saturation*: beyond a point,
//!   more cutoff pointers land on already-visited pages and the access
//!   pattern degenerates into a full scan. `k` is fixed by the paper's
//!   heuristic `f(0.05 · N_leaf) = 0.99 · Cost_scan`.
//!
//! Selectivity and pointer counts come from the §6.1 probability
//! histograms ([`upi_uncertain::AttrStats`]); the bridge functions at the
//! bottom assemble everything from a live index.

use upi_storage::DiskConfig;

use crate::fractured::FracturedUpi;
use crate::upi::DiscreteUpi;

/// The device coefficients every cost formula is parameterized over —
/// Table 6's constants plus the two seek-curve extensions of
/// [`DiskConfig`] — as a plain value type the calibration layer can copy,
/// adjust, and feed back in, instead of formulas reading the disk
/// configuration directly.
///
/// Units are part of the contract:
///
/// | coefficient | unit | Table 6 name |
/// |---|---|---|
/// | `t_seek_ms` | ms per full random seek | `T_seek` |
/// | `seek_floor_ms` | ms, minimum discontiguous move | — (settle + rotation) |
/// | `t_descend_ms` | ms per tree level descended | — (see below) |
/// | `t_read_ms_per_mb` | ms per MiB sequentially read | `T_read` |
/// | `t_write_ms_per_mb` | ms per MiB sequentially written | `T_write` |
/// | `cost_init_ms` | ms per file open | `Cost_init` |
/// | `stroke_bytes` | bytes of head travel costing a full seek | — |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCoeffs {
    /// Full random seek cost, ms (`T_seek`).
    pub t_seek_ms: f64,
    /// Minimum cost of any discontiguous head move, ms (settle +
    /// rotational latency; the seek curve's floor).
    pub seek_floor_ms: f64,
    /// Cost per tree level descended, ms. The paper prices a descent at
    /// `T_seek`, but a root-to-leaf walk hops between *nearby* pages of
    /// one index file — the device charges those moves at the seek
    /// curve's floor, not the full stroke. Pricing descents at `T_seek`
    /// overstates the fixed term of shallow trees so badly that the
    /// warm-execution filter rejects real cold samples and the refit
    /// pins scales at the floor; this coefficient keeps the fixed term
    /// honest.
    pub t_descend_ms: f64,
    /// Sequential read rate, ms/MiB (`T_read`).
    pub t_read_ms_per_mb: f64,
    /// Sequential write rate, ms/MiB (`T_write`).
    pub t_write_ms_per_mb: f64,
    /// File open cost, ms (`Cost_init`).
    pub cost_init_ms: f64,
    /// Seek-distance normalization: a move of this many bytes (or more)
    /// costs the full `t_seek_ms`.
    pub stroke_bytes: f64,
}

impl DeviceCoeffs {
    /// Lift the simulated disk's configuration into coefficients.
    pub fn from_disk(disk: &DiskConfig) -> DeviceCoeffs {
        DeviceCoeffs {
            t_seek_ms: disk.seek_ms,
            seek_floor_ms: disk.seek_floor_ms,
            t_descend_ms: disk.seek_floor_ms,
            t_read_ms_per_mb: disk.read_ms_per_mb,
            t_write_ms_per_mb: disk.write_ms_per_mb,
            cost_init_ms: disk.init_ms,
            stroke_bytes: disk.stroke_bytes as f64,
        }
    }

    /// Milliseconds to sequentially read `bytes`.
    pub fn read_cost_ms(&self, bytes: f64) -> f64 {
        bytes * self.t_read_ms_per_mb / (1024.0 * 1024.0)
    }

    /// Milliseconds to sequentially write `bytes`.
    pub fn write_cost_ms(&self, bytes: f64) -> f64 {
        bytes * self.t_write_ms_per_mb / (1024.0 * 1024.0)
    }

    /// `Cost_init + H · T_descend`: open a file and descend its tree.
    /// Each level is priced at the calibrated descent coefficient
    /// ([`t_descend_ms`](Self::t_descend_ms)), not the full `T_seek`.
    pub fn open_descend_ms(&self, height: usize) -> f64 {
        self.cost_init_ms + height as f64 * self.t_descend_ms
    }
}

/// Inputs of the cost formulas (Table 6).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Random seek cost, ms (`T_seek`).
    pub t_seek_ms: f64,
    /// Per-level tree descent cost, ms (see
    /// [`DeviceCoeffs::t_descend_ms`]).
    pub t_descend_ms: f64,
    /// Sequential read rate, ms/MiB (`T_read`).
    pub t_read_ms_per_mb: f64,
    /// Sequential write rate, ms/MiB (`T_write`).
    pub t_write_ms_per_mb: f64,
    /// File open cost, ms (`Cost_init`).
    pub cost_init_ms: f64,
    /// B+Tree height (`H`).
    pub height: usize,
    /// Heap-file size in bytes (`S_table`).
    pub table_bytes: u64,
    /// Heap leaf pages (`N_leaf`).
    pub n_leaf: u64,
}

impl CostParams {
    /// Assemble from the disk configuration plus heap-tree statistics.
    pub fn new(disk: &DiskConfig, height: usize, table_bytes: u64, n_leaf: u64) -> CostParams {
        CostParams::with_coeffs(&DeviceCoeffs::from_disk(disk), height, table_bytes, n_leaf)
    }

    /// Assemble from explicit device coefficients — the
    /// coefficient-parameterized entry point the calibrating planner uses
    /// (the formulas below never read a [`DiskConfig`] directly).
    pub fn with_coeffs(
        coeffs: &DeviceCoeffs,
        height: usize,
        table_bytes: u64,
        n_leaf: u64,
    ) -> CostParams {
        CostParams {
            t_seek_ms: coeffs.t_seek_ms,
            t_descend_ms: coeffs.t_descend_ms,
            t_read_ms_per_mb: coeffs.t_read_ms_per_mb,
            t_write_ms_per_mb: coeffs.t_write_ms_per_mb,
            cost_init_ms: coeffs.cost_init_ms,
            height,
            table_bytes,
            n_leaf: n_leaf.max(1),
        }
    }

    /// `Cost_scan = T_read · S_table` (Table 6).
    pub fn cost_scan_ms(&self) -> f64 {
        self.table_bytes as f64 * self.t_read_ms_per_mb / (1024.0 * 1024.0)
    }
}

/// The §6 cost models over a fixed set of parameters.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Model parameters.
    pub params: CostParams,
}

impl CostModel {
    /// Build from parameters.
    pub fn new(params: CostParams) -> CostModel {
        CostModel { params }
    }

    /// The saturation constant `k`, from the paper's heuristic
    /// `f(0.05 · N_leaf) = 0.99 · Cost_scan`.
    ///
    /// Solving `(1 − e^{−kx})/(1 + e^{−kx}) = 0.99` gives
    /// `e^{−kx} = 0.01/1.99`, i.e. `k = ln(199) / x` at `x = 0.05·N_leaf`.
    pub fn sigmoid_k(&self) -> f64 {
        (199.0f64).ln() / (0.05 * self.params.n_leaf as f64)
    }

    /// `f(x)`: the cost of dereferencing `x` cutoff pointers, saturating at
    /// a full scan.
    pub fn pointer_fetch_ms(&self, n_pointers: f64) -> f64 {
        if n_pointers <= 0.0 {
            return 0.0;
        }
        let k = self.sigmoid_k();
        let e = (-k * n_pointers).exp();
        self.params.cost_scan_ms() * (1.0 - e) / (1.0 + e)
    }

    /// `Cost_frac` (§6.2). `n_components` counts every independently opened
    /// index (the paper's `N_frac`; we pass fractures + 1 so the main UPI's
    /// open is included, which the measured runtime also pays).
    pub fn cost_fractured_ms(&self, selectivity: f64, n_components: usize) -> f64 {
        self.params.cost_scan_ms() * selectivity + n_components as f64 * self.open_descend_ms()
    }

    /// `Cost_cut` (§6.3): heap scan + two file opens (heap + cutoff index)
    /// + saturating pointer dereferences.
    pub fn cost_cutoff_ms(&self, selectivity: f64, n_pointers: f64) -> f64 {
        self.params.cost_scan_ms() * selectivity
            + 2.0 * self.open_descend_ms()
            + self.pointer_fetch_ms(n_pointers)
    }

    /// `Cost_merge = S_table (T_read + T_write)` (§6.2), for `db_bytes` of
    /// data.
    pub fn merge_cost_ms(&self, db_bytes: u64) -> f64 {
        db_bytes as f64 * (self.params.t_read_ms_per_mb + self.params.t_write_ms_per_mb)
            / (1024.0 * 1024.0)
    }

    /// `Cost_init + H · T_descend`: the per-component fixed term both §6
    /// formulas share.
    fn open_descend_ms(&self) -> f64 {
        self.params.cost_init_ms + self.params.height as f64 * self.params.t_descend_ms
    }
}

// ---------------------------------------------------------------------------
// Bridges from live structures
// ---------------------------------------------------------------------------

/// Cost model for a standalone (non-fractured) UPI, using its heap size.
pub fn model_for_upi(disk: &DiskConfig, upi: &DiscreteUpi) -> CostModel {
    model_for_upi_coeffs(&DeviceCoeffs::from_disk(disk), upi)
}

/// [`model_for_upi`] over explicit device coefficients (the calibrating
/// planner's entry point).
pub fn model_for_upi_coeffs(coeffs: &DeviceCoeffs, upi: &DiscreteUpi) -> CostModel {
    let heap = upi.heap_stats();
    CostModel::new(CostParams::with_coeffs(
        coeffs,
        heap.height,
        heap.bytes,
        heap.leaf_pages as u64,
    ))
}

/// Cost model for a fractured UPI, sized over all components' heaps.
pub fn model_for_fractured(disk: &DiskConfig, f: &FracturedUpi) -> CostModel {
    model_for_fractured_coeffs(&DeviceCoeffs::from_disk(disk), f)
}

/// [`model_for_fractured`] over explicit device coefficients.
pub fn model_for_fractured_coeffs(coeffs: &DeviceCoeffs, f: &FracturedUpi) -> CostModel {
    let heap = f.main().heap_stats();
    CostModel::new(CostParams::with_coeffs(
        coeffs,
        heap.height,
        f.total_bytes(),
        heap.leaf_pages as u64,
    ))
}

/// Estimated number of cutoff pointers a PTQ `(value, qt)` reads — the
/// "Estimated" series of Figure 11. Zero when `qt ≥ C`.
pub fn estimate_cutoff_pointers(upi: &DiscreteUpi, value: u64, qt: f64) -> f64 {
    let c = upi.config().cutoff;
    if qt >= c {
        return 0.0;
    }
    upi.attr_stats().est_cutoff_pointers(value, qt, c)
}

/// Estimated cutoff pointers a range PTQ `[lo, hi]` at `qt` dereferences
/// in its second phase: the below-cutoff alternatives at or above `qt`
/// across the range's values. Zero when `qt ≥ C`.
pub fn estimate_range_cutoff_pointers(upi: &DiscreteUpi, lo: u64, hi: u64, qt: f64) -> f64 {
    let c = upi.config().cutoff;
    if qt >= c {
        return 0.0;
    }
    upi.attr_stats().est_cutoff_pointers_range(lo, hi, qt, c)
}

/// Estimated fraction of the heap file a PTQ `(value, qt)` scans:
/// alternatives at/above `max(qt, C)` plus the first alternatives in
/// `[qt, C)`, which Algorithm 1 keeps heap-resident.
pub fn estimate_heap_selectivity(upi: &DiscreteUpi, value: u64, qt: f64) -> f64 {
    let c = upi.config().cutoff;
    let heap_entries = upi.heap_stats().entries.max(1) as f64;
    let matching = upi.attr_stats().est_heap_count_ge(value, qt, c);
    (matching / heap_entries).min(1.0)
}

/// Average heap entries per leaf page, from live tree statistics — the
/// occupancy figure every run-length-to-pages conversion shares (also
/// used by the planner to bound a top-k hint window to k rows' leaves).
pub fn entries_per_leaf(upi: &DiscreteUpi) -> f64 {
    let hs = upi.heap_stats();
    (hs.entries as f64 / hs.leaf_pages.max(1) as f64).max(1.0)
}

/// Estimated length, in heap leaf pages, of the clustered run a point PTQ
/// `(value, qt)` scans — the §6.1 heap selectivity translated into pages
/// so the buffer pool's hinted read-ahead can size its window from it.
/// Always at least 1 (the run's first leaf is read regardless).
pub fn estimate_run_pages(upi: &DiscreteUpi, value: u64, qt: f64) -> usize {
    let matching = upi
        .attr_stats()
        .est_heap_count_ge(value, qt, upi.config().cutoff);
    let pages = (matching / entries_per_leaf(upi)).ceil() as usize;
    pages.clamp(1, upi.heap_stats().leaf_pages.max(1))
}

/// Estimated length, in heap leaf pages, of the clustered run a range PTQ
/// `[lo, hi]` scans. Alternatives sum under possible-world semantics, so
/// the run covers every entry whose value falls in the range regardless
/// of probability (see `DiscreteUpi::range_run`).
pub fn estimate_range_run_pages(upi: &DiscreteUpi, lo: u64, hi: u64) -> usize {
    let stats = upi.attr_stats();
    let frac = (stats.est_count_value_range(lo, hi) / stats.total().max(1) as f64).min(1.0);
    let leaf_pages = upi.heap_stats().leaf_pages.max(1);
    ((frac * leaf_pages as f64).ceil() as usize).clamp(1, leaf_pages)
}

/// The §6.3 cutoff-query cost split into its calibration halves:
/// `(fixed, dominant)` where fixed = file opens + tree descents (device
/// constants) and dominant = the data-dependent selectivity-scaled scan
/// plus the saturating pointer dereferences. The single source both the
/// calibrating planner (which rescales only the dominant half) and
/// [`estimate_query_cutoff_ms`] (their sum) derive from — so the two can
/// never drift apart.
pub fn cutoff_query_cost_parts(
    coeffs: &DeviceCoeffs,
    upi: &DiscreteUpi,
    value: u64,
    qt: f64,
) -> (f64, f64) {
    let model = model_for_upi_coeffs(coeffs, upi);
    let sel = estimate_heap_selectivity(upi, value, qt);
    let opens = coeffs.open_descend_ms(upi.heap_stats().height);
    if qt >= upi.config().cutoff {
        // Heap-only path: one file open + descent + sequential run.
        (opens, model.params.cost_scan_ms() * sel)
    } else {
        // `Cost_cut`: two opens (heap + cutoff index) + scan + f(x).
        (
            2.0 * opens,
            model.params.cost_scan_ms() * sel
                + model.pointer_fetch_ms(estimate_cutoff_pointers(upi, value, qt)),
        )
    }
}

/// Estimated runtime of Query 1 on a standalone UPI with a cutoff index
/// (the "Estimated" curves of Figure 12) — the sum of
/// [`cutoff_query_cost_parts`].
pub fn estimate_query_cutoff_ms(disk: &DiskConfig, upi: &DiscreteUpi, value: u64, qt: f64) -> f64 {
    let (fixed, dominant) = cutoff_query_cost_parts(&DeviceCoeffs::from_disk(disk), upi, value, qt);
    fixed + dominant
}

/// The §6.2 fractured cost for a given selectivity, split into its
/// calibration halves: `(fixed, dominant)` where fixed = one open +
/// descent per component (`N_frac + 1`) and dominant = the
/// selectivity-scaled scan over all components' bytes (see
/// [`cutoff_query_cost_parts`] for why the split is shared).
pub fn fractured_cost_parts(
    coeffs: &DeviceCoeffs,
    f: &FracturedUpi,
    selectivity: f64,
) -> (f64, f64) {
    let model = model_for_fractured_coeffs(coeffs, f);
    let components = (f.n_fractures() + 1) as f64;
    (
        components * coeffs.open_descend_ms(f.main().heap_stats().height),
        model.params.cost_scan_ms() * selectivity,
    )
}

/// Estimated runtime of Query 1 on a fractured UPI (the "Estimated" series
/// of Figure 10) — the sum of [`fractured_cost_parts`] at the point
/// query's heap selectivity.
pub fn estimate_query_fractured_ms(
    disk: &DiskConfig,
    f: &FracturedUpi,
    value: u64,
    qt: f64,
) -> f64 {
    let main = f.main();
    let heap_entries = main.heap_stats().entries.max(1) as f64;
    let sel = (main
        .attr_stats()
        .est_heap_count_ge(value, qt, main.config().cutoff)
        / heap_entries)
        .min(1.0);
    let (fixed, dominant) = fractured_cost_parts(&DeviceCoeffs::from_disk(disk), f, sel);
    fixed + dominant
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        // Table 6's running configuration, scaled to a 100 MiB table.
        CostParams {
            t_seek_ms: 10.0,
            t_descend_ms: 4.0,
            t_read_ms_per_mb: 20.0,
            t_write_ms_per_mb: 50.0,
            cost_init_ms: 100.0,
            height: 4,
            table_bytes: 100 << 20,
            n_leaf: (100 << 20) / 8192,
        }
    }

    #[test]
    fn cost_scan_matches_table6_definition() {
        let p = params();
        assert!(
            (p.cost_scan_ms() - 2000.0).abs() < 1e-9,
            "100MiB * 20ms/MiB"
        );
    }

    #[test]
    fn sigmoid_k_satisfies_heuristic() {
        let m = CostModel::new(params());
        let x = 0.05 * m.params.n_leaf as f64;
        let f = m.pointer_fetch_ms(x);
        assert!(
            (f - 0.99 * m.params.cost_scan_ms()).abs() < 1e-6,
            "f(0.05*Nleaf) = {f}, want {}",
            0.99 * m.params.cost_scan_ms()
        );
    }

    #[test]
    fn pointer_fetch_saturates_at_cost_scan() {
        let m = CostModel::new(params());
        assert_eq!(m.pointer_fetch_ms(0.0), 0.0);
        let huge = m.pointer_fetch_ms(1e12);
        assert!(huge <= m.params.cost_scan_ms() + 1e-9);
        assert!(huge > 0.999 * m.params.cost_scan_ms());
    }

    #[test]
    fn pointer_fetch_is_monotone_nondecreasing() {
        let m = CostModel::new(params());
        let mut prev = 0.0;
        for x in (0..10_000).step_by(100) {
            let f = m.pointer_fetch_ms(x as f64);
            assert!(f + 1e-12 >= prev);
            prev = f;
        }
    }

    #[test]
    fn pointer_fetch_is_initially_steep_then_flat() {
        // Near zero, each pointer costs roughly k/2 * Cost_scan (expensive
        // seeks); near saturation, marginal cost approaches zero.
        let m = CostModel::new(params());
        let early = m.pointer_fetch_ms(200.0) - m.pointer_fetch_ms(100.0);
        let late = m.pointer_fetch_ms(5000.0) - m.pointer_fetch_ms(4900.0);
        assert!(early > late * 2.0, "early {early} vs late {late}");
    }

    #[test]
    fn fractured_cost_is_linear_in_components() {
        let m = CostModel::new(params());
        let c1 = m.cost_fractured_ms(0.01, 1);
        let c5 = m.cost_fractured_ms(0.01, 5);
        let per = m.params.cost_init_ms + m.params.height as f64 * m.params.t_descend_ms;
        assert!(((c5 - c1) - 4.0 * per).abs() < 1e-9);
    }

    #[test]
    fn cutoff_cost_includes_two_opens() {
        let m = CostModel::new(params());
        let base = m.cost_cutoff_ms(0.0, 0.0);
        let per = m.params.cost_init_ms + m.params.height as f64 * m.params.t_descend_ms;
        assert!((base - 2.0 * per).abs() < 1e-9);
    }

    #[test]
    fn descents_are_priced_below_full_seeks() {
        // The calibrated descent coefficient comes from the seek curve's
        // floor, so the fixed term of any tree walk undercuts the
        // paper's `H·T_seek` pricing — the §6 formulas must pick it up.
        let coeffs = DeviceCoeffs::from_disk(&DiskConfig::default());
        assert!(coeffs.t_descend_ms < coeffs.t_seek_ms);
        let h = 3;
        let walk = coeffs.open_descend_ms(h);
        let paper = coeffs.cost_init_ms + h as f64 * coeffs.t_seek_ms;
        assert!(walk < paper, "{walk} must undercut {paper}");
        let m = CostModel::new(params());
        let per = m.params.cost_init_ms + m.params.height as f64 * m.params.t_descend_ms;
        assert!((m.cost_fractured_ms(0.0, 1) - per).abs() < 1e-9);
    }

    #[test]
    fn merge_cost_matches_formula() {
        let m = CostModel::new(params());
        // 1 GiB: 1024 * (20 + 50) ms.
        assert!((m.merge_cost_ms(1 << 30) - 1024.0 * 70.0).abs() < 1e-6);
    }
}
