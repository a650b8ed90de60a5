//! Probability and value histograms for selectivity estimation (§6.1).
//!
//! "We estimate the selectivity by maintaining a probability histogram in
//! addition to an attribute-value-based histogram. For example, a
//! probability histogram might indicate that 5% of the possible values of
//! attribute X have a probability of 20% or more."
//!
//! [`AttrStats`] keeps, per attribute value, the count of alternatives and a
//! fixed-width probability histogram. This is exact enough to reproduce
//! Figure 11 (estimated vs. real cutoff-pointer counts) while remaining a
//! realistic statistics structure (size is `O(distinct values × bins)`).

use std::collections::HashMap;

/// Number of equal-width probability bins. 200 bins give 0.5% resolution,
/// comfortably below the experiment's threshold grid.
pub const DEFAULT_BINS: usize = 200;

/// Fixed-width histogram over probabilities in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct ProbHistogram {
    bins: Vec<u64>,
    total: u64,
}

impl Default for ProbHistogram {
    fn default() -> Self {
        ProbHistogram::new(DEFAULT_BINS)
    }
}

impl ProbHistogram {
    /// Create with `nbins` equal-width bins.
    pub fn new(nbins: usize) -> ProbHistogram {
        assert!(nbins > 0);
        ProbHistogram {
            bins: vec![0; nbins],
            total: 0,
        }
    }

    fn bin_of(&self, p: f64) -> usize {
        let n = self.bins.len();
        ((p.clamp(0.0, 1.0) * n as f64) as usize).min(n - 1)
    }

    /// Record one observation.
    pub fn add(&mut self, p: f64) {
        let b = self.bin_of(p);
        self.bins[b] += 1;
        self.total += 1;
    }

    /// Remove one observation (for delete maintenance).
    pub fn remove(&mut self, p: f64) {
        let b = self.bin_of(p);
        if self.bins[b] > 0 {
            self.bins[b] -= 1;
            self.total -= 1;
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimated number of observations with probability `>= p`
    /// (linear interpolation within the boundary bin).
    pub fn count_ge(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return self.total as f64;
        }
        if p > 1.0 {
            return 0.0;
        }
        let n = self.bins.len() as f64;
        let exact = p * n;
        let b = self.bin_of(p);
        let mut count = 0.0;
        for i in (b + 1)..self.bins.len() {
            count += self.bins[i] as f64;
        }
        // Fraction of the boundary bin above p.
        let frac_above = ((b + 1) as f64 - exact).clamp(0.0, 1.0);
        count + self.bins[b] as f64 * frac_above
    }

    /// Estimated observations with probability in `[lo, hi)`.
    pub fn count_between(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        (self.count_ge(lo) - self.count_ge(hi)).max(0.0)
    }

    /// Append a sparse encoding: bin count, then `(index, count)` pairs
    /// for the occupied bins. `total` is redundant (the bin sum) and not
    /// stored.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.bins.len() as u32).to_le_bytes());
        let occupied = self.bins.iter().filter(|&&c| c > 0).count() as u32;
        out.extend_from_slice(&occupied.to_le_bytes());
        for (i, &c) in self.bins.iter().enumerate() {
            if c > 0 {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    fn decode_from(cur: &mut Cur<'_>) -> Option<ProbHistogram> {
        let nbins = cur.u32()? as usize;
        if nbins == 0 || nbins > 1 << 20 {
            return None;
        }
        let occupied = cur.u32()? as usize;
        let mut h = ProbHistogram::new(nbins);
        for _ in 0..occupied {
            let idx = cur.u32()? as usize;
            let count = cur.u64()?;
            if idx >= nbins {
                return None;
            }
            h.bins[idx] = count;
            h.total += count;
        }
        Some(h)
    }
}

/// Byte cursor for the statistics (de)serializers.
struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Per-attribute statistics: a probability histogram per distinct value
/// plus a global histogram, maintained incrementally by the table layer.
///
/// **First alternatives are tracked separately**: Algorithm 1 keeps a
/// tuple's most probable alternative in the heap file regardless of the
/// cutoff threshold, so estimating what resides in the heap versus the
/// cutoff index ("we estimate both the number of tuples satisfying the
/// query that reside in the heap file and that reside in the cutoff
/// index", §6.1) needs to know how much probability mass in a band belongs
/// to first alternatives.
#[derive(Debug, Clone, Default)]
pub struct AttrStats {
    per_value: HashMap<u64, ProbHistogram>,
    per_value_first: HashMap<u64, ProbHistogram>,
    global: ProbHistogram,
    global_first: ProbHistogram,
}

impl AttrStats {
    /// Empty statistics.
    pub fn new() -> AttrStats {
        AttrStats::default()
    }

    /// Record one alternative `(value, probability)`. `is_first` marks the
    /// tuple's most probable alternative.
    pub fn add(&mut self, value: u64, p: f64, is_first: bool) {
        self.per_value.entry(value).or_default().add(p);
        self.global.add(p);
        if is_first {
            self.per_value_first.entry(value).or_default().add(p);
            self.global_first.add(p);
        }
    }

    /// Remove one alternative.
    pub fn remove(&mut self, value: u64, p: f64, is_first: bool) {
        if let Some(h) = self.per_value.get_mut(&value) {
            h.remove(p);
        }
        self.global.remove(p);
        if is_first {
            if let Some(h) = self.per_value_first.get_mut(&value) {
                h.remove(p);
            }
            self.global_first.remove(p);
        }
    }

    /// Estimated alternatives of `value` with probability `>= qt`
    /// (the number of qualifying heap entries for a PTQ).
    pub fn est_count_ge(&self, value: u64, qt: f64) -> f64 {
        self.per_value
            .get(&value)
            .map(|h| h.count_ge(qt))
            .unwrap_or(0.0)
    }

    /// Estimated alternatives of `value` with probability in `[qt, c)`.
    pub fn est_count_between(&self, value: u64, qt: f64, c: f64) -> f64 {
        self.per_value
            .get(&value)
            .map(|h| h.count_between(qt, c))
            .unwrap_or(0.0)
    }

    /// Estimated *first* alternatives of `value` with probability in
    /// `[qt, c)` — these stay in the heap file even below the cutoff.
    pub fn est_first_between(&self, value: u64, qt: f64, c: f64) -> f64 {
        self.per_value_first
            .get(&value)
            .map(|h| h.count_between(qt, c))
            .unwrap_or(0.0)
    }

    /// Estimated pointers a PTQ `(value, qt)` reads from a cutoff index
    /// built with threshold `c` (Figure 11's estimated series): the
    /// alternatives in `[qt, c)` *minus* the first alternatives among them
    /// (which Algorithm 1 leaves in the heap).
    pub fn est_cutoff_pointers(&self, value: u64, qt: f64, c: f64) -> f64 {
        (self.est_count_between(value, qt, c) - self.est_first_between(value, qt, c)).max(0.0)
    }

    /// [`est_cutoff_pointers`](Self::est_cutoff_pointers) summed over
    /// every value in `[lo, hi]` (inclusive). `O(distinct values)`.
    pub fn est_cutoff_pointers_range(&self, lo: u64, hi: u64, qt: f64, c: f64) -> f64 {
        self.per_value
            .keys()
            .filter(|v| (lo..=hi).contains(*v))
            .map(|&v| self.est_cutoff_pointers(v, qt, c))
            .sum()
    }

    /// Estimated heap-resident entries of `value` with probability `>= qt`
    /// under cutoff `c`: everything at/above `max(qt, c)` plus the first
    /// alternatives in the `[qt, c)` band.
    pub fn est_heap_count_ge(&self, value: u64, qt: f64, c: f64) -> f64 {
        self.est_count_ge(value, qt.max(c)) + self.est_first_between(value, qt, c)
    }

    /// Estimated total first alternatives below probability `c` (they stay
    /// heap-resident; used for table-size estimation).
    pub fn est_first_below_global(&self, c: f64) -> f64 {
        self.global_first.count_between(0.0, c)
    }

    /// Total alternatives recorded for `value`.
    pub fn value_count(&self, value: u64) -> u64 {
        self.per_value.get(&value).map(|h| h.total()).unwrap_or(0)
    }

    /// Total alternatives across every value in `[lo, hi]` (inclusive) —
    /// range-scan selectivity for the planner. `O(distinct values)`.
    pub fn est_count_value_range(&self, lo: u64, hi: u64) -> f64 {
        self.per_value
            .iter()
            .filter(|(&v, _)| (lo..=hi).contains(&v))
            .map(|(_, h)| h.total() as f64)
            .sum()
    }

    /// Estimated total alternatives across all values with probability
    /// `>= c` — drives the table-size-vs-cutoff estimate of §6.3.
    pub fn est_total_ge(&self, c: f64) -> f64 {
        self.global.count_ge(c)
    }

    /// Total alternatives across all values.
    pub fn total(&self) -> u64 {
        self.global.total()
    }

    /// Number of distinct values observed.
    pub fn distinct_values(&self) -> usize {
        self.per_value.len()
    }

    /// Selectivity (fraction of all alternatives) of `value` at threshold
    /// `qt` — the `Selectivity` input of the §6.2/§6.3 cost formulas.
    pub fn selectivity(&self, value: u64, qt: f64) -> f64 {
        if self.global.total() == 0 {
            return 0.0;
        }
        self.est_count_ge(value, qt) / self.global.total() as f64
    }

    /// Serialize deterministically (maps written in sorted key order) for
    /// the checkpoint's statistics payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn write_map(out: &mut Vec<u8>, m: &HashMap<u64, ProbHistogram>) {
            out.extend_from_slice(&(m.len() as u32).to_le_bytes());
            let mut keys: Vec<u64> = m.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                out.extend_from_slice(&k.to_le_bytes());
                m[&k].encode_into(out);
            }
        }
        let mut out = Vec::new();
        write_map(&mut out, &self.per_value);
        write_map(&mut out, &self.per_value_first);
        self.global.encode_into(&mut out);
        self.global_first.encode_into(&mut out);
        out
    }

    /// Inverse of [`to_bytes`](Self::to_bytes); `None` on any malformed
    /// or trailing bytes.
    pub fn from_bytes(data: &[u8]) -> Option<AttrStats> {
        fn read_map(cur: &mut Cur<'_>) -> Option<HashMap<u64, ProbHistogram>> {
            let n = cur.u32()? as usize;
            let mut m = HashMap::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let k = cur.u64()?;
                m.insert(k, ProbHistogram::decode_from(cur)?);
            }
            Some(m)
        }
        let mut cur = Cur { data, pos: 0 };
        let s = AttrStats {
            per_value: read_map(&mut cur)?,
            per_value_first: read_map(&mut cur)?,
            global: ProbHistogram::decode_from(&mut cur)?,
            global_first: ProbHistogram::decode_from(&mut cur)?,
        };
        (cur.pos == data.len()).then_some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn count_ge_exact_at_bin_boundaries() {
        let mut h = ProbHistogram::new(10);
        for p in [0.05, 0.15, 0.25, 0.35, 0.95] {
            h.add(p);
        }
        assert_eq!(h.total(), 5);
        assert!((h.count_ge(0.0) - 5.0).abs() < 1e-9);
        assert!((h.count_ge(0.1) - 4.0).abs() < 1e-9);
        assert!((h.count_ge(0.3) - 2.0).abs() < 1e-9);
        assert!((h.count_ge(0.9) - 1.0).abs() < 1e-9);
        assert!(h.count_ge(1.01).abs() < 1e-9);
    }

    #[test]
    fn interpolation_within_bin() {
        let mut h = ProbHistogram::new(10);
        // 10 observations all in bin [0.2, 0.3).
        for _ in 0..10 {
            h.add(0.25);
        }
        // Halfway through the bin → about half the bin's mass above.
        let est = h.count_ge(0.25);
        assert!((est - 5.0).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn remove_undoes_add() {
        let mut h = ProbHistogram::new(10);
        h.add(0.5);
        h.add(0.7);
        h.remove(0.5);
        assert_eq!(h.total(), 1);
        assert!((h.count_ge(0.6) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attr_stats_per_value_and_between() {
        let mut s = AttrStats::new();
        // Value 1: probs 0.9 (first), 0.2, 0.05. Value 2: prob 0.5 (first).
        s.add(1, 0.9, true);
        s.add(1, 0.2, false);
        s.add(1, 0.05, false);
        s.add(2, 0.5, true);
        assert_eq!(s.total(), 4);
        assert_eq!(s.distinct_values(), 2);
        assert_eq!(s.value_count(1), 3);
        assert!((s.est_count_ge(1, 0.1) - 2.0).abs() < 0.1);
        // Pointers for QT=0.01, C=0.1: the 0.05 alternative.
        assert!((s.est_count_between(1, 0.01, 0.1) - 1.0).abs() < 0.3);
        assert_eq!(s.est_count_ge(99, 0.0), 0.0);
    }

    #[test]
    fn first_alternatives_are_not_counted_as_pointers() {
        let mut s = AttrStats::new();
        // A low-probability FIRST alternative (whole tuple is unlikely):
        // stays in the heap, so it is not a cutoff pointer.
        s.add(1, 0.06, true);
        // A low-probability tail alternative: becomes a pointer.
        s.add(1, 0.055, false);
        let ptrs = s.est_cutoff_pointers(1, 0.01, 0.2);
        assert!((ptrs - 1.0).abs() < 0.2, "got {ptrs}");
        // Heap-resident entries at qt=0.01 under c=0.2: only the first.
        let heap = s.est_heap_count_ge(1, 0.01, 0.2);
        assert!((heap - 1.0).abs() < 0.2, "got {heap}");
        assert!((s.est_first_below_global(0.2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn remove_tracks_first_flags() {
        let mut s = AttrStats::new();
        s.add(1, 0.06, true);
        s.add(1, 0.05, false);
        s.remove(1, 0.05, false);
        assert!((s.est_cutoff_pointers(1, 0.0, 0.2) - 0.0).abs() < 1e-9);
        s.remove(1, 0.06, true);
        assert_eq!(s.total(), 0);
        assert_eq!(s.est_first_below_global(1.0), 0.0);
    }

    #[test]
    fn stats_round_trip_bytes() {
        let mut s = AttrStats::new();
        for i in 0..50u64 {
            s.add(i % 7, (i % 10) as f64 / 10.0, i % 3 == 0);
        }
        s.remove(3, 0.3, true);
        let bytes = s.to_bytes();
        let r = AttrStats::from_bytes(&bytes).expect("round trip");
        assert_eq!(r.total(), s.total());
        assert_eq!(r.distinct_values(), s.distinct_values());
        for v in 0..8u64 {
            assert_eq!(r.value_count(v), s.value_count(v));
            for qt in [0.0, 0.25, 0.7] {
                assert!((r.est_count_ge(v, qt) - s.est_count_ge(v, qt)).abs() < 1e-12);
                assert!(
                    (r.est_first_between(v, qt, 0.9) - s.est_first_between(v, qt, 0.9)).abs()
                        < 1e-12
                );
            }
        }
        // Deterministic: same stats encode to the same bytes.
        assert_eq!(bytes, r.to_bytes());
        // Malformed payloads are rejected, not misread.
        assert!(AttrStats::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(AttrStats::from_bytes(&extended).is_none());
        assert!(AttrStats::from_bytes(&[]).is_none());
    }

    #[test]
    fn selectivity_is_a_fraction() {
        let mut s = AttrStats::new();
        for i in 0..100 {
            s.add(i % 4, 0.5, true);
        }
        let sel = s.selectivity(0, 0.2);
        assert!((sel - 0.25).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_count_ge_monotone(probs in proptest::collection::vec(0.0f64..=1.0, 1..200)) {
            let mut h = ProbHistogram::default();
            for &p in &probs {
                h.add(p);
            }
            let mut prev = h.count_ge(0.0);
            prop_assert!((prev - probs.len() as f64).abs() < 1e-9);
            for i in 1..=100 {
                let q = i as f64 / 100.0;
                let c = h.count_ge(q);
                prop_assert!(c <= prev + 1e-9, "count_ge must be non-increasing");
                prev = c;
            }
        }

        #[test]
        fn prop_count_ge_bounds_truth(probs in proptest::collection::vec(0.0f64..=1.0, 1..200), qt in 0.0f64..=1.0) {
            let mut h = ProbHistogram::default();
            for &p in &probs {
                h.add(p);
            }
            let truth = probs.iter().filter(|&&p| p >= qt).count() as f64;
            let est = h.count_ge(qt);
            // The estimate can be off by at most one bin's worth of mass
            // around the boundary.
            let bin_mass = probs
                .iter()
                .filter(|&&p| (p - qt).abs() <= 1.0 / DEFAULT_BINS as f64)
                .count() as f64;
            prop_assert!((est - truth).abs() <= bin_mass + 1e-6,
                "est={est} truth={truth} slack={bin_mass}");
        }
    }
}
