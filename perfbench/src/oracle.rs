//! Brute-force answers from the benchmark's in-memory copy of the
//! generated tuples, to check every query the system answers.
//!
//! Confidence follows the system's definition: `existence × P(value)`
//! for an equality predicate (quantized to the index's 32-bit
//! probability grid, as the index keys store it), and the sum of the
//! quantized per-alternative confidences for a range. Rows are ordered
//! by confidence descending, then tuple id ascending; top-k keeps the
//! first k.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

use upi_query::{Predicate, PtqQuery, QueryOutput};
use upi_storage::codec::{dequantize_prob, quantize_prob};
use upi_uncertain::Tuple;

/// Confidences within this distance are treated as equal (the index
/// stores probabilities on a 2^-32 grid).
const CONF_EPS: f64 = 1e-7;

fn quantized(p: f64) -> f64 {
    dequantize_prob(quantize_prob(p))
}

/// Index key of one alternative: quantized confidence descending, then
/// tuple id ascending — the result order.
type Entry = (Reverse<u32>, u64);

/// The live rows of one table, with per-value lists of alternatives in
/// result order on the primary and (optionally) one secondary uncertain
/// attribute.
#[derive(Clone, Default)]
pub struct Model {
    attrs: Vec<usize>,
    rows: HashMap<u64, Tuple>,
    lists: HashMap<(usize, u64), BTreeSet<Entry>>,
}

impl Model {
    pub fn new(primary: usize, secondary: Option<usize>, tuples: &[Tuple]) -> Model {
        let mut m = Model {
            attrs: std::iter::once(primary).chain(secondary).collect(),
            rows: HashMap::with_capacity(tuples.len()),
            lists: HashMap::new(),
        };
        for t in tuples {
            m.insert(t.clone());
        }
        m
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn get(&self, id: u64) -> Option<&Tuple> {
        self.rows.get(&id)
    }

    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.values()
    }

    fn entries(attrs: &[usize], t: &Tuple) -> Vec<((usize, u64), Entry)> {
        attrs
            .iter()
            .flat_map(|&a| {
                t.discrete(a)
                    .alternatives()
                    .iter()
                    .map(move |&(v, p)| ((a, v), (Reverse(quantize_prob(p * t.exist)), t.id.0)))
            })
            .collect()
    }

    /// Insert or replace the row with `t`'s id.
    pub fn insert(&mut self, t: Tuple) {
        self.remove(t.id.0);
        for (key, e) in Self::entries(&self.attrs, &t) {
            self.lists.entry(key).or_default().insert(e);
        }
        self.rows.insert(t.id.0, t);
    }

    pub fn remove(&mut self, id: u64) -> Option<Tuple> {
        let t = self.rows.remove(&id)?;
        for (key, e) in Self::entries(&self.attrs, &t) {
            if let Some(list) = self.lists.get_mut(&key) {
                list.remove(&e);
            }
        }
        Some(t)
    }

    /// `t`'s confidence under `pred` (0 when it cannot satisfy it).
    fn confidence(t: &Tuple, pred: &Predicate) -> f64 {
        match *pred {
            Predicate::Eq { attr, value } => quantized(t.confidence_eq(attr, value)),
            Predicate::Range { attr, lo, hi } => t
                .discrete(attr)
                .alternatives()
                .iter()
                .filter(|(v, _)| (lo..=hi).contains(v))
                .map(|&(_, p)| quantized(p * t.exist))
                .sum(),
            Predicate::Circle { .. } => unreachable!("no workload sends circle queries"),
        }
    }

    /// The expected `(tuple id, confidence)` rows of `q`, in result
    /// order.
    pub fn answer(&self, q: &PtqQuery) -> Vec<(u64, f64)> {
        let k = q.top_k.unwrap_or(usize::MAX);
        match q.predicate {
            Predicate::Eq { attr, value } => self
                .lists
                .get(&(attr, value))
                .into_iter()
                .flatten()
                .map(|&(Reverse(c), id)| (id, dequantize_prob(c)))
                .take_while(|&(_, c)| c >= q.qt)
                .filter(|&(_, c)| c > 0.0)
                .take(k)
                .collect(),
            Predicate::Range { attr, lo, hi } => {
                let ids: BTreeSet<u64> = (lo..=hi)
                    .filter_map(|v| self.lists.get(&(attr, v)))
                    .flatten()
                    .map(|&(_, id)| id)
                    .collect();
                let mut rows: Vec<(u64, f64)> = ids
                    .into_iter()
                    .map(|id| (id, Self::confidence(&self.rows[&id], &q.predicate)))
                    .filter(|&(_, c)| c >= q.qt)
                    .collect();
                rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                rows.truncate(k);
                rows
            }
            Predicate::Circle { .. } => unreachable!("no workload sends circle queries"),
        }
    }

    /// Compare the system's answer with the brute-force one. Returns a
    /// description of the first difference, or `None` when they agree.
    ///
    /// Every returned row must be the live version of its tuple with
    /// the right confidence. Without top-k the id sets must be equal;
    /// with top-k the confidence sequence must be equal (rows tied on
    /// confidence at the k-th place may legitimately differ).
    pub fn check(&self, q: &PtqQuery, out: &QueryOutput) -> Option<String> {
        let want = self.answer(q);
        if out.rows.len() != want.len() {
            return Some(format!(
                "{q:?}: {} rows, expected {}",
                out.rows.len(),
                want.len()
            ));
        }
        let mut seen = BTreeSet::new();
        for r in &out.rows {
            let id = r.tuple.id.0;
            match self.rows.get(&id) {
                Some(t) if *t == r.tuple => {}
                Some(_) => return Some(format!("{q:?}: stale version of tuple {id}")),
                None => return Some(format!("{q:?}: tuple {id} is not live")),
            }
            if !seen.insert(id) {
                return Some(format!("{q:?}: tuple {id} returned twice"));
            }
        }
        if q.top_k.is_none() {
            let want_conf: HashMap<u64, f64> = want.iter().copied().collect();
            for r in &out.rows {
                match want_conf.get(&r.tuple.id.0) {
                    Some(c) if (c - r.confidence).abs() <= CONF_EPS => {}
                    Some(c) => {
                        return Some(format!(
                            "{q:?}: tuple {} confidence {} expected {c}",
                            r.tuple.id.0, r.confidence
                        ))
                    }
                    None => {
                        return Some(format!("{q:?}: tuple {} should not qualify", r.tuple.id.0))
                    }
                }
            }
        } else {
            for (r, (_, c)) in out.rows.iter().zip(&want) {
                if (c - r.confidence).abs() > CONF_EPS {
                    return Some(format!(
                        "{q:?}: top-k confidence {} where {c} expected",
                        r.confidence
                    ));
                }
            }
            // The returned rows' own confidences must be their true ones.
            for r in &out.rows {
                let c = Self::confidence(&r.tuple, &q.predicate);
                if (c - r.confidence).abs() > CONF_EPS {
                    return Some(format!(
                        "{q:?}: tuple {} reported with confidence {} where it has {c}",
                        r.tuple.id.0, r.confidence
                    ));
                }
            }
        }
        None
    }
}
