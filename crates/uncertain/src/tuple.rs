//! Tuples, fields, schemas, and their byte serialization.

use crate::gaussian::ConstrainedGaussian;
use crate::pmf::DiscretePmf;

/// Logical tuple identifier. Assigned monotonically by the table layer;
/// never reused (the Fractured UPI's delete sets rely on that, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u64);

/// A certain (deterministic) value.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// Dictionary-encoded id (institutions, countries, journals, segments…).
    U64(u64),
    /// Floating point measure.
    F64(f64),
    /// Free text (names, padding payloads).
    Str(String),
}

/// A field of a tuple: certain, discretely uncertain, or a continuous
/// 2-D location distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Deterministic value.
    Certain(Datum),
    /// Uncertain attribute with a discrete PMF (paper's `Institution_p`).
    Discrete(DiscretePmf),
    /// Uncertain 2-D point (paper's Cartel `location`).
    Point(ConstrainedGaussian),
}

/// Kind tag for schema declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// [`Datum::U64`]
    U64,
    /// [`Datum::F64`]
    F64,
    /// [`Datum::Str`]
    Str,
    /// [`Field::Discrete`]
    Discrete,
    /// [`Field::Point`]
    Point,
}

/// Named field layout of a table.
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Vec<(String, FieldKind)>,
}

impl Schema {
    /// Build from `(name, kind)` pairs.
    pub fn new(fields: Vec<(&str, FieldKind)>) -> Schema {
        Schema {
            fields: fields
                .into_iter()
                .map(|(n, k)| (n.to_string(), k))
                .collect(),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == name)
    }

    /// Name and kind of field `i`.
    pub fn field(&self, i: usize) -> (&str, FieldKind) {
        (&self.fields[i].0, self.fields[i].1)
    }
}

/// An uncertain tuple: id, existence probability, and fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Stable identifier.
    pub id: TupleId,
    /// Existence probability (possible-worlds semantics).
    pub exist: f64,
    /// Field values, positionally matching the table [`Schema`].
    pub fields: Vec<Field>,
}

impl Tuple {
    /// Build a tuple; panics if `exist` is outside `(0, 1]`.
    pub fn new(id: TupleId, exist: f64, fields: Vec<Field>) -> Tuple {
        assert!(
            exist > 0.0 && exist <= 1.0,
            "existence probability {exist} out of (0,1]"
        );
        Tuple { id, exist, fields }
    }

    /// The discrete PMF stored in field `idx` (panics if not discrete).
    pub fn discrete(&self, idx: usize) -> &DiscretePmf {
        match &self.fields[idx] {
            Field::Discrete(p) => p,
            other => panic!("field {idx} is not discrete: {other:?}"),
        }
    }

    /// The point distribution stored in field `idx` (panics otherwise).
    pub fn point(&self, idx: usize) -> &ConstrainedGaussian {
        match &self.fields[idx] {
            Field::Point(g) => g,
            other => panic!("field {idx} is not a point: {other:?}"),
        }
    }

    /// Confidence of this tuple for predicate `field[idx] = value`:
    /// `existence × P(value)` (the index key probability of Table 2).
    pub fn confidence_eq(&self, idx: usize, value: u64) -> f64 {
        self.exist * self.discrete(idx).prob_of(value)
    }

    /// Folded mass of discrete field `idx` on the value range `[lo, hi]`:
    /// `Σ grid(existence × P(v))` over the alternatives `v` in range,
    /// where `grid` rounds each folded probability the way the index keys
    /// store it. The scan-side confidence of both `attr = v` (with
    /// `lo = hi = v`) and range predicates; [`peek_folded_mass`] computes
    /// the same number from the encoded bytes. Panics if the field is not
    /// discrete.
    pub fn folded_mass(&self, idx: usize, lo: u64, hi: u64, grid: impl Fn(f64) -> f64) -> f64 {
        let alts = self.discrete(idx).alternatives().iter().copied();
        folded_sum(alts, self.exist, lo, hi, grid)
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        encode_tuple(self).len()
    }
}

/// Serialize a tuple to bytes (little-endian, length-prefixed strings).
pub fn encode_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&t.id.0.to_le_bytes());
    out.extend_from_slice(&t.exist.to_le_bytes());
    out.extend_from_slice(&(t.fields.len() as u16).to_le_bytes());
    for f in &t.fields {
        match f {
            Field::Certain(Datum::U64(v)) => {
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Field::Certain(Datum::F64(v)) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Field::Certain(Datum::Str(s)) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Field::Discrete(pmf) => {
                out.push(3);
                out.extend_from_slice(&(pmf.support_len() as u16).to_le_bytes());
                for &(v, p) in pmf.alternatives() {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
            Field::Point(g) => {
                out.push(4);
                out.extend_from_slice(&g.cx.to_le_bytes());
                out.extend_from_slice(&g.cy.to_le_bytes());
                out.extend_from_slice(&g.sigma.to_le_bytes());
                out.extend_from_slice(&g.bound.to_le_bytes());
            }
        }
    }
    out
}

/// Borrowed peek into an encoded tuple: existence probability plus the
/// first (most probable) alternative of discrete field `attr`, without
/// materializing the tuple.
///
/// Certain fields — including strings — are skipped as borrowed slices,
/// so hot run scans that only need to compare key fields (e.g. the
/// distinct-scan duplicate filter) stop paying one `String` allocation
/// per field per entry. Returns `None` when `attr` is out of bounds or
/// not a discrete field, or the bytes are malformed.
pub fn peek_first_alt(data: &[u8], attr: usize) -> Option<(f64, (u64, f64))> {
    let (exist, alts) = peek_discrete(data, attr)?;
    // Alternatives are stored in descending-probability order, so the
    // first encoded pair is `first()`.
    Some((exist, encoded_alts(alts).next()?))
}

/// Borrowed peek at the predicate mass of an encoded tuple: the
/// [`Tuple::folded_mass`] of discrete field `attr` on `[lo, hi]`, read
/// straight off the bytes with no allocation. Scans evaluate their
/// predicate with it *before* decoding, so only qualifying rows are
/// materialized. The sum runs over the same alternatives in the same
/// order as on the decoded tuple, so the two agree to the bit.
///
/// Returns `None` — and the caller must then decode and test the tuple —
/// when `attr` is out of bounds, not a discrete field, or the bytes are
/// malformed, so a row the peek cannot read is never silently dropped.
pub fn peek_folded_mass(
    data: &[u8],
    attr: usize,
    lo: u64,
    hi: u64,
    grid: impl Fn(f64) -> f64,
) -> Option<f64> {
    let (exist, alts) = peek_discrete(data, attr)?;
    Some(folded_sum(encoded_alts(alts), exist, lo, hi, grid))
}

/// The folded-mass formula shared by [`Tuple::folded_mass`] and
/// [`peek_folded_mass`]: `Σ grid(p × exist)` over the alternatives whose
/// value lies in `[lo, hi]`, in stored order.
fn folded_sum(
    alts: impl Iterator<Item = (u64, f64)>,
    exist: f64,
    lo: u64,
    hi: u64,
    grid: impl Fn(f64) -> f64,
) -> f64 {
    alts.filter(|&(v, _)| (lo..=hi).contains(&v))
        .map(|(_, p)| grid(p * exist))
        .sum()
}

/// Existence probability and the encoded `(value, prob)` pairs of
/// discrete field `attr`, found by skipping the fields before it as
/// borrowed slices. `None` when `attr` is out of bounds or not discrete,
/// the PMF is empty, or any length runs past the end of `data`.
fn peek_discrete(data: &[u8], attr: usize) -> Option<(f64, &[u8])> {
    let take = |at: usize, n: usize| data.get(at..at.checked_add(n)?);
    let exist = f64::from_le_bytes(bytes_at(data, 8)?);
    let nfields = u16::from_le_bytes(bytes_at(data, 16)?) as usize;
    if attr >= nfields {
        return None;
    }
    let mut at = 18usize;
    for field in 0..=attr {
        let tag = *data.get(at)?;
        at += 1;
        let len = match tag {
            0 | 1 => 8,
            2 => 4 + u32::from_le_bytes(bytes_at(data, at)?) as usize,
            3 => 2 + 16 * u16::from_le_bytes(bytes_at(data, at)?) as usize,
            4 => 32,
            _ => return None,
        };
        let body = take(at, len)?;
        if field == attr {
            return (tag == 3 && len > 2).then(|| (exist, &body[2..]));
        }
        at += len;
    }
    None
}

/// The `N` bytes of `data` at `at`, if they are all there.
fn bytes_at<const N: usize>(data: &[u8], at: usize) -> Option<[u8; N]> {
    data.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// Decode encoded `(value u64, prob f64)` pairs.
fn encoded_alts(alts: &[u8]) -> impl Iterator<Item = (u64, f64)> + '_ {
    alts.chunks_exact(16).map(|pair| {
        let half = |at| bytes_at(pair, at).expect("a pair is two 8-byte halves");
        (u64::from_le_bytes(half(0)), f64::from_le_bytes(half(8)))
    })
}

/// Deserialize a tuple produced by [`encode_tuple`].
pub fn decode_tuple(data: &[u8]) -> Tuple {
    let mut at = 0usize;
    let mut take = |n: usize| {
        let s = &data[at..at + n];
        at += n;
        s
    };
    let id = TupleId(u64::from_le_bytes(take(8).try_into().unwrap()));
    let exist = f64::from_le_bytes(take(8).try_into().unwrap());
    let nfields = u16::from_le_bytes(take(2).try_into().unwrap()) as usize;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let tag = take(1)[0];
        let field = match tag {
            0 => Field::Certain(Datum::U64(u64::from_le_bytes(take(8).try_into().unwrap()))),
            1 => Field::Certain(Datum::F64(f64::from_le_bytes(take(8).try_into().unwrap()))),
            2 => {
                let len = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
                Field::Certain(Datum::Str(
                    String::from_utf8(take(len).to_vec()).expect("valid utf-8"),
                ))
            }
            3 => {
                let n = u16::from_le_bytes(take(2).try_into().unwrap()) as usize;
                let mut alts = Vec::with_capacity(n);
                for _ in 0..n {
                    let v = u64::from_le_bytes(take(8).try_into().unwrap());
                    let p = f64::from_le_bytes(take(8).try_into().unwrap());
                    alts.push((v, p));
                }
                Field::Discrete(DiscretePmf::new(alts))
            }
            4 => {
                let cx = f64::from_le_bytes(take(8).try_into().unwrap());
                let cy = f64::from_le_bytes(take(8).try_into().unwrap());
                let sigma = f64::from_le_bytes(take(8).try_into().unwrap());
                let bound = f64::from_le_bytes(take(8).try_into().unwrap());
                Field::Point(ConstrainedGaussian::new(cx, cy, sigma, bound))
            }
            t => panic!("corrupt field tag {t}"),
        };
        fields.push(field);
    }
    Tuple { id, exist, fields }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn alice() -> Tuple {
        // The running example of Table 1.
        Tuple::new(
            TupleId(1),
            0.9,
            vec![
                Field::Certain(Datum::Str("Alice".into())),
                Field::Discrete(DiscretePmf::new(vec![(0, 0.8), (1, 0.2)])),
            ],
        )
    }

    #[test]
    fn confidence_matches_paper_example() {
        // Alice works for MIT (id 1) with conf 90% * 20% = 18%.
        let t = alice();
        assert!((t.confidence_eq(1, 1) - 0.18).abs() < 1e-12);
        assert!((t.confidence_eq(1, 0) - 0.72).abs() < 1e-12);
        assert_eq!(t.confidence_eq(1, 99), 0.0);
    }

    #[test]
    fn roundtrip_all_field_kinds() {
        let t = Tuple::new(
            TupleId(42),
            0.8,
            vec![
                Field::Certain(Datum::U64(7)),
                Field::Certain(Datum::F64(-1.25)),
                Field::Certain(Datum::Str("héllo".into())),
                Field::Discrete(DiscretePmf::new(vec![(1, 0.5), (2, 0.25)])),
                Field::Point(ConstrainedGaussian::new(1.0, 2.0, 3.0, 4.0)),
            ],
        );
        let enc = encode_tuple(&t);
        assert_eq!(decode_tuple(&enc), t);
        assert_eq!(t.encoded_len(), enc.len());
    }

    #[test]
    fn peek_first_alt_matches_full_decode() {
        let t = Tuple::new(
            TupleId(42),
            0.8,
            vec![
                Field::Certain(Datum::Str("padding-padding".into())),
                Field::Certain(Datum::U64(7)),
                Field::Discrete(DiscretePmf::new(vec![(1, 0.2), (2, 0.5), (3, 0.1)])),
                Field::Point(ConstrainedGaussian::new(1.0, 2.0, 3.0, 4.0)),
                Field::Discrete(DiscretePmf::new(vec![(9, 0.9)])),
            ],
        );
        let enc = encode_tuple(&t);
        let (exist, first) = peek_first_alt(&enc, 2).unwrap();
        assert_eq!(exist, 0.8);
        assert_eq!(first, t.discrete(2).first());
        let (_, first4) = peek_first_alt(&enc, 4).unwrap();
        assert_eq!(first4, (9, 0.9));
        // Non-discrete or out-of-bounds fields peek as None.
        assert_eq!(peek_first_alt(&enc, 0), None);
        assert_eq!(peek_first_alt(&enc, 1), None);
        assert_eq!(peek_first_alt(&enc, 3), None);
        assert_eq!(peek_first_alt(&enc, 9), None);
    }

    /// The index keys' probability grid (`upi_storage::codec`), so the
    /// test sums the same rounded terms the scans do.
    fn key_grid(p: f64) -> f64 {
        use upi_storage::codec::{dequantize_prob, quantize_prob};
        dequantize_prob(quantize_prob(p))
    }

    /// A tuple whose discrete fields 2 and 4 hold the given PMFs, with a
    /// string, a certain id and a point around them.
    fn mixed_tuple(exist: f64, pad: String, pmf: DiscretePmf) -> Tuple {
        Tuple::new(
            TupleId(9),
            exist,
            vec![
                Field::Certain(Datum::Str(pad)),
                Field::Certain(Datum::U64(7)),
                Field::Discrete(pmf),
                Field::Point(ConstrainedGaussian::new(1.0, 2.0, 3.0, 4.0)),
                Field::Discrete(DiscretePmf::new(vec![(5, 0.6), (6, 0.3)])),
            ],
        )
    }

    #[test]
    fn peek_folded_mass_falls_back_on_unreadable_fields() {
        let t = mixed_tuple(0.7, "pad".into(), DiscretePmf::new(vec![(1, 0.5)]));
        let enc = encode_tuple(&t);
        // Non-discrete and out-of-range fields peek as None: the caller
        // decodes the row instead of dropping it.
        for attr in [0, 1, 3, 5, 99] {
            assert_eq!(peek_folded_mass(&enc, attr, 0, u64::MAX, key_grid), None);
        }
        // Truncated bytes and an empty PMF are malformed: None, not a
        // panic and not a zero mass.
        for cut in [0, 10, 17, 30, enc.len() - 1] {
            assert_eq!(peek_folded_mass(&enc[..cut], 4, 0, 9, key_grid), None);
            assert_eq!(peek_first_alt(&enc[..cut], 4), None);
        }
        let mut empty = enc.clone();
        let pmf_len_at = enc.len() - 2 - 32;
        empty.truncate(pmf_len_at);
        empty.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(peek_folded_mass(&empty, 4, 0, 9, key_grid), None);
        // Readable fields still peek.
        assert_eq!(
            peek_folded_mass(&enc, 4, 6, 6, key_grid),
            Some(key_grid(0.3 * 0.7))
        );
    }

    proptest! {
        /// The pre-decode peek equals the decoded tuple's confidence to
        /// the bit — for point predicates (`lo = hi`, present or absent)
        /// and ranges — on random PMFs with `exist < 1`, so filtering on
        /// the peek drops exactly the rows the post-decode check drops.
        #[test]
        fn peek_folded_mass_matches_decoded_confidence_to_the_bit(
            exist in 0.01f64..0.999,
            raw in proptest::collection::vec(0.001f64..0.6, 1..9),
            lo in 0u64..30,
            span in 0u64..12,
            pad in "[a-z]{0,24}",
        ) {
            let total: f64 = raw.iter().sum();
            let alts: Vec<(u64, f64)> = raw
                .iter()
                .enumerate()
                .map(|(i, &p)| ((i as u64 * 7) % 27, p / total.max(1.0)))
                .collect();
            let t = mixed_tuple(exist, pad, DiscretePmf::new(alts.clone()));
            let enc = encode_tuple(&t);
            let decoded = decode_tuple(&enc);
            for attr in [2, 4] {
                let (lo, hi) = (lo, lo + span);
                let peeked = peek_folded_mass(&enc, attr, lo, hi, key_grid).unwrap();
                let want = decoded.folded_mass(attr, lo, hi, key_grid);
                prop_assert_eq!(peeked.to_bits(), want.to_bits());
            }
            for v in alts.iter().map(|a| a.0).chain([1000]) {
                let peeked = peek_folded_mass(&enc, 2, v, v, key_grid).unwrap();
                prop_assert_eq!(
                    peeked.to_bits(),
                    decoded.folded_mass(2, v, v, key_grid).to_bits()
                );
                // The point form is `existence × P(v)` on the grid; the
                // two differ at most in the sign of a zero mass.
                prop_assert_eq!(peeked, key_grid(decoded.confidence_eq(2, v)));
            }
        }
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![
            ("name", FieldKind::Str),
            ("institution", FieldKind::Discrete),
            ("country", FieldKind::Discrete),
        ]);
        assert_eq!(s.index_of("institution"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.field(2).0, "country");
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "existence probability")]
    fn rejects_bad_existence() {
        Tuple::new(TupleId(0), 0.0, vec![]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            id: u64,
            exist in 0.01f64..=1.0,
            v: u64,
            f in -1e6f64..1e6,
            s in "[a-z]{0,16}",
            p1 in 0.01f64..0.5,
            p2 in 0.01f64..0.5,
        ) {
            let t = Tuple::new(
                TupleId(id),
                exist,
                vec![
                    Field::Certain(Datum::U64(v)),
                    Field::Certain(Datum::F64(f)),
                    Field::Certain(Datum::Str(s)),
                    Field::Discrete(DiscretePmf::new(vec![(10, p1), (20, p2)])),
                ],
            );
            prop_assert_eq!(decode_tuple(&encode_tuple(&t)), t);
        }
    }
}
