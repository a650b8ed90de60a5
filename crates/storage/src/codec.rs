//! Order-preserving byte encodings for composite index keys.
//!
//! Every index in this workspace compares keys with plain `memcmp`
//! (`&[u8]` ordering), so key components must be encoded such that the byte
//! order equals the desired logical order:
//!
//! * unsigned integers → big-endian;
//! * signed integers → sign bit flipped, big-endian;
//! * floats → IEEE total-order trick (flip all bits of negatives, flip the
//!   sign bit of positives);
//! * probabilities in **descending** order → quantized to a `u32` and
//!   subtracted from `u32::MAX`, so a forward scan sees high-probability
//!   entries first (the UPI's `{value ASC, probability DESC}` ordering,
//!   Table 2 of the paper);
//! * strings → 0x00-escaped and 0x00 0x00 terminated so that component
//!   boundaries cannot leak across comparisons.
//!
//! [`KeyBuf`] composes components; [`KeyReader`] decodes them back.

/// Quantization scale for probabilities (fits in a `u32`).
const PROB_SCALE: f64 = u32::MAX as f64;

/// Encode a `u16` preserving order.
#[inline]
pub fn enc_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Encode a `u32` preserving order.
#[inline]
pub fn enc_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Encode a `u64` preserving order.
#[inline]
pub fn enc_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Encode an `i64` preserving order (sign bit flipped).
#[inline]
pub fn enc_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&((v as u64) ^ (1u64 << 63)).to_be_bytes());
}

/// Encode an `f64` preserving order (total order over non-NaN values).
#[inline]
pub fn enc_f64(buf: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let enc = if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    };
    buf.extend_from_slice(&enc.to_be_bytes());
}

/// Quantize a probability in `[0, 1]` to the `u32` grid used by the index.
#[inline]
pub fn quantize_prob(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * PROB_SCALE).round() as u32
}

/// Inverse of [`quantize_prob`].
#[inline]
pub fn dequantize_prob(q: u32) -> f64 {
    q as f64 / PROB_SCALE
}

/// `p` rounded to the grid index keys store probabilities on — what a
/// key written for `p` decodes back to.
#[inline]
pub fn grid_prob(p: f64) -> f64 {
    dequantize_prob(quantize_prob(p))
}

/// Encode a probability so byte order is **descending** probability.
#[inline]
pub fn enc_prob_desc(buf: &mut Vec<u8>, p: f64) {
    enc_u32(buf, u32::MAX - quantize_prob(p));
}

/// Encode a string component: 0x00 bytes are escaped as `00 FF`, and the
/// component is terminated with `00 00`. Preserves lexicographic order and
/// guarantees a shorter string sorts before its extensions.
pub fn enc_str(buf: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        if b == 0 {
            buf.push(0);
            buf.push(0xFF);
        } else {
            buf.push(b);
        }
    }
    buf.push(0);
    buf.push(0);
}

/// Composite key builder.
///
/// ```
/// use upi_storage::codec::KeyBuf;
/// let mut hi = KeyBuf::new();
/// hi.u64(42).prob_desc(0.9).u64(7);
/// let mut lo = KeyBuf::new();
/// lo.u64(42).prob_desc(0.2).u64(7);
/// // Same value, higher probability sorts first:
/// assert!(hi.as_bytes() < lo.as_bytes());
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyBuf {
    bytes: Vec<u8>,
}

impl KeyBuf {
    /// Empty key.
    pub fn new() -> Self {
        KeyBuf { bytes: Vec::new() }
    }

    /// Append a `u16` component.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        enc_u16(&mut self.bytes, v);
        self
    }

    /// Append a `u32` component.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        enc_u32(&mut self.bytes, v);
        self
    }

    /// Append a `u64` component.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        enc_u64(&mut self.bytes, v);
        self
    }

    /// Append an `i64` component.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        enc_i64(&mut self.bytes, v);
        self
    }

    /// Append an `f64` component.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        enc_f64(&mut self.bytes, v);
        self
    }

    /// Append a probability in descending order.
    pub fn prob_desc(&mut self, p: f64) -> &mut Self {
        enc_prob_desc(&mut self.bytes, p);
        self
    }

    /// Append a string component.
    pub fn str(&mut self, s: &str) -> &mut Self {
        enc_str(&mut self.bytes, s);
        self
    }

    /// Raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the raw encoding.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Length of the encoding so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if no component has been appended.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Sequential decoder for composite keys produced by [`KeyBuf`].
#[derive(Debug, Clone)]
pub struct KeyReader<'a> {
    rest: &'a [u8],
}

impl<'a> KeyReader<'a> {
    /// Start decoding `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        KeyReader { rest: bytes }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        head
    }

    /// Decode a `u16` component.
    pub fn u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take(2).try_into().unwrap())
    }

    /// Decode a `u32` component.
    pub fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().unwrap())
    }

    /// Decode a `u64` component.
    pub fn u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().unwrap())
    }

    /// Decode an `i64` component.
    pub fn i64(&mut self) -> i64 {
        (self.u64() ^ (1u64 << 63)) as i64
    }

    /// Decode an `f64` component.
    pub fn f64(&mut self) -> f64 {
        let enc = u64::from_be_bytes(self.take(8).try_into().unwrap());
        let bits = if enc & (1 << 63) != 0 {
            enc & !(1 << 63)
        } else {
            !enc
        };
        f64::from_bits(bits)
    }

    /// Decode a probability stored in descending order.
    pub fn prob_desc(&mut self) -> f64 {
        dequantize_prob(u32::MAX - self.u32())
    }

    /// Decode a string component without allocating when possible.
    ///
    /// Strings that contain no escaped `0x00` byte — every string in
    /// practice; NULs only appear in adversarial keys — decode as a
    /// borrowed slice of the key, so hot run scans stop paying one heap
    /// allocation per string field. Escaped strings fall back to the
    /// owned unescaping path.
    pub fn str_ref(&mut self) -> std::borrow::Cow<'a, str> {
        // Fast path: scan for the `00 00` terminator; any `00 FF` escape
        // forces the owned path.
        let mut i = 0;
        loop {
            if self.rest[i] != 0 {
                i += 1;
                continue;
            }
            match self.rest[i + 1] {
                0 => {
                    // Unescaped component: borrow it wholesale.
                    let s = std::str::from_utf8(&self.rest[..i])
                        .expect("encoded strings are valid utf-8");
                    self.rest = &self.rest[i + 2..];
                    return std::borrow::Cow::Borrowed(s);
                }
                0xFF => break, // escaped NUL: unescape into an owned buffer
                bad => unreachable!("invalid string escape 00 {bad:02X}"),
            }
        }
        let mut out = Vec::new();
        let mut i = 0;
        loop {
            let b = self.rest[i];
            if b == 0 {
                let nxt = self.rest[i + 1];
                if nxt == 0 {
                    i += 2;
                    break;
                }
                debug_assert_eq!(nxt, 0xFF, "invalid string escape");
                out.push(0);
                i += 2;
            } else {
                out.push(b);
                i += 1;
            }
        }
        self.rest = &self.rest[i..];
        std::borrow::Cow::Owned(String::from_utf8(out).expect("encoded strings are valid utf-8"))
    }

    /// Decode a string component into an owned `String` (thin wrapper
    /// over [`str_ref`](Self::str_ref)).
    pub fn str(&mut self) -> String {
        self.str_ref().into_owned()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> &'a [u8] {
        self.rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u64_roundtrip_and_order() {
        for &(a, b) in &[(0u64, 1u64), (5, 500), (u64::MAX - 1, u64::MAX)] {
            let mut ka = KeyBuf::new();
            ka.u64(a);
            let mut kb = KeyBuf::new();
            kb.u64(b);
            assert!(ka.as_bytes() < kb.as_bytes());
            assert_eq!(KeyReader::new(ka.as_bytes()).u64(), a);
        }
    }

    #[test]
    fn prob_desc_reverses_order() {
        let mut hi = KeyBuf::new();
        hi.prob_desc(0.95);
        let mut lo = KeyBuf::new();
        lo.prob_desc(0.05);
        assert!(hi.as_bytes() < lo.as_bytes(), "high prob sorts first");
        let p = KeyReader::new(hi.as_bytes()).prob_desc();
        assert!((p - 0.95).abs() < 1e-6);
    }

    #[test]
    fn composite_orders_lexicographically() {
        // (value ASC, prob DESC, tid ASC) — Table 2's ordering.
        let key = |v: u64, p: f64, t: u64| {
            let mut k = KeyBuf::new();
            k.u64(v).prob_desc(p).u64(t);
            k.into_bytes()
        };
        let brown_alice = key(1, 0.72, 10);
        let brown_carol = key(1, 0.48, 30);
        let mit_bob = key(2, 0.95, 20);
        let mit_alice = key(2, 0.18, 10);
        let mut v = vec![
            mit_alice.clone(),
            brown_carol.clone(),
            mit_bob.clone(),
            brown_alice.clone(),
        ];
        v.sort();
        assert_eq!(v, vec![brown_alice, brown_carol, mit_bob, mit_alice]);
    }

    #[test]
    fn str_with_nul_and_prefix_order() {
        let mut a = KeyBuf::new();
        a.str("ab");
        let mut b = KeyBuf::new();
        b.str("ab\0c");
        let mut c = KeyBuf::new();
        c.str("abc");
        assert!(a.as_bytes() < b.as_bytes());
        assert!(b.as_bytes() < c.as_bytes());
        assert_eq!(KeyReader::new(b.as_bytes()).str(), "ab\0c");
    }

    #[test]
    fn str_ref_borrows_unless_escaped() {
        let mut k = KeyBuf::new();
        k.str("plain");
        let bytes = k.into_bytes();
        let mut r = KeyReader::new(&bytes);
        match r.str_ref() {
            std::borrow::Cow::Borrowed(s) => assert_eq!(s, "plain"),
            other => panic!("unescaped strings must borrow, got {other:?}"),
        }
        assert!(r.remaining().is_empty());

        let mut k = KeyBuf::new();
        k.str("nul\0here").u64(7);
        let bytes = k.into_bytes();
        let mut r = KeyReader::new(&bytes);
        match r.str_ref() {
            std::borrow::Cow::Owned(s) => assert_eq!(s, "nul\0here"),
            other => panic!("escaped strings must unescape owned, got {other:?}"),
        }
        assert_eq!(r.u64(), 7);
    }

    #[test]
    fn mixed_composite_roundtrip() {
        let mut k = KeyBuf::new();
        k.str("mit").prob_desc(0.5).u64(99).i64(-4).f64(-2.25);
        let mut r = KeyReader::new(k.as_bytes());
        assert_eq!(r.str(), "mit");
        assert!((r.prob_desc() - 0.5).abs() < 1e-6);
        assert_eq!(r.u64(), 99);
        assert_eq!(r.i64(), -4);
        assert_eq!(r.f64(), -2.25);
        assert!(r.remaining().is_empty());
    }

    proptest! {
        #[test]
        fn prop_u64_order(a: u64, b: u64) {
            let mut ka = KeyBuf::new(); ka.u64(a);
            let mut kb = KeyBuf::new(); kb.u64(b);
            prop_assert_eq!(a.cmp(&b), ka.as_bytes().cmp(kb.as_bytes()));
        }

        #[test]
        fn prop_i64_order(a: i64, b: i64) {
            let mut ka = KeyBuf::new(); ka.i64(a);
            let mut kb = KeyBuf::new(); kb.i64(b);
            prop_assert_eq!(a.cmp(&b), ka.as_bytes().cmp(kb.as_bytes()));
        }

        #[test]
        fn prop_f64_order(a in -1e100f64..1e100, b in -1e100f64..1e100) {
            let mut ka = KeyBuf::new(); ka.f64(a);
            let mut kb = KeyBuf::new(); kb.f64(b);
            prop_assert_eq!(a.partial_cmp(&b).unwrap(), ka.as_bytes().cmp(kb.as_bytes()));
        }

        #[test]
        fn prop_prob_desc_reverses(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let mut ka = KeyBuf::new(); ka.prob_desc(a);
            let mut kb = KeyBuf::new(); kb.prob_desc(b);
            // Quantization can merge near-equal values; only check strict cases.
            if quantize_prob(a) != quantize_prob(b) {
                prop_assert_eq!(
                    b.partial_cmp(&a).unwrap(),
                    ka.as_bytes().cmp(kb.as_bytes())
                );
            }
        }

        #[test]
        fn prop_str_roundtrip(s in "\\PC*") {
            let mut k = KeyBuf::new();
            k.str(&s);
            prop_assert_eq!(KeyReader::new(k.as_bytes()).str(), s);
        }

        #[test]
        fn prop_str_order(a in "[a-c\\x00]{0,6}", b in "[a-c\\x00]{0,6}") {
            let mut ka = KeyBuf::new(); ka.str(&a);
            let mut kb = KeyBuf::new(); kb.str(&b);
            prop_assert_eq!(
                a.as_bytes().cmp(b.as_bytes()),
                ka.as_bytes().cmp(kb.as_bytes())
            );
        }

        #[test]
        fn prop_prob_quantize_roundtrip(p in 0.0f64..=1.0) {
            let q = quantize_prob(p);
            prop_assert!((dequantize_prob(q) - p).abs() < 1e-9);
        }
    }
}
