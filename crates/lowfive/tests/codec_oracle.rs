//! The word-at-a-time wire codec against its byte-at-a-time original.
//!
//! `encode_coded` must reproduce the canonical encoding byte for byte —
//! greedy maximal runs of at most 255, a lag-8 delta from a zero ring
//! carried across parts, the compressed form only when strictly smaller
//! than `1 + raw_len` — and `dec_coded` / `decode_coded_payload` must
//! answer every body, well-formed or not, with the same bytes or an
//! error with the same message. The oracle below is the original
//! byte-at-a-time `rle_encode` / `rle_decode`, kept verbatim.

use bytes::Bytes;
use lowfive::protocol::*;
use minih5::{H5Error, H5Result};
use proptest::prelude::*;
use proptest::TestRng;
use simmpi::Payload;

// ---------------------------------------------------------------------
// Oracle: the byte-at-a-time codec, verbatim
// ---------------------------------------------------------------------

const DELTA_LAG: usize = 8;

/// Run-length encode the concatenation of `parts` (after a wrapping
/// lag-[`DELTA_LAG`] delta transform when `delta`), prefix byte and
/// `raw_len` header included. Returns `None` unless the result is
/// strictly smaller than the raw alternative (`1 + raw_len` bytes) — the
/// caller then ships the original parts untouched.
fn rle_encode(parts: &[Bytes], delta: bool, codec: u8) -> Option<Vec<u8>> {
    let raw_len: usize = parts.iter().map(|p| p.len()).sum();
    let limit = raw_len + 1;
    let mut out = Vec::with_capacity(64.min(limit));
    out.push(codec);
    out.extend_from_slice(&(raw_len as u64).to_le_bytes());
    let mut ring = [0u8; DELTA_LAG];
    let mut pos = 0usize;
    let mut run: Option<(u8, usize)> = None;
    for &b in parts.iter().flat_map(|p| p.iter()) {
        let v = if delta {
            let d = b.wrapping_sub(ring[pos]);
            ring[pos] = b;
            pos = (pos + 1) % DELTA_LAG;
            d
        } else {
            b
        };
        match &mut run {
            Some((val, count)) if *val == v && *count < 255 => *count += 1,
            _ => {
                if let Some((val, count)) = run.take() {
                    out.push(count as u8);
                    out.push(val);
                    // Incompressible input can only grow from here; bail
                    // before ballooning to 2x the raw body.
                    if out.len() + 2 >= limit {
                        return None;
                    }
                }
                run = Some((v, 1));
            }
        }
    }
    if let Some((val, count)) = run {
        out.push(count as u8);
        out.push(val);
    }
    (out.len() < limit).then_some(out)
}

/// Expand an RLE (or delta-RLE) body. Every declared quantity is checked
/// against the bytes actually present before allocating: the pair stream
/// must be even, runs must be non-empty, and the expansion must land on
/// `raw_len` exactly.
fn rle_decode(parts: &[Bytes], delta: bool) -> H5Result<Bytes> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if total < 8 || !(total - 8).is_multiple_of(2) {
        return Err(H5Error::Format(format!("malformed rle frame: {total} bytes")));
    }
    let mut it = parts.iter().flat_map(|p| p.iter().copied());
    let mut hdr = [0u8; 8];
    for b in hdr.iter_mut() {
        *b = it.next().expect("length checked above");
    }
    let raw_len = u64::from_le_bytes(hdr);
    let pairs = (total - 8) / 2;
    if raw_len as u128 > (pairs as u128) * 255 {
        return Err(H5Error::Format(format!(
            "rle declared length {raw_len} exceeds {pairs} run pairs"
        )));
    }
    let mut out = Vec::with_capacity(raw_len as usize);
    let mut ring = [0u8; DELTA_LAG];
    let mut pos = 0usize;
    for _ in 0..pairs {
        let count = it.next().expect("length checked above");
        let byte = it.next().expect("length checked above");
        if count == 0 {
            return Err(H5Error::Format("zero-length rle run".into()));
        }
        if out.len() + count as usize > raw_len as usize {
            return Err(H5Error::Format(format!("rle runs overflow declared length {raw_len}")));
        }
        if delta {
            for _ in 0..count {
                let b = byte.wrapping_add(ring[pos]);
                ring[pos] = b;
                pos = (pos + 1) % DELTA_LAG;
                out.push(b);
            }
        } else {
            out.extend(std::iter::repeat_n(byte, count as usize));
        }
    }
    if out.len() as u64 != raw_len {
        return Err(H5Error::Format(format!(
            "rle expanded to {} bytes, declared {raw_len}",
            out.len()
        )));
    }
    Ok(Bytes::from(out))
}

/// The oracle's `encode_coded`, flattened: the compressed frame, or the
/// raw prefix byte followed by the body.
fn oracle_encode(body: &[u8], parts: &[Bytes], codec: u8) -> Vec<u8> {
    let compressed = match codec {
        CODEC_RLE => rle_encode(parts, false, CODEC_RLE),
        CODEC_DELTA_RLE => rle_encode(parts, true, CODEC_DELTA_RLE),
        _ => None,
    };
    compressed.unwrap_or_else(|| [&[CODEC_RAW][..], body].concat())
}

/// The oracle's `dec_coded`.
fn oracle_decode(b: &Bytes, allowed: u64) -> H5Result<Bytes> {
    let Some(&codec) = b.first() else {
        return Err(H5Error::Format("empty coded frame".into()));
    };
    if codec > CODEC_DELTA_RLE {
        return Err(H5Error::Format(format!("unknown wire codec {codec}")));
    }
    if allowed & (1u64 << codec) == 0 {
        return Err(H5Error::Format(format!("codec {codec} was not negotiated")));
    }
    match codec {
        CODEC_RAW => Ok(b.slice(1..)),
        codec => rle_decode(&[b.slice(1..)], codec == CODEC_DELTA_RLE),
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Split `body` into consecutive parts whose sizes cycle through `sizes`.
fn split(body: &[u8], sizes: &[usize]) -> Vec<Bytes> {
    let mut parts = Vec::new();
    let mut at = 0;
    for i in 0.. {
        if at == body.len() {
            break;
        }
        let n = sizes[i % sizes.len()].max(1).min(body.len() - at);
        parts.push(Bytes::copy_from_slice(&body[at..at + n]));
        at += n;
    }
    parts
}

/// Part splits worth trying on `body`: whole, 1-byte parts, parts
/// shorter than the lag, the serve path's 320 B runs, and a random mix.
fn splits(body: &[u8], rng: &mut TestRng) -> Vec<Vec<Bytes>> {
    let random: Vec<usize> = (0..8).map(|_| rng.uniform_u64(1, 24) as usize).collect();
    vec![
        vec![Bytes::copy_from_slice(body)],
        split(body, &[1]),
        split(body, &[3, 5, 7, 1, 2]),
        split(body, &[9, 13, 4]),
        split(body, &[320]),
        split(body, &random),
    ]
}

/// Both codecs over every split of `body`: the flattened frame equals
/// the oracle's, and both decoders restore `body`.
fn assert_encodes_like_oracle(body: &[u8], rng: &mut TestRng) {
    for parts in splits(body, rng) {
        for codec in [CODEC_RAW, CODEC_RLE, CODEC_DELTA_RLE] {
            let want = oracle_encode(body, &parts, codec);
            let coded = encode_coded(Payload::from_parts(parts.clone()), codec);
            let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
            assert_eq!(
                &coded.to_bytes()[..],
                &want[..],
                "codec {codec}, {} bytes in parts {sizes:?}",
                body.len()
            );
            assert_decodes_like_oracle(&Bytes::from(want), rng);
        }
    }
}

/// `dec_coded` on the contiguous frame and `decode_coded_payload` on a
/// random split of it agree with the oracle: the same bytes, or an
/// error with the same message.
fn assert_decodes_like_oracle(frame: &Bytes, rng: &mut TestRng) {
    let sizes: Vec<usize> = (0..4).map(|_| rng.uniform_u64(1, 40) as usize).collect();
    for allowed in [CAP_ALL, CAP_RAW | CAP_RLE] {
        let want = oracle_decode(frame, allowed).map_err(|e| e.to_string());
        let got = dec_coded(frame, allowed).map_err(|e| e.to_string());
        assert_eq!(got, want, "dec_coded on {:?}", &frame[..frame.len().min(24)]);
        let parted = Payload::from_parts(split(frame, &sizes));
        let got =
            decode_coded_payload(parted, allowed).map(|p| p.to_bytes()).map_err(|e| e.to_string());
        assert_eq!(got, want, "decode_coded_payload on parts {sizes:?}");
    }
}

/// Lag-8 integrate `deltas`: the body whose delta stream they are.
fn integrate(deltas: &[u8]) -> Vec<u8> {
    let mut body = deltas.to_vec();
    for i in 8..body.len() {
        body[i] = body[i].wrapping_add(body[i - 8]);
    }
    body
}

/// A value stream of `runs` (`(length, value)`, lengths >= 1), plus the
/// bodies that present exactly that stream to RLE and to delta-RLE.
fn from_runs(runs: &[(usize, u8)]) -> (Vec<u8>, Vec<u8>) {
    let stream: Vec<u8> = runs.iter().flat_map(|&(n, v)| std::iter::repeat_n(v, n)).collect();
    let body = integrate(&stream);
    (stream, body)
}

/// `count` runs totaling `len` bytes, adjacent values distinct.
fn runs_totaling(count: usize, len: usize, rng: &mut TestRng) -> Vec<(usize, u8)> {
    assert!(count <= len && len <= count * 255);
    let mut lens = vec![1usize; count];
    let mut extra = len - count;
    while extra > 0 {
        let i = rng.uniform_u64(0, count as u64 - 1) as usize;
        let add = (255 - lens[i]).min(extra).min(rng.uniform_u64(1, 40) as usize);
        lens[i] += add;
        extra -= add;
    }
    let mut prev = None;
    lens.into_iter()
        .map(|n| {
            let mut v = rng.next_u64() as u8;
            if Some(v) == prev {
                v = v.wrapping_add(1);
            }
            prev = Some(v);
            (n, v)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Random bodies — noise, short-alphabet runs, and smooth `u64`
    /// fields — over random part splits.
    #[test]
    fn random_bodies_encode_like_the_oracle(
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        alphabet in 1u64..4,
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::for_case(seed, 0);
        assert_encodes_like_oracle(&noise, &mut rng);
        // Few distinct values, long and short runs.
        let n = rng.uniform_u64(0, 1500) as usize;
        let mut runny = Vec::with_capacity(n);
        while runny.len() < n {
            let v = rng.uniform_u64(0, alphabet) as u8;
            let len = rng.uniform_u64(1, 600) as usize;
            runny.extend(std::iter::repeat_n(v, len.min(n - runny.len())));
        }
        assert_encodes_like_oracle(&runny, &mut rng);
        // A smooth field with an odd byte count: a word-unaligned tail.
        let step = rng.uniform_u64(0, 3);
        let smooth: Vec<u8> = (0..rng.uniform_u64(0, 200))
            .flat_map(|i| (1000 + step * i / 7).to_le_bytes())
            .chain([1, 2, 3])
            .collect();
        assert_encodes_like_oracle(&smooth, &mut rng);
    }

    /// Arbitrary bytes behind each codec prefix, plus valid frames with
    /// one byte flipped, cut short or padded: the decoders fail (or
    /// succeed) exactly where the oracle does.
    #[test]
    fn malformed_bodies_decode_like_the_oracle(
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        body in proptest::collection::vec(0u8..3, 0..400),
        flip in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::for_case(seed, 1);
        for codec in 0u8..4 {
            let frame = Bytes::from([&[codec][..], &junk].concat());
            assert_decodes_like_oracle(&frame, &mut rng);
            // A plausible header over the junk pairs.
            let pairs = junk.len() / 2;
            let declared = flip % (pairs as u64 * 255 + 2);
            let mut framed = vec![codec];
            framed.extend_from_slice(&declared.to_le_bytes());
            framed.extend_from_slice(&junk[..pairs * 2]);
            assert_decodes_like_oracle(&Bytes::from(framed), &mut rng);
        }
        for codec in [CODEC_RLE, CODEC_DELTA_RLE] {
            let good = encode_coded(Payload::from(body.clone()), codec).to_bytes().to_vec();
            let at = (flip as usize) % good.len();
            let mut flipped = good.clone();
            flipped[at] ^= (flip >> 32) as u8 | 1;
            assert_decodes_like_oracle(&Bytes::from(flipped), &mut rng);
            assert_decodes_like_oracle(&Bytes::copy_from_slice(&good[..at]), &mut rng);
            let mut padded = good.clone();
            padded.extend_from_slice(&junk[..junk.len().min(3)]);
            assert_decodes_like_oracle(&Bytes::from(padded), &mut rng);
        }
    }
}

/// Runs of 247–256 and 510 bytes — around the 255 cap and the point
/// where the word path hands over to byte steps — at every word offset,
/// in both the RLE and the delta stream.
#[test]
fn runs_around_the_cap_encode_like_the_oracle() {
    let mut rng = TestRng::for_case(0xC0DEC, 0);
    for len in (247..=256).chain([510, 511, 765]) {
        for offset in 0..10 {
            for value in [0u8, 0x5A] {
                let mut runs: Vec<(usize, u8)> = (0..offset).map(|i| (1, i as u8 + 1)).collect();
                runs.push((len, value));
                runs.push((3, value.wrapping_add(7)));
                let (stream, body) = from_runs(&runs);
                assert_encodes_like_oracle(&stream, &mut rng);
                assert_encodes_like_oracle(&body, &mut rng);
            }
        }
    }
}

/// Redistribution-like bodies: `u64` ramps of the benchmark grid's
/// shape, whole, in 320 B serve runs, and with a short header first.
#[test]
fn redist_ramps_encode_like_the_oracle() {
    let mut rng = TestRng::for_case(0x2ED1, 0);
    for (base, stride) in [(0u64, 1u64), (1 << 20, 1), (7, 80), (u64::MAX - 500, 3)] {
        let ramp: Vec<u8> =
            (0..4000u64).flat_map(|i| base.wrapping_add(i * stride).to_le_bytes()).collect();
        assert_encodes_like_oracle(&ramp, &mut rng);
        let mut framed = 2u64.to_le_bytes()[..5].to_vec();
        framed.extend_from_slice(&ramp);
        assert_encodes_like_oracle(&framed, &mut rng);
    }
}

/// Bodies whose encoding is exactly `raw_len - 1`, `raw_len`,
/// `raw_len + 1` or `raw_len + 2` bytes: compressed below `1 + raw_len`,
/// raw from there on — and the oracle agrees on every one.
#[test]
fn encodings_at_the_bail_out_bound_match_the_oracle() {
    let mut rng = TestRng::for_case(0xB0B, 0);
    for pairs in [1usize, 2, 5, 17, 64, 300] {
        for slack in [-1i64, 0, 1, 2] {
            // Encoded length 9 + 2 * pairs == raw_len + slack.
            let raw_len = (9 + 2 * pairs as i64 - slack) as usize;
            if raw_len < pairs {
                continue;
            }
            let runs = runs_totaling(pairs, raw_len, &mut rng);
            let (stream, body) = from_runs(&runs);
            for (codec, input) in [(CODEC_RLE, &stream), (CODEC_DELTA_RLE, &body)] {
                let coded = encode_coded(Payload::from(input.clone()), codec);
                let compressed = slack < 1;
                let want_len = if compressed { 9 + 2 * pairs } else { 1 + raw_len };
                assert_eq!(coded.len(), want_len, "pairs {pairs}, slack {slack}, codec {codec}");
                assert_eq!(coded.to_bytes()[0] != CODEC_RAW, compressed);
                assert_encodes_like_oracle(input, &mut rng);
            }
        }
    }
}
