//! `PayloadReader` walks a multi-part reply exactly like a contiguous
//! `minih5::codec::Reader` walks the flattened bytes: the same values,
//! the same `remaining()` after every step, and `Err` at the same point
//! on truncation — whatever the part boundaries, 1-byte parts included.

use bytes::Bytes;
use lowfive::protocol::PayloadReader;
use minih5::codec::Reader;
use minih5::{H5Error, H5Result};
use proptest::prelude::*;
use simmpi::Payload;

/// One reader call: `(kind, n)`, where `n` is the length of a
/// `copy_into`/`skip` and is ignored by the scalar reads.
type Op = (u8, usize);

/// Split `body` into parts: every byte its own part, or consecutive
/// parts whose sizes cycle through `sizes`.
fn split(body: &[u8], sizes: &[usize], ones: bool) -> Payload {
    let mut parts = Vec::new();
    let mut at = 0;
    for i in 0.. {
        if at == body.len() {
            break;
        }
        let n = if ones { 1 } else { sizes[i % sizes.len()] }.min(body.len() - at);
        parts.push(Bytes::copy_from_slice(&body[at..at + n]));
        at += n;
    }
    Payload::from_parts(parts)
}

/// The reference: `n` bytes off a contiguous reader, all or nothing
/// (the reader's own reads check the length before moving, too).
fn ref_take(r: &mut Reader, n: usize) -> H5Result<Vec<u8>> {
    if n > r.remaining() {
        return Err(H5Error::Format(format!("need {n} bytes, have {}", r.remaining())));
    }
    (0..n).map(|_| r.get_u8()).collect()
}

/// Apply `op` to both readers; returns the values each produced (`None`
/// on `Err`). A `PayloadReader` error must name the bytes needed and left.
fn step(
    pr: &mut PayloadReader,
    r: &mut Reader,
    (kind, n): Op,
) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
    let before = pr.remaining();
    let (got, want): (H5Result<Vec<u8>>, H5Result<Vec<u8>>) = match kind {
        0 => (pr.get_u8().map(|v| vec![v]), r.get_u8().map(|v| vec![v])),
        1 => (
            pr.get_u64().map(|v| v.to_le_bytes().to_vec()),
            r.get_u64().map(|v| v.to_le_bytes().to_vec()),
        ),
        2 => {
            let mut dst = vec![0xAAu8; n];
            (pr.copy_into(&mut dst).map(|()| dst), ref_take(r, n))
        }
        _ => (pr.skip(n).map(|()| Vec::new()), ref_take(r, n).map(|_| Vec::new())),
    };
    let need = match kind {
        0 => 1,
        1 => 8,
        _ => n,
    };
    if let Err(e) = &got {
        let shape = format!("truncated reply payload: need {need} bytes, have {before}");
        assert!(e.to_string().contains(&shape), "error {e} lacks {shape:?}");
    }
    (got.ok(), want.ok())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn payload_reader_matches_contiguous_reader(
        body in proptest::collection::vec(any::<u8>(), 0..160),
        sizes in proptest::collection::vec(1usize..12, 1..16),
        ones in any::<bool>(),
        ops in proptest::collection::vec((0u8..4, 0usize..24), 0..64),
    ) {
        let mut pr = PayloadReader::new(split(&body, &sizes, ones));
        let mut r = Reader::new(&body);
        prop_assert_eq!(pr.remaining(), body.len());
        for (i, &op) in ops.iter().enumerate() {
            let (got, want) = step(&mut pr, &mut r, op);
            prop_assert_eq!(&got, &want, "op {} = {:?}", i, op);
            prop_assert_eq!(pr.remaining(), r.remaining(), "op {} = {:?}", i, op);
        }
    }
}
