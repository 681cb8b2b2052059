//! Codec tests for the `sortsvc` wire protocol (`docs/PROTOCOL.md`).
//!
//! Two families:
//!
//! * **Round-trip properties** — encode → decode is the identity for
//!   `SUBMIT`/`RESULT` payloads across the job sizes 0, 1, 2, 37 and
//!   10 000, with every key and id drawn from the whole 32-bit domain
//!   (NaN payloads, ±∞, ±0, `u32::MAX` ids).
//! * **Adversarial decoding** — truncated frames, oversized length
//!   prefixes, bad magic, wrong version and garbage payloads each produce
//!   the documented typed error; nothing panics, and an oversized prefix
//!   is refused before any payload-sized allocation.

use proptest::prelude::*;
use proptest::strategy::WeightedUnion;
use sortsvc::net::{
    Frame, FrameError, FramePoll, FrameReader, FrameType, PayloadEncoding, ResultPayload,
    SubmitPayload, HEADER_LEN, JOB_HEADER_LEN, MAGIC, PROTOCOL_VERSION,
};
use std::io::Cursor;
use stream_arch::Value;

/// The job sizes the issue calls out: the edges, a non-round size, and a
/// four-digit job.
const JOB_SIZES: [usize; 5] = [0, 1, 2, 37, 10_000];

fn poll_one(bytes: &[u8], limit: u32) -> Result<FramePoll, FrameError> {
    FrameReader::new(limit).poll(&mut Cursor::new(bytes))
}

fn expect_frame(bytes: &[u8]) -> Frame {
    match poll_one(bytes, 64 << 20).expect("well-formed frame") {
        FramePoll::Frame(f) => f,
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// Key and id bit patterns worth drawing often: zeros, the smallest
/// subnormal, ±∞, NaNs with payloads and the top of the domain.
const EDGE_BITS: [u32; 8] = [
    0,
    1,
    0x8000_0000,
    0x7F80_0000,
    0xFF80_0000,
    0x7FC0_0001,
    0x7FFF_FFFF,
    0xFFFF_FFFF,
];

/// Any 32-bit pattern, edges included. The vendored ranges are half-open,
/// so a plain `0u32..u32::MAX` would never yield `u32::MAX`.
fn any_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => (0u64..1 << 32).prop_map(|x| x as u32),
        1 => (0..EDGE_BITS.len()).prop_map(|i| EDGE_BITS[i]),
    ]
}

/// A job of one of the [`JOB_SIZES`], every key and id drawn by
/// [`any_u32`].
fn any_job() -> impl Strategy<Value = Vec<Value>> {
    WeightedUnion::new(
        JOB_SIZES
            .iter()
            .map(|&n| {
                let job = proptest::collection::vec((any_u32(), any_u32()), n).prop_map(|raw| {
                    raw.into_iter()
                        .map(|(key, id)| Value::new(f32::from_bits(key), id))
                        .collect::<Vec<_>>()
                });
                (1, job.boxed())
            })
            .collect(),
    )
}

fn bits(values: &[Value]) -> Vec<(u32, u32)> {
    values.iter().map(|v| (v.key.to_bits(), v.id)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// § Payloads, § Record encodings: `SUBMIT` encode → decode is the
    /// identity over all job sizes and every key bit pattern, through the
    /// frame layer too.
    #[test]
    fn submit_round_trips_every_bit_pattern_at_all_job_sizes(
        values in any_job(),
        job_id in 0u64..u64::MAX,
        tenant in any_u32(),
    ) {
        let payload = SubmitPayload {
            job_id,
            tenant,
            encoding: PayloadEncoding::RawLe,
            values,
        };
        let frame = Frame::new(FrameType::Submit, payload.encode().unwrap());
        let decoded_frame = expect_frame(&frame.encode());
        prop_assert_eq!(decoded_frame.frame_type, FrameType::Submit);
        let decoded = SubmitPayload::decode(&decoded_frame.payload).unwrap();
        prop_assert_eq!(decoded.job_id, payload.job_id);
        prop_assert_eq!(decoded.tenant, payload.tenant);
        prop_assert_eq!(decoded.encoding, payload.encoding);
        prop_assert_eq!(bits(&decoded.values), bits(&payload.values));
    }

    /// § Payloads: `RESULT` round-trips likewise.
    #[test]
    fn result_round_trips_every_bit_pattern_at_all_job_sizes(
        values in any_job(),
        job_id in 0u64..u64::MAX,
    ) {
        let payload = ResultPayload {
            job_id,
            encoding: PayloadEncoding::RawLe,
            values,
        };
        let decoded = ResultPayload::decode(&payload.encode().unwrap()).unwrap();
        prop_assert_eq!(decoded.job_id, payload.job_id);
        prop_assert_eq!(bits(&decoded.values), bits(&payload.values));
    }

    /// § Framing: a frame decodes identically no matter how the bytes
    /// arrive — the reader retains partial state across read timeouts and
    /// never loses stream synchronisation.
    #[test]
    fn frame_decoding_is_split_invariant(
        payload in proptest::collection::vec((0u16..256).prop_map(|x| x as u8), 0..200),
        chunk in 1usize..32,
    ) {
        let frame = Frame::new(FrameType::Ping, payload);
        let bytes = frame.encode();

        // Deliver `chunk` bytes at a time with a WouldBlock between every
        // delivery, as a socket with a read timeout would.
        struct Chunked<'a> {
            bytes: &'a [u8],
            pos: usize,
            chunk: usize,
            block_next: bool,
        }
        impl std::io::Read for Chunked<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.block_next {
                    self.block_next = false;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.block_next = true;
                let n = self.chunk.min(self.bytes.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut r = Chunked { bytes: &bytes, pos: 0, chunk, block_next: false };
        let mut reader = FrameReader::new(1024);
        let mut decoded = None;
        loop {
            match reader.poll(&mut r).unwrap() {
                FramePoll::Frame(f) => {
                    decoded = Some(f);
                    break;
                }
                FramePoll::WouldBlock => continue,
                FramePoll::Eof => break,
            }
        }
        prop_assert_eq!(decoded, Some(frame));
    }
}

// --- Adversarial decoding (§ Error handling) ---------------------------

#[test]
fn truncated_frames_yield_typed_truncation_errors() {
    let bytes = Frame::new(FrameType::Submit, vec![7; 40]).encode();
    // Every proper prefix is a truncation (closed stream mid-frame), except
    // the empty prefix, which is a clean EOF.
    assert_eq!(poll_one(&[], 1024), Ok(FramePoll::Eof));
    for cut in 1..bytes.len() {
        assert_eq!(
            poll_one(&bytes[..cut], 1024),
            Err(FrameError::Truncated),
            "prefix of {cut} bytes"
        );
    }
}

#[test]
fn bad_magic_is_rejected_with_the_offending_bytes() {
    let mut bytes = Frame::new(FrameType::Ping, Vec::new()).encode();
    bytes[..4].copy_from_slice(b"HTTP");
    assert_eq!(poll_one(&bytes, 1024), Err(FrameError::BadMagic(*b"HTTP")));
}

#[test]
fn wrong_version_is_rejected_with_the_offending_version() {
    let mut bytes = Frame::new(FrameType::Ping, Vec::new()).encode();
    for v in [0u8, 2, 255] {
        bytes[4] = v;
        assert_eq!(poll_one(&bytes, 1024), Err(FrameError::BadVersion(v)));
    }
}

#[test]
fn unknown_frame_type_and_reserved_bits_are_rejected() {
    let mut bytes = Frame::new(FrameType::Ping, Vec::new()).encode();
    bytes[5] = 0x42;
    assert_eq!(poll_one(&bytes, 1024), Err(FrameError::UnknownType(0x42)));

    let mut bytes = Frame::new(FrameType::Ping, Vec::new()).encode();
    bytes[6] = 1; // reserved word must be zero
    assert_eq!(poll_one(&bytes, 1024), Err(FrameError::BadReserved(1)));
}

#[test]
fn oversized_length_prefix_is_refused_without_reading_the_payload() {
    // Header only — the claimed 4 GiB payload is never on the wire, and
    // the reader must refuse from the header alone (before allocating).
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.push(PROTOCOL_VERSION);
    header.push(FrameType::Submit as u8);
    header.extend_from_slice(&0u16.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(header.len(), HEADER_LEN);
    assert_eq!(
        poll_one(&header, 1 << 20),
        Err(FrameError::Oversized {
            len: u32::MAX,
            limit: 1 << 20,
        })
    );
}

#[test]
fn limit_boundary_is_inclusive() {
    let frame = Frame::new(FrameType::Ping, vec![0; 64]);
    let bytes = frame.encode();
    assert_eq!(expect_frame(&bytes).payload.len(), 64);
    assert_eq!(poll_one(&bytes, 64), Ok(FramePoll::Frame(frame)));
    assert_eq!(
        poll_one(&bytes, 63),
        Err(FrameError::Oversized { len: 64, limit: 63 })
    );
}

#[test]
fn garbage_submit_payloads_yield_typed_payload_errors() {
    // Shorter than the job header.
    assert!(SubmitPayload::decode(&[0u8; JOB_HEADER_LEN - 1]).is_err());
    // Unknown encoding bytes, the retired JSON byte 1 among them.
    let mut bytes = SubmitPayload {
        job_id: 1,
        tenant: 2,
        encoding: PayloadEncoding::RawLe,
        values: vec![],
    }
    .encode()
    .unwrap();
    for byte in [1, 9] {
        bytes[12] = byte;
        assert!(SubmitPayload::decode(&bytes).is_err());
    }
    // RAW_LE record section not a multiple of the record size.
    bytes[12] = PayloadEncoding::RawLe as u8;
    bytes.extend_from_slice(&[1, 2, 3]);
    assert!(SubmitPayload::decode(&bytes).is_err());
}

/// The worked hexdumps in `docs/PROTOCOL.md` § Worked examples are real:
/// these are the exact bytes the codec produces.
#[test]
fn protocol_md_hexdump_example_is_accurate() {
    use sortsvc::net::{ErrorCode, RejectPayload};

    let submit = SubmitPayload {
        job_id: 1,
        tenant: 0,
        encoding: PayloadEncoding::RawLe,
        values: vec![Value::new(1.5, 0), Value::new(-2.25, 1)],
    };
    let bytes = Frame::new(FrameType::Submit, submit.encode().unwrap()).encode();
    #[rustfmt::skip]
    let expected: [u8; 44] = [
        0x41, 0x42, 0x53, 0x52, 0x01, 0x01, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x10, 0xc0, 0x01, 0x00, 0x00, 0x00,
    ];
    assert_eq!(bytes, expected);

    let reject = RejectPayload {
        job_id: 2,
        code: ErrorCode::QueueFull,
        retry_after_ms: 10,
    };
    let bytes = Frame::new(FrameType::Reject, reject.encode()).encode();
    #[rustfmt::skip]
    let expected: [u8; 28] = [
        0x41, 0x42, 0x53, 0x52, 0x01, 0x03, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
    ];
    assert_eq!(bytes, expected);
}

#[test]
fn error_frame_after_violation_reports_the_matching_code() {
    use sortsvc::net::ErrorCode;
    let cases: [(&FrameError, ErrorCode); 4] = [
        (&FrameError::BadMagic(*b"HTTP"), ErrorCode::BadMagic),
        (&FrameError::BadVersion(3), ErrorCode::BadVersion),
        (
            &FrameError::Oversized { len: 99, limit: 1 },
            ErrorCode::FrameOversized,
        ),
        (&FrameError::UnknownType(0x42), ErrorCode::BadFrame),
    ];
    for (err, code) in cases {
        assert_eq!(err.error_code(), code);
        assert!(code.is_connection_fatal());
    }
}
