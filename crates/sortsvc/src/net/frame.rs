//! The length-prefixed binary frame layer of the `sortsvc` wire protocol.
//!
//! Everything on the wire is a *frame*: a fixed 12-byte header (magic,
//! version, frame type, reserved word, payload length) followed by
//! `payload length` bytes of payload. The byte-level layout, the
//! request/response state machine and the versioning rules are specified
//! normatively in `docs/PROTOCOL.md`; this module is the reference
//! implementation both the server and the client use, and the codec tests
//! in `crates/sortsvc/tests/net_frame.rs` cite the spec section by
//! section.
//!
//! Decoding is strict: a wrong magic, an unsupported version, a non-zero
//! reserved word, an unknown frame type or a length prefix beyond the
//! configured bound each produce a typed [`FrameError`] — never a panic,
//! and never an allocation sized by attacker-controlled input (the payload
//! buffer is only grown after the length prefix has been validated).
//!
//! ```
//! use sortsvc::net::{Frame, FrameReader, FramePoll, FrameType};
//!
//! let frame = Frame::new(FrameType::Ping, Vec::new());
//! let bytes = frame.encode();
//! assert_eq!(&bytes[..4], b"ABSR"); // the protocol magic
//!
//! let mut reader = FrameReader::new(1024);
//! let mut cursor = std::io::Cursor::new(bytes);
//! match reader.poll(&mut cursor).unwrap() {
//!     FramePoll::Frame(f) => assert_eq!(f.frame_type, FrameType::Ping),
//!     other => panic!("expected a frame, got {other:?}"),
//! }
//! ```

use super::error::ErrorCode;
use std::convert::Infallible;
use std::fmt;
use std::io::Read;
use stream_arch::Value;

/// The four magic bytes opening every frame: `ABSR` (**A**daptive
/// **B**itonic **S**o**R**t).
pub const MAGIC: [u8; 4] = *b"ABSR";

/// The protocol version this implementation speaks (see `docs/PROTOCOL.md`
/// § Versioning).
pub const PROTOCOL_VERSION: u8 = 1;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 12;

/// Size of the fixed per-job header inside `SUBMIT` / `RESULT` / `REJECT`
/// payloads.
pub const JOB_HEADER_LEN: usize = 16;

/// Bytes of one encoded record under the `RAW_LE` payload encoding.
pub const RAW_RECORD_LEN: usize = 8;

/// Frame types of protocol version 1 (`docs/PROTOCOL.md` § Frame types).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: submit one sort job.
    Submit = 0x01,
    /// Server → client: the sorted records of one completed job.
    Result = 0x02,
    /// Server → client: one job was turned away (typed code + retry hint).
    Reject = 0x03,
    /// Either direction: liveness probe.
    Ping = 0x04,
    /// Either direction: response to [`FrameType::Ping`].
    Pong = 0x05,
    /// Either direction: clean connection shutdown announcement.
    Goodbye = 0x06,
    /// Client → server: request a stats snapshot (empty payload);
    /// server → client: the snapshot as UTF-8 JSON (see [`StatsPayload`]).
    /// Added within version 1 per the `docs/PROTOCOL.md` § Versioning
    /// rules: receivers that predate it reject it with a typed
    /// `UNKNOWN_TYPE` error rather than misparsing.
    Stats = 0x07,
    /// Either direction: connection-fatal protocol error; the sender
    /// closes the connection after this frame.
    Error = 0x7F,
}

impl FrameType {
    /// Decode a wire byte into a frame type.
    pub fn from_wire(byte: u8) -> Option<FrameType> {
        match byte {
            0x01 => Some(FrameType::Submit),
            0x02 => Some(FrameType::Result),
            0x03 => Some(FrameType::Reject),
            0x04 => Some(FrameType::Ping),
            0x05 => Some(FrameType::Pong),
            0x06 => Some(FrameType::Goodbye),
            0x07 => Some(FrameType::Stats),
            0x7F => Some(FrameType::Error),
            _ => None,
        }
    }
}

/// How the records inside a `SUBMIT` / `RESULT` payload are encoded.
///
/// Version 1 has one encoding. Wire byte 1 is retired (it once named a
/// JSON encoding) and is never reassigned within version 1; a `SUBMIT`
/// that carries it, or any other unknown byte, gets the per-job
/// `UNSUPPORTED_ENCODING` reject.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PayloadEncoding {
    /// 8 bytes per record, little endian: `f32` key bit pattern, then
    /// `u32` id (see [`encode_values`]). Carries every possible key,
    /// including NaN payloads and ±∞.
    RawLe = 0,
}

impl PayloadEncoding {
    /// Decode a wire byte into an encoding.
    pub fn from_wire(byte: u8) -> Option<PayloadEncoding> {
        (byte == PayloadEncoding::RawLe as u8).then_some(PayloadEncoding::RawLe)
    }
}

/// A decoded frame: type plus raw payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What kind of frame this is.
    pub frame_type: FrameType,
    /// The payload bytes (interpretation depends on `frame_type`).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Build a frame from a type and payload.
    pub fn new(frame_type: FrameType, payload: Vec<u8>) -> Self {
        Frame {
            frame_type,
            payload,
        }
    }

    /// Encode header + payload into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Append header + payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(self.frame_type as u8);
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved, must be zero
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }
}

/// A typed frame-layer decode error (`docs/PROTOCOL.md` § Error handling).
///
/// Every variant except [`FrameError::Io`] means the byte stream violated
/// the protocol; the connection cannot be resynchronised and must be
/// closed after an `ERROR` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte was not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The reserved header word was not zero.
    BadReserved(u16),
    /// The frame-type byte named no known frame type.
    UnknownType(u8),
    /// The length prefix exceeded the receiver's configured bound. The
    /// payload is *not* read (or allocated) in this case.
    Oversized {
        /// The length the header claimed.
        len: u32,
        /// The receiver's configured maximum payload length.
        limit: u32,
    },
    /// An I/O error other than a read timeout.
    Io(std::io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected {MAGIC:02x?})"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (speaking {PROTOCOL_VERSION})"
                )
            }
            FrameError::BadReserved(r) => write!(f, "non-zero reserved header word {r:#06x}"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            FrameError::Oversized { len, limit } => {
                write!(
                    f,
                    "payload length {len} exceeds the configured bound {limit}"
                )
            }
            FrameError::Io(kind) => write!(f, "I/O error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The `ERROR`-frame code a receiver should send back for this
    /// violation before closing the connection.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            FrameError::BadMagic(_) => ErrorCode::BadMagic,
            FrameError::BadVersion(_) => ErrorCode::BadVersion,
            FrameError::Oversized { .. } => ErrorCode::FrameOversized,
            _ => ErrorCode::BadFrame,
        }
    }
}

/// The outcome of one [`FrameReader::poll`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum FramePoll {
    /// A complete frame was decoded.
    Frame(Frame),
    /// The underlying reader has no bytes right now (read timeout /
    /// `WouldBlock`); call `poll` again later. Any partial frame bytes
    /// already read are retained, so polling across timeouts never loses
    /// stream synchronisation.
    WouldBlock,
    /// The stream ended cleanly on a frame boundary.
    Eof,
}

/// An incremental frame decoder over any [`Read`].
///
/// The reader buffers partial input internally, so it is safe to drive
/// from a socket with a read timeout: a timeout mid-frame simply returns
/// [`FramePoll::WouldBlock`] and the next `poll` resumes where the stream
/// paused. Header fields are validated as soon as the 12 header bytes are
/// available — an oversized length prefix is rejected *before* any payload
/// is read or allocated.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    limit: u32,
}

impl FrameReader {
    /// Create a reader enforcing `max_payload_len` on the length prefix.
    pub fn new(max_payload_len: u32) -> Self {
        FrameReader {
            buf: Vec::new(),
            limit: max_payload_len,
        }
    }

    /// Validate the buffered header and return the payload length.
    fn header_payload_len(&self) -> Result<usize, FrameError> {
        let h = &self.buf[..HEADER_LEN];
        if h[..4] != MAGIC {
            return Err(FrameError::BadMagic([h[0], h[1], h[2], h[3]]));
        }
        if h[4] != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(h[4]));
        }
        FrameType::from_wire(h[5]).ok_or(FrameError::UnknownType(h[5]))?;
        let reserved = u16::from_le_bytes([h[6], h[7]]);
        if reserved != 0 {
            return Err(FrameError::BadReserved(reserved));
        }
        let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
        if len > self.limit {
            return Err(FrameError::Oversized {
                len,
                limit: self.limit,
            });
        }
        Ok(len as usize)
    }

    /// Try to decode the next frame from `r`.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<FramePoll, FrameError> {
        loop {
            if self.buf.len() >= HEADER_LEN {
                let payload_len = self.header_payload_len()?;
                let total = HEADER_LEN + payload_len;
                if self.buf.len() >= total {
                    let frame_type = FrameType::from_wire(self.buf[5]).expect("validated above");
                    let payload = self.buf[HEADER_LEN..total].to_vec();
                    self.buf.drain(..total);
                    return Ok(FramePoll::Frame(Frame {
                        frame_type,
                        payload,
                    }));
                }
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(FramePoll::Eof)
                    } else {
                        Err(FrameError::Truncated)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => match e.kind() {
                    std::io::ErrorKind::Interrupted => continue,
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return Ok(FramePoll::WouldBlock)
                    }
                    kind => return Err(FrameError::Io(kind)),
                },
            }
        }
    }
}

/// A typed payload-layer decode error: the frame itself was well formed,
/// but its payload was not. Payload errors are per-job — the connection
/// survives and the offending job is rejected with
/// [`ErrorCode::MalformedPayload`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PayloadError(pub &'static str);

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for PayloadError {}

/// The payload of a [`FrameType::Submit`] frame: one sort job.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitPayload {
    /// Client-chosen job id, echoed verbatim in the response. Must be
    /// unique among the connection's outstanding jobs.
    pub job_id: u64,
    /// Tenant the job belongs to (the service's fairness key).
    pub tenant: u32,
    /// How `values` are encoded on the wire.
    pub encoding: PayloadEncoding,
    /// The records to sort.
    pub values: Vec<Value>,
}

impl SubmitPayload {
    /// Encode into payload bytes (job header + records). Every record is
    /// representable, so encoding cannot fail.
    pub fn encode(&self) -> Result<Vec<u8>, Infallible> {
        let mut out = Vec::with_capacity(JOB_HEADER_LEN + self.values.len() * RAW_RECORD_LEN);
        out.extend_from_slice(&self.job_id.to_le_bytes());
        out.extend_from_slice(&self.tenant.to_le_bytes());
        out.push(self.encoding as u8);
        out.extend_from_slice(&[0u8; 3]); // reserved, must be zero
        encode_values(&self.values, &mut out);
        Ok(out)
    }

    /// Validate the job header and the length of the record section, and
    /// return the record count, without decoding any record. A receiver
    /// can turn away an oversized job on this count before it allocates
    /// the records.
    pub fn record_count(bytes: &[u8]) -> Result<usize, PayloadError> {
        if bytes.len() < JOB_HEADER_LEN {
            return Err(PayloadError("submit payload shorter than its job header"));
        }
        PayloadEncoding::from_wire(bytes[12]).ok_or(PayloadError("unknown payload encoding"))?;
        if bytes[13..16] != [0u8; 3] {
            return Err(PayloadError("non-zero reserved bytes in the job header"));
        }
        records_in(&bytes[JOB_HEADER_LEN..])
    }

    /// Decode from payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<SubmitPayload, PayloadError> {
        SubmitPayload::record_count(bytes)?;
        Ok(SubmitPayload {
            job_id: u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")),
            tenant: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            encoding: PayloadEncoding::RawLe,
            values: decode_values(&bytes[JOB_HEADER_LEN..])?,
        })
    }
}

/// The payload of a [`FrameType::Result`] frame: one completed job.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultPayload {
    /// The client's job id, echoed from the submission.
    pub job_id: u64,
    /// How `values` are encoded.
    pub encoding: PayloadEncoding,
    /// The sorted records.
    pub values: Vec<Value>,
}

impl ResultPayload {
    /// Encode into payload bytes (job header + records). Every record is
    /// representable, so encoding cannot fail.
    pub fn encode(&self) -> Result<Vec<u8>, Infallible> {
        let mut out = Vec::with_capacity(JOB_HEADER_LEN + self.values.len() * RAW_RECORD_LEN);
        out.extend_from_slice(&self.job_id.to_le_bytes());
        out.push(self.encoding as u8);
        out.extend_from_slice(&[0u8; 7]); // reserved, must be zero
        encode_values(&self.values, &mut out);
        Ok(out)
    }

    /// Decode from payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<ResultPayload, PayloadError> {
        if bytes.len() < JOB_HEADER_LEN {
            return Err(PayloadError("result payload shorter than its job header"));
        }
        let job_id = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let encoding =
            PayloadEncoding::from_wire(bytes[8]).ok_or(PayloadError("unknown payload encoding"))?;
        if bytes[9..16] != [0u8; 7] {
            return Err(PayloadError("non-zero reserved bytes in the job header"));
        }
        let values = decode_values(&bytes[JOB_HEADER_LEN..])?;
        Ok(ResultPayload {
            job_id,
            encoding,
            values,
        })
    }
}

/// The payload of a [`FrameType::Reject`] frame: one job turned away.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RejectPayload {
    /// The client's job id, echoed from the submission.
    pub job_id: u64,
    /// Why the job was rejected.
    pub code: ErrorCode,
    /// Advisory back-off hint in milliseconds (0 = no hint; retrying a
    /// [`ErrorCode::MalformedPayload`] reject is pointless at any delay).
    pub retry_after_ms: u32,
}

impl RejectPayload {
    /// Encode into payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(JOB_HEADER_LEN);
        out.extend_from_slice(&self.job_id.to_le_bytes());
        out.extend_from_slice(&(self.code as u16).to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved, must be zero
        out.extend_from_slice(&self.retry_after_ms.to_le_bytes());
        out
    }

    /// Decode from payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<RejectPayload, PayloadError> {
        if bytes.len() != JOB_HEADER_LEN {
            return Err(PayloadError("reject payload must be exactly 16 bytes"));
        }
        let job_id = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let code_raw = u16::from_le_bytes([bytes[8], bytes[9]]);
        let code = ErrorCode::from_wire(code_raw).ok_or(PayloadError("unknown error code"))?;
        if bytes[10..12] != [0u8; 2] {
            return Err(PayloadError(
                "non-zero reserved bytes in the reject payload",
            ));
        }
        let retry_after_ms = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        Ok(RejectPayload {
            job_id,
            code,
            retry_after_ms,
        })
    }
}

/// The payload of a [`FrameType::Error`] frame: a connection-fatal
/// protocol violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorPayload {
    /// What went wrong.
    pub code: ErrorCode,
    /// Optional human-readable diagnostic (UTF-8; may be empty).
    pub message: String,
}

impl ErrorPayload {
    /// Encode into payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.message.len());
        out.extend_from_slice(&(self.code as u16).to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved, must be zero
        out.extend_from_slice(self.message.as_bytes());
        out
    }

    /// Decode from payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<ErrorPayload, PayloadError> {
        if bytes.len() < 4 {
            return Err(PayloadError("error payload shorter than its header"));
        }
        let code_raw = u16::from_le_bytes([bytes[0], bytes[1]]);
        let code = ErrorCode::from_wire(code_raw).ok_or(PayloadError("unknown error code"))?;
        if bytes[2..4] != [0u8; 2] {
            return Err(PayloadError("non-zero reserved bytes in the error payload"));
        }
        let message = std::str::from_utf8(&bytes[4..])
            .map_err(|_| PayloadError("error message is not valid UTF-8"))?
            .to_string();
        Ok(ErrorPayload { code, message })
    }
}

/// The payload of a server→client [`FrameType::Stats`] frame: a
/// [`ServerStats`](crate::ServerStats) snapshot serialized as UTF-8 JSON.
/// (The client→server request direction carries an *empty* payload and
/// does not use this struct.)
///
/// JSON rather than a fixed binary layout because the snapshot is a
/// diagnostic surface, not a data plane: fields may be added within
/// protocol version 1, and clients should read it with a tolerant JSON
/// parser instead of pinning offsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsPayload {
    /// The snapshot as a JSON document.
    pub json: String,
}

impl StatsPayload {
    /// Encode into payload bytes (the UTF-8 bytes of the document).
    pub fn encode(&self) -> Vec<u8> {
        self.json.clone().into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<StatsPayload, PayloadError> {
        if bytes.is_empty() {
            return Err(PayloadError("stats response payload is empty"));
        }
        let json = std::str::from_utf8(bytes)
            .map_err(|_| PayloadError("stats payload is not valid UTF-8"))?
            .to_string();
        Ok(StatsPayload { json })
    }
}

/// Append the records in the `RAW_LE` record encoding: per record the
/// `f32` key's bit pattern, then the `u32` id, both little endian. This
/// is the one definition of the 8-byte record; the `SUBMIT`/`RESULT`
/// codecs and the WAL's `ADMITTED` record use it.
pub fn encode_values(values: &[Value], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + values.len() * RAW_RECORD_LEN, 0);
    for (record, v) in out[start..].chunks_exact_mut(RAW_RECORD_LEN).zip(values) {
        record[..4].copy_from_slice(&v.key.to_bits().to_le_bytes());
        record[4..].copy_from_slice(&v.id.to_le_bytes());
    }
}

/// Decode a `RAW_LE` record section (the inverse of [`encode_values`]).
pub fn decode_values(bytes: &[u8]) -> Result<Vec<Value>, PayloadError> {
    records_in(bytes)?;
    Ok(bytes
        .chunks_exact(RAW_RECORD_LEN)
        .map(|c| {
            Value::new(
                f32::from_bits(u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"))),
                u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
            )
        })
        .collect())
}

/// The number of records in a `RAW_LE` record section.
fn records_in(bytes: &[u8]) -> Result<usize, PayloadError> {
    if !bytes.len().is_multiple_of(RAW_RECORD_LEN) {
        return Err(PayloadError(
            "RAW_LE record section is not a multiple of 8 bytes",
        ));
    }
    Ok(bytes.len() / RAW_RECORD_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn poll_one(bytes: &[u8], limit: u32) -> Result<FramePoll, FrameError> {
        FrameReader::new(limit).poll(&mut Cursor::new(bytes))
    }

    #[test]
    fn frame_round_trips_through_the_reader() {
        let frame = Frame::new(FrameType::Submit, vec![1, 2, 3, 4, 5]);
        let bytes = frame.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 5);
        match poll_one(&bytes, 1024).unwrap() {
            FramePoll::Frame(f) => assert_eq!(f, frame),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn reader_handles_split_delivery_and_back_to_back_frames() {
        let a = Frame::new(FrameType::Ping, Vec::new());
        let b = Frame::new(FrameType::Submit, vec![9; 37]);
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());

        // Deliver one byte at a time through a reader that sees timeouts
        // between bytes.
        struct Trickle<'a>(&'a [u8], usize, bool);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.2 {
                    self.2 = false;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.2 = true;
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut r = Trickle(&bytes, 0, false);
        let mut reader = FrameReader::new(1024);
        let mut frames = Vec::new();
        loop {
            match reader.poll(&mut r).unwrap() {
                FramePoll::Frame(f) => frames.push(f),
                FramePoll::WouldBlock => continue,
                FramePoll::Eof => break,
            }
        }
        assert_eq!(frames, vec![a, b]);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_payload_read() {
        let mut bytes = Frame::new(FrameType::Submit, Vec::new()).encode();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            poll_one(&bytes, 1 << 20),
            Err(FrameError::Oversized {
                len: u32::MAX,
                limit: 1 << 20
            })
        );
    }

    #[test]
    fn record_count_checks_the_header_and_section_without_decoding() {
        let payload = SubmitPayload {
            job_id: 1,
            tenant: 0,
            encoding: PayloadEncoding::RawLe,
            values: vec![Value::new(0.0, 0); 3],
        };
        let Ok(bytes) = payload.encode();
        assert_eq!(SubmitPayload::record_count(&bytes), Ok(3));
        assert!(SubmitPayload::record_count(&bytes[..JOB_HEADER_LEN - 1]).is_err());
        assert!(SubmitPayload::record_count(&bytes[..bytes.len() - 1]).is_err());
        let mut retired = bytes.clone();
        retired[12] = 1;
        assert!(SubmitPayload::record_count(&retired).is_err());
        let mut reserved = bytes;
        reserved[15] = 1;
        assert!(SubmitPayload::record_count(&reserved).is_err());
    }

    #[test]
    fn reject_payload_round_trips() {
        let payload = RejectPayload {
            job_id: 9,
            code: ErrorCode::QueueFull,
            retry_after_ms: 12,
        };
        assert_eq!(RejectPayload::decode(&payload.encode()).unwrap(), payload);
    }

    #[test]
    fn error_payload_round_trips() {
        let payload = ErrorPayload {
            code: ErrorCode::BadMagic,
            message: "expected ABSR".into(),
        };
        assert_eq!(ErrorPayload::decode(&payload.encode()).unwrap(), payload);
    }
}
