//! Error types for the stream-architecture simulator.
//!
//! The simulator enforces the constraints of the target hardware
//! (Section 3.2 and 6.1 of the paper) at run time; violating them is a
//! programming error in the stream program and is reported as a
//! [`StreamError`] rather than a panic so that the failure-injection tests
//! can observe them.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StreamError>;

/// Errors raised by the stream-architecture simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A substream range exceeded the bounds of its stream.
    SubStreamOutOfBounds {
        /// Length of the underlying stream.
        stream_len: usize,
        /// Offending range start (element index).
        start: usize,
        /// Offending range end (exclusive element index).
        end: usize,
    },
    /// The stream operation's output substream cannot hold the data the
    /// kernel instances push onto it.
    OutputOverflow {
        /// Capacity of the output substream in elements.
        capacity: usize,
        /// Number of elements the launch would write.
        required: usize,
    },
    /// A gather access used an index outside the gather stream.
    GatherOutOfBounds {
        /// Length of the gather stream.
        stream_len: usize,
        /// Offending index.
        index: usize,
    },
    /// The same stream was bound both as an input/gather stream and as an
    /// output stream of one stream operation. Current GPUs require input
    /// and output streams to be distinct (Section 6.1).
    InputOutputAliasing {
        /// Debug name of the offending stream.
        stream: String,
    },
    /// The requested stream exceeds the maximum 2D dimensions of the
    /// hardware profile (Section 3.2: usually 2048 or 4096 per dimension).
    StreamTooLarge {
        /// Number of elements requested.
        elements: usize,
        /// Maximum number of elements the profile supports.
        max_elements: usize,
    },
    /// The per-instance output size exceeds the hardware's kernel output
    /// limit (Section 7.1: 16 x 32 bit on the paper's GPUs).
    KernelOutputTooLarge {
        /// Bytes the kernel wants to emit per instance.
        bytes: usize,
        /// Maximum bytes per instance allowed by the profile.
        max_bytes: usize,
    },
    /// The kernel performed a different number of stream accesses on
    /// different control paths, which a real kernel compiler would reject
    /// (see the note below Listing 4 in the paper).
    IrregularAccessPattern {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::SubStreamOutOfBounds {
                stream_len,
                start,
                end,
            } => write!(
                f,
                "substream [{start}, {end}) out of bounds for stream of length {stream_len}"
            ),
            StreamError::OutputOverflow {
                capacity,
                required,
            } => write!(
                f,
                "stream operation writes {required} elements into an output substream of capacity {capacity}"
            ),
            StreamError::GatherOutOfBounds { stream_len, index } => write!(
                f,
                "gather index {index} out of bounds for stream of length {stream_len}"
            ),
            StreamError::InputOutputAliasing { stream } => write!(
                f,
                "stream `{stream}` bound as both input and output of one stream operation; \
                 input and output streams must be distinct on this hardware"
            ),
            StreamError::StreamTooLarge {
                elements,
                max_elements,
            } => write!(
                f,
                "stream of {elements} elements exceeds the maximum stream size of {max_elements} elements"
            ),
            StreamError::KernelOutputTooLarge { bytes, max_bytes } => write!(
                f,
                "kernel output of {bytes} bytes per instance exceeds the hardware limit of {max_bytes} bytes"
            ),
            StreamError::IrregularAccessPattern { detail } => {
                write!(f, "irregular kernel access pattern: {detail}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_human_readably() {
        let e = StreamError::SubStreamOutOfBounds {
            stream_len: 8,
            start: 4,
            end: 12,
        };
        assert!(e.to_string().contains("out of bounds"));

        let e = StreamError::InputOutputAliasing {
            stream: "trees".into(),
        };
        assert!(e.to_string().contains("trees"));

        let e = StreamError::OutputOverflow {
            capacity: 3,
            required: 4,
        };
        assert!(e.to_string().contains("capacity 3"));
    }

    #[test]
    fn errors_are_comparable() {
        let gather = |index| StreamError::GatherOutOfBounds {
            stream_len: 8,
            index,
        };
        assert_eq!(gather(9), gather(9));
        assert_ne!(gather(9), gather(10));
    }
}
