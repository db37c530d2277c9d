//! Framing: segment header, CRC-32, and the length-prefixed envelope.

use std::fmt;
use std::io;

/// Magic bytes opening every segment file (name + format version).
pub const SEGMENT_MAGIC: &[u8; 8] = b"STEMWAL1";

/// Everything that can go wrong writing or reading a log.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A segment file did not start with [`SEGMENT_MAGIC`].
    BadMagic {
        /// The offending file.
        path: std::path::PathBuf,
    },
    /// A record payload did not decode (corruption past the checksum,
    /// or a record written by a newer format).
    BadRecord(stem_core::codec::CodecError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadMagic { path } => {
                write!(f, "not a stem-wal segment: {}", path.display())
            }
            WalError::BadRecord(e) => write!(f, "wal record failed to decode: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<stem_core::codec::CodecError> for WalError {
    fn from(e: stem_core::codec::CodecError) -> Self {
        WalError::BadRecord(e)
    }
}

pub use stem_core::codec::crc32;

/// Bytes of the on-disk frame header: `[len u32][crc u32][payload]`.
pub(crate) const FRAME_HEADER: usize = 8;

/// Fills the header of a frame built in place: `buf` holds
/// [`FRAME_HEADER`] placeholder bytes followed by the payload.
pub(crate) fn seal_frame(buf: &mut [u8]) {
    let (header, payload) = buf.split_at_mut(FRAME_HEADER);
    let len = u32::try_from(payload.len()).expect("record < 4 GiB");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Attempts to read one frame from the front of `bytes`.
///
/// Returns `Some((payload, frame_len))` for an intact frame, `None` for
/// a torn or checksum-corrupt tail (recovery truncates there).
#[must_use]
pub fn unframe(bytes: &[u8]) -> Option<(&[u8], usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4")) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
    let rest = &bytes[8..];
    if rest.len() < len {
        return None;
    }
    let payload = &rest[..len];
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, 8 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0; FRAME_HEADER];
        out.extend_from_slice(payload);
        seal_frame(&mut out);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello wal";
        let framed = frame(payload);
        let (back, consumed) = unframe(&framed).unwrap();
        assert_eq!(back, payload);
        assert_eq!(consumed, framed.len());
    }

    #[test]
    fn torn_and_corrupt_frames_are_rejected() {
        let framed = frame(b"payload");
        // Every strict prefix is torn.
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut]).is_none(), "cut {cut}");
        }
        // A flipped payload byte fails the checksum.
        let mut corrupt = framed.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        assert!(unframe(&corrupt).is_none());
    }
}
