//! Length-prefixed binary frames for the replication channel.
//!
//! HTTP is the wrong shape for delta push — the reactor's request parser
//! discards bodies and the primary *initiates* sends — so replication runs
//! over a dedicated TCP connection speaking a trivially parseable frame
//! format:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HTAC"
//! 4       1     frame type
//! 5       4     payload length (u32 LE, capped)
//! 9       n     payload
//! 9+n     4     CRC-32/IEEE over bytes [4 .. 9+n)  (type, length, payload)
//! ```
//!
//! The CRC makes a frame self-verifying independent of the payload's own
//! integrity story (snapshot and delta payloads are *also* CRC'd
//! containers, so state bytes end up double-covered on the wire).

use hta_snapshot::crc32::{crc32, Crc32};
use std::io::{self, Read, Write};

/// Magic prefix of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"HTAC";

/// Refuse frames larger than this (a corrupt length would otherwise ask us
/// to allocate absurd buffers).
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// The payload buffer grows by at most this much ahead of the bytes that
/// have actually arrived, so a length field that lies costs no more memory
/// than the stream really delivers.
const READ_CHUNK: usize = 64 * 1024;

/// A replica's first message after `last_epoch`: the epoch it already
/// holds, `0` for "nothing" (forces a full snapshot).
pub const FRAME_HELLO: u8 = 1;
/// Primary → replica: a full snapshot. Payload: `u64 LE epoch` + bytes.
pub const FRAME_FULL: u8 = 2;
/// Primary → replica: an encoded [`hta_snapshot::SnapshotDelta`] frame
/// (epochs ride inside the delta).
pub const FRAME_DELTA: u8 = 3;

/// One parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `FRAME_*` constants (unknown values are delivered, so the
    /// protocol can grow without breaking old peers mid-handshake).
    pub kind: u8,
    /// The opaque payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serialize to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(self.payload.len() <= MAX_FRAME_PAYLOAD, "frame too large");
        let mut out = Vec::with_capacity(13 + self.payload.len());
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(self.kind);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Write the frame to a stream (single `write_all`, then flush).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_bytes())?;
        w.flush()
    }

    /// Read one frame off a stream. Blocks until complete. A closed
    /// connection before the first byte yields `UnexpectedEof`; corrupt
    /// magic, length, or CRC yield `InvalidData`. The payload is read in
    /// bounded chunks and hashed as it arrives: memory follows the bytes
    /// received, not the length the header claims.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut head = [0u8; 9];
        r.read_exact(&mut head)?;
        if head[..4] != FRAME_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad frame magic",
            ));
        }
        let kind = head[4];
        let len = u32::from_le_bytes(head[5..9].try_into().unwrap()) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame payload length {len} exceeds the cap"),
            ));
        }
        let mut crc = Crc32::new();
        crc.update(&head[4..]);
        let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
        while payload.len() < len {
            let start = payload.len();
            payload.resize(start + (len - start).min(READ_CHUNK), 0);
            r.read_exact(&mut payload[start..])?;
            crc.update(&payload[start..]);
        }
        let mut crc_bytes = [0u8; 4];
        r.read_exact(&mut crc_bytes)?;
        if crc.finish() != u32::from_le_bytes(crc_bytes) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame checksum mismatch",
            ));
        }
        Ok(Self { kind, payload })
    }

    /// Build a `HELLO` frame.
    pub fn hello(last_epoch: u64) -> Self {
        Self {
            kind: FRAME_HELLO,
            payload: last_epoch.to_le_bytes().to_vec(),
        }
    }

    /// Build a `FULL` frame.
    pub fn full(epoch: u64, snapshot_bytes: &[u8]) -> Self {
        let mut payload = Vec::with_capacity(8 + snapshot_bytes.len());
        payload.extend_from_slice(&epoch.to_le_bytes());
        payload.extend_from_slice(snapshot_bytes);
        Self {
            kind: FRAME_FULL,
            payload,
        }
    }

    /// Build a `DELTA` frame around an encoded delta.
    pub fn delta(delta_bytes: Vec<u8>) -> Self {
        Self {
            kind: FRAME_DELTA,
            payload: delta_bytes,
        }
    }

    /// Decode a `HELLO` payload.
    pub fn parse_hello(&self) -> io::Result<u64> {
        if self.kind != FRAME_HELLO || self.payload.len() != 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a hello frame",
            ));
        }
        Ok(u64::from_le_bytes(self.payload[..].try_into().unwrap()))
    }

    /// Decode a `FULL` payload into `(epoch, snapshot bytes)`.
    pub fn parse_full(&self) -> io::Result<(u64, &[u8])> {
        if self.kind != FRAME_FULL || self.payload.len() < 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a full-snapshot frame",
            ));
        }
        let epoch = u64::from_le_bytes(self.payload[..8].try_into().unwrap());
        Ok((epoch, &self.payload[8..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_over_a_byte_stream() {
        let frames = [
            Frame::hello(42),
            Frame::full(7, &[1, 2, 3, 0, 255]),
            Frame::delta(vec![9; 100]),
            Frame {
                kind: 200,
                payload: vec![],
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.write_to(&mut wire).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut r).unwrap(), f);
        }
        assert!(Frame::read_from(&mut r).is_err(), "stream is drained");
    }

    #[test]
    fn hello_and_full_accessors() {
        assert_eq!(Frame::hello(9).parse_hello().unwrap(), 9);
        let f = Frame::full(3, b"abc");
        assert_eq!(f.parse_full().unwrap(), (3, &b"abc"[..]));
        assert!(f.parse_hello().is_err());
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let wire = Frame::delta(vec![1, 2, 3]).to_bytes();
        let mut copy = wire.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert!(
                    Frame::read_from(&mut &copy[..]).is_err(),
                    "flip at byte {i} bit {bit} parsed"
                );
                copy[i] ^= 1 << bit;
            }
        }
        assert_eq!(copy, wire);
    }

    #[test]
    fn truncated_frames_are_errors() {
        let wire = Frame::full(5, &[7; 300]).to_bytes();
        for cut in 0..wire.len() {
            assert!(
                Frame::read_from(&mut &wire[..cut]).is_err(),
                "prefix of length {cut} parsed"
            );
        }
    }

    #[test]
    fn inflated_length_followed_by_eof_is_an_error() {
        // A header claiming 1 GiB, then a few bytes and EOF: the reader
        // fails after the bytes that exist, without a 1 GiB buffer.
        let mut wire = Frame::delta(vec![1; 32]).to_bytes();
        wire[5..9].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_le_bytes());
        let err = Frame::read_from(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A length one past the truth eats the CRC and then runs dry.
        let mut wire = Frame::delta(vec![1; 32]).to_bytes();
        wire[5..9].copy_from_slice(&33u32.to_le_bytes());
        assert!(Frame::read_from(&mut &wire[..]).is_err());
    }

    #[test]
    fn spliced_frames_are_rejected() {
        // The head of one frame glued to the payload and CRC of another of
        // the same length: the CRC covers the type and length, so it fails.
        let a = Frame::delta(vec![1, 2, 3, 4]).to_bytes();
        let b = Frame::full(9, &[]).to_bytes();
        let spliced: Vec<u8> = a[..9].iter().chain(&b[9..]).copied().collect();
        assert!(Frame::read_from(&mut &spliced[..]).is_err());
        // Two frames' halves joined mid-payload.
        let c = Frame::delta(vec![5; 64]).to_bytes();
        let d = Frame::delta(vec![6; 64]).to_bytes();
        let spliced: Vec<u8> = c[..40].iter().chain(&d[40..]).copied().collect();
        assert!(Frame::read_from(&mut &spliced[..]).is_err());
    }

    #[test]
    fn large_payloads_stream_through_chunks() {
        let payload: Vec<u8> = (0..3 * READ_CHUNK + 17).map(|i| (i * 31) as u8).collect();
        let wire = Frame::delta(payload.clone()).to_bytes();
        let back = Frame::read_from(&mut &wire[..]).unwrap();
        assert_eq!(back.payload, payload);
        let mut flipped = wire.clone();
        flipped[9 + 2 * READ_CHUNK + 5] ^= 0x10;
        assert!(Frame::read_from(&mut &flipped[..]).is_err());
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let mut wire = Frame::hello(0).to_bytes();
        wire[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Frame::read_from(&mut &wire[..]).is_err());
    }
}
