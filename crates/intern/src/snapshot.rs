//! Versioned, dependency-free binary snapshots of the interning containers.
//!
//! A long-running admission service keeps its verdict caches — the mapping
//! cascade's memo transposition table, the interned fingerprints, the
//! anti-monotone index — in memory; a restart would otherwise throw all of
//! that work away and re-run the exact verifier for every query it had
//! already answered. This module defines the byte format those caches are
//! persisted in so a service *warm-starts*: the restored containers are
//! layout-identical to the saved ones (same bucket positions, same
//! replacement state), so every subsequent query takes exactly the probe
//! path — and returns exactly the verdict — it would have taken in the
//! original process.
//!
//! The format is deliberately free of external dependencies (the container
//! building this workspace has no crates.io access): little-endian integers
//! behind a small header and trailer,
//!
//! ```text
//! magic "CPSN" | version u16 | kind [u8; 4] | payload ... | fnv1a64 checksum
//! ```
//!
//! where `kind` names the structure the payload encodes (each persistable
//! type picks a four-byte tag) and the checksum covers header and payload.
//! [`SnapshotWriter`] / [`SnapshotReader`] implement the framing;
//! [`Persist`] is the per-type payload codec, implemented here for the
//! primitives and sequences the persisted containers need
//! ([`crate::TwoWayTranspositionTable`] and the mapping cascade's caches).
//!
//! Since format version 2 a payload may additionally be divided into
//! *sections* ([`SnapshotWriter::begin_section`] /
//! [`SnapshotReader::enter_section`]):
//!
//! ```text
//! tag [u8; 4] | body length u64 | fnv1a64 over body | body ...
//! ```
//!
//! Each section carries its own CRC, so a reader localizes corruption to the
//! component it hit ([`SnapshotError::BadSectionChecksum`] names the tag)
//! instead of reporting one opaque whole-file mismatch, and a recovery
//! ladder can report *what* rotted in a rejected generation. Every decode
//! failure — framing, checksum, section, payload — is a typed
//! [`SnapshotError`]; no input, however corrupt, panics the reader.
//!
//! Work counters ([`crate::IndexStats`], [`crate::TtStats`]) are *not*
//! persisted: a restored container counts its new process's work from zero,
//! which is what the warm-vs-cold bench deltas measure. Only behavior is
//! preserved, bit-identically.

use std::fmt;

/// Version of the snapshot framing; bumped on any layout change.
pub const SNAPSHOT_VERSION: u16 = 2;

const MAGIC: [u8; 4] = *b"CPSN";

/// Bytes of a section header: tag, body length, body checksum.
const SECTION_HEADER: usize = 4 + 8 + 8;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The snapshot encodes a different structure than the caller expects.
    BadKind {
        /// Kind tag found in the header.
        found: [u8; 4],
        /// Kind tag the caller asked for.
        expected: [u8; 4],
    },
    /// The checksum over header and payload does not match the trailer.
    BadChecksum,
    /// The payload ended before a read completed.
    UnexpectedEof,
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes {
        /// Number of undecoded payload bytes.
        count: usize,
    },
    /// A section header names a different section than the reader expects.
    BadSectionTag {
        /// Section tag found in the payload.
        found: [u8; 4],
        /// Section tag the caller asked for.
        expected: [u8; 4],
    },
    /// A section's body does not match its recorded checksum.
    BadSectionChecksum {
        /// Tag of the damaged section.
        tag: [u8; 4],
    },
    /// The payload decoded but violates a structural invariant.
    Corrupt {
        /// Human-readable description of the violated invariant.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a cps snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (supported: {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadKind { found, expected } => write!(
                f,
                "snapshot encodes kind {:?}, expected {:?}",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(expected)
            ),
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::UnexpectedEof => write!(f, "snapshot payload truncated"),
            SnapshotError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after snapshot payload")
            }
            SnapshotError::BadSectionTag { found, expected } => write!(
                f,
                "snapshot section tagged {:?}, expected {:?}",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(expected)
            ),
            SnapshotError::BadSectionChecksum { tag } => write!(
                f,
                "checksum mismatch in snapshot section {:?}",
                String::from_utf8_lossy(tag)
            ),
            SnapshotError::Corrupt { reason } => write!(f, "corrupt snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash over `bytes` — the integrity checksum of the format.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Serializer for one snapshot: header, little-endian payload writes, and a
/// checksum trailer appended by [`SnapshotWriter::finish`].
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// Byte offset where the open section's body starts, if one is open.
    section: Option<usize>,
}

impl SnapshotWriter {
    /// Starts a snapshot of the structure tagged `kind`.
    pub fn new(kind: [u8; 4]) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&kind);
        SnapshotWriter { buf, section: None }
    }

    /// Opens a CRC-framed section tagged `tag`; everything written until the
    /// matching [`SnapshotWriter::end_section`] becomes the section body.
    ///
    /// Sections do not nest — the writer side is a programming contract, so
    /// nesting (like unbalanced calls) is a panic, not a runtime error.
    pub fn begin_section(&mut self, tag: [u8; 4]) {
        assert!(
            self.section.is_none(),
            "snapshot sections do not nest: end_section before begin_section"
        );
        self.buf.extend_from_slice(&tag);
        // Placeholders for body length and checksum, patched by end_section.
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        self.section = Some(self.buf.len());
    }

    /// Closes the open section, sealing its length and body checksum.
    pub fn end_section(&mut self) {
        let start = self
            .section
            .take()
            .expect("end_section requires an open section");
        let len = (self.buf.len() - start) as u64;
        let crc = fnv1a64(&self.buf[start..]);
        self.buf[start - 16..start - 8].copy_from_slice(&len.to_le_bytes());
        self.buf[start - 8..start].copy_from_slice(&crc.to_le_bytes());
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (sizes are
    /// platform-independent in the format).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Seals the snapshot: appends the checksum and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        assert!(
            self.section.is_none(),
            "finish requires every section to be closed"
        );
        let checksum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Deserializer over a sealed snapshot buffer. [`SnapshotReader::open`]
/// validates the header and checksum up front, the `take_*` methods walk the
/// payload, and [`SnapshotReader::finish`] rejects trailing bytes.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
    /// End offset and tag of the section being read, if one is entered.
    section: Option<(usize, [u8; 4])>,
}

/// Panic-free `[u8; 4]` view of a slice already known to hold 4 bytes.
fn arr4(s: &[u8]) -> Result<[u8; 4], SnapshotError> {
    s.try_into().map_err(|_| SnapshotError::UnexpectedEof)
}

/// Panic-free `[u8; 8]` view of a slice already known to hold 8 bytes.
fn arr8(s: &[u8]) -> Result<[u8; 8], SnapshotError> {
    s.try_into().map_err(|_| SnapshotError::UnexpectedEof)
}

impl<'a> SnapshotReader<'a> {
    /// Opens a snapshot, verifying magic, version, kind and checksum.
    pub fn open(bytes: &'a [u8], kind: [u8; 4]) -> Result<Self, SnapshotError> {
        // magic + version + kind up front, checksum trailer at the end.
        const HEADER: usize = 4 + 2 + 4;
        if bytes.len() < HEADER + 8 {
            return Err(SnapshotError::UnexpectedEof);
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        let found = arr4(&bytes[6..10])?;
        if found != kind {
            return Err(SnapshotError::BadKind {
                found,
                expected: kind,
            });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(arr8(trailer)?);
        if fnv1a64(body) != stored {
            return Err(SnapshotError::BadChecksum);
        }
        Ok(SnapshotReader {
            payload: &body[HEADER..],
            pos: 0,
            section: None,
        })
    }

    /// End of the region reads are currently confined to: the open section's
    /// body if one is entered, the whole payload otherwise.
    fn limit(&self) -> usize {
        match self.section {
            Some((end, _)) => end,
            None => self.payload.len(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.limit())
            .ok_or(SnapshotError::UnexpectedEof)?;
        let slice = &self.payload[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Enters the CRC-framed section expected next in the payload, verifying
    /// its tag, its recorded body length and its body checksum. Until
    /// [`SnapshotReader::exit_section`], reads cannot cross the section's
    /// end — a truncated body reads as [`SnapshotError::UnexpectedEof`]
    /// inside the section rather than silently consuming the next one.
    pub fn enter_section(&mut self, tag: [u8; 4]) -> Result<(), SnapshotError> {
        assert!(
            self.section.is_none(),
            "snapshot sections do not nest: exit_section before enter_section"
        );
        if self.payload.len() - self.pos < SECTION_HEADER {
            return Err(SnapshotError::UnexpectedEof);
        }
        let found = arr4(&self.payload[self.pos..self.pos + 4])?;
        if found != tag {
            return Err(SnapshotError::BadSectionTag {
                found,
                expected: tag,
            });
        }
        let len = u64::from_le_bytes(arr8(&self.payload[self.pos + 4..self.pos + 12])?);
        let crc = u64::from_le_bytes(arr8(&self.payload[self.pos + 12..self.pos + 20])?);
        let len = usize::try_from(len).map_err(|_| SnapshotError::UnexpectedEof)?;
        let body_start = self.pos + SECTION_HEADER;
        let body_end = body_start
            .checked_add(len)
            .filter(|&end| end <= self.payload.len())
            .ok_or(SnapshotError::UnexpectedEof)?;
        if fnv1a64(&self.payload[body_start..body_end]) != crc {
            return Err(SnapshotError::BadSectionChecksum { tag });
        }
        self.pos = body_start;
        self.section = Some((body_end, tag));
        Ok(())
    }

    /// Leaves the current section, rejecting undecoded body bytes the same
    /// way [`SnapshotReader::finish`] rejects trailing payload bytes.
    pub fn exit_section(&mut self) -> Result<(), SnapshotError> {
        let (end, tag) = self
            .section
            .take()
            .expect("exit_section requires an entered section");
        if self.pos != end {
            return Err(SnapshotError::Corrupt {
                reason: format!(
                    "{} undecoded bytes at the end of snapshot section {:?}",
                    end - self.pos,
                    String::from_utf8_lossy(&tag)
                ),
            });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(arr4(self.take(4)?)?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(arr8(self.take(8)?)?))
    }

    /// Reads a `usize` stored as a `u64`, rejecting values the platform
    /// cannot represent.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Corrupt {
            reason: "size exceeds the platform's usize".to_string(),
        })
    }

    /// Reads a boolean, rejecting bytes other than 0 and 1.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt {
                reason: format!("invalid boolean byte {other}"),
            }),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_usize()?;
        self.take(len)
    }

    /// Asserts the whole payload was consumed.
    pub fn finish(self) -> Result<(), SnapshotError> {
        assert!(
            self.section.is_none(),
            "finish requires every section to be exited"
        );
        if self.pos != self.payload.len() {
            return Err(SnapshotError::TrailingBytes {
                count: self.payload.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Payload codec for one value: how a type writes itself into a snapshot and
/// reconstructs itself from one. Compound structures persist their fields in
/// a fixed order; `restore` must read exactly what `persist` wrote.
pub trait Persist: Sized {
    /// Appends this value to the snapshot payload.
    fn persist(&self, w: &mut SnapshotWriter);

    /// Reads one value of this type from the snapshot payload.
    ///
    /// # Errors
    ///
    /// Propagates truncation and invariant violations as [`SnapshotError`].
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

impl Persist for u32 {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u32(*self);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u32()
    }
}

impl Persist for u64 {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u64()
    }
}

impl Persist for usize {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_usize(*self);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_usize()
    }
}

impl Persist for bool {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_bool(*self);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_bool()
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for item in self {
            item.persist(w);
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        // Guard allocation against corrupt length prefixes: every element
        // occupies at least one payload byte.
        let mut items = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            items.push(T::restore(r)?);
        }
        Ok(items)
    }
}

impl Persist for String {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_bytes(self.as_bytes());
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        String::from_utf8(r.take_bytes()?.to_vec()).map_err(|_| SnapshotError::Corrupt {
            reason: "string payload is not UTF-8".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIND: [u8; 4] = *b"TEST";

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapshotWriter::new(KIND);
        42u32.persist(&mut w);
        u64::MAX.persist(&mut w);
        7usize.persist(&mut w);
        true.persist(&mut w);
        false.persist(&mut w);
        vec![1u32, 2, 3].persist(&mut w);
        "héllo".to_string().persist(&mut w);
        let bytes = w.finish();

        let mut r = SnapshotReader::open(&bytes, KIND).unwrap();
        assert_eq!(u32::restore(&mut r).unwrap(), 42);
        assert_eq!(u64::restore(&mut r).unwrap(), u64::MAX);
        assert_eq!(usize::restore(&mut r).unwrap(), 7);
        assert!(bool::restore(&mut r).unwrap());
        assert!(!bool::restore(&mut r).unwrap());
        assert_eq!(Vec::<u32>::restore(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(String::restore(&mut r).unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn header_violations_are_reported() {
        let bytes = {
            let mut w = SnapshotWriter::new(KIND);
            1u32.persist(&mut w);
            w.finish()
        };

        assert_eq!(
            SnapshotReader::open(&bytes[..4], KIND).unwrap_err(),
            SnapshotError::UnexpectedEof
        );

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SnapshotReader::open(&bad_magic, KIND).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        // The version bytes are covered by the checksum, but the version is
        // rejected before the checksum is consulted.
        assert!(matches!(
            SnapshotReader::open(&bad_version, KIND).unwrap_err(),
            SnapshotError::BadVersion { .. }
        ));

        assert!(matches!(
            SnapshotReader::open(&bytes, *b"OTHR").unwrap_err(),
            SnapshotError::BadKind { .. }
        ));

        let mut flipped = bytes.clone();
        let last_payload = flipped.len() - 9;
        flipped[last_payload] ^= 0x40;
        assert_eq!(
            SnapshotReader::open(&flipped, KIND).unwrap_err(),
            SnapshotError::BadChecksum
        );
    }

    #[test]
    fn payload_violations_are_reported() {
        let bytes = {
            let mut w = SnapshotWriter::new(KIND);
            5u32.persist(&mut w);
            w.finish()
        };
        // Reading more than was written: EOF.
        let mut r = SnapshotReader::open(&bytes, KIND).unwrap();
        assert_eq!(u32::restore(&mut r).unwrap(), 5);
        assert_eq!(
            u32::restore(&mut r).unwrap_err(),
            SnapshotError::UnexpectedEof
        );
        // Reading less: trailing bytes.
        let r = SnapshotReader::open(&bytes, KIND).unwrap();
        assert_eq!(
            r.finish().unwrap_err(),
            SnapshotError::TrailingBytes { count: 4 }
        );
        // Invalid boolean byte.
        let bytes = {
            let mut w = SnapshotWriter::new(KIND);
            w.put_u8(3);
            w.finish()
        };
        let mut r = SnapshotReader::open(&bytes, KIND).unwrap();
        assert!(matches!(
            bool::restore(&mut r).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn errors_render() {
        for err in [
            SnapshotError::BadMagic,
            SnapshotError::BadVersion { found: 9 },
            SnapshotError::BadKind {
                found: *b"AAAA",
                expected: KIND,
            },
            SnapshotError::BadChecksum,
            SnapshotError::UnexpectedEof,
            SnapshotError::TrailingBytes { count: 3 },
            SnapshotError::BadSectionTag {
                found: *b"AAAA",
                expected: *b"BBBB",
            },
            SnapshotError::BadSectionChecksum { tag: *b"MEMO" },
            SnapshotError::Corrupt {
                reason: "x".to_string(),
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn sections_roundtrip() {
        let mut w = SnapshotWriter::new(KIND);
        w.begin_section(*b"ONE ");
        7u32.persist(&mut w);
        w.end_section();
        w.begin_section(*b"TWO ");
        vec![1u64, 2].persist(&mut w);
        w.end_section();
        // An empty section is legal.
        w.begin_section(*b"NONE");
        w.end_section();
        let bytes = w.finish();

        let mut r = SnapshotReader::open(&bytes, KIND).unwrap();
        r.enter_section(*b"ONE ").unwrap();
        assert_eq!(u32::restore(&mut r).unwrap(), 7);
        r.exit_section().unwrap();
        r.enter_section(*b"TWO ").unwrap();
        assert_eq!(Vec::<u64>::restore(&mut r).unwrap(), vec![1, 2]);
        r.exit_section().unwrap();
        r.enter_section(*b"NONE").unwrap();
        r.exit_section().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn section_violations_are_reported() {
        let bytes = {
            let mut w = SnapshotWriter::new(KIND);
            w.begin_section(*b"ONE ");
            7u32.persist(&mut w);
            w.end_section();
            w.finish()
        };

        // Wrong expected tag.
        let mut r = SnapshotReader::open(&bytes, KIND).unwrap();
        assert_eq!(
            r.enter_section(*b"TWO ").unwrap_err(),
            SnapshotError::BadSectionTag {
                found: *b"ONE ",
                expected: *b"TWO ",
            }
        );

        // Reads cannot cross the section's end.
        let mut r = SnapshotReader::open(&bytes, KIND).unwrap();
        r.enter_section(*b"ONE ").unwrap();
        assert_eq!(u32::restore(&mut r).unwrap(), 7);
        assert_eq!(
            u32::restore(&mut r).unwrap_err(),
            SnapshotError::UnexpectedEof
        );

        // Leaving body bytes undecoded is rejected at exit.
        let mut r = SnapshotReader::open(&bytes, KIND).unwrap();
        r.enter_section(*b"ONE ").unwrap();
        assert!(matches!(
            r.exit_section().unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));

        // A damaged body is pinned on its section: flip a body bit and
        // re-seal the outer checksum so only the section CRC can object.
        let mut damaged = bytes.clone();
        let body_byte = damaged.len() - 8 - 2;
        damaged[body_byte] ^= 0x10;
        let crc_at = damaged.len() - 8;
        let reseal = fnv1a64(&damaged[..crc_at]);
        damaged[crc_at..].copy_from_slice(&reseal.to_le_bytes());
        let mut r = SnapshotReader::open(&damaged, KIND).unwrap();
        assert_eq!(
            r.enter_section(*b"ONE ").unwrap_err(),
            SnapshotError::BadSectionChecksum { tag: *b"ONE " }
        );

        // A truncated section header or body never panics.
        for cut in 0..bytes.len() {
            let mut truncated = bytes[..cut].to_vec();
            if truncated.len() >= 10 {
                // Re-seal so the cut reaches the section logic when long
                // enough to pass the outer checksum gate.
                let crc = fnv1a64(&truncated);
                truncated.extend_from_slice(&crc.to_le_bytes());
            }
            if let Ok(mut r) = SnapshotReader::open(&truncated, KIND) {
                let _ = r.enter_section(*b"ONE ");
            }
        }
    }
}
