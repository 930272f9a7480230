//! The binary frame of every file the sweep writes and reads back: timing
//! digests, sweep reports, and the digest inside each digest-cache entry.
//!
//! ```text
//! magic (8 bytes) | version u32 | body_checksum u64 (FNV-1a) | body
//! ```
//!
//! All integers are little-endian. The checksum covers the whole body, so
//! any corrupted byte after the prefix is detected. It detects corruption
//! but does not authenticate: each codec still re-validates the structure
//! of its body. [`seal`] writes a frame; [`open`] checks magic, version and
//! checksum and returns a [`Reader`] over the body. Every read is
//! bounds-checked, so a hostile file yields a [`FormatError`], never a
//! panic, and [`Reader::expect_tables`] rejects announced table sizes the
//! input cannot hold before the caller allocates anything for them.

/// Length of the frame prefix: magic + version + body checksum.
pub const PREFIX_BYTES: usize = 8 + 4 + 8;

const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a over a byte slice (the frame's body checksum).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a fold over whole 64-bit words, one multiply per word (the
/// fingerprint of a fault or interrupt spec over its field bits).
#[must_use]
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for &word in words {
        hash ^= word;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Frames `body` under `magic` and `version`, with the body's checksum.
#[must_use]
pub fn seal(magic: &[u8; 8], version: u32, body: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(PREFIX_BYTES + body.len());
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&fnv1a(body).to_le_bytes());
    bytes.extend_from_slice(body);
    bytes
}

/// Checks a frame's magic, version and body checksum, in that order, and
/// returns a reader positioned at the start of the body.
///
/// # Errors
///
/// [`FormatError::Truncated`] when the input is shorter than the prefix,
/// [`FormatError::BadMagic`], [`FormatError::UnsupportedVersion`] or
/// [`FormatError::ChecksumMismatch`].
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<Reader<'a>, FormatError> {
    let mut r = Reader::new(bytes);
    if r.bytes_exact(magic.len())? != magic {
        return Err(FormatError::BadMagic);
    }
    let found = r.u32()?;
    if found != version {
        return Err(FormatError::UnsupportedVersion(found));
    }
    let checksum = r.u64()?;
    if fnv1a(r.remaining()) != checksum {
        return Err(FormatError::ChecksumMismatch);
    }
    Ok(r)
}

/// Bounds-checked little-endian reader: every read past the end of the
/// input returns [`FormatError::Truncated`] instead of slicing out of
/// range.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The unread tail.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Reads the next `len` bytes.
    #[inline(always)]
    pub fn bytes_exact(&mut self, len: usize) -> Result<&'a [u8], FormatError> {
        let actual = self.bytes.len() - self.pos;
        if len > actual {
            return Err(FormatError::Truncated {
                expected: len,
                actual,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.bytes_exact(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline(always)]
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(
            self.bytes_exact(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(
            self.bytes_exact(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` stored as its raw bit pattern, so the float round
    /// trip is bit-exact.
    #[inline(always)]
    pub fn f64_bits(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Checks that the unread input holds exactly the `(count, entry_bytes)`
    /// tables a header announced, before the caller allocates anything for
    /// them.
    ///
    /// # Errors
    ///
    /// [`FormatError::Truncated`] when a count announces more entries than
    /// the input holds, and [`FormatError::Malformed`] when bytes are left
    /// over or the sizes overflow.
    pub fn expect_tables(&self, tables: &[(usize, usize)]) -> Result<(), FormatError> {
        let expected = tables
            .iter()
            .try_fold(0usize, |total, &(count, entry_bytes)| {
                count
                    .checked_mul(entry_bytes)
                    .and_then(|table| total.checked_add(table))
            })
            .ok_or(FormatError::Malformed("table sizes overflow"))?;
        let actual = self.remaining().len();
        if actual < expected {
            return Err(FormatError::Truncated { expected, actual });
        }
        if actual > expected {
            return Err(FormatError::Malformed("trailing bytes after tables"));
        }
        Ok(())
    }
}

/// Why a framed file was rejected. A file on disk is untrusted input: every
/// variant is a rejected file, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FormatError {
    /// The file does not start with the expected magic.
    BadMagic,
    /// The format version is newer (or older) than this reader supports.
    UnsupportedVersion(
        /// The version found in the prefix.
        u32,
    ),
    /// The file ends early: a read, or the tables a header announced, need
    /// more bytes than remain.
    Truncated {
        /// Bytes the failing read needed.
        expected: usize,
        /// Bytes actually available at that point.
        actual: usize,
    },
    /// The body does not hash to the prefix checksum (bit rot or a partial
    /// write).
    ChecksumMismatch,
    /// A structural invariant of the body is violated (a value out of
    /// range, a dangling reference, inconsistent totals, trailing bytes,
    /// ...).
    Malformed(
        /// Which invariant failed.
        &'static str,
    ),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "bad magic: not a file of this format"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::Truncated { expected, actual } => {
                write!(f, "truncated: needs {expected} bytes, {actual} available")
            }
            FormatError::ChecksumMismatch => write!(f, "body checksum mismatch"),
            FormatError::Malformed(what) => write!(f, "malformed: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announced_tables_must_fill_the_rest_exactly() {
        let r = Reader::new(&[0; 10]);
        assert_eq!(r.expect_tables(&[(2, 3), (1, 4)]), Ok(()));
        assert_eq!(
            r.expect_tables(&[(u32::MAX as usize, 109)]),
            Err(FormatError::Truncated {
                expected: u32::MAX as usize * 109,
                actual: 10
            })
        );
        assert_eq!(
            r.expect_tables(&[(1, 9)]),
            Err(FormatError::Malformed("trailing bytes after tables"))
        );
        assert_eq!(
            r.expect_tables(&[(usize::MAX, 2)]),
            Err(FormatError::Malformed("table sizes overflow"))
        );
    }
}
