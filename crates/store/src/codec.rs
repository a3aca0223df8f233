//! Low-level binary encoding primitives: little-endian integers and floats,
//! length-prefixed UTF-8 strings, with defensive decoding (corrupt input
//! yields `io::Error`, never a panic or an absurd allocation).

use std::io::{self, Read, Write};

/// Hard cap on any length field, to keep corrupt input from triggering
/// multi-gigabyte allocations.
pub const MAX_LEN: u32 = 1 << 28;

/// Write a `u32` (little-endian).
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write a `u64` (little-endian).
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write an `f64` (little-endian IEEE-754 bits).
pub fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write a length-prefixed UTF-8 string.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let len = u32::try_from(s.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "string too long"))?;
    write_u32(w, len)?;
    w.write_all(s.as_bytes())
}

/// Read a `u32`.
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Read a `u64`.
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Read an `f64`, rejecting NaN (no field in the store is legitimately NaN,
/// and letting one in would poison score comparisons downstream).
pub fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    decode_f64(buf)
}

/// Read a length-prefixed UTF-8 string.
pub fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_len(r)?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| corrupt("invalid UTF-8 in string field"))
}

/// Read a length field with the [`MAX_LEN`] sanity cap.
pub fn read_len<R: Read>(r: &mut R) -> io::Result<usize> {
    let len = read_u32(r)?;
    if len > MAX_LEN {
        return Err(corrupt("length field exceeds sanity cap"));
    }
    Ok(len as usize)
}

/// Bytes a column writer encodes, or a column reader decodes, per
/// `write_all` / `read_exact`.
const COLUMN_CHUNK: usize = 64 * 1024;

/// Write a column of fixed-width values (each already little-endian
/// encoded): the bytes are gathered in `buf` (cleared first, reused across
/// columns) and handed on in [`COLUMN_CHUNK`]-sized writes, not one write
/// per value. The bytes written are exactly those of the values in order.
pub fn write_column<W: Write, const N: usize>(
    w: &mut W,
    buf: &mut Vec<u8>,
    values: impl IntoIterator<Item = [u8; N]>,
) -> io::Result<()> {
    buf.clear();
    for v in values {
        buf.extend_from_slice(&v);
        if buf.len() >= COLUMN_CHUNK {
            w.write_all(buf)?;
            buf.clear();
        }
    }
    w.write_all(buf)
}

/// Read a column of `len` fixed-width values, decoding each with `decode`,
/// in bounded [`COLUMN_CHUNK`]-sized `read_exact`s: the column grows only
/// as bytes arrive, so a corrupt length cannot trigger an oversized
/// allocation. A column that took several chunks is shrunk to its length
/// once read: a served catalog keeps no growth slack.
pub fn read_column<R: Read, T, const N: usize>(
    r: &mut R,
    len: usize,
    mut decode: impl FnMut([u8; N]) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let per_chunk = COLUMN_CHUNK / N;
    let mut buf = vec![0u8; len.min(per_chunk) * N];
    let mut out = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(per_chunk);
        let bytes = &mut buf[..take * N];
        r.read_exact(bytes)?;
        out.reserve(take);
        for value in bytes.chunks_exact(N) {
            out.push(decode(
                value.try_into().expect("chunks_exact yields N bytes"),
            )?);
        }
        remaining -= take;
    }
    out.shrink_to_fit();
    Ok(out)
}

/// Decode a little-endian `f64`, rejecting NaN (see [`read_f64`]).
pub fn decode_f64(bytes: [u8; 8]) -> io::Result<f64> {
    let v = f64::from_le_bytes(bytes);
    if v.is_nan() {
        return Err(corrupt("NaN float field"));
    }
    Ok(v)
}

/// An `InvalidData` error for corrupt input.
pub fn corrupt(message: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt store: {message}"),
    )
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A streaming FNV-1a 64 digest folded over **8-byte little-endian
/// words** rather than single bytes (8× fewer multiply steps — the
/// checksum must keep up with multi-megabyte snapshot payloads). The
/// trailing partial word is zero-padded and the total byte length is
/// folded in last, so `"a"` and `"a\0"` digest differently.
///
/// Detection guarantee: each fold `h' = (h ⊕ word) · prime` is a
/// bijection in `word` for fixed `h` (the prime is odd, hence invertible
/// mod 2⁶⁴), and a bijection in `h` for fixed `word`. A single corrupted
/// byte changes exactly one word, which changes that step's output, and
/// every later step maps distinct states to distinct states — so any
/// single-byte corruption provably changes the digest.
#[derive(Debug, Clone)]
struct Fnv64 {
    hash: u64,
    pending: [u8; 8],
    pending_len: usize,
    total: u64,
}

impl Fnv64 {
    fn new() -> Self {
        Fnv64 {
            hash: FNV_OFFSET,
            pending: [0u8; 8],
            pending_len: 0,
            total: 0,
        }
    }

    fn fold(hash: u64, word: u64) -> u64 {
        (hash ^ word).wrapping_mul(FNV_PRIME)
    }

    fn update(&mut self, mut buf: &[u8]) {
        self.total += buf.len() as u64;
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(buf.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&buf[..take]);
            self.pending_len += take;
            buf = &buf[take..];
            if self.pending_len < 8 {
                return;
            }
            self.hash = Self::fold(self.hash, u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut words = buf.chunks_exact(8);
        for word in &mut words {
            self.hash = Self::fold(
                self.hash,
                u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
            );
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    fn digest(&self) -> u64 {
        let mut hash = self.hash;
        if self.pending_len > 0 {
            let mut word = [0u8; 8];
            word[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            hash = Self::fold(hash, u64::from_le_bytes(word));
        }
        Self::fold(hash, self.total)
    }
}

/// A [`Write`] adapter that folds everything written into a running
/// [`Fnv64`] checksum. Used by the v2 snapshot: the writer streams the
/// payload through this and appends [`ChecksumWriter::digest`] as a
/// trailing `u64`, so any later corruption is detected at load time.
pub struct ChecksumWriter<W> {
    inner: W,
    fnv: Fnv64,
}

impl<W: Write> ChecksumWriter<W> {
    /// Wrap `inner`, starting from the FNV offset basis.
    pub fn new(inner: W) -> Self {
        ChecksumWriter {
            inner,
            fnv: Fnv64::new(),
        }
    }

    /// The checksum over everything written so far.
    pub fn digest(&self) -> u64 {
        self.fnv.digest()
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.fnv.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The [`Read`] counterpart of [`ChecksumWriter`]: folds every byte read
/// into the running digest so the caller can compare against the stored
/// trailing checksum after decoding the payload.
pub struct ChecksumReader<R> {
    inner: R,
    fnv: Fnv64,
}

impl<R: Read> ChecksumReader<R> {
    /// Wrap `inner`, starting from the FNV offset basis.
    pub fn new(inner: R) -> Self {
        ChecksumReader {
            inner,
            fnv: Fnv64::new(),
        }
    }

    /// The checksum over everything read so far.
    pub fn digest(&self) -> u64 {
        self.fnv.digest()
    }

    /// Unwrap the inner reader (to read past the checksummed region).
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for ChecksumReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.fnv.update(&buf[..n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 7).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(&mut r).unwrap(), u64::MAX - 7);
    }

    #[test]
    fn floats_round_trip_and_reject_nan() {
        let mut buf = Vec::new();
        write_f64(&mut buf, -1234.5678).unwrap();
        write_f64(&mut buf, f64::NAN).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_f64(&mut r).unwrap(), -1234.5678);
        assert!(read_f64(&mut r).is_err());
    }

    #[test]
    fn strings_round_trip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "naïve café — δβ").unwrap();
        write_str(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_str(&mut r).unwrap(), "naïve café — δβ");
        assert_eq!(read_str(&mut r).unwrap(), "");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_u32(&mut buf, u32::MAX).unwrap();
        assert!(read_str(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut buf = Vec::new();
        write_str(&mut buf, "hello").unwrap();
        let mut r = &buf[..buf.len() - 2];
        assert!(read_str(&mut r).is_err());
    }

    #[test]
    fn checksum_writer_and_reader_agree() {
        let mut w = ChecksumWriter::new(Vec::new());
        write_u32(&mut w, 7).unwrap();
        write_str(&mut w, "payload").unwrap();
        write_f64(&mut w, 2.5).unwrap();
        let digest = w.digest();
        let bytes = w.into_inner();
        let mut r = ChecksumReader::new(bytes.as_slice());
        assert_eq!(read_u32(&mut r).unwrap(), 7);
        assert_eq!(read_str(&mut r).unwrap(), "payload");
        assert_eq!(read_f64(&mut r).unwrap(), 2.5);
        assert_eq!(r.digest(), digest);
    }

    #[test]
    fn every_single_byte_flip_changes_the_digest() {
        let mut w = ChecksumWriter::new(Vec::new());
        write_str(&mut w, "checksummed payload").unwrap();
        write_u64(&mut w, 0xABCD).unwrap();
        let digest = w.digest();
        let bytes = w.into_inner();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[i] ^= flip;
                let mut r = ChecksumReader::new(mutated.as_slice());
                std::io::copy(&mut r, &mut std::io::sink()).unwrap();
                assert_ne!(r.digest(), digest, "flip {flip:#x} at byte {i}");
            }
        }
    }

    #[test]
    fn digest_is_independent_of_chunking() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let mut whole = Fnv64::new();
        whole.update(&data);
        for step in [1usize, 3, 7, 8, 13, 64] {
            let mut pieces = Fnv64::new();
            for chunk in data.chunks(step) {
                pieces.update(chunk);
            }
            assert_eq!(pieces.digest(), whole.digest(), "chunk size {step}");
        }
    }

    #[test]
    fn column_writes_and_reads_match_per_value_ones_byte_for_byte() {
        // Odd lengths and a leading string put the columns off the digest's
        // 8-byte word grid; the long column spans several chunks.
        let terms: Vec<u32> = (0..(3 * COLUMN_CHUNK as u32 / 4 + 5)).collect();
        let probabilities: Vec<f64> = (0..7).map(|i| f64::from(i) / 3.0).collect();
        let mut per_value = ChecksumWriter::new(Vec::new());
        write_str(&mut per_value, "abc").unwrap();
        terms
            .iter()
            .for_each(|&t| write_u32(&mut per_value, t).unwrap());
        probabilities
            .iter()
            .for_each(|&p| write_f64(&mut per_value, p).unwrap());
        let mut per_column = ChecksumWriter::new(Vec::new());
        let mut buf = Vec::new();
        write_str(&mut per_column, "abc").unwrap();
        write_column(
            &mut per_column,
            &mut buf,
            terms.iter().map(|t| t.to_le_bytes()),
        )
        .unwrap();
        let floats = probabilities.iter().map(|p| p.to_le_bytes());
        write_column(&mut per_column, &mut buf, floats).unwrap();
        assert_eq!(per_column.digest(), per_value.digest());
        let bytes = per_value.into_inner();
        assert_eq!(per_column.into_inner(), bytes);

        let mut r = ChecksumReader::new(bytes.as_slice());
        assert_eq!(read_str(&mut r).unwrap(), "abc");
        let read_terms = read_column(&mut r, terms.len(), |b| Ok(u32::from_le_bytes(b))).unwrap();
        assert_eq!(read_terms, terms);
        let read_probabilities = read_column(&mut r, probabilities.len(), decode_f64).unwrap();
        assert_eq!(read_probabilities, probabilities);
        let mut whole = ChecksumReader::new(bytes.as_slice());
        std::io::copy(&mut whole, &mut std::io::sink()).unwrap();
        assert_eq!(r.digest(), whole.digest());
    }

    #[test]
    fn column_reads_reject_nan_and_short_input_without_trusting_the_length() {
        let mut bytes = Vec::new();
        write_f64(&mut bytes, 1.5).unwrap();
        write_f64(&mut bytes, f64::NAN).unwrap();
        assert!(read_column(&mut bytes.as_slice(), 2, decode_f64).is_err());
        // A length far beyond the input fails on the missing bytes, having
        // buffered no more than one chunk.
        let short = read_column(&mut &bytes[..8], MAX_LEN as usize, decode_f64);
        assert_eq!(short.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn digest_distinguishes_zero_padding_from_data() {
        let mut a = Fnv64::new();
        a.update(b"a");
        let mut b = Fnv64::new();
        b.update(b"a\0");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 2).unwrap();
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(read_str(&mut buf.as_slice()).is_err());
    }
}
