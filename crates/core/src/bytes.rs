//! Panic-free little-endian byte cursors shared by every crate that
//! serializes an artifact into the `USNP` snapshot container.
//!
//! The writer is infallible; the reader is *strict*: every read is
//! length-checked up front and failure surfaces as
//! [`UltraError::Corrupt`] — never a panic and never a silent partial
//! read. Element counts must be validated against [`ByteReader::remaining`]
//! before any allocation sized by them (see [`ByteReader::check_count`]),
//! so hostile length fields cannot trigger huge allocations.

use crate::error::{Result, UltraError};

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern (LE).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (LE).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
    /// bits first, the high bit set on every byte but the last. This is the
    /// shortest encoding of `v`, the only one [`ByteReader::varint`]
    /// accepts.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Strict, panic-free little-endian decoder over a borrowed buffer.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string prefixed to every error (e.g. the section name).
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf`; `what` names the artifact for error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn fail(&self, msg: &str) -> UltraError {
        UltraError::Corrupt(format!("{}: {msg} (offset {})", self.what, self.pos))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.fail(&format!("need {n} bytes, {} remain", self.remaining())));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an unsigned LEB128 varint written by [`ByteWriter::varint`].
    /// Only the shortest encoding of a `u64` is accepted: a last byte of
    /// zero after the first (an over-long encoding) or bits past the 64th
    /// (an overflow) are corruption, so every accepted varint re-encodes to
    /// the bytes it was read from. A failed read consumes nothing.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for (i, &b) in self.buf[self.pos..].iter().enumerate().take(10) {
            let shift = 7 * i as u32;
            if shift == 63 && b > 1 {
                return Err(self.fail("varint overflows 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(self.fail("over-long varint"));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(self.fail("truncated varint"))
    }

    /// Validates a declared element count against the bytes actually left:
    /// `count` elements of at least `min_size` bytes each must fit in the
    /// remaining buffer. Returns the count as `usize` so callers can
    /// `Vec::with_capacity` it safely afterwards.
    pub fn check_count(&self, count: u64, min_size: usize, what: &str) -> Result<usize> {
        let count_us = usize::try_from(count)
            .map_err(|_| self.fail(&format!("{what} count {count} overflows usize")))?;
        let need = count_us.checked_mul(min_size.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(count_us),
            _ => Err(self.fail(&format!(
                "{what} count {count} exceeds remaining {} bytes",
                self.remaining()
            ))),
        }
    }

    /// Asserts the buffer is fully consumed — trailing bytes are corruption.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.fail(&format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f64(std::f64::consts::PI);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn short_reads_are_typed_errors() {
        let mut r = ByteReader::new(&[1, 2, 3], "short");
        assert!(matches!(r.u32(), Err(UltraError::Corrupt(_))));
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        let r = ByteReader::new(&[0u8; 16], "count");
        assert!(r.check_count(u64::MAX, 4, "entries").is_err());
        assert!(r.check_count(5, 4, "entries").is_err());
        assert_eq!(r.check_count(4, 4, "entries").unwrap(), 4);
        // Zero-size elements still bound by the remaining length.
        assert!(r.check_count(17, 0, "entries").is_err());
    }

    #[test]
    fn varints_round_trip_in_their_shortest_form() {
        let values = [
            0,
            1,
            127,
            128,
            300,
            1 << 35,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = ByteWriter::new();
        for &v in &values {
            let before = w.len();
            w.varint(v);
            // Seven bits per byte, and never a byte more.
            let bits = 64 - v.leading_zeros() as usize;
            assert_eq!(w.len() - before, bits.max(1).div_ceil(7), "{v}");
        }
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes, "varint");
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn non_canonical_varints_are_typed_errors() {
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        let mut past_64_bits = vec![0xFF; 9];
        past_64_bits.push(0x02);
        let mut eleven_bytes = vec![0x80; 10];
        eleven_bytes.push(0x01);
        assert_eq!(ByteReader::new(&max, "max").varint().unwrap(), u64::MAX);
        for bad in [
            &[0x80, 0x00][..],   // 0, over-long
            &[0xFF, 0x80, 0x00], // 127, over-long
            &past_64_bits,
            &eleven_bytes,
            &[0x80], // truncated
            &[],
        ] {
            let mut r = ByteReader::new(bad, "varint");
            assert!(matches!(r.varint(), Err(UltraError::Corrupt(_))), "{bad:?}");
            // A failed read consumes nothing.
            assert_eq!(r.remaining(), bad.len());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = ByteReader::new(&[0, 0, 0, 0, 9], "tail");
        let _ = r.u32().unwrap();
        assert!(matches!(r.expect_end(), Err(UltraError::Corrupt(_))));
    }
}
