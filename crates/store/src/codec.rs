//! Primitive binary encoding: little-endian integers, length-prefixed
//! strings, CRC-32, and the [`Measure`] wire format.
//!
//! The snapshot and WAL formats are hand-rolled rather than serde-based so
//! that floating-point scores round-trip **bit-exactly** (`f64::to_bits`)
//! and so every read is bounds-checked into a typed
//! [`StoreError`] — not a panic. Counts are written
//! as `u64` and validated against the number of bytes actually remaining
//! before any allocation, so a corrupted length cannot trigger an
//! out-of-memory abort.

use dn_graph::approx_bc::ApproxBcConfig;
use dn_graph::lcc::LccMethod;
use domainnet::Measure;

use crate::error::{Result, StoreError};

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the polynomial used by gzip/zip/png)
// ---------------------------------------------------------------------------

/// The 8 slicing tables: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k][b]` extends it to bytes `k` positions deeper, letting the
/// hot loop fold 8 input bytes per iteration ("slicing-by-8" — snapshot
/// sections run to megabytes, and checksum throughput is on the cold-start
/// critical path).
static CRC32_TABLES: std::sync::OnceLock<Box<[[u32; 256]; 8]>> = std::sync::OnceLock::new();

fn crc32_tables() -> &'static [[u32; 256]; 8] {
    CRC32_TABLES.get_or_init(|| {
        let mut tables = Box::new([[0u32; 256]; 8]);
        for i in 0..256usize {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            tables[0][i] = crc;
        }
        for i in 0..256usize {
            let mut crc = tables[0][i];
            for k in 1..8 {
                crc = (crc >> 8) ^ tables[0][(crc & 0xFF) as usize];
                tables[k][i] = crc;
            }
        }
        tables
    })
}

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let tables = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An append-only little-endian byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append raw bytes without a length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over encoded bytes.
///
/// Every read error names the `context` the reader was constructed with
/// (usually the section being decoded), so corruption reports point at the
/// right part of the file.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, tagging errors with `context`.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, what: &str) -> StoreError {
        StoreError::Truncated {
            context: format!("{}: {what}", self.context),
        }
    }

    /// Fail unless exactly everything was consumed (trailing garbage is
    /// corruption, not padding).
    pub fn expect_exhausted(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StoreError::corrupt(format!(
                "{}: {} trailing bytes after the last field",
                self.context,
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated("raw bytes"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; anything but 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::corrupt(format!(
                "{}: invalid bool byte {other}",
                self.context
            ))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `u64` count that prefixes items of at least `min_item_bytes`
    /// each, rejecting counts the remaining bytes cannot possibly hold —
    /// the guard that keeps corrupted lengths from allocating gigabytes.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let count = self.get_u64()?;
        let count = usize::try_from(count).map_err(|_| {
            StoreError::corrupt(format!("{}: count {count} overflows", self.context))
        })?;
        match count.checked_mul(min_item_bytes.max(1)) {
            Some(need) if need <= self.remaining() => Ok(count),
            _ => Err(self.truncated("counted items")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the input.
    pub fn get_str_ref(&mut self) -> Result<&'a str> {
        let len = self.get_count(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| StoreError::corrupt(format!("{}: string is not UTF-8", self.context)))
    }

    /// Read a counted vector of `u32`s.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>> {
        let count = self.get_count(4)?;
        (0..count).map(|_| self.get_u32()).collect()
    }

    /// Read a counted vector of `u64`s.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>> {
        let count = self.get_count(8)?;
        (0..count).map(|_| self.get_u64()).collect()
    }
}

/// Write a counted vector of `u32`s.
pub fn put_u32_vec(w: &mut ByteWriter, items: &[u32]) {
    w.put_u64(items.len() as u64);
    for &v in items {
        w.put_u32(v);
    }
}

// ---------------------------------------------------------------------------
// Hex (binary payloads inside JSON envelopes)
// ---------------------------------------------------------------------------

/// Lowercase hex encoding of a byte slice. The replication endpoints ship
/// snapshot files (a binary format) inside JSON response bodies, and hex
/// is the simplest encoding that survives a UTF-8 transport.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xF)] as char);
    }
    out
}

/// Decode a string produced by [`to_hex`] (either letter case accepted).
///
/// # Errors
/// [`StoreError::Corrupt`] on an odd length or a non-hex character.
pub fn from_hex(text: &str) -> Result<Vec<u8>> {
    if text.len() % 2 != 0 {
        return Err(StoreError::corrupt(format!(
            "hex payload has odd length {}",
            text.len()
        )));
    }
    let nibble = |c: u8| -> Result<u8> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            other => Err(StoreError::corrupt(format!(
                "invalid hex character {:?}",
                other as char
            ))),
        }
    };
    let raw = text.as_bytes();
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Measure wire format
// ---------------------------------------------------------------------------

const TAG_LCC: u8 = 0;
const TAG_EXACT_BC: u8 = 1;
const TAG_APPROX_BC: u8 = 2;

/// Encode a [`Measure`] (stable across runs; part of the snapshot format).
pub fn put_measure(w: &mut ByteWriter, measure: Measure) {
    match measure {
        Measure::Lcc(method) => {
            w.put_u8(TAG_LCC);
            w.put_u8(match method {
                LccMethod::ValueNeighborJaccard => 0,
                LccMethod::AttributeJaccard => 1,
            });
        }
        Measure::ExactBc => {
            w.put_u8(TAG_EXACT_BC);
        }
        Measure::ApproxBc(config) => {
            w.put_u8(TAG_APPROX_BC);
            w.put_u64(config.samples as u64);
            w.put_u64(config.seed);
        }
    }
}

/// Decode a [`Measure`] written by [`put_measure`].
pub fn get_measure(r: &mut ByteReader<'_>) -> Result<Measure> {
    let invalid = |what: String| StoreError::corrupt(format!("measure: {what}"));
    match r.get_u8()? {
        TAG_LCC => {
            let method = match r.get_u8()? {
                0 => LccMethod::ValueNeighborJaccard,
                1 => LccMethod::AttributeJaccard,
                other => return Err(invalid(format!("unknown LCC method {other}"))),
            };
            Ok(Measure::Lcc(method))
        }
        TAG_EXACT_BC => Ok(Measure::ExactBc),
        TAG_APPROX_BC => {
            let samples = r.get_u64()? as usize;
            let seed = r.get_u64()?;
            Ok(Measure::ApproxBc(ApproxBcConfig { samples, seed }))
        }
        other => Err(invalid(format!("unknown measure tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_f64(1.0 / 3.0);
        w.put_str("héllo, wörld");
        put_u32_vec(&mut w, &[1, 2, 3]);
        w.put_u64(1); // a counted u64 vector, as the cardinalities are written
        w.put_u64(u64::MAX);
        let bytes = w.into_inner();

        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), 1.0 / 3.0);
        assert_eq!(r.get_str().unwrap(), "héllo, wörld");
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64_vec().unwrap(), vec![u64::MAX]);
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes[..5], "short");
        let err = r.get_u64().unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
        assert!(err.to_string().contains("short"));
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes, "count");
        assert!(matches!(
            r.get_u32_vec().unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let bytes = [3u8];
        let mut r = ByteReader::new(&bytes, "bool");
        assert!(matches!(
            r.get_bool().unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn measures_round_trip() {
        let measures = [
            Measure::lcc(),
            Measure::Lcc(LccMethod::AttributeJaccard),
            Measure::exact_bc(),
            Measure::ApproxBc(ApproxBcConfig {
                samples: 512,
                seed: 0xFEED,
            }),
        ];
        for measure in measures {
            let mut w = ByteWriter::new();
            put_measure(&mut w, measure);
            let bytes = w.into_inner();
            let mut r = ByteReader::new(&bytes, "measure");
            assert_eq!(get_measure(&mut r).unwrap(), measure);
            r.expect_exhausted().unwrap();
        }
    }

    #[test]
    fn unknown_measure_tag_is_corrupt() {
        let bytes = [9u8];
        let mut r = ByteReader::new(&bytes, "measure");
        assert!(matches!(
            get_measure(&mut r).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let all: Vec<u8> = (0..=255u8).collect();
        let text = to_hex(&all);
        assert_eq!(text.len(), 512);
        assert_eq!(from_hex(&text).unwrap(), all);
        assert_eq!(from_hex(&text.to_uppercase()).unwrap(), all);
        assert_eq!(to_hex(&[]), "");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(matches!(
            from_hex("abc").unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        assert!(matches!(
            from_hex("zz").unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }
}
