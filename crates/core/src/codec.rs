//! The byte conventions shared by the `.sbrl` artifact format
//! ([`persist`](crate::persist)) and the serving wire protocol
//! ([`wire`](crate::wire)): little-endian integers, `f64` bit patterns,
//! length-prefixed strings, the CRC-32 checksum, and the one bounds-checked
//! [`Reader`] both formats decode untrusted bytes with.
//!
//! The two formats differ only in the width of a length prefix — `u64` on
//! disk, `u32` on the wire — so that width is a [`Prefix`] parameter, not a
//! second reader. The reader is panic- and index-free (enforced by the
//! `untrusted_reader` lint rule): every read validates length *before*
//! touching data, so malformed bytes produce only a typed [`CodecError`],
//! which each format maps into its own error type.

/// CRC-32 (IEEE 802.3, reflected polynomial `0xedb88320`) — the PNG/zlib
/// checksum, hand-rolled slice-by-8 (eight table lookups per 8-byte word)
/// so the formats stay dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = 0xffff_ffff_u32;
    for word in words {
        let v = u64::from_le_bytes(*word) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, k| acc ^ crc_lookup(7 - k, v >> (8 * k)));
    }
    !tail.iter().fold(crc, |crc, &b| (crc >> 8) ^ crc_lookup(0, u64::from(crc as u8 ^ b)))
}

/// `CRC_TABLES[k][b]` is byte `b` followed by `k` zero bytes through the
/// bitwise CRC's shift rounds.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// `CRC_TABLES[k]` at the low byte of `v`.
fn crc_lookup(k: usize, v: u64) -> u32 {
    // `k < 8` and a byte below 256 always land inside the tables.
    CRC_TABLES.get(k).and_then(|t| t.get((v & 0xff) as usize)).copied().unwrap_or(0)
}

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rest_tables: &mut [[u32; 256]] = &mut tables;
    let mut rounds = 8;
    while let Some((table, more_tables)) = rest_tables.split_first_mut() {
        let mut rest: &mut [u32] = table;
        let mut byte = 0u32;
        while let Some((entry, tail)) = rest.split_first_mut() {
            let mut crc = byte;
            let mut round = 0;
            while round < rounds {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
                round += 1;
            }
            *entry = crc;
            rest = tail;
            byte += 1;
        }
        rest_tables = more_tables;
        rounds += 8;
    }
    tables
}

/// Width of a length prefix (element counts and string lengths).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Prefix {
    /// A `u32` prefix (wire frames).
    U32,
    /// A `u64` prefix (`.sbrl` artifacts).
    U64,
}

/// A decode failure, labelled with what the reader was reading. Each format
/// maps it into its own typed error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CodecError {
    /// The bytes ended before a declared structure was complete.
    Truncated {
        /// The reader's label.
        what: &'static str,
        /// Bytes the structure still needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The bytes are present but violate the layout.
    Malformed(String),
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A `usize` as a `u64` (the inverse of [`Reader::usize`]).
pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.reserve(xs.len().saturating_mul(8));
    for &x in xs {
        put_f64(out, x);
    }
}

/// A string as `[length prefix][UTF-8 bytes]`. A `U32` prefix rejects a
/// string longer than `u32::MAX` bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, prefix: Prefix, s: &str) -> Result<(), CodecError> {
    match prefix {
        Prefix::U32 => put_u32(
            out,
            u32::try_from(s.len()).map_err(|_| {
                CodecError::Malformed(format!("string of {} bytes does not fit a u32", s.len()))
            })?,
        ),
        Prefix::U64 => put_usize(out, s.len()),
    }
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over untrusted bytes: every read goes through
/// [`take`](Self::take), which validates length *before* touching the data,
/// so decoding cannot panic and cannot allocate from an unvalidated length.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; `what` labels its errors.
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, pos: 0, what }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn malformed(&self, what: String) -> CodecError {
        CodecError::Malformed(format!("{what} in {}", self.what))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end =
            self.pos.checked_add(n).ok_or_else(|| self.malformed("length overflow".into()))?;
        match self.buf.get(self.pos..end) {
            Some(slice) => {
                self.pos = end;
                Ok(slice)
            }
            None => Err(CodecError::Truncated {
                what: self.what,
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.array()?;
        Ok(b)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` scalar (an iteration number, a retry count) as `usize` — no
    /// remaining-bytes bound, because nothing is allocated from it.
    pub(crate) fn usize(&mut self) -> Result<usize, CodecError> {
        let raw = self.u64()?;
        usize::try_from(raw)
            .map_err(|_| self.malformed(format!("value {raw} exceeds this platform's usize")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64s(&mut self, count: usize) -> Result<Vec<f64>, CodecError> {
        let needed = count
            .checked_mul(8)
            .ok_or_else(|| self.malformed(format!("f64 count {count} overflows")))?;
        let bytes = self.take(needed)?;
        let mut out = Vec::with_capacity(count);
        for chunk in bytes.chunks_exact(8) {
            let mut a = [0u8; 8];
            a.copy_from_slice(chunk);
            out.push(f64::from_le_bytes(a));
        }
        Ok(out)
    }

    /// Reads an element count and validates that `count * elem_bytes` bytes
    /// are still present — the OOM guard that makes a corrupted count a
    /// [`CodecError::Truncated`], not a multi-gigabyte allocation.
    pub(crate) fn count(&mut self, prefix: Prefix, elem_bytes: usize) -> Result<usize, CodecError> {
        let count = match prefix {
            Prefix::U32 => self.u32()? as usize,
            Prefix::U64 => self.usize()?,
        };
        let needed = count
            .checked_mul(elem_bytes.max(1))
            .ok_or_else(|| self.malformed(format!("count {count} overflows")))?;
        if needed > self.remaining() {
            return Err(CodecError::Truncated {
                what: self.what,
                needed,
                available: self.remaining(),
            });
        }
        Ok(count)
    }

    pub(crate) fn string(&mut self, prefix: Prefix) -> Result<String, CodecError> {
        let len = self.count(prefix, 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.malformed("non-UTF-8 string".into()))
    }

    /// Asserts the bytes were consumed exactly — trailing bytes mean the
    /// writer and reader disagree about the layout.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(self.malformed(format!("{extra} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise CRC-32 the table replaced.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_matches_the_bitwise_definition() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let bytes: Vec<u8> =
            (0..1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in (0..=64).chain([255, 256, 257, 1023, 1024]) {
            assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]), "length {len}");
        }
        let every_byte: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&every_byte), crc32_bitwise(&every_byte));
    }

    #[test]
    fn strings_and_counts_round_trip_at_both_prefix_widths() {
        for (prefix, width) in [(Prefix::U32, 4), (Prefix::U64, 8)] {
            let mut buf = Vec::new();
            put_str(&mut buf, prefix, "héllo").expect("fits");
            put_u32(&mut buf, 2);
            put_f64s(&mut buf, &[1.5, -0.0]);
            assert_eq!(buf.len(), width + "héllo".len() + 4 + 16);
            let mut r = Reader::new(&buf, "unit");
            assert_eq!(r.string(prefix).expect("string"), "héllo");
            let n = r.count(Prefix::U32, 8).expect("count");
            let xs = r.f64s(n).expect("f64s");
            assert_eq!(
                xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                [1.5f64.to_bits(), (-0.0f64).to_bits()]
            );
            r.finish().expect("consumed exactly");
        }
    }

    #[test]
    fn short_reads_and_leftovers_are_typed() {
        let mut r = Reader::new(&[1, 2, 3], "unit");
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u32(), Err(CodecError::Truncated { what: "unit", needed: 4, available: 2 }));
        assert!(matches!(r.finish(), Err(CodecError::Malformed(m)) if m.contains("2 trailing")));

        let mut buf = Vec::new();
        put_str(&mut buf, Prefix::U32, "ab").expect("fits");
        let mut r = Reader::new(&buf, "unit");
        assert!(matches!(r.string(Prefix::U64), Err(CodecError::Truncated { .. })));
    }
}
