//! The DEFLATE decompressor (RFC 1951).

use crate::bitio::{BitReader, UnexpectedEof};
use crate::huffman::{Decoder, HuffError};
use crate::tables::{
    fixed_dist_lengths, fixed_litlen_lengths, CLC_ORDER, DIST_TABLE, LENGTH_TABLE,
};

/// Errors the decompressor can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended before the final block completed.
    UnexpectedEof,
    /// Reserved block type 0b11.
    BadBlockType,
    /// Stored block LEN/NLEN mismatch.
    BadStoredLength,
    /// Invalid Huffman table in a dynamic header.
    BadHuffmanTable,
    /// A code read from the stream does not exist in the table.
    BadCode,
    /// A back-reference points before the start of output.
    BadDistance,
    /// A length/distance symbol outside the valid range.
    BadSymbol,
}

impl From<UnexpectedEof> for InflateError {
    fn from(_: UnexpectedEof) -> Self {
        InflateError::UnexpectedEof
    }
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            InflateError::UnexpectedEof => "unexpected end of input",
            InflateError::BadBlockType => "reserved block type",
            InflateError::BadStoredLength => "stored block length check failed",
            InflateError::BadHuffmanTable => "invalid huffman table",
            InflateError::BadCode => "invalid huffman code in stream",
            InflateError::BadDistance => "back-reference before start of output",
            InflateError::BadSymbol => "symbol out of range",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for InflateError {}

/// Decompress as much of a (possibly truncated) DEFLATE stream as
/// possible. Used for *streaming* consumers — e.g. a browser parsing
/// compressed HTML while it is still arriving — where a truncated tail is
/// expected, not an error. Errors other than truncation still surface.
/// A consumer that sees the stream grow should keep an [`Inflater`]
/// instead, which decodes each input bit once.
pub fn inflate_prefix(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut inflater = Inflater::new();
    inflater.feed(data)?;
    Ok(inflater.out)
}

/// Decompress a raw DEFLATE stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut inflater = Inflater::new();
    inflater.feed(data)?;
    if !inflater.is_done() {
        return Err(InflateError::UnexpectedEof);
    }
    Ok(inflater.out)
}

/// Where a resumable decode stands between two complete units.
#[derive(Debug, Default)]
enum Block {
    /// The next bits are a block header.
    #[default]
    Header,
    /// Inside a stored block whose LEN/NLEN have been read: `len` bytes
    /// follow at the (byte-aligned) resume point.
    Stored { len: usize },
    /// Inside a Huffman-coded block: its literal/length and distance
    /// decoders.
    Huffman(Box<(Decoder, Decoder)>),
    /// The final block has ended.
    Done,
}

/// A DEFLATE decoder that resumes where it stopped. Each
/// [`Inflater::feed`] takes a longer prefix of the same stream and
/// continues from the bit after the last complete unit — a block header
/// (with its Huffman tables or stored LEN/NLEN), a whole stored block,
/// or one literal, match or end-of-block symbol. An incomplete unit is
/// retried on the next feed, so the output after every feed equals
/// [`inflate_prefix`] of that prefix byte for byte; in particular a
/// stored block shows nothing until it is complete. Errors other than
/// truncation are sticky: once one is seen, every later feed returns it,
/// as re-inflating the longer prefix would.
#[derive(Debug, Default)]
pub struct Inflater {
    out: Vec<u8>,
    /// Input bits consumed by complete units.
    bit_pos: usize,
    block: Block,
    /// The current block has BFINAL set.
    last: bool,
    error: Option<InflateError>,
}

impl Inflater {
    /// A decoder at the start of a stream.
    pub fn new() -> Inflater {
        Inflater::default()
    }

    /// Decode what `data` adds beyond the previous feed and return all
    /// output so far. `data` must extend every earlier feed's input.
    pub fn feed(&mut self, data: &[u8]) -> Result<&[u8], InflateError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match self.resume(data) {
            Ok(()) | Err(InflateError::UnexpectedEof) => Ok(&self.out),
            Err(e) => {
                self.error = Some(e);
                Err(e)
            }
        }
    }

    /// The final block has been decoded completely.
    pub fn is_done(&self) -> bool {
        matches!(self.block, Block::Done)
    }

    /// Output decoded so far.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    fn resume(&mut self, data: &[u8]) -> Result<(), InflateError> {
        loop {
            let mut r = BitReader::at_bit(data, self.bit_pos);
            match &self.block {
                Block::Header => {
                    self.last = r.read_bit()? == 1;
                    self.block = match r.read_bits(2)? {
                        0b00 => {
                            r.align_byte();
                            let len = r.read_bits(16)? as u16;
                            let nlen = r.read_bits(16)? as u16;
                            if len != !nlen {
                                return Err(InflateError::BadStoredLength);
                            }
                            Block::Stored { len: len as usize }
                        }
                        0b01 => Block::Huffman(Box::new((
                            Decoder::new(&fixed_litlen_lengths())
                                .map_err(|_| InflateError::BadHuffmanTable)?,
                            Decoder::new(&fixed_dist_lengths())
                                .map_err(|_| InflateError::BadHuffmanTable)?,
                        ))),
                        0b10 => Block::Huffman(Box::new(dynamic_tables(&mut r)?)),
                        _ => return Err(InflateError::BadBlockType),
                    };
                    self.bit_pos = r.bit_pos();
                }
                &Block::Stored { len } => {
                    let start = self.bit_pos / 8;
                    let bytes = data
                        .get(start..start + len)
                        .ok_or(InflateError::UnexpectedEof)?;
                    self.out.extend_from_slice(bytes);
                    self.bit_pos = (start + len) * 8;
                    self.end_block();
                }
                Block::Huffman(tables) => {
                    let (lit, dist) = &**tables;
                    huffman_block(&mut r, &mut self.out, &mut self.bit_pos, lit, dist)?;
                    self.end_block();
                }
                Block::Done => return Ok(()),
            }
        }
    }

    fn end_block(&mut self) {
        self.block = if self.last {
            Block::Done
        } else {
            Block::Header
        };
    }
}

fn decode_symbol(r: &mut BitReader<'_>, dec: &Decoder) -> Result<u16, InflateError> {
    match dec.decode(|| r.read_bit())? {
        Ok(sym) => Ok(sym),
        Err(HuffError::BadCode) => Err(InflateError::BadCode),
        Err(_) => Err(InflateError::BadHuffmanTable),
    }
}

fn dynamic_tables(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder), InflateError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadHuffmanTable);
    }

    let mut clc_lengths = vec![0u32; 19];
    for i in 0..hclen {
        clc_lengths[CLC_ORDER[i]] = r.read_bits(3)?;
    }
    let clc = Decoder::new(&clc_lengths).map_err(|_| InflateError::BadHuffmanTable)?;

    let total = hlit + hdist;
    let mut lengths = Vec::with_capacity(total);
    while lengths.len() < total {
        let sym = decode_symbol(r, &clc)?;
        match sym {
            0..=15 => lengths.push(sym as u32),
            16 => {
                let &prev = lengths.last().ok_or(InflateError::BadHuffmanTable)?;
                let rep = r.read_bits(2)? + 3;
                for _ in 0..rep {
                    lengths.push(prev);
                }
            }
            17 => {
                let rep = r.read_bits(3)? + 3;
                lengths.resize(lengths.len() + rep as usize, 0);
            }
            18 => {
                let rep = r.read_bits(7)? + 11;
                lengths.resize(lengths.len() + rep as usize, 0);
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
    if lengths.len() != total {
        return Err(InflateError::BadHuffmanTable);
    }

    let lit = Decoder::new(&lengths[..hlit]).map_err(|_| InflateError::BadHuffmanTable)?;
    // An empty distance table is legal when the block has no matches; use a
    // single-symbol placeholder in that case.
    let dist_lengths = &lengths[hlit..];
    let dist = match Decoder::new(dist_lengths) {
        Ok(d) => d,
        Err(HuffError::Empty) => Decoder::new(&[1]).unwrap(),
        Err(_) => return Err(InflateError::BadHuffmanTable),
    };
    Ok((lit, dist))
}

/// Decode symbols up to the end of the block, committing `bit_pos`
/// after each complete one.
fn huffman_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    bit_pos: &mut usize,
    lit: &Decoder,
    dist: &Decoder,
) -> Result<(), InflateError> {
    loop {
        let sym = decode_symbol(r, lit)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => {
                *bit_pos = r.bit_pos();
                return Ok(());
            }
            257..=285 => {
                let (extra, base) = LENGTH_TABLE[(sym - 257) as usize];
                let len = base as usize + r.read_bits(extra)? as usize;

                let dsym = decode_symbol(r, dist)?;
                if dsym as usize >= DIST_TABLE.len() {
                    return Err(InflateError::BadSymbol);
                }
                let (dextra, dbase) = DIST_TABLE[dsym as usize];
                let d = dbase as usize + r.read_bits(dextra)? as usize;
                if d > out.len() {
                    return Err(InflateError::BadDistance);
                }
                let start = out.len() - d;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return Err(InflateError::BadSymbol),
        }
        *bit_pos = r.bit_pos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::deflate::{deflate, Level};

    /// The full-prefix decoder [`Inflater`] replaced, kept as the
    /// differential oracle: decode `data` from bit 0 and return the
    /// output up to the first error, the error (truncation included) and
    /// the bits the complete stream used.
    fn oracle(data: &[u8]) -> (Vec<u8>, Option<InflateError>, usize) {
        let mut r = BitReader::new(data);
        let mut out = Vec::new();
        let result = (|| -> Result<(), InflateError> {
            loop {
                let bfinal = r.read_bit()?;
                match r.read_bits(2)? {
                    0b00 => {
                        r.align_byte();
                        let len = r.read_bits(16)? as u16;
                        let nlen = r.read_bits(16)? as u16;
                        if len != !nlen {
                            return Err(InflateError::BadStoredLength);
                        }
                        out.extend_from_slice(&r.read_bytes(len as usize)?);
                    }
                    0b01 => {
                        let lit = Decoder::new(&fixed_litlen_lengths()).unwrap();
                        let dist = Decoder::new(&fixed_dist_lengths()).unwrap();
                        oracle_block(&mut r, &mut out, &lit, &dist)?;
                    }
                    0b10 => {
                        let (lit, dist) = dynamic_tables(&mut r)?;
                        oracle_block(&mut r, &mut out, &lit, &dist)?;
                    }
                    _ => return Err(InflateError::BadBlockType),
                }
                if bfinal == 1 {
                    return Ok(());
                }
            }
        })();
        let bits = r.bit_pos();
        (out, result.err(), bits)
    }

    fn oracle_block(
        r: &mut BitReader<'_>,
        out: &mut Vec<u8>,
        lit: &Decoder,
        dist: &Decoder,
    ) -> Result<(), InflateError> {
        loop {
            let sym = decode_symbol(r, lit)?;
            match sym {
                0..=255 => out.push(sym as u8),
                256 => return Ok(()),
                257..=285 => {
                    let (extra, base) = LENGTH_TABLE[(sym - 257) as usize];
                    let len = base as usize + r.read_bits(extra)? as usize;
                    let dsym = decode_symbol(r, dist)?;
                    if dsym as usize >= DIST_TABLE.len() {
                        return Err(InflateError::BadSymbol);
                    }
                    let (dextra, dbase) = DIST_TABLE[dsym as usize];
                    let d = dbase as usize + r.read_bits(dextra)? as usize;
                    if d > out.len() {
                        return Err(InflateError::BadDistance);
                    }
                    let start = out.len() - d;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
                _ => return Err(InflateError::BadSymbol),
            }
        }
    }

    /// What the oracle's full-prefix decode gives for `prefix`: the
    /// `inflate_prefix` contract.
    fn oracle_prefix(prefix: &[u8]) -> Result<Vec<u8>, InflateError> {
        match oracle(prefix) {
            (out, None | Some(InflateError::UnexpectedEof), _) => Ok(out),
            (_, Some(e), _) => Err(e),
        }
    }

    /// Feed one resumable decoder every byte prefix of `stream` in turn
    /// and check each result against the oracle on that prefix.
    fn assert_resumes_like_oracle(stream: &[u8], what: &str) {
        let mut inflater = Inflater::new();
        for cut in 0..=stream.len() {
            let prefix = &stream[..cut];
            let resumed = inflater.feed(prefix).map(<[u8]>::to_vec);
            assert_eq!(resumed, oracle_prefix(prefix), "{what}: prefix {cut}");
            assert_eq!(inflate_prefix(prefix), resumed, "{what}: prefix {cut}");
        }
    }

    /// Copy one single-block DEFLATE stream's bits (not its padding)
    /// into `w`, as the final block or not.
    fn append_block(w: &mut BitWriter, stream: &[u8], last: bool) {
        let (_, err, bits) = oracle(stream);
        assert_eq!(err, None);
        let mut r = BitReader::new(stream);
        r.read_bit().unwrap();
        w.write_bits(last as u32, 1);
        for _ in 1..bits {
            w.write_bits(r.read_bit().unwrap(), 1);
        }
    }

    fn append_stored(w: &mut BitWriter, bytes: &[u8], last: bool) {
        w.write_bits(last as u32, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        let len = bytes.len() as u32;
        w.write_bits(len, 16);
        w.write_bits(!len & 0xFFFF, 16);
        w.write_bytes(bytes);
    }

    fn sample_html() -> Vec<u8> {
        let mut html = Vec::new();
        for i in 0..60 {
            html.extend_from_slice(
                format!("<TR><TD ALIGN=LEFT><IMG SRC=\"img{i}.gif\">row {i} text</TD></TR>\n")
                    .as_bytes(),
            );
        }
        html
    }

    /// A stream of stored, fixed, dynamic and stored blocks in sequence.
    fn multi_block_stream() -> Vec<u8> {
        let mut w = BitWriter::new();
        append_block(&mut w, &deflate(b"abcabcabc hello", Level::Default), false);
        append_stored(&mut w, b"raw stored bytes", false);
        append_block(&mut w, &deflate(&sample_html(), Level::Default), false);
        append_stored(&mut w, b"", false);
        append_block(&mut w, &deflate(b"the end, the end", Level::Fast), true);
        w.finish()
    }

    #[test]
    fn resumable_matches_full_prefix_decode_at_every_prefix() {
        let html = sample_html();
        let mut noise = Vec::new();
        let mut x = 0x9E37_79B9u32;
        for _ in 0..700 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            noise.push(x as u8);
        }
        let fixed = deflate(b"short text, short text", Level::Default);
        assert_eq!(fixed[0] >> 1 & 0b11, 0b01, "expected a fixed block");
        let dynamic = deflate(&html, Level::Default);
        assert_eq!(dynamic[0] >> 1 & 0b11, 0b10, "expected a dynamic block");
        let stored = deflate(&noise, Level::Store);
        let multi = multi_block_stream();
        for (stream, what) in [
            (&stored, "stored"),
            (&fixed, "fixed"),
            (&dynamic, "dynamic"),
            (&multi, "multi-block"),
        ] {
            assert_resumes_like_oracle(stream, what);
        }
        let mut expect = b"abcabcabc helloraw stored bytes".to_vec();
        expect.extend_from_slice(&html);
        expect.extend_from_slice(b"the end, the end");
        assert_eq!(inflate(&multi).unwrap(), expect);
    }

    #[test]
    fn stored_block_shows_nothing_until_complete() {
        let stream = deflate(b"0123456789", Level::Store);
        let mut inflater = Inflater::new();
        for cut in 0..stream.len() {
            assert_eq!(inflater.feed(&stream[..cut]).unwrap(), b"");
        }
        assert_eq!(inflater.feed(&stream).unwrap(), b"0123456789");
        assert!(inflater.is_done());
    }

    #[test]
    fn corrupt_streams_fail_like_the_oracle_and_stay_failed() {
        let clean = multi_block_stream();
        let mut x = 0x2545_F491u32;
        for case in 0..32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let mut stream = clean.clone();
            let at = x as usize % stream.len();
            stream[at] ^= 1 << (case % 8);
            assert_resumes_like_oracle(&stream, &format!("flip {case} at {at}"));
        }
        // A bad block type partway: the error sticks on longer prefixes.
        let mut inflater = Inflater::new();
        let mut w = BitWriter::new();
        append_stored(&mut w, b"ok", false);
        w.write_bits(0b111, 3);
        w.write_bits(0xABCD, 16);
        let bad = w.finish();
        assert_eq!(inflater.feed(&bad[..7]).unwrap(), b"ok");
        for cut in 8..=bad.len() {
            assert_eq!(inflater.feed(&bad[..cut]), Err(InflateError::BadBlockType));
        }
    }

    #[test]
    fn zlib_decompressor_matches_decompress_prefix() {
        let data = sample_html();
        let z = crate::zlib::compress(&data, Level::Default);
        let mut d = crate::zlib::Decompressor::new();
        for cut in 0..=z.len() {
            let resumed = d.feed(&z[..cut]).map(<[u8]>::to_vec);
            let oracle = match cut {
                0..=2 => Ok(Vec::new()),
                _ => oracle_prefix(&z[2..cut]).map_err(crate::zlib::ZlibError::Deflate),
            };
            assert_eq!(resumed, oracle, "prefix {cut}");
        }
        assert_eq!(d.feed(&z).unwrap(), &data[..]);
    }

    #[test]
    fn known_fixed_block() {
        // A canonical fixed-Huffman block for "abc" produced by zlib:
        // literals 'a'(0x61): code 0x91 len 8, etc. Easier: roundtrip
        // against our encoder is covered elsewhere; here decode a
        // hand-assembled stored block.
        let raw = [0x01u8, 0x03, 0x00, 0xFC, 0xFF, b'a', b'b', b'c'];
        assert_eq!(inflate(&raw).unwrap(), b"abc");
    }

    #[test]
    fn truncated_input_errors() {
        let ok = deflate(b"hello hello hello hello", Level::Default);
        for cut in 0..ok.len() {
            let err = inflate(&ok[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_block_type() {
        // BFINAL=1, BTYPE=11.
        let raw = [0b0000_0111u8];
        assert_eq!(inflate(&raw).unwrap_err(), InflateError::BadBlockType);
    }

    #[test]
    fn bad_stored_nlen() {
        let raw = [0x01u8, 0x03, 0x00, 0x00, 0x00, b'a', b'b', b'c'];
        assert_eq!(inflate(&raw).unwrap_err(), InflateError::BadStoredLength);
    }

    #[test]
    fn distance_before_start_rejected() {
        // Build a fixed block whose first symbol is a match — invalid.
        use crate::bitio::BitWriter;
        use crate::huffman::assign_codes;
        use crate::tables::fixed_litlen_lengths;
        let lens = fixed_litlen_lengths();
        let codes = assign_codes(&lens);
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        // Length symbol 257 (len 3), distance symbol 0 (dist 1) into empty
        // output.
        w.write_code(codes[257], lens[257]);
        w.write_code(0, 5);
        let raw = w.finish();
        assert_eq!(inflate(&raw).unwrap_err(), InflateError::BadDistance);
    }

    #[test]
    fn empty_stream_is_eof() {
        assert_eq!(inflate(&[]).unwrap_err(), InflateError::UnexpectedEof);
    }

    #[test]
    fn prefix_inflation_yields_partial_output() {
        let text = b"the leading text is recoverable from a prefix ".repeat(40);
        let full = deflate(&text, Level::Default);
        // Feeding ~60% of the compressed stream must reproduce a healthy
        // prefix of the original.
        let cut = full.len() * 6 / 10;
        let partial = inflate_prefix(&full[..cut]).unwrap();
        assert!(!partial.is_empty());
        assert!(partial.len() < text.len());
        assert_eq!(&text[..partial.len()], &partial[..]);
        // The complete stream still roundtrips through the same path.
        assert_eq!(inflate_prefix(&full).unwrap(), text);
        // Non-EOF corruption still errors.
        assert!(inflate_prefix(&[0b0000_0111u8]).is_err());
    }
}
