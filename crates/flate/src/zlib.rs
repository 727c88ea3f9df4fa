//! The zlib container format (RFC 1950): a 2-byte header, a DEFLATE stream,
//! and an Adler-32 trailer. This is the `deflate` content-coding HTTP/1.1
//! actually negotiates (RFC 2068 defines "deflate" as the zlib format).

use crate::checksum::adler32;
use crate::deflate::{deflate, Level};
use crate::inflate::{inflate, InflateError, Inflater};

/// Errors specific to the zlib wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZlibError {
    /// Header malformed or using an unsupported method/window.
    BadHeader,
    /// FCHECK failed: CMF/FLG is not a multiple of 31.
    BadHeaderCheck,
    /// A preset dictionary was requested (unsupported).
    NeedsDictionary,
    /// The embedded DEFLATE stream is invalid.
    Deflate(InflateError),
    /// Adler-32 of the decompressed data does not match the trailer.
    BadChecksum,
    /// Stream ends before the 4-byte trailer.
    Truncated,
}

impl std::fmt::Display for ZlibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZlibError::BadHeader => f.write_str("bad zlib header"),
            ZlibError::BadHeaderCheck => f.write_str("zlib header check failed"),
            ZlibError::NeedsDictionary => f.write_str("preset dictionary unsupported"),
            ZlibError::Deflate(e) => write!(f, "deflate error: {e}"),
            ZlibError::BadChecksum => f.write_str("adler32 mismatch"),
            ZlibError::Truncated => f.write_str("truncated zlib stream"),
        }
    }
}

impl std::error::Error for ZlibError {}

/// Compress into the zlib format.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    // CMF: method 8 (deflate), window 32K (CINFO=7).
    let cmf: u8 = 0x78;
    // FLG: FLEVEL from the level; FCHECK makes (CMF<<8 | FLG) % 31 == 0.
    let flevel: u8 = match level {
        Level::Store | Level::Fast => 0,
        Level::Default => 2,
        Level::Best => 3,
    };
    let mut flg = flevel << 6;
    let rem = ((cmf as u16) << 8 | flg as u16) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    debug_assert_eq!(((cmf as u16) << 8 | flg as u16) % 31, 0);

    let mut out = vec![cmf, flg];
    out.extend_from_slice(&deflate(data, level));
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Decompress as much of a (possibly truncated) zlib stream as possible,
/// skipping the trailer check — for streaming consumers that inspect data
/// before the stream completes. Header errors still surface once two bytes
/// are available. A [`Decompressor`] does the same over a growing stream
/// without decoding any byte twice.
pub fn decompress_prefix(data: &[u8]) -> Result<Vec<u8>, ZlibError> {
    Decompressor::new().feed(data).map(<[u8]>::to_vec)
}

/// [`decompress_prefix`] that resumes: each [`Decompressor::feed`] takes
/// a longer prefix of the same zlib stream and inflates only what it
/// adds, through a resumable [`Inflater`].
#[derive(Debug, Default)]
pub struct Decompressor {
    inflater: Inflater,
}

impl Decompressor {
    /// A decompressor at the start of a stream.
    pub fn new() -> Decompressor {
        Decompressor::default()
    }

    /// Decode what `data` adds beyond the previous feed and return all
    /// output so far: exactly `decompress_prefix(data)`. Errors are
    /// sticky.
    pub fn feed(&mut self, data: &[u8]) -> Result<&[u8], ZlibError> {
        if data.len() < 3 {
            return Ok(&[]);
        }
        check_header(data[0], data[1])?;
        self.inflater.feed(&data[2..]).map_err(ZlibError::Deflate)
    }

    /// Output decoded so far.
    pub fn output(&self) -> &[u8] {
        self.inflater.output()
    }
}

/// Validate CMF/FLG: deflate with at most a 32K window, and FCHECK.
fn check_header(cmf: u8, flg: u8) -> Result<(), ZlibError> {
    if cmf & 0x0F != 8 || (cmf >> 4) > 7 {
        return Err(ZlibError::BadHeader);
    }
    if ((cmf as u16) << 8 | flg as u16) % 31 != 0 {
        return Err(ZlibError::BadHeaderCheck);
    }
    Ok(())
}

/// Decompress a zlib stream.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, ZlibError> {
    if data.len() < 6 {
        return Err(ZlibError::Truncated);
    }
    let flg = data[1];
    check_header(data[0], flg)?;
    if flg & 0x20 != 0 {
        return Err(ZlibError::NeedsDictionary);
    }
    let body = &data[2..data.len() - 4];
    let decompressed = inflate(body).map_err(ZlibError::Deflate)?;
    let trailer = &data[data.len() - 4..];
    let expect = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if adler32(&decompressed) != expect {
        return Err(ZlibError::BadChecksum);
    }
    Ok(decompressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_levels() {
        let data = b"zlib container roundtrip test data ".repeat(50);
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            let z = compress(&data, level);
            assert_eq!(decompress(&z).unwrap(), data);
        }
    }

    #[test]
    fn header_is_standard() {
        let z = compress(b"x", Level::Default);
        assert_eq!(z[0], 0x78, "CMF: deflate with 32K window");
        assert_eq!(((z[0] as u16) << 8 | z[1] as u16) % 31, 0);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut z = compress(b"checksum matters", Level::Default);
        let n = z.len();
        z[n - 1] ^= 0xFF;
        assert_eq!(decompress(&z).unwrap_err(), ZlibError::BadChecksum);
    }

    #[test]
    fn corrupted_header_detected() {
        let mut z = compress(b"data", Level::Default);
        z[0] = 0x79; // method 9
        assert_eq!(decompress(&z).unwrap_err(), ZlibError::BadHeader);
        let mut z = compress(b"data", Level::Default);
        z[1] ^= 0x01;
        assert_eq!(decompress(&z).unwrap_err(), ZlibError::BadHeaderCheck);
    }

    #[test]
    fn prefix_decompress_streams() {
        let data = b"partial zlib payloads decode as a prefix ".repeat(30);
        let z = compress(&data, Level::Default);
        let partial = decompress_prefix(&z[..z.len() / 2]).unwrap();
        assert!(!partial.is_empty());
        assert_eq!(&data[..partial.len()], &partial[..]);
        assert_eq!(decompress_prefix(&z).unwrap(), data);
        assert_eq!(decompress_prefix(&[]).unwrap(), Vec::<u8>::new());
        assert_eq!(
            decompress_prefix(&[0x79, 0x9C, 1]).unwrap_err(),
            ZlibError::BadHeader
        );
    }

    #[test]
    fn truncated_stream_detected() {
        let z = compress(b"data", Level::Default);
        assert_eq!(decompress(&z[..3]).unwrap_err(), ZlibError::Truncated);
    }
}
