//! The PDT trace-file format.
//!
//! A trace file holds a header describing the machine and session, one
//! record stream per core (a combined stream for the PPE threads, one
//! per SPE), and the context-name table. All integers are
//! little-endian.
//!
//! ```text
//! magic     "PDT1"
//! u16       version (1)
//! u8        num_ppe_threads
//! u8        num_spes
//! u64       core_hz
//! u64       timebase_divider
//! u32       decrementer start value
//! u32       enabled group mask
//! u32       spe trace-buffer bytes
//! u32       stream count
//! streams:  u8 core_tag, u8[3] pad, u64 byte_len, u64 dropped_records,
//!           then byte_len record bytes
//! names:    u32 count, then per entry u32 ctx, u32 len, utf-8 bytes
//! ```

use bytes::{Buf, BufMut};

use crate::record::{
    decode_stream, decode_stream_lossy, LossyDecode, RecordError, TraceCore, TraceRecord,
};

/// Trace-file magic bytes.
pub const MAGIC: &[u8; 4] = b"PDT1";

/// Current format version.
pub const VERSION: u16 = 1;

/// Session/machine metadata stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version.
    pub version: u16,
    /// PPE hardware threads traced.
    pub num_ppe_threads: u8,
    /// SPEs traced.
    pub num_spes: u8,
    /// Core clock in Hz.
    pub core_hz: u64,
    /// Core cycles per timebase tick.
    pub timebase_divider: u64,
    /// Decrementer value loaded at context start.
    pub dec_start: u32,
    /// Enabled group-mask bits.
    pub group_mask: u32,
    /// LS trace-buffer bytes per SPE.
    pub spe_buffer_bytes: u32,
}

/// One core's record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStream {
    /// The producing core (the PPE stream uses `Ppe(0)` and carries
    /// per-thread tags inside its records).
    pub core: TraceCore,
    /// Encoded records.
    pub bytes: Vec<u8>,
    /// Records the tracer dropped (back-pressure / region exhaustion).
    pub dropped: u64,
}

impl TraceStream {
    /// Decodes the stream's records.
    ///
    /// # Errors
    ///
    /// Returns the offset and cause of the first corrupt record.
    pub fn records(&self) -> Result<Vec<TraceRecord>, (usize, RecordError)> {
        decode_stream(&self.bytes)
    }

    /// Decodes the stream's records, resynchronizing past corruption
    /// instead of failing; skipped ranges are reported as gaps.
    pub fn records_lossy(&self) -> LossyDecode {
        decode_stream_lossy(&self.bytes, Some(self.core))
    }

    /// Encoded record bytes in this stream.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Upper bound on the record count, from the 16-byte granularity
    /// (exact when every record is a single granule). Lets a decoder
    /// pre-size its output without walking the stream.
    pub fn max_records(&self) -> usize {
        self.bytes.len() / 16
    }
}

/// Location of one core's stream inside a serialized trace image.
///
/// [`ImageLayout`] lists these from the stream directory alone — no
/// record bytes are read or decoded — so a parallel reader can hand
/// each worker a disjoint region of the image without a serial
/// pre-scan of the record data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMeta {
    /// The producing core.
    pub core: TraceCore,
    /// Byte offset of the stream's first record within the image.
    pub offset: usize,
    /// Encoded record bytes.
    pub len: usize,
    /// Records the tracer dropped on this stream.
    pub dropped: u64,
}

impl StreamMeta {
    /// The stream's record bytes within `image`.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not the buffer this metadata was scanned
    /// from (range out of bounds).
    pub fn slice<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.offset..self.offset + self.len]
    }
}

/// A complete trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Header metadata.
    pub header: TraceHeader,
    /// Per-core streams.
    pub streams: Vec<TraceStream>,
    /// Context-name table.
    pub ctx_names: Vec<(u32, String)>,
}

/// Errors from parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion {
        /// The version found.
        found: u16,
    },
    /// The file ended early.
    Truncated {
        /// What was being read.
        reading: &'static str,
    },
    /// A name-table entry is not UTF-8.
    BadName,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => f.write_str("not a PDT trace file (bad magic)"),
            FormatError::BadVersion { found } => {
                write!(f, "unsupported trace version {found} (expected {VERSION})")
            }
            FormatError::Truncated { reading } => {
                write!(f, "trace file truncated while reading {reading}")
            }
            FormatError::BadName => f.write_str("context name is not valid utf-8"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for std::io::Error {
    /// An [`InvalidData`](std::io::ErrorKind::InvalidData) error that
    /// displays as the format error, for readers that walk a file.
    fn from(e: FormatError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

impl TraceFile {
    /// Total encoded record bytes over all streams.
    pub fn total_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.bytes.len() as u64).sum()
    }

    /// Total dropped records over all streams.
    pub fn total_dropped(&self) -> u64 {
        self.streams.iter().map(|s| s.dropped).sum()
    }

    /// The stream for `core`, if present.
    pub fn stream(&self, core: TraceCore) -> Option<&TraceStream> {
        self.streams.iter().find(|s| s.core == core)
    }

    /// The name of context `ctx`, if recorded.
    pub fn ctx_name(&self, ctx: u32) -> Option<&str> {
        self.ctx_names
            .iter()
            .find(|(c, _)| *c == ctx)
            .map(|(_, n)| n.as_str())
    }

    /// Serializes to the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.total_bytes() as usize);
        self.emit_image(|piece| out.put_slice(piece));
        out
    }

    /// Writes the trace to a file, each stream's record bytes straight
    /// from the stream, with no copy of the whole image in memory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from the filesystem.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = Ok(());
        self.emit_image(|piece| {
            if written.is_ok() {
                written = out.write_all(piece);
            }
        });
        written?;
        out.flush()
    }

    /// Hands the on-disk byte layout to `emit` in file order: the
    /// header, then each stream's descriptor and its record bytes, then
    /// the context-name table.
    fn emit_image(&self, mut emit: impl FnMut(&[u8])) {
        let mut head = Vec::with_capacity(64);
        head.put_slice(MAGIC);
        head.put_u16_le(self.header.version);
        head.put_u8(self.header.num_ppe_threads);
        head.put_u8(self.header.num_spes);
        head.put_u64_le(self.header.core_hz);
        head.put_u64_le(self.header.timebase_divider);
        head.put_u32_le(self.header.dec_start);
        head.put_u32_le(self.header.group_mask);
        head.put_u32_le(self.header.spe_buffer_bytes);
        head.put_u32_le(self.streams.len() as u32);
        emit(&head);
        for s in &self.streams {
            head.clear();
            head.put_u8(s.core.tag());
            head.put_bytes(0, 3);
            head.put_u64_le(s.bytes.len() as u64);
            head.put_u64_le(s.dropped);
            emit(&head);
            emit(&s.bytes);
        }
        head.clear();
        head.put_u32_le(self.ctx_names.len() as u32);
        for (ctx, name) in &self.ctx_names {
            head.put_u32_le(*ctx);
            head.put_u32_le(name.len() as u32);
            head.put_slice(name.as_bytes());
        }
        emit(&head);
    }

    /// Reads a trace from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error wrapping either the filesystem failure or
    /// a [`FormatError`].
    pub fn read_from(path: impl AsRef<std::path::Path>) -> std::io::Result<TraceFile> {
        let bytes = std::fs::read(path)?;
        TraceFile::from_bytes(&bytes).map_err(std::io::Error::other)
    }

    /// Parses the on-disk byte layout.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on structural corruption. Record-level
    /// corruption is reported later by [`TraceStream::records`].
    pub fn from_bytes(image: &[u8]) -> Result<TraceFile, FormatError> {
        let layout = ImageLayout::parse(image)?;
        let streams = layout
            .streams
            .iter()
            .map(|m| TraceStream {
                core: m.core,
                bytes: m.slice(image).to_vec(),
                dropped: m.dropped,
            })
            .collect();
        Ok(TraceFile {
            header: layout.header,
            streams,
            ctx_names: layout.ctx_names,
        })
    }
}

/// Everything in a serialized trace image but the record bytes: the
/// header, the stream directory and the context-name table.
///
/// [`ImageLayout::read`] walks an image through positioned reads and
/// skips every stream's record bytes, so a reader can learn where each
/// stream lies in a file without reading the streams; a parallel
/// reader then hands each worker its own stream's region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageLayout {
    /// The trace header.
    pub header: TraceHeader,
    /// Each stream's location, in image order.
    pub streams: Vec<StreamMeta>,
    /// The context-name table.
    pub ctx_names: Vec<(u32, String)>,
}

impl ImageLayout {
    /// Parses the layout of an image held in memory.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if the image is truncated or its header,
    /// directory or name table is malformed.
    pub fn parse(image: &[u8]) -> Result<ImageLayout, FormatError> {
        ImageLayout::read(image.len(), |at, buf| {
            let src = image
                .get(at..at + buf.len())
                .ok_or(FormatError::Truncated { reading: "image" })?;
            buf.copy_from_slice(src);
            Ok(())
        })
    }

    /// Reads the layout of an image of `len` bytes through `read_at`,
    /// which fills `buf` with the image bytes at offset `at`; it is
    /// asked only for bytes inside `len`. The walk reads the header,
    /// each stream's 20-byte directory entry and the name table, and
    /// reads no record bytes.
    ///
    /// # Errors
    ///
    /// Returns the [`FormatError`] [`ImageLayout::parse`] returns for
    /// the same bytes, or the first error of `read_at`.
    pub fn read<E: From<FormatError>>(
        len: usize,
        read_at: impl FnMut(usize, &mut [u8]) -> Result<(), E>,
    ) -> Result<ImageLayout, E> {
        let mut w = Walk {
            len,
            at: 0,
            read_at,
        };
        let magic: [u8; 4] = w.take("magic")?;
        if &magic != MAGIC {
            return Err(FormatError::BadMagic.into());
        }
        let h: [u8; 32] = w.take("header")?;
        let mut h = &h[..];
        let version = h.get_u16_le();
        if version != VERSION {
            return Err(FormatError::BadVersion { found: version }.into());
        }
        let header = TraceHeader {
            version,
            num_ppe_threads: h.get_u8(),
            num_spes: h.get_u8(),
            core_hz: h.get_u64_le(),
            timebase_divider: h.get_u64_le(),
            dec_start: h.get_u32_le(),
            group_mask: h.get_u32_le(),
            spe_buffer_bytes: h.get_u32_le(),
        };
        let n_streams = u32::from_le_bytes(w.take("stream count")?);
        // Every entry takes 20 bytes, so a damaged count cannot ask
        // for more room than the image could fill.
        let mut streams = Vec::with_capacity((n_streams as usize).min(w.left() / 20));
        for _ in 0..n_streams {
            let e: [u8; 20] = w.take("stream header")?;
            let mut e = &e[..];
            let core = TraceCore::from_tag(e.get_u8());
            e.advance(3);
            let len = e.get_u64_le();
            let dropped = e.get_u64_le();
            let offset = w.at;
            w.skip(len, "stream bytes")?;
            streams.push(StreamMeta {
                core,
                offset,
                len: len as usize,
                dropped,
            });
        }
        let n_names = u32::from_le_bytes(w.take("name table")?);
        let mut ctx_names = Vec::with_capacity((n_names as usize).min(w.left() / 8));
        for _ in 0..n_names {
            let e: [u8; 8] = w.take("name entry")?;
            let ctx = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
            let len = u32::from_le_bytes([e[4], e[5], e[6], e[7]]);
            let name = w.take_vec(len as usize, "name bytes")?;
            let name = String::from_utf8(name).map_err(|_| FormatError::BadName)?;
            ctx_names.push((ctx, name));
        }
        Ok(ImageLayout {
            header,
            streams,
            ctx_names,
        })
    }
}

/// A forward walk over an image read through positioned reads.
struct Walk<F> {
    len: usize,
    at: usize,
    read_at: F,
}

impl<E: From<FormatError>, F: FnMut(usize, &mut [u8]) -> Result<(), E>> Walk<F> {
    /// Bytes left after the walk's position.
    fn left(&self) -> usize {
        self.len - self.at
    }

    /// Moves past `n` bytes, failing with a truncation at `what` if the
    /// image ends first.
    fn skip(&mut self, n: u64, what: &'static str) -> Result<(), E> {
        if n > self.left() as u64 {
            return Err(FormatError::Truncated { reading: what }.into());
        }
        self.at += n as usize;
        Ok(())
    }

    /// Reads the next `buf.len()` bytes.
    fn fill(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), E> {
        let at = self.at;
        self.skip(buf.len() as u64, what)?;
        (self.read_at)(at, buf)
    }

    /// Reads the next `N` bytes.
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], E> {
        let mut buf = [0; N];
        self.fill(&mut buf, what)?;
        Ok(buf)
    }

    /// Reads the next `n` bytes, allocating only once they are known
    /// to be in the image.
    fn take_vec(&mut self, n: usize, what: &'static str) -> Result<Vec<u8>, E> {
        if n > self.left() {
            return Err(FormatError::Truncated { reading: what }.into());
        }
        let mut buf = vec![0; n];
        self.fill(&mut buf, what)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventCode;

    fn sample() -> TraceFile {
        let mut spe_bytes = Vec::new();
        TraceRecord {
            core: TraceCore::Spe(0),
            code: EventCode::SpeUser,
            timestamp: 999,
            params: vec![1, 2, 3],
        }
        .encode_into(&mut spe_bytes);
        let mut ppe_bytes = Vec::new();
        TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxCreate,
            timestamp: 5,
            params: vec![0],
        }
        .encode_into(&mut ppe_bytes);
        TraceFile {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: 2,
                num_spes: 1,
                core_hz: 3_200_000_000,
                timebase_divider: 120,
                dec_start: u32::MAX,
                group_mask: 0xffff,
                spe_buffer_bytes: 2048,
            },
            streams: vec![
                TraceStream {
                    core: TraceCore::Ppe(0),
                    bytes: ppe_bytes,
                    dropped: 0,
                },
                TraceStream {
                    core: TraceCore::Spe(0),
                    bytes: spe_bytes,
                    dropped: 3,
                },
            ],
            ctx_names: vec![(0, "kernel".into())],
        }
    }

    #[test]
    fn file_roundtrip() {
        let f = sample();
        let bytes = f.to_bytes();
        let g = TraceFile::from_bytes(&bytes).unwrap();
        assert_eq!(f, g);
        assert_eq!(g.total_dropped(), 3);
        assert_eq!(g.ctx_name(0), Some("kernel"));
        assert_eq!(g.ctx_name(9), None);
    }

    #[test]
    fn write_to_writes_the_image_bytes() {
        let f = sample();
        let path = std::env::temp_dir().join(format!("pdt-write-to-{}.pdt", std::process::id()));
        f.write_to(&path).unwrap();
        let written = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(written, f.to_bytes());
        assert_eq!(TraceFile::from_bytes(&written).unwrap(), f);
    }

    #[test]
    fn records_decode_from_streams() {
        let f = sample();
        let spe = f.stream(TraceCore::Spe(0)).unwrap();
        let recs = spe.records().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].params, vec![1, 2, 3]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(TraceFile::from_bytes(&bytes), Err(FormatError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            TraceFile::from_bytes(&bytes),
            Err(FormatError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample().to_bytes();
        for cut in [3, 10, 30, bytes.len() - 1] {
            let r = TraceFile::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn layout_matches_full_parse() {
        let f = sample();
        let bytes = f.to_bytes();
        let layout = ImageLayout::parse(&bytes).unwrap();
        assert_eq!(layout.header, f.header);
        assert_eq!(layout.ctx_names, f.ctx_names);
        assert_eq!(layout.streams.len(), f.streams.len());
        for (meta, stream) in layout.streams.iter().zip(&f.streams) {
            assert_eq!(meta.core, stream.core);
            assert_eq!(meta.len, stream.bytes.len());
            assert_eq!(meta.dropped, stream.dropped);
            assert_eq!(meta.slice(&bytes), stream.bytes.as_slice());
        }
    }

    #[test]
    fn layout_read_touches_no_record_bytes() {
        let f = sample();
        let bytes = f.to_bytes();
        let mut read = vec![false; bytes.len()];
        let layout = ImageLayout::read(bytes.len(), |at, buf: &mut [u8]| {
            buf.copy_from_slice(&bytes[at..at + buf.len()]);
            read[at..at + buf.len()].iter_mut().for_each(|r| *r = true);
            Ok::<_, FormatError>(())
        })
        .unwrap();
        assert_eq!(layout, ImageLayout::parse(&bytes).unwrap());
        for m in &layout.streams {
            assert!(!read[m.offset..m.offset + m.len].contains(&true));
        }
    }

    #[test]
    fn layout_rejects_corruption() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(ImageLayout::parse(&bytes), Err(FormatError::BadMagic));
        let bytes = sample().to_bytes();
        assert!(ImageLayout::parse(&bytes[..41]).is_err());
    }

    #[test]
    fn huge_counts_fail_as_truncation_without_allocating() {
        let mut bytes = sample().to_bytes();
        bytes[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ImageLayout::parse(&bytes),
            Err(FormatError::Truncated {
                reading: "stream header"
            })
        );
        let f = TraceFile {
            header: sample().header,
            streams: vec![],
            ctx_names: vec![(1, "k".into())],
        };
        let mut bytes = f.to_bytes();
        let n = bytes.len();
        bytes[n - 5..n - 1].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ImageLayout::parse(&bytes),
            Err(FormatError::Truncated {
                reading: "name bytes"
            })
        );
        let mut bytes = f.to_bytes();
        bytes[n - 13..n - 9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ImageLayout::parse(&bytes),
            Err(FormatError::Truncated {
                reading: "name entry"
            })
        );
    }

    #[test]
    fn empty_file_parses_with_no_streams() {
        let f = TraceFile {
            header: sample().header,
            streams: vec![],
            ctx_names: vec![],
        };
        let g = TraceFile::from_bytes(&f.to_bytes()).unwrap();
        assert!(g.streams.is_empty());
        assert_eq!(g.total_bytes(), 0);
    }
}
