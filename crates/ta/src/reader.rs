//! Trace images: what one-shot analysis reads.
//!
//! [`TraceImage`] holds a trace's header, stream directory and
//! context-name table, and says where each stream's record bytes are.
//! An in-memory image — a serialized buffer ([`TraceImage::parse`]) or
//! an owned [`TraceFile`] (`From`) — borrows its record bytes and never
//! copies them. A file-backed image ([`TraceImage::read`]) reads only
//! the header, the directory and the name table with positioned reads
//! and leaves the records on disk. Analysis then decodes each stream
//! as one shard: an in-memory stream as one chunk, a file-backed one in
//! fixed chunks read into a buffer its executor reuses, so a trace
//! loaded from disk is never held whole.
//!
//! A `.pdt2` container is read the same two ways by
//! [`crate::V2Trace`]; [`Analysis::open`](crate::Analysis::open) opens
//! a file of either container file-backed. [`MappedImage`] reads a
//! whole file onto the heap, for packing and unpacking.

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pdt::{ChunkScan, FormatError, ImageLayout, TraceCore, TraceFile, TraceHeader};

/// Bytes a file-backed stream reads per positioned read: below
/// malloc's mmap threshold, so each executor's reused buffer stays on
/// its heap.
pub(crate) const CHUNK: usize = 64 << 10;

// A chunk must hold any record the scan may need whole.
const _: () = assert!(CHUNK >= ChunkScan::MIN_CHUNK);

static BYTES_READ: AtomicU64 = AtomicU64::new(0);

/// Trace-file bytes this process has read so far through
/// [`MappedImage::open`], file-backed [`TraceImage`]s and file-backed
/// [`crate::V2Trace`]s.
pub fn bytes_read() -> u64 {
    BYTES_READ.load(Ordering::Relaxed)
}

/// Fills `buf` from `file` at `offset`. A file that ends first has
/// shrunk since its length was taken.
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    file.read_exact_at(buf, offset)
        .map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "trace file shrank after it was opened",
            ),
            _ => e,
        })?;
    BYTES_READ.fetch_add(buf.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// A whole trace file read onto the heap, for tools that need every
/// byte at once (`ta-cli pack` and `unpack`). Every in-memory parser
/// ([`TraceImage::parse`], [`crate::V2Trace::parse`],
/// [`crate::is_v2_image`]) borrows from it through `Deref<[u8]>`.
#[derive(Debug)]
pub struct MappedImage {
    bytes: Vec<u8>,
}

impl MappedImage {
    /// Reads the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be
    /// opened or read.
    pub fn open(path: impl AsRef<Path>) -> io::Result<MappedImage> {
        let bytes = std::fs::read(path)?;
        BYTES_READ.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(MappedImage { bytes })
    }
}

impl std::ops::Deref for MappedImage {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// Where a `.pdt` stream's bytes, or a whole `.pdt2` image, are. A
/// file is shared by every region in it, so a file-backed image owns
/// its file and borrows nothing.
#[derive(Debug, Clone)]
pub(crate) enum Region<'a> {
    /// Borrowed from memory.
    Memory(&'a [u8]),
    /// In `file`, from byte `offset`.
    File { file: Arc<File>, offset: u64 },
}

impl<'a> Region<'a> {
    /// The `n` bytes at offset `at`: borrowed when the region is in
    /// memory, else read from the file into `buf`.
    ///
    /// # Errors
    ///
    /// The I/O error of the read, including a file that shrank after
    /// it was opened; in memory, a range past the region's end.
    pub(crate) fn bytes<'b>(
        &self,
        at: usize,
        n: usize,
        buf: &'b mut Vec<u8>,
    ) -> io::Result<&'b [u8]>
    where
        'a: 'b,
    {
        match self {
            Region::Memory(bytes) => bytes.get(at..at + n).ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "read past the image's end")
            }),
            Region::File { file, offset } => {
                buf.resize(n, 0);
                read_exact_at(file, buf, offset + at as u64)?;
                Ok(buf.as_slice())
            }
        }
    }
}

/// An executor's read buffer for file-backed streams: the bytes the
/// last chunk read, from file offset `at`. A record that chunk's end
/// cut stays in it, so the next chunk reads only the bytes it lacks.
#[derive(Debug, Default)]
pub(crate) struct ChunkBuf {
    bytes: Vec<u8>,
    at: u64,
}

impl ChunkBuf {
    /// The `n` file bytes from offset `at`: the ones the last chunk
    /// already holds are kept, and `read(dst, from)` fills `dst` with
    /// the rest, from file offset `from`.
    fn refill(
        &mut self,
        at: u64,
        n: usize,
        mut read: impl FnMut(&mut [u8], u64) -> io::Result<()>,
    ) -> io::Result<&[u8]> {
        let keep = match at.checked_sub(self.at).map(usize::try_from) {
            Some(Ok(skip)) if skip < self.bytes.len() => {
                self.bytes.drain(..skip);
                self.bytes.len().min(n)
            }
            _ => 0,
        };
        if self.bytes.capacity() < CHUNK {
            self.bytes.reserve_exact(CHUNK - self.bytes.len());
        }
        self.bytes.resize(n, 0);
        self.at = at;
        if let Err(e) = read(&mut self.bytes[keep..], at + keep as u64) {
            self.bytes.clear();
            return Err(e);
        }
        Ok(&self.bytes)
    }
}

/// One stream of a [`TraceImage`]: its core, the tracer-dropped count
/// from the directory, and where its record bytes are.
#[derive(Debug, Clone)]
pub struct ImageStream<'a> {
    /// The producing core.
    pub core: TraceCore,
    /// Records the tracer dropped on this stream.
    pub dropped: u64,
    len: usize,
    region: Region<'a>,
}

impl<'a> ImageStream<'a> {
    /// A stream whose record bytes are `bytes`, borrowed.
    pub(crate) fn memory(core: TraceCore, dropped: u64, bytes: &'a [u8]) -> ImageStream<'a> {
        ImageStream {
            core,
            dropped,
            len: bytes.len(),
            region: Region::Memory(bytes),
        }
    }

    /// The stream's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stream's bytes from offset `at`: all the rest of them when
    /// the stream is in memory, else the next [`CHUNK`] bytes (fewer at
    /// the end of the stream), read from the file into `buf` but for
    /// those it holds from the last chunk.
    ///
    /// # Errors
    ///
    /// The I/O error of the read, including a file that shrank after
    /// the image was read.
    pub(crate) fn chunk<'b>(&self, at: usize, buf: &'b mut ChunkBuf) -> io::Result<&'b [u8]>
    where
        'a: 'b,
    {
        match &self.region {
            Region::Memory(bytes) => Ok(bytes.get(at..).unwrap_or_default()),
            Region::File { file, offset } => {
                let n = CHUNK.min(self.len.saturating_sub(at));
                buf.refill(offset + at as u64, n, |dst, from| {
                    read_exact_at(file, dst, from)
                })
            }
        }
    }
}

/// A complete trace as analysis reads it: the header, the
/// context-name table, and each stream's record bytes, in memory or
/// left in a file — the input of [`Analysis::of`](crate::Analysis::of).
#[derive(Debug, Clone)]
pub struct TraceImage<'a> {
    header: TraceHeader,
    streams: Vec<ImageStream<'a>>,
    ctx_names: Cow<'a, [(u32, String)]>,
}

impl<'a> TraceImage<'a> {
    /// Parses a serialized image held in memory: its header, stream
    /// directory and context-name table, validating the overall
    /// layout. Record bytes are borrowed, not copied or inspected —
    /// corrupt records surface later, when the image is analyzed.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if the image is truncated or its
    /// header, directory or name table is malformed — the same errors
    /// [`TraceFile::from_bytes`] returns.
    pub fn parse(image: &'a [u8]) -> Result<Self, FormatError> {
        let layout = ImageLayout::parse(image)?;
        let streams = layout
            .streams
            .iter()
            .map(|m| {
                let bytes =
                    image
                        .get(m.offset..m.offset + m.len)
                        .ok_or(FormatError::Truncated {
                            reading: "stream bytes",
                        })?;
                Ok(ImageStream::memory(m.core, m.dropped, bytes))
            })
            .collect::<Result<_, FormatError>>()?;
        Ok(Self {
            header: layout.header,
            streams,
            ctx_names: Cow::Owned(layout.ctx_names),
        })
    }

    /// Reads the header, stream directory and context-name table of
    /// the `.pdt` file `file` with positioned reads, and leaves every
    /// stream's record bytes in the file for analysis to read. The
    /// image holds its own handle to the file.
    ///
    /// # Errors
    ///
    /// The I/O error of a read, or, as an
    /// [`InvalidData`](io::ErrorKind::InvalidData) error that displays
    /// as itself, the [`FormatError`] [`TraceImage::parse`] returns for
    /// the same bytes.
    pub fn read(file: &File) -> io::Result<Self> {
        let file = Arc::new(file.try_clone()?);
        let len = usize::try_from(file.metadata()?.len()).map_err(io::Error::other)?;
        let layout = ImageLayout::read(len, |at, buf| read_exact_at(&file, buf, at as u64))?;
        Ok(Self {
            header: layout.header,
            streams: layout
                .streams
                .iter()
                .map(|m| ImageStream {
                    core: m.core,
                    dropped: m.dropped,
                    len: m.len,
                    region: Region::File {
                        file: Arc::clone(&file),
                        offset: m.offset as u64,
                    },
                })
                .collect(),
            ctx_names: Cow::Owned(layout.ctx_names),
        })
    }

    /// The trace header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The streams, in image order.
    pub fn streams(&self) -> &[ImageStream<'a>] {
        &self.streams
    }

    /// The context-name table.
    pub fn ctx_names(&self) -> &[(u32, String)] {
        &self.ctx_names
    }

    /// Records dropped across all streams.
    pub fn total_dropped(&self) -> u64 {
        self.streams.iter().map(|s| s.dropped).sum()
    }
}

impl<'a> From<&'a TraceFile> for TraceImage<'a> {
    fn from(trace: &'a TraceFile) -> Self {
        TraceImage {
            header: trace.header,
            streams: trace
                .streams
                .iter()
                .map(|s| ImageStream::memory(s.core, s.dropped, &s.bytes))
                .collect(),
            ctx_names: Cow::Borrowed(&trace.ctx_names),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::session::Analysis;
    use pdt::{EventCode, TraceRecord, TraceStream, VERSION};

    fn trace(spes: u8) -> TraceFile {
        let mut ppe = Vec::new();
        for spe in 0..spes {
            TraceRecord {
                core: TraceCore::Ppe(0),
                code: EventCode::PpeCtxRun,
                timestamp: 10 + spe as u64,
                params: vec![spe as u64, spe as u64, u32::MAX as u64],
            }
            .encode_into(&mut ppe);
        }
        let mut streams = vec![TraceStream {
            core: TraceCore::Ppe(0),
            bytes: ppe,
            dropped: 1,
        }];
        for spe in 0..spes {
            let mut bytes = Vec::new();
            let mut dec = u32::MAX;
            for (code, step, params) in [
                (EventCode::SpeCtxStart, 0u32, vec![spe as u64]),
                (EventCode::SpeDmaGet, 100, vec![0x1000, 0x100000, 4096, 1]),
                (EventCode::SpeStop, 900, vec![0]),
            ] {
                dec = dec.wrapping_sub(step);
                TraceRecord {
                    core: TraceCore::Spe(spe),
                    code,
                    timestamp: dec as u64,
                    params,
                }
                .encode_into(&mut bytes);
            }
            streams.push(TraceStream {
                core: TraceCore::Spe(spe),
                bytes,
                dropped: 0,
            });
        }
        TraceFile {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: 1,
                num_spes: spes,
                core_hz: 3_200_000_000,
                timebase_divider: 120,
                dec_start: u32::MAX,
                group_mask: u32::MAX,
                spe_buffer_bytes: 2048,
            },
            streams,
            ctx_names: (0..spes as u32).map(|c| (c, format!("k{c}"))).collect(),
        }
    }

    #[test]
    fn image_analysis_matches_owned_path() {
        let t = trace(4);
        let bytes = t.to_bytes();
        let image = TraceImage::parse(&bytes).unwrap();
        assert_eq!(image.header(), &t.header);
        assert_eq!(image.streams().len(), t.streams.len());
        assert_eq!(image.ctx_names(), t.ctx_names.as_slice());
        assert_eq!(image.total_dropped(), t.total_dropped());

        let serial = analyze(&t).unwrap();
        let got = Analysis::of(image.clone()).strict().run().unwrap();
        assert_eq!(got.events(), serial.events.as_slice());
        assert_eq!(got.analyzed().anchors, serial.anchors);
        assert_eq!(got.analyzed().dropped, serial.dropped);
        assert_eq!(got.analyzed().ctx_names, serial.ctx_names);
    }

    #[test]
    fn image_lossy_analysis_matches_strict_when_clean() {
        let t = trace(3);
        let bytes = t.to_bytes();
        let image = TraceImage::parse(&bytes).unwrap();
        let strict = Analysis::of(image.clone()).strict().run().unwrap();
        let lossy = Analysis::of(image.clone()).run().unwrap();
        assert_eq!(lossy.events(), strict.events());
        assert_eq!(lossy.loss().total_gaps(), 0);
        assert_eq!(lossy.loss().tracer_dropped(), t.total_dropped());
    }

    #[test]
    fn owned_trace_lends_its_streams() {
        let t = trace(2);
        let image = TraceImage::from(&t);
        for (s, view) in t.streams.iter().zip(image.streams()) {
            assert_eq!(view.core, s.core);
            assert_eq!(view.dropped, s.dropped);
            assert_eq!(view.len(), s.bytes.len());
            let mut buf = ChunkBuf::default();
            let chunk = view.chunk(0, &mut buf).unwrap();
            assert_eq!(chunk.as_ptr(), s.bytes.as_ptr(), "borrowed, not copied");
        }
    }

    #[test]
    fn stream_bytes_are_borrowed_windows() {
        let t = trace(2);
        let bytes = t.to_bytes();
        let image = TraceImage::parse(&bytes).unwrap();
        let base = bytes.as_ptr() as usize;
        for (s, view) in t.streams.iter().zip(image.streams()) {
            // One chunk holds the whole in-memory stream, uncopied.
            let mut buf = ChunkBuf::default();
            let window = view.chunk(0, &mut buf).unwrap();
            assert_eq!(window, s.bytes.as_slice());
            let addr = window.as_ptr() as usize;
            assert!(addr >= base && addr + window.len() <= base + bytes.len());
            assert_eq!(buf.bytes.capacity(), 0);
        }
    }

    #[test]
    fn truncated_image_is_rejected_at_parse() {
        let t = trace(2);
        let bytes = t.to_bytes();
        assert!(TraceImage::parse(&bytes[..bytes.len() - 1]).is_err());
        assert!(TraceImage::parse(&bytes[..10]).is_err());
    }

    /// A temporary file removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(tag: &str, bytes: &[u8]) -> TempFile {
            let path =
                std::env::temp_dir().join(format!("ta-reader-{tag}-{}.pdt", std::process::id()));
            std::fs::write(&path, bytes).unwrap();
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn file_backed_image_reads_the_layout_and_streams_in_chunks() {
        let t = trace(3);
        let bytes = t.to_bytes();
        let tmp = TempFile::new("layout", &bytes);
        let file = File::open(&tmp.0).unwrap();
        let image = TraceImage::read(&file).unwrap();
        assert_eq!(image.header(), &t.header);
        assert_eq!(image.ctx_names(), t.ctx_names.as_slice());
        assert_eq!(image.total_dropped(), t.total_dropped());
        let mut buf = ChunkBuf::default();
        for (s, view) in t.streams.iter().zip(image.streams()) {
            assert_eq!(view.len(), s.bytes.len());
            assert_eq!(view.chunk(0, &mut buf).unwrap(), s.bytes.as_slice());
            assert_eq!(view.chunk(16, &mut buf).unwrap(), &s.bytes[16..]);
        }

        let memory = TraceImage::parse(&bytes).unwrap();
        let a = Analysis::of(image.clone()).run().unwrap();
        let b = Analysis::of(memory).run().unwrap();
        assert_eq!(a.events(), b.events());
        assert_eq!(a.loss(), b.loss());
    }

    #[test]
    fn a_file_that_shrinks_after_open_is_an_error() {
        let t = trace(2);
        let bytes = t.to_bytes();
        let tmp = TempFile::new("shrink", &bytes);
        let file = File::open(&tmp.0).unwrap();
        let image = TraceImage::read(&file).unwrap();
        let last = image.streams().last().cloned().unwrap();
        let shrunk = std::fs::OpenOptions::new()
            .write(true)
            .open(&tmp.0)
            .unwrap();
        shrunk.set_len(20).unwrap();
        let mut buf = ChunkBuf::default();
        let err = last.chunk(0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        for strict in [false, true] {
            let builder = Analysis::of(image.clone());
            let builder = if strict { builder.strict() } else { builder };
            let err = builder.run().unwrap_err();
            assert!(
                matches!(err, crate::AnalyzeError::Read { .. }),
                "strict={strict}: {err}"
            );
            assert!(err.to_string().contains("shrank"), "{err}");
        }
    }

    #[test]
    fn format_errors_read_from_a_file_display_as_themselves() {
        let t = trace(2);
        let bytes = t.to_bytes();
        for cut in [0, 3, 10, 40, 41, bytes.len() - 1] {
            let tmp = TempFile::new(&format!("cut{cut}"), &bytes[..cut]);
            let file = File::open(&tmp.0).unwrap();
            let got = TraceImage::read(&file).unwrap_err();
            let want = TraceImage::parse(&bytes[..cut]).unwrap_err();
            assert_eq!(got.kind(), io::ErrorKind::InvalidData);
            assert_eq!(got.to_string(), want.to_string(), "cut at {cut}");
        }
    }

    #[test]
    fn chunks_read_each_stream_byte_once() {
        // Records of 16..=112 bytes, so chunk ends cut many of them.
        let mut stream = Vec::new();
        for k in 0..12_000u64 {
            TraceRecord {
                core: TraceCore::Spe(0),
                code: EventCode::SpeUser,
                timestamp: u64::from(u32::MAX) - k,
                params: (0..k % 7).collect(),
            }
            .encode_into(&mut stream);
        }
        assert!(stream.len() > 4 * CHUNK);
        let (mut buf, mut asked) = (ChunkBuf::default(), 0);
        let mut scan = ChunkScan::lossy(stream.len(), Some(TraceCore::Spe(0)));
        let mut records = 0;
        while !scan.is_done() {
            let base = scan.resume_at();
            let n = CHUNK.min(stream.len() - base);
            let chunk = buf
                .refill(base as u64, n, |dst, from| {
                    asked += dst.len();
                    let from = from as usize;
                    dst.copy_from_slice(&stream[from..from + dst.len()]);
                    Ok(())
                })
                .unwrap();
            assert_eq!(chunk, &stream[base..base + n]);
            let gap = scan.next_gap(chunk, base, |_| records += 1);
            assert_eq!(gap, None);
        }
        assert_eq!(records, 12_000);
        assert_eq!(asked, stream.len(), "every byte is read once");
    }

    #[test]
    fn mapped_image_reads_the_whole_file() {
        let t = trace(2);
        let bytes = t.to_bytes();
        let tmp = TempFile::new("mapped", &bytes);
        let mapped = MappedImage::open(&tmp.0).unwrap();
        assert_eq!(&*mapped, bytes.as_slice());
    }
}
