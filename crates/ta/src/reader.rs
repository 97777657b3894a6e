//! Zero-copy ingestion of serialized trace images.
//!
//! [`TraceImage`] parses a serialized PDT image (the byte format
//! written by [`TraceFile::to_bytes`]) without copying any record
//! bytes: only the header, the stream directory and the context-name
//! table are materialized, while every stream's records stay borrowed
//! windows into the caller's buffer. Analysis then decodes those
//! windows straight into the columnar store, so a trace loaded from
//! disk is decoded exactly once, in place.
//!
//! For small traces the copy saved is negligible; for the multi-SPE
//! captures the analyzer targets it removes the single largest
//! allocation of the load path.

use std::borrow::Cow;
use std::path::Path;

use pdt::{FormatError, TraceCore, TraceFile, TraceHeader, TraceStream};

/// An owned trace image loaded from disk, memory-mapped when the
/// default-on `mmap` feature is enabled (falling back to a heap read
/// when it is off or the map fails). Both representations expose the
/// same `&[u8]`, so every parser ([`TraceImage::parse`],
/// [`crate::V2Trace::parse`], [`crate::is_v2_image`]) borrows from the
/// image without caring how it is backed — one load path for v1 and
/// v2 containers.
#[derive(Debug)]
pub struct MappedImage {
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    #[cfg(feature = "mmap")]
    Mapped(memmap2::Mmap),
    Heap(Vec<u8>),
}

impl MappedImage {
    /// Loads the image at `path`, mapping it when possible.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be
    /// opened or read.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<MappedImage> {
        let path = path.as_ref();
        #[cfg(feature = "mmap")]
        {
            let file = std::fs::File::open(path)?;
            if let Ok(map) = memmap2::Mmap::map(&file) {
                return Ok(MappedImage {
                    repr: Repr::Mapped(map),
                });
            }
        }
        Ok(MappedImage {
            repr: Repr::Heap(std::fs::read(path)?),
        })
    }

    /// Wraps bytes already in memory (the heap representation).
    pub fn from_vec(bytes: Vec<u8>) -> MappedImage {
        MappedImage {
            repr: Repr::Heap(bytes),
        }
    }

    /// The image bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(feature = "mmap")]
            Repr::Mapped(m) => m,
            Repr::Heap(v) => v,
        }
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True when the image is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }
}

impl std::ops::Deref for MappedImage {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl AsRef<[u8]> for MappedImage {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

/// One stream of a [`TraceImage`]: its core, its record bytes borrowed
/// from the image, and the tracer-dropped count from the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageStream<'a> {
    /// The producing core.
    pub core: TraceCore,
    /// The stream's record bytes.
    pub bytes: &'a [u8],
    /// Records the tracer dropped on this stream.
    pub dropped: u64,
}

/// A borrowed view of a complete trace: the header, the context-name
/// table, and every stream's record bytes as a window into someone
/// else's buffer — the input of [`Analysis::of`](crate::Analysis::of).
///
/// [`TraceImage::parse`] builds one over a serialized image (a mapped
/// `.pdt` file) without copying any record bytes; an owned
/// [`TraceFile`] lends its streams the same way through `From`.
#[derive(Debug, Clone)]
pub struct TraceImage<'a> {
    header: TraceHeader,
    streams: Vec<ImageStream<'a>>,
    ctx_names: Cow<'a, [(u32, String)]>,
}

impl<'a> TraceImage<'a> {
    /// Parses the image's header, stream directory and context-name
    /// table, validating the overall layout. Record bytes are not
    /// inspected — corrupt records surface later, when the image is
    /// analyzed.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if the image is truncated or its
    /// header, directory or name table is malformed — the same errors
    /// [`TraceFile::from_bytes`] returns.
    pub fn parse(image: &'a [u8]) -> Result<Self, FormatError> {
        let header = TraceFile::scan_header(image)?;
        let metas = TraceFile::scan_stream_table(image)?;
        let ctx_names = TraceFile::scan_ctx_names(image)?;
        Ok(Self {
            header,
            streams: metas
                .iter()
                .map(|m| ImageStream {
                    core: m.core,
                    bytes: m.slice(image),
                    dropped: m.dropped,
                })
                .collect(),
            ctx_names: Cow::Owned(ctx_names),
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

    /// The record bytes of stream `index`, borrowed from the image.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn stream_bytes(&self, index: usize) -> &'a [u8] {
        self.streams[index].bytes
    }

    /// Records dropped across all streams.
    pub fn total_dropped(&self) -> u64 {
        self.streams.iter().map(|s| s.dropped).sum()
    }

    /// Materializes an owned [`TraceFile`], copying the record bytes.
    /// Useful when the backing buffer cannot outlive the trace.
    pub fn to_trace_file(&self) -> TraceFile {
        TraceFile {
            header: self.header,
            streams: self
                .streams
                .iter()
                .map(|s| TraceStream {
                    core: s.core,
                    bytes: s.bytes.to_vec(),
                    dropped: s.dropped,
                })
                .collect(),
            ctx_names: self.ctx_names.to_vec(),
        }
    }
}

impl<'a> From<&'a TraceFile> for TraceImage<'a> {
    fn from(trace: &'a TraceFile) -> Self {
        TraceImage {
            header: trace.header,
            streams: trace
                .streams
                .iter()
                .map(|s| ImageStream {
                    core: s.core,
                    bytes: &s.bytes,
                    dropped: s.dropped,
                })
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
    use pdt::{EventCode, TraceRecord, VERSION};

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
            assert_eq!(
                view.bytes.as_ptr(),
                s.bytes.as_ptr(),
                "borrowed, not copied"
            );
        }
        assert_eq!(image.to_trace_file(), t);
    }

    #[test]
    fn stream_bytes_are_borrowed_windows() {
        let t = trace(2);
        let bytes = t.to_bytes();
        let image = TraceImage::parse(&bytes).unwrap();
        let base = bytes.as_ptr() as usize;
        for (i, s) in t.streams.iter().enumerate() {
            let window = image.stream_bytes(i);
            assert_eq!(window, s.bytes.as_slice());
            let addr = window.as_ptr() as usize;
            assert!(addr >= base && addr + window.len() <= base + bytes.len());
        }
    }

    #[test]
    fn to_trace_file_round_trips() {
        let t = trace(3);
        let bytes = t.to_bytes();
        let image = TraceImage::parse(&bytes).unwrap();
        assert_eq!(image.to_trace_file(), t);
    }

    #[test]
    fn truncated_image_is_rejected_at_parse() {
        let t = trace(2);
        let bytes = t.to_bytes();
        assert!(TraceImage::parse(&bytes[..bytes.len() - 1]).is_err());
        assert!(TraceImage::parse(&bytes[..10]).is_err());
    }

    #[test]
    fn mapped_image_matches_heap_read() {
        let t = trace(2);
        let bytes = t.to_bytes();
        let path = std::env::temp_dir().join("ta_mapped_image_test.pdt");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedImage::open(&path).unwrap();
        assert_eq!(mapped.bytes(), bytes.as_slice());
        assert_eq!(mapped.len(), bytes.len());
        assert!(!mapped.is_empty());
        let heap = MappedImage::from_vec(bytes);
        assert_eq!(&*mapped, &*heap);
        let image = TraceImage::parse(&mapped).unwrap();
        assert_eq!(image.to_trace_file(), t);
        let _ = std::fs::remove_file(&path);
    }
}
