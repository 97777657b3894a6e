//! The v1-roundtrip oracle for `.pdt2` images (include it with
//! `#[path = "common/roundtrip.rs"] mod roundtrip;`).
//!
//! A second decoder, independent of `ta::V2Trace`'s: every block turns
//! into the v1 record bytes it stands for, and those bytes replay
//! through an [`IngestSession`] exactly as if the `.pdt` the container
//! was packed from were analyzed. It keeps its own copy of the
//! reconstruction rules, so the suites can hold `V2Trace::analyze` to
//! it: each inline prefix is cross-checked against its footer entry
//! (a stream without a directory, the one a truncated image ends
//! inside, trusts its prefixes); a block that fails that check or its
//! CRC, or does not yield its raw length, stands in as zeros; a good
//! packed block is re-encoded canonically and a raw gap block passes
//! verbatim; the raw bytes no block covers become one trailing zero
//! run. Every zero run is bounded by the stream header's raw length,
//! clamped by [`raw_fill_budget`]. It reads each stream's block region
//! whole.
//!
//! [`strict_reference`] is the strict policy's oracle: the whole image
//! unpacked to its v1 trace ([`pdt::unpack`]), then analyzed strictly.

#![allow(dead_code)]

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use pdt::v2::{
    crc32, decode_packed_payload, records_to_bytes, BlockEntry, BlockIter, BlockKind, BlockPrefix,
    CodecStats, V2Error, V2File,
};
use ta::{is_v2_image, Analysis, IngestSession, LossReport, Parallelism, StreamId, TraceImage};

/// What the oracle decodes from an image.
pub struct Oracle {
    /// The session's final snapshot.
    pub analysis: Arc<Analysis>,
    /// The snapshot's loss report, with the truncation the container
    /// walk met.
    pub loss: LossReport,
    /// Block, record and byte counters.
    pub stats: CodecStats,
}

enum Source<'a> {
    Memory(&'a [u8]),
    File(&'a File),
}

/// A `.pdt2` image walked for the oracle, in memory or left in a file.
pub struct Roundtrip<'a> {
    file: V2File,
    source: Source<'a>,
}

impl<'a> Roundtrip<'a> {
    /// Walks an image held in memory, keeping the prefix of one that
    /// ends inside a structure.
    pub fn walk(image: &'a [u8]) -> Result<Roundtrip<'a>, V2Error> {
        Ok(Roundtrip {
            file: V2File::walk(image)?,
            source: Source::Memory(image),
        })
    }

    /// Walks the `.pdt2` file `file` with positioned reads.
    pub fn read(file: &'a File) -> io::Result<Roundtrip<'a>> {
        let len = file.metadata()?.len() as usize;
        let file_walk = V2File::read(len, |at, buf| read_at(file, buf, at))?;
        Ok(Roundtrip {
            file: file_walk,
            source: Source::File(file),
        })
    }

    /// Replays every block through an [`IngestSession`] under `par`.
    pub fn analyze(&self, par: Parallelism) -> io::Result<Oracle> {
        let mut stats = CodecStats::default();
        let mut session =
            IngestSession::new(self.file.header, self.file.streams.len()).with_parallelism(par);
        for (si, meta) in self.file.streams.iter().enumerate() {
            let id = session.add_stream(meta.core, meta.dropped);
            let mut raw_left = raw_fill_budget(meta.raw_len, meta.payloads_len);
            let mut bi: u32 = 0;
            let mut structural_break = false;
            let region = self.region(meta.blocks_off, meta.present)?;
            for item in BlockIter::new(&region) {
                let Ok((prefix, payload)) = item else {
                    structural_break = true;
                    break;
                };
                let entry_ok = !meta.directory
                    || self
                        .file
                        .entry(si, bi)
                        .is_ok_and(|e| entry_matches(&e, &prefix));
                emit_block(
                    &mut session,
                    id,
                    &prefix,
                    payload,
                    entry_ok,
                    &mut raw_left,
                    &mut stats,
                );
                bi = bi.saturating_add(1);
            }
            if raw_left > 0 {
                append_zeros(&mut session, id, raw_left);
                stats.raw_bytes_out += raw_left;
                if structural_break || bi < meta.n_blocks {
                    stats.blocks_corrupt += 1;
                }
            }
            session.close_stream(id);
        }
        session.set_ctx_names(self.file.ctx_names.clone());
        session.finish();
        let analysis = session.snapshot();
        let mut loss = analysis.loss().clone();
        loss.truncated = self.file.truncation;
        Ok(Oracle {
            analysis,
            loss,
            stats,
        })
    }

    /// The `n` image bytes from offset `at`.
    fn region(&self, at: usize, n: usize) -> io::Result<Vec<u8>> {
        match self.source {
            Source::Memory(image) => Ok(image[at..at + n].to_vec()),
            Source::File(file) => {
                let mut buf = vec![0; n];
                read_at(file, &mut buf, at)?;
                Ok(buf)
            }
        }
    }
}

/// Fills `buf` from `file` at `at`; a file that ends first has shrunk
/// since it was walked.
fn read_at(file: &File, buf: &mut [u8], at: usize) -> io::Result<()> {
    file.read_exact_at(buf, at as u64)
        .map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "trace file shrank after it was opened",
            ),
            _ => e,
        })
}

/// A stream header's raw length, clamped to what its block region could
/// expand to (16 bytes out per payload byte, with a 10× margin) and to
/// 64 MiB, so a damaged length cannot make the zero stand-ins unbounded.
fn raw_fill_budget(raw_len: u64, payloads_len: u64) -> u64 {
    raw_len
        .min(payloads_len.saturating_mul(160).saturating_add(4096))
        .min(1 << 26)
}

/// Footer/prefix agreement.
fn entry_matches(entry: &BlockEntry, prefix: &BlockPrefix) -> bool {
    entry.kind == prefix.kind
        && entry.n_records == prefix.n_records
        && entry.raw_len == prefix.raw_len
        && entry.payload_len == prefix.payload_len
        && entry.payload_crc == prefix.payload_crc
}

/// Appends `len` zero bytes to a stream in bounded chunks.
fn append_zeros(session: &mut IngestSession, id: StreamId, mut len: u64) {
    const ZEROS: [u8; 4096] = [0; 4096];
    while len > 0 {
        let n = len.min(ZEROS.len() as u64) as usize;
        session.append(id, &ZEROS[..n]);
        len -= n as u64;
    }
}

/// Feeds one block into the session: its v1 bytes when it is trusted,
/// passes its CRC and yields its raw length, else a zero stand-in for
/// the bytes it claims, bounded by what the stream header still owes.
fn emit_block(
    session: &mut IngestSession,
    id: StreamId,
    prefix: &BlockPrefix,
    payload: &[u8],
    trusted: bool,
    raw_left: &mut u64,
    stats: &mut CodecStats,
) {
    if trusted && crc32(payload) == prefix.payload_crc {
        match prefix.kind {
            BlockKind::Packed => {
                if let Ok(records) = decode_packed_payload(payload, prefix.n_records) {
                    let raw = records_to_bytes(&records);
                    if raw.len() == prefix.raw_len as usize {
                        session.append(id, &raw);
                        stats.blocks_decoded += 1;
                        stats.records_decoded += u64::from(prefix.n_records);
                        stats.payload_bytes_read += payload.len() as u64;
                        stats.raw_bytes_out += raw.len() as u64;
                        *raw_left = raw_left.saturating_sub(raw.len() as u64);
                        return;
                    }
                }
            }
            BlockKind::Raw => {
                if prefix.raw_len == prefix.payload_len {
                    session.append(id, payload);
                    stats.blocks_decoded += 1;
                    stats.payload_bytes_read += payload.len() as u64;
                    stats.raw_bytes_out += payload.len() as u64;
                    *raw_left = raw_left.saturating_sub(payload.len() as u64);
                    return;
                }
            }
        }
    }
    let fill = u64::from(prefix.raw_len).min(*raw_left);
    append_zeros(session, id, fill);
    stats.blocks_corrupt += 1;
    stats.raw_bytes_out += fill;
    *raw_left -= fill;
}

/// Asserts that `V2Trace::analyze`'s output equals the oracle's: the
/// events, the anchors, the per-stream loss rows, the truncation record
/// and the codec counters.
pub fn assert_matches(what: &str, got: &Analysis, stats: &CodecStats, oracle: &Oracle) {
    assert_eq!(got.events(), oracle.analysis.events(), "{what}: events");
    assert_eq!(
        got.columns().anchors,
        oracle.analysis.columns().anchors,
        "{what}: anchors"
    );
    assert_eq!(got.loss().streams, oracle.loss.streams, "{what}: loss rows");
    assert_eq!(
        got.loss().truncated,
        oracle.loss.truncated,
        "{what}: truncation"
    );
    assert_eq!(*stats, oracle.stats, "{what}: codec stats");
}

/// What a strict analysis of `image` gives when the whole image is
/// unpacked to its v1 trace first and that trace is analyzed strictly
/// under `par`: the session, or the error text. An image without the v2
/// magic is read as a `.pdt`, as [`Analysis::open`] sniffs it.
pub fn strict_reference(image: &[u8], par: Parallelism) -> Result<Analysis, String> {
    let run = |builder: ta::AnalysisBuilder<'_>| {
        let builder = builder.parallelism(par).strict();
        builder.run().map_err(|e| e.to_string())
    };
    if !is_v2_image(image) {
        return run(Analysis::of(
            TraceImage::parse(image).map_err(|e| e.to_string())?,
        ));
    }
    let trace = pdt::unpack(image).map_err(|e| e.to_string())?;
    run(Analysis::of(&trace))
}
