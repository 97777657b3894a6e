//! The reader for the blocked, compressed v2 (`PDT2`) trace container.
//!
//! [`V2Trace`] is the one `.pdt2` reader, over an image in memory or
//! left in a file, as [`crate::TraceImage`] is for a `.pdt`. Opening it
//! walks the container structure with positioned reads
//! ([`V2File::read`]): the header, the stream headers, each stream's
//! footer directory and the name table, and no block. An image that
//! ends inside a structure keeps what it holds whole, and the walk
//! records where it stopped.
//!
//! [`V2Trace::analyze`] feeds the one per-stream decoder of
//! the one-shot ingest (`oneshot`). Each stream decodes as one
//! [`exec::map_indexed_with`] shard, all in one round, from one of two
//! sources:
//!
//! * A **clean** stream is read one block at a time (prefix and
//!   payload) into a buffer its executor reuses. Every inline prefix is
//!   cross-checked against its footer directory entry, and each packed
//!   block expands straight into the stream's run, with no v1 bytes
//!   in between.
//! * A **damaged** stream is read again, one block at a time, in the
//!   same shard: a prefix that disagrees with its footer, a failed CRC,
//!   an undecodable payload, a gap block, a short region, or no
//!   directory (the stream a truncated image ends inside, whose blocks
//!   are trusted by their prefixes). The v1 bytes its blocks stand for
//!   (the canonical re-encoding of each good block, a gap block's bytes
//!   verbatim, and zeros for each damaged block, bounded by the stream
//!   header's raw length) go through a lossy [`LossyCursor`], so the
//!   damage surfaces as [`pdt::DecodeGap`]s exactly as in the `.pdt`
//!   the container was packed from.
//!
//! The one-shot finish step then places every run, and the
//! [`crate::LossReport`] records where a truncated image ends. A clean
//! stream is read once, and a damaged one twice; the image is never
//! read whole.
//!
//! Under the strict policy the same decoder fails exactly as unpacking
//! the image ([`pdt::unpack`]) and decoding the v1 trace strictly
//! would (DESIGN.md, "The v2 container (`.pdt2`)"): a clean stream's raw
//! lengths must add up exactly, and any other stream is read whole,
//! unpacked ([`unpack_stream`]) and decoded as a strict `.pdt` stream.
//!
//! [`V2Trace::window_events`] is the skip path: it reads only the
//! packed blocks whose footer `[min_tb, max_tb]` overlaps the query
//! window and reconstructs global time from the footer's
//! `entry_dec`/`entry_elapsed`/`entry_seq` resume state without
//! touching any predecessor block.
//!
//! Products, loss accounting and [`CodecStats`] are byte-identical, in
//! memory and file-backed, to analyzing the v1 image the container was
//! packed from and to the v1-roundtrip oracle in the test suites
//! (`tests/common/roundtrip.rs`), which replays every block through an
//! [`crate::IngestSession`].

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use pdt::v2::{
    crc32, decode_packed_columns, decode_packed_payload, records_to_bytes, unpack_stream,
    Anchoring, BlockEntry, BlockKind, BlockPrefix, CodecStats, ColumnBatch, V2Error, V2File,
    FLAG_GAP, FLAG_UNPLACED, MAGIC2, PREFIX_BYTES,
};
use pdt::{check_in_stream, LossyCursor, TraceCore, TraceRecord};

use crate::analyze::{AnalyzeError, GlobalEvent};
use crate::columns::ColumnarTrace;
use crate::exec::{self, Parallelism};
use crate::loss::LossReport;
use crate::oneshot::{decode_v1, finish, Ingested, StreamDecode};
use crate::reader::{read_exact_at, ChunkBuf, ImageStream, Region};
use crate::session::Analysis;

/// True when `bytes` starts with the v2 container magic: the sniff of
/// [`Analysis::open`] and of `ta-cli pack`/`unpack`.
pub fn is_v2_image(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && &bytes[..4] == MAGIC2
}

/// [`is_v2_image`] on `file`'s first bytes; a file shorter than the
/// magic is not v2.
pub(crate) fn is_v2_file(file: &File) -> io::Result<bool> {
    let mut magic = [0u8; 4];
    match file.read_exact_at(&mut magic, 0) {
        Ok(()) => Ok(is_v2_image(&magic)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Clamps a stream header's claimed raw length to what its block
/// region could honestly expand to (the packed codec never exceeds
/// 16 bytes out per payload byte in; 160× leaves a 10× margin), plus
/// an absolute ceiling so a corrupted length field can never make the
/// zero-fill stand-in unbounded. The budget only limits damage
/// stand-ins — clean blocks append their real bytes regardless.
fn raw_fill_budget(raw_len: u64, payloads_len: u64) -> u64 {
    raw_len
        .min(payloads_len.saturating_mul(160).saturating_add(4096))
        .min(1 << 26)
}

// ---------------------------------------------------------------------
// The reader.
// ---------------------------------------------------------------------

/// Why one stream's decode stopped: a read of its block region from
/// region offset `at`, or the strict policy's refusal.
#[derive(Debug)]
enum Failure {
    Read { at: usize, error: io::Error },
    Strict(AnalyzeError),
}

/// Result of a footer-skipping windowed query on a v2 container.
#[derive(Debug, Clone)]
pub struct WindowQuery {
    /// Events with reconstructed global time in `[start_tb, end_tb)`,
    /// in the analyzer's global order.
    pub events: Vec<GlobalEvent>,
    /// True when damage or unplaced data overlapping the window means
    /// the event list may be incomplete (gap blocks bracketing the
    /// window, corrupt footers/payloads, unanchored streams with
    /// records, a stream without its directory).
    pub suspect: bool,
    /// What the query actually decoded vs skipped.
    pub stats: CodecStats,
}

/// A v2 image opened for analysis, in memory or left in a file: its
/// container structure ([`V2File`]) and where its blocks are. One-shot
/// analysis cross-checks every block against its footer, and windowed
/// queries skip non-overlapping blocks without reading them.
#[derive(Debug, Clone)]
pub struct V2Trace<'a> {
    file: V2File,
    /// The whole image.
    source: Region<'a>,
}

impl<'a> V2Trace<'a> {
    /// Walks the container structure of a whole image held in memory
    /// (no payload is read or decoded).
    ///
    /// # Errors
    ///
    /// Returns [`V2Error`] when the image is not structurally a whole
    /// v2 container (bad magic/version, an invalid stream directory or
    /// name, or truncation). [`analyze_v2`] analyzes a truncated image
    /// instead.
    pub fn parse(image: &'a [u8]) -> Result<V2Trace<'a>, V2Error> {
        Ok(V2Trace {
            file: V2File::parse(image)?,
            source: Region::Memory(image),
        })
    }

    /// Walks the container structure of the `.pdt2` file `file` with
    /// positioned reads and leaves every block in the file for analysis
    /// to read. A file that ends inside a structure keeps what it holds
    /// whole, and [`V2File::truncation`] says where it ends.
    ///
    /// # Errors
    ///
    /// The I/O error of a read, or, as an
    /// [`InvalidData`](io::ErrorKind::InvalidData) error that displays
    /// as itself, the [`V2Error`] of a file that is not a v2 container
    /// or ends inside its header.
    pub fn read(file: &File) -> io::Result<V2Trace<'a>> {
        let file = Arc::new(file.try_clone()?);
        let len = usize::try_from(file.metadata()?.len()).map_err(io::Error::other)?;
        Ok(V2Trace {
            file: V2File::read(len, |at, buf| read_exact_at(&file, buf, at as u64))?,
            source: Region::File { file, offset: 0 },
        })
    }

    /// The container structure.
    pub fn file(&self) -> &V2File {
        &self.file
    }

    /// Decodes every stream and runs the full analysis pipeline. Each
    /// stream decodes as one [`exec::map_indexed_with`] shard under
    /// `par`, all in one round, and the one-shot finish step places the
    /// runs. A damaged stream is read again in its own shard, and its
    /// damage becomes decode gaps in the [`crate::LossReport`], as in
    /// the `.pdt` the container was packed from; the report also
    /// records where a truncated image ends.
    ///
    /// # Errors
    ///
    /// The I/O error of a file-backed read, including a file that
    /// shrank after it was opened. In memory, reads cannot fail.
    pub fn analyze(&self, par: Parallelism) -> io::Result<(Arc<Analysis>, CodecStats)> {
        let (trace, loss, stats) = match self.decode(false, par) {
            Ok(out) => out,
            Err((_, Failure::Read { error, .. })) => return Err(error),
            Err((_, Failure::Strict(e))) => unreachable!("a lossy decode refuses nothing: {e}"),
        };
        let a = Analysis::from_shared(Arc::new(trace), loss, par);
        Ok((Arc::new(a), stats))
    }

    /// The store and loss report of [`analyze`](Self::analyze), for
    /// [`Analysis::open`]'s builder; if `strict`, the first error of
    /// unpacking the image and decoding it strictly.
    pub(crate) fn ingest(&self, strict: bool, par: Parallelism) -> Result<Ingested, AnalyzeError> {
        if let Some(t) = self.file.truncation.filter(|_| strict) {
            let reading = t.reading;
            return Err(AnalyzeError::Container(V2Error::Truncated { reading }));
        }
        match self.decode(strict, par) {
            Ok((trace, loss, _)) => Ok((trace, loss)),
            Err((si, Failure::Read { at, error })) => Err(AnalyzeError::Read {
                core: self.file.streams[si].core,
                offset: at,
                message: error.to_string(),
            }),
            Err((_, Failure::Strict(e))) => Err(e),
        }
    }

    /// Decodes every stream, one [`exec::map_indexed_with`] shard each,
    /// and places the runs. The failure returned, with its stream, is
    /// the first container error, else the first failure, as when the
    /// whole image was unpacked before any stream decoded.
    fn decode(
        &self,
        strict: bool,
        par: Parallelism,
    ) -> Result<(ColumnarTrace, LossReport, CodecStats), (usize, Failure)> {
        let mut shards =
            exec::map_indexed_with(par, self.file.streams.len(), Vec::new, |buf, si| {
                self.decode_stream(si, strict, buf)
            });
        let container = |f: &Failure| matches!(f, Failure::Strict(AnalyzeError::Container(_)));
        let first = (0..shards.len())
            .filter(|&si| shards[si].is_err())
            .min_by_key(|&si| (!shards[si].as_ref().is_err_and(container), si));
        if let Some(si) = first {
            if let Err(f) = shards.swap_remove(si) {
                return Err((si, f));
            }
        }
        let mut stats = CodecStats::default();
        let mut decoded = Vec::with_capacity(shards.len());
        for (st, shard_stats) in shards.into_iter().flatten() {
            stats.merge(&shard_stats);
            decoded.push(st);
        }
        let (trace, mut loss) = finish(self.file.header, decoded, &self.file.ctx_names);
        loss.truncated = self.file.truncation;
        Ok((trace, loss, stats))
    }

    /// Decodes stream `si` and accounts its blocks, reading through
    /// `buf`: block by block as a clean stream, and once more if it
    /// shows damage, through [`rescan`](Self::rescan), or under the
    /// strict policy through [`unpack`](Self::unpack).
    fn decode_stream(
        &self,
        si: usize,
        strict: bool,
        buf: &mut Vec<u8>,
    ) -> Result<(StreamDecode, CodecStats), Failure> {
        let meta = &self.file.streams[si];
        let mut st = StreamDecode::new(meta.core, meta.dropped);
        let mut stats = CodecStats::default();
        if self.decode_clean(si, strict, &mut st, &mut stats, buf)? {
            Ok((st, stats))
        } else if strict {
            Ok((self.unpack(si, buf)?, CodecStats::default()))
        } else {
            self.rescan(si, buf)
        }
    }

    /// The `n` bytes of stream `si`'s block region from region offset
    /// `at`, read through `buf` when the image is in a file.
    fn read_region<'b>(
        &'b self,
        si: usize,
        at: usize,
        n: usize,
        buf: &'b mut Vec<u8>,
    ) -> Result<&'b [u8], Failure> {
        let from = self.file.streams[si].blocks_off + at;
        self.source
            .bytes(from, n, buf)
            .map_err(|error| Failure::Read { at, error })
    }

    /// Decodes damaged stream `si` under the strict policy: its block
    /// region, read whole through `buf`, unpacks as in [`pdt::unpack`]
    /// and decodes as a strict `.pdt` stream.
    fn unpack(&self, si: usize, buf: &mut Vec<u8>) -> Result<StreamDecode, Failure> {
        let meta = &self.file.streams[si];
        let region = self.read_region(si, 0, meta.present, buf)?;
        let v1 =
            unpack_stream(meta, region).map_err(|e| Failure::Strict(AnalyzeError::Container(e)))?;
        let stream = ImageStream::memory(meta.core, meta.dropped, &v1);
        decode_v1(&stream, true, &mut ChunkBuf::default()).map_err(Failure::Strict)
    }

    /// Decodes stream `si` onto `st`, one block at a time, as a clean
    /// stream: each packed block expands straight into the run. False,
    /// leaving `st` and `stats` to be dropped, unless every inline
    /// prefix agrees with its CRC-protected footer entry, no block is a
    /// gap stand-in, every block is packed, passes its CRC and decodes
    /// to the raw length its prefix claims, every record passes the
    /// stream invariants of the lossy v1 scan ([`check_in_stream`]; one
    /// that fails them is a gap there), the blocks fill the region
    /// exactly, and their raw lengths cover the fill budget of the
    /// stream header's raw length (no bytes are missing); under the
    /// `strict` policy, they add up to that raw length exactly.
    fn decode_clean(
        &self,
        si: usize,
        strict: bool,
        st: &mut StreamDecode,
        stats: &mut CodecStats,
        buf: &mut Vec<u8>,
    ) -> Result<bool, Failure> {
        let meta = &self.file.streams[si];
        let mut batch = ColumnBatch::default();
        let (mut off, mut raw_sum, mut prev_dec) = (0usize, 0u64, None);
        for bi in 0..meta.n_blocks {
            let Ok(entry) = self.file.entry(si, bi) else {
                return Ok(false);
            };
            let len = PREFIX_BYTES + entry.payload_len as usize;
            if entry.flags & FLAG_GAP != 0 || len > meta.present - off {
                return Ok(false);
            }
            let (prefix, payload) = self.read_region(si, off, len, buf)?.split_at(PREFIX_BYTES);
            let clean = BlockPrefix::decode(prefix).is_ok_and(|p| entry_matches(&entry, &p))
                && entry.kind == BlockKind::Packed
                && crc32(payload) == entry.payload_crc
                && decode_packed_columns(payload, entry.n_records, &mut batch).is_ok()
                && batch.raw_len() == u64::from(entry.raw_len);
            if !clean {
                return Ok(false);
            }
            for k in 0..batch.len() {
                let (time, tag) = (batch.timestamps[k], batch.tags[k]);
                if check_in_stream(meta.core, TraceCore::from_tag(tag), time, prev_dec).is_err() {
                    return Ok(false);
                }
                if meta.core.is_spe() {
                    prev_dec = Some(time as u32);
                }
                st.record(time, tag, batch.codes[k], batch.params_of(k));
            }
            stats.blocks_decoded += 1;
            stats.records_decoded += u64::from(entry.n_records);
            stats.payload_bytes_read += payload.len() as u64;
            stats.raw_bytes_out += u64::from(entry.raw_len);
            raw_sum += u64::from(entry.raw_len);
            off += len;
        }
        let whole = if strict {
            raw_sum == meta.raw_len
        } else {
            raw_sum >= raw_fill_budget(meta.raw_len, meta.payloads_len)
        };
        Ok(off == meta.present && whole)
    }

    /// Reads damaged stream `si` again, one block at a time through
    /// `buf`, following the inline prefixes, and decodes the v1 bytes
    /// its blocks stand for through a lossy [`LossyCursor`]: a good
    /// block's canonical re-encoding (a raw gap block's bytes
    /// verbatim), and zeros for a damaged block and for the raw bytes
    /// no block covers, bounded by [`raw_fill_budget`]. A block is good
    /// when it agrees with its footer entry (while the stream has a
    /// directory), passes its CRC and yields the raw length its prefix
    /// claims. The stream's `CodecStats` come from this pass alone.
    fn rescan(&self, si: usize, buf: &mut Vec<u8>) -> Result<(StreamDecode, CodecStats), Failure> {
        let meta = &self.file.streams[si];
        let mut st = StreamDecode::new(meta.core, meta.dropped);
        let mut stats = CodecStats::default();
        let mut cursor = LossyCursor::new(Some(meta.core));
        let mut raw_left = raw_fill_budget(meta.raw_len, meta.payloads_len);
        let (mut off, mut bi) = (0usize, 0u32);
        // Set when a prefix is unreadable or runs past the region.
        let mut broken = false;
        while off < meta.present {
            let left = meta.present - off;
            let bytes = self.read_region(si, off, PREFIX_BYTES.min(left), buf)?;
            let Ok(prefix) = BlockPrefix::decode(bytes) else {
                broken = true;
                break;
            };
            let len = prefix.payload_len as usize;
            if len > left - PREFIX_BYTES {
                broken = true;
                break;
            }
            let payload = self.read_region(si, off + PREFIX_BYTES, len, buf)?;
            let trusted = !meta.directory
                || self
                    .file
                    .entry(si, bi)
                    .is_ok_and(|e| entry_matches(&e, &prefix));
            let raw = if trusted && crc32(payload) == prefix.payload_crc {
                block_bytes(&prefix, payload)
            } else {
                None
            };
            match raw {
                Some(raw) => {
                    stats.blocks_decoded += 1;
                    if prefix.kind == BlockKind::Packed {
                        stats.records_decoded += u64::from(prefix.n_records);
                    }
                    stats.payload_bytes_read += payload.len() as u64;
                    stats.raw_bytes_out += raw.len() as u64;
                    raw_left = raw_left.saturating_sub(raw.len() as u64);
                    cursor.push(&raw);
                }
                None => {
                    let fill = u64::from(prefix.raw_len).min(raw_left);
                    stats.blocks_corrupt += 1;
                    stats.raw_bytes_out += fill;
                    raw_left -= fill;
                    push_zeros(&mut cursor, fill);
                }
            }
            take_decoded(&mut cursor, &mut st);
            off += PREFIX_BYTES + len;
            bi = bi.saturating_add(1);
        }
        if raw_left > 0 {
            // Fewer bytes than the stream header promised: the missing
            // tail becomes one gap.
            push_zeros(&mut cursor, raw_left);
            stats.raw_bytes_out += raw_left;
            if broken || bi < meta.n_blocks {
                stats.blocks_corrupt += 1;
            }
        }
        cursor.finish();
        take_decoded(&mut cursor, &mut st);
        Ok((st, stats))
    }

    /// Events whose reconstructed global time falls in the half-open
    /// window `[start_tb, end_tb)`, reading and decoding **only** packed
    /// blocks whose footer time range overlaps the window. Gap blocks
    /// are never decoded; one bracketing the window sets `suspect`, as
    /// do corrupt footers/payloads, unanchored streams carrying records
    /// and a stream without its directory. Event order matches
    /// [`crate::EventFilter`] applied to the full analysis.
    ///
    /// # Errors
    ///
    /// The I/O error of a file-backed read.
    pub fn window_events(&self, start_tb: u64, end_tb: u64) -> io::Result<WindowQuery> {
        let mut stats = CodecStats::default();
        let mut suspect = false;
        let mut events: Vec<GlobalEvent> = Vec::new();
        let mut buf = Vec::new();
        for (si, meta) in self.file.streams.iter().enumerate() {
            if !meta.directory {
                // The stream a truncated image ends inside: no footer
                // says what its blocks hold.
                stats.blocks_corrupt += 1;
                suspect = true;
                continue;
            }
            for bi in 0..meta.n_blocks {
                let entry = match self.file.entry(si, bi) {
                    Ok(e) => e,
                    Err(_) => {
                        stats.blocks_corrupt += 1;
                        suspect = true;
                        continue;
                    }
                };
                if meta.anchoring == Anchoring::Unanchored || entry.flags & FLAG_UNPLACED != 0 {
                    // Unplaced footers carry no usable time range; the
                    // analyzer discards these events as unanchored.
                    stats.blocks_skipped += 1;
                    suspect |= entry.n_records > 0;
                    continue;
                }
                if entry.kind == BlockKind::Raw {
                    // Gap bytes: never decoded. If the gap's bracket
                    // touches the window, events may be missing here.
                    stats.blocks_skipped += 1;
                    suspect |= entry.overlaps(start_tb, end_tb);
                    continue;
                }
                if !entry.overlaps(start_tb, end_tb) {
                    stats.blocks_skipped += 1;
                    continue;
                }
                let payload = match self.file.payload_range(si, &entry) {
                    Ok(range) => Some(self.source.bytes(
                        meta.blocks_off + range.start,
                        range.len(),
                        &mut buf,
                    )?),
                    Err(_) => None,
                };
                let decoded = payload
                    .filter(|p| crc32(p) == entry.payload_crc)
                    .and_then(|p| Some((p.len(), decode_packed_payload(p, entry.n_records).ok()?)));
                let Some((payload_len, records)) = decoded else {
                    stats.blocks_corrupt += 1;
                    suspect = true;
                    continue;
                };
                stats.blocks_decoded += 1;
                stats.records_decoded += records.len() as u64;
                stats.payload_bytes_read += payload_len as u64;
                place_block_events(
                    meta.anchoring,
                    meta.run_tb,
                    &entry,
                    &records,
                    start_tb,
                    end_tb,
                    &mut events,
                );
            }
        }
        // Same global order the analyzer produces: sort is stable and
        // streams were visited in directory order, so ties beyond the
        // key keep stream order exactly like the one-shot sort.
        events.sort_by(|a, b| {
            (a.time_tb, a.core.tag(), a.stream_seq).cmp(&(b.time_tb, b.core.tag(), b.stream_seq))
        });
        Ok(WindowQuery {
            events,
            suspect,
            stats,
        })
    }
}

/// Footer/prefix agreement check for the one-shot integrity policy.
fn entry_matches(entry: &BlockEntry, prefix: &BlockPrefix) -> bool {
    entry.kind == prefix.kind
        && entry.n_records == prefix.n_records
        && entry.raw_len == prefix.raw_len
        && entry.payload_len == prefix.payload_len
        && entry.payload_crc == prefix.payload_crc
}

/// Reconstructs global time for one decoded packed block from its
/// footer resume state and appends the records landing in the window.
fn place_block_events(
    anchoring: Anchoring,
    run_tb: u64,
    entry: &BlockEntry,
    records: &[TraceRecord],
    start_tb: u64,
    end_tb: u64,
    out: &mut Vec<GlobalEvent>,
) {
    let (mut prev, mut elapsed) = (entry.entry_dec, entry.entry_elapsed);
    for (j, rec) in records.iter().enumerate() {
        let t = match anchoring {
            Anchoring::Ppe => rec.timestamp,
            Anchoring::Anchored => {
                let dec = rec.timestamp as u32;
                elapsed += u64::from(prev.wrapping_sub(dec));
                prev = dec;
                run_tb.wrapping_add(elapsed)
            }
            Anchoring::Unanchored => return,
        };
        if t >= start_tb && t < end_tb {
            out.push(GlobalEvent {
                time_tb: t,
                core: rec.core,
                code: rec.code,
                params: rec.params.clone(),
                stream_seq: entry.entry_seq + j as u64,
            });
        }
    }
}

/// The v1 bytes of a block that passed its footer check and CRC: the
/// canonical re-encoding of a packed block's records, or a raw block's
/// bytes. `None` when a packed payload does not decode, or either kind
/// yields a length other than its prefix's raw length.
fn block_bytes<'p>(prefix: &BlockPrefix, payload: &'p [u8]) -> Option<Cow<'p, [u8]>> {
    let raw = match prefix.kind {
        BlockKind::Packed => {
            let records = decode_packed_payload(payload, prefix.n_records).ok()?;
            Cow::Owned(records_to_bytes(&records))
        }
        BlockKind::Raw => Cow::Borrowed(payload),
    };
    (raw.len() == prefix.raw_len as usize).then_some(raw)
}

/// Pushes `n` zero bytes, which the cursor decodes to one gap.
fn push_zeros(cursor: &mut LossyCursor, mut n: u64) {
    let zeros = [0u8; 4096];
    while n > 0 {
        let k = n.min(zeros.len() as u64) as usize;
        cursor.push(&zeros[..k]);
        n -= k as u64;
    }
}

/// Moves what `cursor` has decoded so far onto `st`.
fn take_decoded(cursor: &mut LossyCursor, st: &mut StreamDecode) {
    let out = cursor.take_output();
    for r in &out.records {
        st.record(r.timestamp, r.core.tag(), r.code, &r.params);
    }
    out.gaps.into_iter().for_each(|g| st.gap(g));
}

/// Analyzes a v2 image held in memory through [`V2Trace::analyze`]. An
/// image that ends inside a structure keeps the prefix the container
/// walk holds whole, so truncation degrades to loss accounting: the
/// stream it ends inside carries a trailing gap, streams whose headers
/// are missing are absent, and the loss report records where it ends.
///
/// # Errors
///
/// Returns [`V2Error`] when the bytes are not a v2 image at all (bad
/// magic/version, an invalid stream directory or name, or truncated
/// before the header completed).
pub fn analyze_v2(image: &[u8], par: Parallelism) -> Result<(Arc<Analysis>, CodecStats), V2Error> {
    let trace = V2Trace {
        file: V2File::walk(image)?,
        source: Region::Memory(image),
    };
    // Reads from memory fail only past the image's end.
    trace.analyze(par).map_err(|_| V2Error::Truncated {
        reading: "block region",
    })
}
