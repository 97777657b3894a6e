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
//! [`V2Trace::analyze`] has two decoders:
//!
//! * The **direct-to-columns** decoder, taken by every whole, clean
//!   image. Each stream decodes as one [`exec::map_indexed_with`]
//!   shard, which reads the stream one block at a time (prefix and
//!   payload) into a buffer its executor reuses, cross-checks every
//!   inline prefix against its footer directory entry, and expands
//!   each block straight into the stream's [`crate::oneshot`] run
//!   (parameters interned as they decode), skipping the v1-byte
//!   reconstruction. SPE records sit at provisional,
//!   decrementer-relative times, since their anchor may be in a later
//!   stream. One finish step then picks the anchor winners, shifts each
//!   anchored SPE run onto the global timeline in O(1) and lays the
//!   runs out core-major with the one-shot placement, which frees each
//!   run as it is copied. There is no merge.
//! * The **v1-roundtrip** decoder re-encodes clean runs canonically,
//!   carries gap bytes verbatim, and feeds the reconstructed v1 record
//!   bytes through [`IngestSession`], zero-filling damaged blocks so
//!   they surface as `DecodeGap`s — the oracle the direct decoder is
//!   differentialed against, and the path of *any* structural damage
//!   (a footer/prefix mismatch, a failed CRC, a gap block, a short
//!   region), of a run that would wrap past `u64::MAX`, and of a
//!   truncated image. The stream a truncated image ends inside has no
//!   directory, so its blocks are trusted by their prefixes, and the
//!   [`crate::LossReport`] records the truncation.
//!
//! [`V2Trace::window_events`] is the skip path: it reads only the
//! packed blocks whose footer `[min_tb, max_tb]` overlaps the query
//! window and reconstructs global time from the footer's
//! `entry_dec`/`entry_elapsed`/`entry_seq` resume state without
//! touching any predecessor block.
//!
//! Products, loss accounting and resync behaviour are byte-identical
//! between the two decoders, in memory and file-backed, and to
//! analyzing the v1 image the container was packed from — the
//! differential suites in `tests/v2_differential.rs` pin products
//! *and* [`CodecStats`] on every golden.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use pdt::v2::{
    crc32, decode_packed_columns, decode_packed_payload, records_to_bytes, Anchoring, BlockEntry,
    BlockIter, BlockKind, BlockPrefix, CodecStats, ColumnBatch, V2Error, V2File, FLAG_GAP,
    FLAG_UNPLACED, MAGIC2, PREFIX_BYTES,
};
use pdt::{TraceCore, TraceHeader, TraceRecord};

use crate::analyze::{GlobalEvent, SpeAnchor};
use crate::columns::ColumnarTrace;
use crate::exec::{self, Parallelism};
use crate::loss::{LossReport, StreamLoss};
use crate::oneshot::{harvest, pick_anchors, place, Events, Run};
use crate::reader::{read_exact_at, Region};
use crate::session::Analysis;
use crate::stream::{IngestSession, StreamId};

/// True when `bytes` starts with the v2 container magic — the sniff
/// used by `ta-cli` to route `.pdt` vs `.pdt2` images.
pub fn is_v2_image(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && &bytes[..4] == MAGIC2
}

/// True when `file` starts with the v2 container magic: the sniff of
/// [`is_v2_image`], reading only the magic.
///
/// # Errors
///
/// The I/O error of the read; a file shorter than the magic is not v2.
pub fn is_v2_file(file: &File) -> io::Result<bool> {
    let mut magic = [0u8; 4];
    match file.read_exact_at(&mut magic, 0) {
        Ok(()) => Ok(is_v2_image(&magic)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

const ZEROS: [u8; 4096] = [0; 4096];

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

/// Appends `len` zero bytes to a stream in bounded chunks. The lossy
/// v1 decoder turns the run into a single `ZeroLength` gap.
fn append_zeros(session: &mut IngestSession, id: StreamId, mut len: u64) {
    while len > 0 {
        let n = len.min(ZEROS.len() as u64) as usize;
        session.append(id, &ZEROS[..n]);
        len -= n as u64;
    }
}

/// Feeds one block into the session: CRC-verify, decode (packed) or
/// pass through (raw), zero-fill on any damage. `trusted_ok` carries
/// the caller's extra integrity verdict: the footer cross-check, or
/// `true` for a stream without a directory.
fn emit_block(
    session: &mut IngestSession,
    id: StreamId,
    prefix: &BlockPrefix,
    payload: &[u8],
    trusted_ok: bool,
    raw_left: &mut u64,
    stats: &mut CodecStats,
) {
    let good = trusted_ok && crc32(payload) == prefix.payload_crc;
    if good {
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
    // Damaged block: stand in a zero range for the bytes it claimed to
    // cover, capped by what the stream header still owes us so a lying
    // length field cannot inflate the fill.
    let fill = u64::from(prefix.raw_len).min(*raw_left);
    append_zeros(session, id, fill);
    stats.blocks_corrupt += 1;
    stats.raw_bytes_out += fill;
    *raw_left -= fill;
}

// ---------------------------------------------------------------------
// The reader.
// ---------------------------------------------------------------------

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
    pub fn read(file: &'a File) -> io::Result<V2Trace<'a>> {
        let len = usize::try_from(file.metadata()?.len()).map_err(io::Error::other)?;
        Ok(V2Trace {
            file: V2File::read(len, |at, buf| read_exact_at(file, buf, at as u64))?,
            source: Region::File { file, offset: 0 },
        })
    }

    /// The container structure.
    pub fn file(&self) -> &V2File {
        &self.file
    }

    /// Decodes every block and runs the full analysis pipeline.
    ///
    /// A whole, clean container takes the direct-to-columns path:
    /// packed payloads decode straight into per-stream runs laid out
    /// core-major, skipping the v1-byte round trip entirely. Any damage
    /// — a footer/prefix mismatch, a failed CRC, a gap block, a decode
    /// error, a truncated image — and the whole image takes
    /// [`analyze_roundtrip`](Self::analyze_roundtrip), so loss
    /// accounting stays byte-identical to the v1 reader in every
    /// degraded case. Products are byte-identical between the two
    /// paths (pinned per golden in `tests/v2_differential.rs`).
    ///
    /// # Errors
    ///
    /// The I/O error of a file-backed read, including a file that
    /// shrank after it was opened. In memory, reads cannot fail.
    pub fn analyze(&self, par: Parallelism) -> io::Result<(Arc<Analysis>, CodecStats)> {
        if self.file.truncation.is_none() {
            if let Some(out) = self.analyze_direct(par)? {
                return Ok(out);
            }
        }
        self.analyze_roundtrip(par)
    }

    /// The v1-roundtrip reader: every block decodes to v1 record bytes
    /// that replay through an [`IngestSession`], exactly as if the
    /// original `.pdt` image were analyzed. The damage path of
    /// [`analyze`](Self::analyze) and the differential oracle the
    /// direct decoder is tested against. It reads each stream's block
    /// region whole.
    ///
    /// Each inline prefix is cross-checked against its footer
    /// directory entry; a mismatch or an unreadable footer marks the
    /// block corrupt (zero-filled), so flipped footer bytes surface in
    /// the [`crate::LossReport`] rather than going unnoticed. The
    /// stream a truncated image ends inside has no directory: its
    /// blocks are trusted by their prefixes, and the missing tail of
    /// its raw bytes is zero-filled.
    ///
    /// # Errors
    ///
    /// The I/O error of a file-backed read.
    pub fn analyze_roundtrip(&self, par: Parallelism) -> io::Result<(Arc<Analysis>, CodecStats)> {
        let mut stats = CodecStats::default();
        let mut session =
            IngestSession::new(self.file.header, self.file.streams.len()).with_parallelism(par);
        let mut buf = Vec::new();
        for (si, meta) in self.file.streams.iter().enumerate() {
            let id = session.add_stream(meta.core, meta.dropped);
            let mut raw_left = raw_fill_budget(meta.raw_len, meta.payloads_len);
            let mut bi: u32 = 0;
            let mut structural_break = false;
            let region = self.source.bytes(meta.blocks_off, meta.present, &mut buf)?;
            for item in BlockIter::new(region) {
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
                // Structural damage or fewer blocks than the stream
                // header promised: the missing tail becomes one gap.
                append_zeros(&mut session, id, raw_left);
                stats.raw_bytes_out += raw_left;
                if structural_break || bi < meta.n_blocks {
                    stats.blocks_corrupt += 1;
                }
            }
            session.close_stream(id);
        }
        session.set_ctx_names(self.file.ctx_names.clone());
        session.set_truncated(self.file.truncation);
        session.finish();
        Ok((session.snapshot(), stats))
    }

    /// The direct-to-columns fast path: decodes every stream as one
    /// [`exec::map_indexed_with`] shard under `par` (SPE times stay
    /// provisional until the finish step, so no stream waits on
    /// another's anchors) and lays the runs out with the one-shot
    /// placement. `None` on any damage or disorder, or when an anchored
    /// run would wrap; the caller then takes the roundtrip reader,
    /// which reads the image again (degraded images cost one wasted
    /// pass, never wrong output).
    fn analyze_direct(&self, par: Parallelism) -> io::Result<Option<(Arc<Analysis>, CodecStats)>> {
        let streams = &self.file.streams;
        let shards = exec::map_indexed_with(par, streams.len(), Vec::new, |buf, si| {
            self.decode_direct(si, buf)
        });
        let mut stats = CodecStats::default();
        let mut decoded = Vec::with_capacity(streams.len());
        for shard in shards {
            let Some((st, shard_stats)) = shard? else {
                return Ok(None);
            };
            stats.merge(&shard_stats);
            decoded.push(st);
        }
        let analysis = finish_direct(self.file.header, decoded, &self.file.ctx_names, par);
        Ok(analysis.map(|a| (a, stats)))
    }

    /// Decodes stream `si` into its run, reading one block at a time
    /// into `buf`. `None` unless every inline prefix agrees with its
    /// CRC-protected footer entry, no block is a gap stand-in, the
    /// blocks fill the region exactly, their raw lengths cover the
    /// zero-fill budget of the stream header's raw length (so the
    /// roundtrip reader would append no trailing gap), and
    /// [`StreamDecode::emit`] takes every block (kind, payload CRC,
    /// decode, raw length, PPE order): the conditions under which the
    /// roundtrip reader would decode every block cleanly with empty
    /// loss.
    fn decode_direct(
        &self,
        si: usize,
        buf: &mut Vec<u8>,
    ) -> io::Result<Option<(StreamDecode, CodecStats)>> {
        let meta = &self.file.streams[si];
        let mut st = StreamDecode::new(meta.core, meta.dropped);
        let (mut batch, mut stats) = (ColumnBatch::default(), CodecStats::default());
        let (mut off, mut raw_sum) = (0usize, 0u64);
        for bi in 0..meta.n_blocks {
            let Ok(entry) = self.file.entry(si, bi) else {
                return Ok(None);
            };
            let len = PREFIX_BYTES + entry.payload_len as usize;
            if entry.flags & FLAG_GAP != 0 || len > meta.present - off {
                return Ok(None);
            }
            let (prefix, payload) = self
                .source
                .bytes(meta.blocks_off + off, len, buf)?
                .split_at(PREFIX_BYTES);
            let prefix = match BlockPrefix::decode(prefix) {
                Ok(p) if entry_matches(&entry, &p) => p,
                _ => return Ok(None),
            };
            if st.emit(&prefix, payload, &mut batch, &mut stats).is_none() {
                return Ok(None);
            }
            raw_sum += u64::from(prefix.raw_len);
            off += len;
        }
        let whole =
            off == meta.present && raw_sum >= raw_fill_budget(meta.raw_len, meta.payloads_len);
        Ok(whole.then_some((st, stats)))
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
    match anchoring {
        Anchoring::Ppe => {
            for (j, rec) in records.iter().enumerate() {
                let t = rec.timestamp;
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
        Anchoring::Anchored => {
            let mut prev = entry.entry_dec;
            let mut elapsed = entry.entry_elapsed;
            for (j, rec) in records.iter().enumerate() {
                let dec = rec.timestamp as u32;
                elapsed += u64::from(prev.wrapping_sub(dec));
                prev = dec;
                let t = run_tb.wrapping_add(elapsed);
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
        Anchoring::Unanchored => {}
    }
}

// ---------------------------------------------------------------------
// Direct-to-columns decode: one per-stream decoder, one finish step.
// ---------------------------------------------------------------------

/// One stream decoding straight into an [`Events`] run, with its
/// parameters interned as they arrive.
///
/// PPE records keep their own timestamps. SPE records are pushed at
/// their *provisional* elapsed time, `Σ dec deltas` since the stream's
/// first record, in the 4-byte step form: the anchor that places them
/// may arrive after the SPE data, and it only shifts the whole run by a
/// constant, which [`finish_direct`] applies. That matches the
/// session's `run_tb + elapsed` placement exactly.
#[derive(Debug)]
struct StreamDecode {
    core: TraceCore,
    dropped: u64,
    ev: Events,
    /// First record's decrementer value (SPE streams).
    first_dec: u32,
    /// Previous record's decrementer value (SPE streams).
    prev_dec: u32,
    /// Provisional elapsed ticks of the latest record (SPE streams).
    elapsed: u64,
    /// Last `(time, tag)` sort key (PPE order validation).
    last: (u64, u8),
    /// The sync anchors this stream carries, first per SPE.
    anchors: Vec<SpeAnchor>,
}

impl StreamDecode {
    fn new(core: TraceCore, dropped: u64) -> Self {
        StreamDecode {
            core,
            dropped,
            ev: Events::default(),
            first_dec: 0,
            prev_dec: 0,
            elapsed: 0,
            last: (0, 0),
            anchors: Vec::new(),
        }
    }

    /// Decodes one block (through `batch`) onto the run and accounts
    /// it. `None` when the block is not a cleanly decodable packed block
    /// (wrong kind, failed CRC, undecodable payload, a raw length other
    /// than the prefix's) or a PPE block's sort keys go backwards, which
    /// the session would handle by sorting.
    fn emit(
        &mut self,
        prefix: &BlockPrefix,
        payload: &[u8],
        batch: &mut ColumnBatch,
        stats: &mut CodecStats,
    ) -> Option<()> {
        if prefix.kind != BlockKind::Packed || crc32(payload) != prefix.payload_crc {
            return None;
        }
        decode_packed_columns(payload, prefix.n_records, batch).ok()?;
        if batch.raw_len() != u64::from(prefix.raw_len) {
            return None;
        }
        for k in 0..batch.len() {
            let (code, params) = (batch.codes[k], batch.params_of(k));
            if self.core.is_spe() {
                let dec = batch.timestamps[k] as u32;
                if self.ev.len() == 0 {
                    (self.first_dec, self.prev_dec) = (dec, dec);
                }
                self.elapsed += u64::from(self.prev_dec.wrapping_sub(dec));
                self.prev_dec = dec;
                self.ev.push(self.elapsed, self.core.tag(), code, params);
            } else {
                let key = (batch.timestamps[k], batch.tags[k]);
                if key < self.last {
                    return None;
                }
                self.last = key;
                harvest(code, key.0, params, &mut self.anchors);
                self.ev.push(key.0, key.1, code, params);
            }
        }
        stats.blocks_decoded += 1;
        stats.records_decoded += u64::from(prefix.n_records);
        stats.payload_bytes_read += payload.len() as u64;
        stats.raw_bytes_out += u64::from(prefix.raw_len);
        Some(())
    }
}

/// The direct decoder's finish step: picks the anchor winners, moves
/// each anchored SPE run onto the global timeline, drops the unanchored
/// ones (the session discards their events too), builds the loss rows
/// and lays the runs out through [`place`].
///
/// An anchored SPE run's true time is `offset + provisional elapsed`
/// with `offset = run_tb + (dec_start - first_dec)`. `None` when the
/// offset, or its sum with the run's last (largest) elapsed value,
/// overflows u64: placement would wrap where the session sorts, so the
/// caller takes the roundtrip reader.
fn finish_direct(
    header: TraceHeader,
    streams: Vec<StreamDecode>,
    names: &[(u32, String)],
    par: Parallelism,
) -> Option<Arc<Analysis>> {
    let anchors = pick_anchors(streams.iter().map(|st| st.anchors.as_slice()));
    let dropped = streams.iter().map(|st| st.dropped).sum();
    let mut runs = Vec::with_capacity(streams.len());
    let mut losses = Vec::with_capacity(streams.len());
    for (si, st) in streams.into_iter().enumerate() {
        // The shift onto the global timeline; `None` for an unanchored
        // SPE stream.
        let offset = match st.core {
            TraceCore::Ppe(_) => Some(0),
            TraceCore::Spe(spe) => match anchors.iter().find(|a| a.spe == spe) {
                Some(a) => {
                    let diff = u64::from(a.dec_start.wrapping_sub(st.first_dec));
                    let offset = a.run_tb.checked_add(diff)?;
                    offset.checked_add(st.elapsed)?;
                    Some(offset)
                }
                None => None,
            },
        };
        let mut ev = st.ev;
        losses.push(StreamLoss {
            core: st.core,
            decoded_records: ev.len() as u64,
            tracer_dropped: st.dropped,
            gaps: Vec::new(),
            unanchored: offset.is_none() && ev.len() > 0,
        });
        if let Some(offset) = offset {
            ev.shift(offset);
            runs.push(Run::new(si, ev));
        }
    }
    // The shared one-shot placement; its stream-index tie-break is the
    // merge order of the session the roundtrip reader replays through.
    let mut trace = ColumnarTrace::empty(header).with_events(place(runs));
    trace.anchors = anchors;
    trace.dropped = dropped;
    trace.set_ctx_names(names);
    let loss = LossReport {
        streams: losses,
        truncated: None,
    };
    Some(Arc::new(Analysis::from_shared(Arc::new(trace), loss, par)))
}

/// Analyzes a v2 image held in memory. A whole image goes through
/// [`V2Trace::analyze`]; one that ends inside a structure keeps the
/// prefix the container walk holds whole and takes the roundtrip
/// reader, so truncation degrades to loss accounting: the stream it
/// ends inside carries a trailing gap, streams whose headers are
/// missing are absent, and the loss report records where it ends.
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
