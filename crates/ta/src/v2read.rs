//! Readers for the blocked, compressed v2 (`PDT2`) trace container.
//!
//! Two decode paths plug the [`pdt::v2`] codec into the analysis
//! pipeline, mirroring the split between [`crate::stream::ImageIngest`]
//! (chunked) and one-shot analysis of a complete image:
//!
//! * [`V2Trace`] — random access over a complete, structurally intact
//!   image. `analyze` walks the block regions via the inline prefixes
//!   while cross-checking every footer directory entry, so a flipped
//!   footer byte surfaces as a corrupt block (zero-filled → one
//!   `DecodeGap` in the [`crate::LossReport`]) instead of being
//!   silently trusted. `window_events` is the skip path: it decodes
//!   only packed blocks whose footer `[min_tb, max_tb]` overlaps the
//!   query window and reconstructs global time from the footer's
//!   `entry_dec`/`entry_elapsed`/`entry_seq` resume state without
//!   touching any predecessor block.
//! * [`V2Ingest`] — incremental chunk-at-a-time parser with bounded
//!   parse-state memory (it buffers at most one block payload plus a
//!   fixed-size header carry). It is prefix-driven — the footer
//!   directory arrives *after* the payloads, so the streaming path
//!   verifies the inline prefix and payload CRC only.
//!   [`V2Ingest::finish_lossy`] force-closes a truncated image: the
//!   missing tail of each promised stream is zero-filled, which the
//!   lossy v1 decoder accounts as a trailing `DecodeGap` — truncation
//!   degrades to loss accounting, never a panic.
//!
//! Each path has **two decoders** under it:
//!
//! * The **direct-to-columns** decoder, taken by every clean image, is
//!   one per-stream decoder with two drivers. Each block expands
//!   straight into the stream's [`crate::oneshot`] run (parameters
//!   interned as they decode), skipping the v1-byte reconstruction;
//!   SPE records sit at provisional, decrementer-relative times, since
//!   their anchor may arrive after them. One finish step then picks the
//!   anchor winners, shifts each anchored SPE run onto the global
//!   timeline in O(1) and lays the runs out core-major with the one-shot
//!   placement, which frees each run as it is copied. The one-shot
//!   driver decodes each stream as one [`crate::exec::map_indexed`]
//!   shard; the chunked driver decodes blocks as they arrive and runs
//!   the finish step at completion. There is no merge on either path.
//! * The **v1-roundtrip** decoder re-encodes clean runs canonically,
//!   carries gap bytes verbatim, and feeds the reconstructed v1
//!   record bytes through [`IngestSession`] — the oracle the direct
//!   decoder is differentialed against, and the fallback both paths
//!   demote to on *any* structural damage (bad prefix, CRC failure,
//!   short region, truncation), on a run that would wrap past
//!   `u64::MAX`, or on a mid-stream [`V2Ingest::snapshot`]. A chunked
//!   demotion replays the direct runs decoded so far, so degraded images
//!   keep exact roundtrip semantics.
//!   Blocks arrive region by region, so the session sees the streams
//!   end to end, as it sees a growing `.pdt`: each closed stream merges
//!   into its base and the open one is an overlay. It is told the
//!   container's stream count; a demoted session, the streams
//!   registered plus the stream headers still to come.
//!
//! Products, loss accounting and resync behaviour are byte-identical
//! across all four combinations and to analyzing the v1 image the
//! container was packed from — the differential suites in
//! `tests/v2_differential.rs` pin products *and* [`CodecStats`] on
//! every golden.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use pdt::v2::{
    crc32, decode_packed_columns, decode_packed_payload, records_to_bytes, Anchoring, BlockEntry,
    BlockKind, BlockPrefix, CodecStats, ColumnBatch, V2Error, V2File, FLAG_GAP, FLAG_UNPLACED,
    MAGIC2, PREFIX_BYTES, VERSION2,
};
use pdt::{TraceCore, TraceHeader, TraceRecord, VERSION};

use crate::analyze::{GlobalEvent, SpeAnchor};
use crate::columns::ColumnarTrace;
use crate::exec::{self, Parallelism};
use crate::loss::{LossReport, StreamLoss};
use crate::oneshot::{harvest, pick_anchors, place, Events, Run};
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
/// the caller's extra integrity verdict (the one-shot path's footer
/// cross-check); the streaming path passes `true`.
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
// One-shot reader.
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
    /// records).
    pub suspect: bool,
    /// What the query actually decoded vs skipped.
    pub stats: CodecStats,
}

/// A complete v2 image opened for random access: one-shot analysis
/// with footer cross-checking, and windowed queries that skip
/// non-overlapping blocks without decoding them.
#[derive(Debug, Clone)]
pub struct V2Trace<'a> {
    file: V2File<'a>,
}

impl<'a> V2Trace<'a> {
    /// Parses the container structure (no payload is decoded).
    ///
    /// # Errors
    ///
    /// Returns [`V2Error`] when the image is not structurally a v2
    /// container (bad magic/version, truncated framing). A truncated
    /// image should be fed to [`V2Ingest`] + `finish_lossy` instead.
    pub fn parse(image: &'a [u8]) -> Result<V2Trace<'a>, V2Error> {
        Ok(V2Trace {
            file: V2File::parse(image)?,
        })
    }

    /// The parsed container structure.
    pub fn file(&self) -> &V2File<'a> {
        &self.file
    }

    /// Decodes every block and runs the full analysis pipeline.
    ///
    /// Clean containers take the direct-to-columns path: packed
    /// payloads decode straight into the columnar store and the
    /// per-stream runs are laid out core-major, skipping the v1-byte round
    /// trip entirely. Any damage — a footer/prefix mismatch, a failed
    /// CRC, a gap block, a decode error — and the whole image falls
    /// back to [`analyze_roundtrip`](Self::analyze_roundtrip), so loss
    /// accounting stays byte-identical to the v1 reader in every
    /// degraded case. Products are byte-identical between the two
    /// paths (pinned per golden in `tests/v2_differential.rs`).
    pub fn analyze(&self, par: Parallelism) -> (Arc<Analysis>, CodecStats) {
        if let Some(out) = self.analyze_direct(par) {
            return out;
        }
        self.analyze_roundtrip(par)
    }

    /// The v1-roundtrip reader: every block decodes to v1 record bytes
    /// that replay through an [`IngestSession`], exactly as if the
    /// original `.pdt` image were analyzed. The damage path of
    /// [`analyze`](Self::analyze) and the differential oracle the
    /// direct decoder is tested against.
    ///
    /// Each inline prefix is cross-checked against its footer
    /// directory entry; a mismatch or an unreadable footer marks the
    /// block corrupt (zero-filled), so flipped footer bytes surface in
    /// the [`crate::LossReport`] rather than going unnoticed.
    pub fn analyze_roundtrip(&self, par: Parallelism) -> (Arc<Analysis>, CodecStats) {
        let mut stats = CodecStats::default();
        let mut session =
            IngestSession::new(self.file.header, self.file.streams.len()).with_parallelism(par);
        for (si, meta) in self.file.streams.iter().enumerate() {
            let id = session.add_stream(meta.core, meta.dropped);
            let mut raw_left = raw_fill_budget(meta.raw_len, meta.payloads_len);
            let mut bi: u32 = 0;
            let mut structural_break = false;
            for item in self.file.blocks(si) {
                let (prefix, payload) = match item {
                    Ok(v) => v,
                    Err(_) => {
                        structural_break = true;
                        break;
                    }
                };
                let entry_ok = bi < meta.n_blocks
                    && match self.file.entry(si, bi) {
                        Ok(e) => entry_matches(&e, &prefix),
                        Err(_) => false,
                    };
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
        session.finish();
        (session.snapshot(), stats)
    }

    /// The direct-to-columns fast path: validates the whole container,
    /// decodes every stream as one [`exec::map_indexed`] shard under
    /// `par` (SPE times stay provisional until the finish step, so no
    /// stream waits on another's anchors) and lays the runs out with
    /// the one-shot placement. Returns `None` on any damage or disorder,
    /// or when an anchored run would wrap; the caller falls back to the
    /// roundtrip reader, which re-reads from scratch (the partial direct
    /// output is discarded, so degraded images cost one wasted pass,
    /// never wrong output).
    fn analyze_direct(&self, par: Parallelism) -> Option<(Arc<Analysis>, CodecStats)> {
        let clean = validate_clean(&self.file)?;
        let streams = &self.file.streams;
        let shards = exec::map_indexed(par, streams.len(), |si| {
            let mut st = StreamDecode::new(streams[si].core, streams[si].dropped);
            let (mut batch, mut stats) = (ColumnBatch::default(), CodecStats::default());
            for (prefix, payload) in &clean[si] {
                st.emit(prefix, payload, &mut batch, &mut stats)?;
            }
            Some((st, stats))
        });
        let mut stats = CodecStats::default();
        let mut decoded = Vec::with_capacity(streams.len());
        for shard in shards {
            let (st, shard_stats) = shard?;
            stats.merge(&shard_stats);
            decoded.push(st);
        }
        let analysis = finish_direct(self.file.header, &mut decoded, &self.file.ctx_names, par)?;
        Some((analysis, stats))
    }

    /// Events whose reconstructed global time falls in the half-open
    /// window `[start_tb, end_tb)`, decoding **only** packed blocks
    /// whose footer time range overlaps the window. Gap blocks are
    /// never decoded; one bracketing the window sets `suspect`, as do
    /// corrupt footers/payloads and unanchored streams carrying
    /// records. Event order matches [`crate::EventFilter`] applied to
    /// the full analysis.
    pub fn window_events(&self, start_tb: u64, end_tb: u64) -> WindowQuery {
        let mut stats = CodecStats::default();
        let mut suspect = false;
        let mut events: Vec<GlobalEvent> = Vec::new();
        for (si, meta) in self.file.streams.iter().enumerate() {
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
                let payload = match self.file.payload(si, &entry) {
                    Ok(p) if crc32(p) == entry.payload_crc => p,
                    _ => {
                        stats.blocks_corrupt += 1;
                        suspect = true;
                        continue;
                    }
                };
                let records = match decode_packed_payload(payload, entry.n_records) {
                    Ok(r) => r,
                    Err(_) => {
                        stats.blocks_corrupt += 1;
                        suspect = true;
                        continue;
                    }
                };
                stats.blocks_decoded += 1;
                stats.records_decoded += records.len() as u64;
                stats.payload_bytes_read += payload.len() as u64;
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
        WindowQuery {
            events,
            suspect,
            stats,
        }
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
// Direct-to-columns decode: one per-stream decoder, one finish step,
// driven by the one-shot and the chunked reader alike.
// ---------------------------------------------------------------------

/// One stream's blocks, in region order.
type Blocks<'a> = Vec<(BlockPrefix, &'a [u8])>;

/// Validates the whole container for the one-shot direct driver: every
/// inline prefix agrees with its CRC-protected footer entry, no block
/// is a gap stand-in, and the raw lengths sum to exactly what the
/// stream header promised. Together with the checks of
/// [`StreamDecode::emit`] (kind, payload CRC, decode, raw length) these
/// are the preconditions under which the roundtrip reader would decode
/// every block cleanly with empty loss. `None` means some stream
/// carries damage (or gap blocks) and the image must take the roundtrip
/// reader so degradation semantics stay identical.
fn validate_clean<'a>(file: &V2File<'a>) -> Option<Vec<Blocks<'a>>> {
    let mut out = Vec::with_capacity(file.streams.len());
    for (si, meta) in file.streams.iter().enumerate() {
        let mut blocks: Blocks<'a> = Vec::with_capacity(meta.n_blocks as usize);
        let mut raw_sum = 0u64;
        for item in file.blocks(si) {
            let (prefix, payload) = item.ok()?;
            let bi = u32::try_from(blocks.len()).ok()?;
            if bi >= meta.n_blocks {
                return None;
            }
            let entry = file.entry(si, bi).ok()?;
            if !entry_matches(&entry, &prefix) || entry.flags & FLAG_GAP != 0 {
                return None;
            }
            raw_sum += u64::from(prefix.raw_len);
            blocks.push((prefix, payload));
        }
        if blocks.len() as u32 != meta.n_blocks
            || raw_sum != raw_fill_budget(meta.raw_len, meta.payloads_len)
        {
            return None;
        }
        out.push(blocks);
    }
    Some(out)
}

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
    /// the session would handle by sorting. Then nothing was appended or
    /// accounted, so the chunked driver can demote and re-dispatch the
    /// same block through the session.
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
        if self.core.is_spe() {
            for k in 0..batch.len() {
                let dec = batch.timestamps[k] as u32;
                if self.ev.len() == 0 {
                    (self.first_dec, self.prev_dec) = (dec, dec);
                }
                self.elapsed += u64::from(self.prev_dec.wrapping_sub(dec));
                self.prev_dec = dec;
                let (code, params) = (batch.codes[k], batch.params_of(k));
                self.ev.push(self.elapsed, self.core.tag(), code, params);
            }
        } else {
            // Validate order across the whole block before appending
            // anything: a failed block must leave no partial records
            // behind, or the demote replay would double them.
            let mut last = self.last;
            for k in 0..batch.len() {
                let key = (batch.timestamps[k], batch.tags[k]);
                if key < last {
                    return None;
                }
                last = key;
            }
            self.last = last;
            for k in 0..batch.len() {
                let (t, code, params) = (batch.timestamps[k], batch.codes[k], batch.params_of(k));
                harvest(code, t, params, &mut self.anchors);
                self.ev.push(t, batch.tags[k], code, params);
            }
        }
        stats.blocks_decoded += 1;
        stats.records_decoded += u64::from(prefix.n_records);
        stats.payload_bytes_read += payload.len() as u64;
        stats.raw_bytes_out += u64::from(prefix.raw_len);
        Some(())
    }

    /// Replays the decoded records into `session` stream `id` as
    /// re-encoded v1 bytes. SPE decrementer values come back exactly
    /// from the provisional times: each delta fits u32, so
    /// `first_dec - elapsed` recovers their low 32 bits, all the session
    /// reads. Re-encoded lengths equal the prefixes' raw lengths, so
    /// loss accounting and byte counters agree too.
    fn replay(&self, session: &mut IngestSession, id: StreamId) {
        let mut recs: Vec<TraceRecord> = Vec::with_capacity(REPLAY_BATCH);
        for (time, tag, code, params) in self.ev.iter() {
            let (core, timestamp) = match self.core {
                TraceCore::Spe(_) => (
                    self.core,
                    u64::from(self.first_dec.wrapping_sub(time as u32)),
                ),
                TraceCore::Ppe(_) => (TraceCore::from_tag(tag), time),
            };
            recs.push(TraceRecord {
                core,
                code,
                timestamp,
                params: params.to_vec(),
            });
            if recs.len() == REPLAY_BATCH {
                session.append(id, &records_to_bytes(&recs));
                recs.clear();
            }
        }
        if !recs.is_empty() {
            session.append(id, &records_to_bytes(&recs));
        }
    }
}

/// The finish step both direct drivers share: picks the anchor winners,
/// moves each anchored SPE run onto the global timeline, drops the
/// unanchored ones (the session discards their events too), builds the
/// loss rows and lays the runs out through [`place`].
///
/// An anchored SPE run's true time is `offset + provisional elapsed`
/// with `offset = run_tb + (dec_start - first_dec)`. `None` when the
/// offset, or its sum with the run's last (largest) elapsed value,
/// overflows u64: placement would wrap where the session sorts, so the
/// caller takes its fallback. Every offset is checked before any run is
/// consumed, so on `None` the runs stand as decoded.
fn finish_direct(
    header: TraceHeader,
    streams: &mut [StreamDecode],
    names: &[(u32, String)],
    par: Parallelism,
) -> Option<Arc<Analysis>> {
    let anchors = pick_anchors(streams.iter().map(|st| st.anchors.as_slice()));
    // Per stream, the shift onto the global timeline; `None` for an
    // unanchored SPE stream.
    let mut offsets: Vec<Option<u64>> = Vec::with_capacity(streams.len());
    for st in streams.iter() {
        offsets.push(match st.core {
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
        });
    }

    let mut runs = Vec::with_capacity(streams.len());
    let mut losses = Vec::with_capacity(streams.len());
    for (si, (st, offset)) in streams.iter_mut().zip(offsets).enumerate() {
        let mut ev = std::mem::take(&mut st.ev);
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
    trace.dropped = streams.iter().map(|st| st.dropped).sum();
    trace.set_ctx_names(names);
    let loss = LossReport { streams: losses };
    Some(Arc::new(Analysis::from_shared(Arc::new(trace), loss, par)))
}

/// Records per replayed v1 append when demoting to the session.
const REPLAY_BATCH: usize = 4096;

/// The chunked reader's direct backend: each block decodes through its
/// stream's [`StreamDecode`] as it arrives, and [`finish_direct`] places
/// the runs at completion. Any damage demotes the whole reader to the
/// session backend via [`into_session`](DirectIngest::into_session),
/// which replays every decoded record as v1 bytes, so degraded images
/// get the exact roundtrip semantics at the cost of the replay.
#[derive(Debug)]
struct DirectIngest {
    header: TraceHeader,
    streams: Vec<StreamDecode>,
    /// Streams whose block region has ended (they end in add order).
    closed: usize,
    batch: ColumnBatch,
    result: Option<Arc<Analysis>>,
}

impl DirectIngest {
    fn new(header: TraceHeader) -> Self {
        DirectIngest {
            header,
            streams: Vec::new(),
            closed: 0,
            batch: ColumnBatch::default(),
            result: None,
        }
    }

    /// Demotes to the session backend: replays every decoded record
    /// through a fresh session of `streams` streams (those registered
    /// here plus the headers still to come), closing streams whose
    /// regions already ended. Analysis output is identical to having
    /// streamed the image through the session from the start.
    fn into_session(self, streams: usize, par: Parallelism) -> (IngestSession, Vec<StreamId>) {
        let mut session = IngestSession::new(self.header, streams).with_parallelism(par);
        let mut ids = Vec::with_capacity(self.streams.len());
        for (si, st) in self.streams.into_iter().enumerate() {
            let id = session.add_stream(st.core, st.dropped);
            ids.push(id);
            st.replay(&mut session, id);
            if si < self.closed {
                session.close_stream(id);
            }
        }
        (session, ids)
    }
}

// ---------------------------------------------------------------------
// Streaming (chunked) reader.
// ---------------------------------------------------------------------

/// Parse progress of the chunked v2 reader. The states inside a stream
/// carry that stream's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum V2State {
    /// Waiting for the 36-byte container header.
    Header,
    /// Waiting for the u32 stream count.
    StreamCount,
    /// Waiting for a 40-byte stream header.
    StreamHeader,
    /// Waiting for a 17-byte inline block prefix.
    BlockPrefix(CurStream),
    /// Buffering one block payload.
    BlockPayload(CurStream, BlockPrefix),
    /// Discarding the rest of a structurally damaged block region.
    SkipRegion(CurStream),
    /// Discarding the footer directory (already consumed as blocks).
    Directory(CurStream),
    /// Waiting for the u32 name count.
    NameCount,
    /// Waiting for an 8-byte name entry header.
    NameHeader,
    /// Buffering a name's UTF-8 bytes.
    NameBytes { ctx: u32, len: u32 },
    /// Fully parsed; the session is finished.
    Done,
}

/// Per-stream progress while its block region streams through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CurStream {
    /// Stream index (add order — the backends key off it).
    idx: usize,
    /// Reconstructed v1 bytes the stream header still owes.
    raw_left: u64,
    /// Block-region bytes not yet consumed.
    payloads_left: u64,
    /// Footer directory bytes to discard after the region.
    dir_left: u64,
}

/// Where the chunked reader sends decoded blocks. Every image starts
/// on the direct backend and demotes to the session backend —
/// replaying everything decoded so far — the moment any damage
/// appears, so degraded images keep the roundtrip reader's exact loss
/// semantics.
#[derive(Debug)]
enum Backend {
    Direct(DirectIngest),
    Session {
        session: IngestSession,
        /// Stream ids in add order (`CurStream::idx` indexes this).
        ids: Vec<StreamId>,
    },
}

/// Incremental v2 container reader: push arbitrary byte chunks of a
/// `PDT2` image and analyze with bounded parse-state memory — at most
/// one block payload is buffered. Decoded blocks land on one of two
/// backends: the default direct-to-columns `DirectIngest` (clean
/// images; the one-shot reader's per-stream decoder, its runs placed
/// at `finish` by the same finish step), or an [`IngestSession`] fed
/// reconstructed v1 bytes, which any damage or mid-stream
/// [`V2Ingest::snapshot`] demotes to by replaying everything decoded so
/// far. The v2 analogue of [`crate::stream::ImageIngest`].
///
/// Streaming is inline-prefix-driven (the footer directory trails the
/// payloads and is discarded); payload integrity is still CRC-checked
/// per block, and damaged blocks degrade to zero-filled gap ranges
/// with loss accounting, exactly like the one-shot path.
#[derive(Debug)]
pub struct V2Ingest {
    backend: Option<Backend>,
    par: Parallelism,
    state: V2State,
    carry: Vec<u8>,
    streams_left: u32,
    names: Vec<(u32, String)>,
    names_left: u32,
    stats: CodecStats,
    consumed: u64,
}

impl Default for V2Ingest {
    fn default() -> Self {
        V2Ingest::new()
    }
}

impl V2Ingest {
    /// Creates an empty reader awaiting the container header.
    pub fn new() -> Self {
        V2Ingest {
            backend: None,
            par: Parallelism::Serial,
            state: V2State::Header,
            carry: Vec::new(),
            streams_left: 0,
            names: Vec::new(),
            names_left: 0,
            stats: CodecStats::default(),
            consumed: 0,
        }
    }

    /// Sets the parallelism used by the underlying session's decode
    /// and product builds.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self.backend = match self.backend.take() {
            Some(Backend::Session { session, ids }) => Some(Backend::Session {
                session: session.with_parallelism(par),
                ids,
            }),
            other => other,
        };
        self
    }

    /// Demotes the direct backend to the session backend (no-op when
    /// already there or no header arrived yet). Called at every damage
    /// site so degraded images keep roundtrip semantics exactly.
    fn demote(&mut self) {
        demote(&mut self.backend, self.streams_left, self.par);
    }

    /// Total bytes consumed so far.
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    /// True once the full image (through the name table) has parsed.
    pub fn is_complete(&self) -> bool {
        self.state == V2State::Done
    }

    /// Codec counters accumulated so far.
    pub fn stats(&self) -> CodecStats {
        self.stats
    }

    /// Feeds the next chunk of image bytes; chunk boundaries may fall
    /// anywhere, including inside headers, prefixes and payloads.
    ///
    /// # Errors
    ///
    /// Returns [`V2Error`] on bad magic/version or an invalid name
    /// table — structural failures that make the byte stream not a v2
    /// image. Block-level damage never errors; it degrades to gap
    /// accounting.
    pub fn push(&mut self, mut chunk: &[u8]) -> Result<(), V2Error> {
        self.consumed += chunk.len() as u64;
        while !chunk.is_empty() {
            match self.state {
                V2State::Header => {
                    if !fill(&mut self.carry, 36, &mut chunk) {
                        return Ok(());
                    }
                    let h = &self.carry;
                    if &h[..4] != MAGIC2 {
                        return Err(V2Error::BadMagic);
                    }
                    let version = le_u16(&h[4..6]);
                    if version != VERSION2 {
                        return Err(V2Error::BadVersion { found: version });
                    }
                    let header = TraceHeader {
                        version: VERSION,
                        num_ppe_threads: h[6],
                        num_spes: h[7],
                        core_hz: le_u64(&h[8..16]),
                        timebase_divider: le_u64(&h[16..24]),
                        dec_start: le_u32(&h[24..28]),
                        group_mask: le_u32(&h[28..32]),
                        spe_buffer_bytes: le_u32(&h[32..36]),
                    };
                    self.carry.clear();
                    self.backend = Some(Backend::Direct(DirectIngest::new(header)));
                    self.state = V2State::StreamCount;
                }
                V2State::StreamCount => {
                    if !fill(&mut self.carry, 4, &mut chunk) {
                        return Ok(());
                    }
                    self.streams_left = le_u32(&self.carry);
                    self.carry.clear();
                    self.next_stream();
                }
                V2State::StreamHeader => {
                    if !fill(&mut self.carry, 40, &mut chunk) {
                        return Ok(());
                    }
                    let h = &self.carry;
                    let core = TraceCore::from_tag(h[0]);
                    // h[1] (anchoring) only matters to the skip path;
                    // the streaming decode places every record itself.
                    let n_blocks = le_u32(&h[4..8]);
                    let dropped = le_u64(&h[8..16]);
                    let raw_len = le_u64(&h[16..24]);
                    let payloads_len = le_u64(&h[24..32]);
                    self.carry.clear();
                    // The container header, which creates the backend,
                    // precedes every stream header.
                    let idx = match self.backend.as_mut().expect("backend exists") {
                        Backend::Direct(d) => {
                            d.streams.push(StreamDecode::new(core, dropped));
                            d.streams.len() - 1
                        }
                        Backend::Session { session, ids } => {
                            ids.push(session.add_stream(core, dropped));
                            ids.len() - 1
                        }
                    };
                    let cur = CurStream {
                        idx,
                        raw_left: raw_fill_budget(raw_len, payloads_len),
                        payloads_left: payloads_len,
                        dir_left: u64::from(n_blocks) * pdt::v2::ENTRY_BYTES as u64,
                    };
                    self.streams_left -= 1;
                    if payloads_len == 0 {
                        self.end_blocks(cur);
                    } else {
                        self.state = V2State::BlockPrefix(cur);
                    }
                }
                V2State::BlockPrefix(mut cur) => {
                    if cur.payloads_left < PREFIX_BYTES as u64 {
                        // Region too short for another prefix: framing
                        // damage — drop the remainder as one corrupt
                        // block.
                        self.demote();
                        self.stats.blocks_corrupt += 1;
                        self.state = V2State::SkipRegion(cur);
                        continue;
                    }
                    if !fill(&mut self.carry, PREFIX_BYTES, &mut chunk) {
                        return Ok(());
                    }
                    let decoded = BlockPrefix::decode(&self.carry);
                    self.carry.clear();
                    cur.payloads_left -= PREFIX_BYTES as u64;
                    match decoded {
                        Ok(p) if u64::from(p.payload_len) <= cur.payloads_left => {
                            if p.payload_len == 0 {
                                // Degenerate but well-formed: process
                                // with an empty payload immediately.
                                self.finish_block(cur, &p);
                            } else {
                                self.state = V2State::BlockPayload(cur, p);
                            }
                        }
                        _ => {
                            // Unreadable prefix or a payload length
                            // pointing past the region: skip the rest.
                            self.demote();
                            self.stats.blocks_corrupt += 1;
                            self.state = V2State::SkipRegion(cur);
                        }
                    }
                }
                V2State::BlockPayload(cur, prefix) => {
                    if !fill(&mut self.carry, prefix.payload_len as usize, &mut chunk) {
                        return Ok(());
                    }
                    self.finish_block(cur, &prefix);
                }
                V2State::SkipRegion(mut cur) => {
                    let n = (cur.payloads_left).min(chunk.len() as u64) as usize;
                    cur.payloads_left -= n as u64;
                    chunk = &chunk[n..];
                    if cur.payloads_left == 0 {
                        self.end_blocks(cur);
                    } else {
                        self.state = V2State::SkipRegion(cur);
                    }
                }
                V2State::Directory(mut cur) => {
                    let n = (cur.dir_left).min(chunk.len() as u64) as usize;
                    cur.dir_left -= n as u64;
                    chunk = &chunk[n..];
                    if cur.dir_left == 0 {
                        self.next_stream();
                    } else {
                        self.state = V2State::Directory(cur);
                    }
                }
                V2State::NameCount => {
                    if !fill(&mut self.carry, 4, &mut chunk) {
                        return Ok(());
                    }
                    self.names_left = le_u32(&self.carry);
                    self.carry.clear();
                    self.next_name()?;
                }
                V2State::NameHeader => {
                    if !fill(&mut self.carry, 8, &mut chunk) {
                        return Ok(());
                    }
                    let ctx = le_u32(&self.carry[..4]);
                    let len = le_u32(&self.carry[4..8]);
                    self.carry.clear();
                    self.names_left -= 1;
                    if len == 0 {
                        self.names.push((ctx, String::new()));
                        self.next_name()?;
                    } else {
                        self.state = V2State::NameBytes { ctx, len };
                    }
                }
                V2State::NameBytes { ctx, len } => {
                    if !fill(&mut self.carry, len as usize, &mut chunk) {
                        return Ok(());
                    }
                    let name = String::from_utf8(std::mem::take(&mut self.carry))
                        .map_err(|_| V2Error::BadName)?;
                    self.names.push((ctx, name));
                    self.next_name()?;
                }
                V2State::Done => {
                    // Trailing bytes after a complete image are
                    // ignored, matching the tolerant v1 reader.
                    chunk = &[];
                }
            }
        }
        Ok(())
    }

    /// Processes the carried payload for `prefix` of stream `cur` and
    /// advances past it.
    fn finish_block(&mut self, mut cur: CurStream, prefix: &BlockPrefix) {
        if let Some(Backend::Direct(d)) = &mut self.backend {
            let st = &mut d.streams[cur.idx];
            match st.emit(prefix, &self.carry, &mut d.batch, &mut self.stats) {
                Some(()) => cur.raw_left = cur.raw_left.saturating_sub(u64::from(prefix.raw_len)),
                // Not a cleanly decodable packed block: demote (the
                // failed emit appended nothing) and re-dispatch the
                // same block through the session below.
                None => self.demote(),
            }
        }
        if let Some(Backend::Session { session, ids }) = &mut self.backend {
            emit_block(
                session,
                ids[cur.idx],
                prefix,
                &self.carry,
                true,
                &mut cur.raw_left,
                &mut self.stats,
            );
        }
        self.carry.clear();
        cur.payloads_left -= u64::from(prefix.payload_len);
        if cur.payloads_left == 0 {
            self.end_blocks(cur);
        } else {
            self.state = V2State::BlockPrefix(cur);
        }
    }

    /// Closes stream `cur`'s record flow once its block region is fully
    /// consumed (or abandoned) and moves to its directory.
    fn end_blocks(&mut self, mut cur: CurStream) {
        if cur.raw_left > 0 {
            // The region ended short of the bytes the stream header
            // promised: damage — the session path zero-fills it below.
            self.demote();
        }
        // The container header, which creates the backend, precedes
        // every stream.
        match self.backend.as_mut().expect("backend exists") {
            Backend::Direct(d) => d.closed = cur.idx + 1,
            Backend::Session { session, ids } => {
                if cur.raw_left > 0 {
                    // Zero-fill so the shortfall shows up as a gap.
                    append_zeros(session, ids[cur.idx], cur.raw_left);
                    self.stats.raw_bytes_out += cur.raw_left;
                    cur.raw_left = 0;
                }
                session.close_stream(ids[cur.idx]);
            }
        }
        if cur.dir_left == 0 {
            self.next_stream();
        } else {
            self.state = V2State::Directory(cur);
        }
    }

    /// Advances to the next stream header or the name table.
    fn next_stream(&mut self) {
        self.state = if self.streams_left == 0 {
            V2State::NameCount
        } else {
            V2State::StreamHeader
        };
    }

    /// Advances to the next name entry or completes the session.
    fn next_name(&mut self) -> Result<(), V2Error> {
        if self.names_left == 0 {
            self.complete();
        } else {
            self.state = V2State::NameHeader;
        }
        Ok(())
    }

    /// Applies the name table and finishes whichever backend is live:
    /// the direct backend places its runs through the finish step the
    /// one-shot reader uses, the session backend finishes the replay
    /// session. A direct refusal (an anchored run would wrap) demotes
    /// and replays, so the output is never wrong — only slower.
    fn complete(&mut self) {
        let names = std::mem::take(&mut self.names);
        self.state = V2State::Done;
        if let Some(Backend::Direct(d)) = &mut self.backend {
            d.result = finish_direct(d.header, &mut d.streams, &names, self.par);
            if d.result.is_some() {
                return;
            }
        }
        if let Some((session, _)) = demote(&mut self.backend, self.streams_left, self.par) {
            session.set_ctx_names(names);
            session.finish();
        }
    }

    /// Declares the image complete; errors if parsing stopped
    /// mid-structure.
    ///
    /// # Errors
    ///
    /// Returns [`V2Error::Truncated`] naming the structure that was
    /// being read. Use [`V2Ingest::finish_lossy`] to degrade a
    /// truncated image to loss accounting instead.
    pub fn finish(&mut self) -> Result<(), V2Error> {
        let reading = match self.state {
            V2State::Done => return Ok(()),
            V2State::Header => "header",
            V2State::StreamCount => "stream count",
            V2State::StreamHeader => "stream header",
            V2State::BlockPrefix(_) => "block prefix",
            V2State::BlockPayload(..) => "block payload",
            V2State::SkipRegion(_) => "block region",
            V2State::Directory(_) => "footer directory",
            V2State::NameCount => "name table",
            V2State::NameHeader => "name entry",
            V2State::NameBytes { .. } => "name bytes",
        };
        Err(V2Error::Truncated { reading })
    }

    /// Force-closes a (possibly truncated) image: a partial block is
    /// treated as corrupt, each open or missing stream tail is
    /// zero-filled so the loss report carries a trailing gap, and the
    /// session is finished with whatever names arrived.
    ///
    /// # Errors
    ///
    /// Returns [`V2Error::Truncated`] only when not even the container
    /// header arrived — there is nothing to analyze.
    pub fn finish_lossy(&mut self) -> Result<(), V2Error> {
        if self.state == V2State::Done {
            return Ok(());
        }
        // Truncation is damage: the session backend owns all damage.
        let Some((session, ids)) = demote(&mut self.backend, self.streams_left, self.par) else {
            return Err(V2Error::Truncated { reading: "header" });
        };
        self.carry.clear();
        let partial = matches!(self.state, V2State::BlockPayload(..));
        if partial {
            // The partial block never arrived in full.
            self.stats.blocks_corrupt += 1;
        }
        let open = match self.state {
            V2State::BlockPrefix(cur)
            | V2State::BlockPayload(cur, _)
            | V2State::SkipRegion(cur)
            | V2State::Directory(cur) => Some(cur),
            _ => None,
        };
        if let Some(cur) = open {
            if cur.raw_left > 0 {
                append_zeros(session, ids[cur.idx], cur.raw_left);
                self.stats.raw_bytes_out += cur.raw_left;
                if !partial {
                    self.stats.blocks_corrupt += 1;
                }
            }
            session.close_stream(ids[cur.idx]);
        }
        // Streams whose headers never arrived cannot be represented:
        // their cores are unknown. They are simply absent, like a v1
        // image truncated before a stream header.
        self.complete();
        Ok(())
    }

    /// A frozen analysis snapshot (available from the first complete
    /// header onward; final once `finish`/`finish_lossy` ran).
    ///
    /// A mid-stream snapshot demotes the direct backend: incremental
    /// snapshots are the session's contract, and the direct backend
    /// only materializes columns at completion.
    pub fn snapshot(&mut self) -> Option<Arc<Analysis>> {
        if let Some(Backend::Direct(d)) = &self.backend {
            if let Some(a) = &d.result {
                return Some(Arc::clone(a));
            }
        }
        let (session, _) = demote(&mut self.backend, self.streams_left, self.par)?;
        Some(session.snapshot())
    }
}

/// Demotes a direct `backend` to the session backend, replaying
/// everything decoded so far (a no-op once demoted), and returns the
/// session with its stream ids; `None` before the header arrived. The
/// session expects the registered streams plus the `streams_left`
/// headers still to come.
fn demote(
    backend: &mut Option<Backend>,
    streams_left: u32,
    par: Parallelism,
) -> Option<(&mut IngestSession, &[StreamId])> {
    if let Some(Backend::Direct(d)) = backend.take_if(|b| matches!(b, Backend::Direct(_))) {
        let streams = d.streams.len() + streams_left as usize;
        let (session, ids) = d.into_session(streams, par);
        *backend = Some(Backend::Session { session, ids });
    }
    match backend {
        Some(Backend::Session { session, ids }) => Some((session, ids)),
        _ => None,
    }
}

/// Buffers up to `need` bytes into `carry` from `chunk`, advancing
/// `chunk`. True when `carry` holds exactly `need` bytes.
fn fill(carry: &mut Vec<u8>, need: usize, chunk: &mut &[u8]) -> bool {
    let take = (need - carry.len()).min(chunk.len());
    carry.extend_from_slice(&chunk[..take]);
    *chunk = &chunk[take..];
    carry.len() == need
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Analyzes a v2 image by whichever path fits: the cross-checking
/// one-shot reader when the container parses whole, falling back to
/// the chunked reader with lossy close when the image is truncated.
///
/// # Errors
///
/// Returns [`V2Error`] when the bytes are not a v2 image at all (bad
/// magic/version, or truncated before the header completed).
pub fn analyze_v2(image: &[u8], par: Parallelism) -> Result<(Arc<Analysis>, CodecStats), V2Error> {
    match V2Trace::parse(image) {
        Ok(trace) => Ok(trace.analyze(par)),
        Err(V2Error::Truncated { .. }) => {
            let mut ingest = V2Ingest::new().with_parallelism(par);
            ingest.push(image)?;
            ingest.finish_lossy()?;
            // `finish_lossy` succeeds only once the header arrived, and
            // from then on a snapshot exists.
            let analysis = ingest
                .snapshot()
                .ok_or(V2Error::Truncated { reading: "header" })?;
            Ok((analysis, ingest.stats()))
        }
        Err(e) => Err(e),
    }
}
