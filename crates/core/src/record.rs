//! Trace records and their binary encoding.
//!
//! Records are 16-byte granular so that any prefix of a trace buffer is
//! a valid DMA transfer (MFC transfers must be multiples of 16 bytes):
//!
//! ```text
//! byte 0      granule count (record length / 16)
//! byte 1      core tag (0x00..0x0f = PPE thread, 0x10.. = SPE index)
//! bytes 2-3   event code, little-endian u16
//! byte 4      parameter count
//! bytes 5-7   reserved (zero)
//! bytes 8-15  raw timestamp, little-endian u64
//!             (SPE records: decrementer snapshot; PPE records: timebase)
//! then        parameters, 8 bytes each, zero-padded to a 16-byte boundary
//! ```
//!
//! Every stream decoder ([`ChunkScan`], [`RecordScan`], [`LossyCursor`])
//! runs one resynchronizing state machine. Its `next_gap` methods hand
//! the records between two gaps to a closure from one tight loop, the
//! clean-record run, and return the gap. A record that fails
//! [`RecordRef::decode`] or [`check_in_stream`], or that the buffer's
//! end cuts, ends the run; only that record takes the error path: a
//! pause for more bytes, a strict stop, or a gap and its resync scan.

use bytes::BufMut;

use crate::event::EventCode;

/// The core a record was produced on, as encoded in trace bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceCore {
    /// PPE hardware thread.
    Ppe(u8),
    /// SPE index.
    Spe(u8),
}

impl TraceCore {
    /// Encodes to the one-byte core tag.
    pub fn tag(self) -> u8 {
        match self {
            TraceCore::Ppe(t) => t,
            TraceCore::Spe(i) => 0x10 + i,
        }
    }

    /// Decodes a core tag.
    pub fn from_tag(tag: u8) -> TraceCore {
        if tag < 0x10 {
            TraceCore::Ppe(tag)
        } else {
            TraceCore::Spe(tag - 0x10)
        }
    }

    /// True for SPE records.
    pub fn is_spe(self) -> bool {
        matches!(self, TraceCore::Spe(_))
    }
}

impl std::fmt::Display for TraceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCore::Ppe(t) => write!(f, "PPE.{t}"),
            TraceCore::Spe(i) => write!(f, "SPE{i}"),
        }
    }
}

/// A decoded trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Producing core.
    pub core: TraceCore,
    /// Event code.
    pub code: EventCode,
    /// Raw timestamp: decrementer snapshot (SPE) or timebase (PPE).
    pub timestamp: u64,
    /// Parameter words.
    pub params: Vec<u64>,
}

/// Maximum parameters a record can carry (fits the u8 length fields).
pub const MAX_PARAMS: usize = 16;

/// Errors from record decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes than one granule.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes needed.
        need: usize,
    },
    /// Zero-length granule count (corrupt stream).
    ZeroLength,
    /// Unknown event code.
    UnknownCode {
        /// The raw code.
        raw: u16,
    },
    /// Parameter count inconsistent with the granule count.
    BadParamCount {
        /// Claimed parameter count.
        params: u8,
        /// Claimed granules.
        granules: u8,
    },
    /// Record's core tag does not belong to the stream it was read from.
    CoreMismatch {
        /// Core tag the stream directory claims.
        expect: u8,
        /// Core tag found in the record.
        found: u8,
    },
    /// SPE timestamp wider than the 32-bit decrementer.
    TimestampWide {
        /// The raw timestamp.
        raw: u64,
    },
    /// Decrementer stepped backwards (or jumped) beyond wrap tolerance.
    TimestampJump {
        /// Previous in-stream decrementer snapshot.
        prev: u64,
        /// Offending snapshot.
        found: u64,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated { have, need } => {
                write!(f, "truncated record: have {have} bytes, need {need}")
            }
            RecordError::ZeroLength => f.write_str("record with zero granule count"),
            RecordError::UnknownCode { raw } => write!(f, "unknown event code {raw:#06x}"),
            RecordError::BadParamCount { params, granules } => write!(
                f,
                "parameter count {params} does not fit {granules} granules"
            ),
            RecordError::CoreMismatch { expect, found } => write!(
                f,
                "record core tag {found:#04x} does not match stream core tag {expect:#04x}"
            ),
            RecordError::TimestampWide { raw } => {
                write!(f, "SPE timestamp {raw:#x} exceeds the 32-bit decrementer")
            }
            RecordError::TimestampJump { prev, found } => write!(
                f,
                "decrementer jumped from {prev:#x} to {found:#x} beyond wrap tolerance"
            ),
        }
    }
}

impl std::error::Error for RecordError {}

impl TraceRecord {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        granules_for(self.params.len()) as usize * 16
    }

    /// Appends the binary encoding to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the record has more than [`MAX_PARAMS`] parameters.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // Caller contract (see Panics): the u8 count field holds at most MAX_PARAMS.
        assert!(
            self.params.len() <= MAX_PARAMS,
            "record with {} params exceeds MAX_PARAMS",
            self.params.len()
        );
        let granules = granules_for(self.params.len());
        out.put_u8(granules);
        out.put_u8(self.core.tag());
        out.put_u16_le(self.code.raw());
        out.put_u8(self.params.len() as u8);
        out.put_bytes(0, 3);
        out.put_u64_le(self.timestamp);
        for p in &self.params {
            out.put_u64_le(*p);
        }
        if self.params.len() % 2 == 1 {
            out.put_u64_le(0);
        }
    }

    /// Decodes one record from the front of `buf`, returning it and the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`RecordError`] on truncation or corruption.
    pub fn decode(buf: &[u8]) -> Result<(TraceRecord, usize), RecordError> {
        RecordRef::decode(buf).map(|(r, used)| (r.to_record(), used))
    }
}

/// A record decoded in place: the header fields, with the parameter
/// words left as a borrowed slice of the encoded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Producing core.
    pub core: TraceCore,
    /// Event code.
    pub code: EventCode,
    /// Raw timestamp: decrementer snapshot (SPE) or timebase (PPE).
    pub timestamp: u64,
    /// The parameter words, 8 little-endian bytes each.
    params: &'a [u8],
}

#[inline]
fn le_u64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(b);
    u64::from_le_bytes(w)
}

impl<'a> RecordRef<'a> {
    /// Decodes one record from the front of `buf` without copying its
    /// parameters, returning it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`RecordError`] on truncation or corruption.
    #[inline]
    pub fn decode(buf: &'a [u8]) -> Result<(RecordRef<'a>, usize), RecordError> {
        if buf.len() < 16 {
            return Err(RecordError::Truncated {
                have: buf.len(),
                need: 16,
            });
        }
        let granules = buf[0];
        if granules == 0 {
            return Err(RecordError::ZeroLength);
        }
        let total = granules as usize * 16;
        if buf.len() < total {
            return Err(RecordError::Truncated {
                have: buf.len(),
                need: total,
            });
        }
        let raw_code = u16::from_le_bytes([buf[2], buf[3]]);
        let code =
            EventCode::from_raw(raw_code).ok_or(RecordError::UnknownCode { raw: raw_code })?;
        let nparams = buf[4];
        if granules_for(nparams as usize) != granules {
            return Err(RecordError::BadParamCount {
                params: nparams,
                granules,
            });
        }
        Ok((
            RecordRef {
                core: TraceCore::from_tag(buf[1]),
                code,
                timestamp: le_u64(&buf[8..16]),
                params: &buf[16..16 + nparams as usize * 8],
            },
            total,
        ))
    }

    /// Parameter word `i`, if present.
    #[inline]
    pub fn param(&self, i: usize) -> Option<u64> {
        self.params.get(i * 8..i * 8 + 8).map(le_u64)
    }

    /// The parameter words, in order.
    #[inline]
    pub fn params(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.params.chunks_exact(8).map(le_u64)
    }

    /// Copies the record into an owned [`TraceRecord`].
    pub fn to_record(&self) -> TraceRecord {
        TraceRecord {
            core: self.core,
            code: self.code,
            timestamp: self.timestamp,
            params: self.params().collect(),
        }
    }
}

/// Granule count for a record with `nparams` parameters.
pub fn granules_for(nparams: usize) -> u8 {
    (1 + nparams.div_ceil(2)) as u8
}

/// Decodes every record in a byte stream.
///
/// # Errors
///
/// Returns the first [`RecordError`] with the offset it occurred at.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<TraceRecord>, (usize, RecordError)> {
    let mut out = Vec::new();
    match RecordScan::strict(bytes).next_gap(|r| out.push(r.to_record())) {
        Some(g) => Err((g.offset, g.cause)),
        None => Ok(out),
    }
}

/// Decrementer steps at or above this are treated as corruption rather
/// than normal wrap progress. Half the 32-bit wrap period: any backwards
/// jump (the decrementer counting *up*) lands in the upper half when
/// interpreted as forward progress.
pub const DEFAULT_WRAP_TOLERANCE: u32 = 1 << 31;

/// A contiguous byte range the lossy decoder skipped over after failing
/// to decode a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeGap {
    /// Byte offset of the gap within the stream.
    pub offset: usize,
    /// Gap length in bytes.
    pub len: usize,
    /// Estimated number of records lost in the gap (16-byte-granule
    /// upper bound, at least one).
    pub est_records: u64,
    /// How many records of this stream decoded successfully *before*
    /// the gap opened. Lets an analyzer bracket the gap in time: the
    /// gap falls between the stream's record `records_before - 1` and
    /// record `records_before` (counting surviving records in stream
    /// order).
    pub records_before: u64,
    /// The decode error that opened the gap.
    pub cause: RecordError,
}

/// Output of [`decode_stream_lossy`]: the records that survived plus the
/// gaps skipped around corruption.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LossyDecode {
    /// Successfully decoded records, in stream order.
    pub records: Vec<TraceRecord>,
    /// Byte ranges skipped, in stream order.
    pub gaps: Vec<DecodeGap>,
}

impl LossyDecode {
    /// Total bytes covered by gaps.
    pub fn gap_bytes(&self) -> u64 {
        self.gaps.iter().map(|g| g.len as u64).sum()
    }

    /// Total estimated records lost to gaps.
    pub fn est_lost_records(&self) -> u64 {
        self.gaps.iter().map(|g| g.est_records).sum()
    }

    /// True when the stream decoded without a single gap.
    pub fn is_clean(&self) -> bool {
        self.gaps.is_empty()
    }
}

/// Checks a record of core `core` stamped `timestamp` against the
/// invariants of the stream `stream` it came from, which the lossy
/// decoders use to resynchronize: the record's core tag must belong to
/// the stream, and SPE timestamps must fit the 32-bit decrementer and
/// step forward (downward counts) by less than
/// [`DEFAULT_WRAP_TOLERANCE`] from `prev_dec`, the stream's previous
/// good snapshot.
///
/// Traces produced by an intact tracer always satisfy these invariants.
///
/// # Errors
///
/// The [`RecordError`] of the first invariant the record breaks.
#[inline]
pub fn check_in_stream(
    stream: TraceCore,
    core: TraceCore,
    timestamp: u64,
    prev_dec: Option<u32>,
) -> Result<(), RecordError> {
    let matches = match stream {
        // The PPE stream multiplexes hardware threads.
        TraceCore::Ppe(_) => !core.is_spe(),
        TraceCore::Spe(_) => core == stream,
    };
    if !matches {
        return Err(RecordError::CoreMismatch {
            expect: stream.tag(),
            found: core.tag(),
        });
    }
    if stream.is_spe() {
        if timestamp > u64::from(u32::MAX) {
            return Err(RecordError::TimestampWide { raw: timestamp });
        }
        if let Some(prev) = prev_dec {
            if prev.wrapping_sub(timestamp as u32) >= DEFAULT_WRAP_TOLERANCE {
                return Err(RecordError::TimestampJump {
                    prev: u64::from(prev),
                    found: timestamp,
                });
            }
        }
    }
    Ok(())
}

/// Decodes one record and, given the stream's core, applies
/// [`check_in_stream`]. On clean input the checked decode accepts
/// exactly what [`TraceRecord::decode`] accepts. It is the one
/// acceptance definition of every stream decoder: the clean-record run
/// and the resync scan both call it.
#[inline]
fn decode_checked(
    buf: &[u8],
    stream_core: Option<TraceCore>,
    prev_dec: Option<u32>,
) -> Result<(RecordRef<'_>, usize), RecordError> {
    let (rec, used) = RecordRef::decode(buf)?;
    if let Some(stream) = stream_core {
        check_in_stream(stream, rec.core, rec.timestamp, prev_dec)?;
    }
    Ok((rec, used))
}

/// A resync scan that is still in progress: the gap has opened but its
/// end is not yet known.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OpenGap {
    /// Absolute stream offset where the gap opened.
    start: usize,
    /// The decode error that opened the gap.
    cause: RecordError,
    /// Records decoded before the gap opened.
    records_before: u64,
    /// Absolute offset of the next resync candidate to test.
    cand: usize,
}

impl OpenGap {
    fn close(self, end: usize) -> DecodeGap {
        let len = end - self.start;
        DecodeGap {
            offset: self.start,
            len,
            est_records: (len as u64).div_ceil(16).max(1),
            records_before: self.records_before,
            cause: self.cause,
        }
    }
}

/// The decode-and-resynchronize state machine behind every stream
/// decoder: [`ChunkScan`] runs it over a stream of known length read in
/// chunks ([`RecordScan`] is the one-chunk case), [`LossyCursor`] over a
/// stream whose bytes are still arriving.
///
/// On a malformed record it scans forward in 16-byte steps (the record
/// granule size, so an intact suffix stays aligned) until a record
/// decodes *and* satisfies the stream invariants of `decode_checked`,
/// then reports the skipped range as one [`DecodeGap`]. A strict scan
/// (no stream hint, no resync) reports the first malformed record as a
/// gap running to the end of the stream and stops there.
///
/// Between gaps the records go through the clean-record run, one tight
/// loop over the buffer; the resync scan takes over only at the record
/// the run stopped at. Both accept through `decode_checked`, the one
/// definition.
#[derive(Debug, Clone)]
struct Resync {
    stream_core: Option<TraceCore>,
    strict: bool,
    /// Last good decrementer snapshot on SPE streams; survives gaps (the
    /// decrementer keeps counting down through lost records).
    prev_dec: Option<u32>,
    /// Records decoded so far.
    records: u64,
    open_gap: Option<OpenGap>,
}

impl Resync {
    fn new(stream_core: Option<TraceCore>, strict: bool) -> Resync {
        Resync {
            stream_core,
            strict,
            prev_dec: None,
            records: 0,
            open_gap: None,
        }
    }

    /// Hands `record` the records of `buf`, whose first byte sits at
    /// stream offset `base`, up to the next gap, and returns that gap;
    /// `None` once `buf` holds no further item. `pos` is the stream
    /// offset of the next record. `end` is the stream's length once it
    /// is known. Until `buf` reaches it more bytes may arrive, so a
    /// record or resync candidate that fails only for lack of bytes
    /// pauses the scan (`None`) instead of opening (or extending) a
    /// gap.
    ///
    /// While no gap is open, the clean-record run decodes consecutive
    /// records straight from `buf` in one loop. It stops without
    /// consuming at the first record that `decode_checked` rejects or
    /// that the end of `buf` cuts, and only that record takes the
    /// error path: a pause, a strict stop, or an opened gap whose
    /// resync scan then runs.
    #[inline]
    fn next_gap<'b>(
        &mut self,
        buf: &'b [u8],
        base: usize,
        pos: &mut usize,
        end: Option<usize>,
        mut record: impl FnMut(RecordRef<'b>),
    ) -> Option<DecodeGap> {
        let finished = end.is_some_and(|e| base + buf.len() >= e);
        let spe = self.stream_core.is_some_and(TraceCore::is_spe);
        loop {
            if let Some(gap) = &mut self.open_gap {
                // Resync scan: candidate headers live on the 16-byte
                // grid of the original stream.
                let rel = gap.cand - base;
                if rel >= buf.len() {
                    if !finished {
                        return None;
                    }
                } else {
                    match decode_checked(&buf[rel..], self.stream_core, self.prev_dec) {
                        Ok(_) => {}
                        Err(RecordError::Truncated { .. }) if !finished => return None,
                        Err(_) => {
                            gap.cand += 16;
                            continue;
                        }
                    }
                }
                *pos = gap.cand.min(base + buf.len());
                return self.open_gap.take().map(|g| g.close(*pos));
            }
            // The clean-record run.
            let mut rest = pos.checked_sub(base).and_then(|rel| buf.get(rel..))?;
            let cause = loop {
                match decode_checked(rest, self.stream_core, self.prev_dec) {
                    Ok((rec, used)) => {
                        if spe {
                            self.prev_dec = Some(rec.timestamp as u32);
                        }
                        self.records += 1;
                        rest = &rest[used..];
                        record(rec);
                    }
                    Err(cause) => break cause,
                }
            };
            *pos = base + buf.len() - rest.len();
            match cause {
                // Every byte of `buf` is decoded.
                _ if rest.is_empty() => return None,
                // A partial record at the chunk tail: wait for more
                // bytes. At end-of-stream the same error is a torn
                // flush and falls through to open a gap.
                RecordError::Truncated { .. } if !finished => return None,
                // A strict gap runs to the end of the stream, which a
                // strict scan always knows, not to the end of `buf`.
                cause if self.strict => {
                    let gap = OpenGap {
                        start: *pos,
                        cause,
                        records_before: self.records,
                        cand: *pos,
                    };
                    *pos = end.unwrap_or(base + buf.len());
                    return Some(gap.close(*pos));
                }
                cause => {
                    self.open_gap = Some(OpenGap {
                        start: *pos,
                        cause,
                        records_before: self.records,
                        cand: *pos + 16,
                    });
                }
            }
        }
    }
}

/// Walks a complete stream, handing out records borrowed from `bytes`
/// and the gaps between them, in stream order: a [`ChunkScan`] over
/// one chunk that holds the whole stream.
#[derive(Debug, Clone)]
pub struct RecordScan<'a> {
    bytes: &'a [u8],
    scan: ChunkScan,
}

impl<'a> RecordScan<'a> {
    /// A lossy scan: resynchronizes past corruption exactly like
    /// [`decode_stream_lossy`] with the same `stream_core` hint.
    pub fn lossy(bytes: &'a [u8], stream_core: Option<TraceCore>) -> RecordScan<'a> {
        RecordScan {
            bytes,
            scan: ChunkScan::lossy(bytes.len(), stream_core),
        }
    }

    /// A strict scan: accepts exactly what [`decode_stream`] accepts and
    /// stops at the first malformed record, reporting it as a gap.
    pub fn strict(bytes: &'a [u8]) -> RecordScan<'a> {
        RecordScan {
            bytes,
            scan: ChunkScan::strict(bytes.len()),
        }
    }

    /// Records yielded so far.
    pub fn records(&self) -> u64 {
        self.scan.records()
    }

    /// Hands `record` every record up to the next gap and returns that
    /// gap; `None` once the stream is done (see
    /// [`ChunkScan::next_gap`]). A strict scan returns at most one gap,
    /// for the first malformed record.
    #[inline]
    pub fn next_gap(&mut self, record: impl FnMut(RecordRef<'a>)) -> Option<DecodeGap> {
        self.scan.next_gap(self.bytes, 0, record)
    }
}

/// The decoder over a stream of known length whose bytes the caller
/// reads in chunks, such as a stream region of a trace file read with
/// positioned reads into one reused buffer.
///
/// The caller drives it:
///
/// ```
/// # use pdt::ChunkScan;
/// # let stream = vec![0u8; 0];
/// let mut scan = ChunkScan::lossy(stream.len(), None);
/// let (mut records, mut gaps) = (0, 0);
/// while !scan.is_done() {
///     // Read the chunk starting at `resume_at`; at least
///     // `ChunkScan::MIN_CHUNK` bytes unless the stream ends first.
///     let base = scan.resume_at();
///     let end = stream.len().min(base + ChunkScan::MIN_CHUNK);
///     let chunk = &stream[base..end];
///     while let Some(_gap) = scan.next_gap(chunk, base, |_record| records += 1) {
///         gaps += 1;
///     }
/// }
/// ```
///
/// Whatever the chunking, it yields exactly the items a [`RecordScan`]
/// over the whole stream yields: a record or resync candidate cut by
/// the end of a chunk is retried from [`resume_at`](Self::resume_at) in
/// the next one, and a gap that spans chunks is reported once.
#[derive(Debug, Clone)]
pub struct ChunkScan {
    resync: Resync,
    /// Stream offset of the next record when no gap is open.
    pos: usize,
    /// The stream's length in bytes.
    len: usize,
}

impl ChunkScan {
    /// The smallest chunk that always lets a scan go on: one record of
    /// the most granules a header can claim (255 × 16 bytes). A chunk
    /// this long that starts at [`resume_at`](Self::resume_at) holds
    /// whatever the next step needs.
    pub const MIN_CHUNK: usize = 255 * 16;

    /// A lossy scan of a `len`-byte stream, like [`RecordScan::lossy`].
    pub fn lossy(len: usize, stream_core: Option<TraceCore>) -> ChunkScan {
        ChunkScan {
            resync: Resync::new(stream_core, false),
            pos: 0,
            len,
        }
    }

    /// A strict scan of a `len`-byte stream, like [`RecordScan::strict`].
    /// Its one gap runs to the end of the stream.
    pub fn strict(len: usize) -> ChunkScan {
        ChunkScan {
            resync: Resync::new(None, true),
            pos: 0,
            len,
        }
    }

    /// Stream offset of the first byte the scan still needs: where the
    /// next chunk must start.
    pub fn resume_at(&self) -> usize {
        match &self.resync.open_gap {
            Some(g) => g.cand,
            None => self.pos,
        }
    }

    /// True once every byte of the stream is decoded or in a gap.
    pub fn is_done(&self) -> bool {
        self.resync.open_gap.is_none() && self.pos >= self.len
    }

    /// Records yielded so far.
    pub fn records(&self) -> u64 {
        self.resync.records
    }

    /// Hands `record` the records of `chunk`, the stream bytes from
    /// offset `base` (the [`resume_at`](Self::resume_at) before the
    /// chunk was read) up to at most the stream's end, as far as the
    /// next gap, and returns that gap. `None` once the chunk holds no
    /// further item: read the next chunk unless the scan
    /// [`is_done`](Self::is_done).
    ///
    /// The records between two gaps decode in one tight loop, the
    /// clean-record run, which accepts through the same decode-and-check
    /// definition as the resync scan and stops without consuming at the
    /// first record that fails or that the chunk's end cuts.
    #[inline]
    pub fn next_gap<'b>(
        &mut self,
        chunk: &'b [u8],
        base: usize,
        record: impl FnMut(RecordRef<'b>),
    ) -> Option<DecodeGap> {
        self.resync
            .next_gap(chunk, base, &mut self.pos, Some(self.len), record)
    }
}

/// Decodes a byte stream, resynchronizing past corruption instead of
/// failing.
///
/// On a malformed record the decoder scans forward in 16-byte steps
/// (the record granule size, so an intact suffix stays aligned) until a
/// record decodes *and* satisfies the stream invariants — core tag
/// matching `stream_core`, SPE decrementer snapshots fitting `u32` and
/// stepping monotonically within [`DEFAULT_WRAP_TOLERANCE`] — then
/// emits a [`DecodeGap`] covering the skipped range and continues.
///
/// On uncorrupted input the output records are exactly those of
/// [`decode_stream`] and `gaps` is empty.
pub fn decode_stream_lossy(bytes: &[u8], stream_core: Option<TraceCore>) -> LossyDecode {
    let mut out = LossyDecode::default();
    let mut scan = RecordScan::lossy(bytes, stream_core);
    while let Some(g) = scan.next_gap(|r| out.records.push(r.to_record())) {
        out.gaps.push(g);
    }
    out
}

/// Incremental counterpart of [`decode_stream_lossy`]: feed a stream's
/// bytes in arbitrary chunks and get the identical records and gaps.
///
/// The cursor carries every piece of decoder state across chunk
/// boundaries — the partial record at the tail of a chunk, the last
/// good decrementer snapshot, and (crucially) an in-progress resync
/// scan. A gap that spans a chunk boundary therefore stays *open* until
/// its true end is found and is reported exactly once, where a naive
/// per-chunk decode would re-enter it at the next buffer start and
/// double-count it.
///
/// A record (or resync candidate) that fails only because bytes are
/// missing is held back, not treated as corrupt, until [`finish`] marks
/// the stream complete — truncation at a chunk boundary is expected,
/// truncation at end-of-stream is a torn flush. After `finish`, the
/// concatenation of everything [`take_output`] returned equals
/// `decode_stream_lossy` over the whole stream, byte for byte, for
/// every possible chunking.
///
/// The cursor buffers only the undecodable tail (at most one maximal
/// record), so memory stays bounded no matter how the stream is
/// chunked.
///
/// [`finish`]: LossyCursor::finish
/// [`take_output`]: LossyCursor::take_output
#[derive(Debug, Clone)]
pub struct LossyCursor {
    resync: Resync,
    /// Undecoded carry bytes; `buf[0]` sits at absolute offset `base`.
    buf: Vec<u8>,
    base: usize,
    /// Absolute offset of the next record when no gap is open.
    pos: usize,
    records: Vec<TraceRecord>,
    gaps: Vec<DecodeGap>,
    finished: bool,
}

impl LossyCursor {
    /// Creates a cursor for a stream claimed to come from `stream_core`
    /// (the same hint [`decode_stream_lossy`] takes), using
    /// [`DEFAULT_WRAP_TOLERANCE`].
    pub fn new(stream_core: Option<TraceCore>) -> LossyCursor {
        LossyCursor {
            resync: Resync::new(stream_core, false),
            buf: Vec::new(),
            base: 0,
            pos: 0,
            records: Vec::new(),
            gaps: Vec::new(),
            finished: false,
        }
    }

    /// Appends the next chunk of stream bytes and decodes as far as the
    /// data allows.
    ///
    /// # Panics
    ///
    /// Panics if the cursor was already [`finish`](LossyCursor::finish)ed.
    pub fn push(&mut self, chunk: &[u8]) {
        // Caller contract (see Panics): a finished stream's bytes are final.
        assert!(!self.finished, "push after finish");
        self.buf.extend_from_slice(chunk);
        self.drain();
    }

    /// Marks the stream complete: a held-back partial record becomes a
    /// torn-tail gap and an in-progress resync scan runs to the end,
    /// exactly as the one-shot decoder would at end of input. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.drain();
        // Invariant: a finished drain decodes every byte or gaps it, so no carry is left.
        debug_assert!(self.buf.is_empty(), "finish consumes every byte");
        // Invariant: a finished drain runs any resync scan to the end and closes its gap.
        debug_assert!(self.resync.open_gap.is_none(), "finish closes any open gap");
    }

    /// True once [`finish`](LossyCursor::finish) has been called.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Total records decoded so far (including ones already taken).
    pub fn decoded_total(&self) -> u64 {
        self.resync.records
    }

    /// Absolute stream offset of the first byte not yet fully decoded.
    pub fn offset(&self) -> usize {
        match &self.resync.open_gap {
            Some(g) => g.start,
            None => self.pos,
        }
    }

    /// Takes the records and gaps decoded since the last take, in
    /// stream order. Gap offsets are absolute within the stream.
    pub fn take_output(&mut self) -> LossyDecode {
        LossyDecode {
            records: std::mem::take(&mut self.records),
            gaps: std::mem::take(&mut self.gaps),
        }
    }

    /// What [`finish`](LossyCursor::finish) would emit *beyond* output
    /// already produced, without consuming the cursor: the cursor can
    /// keep accepting chunks afterwards. Used to build exact
    /// point-in-time snapshots of a stream still being appended.
    pub fn finish_preview(&self) -> LossyDecode {
        if self.finished {
            return LossyDecode::default();
        }
        let mut probe = self.clone();
        probe.records = Vec::new();
        probe.gaps = Vec::new();
        probe.finish();
        probe.take_output()
    }

    /// Decodes as much of `buf` as the data (and `finished`) allows,
    /// then discards the consumed prefix so the carry stays bounded.
    fn drain(&mut self) {
        let end = self.finished.then_some(self.base + self.buf.len());
        let records = &mut self.records;
        while let Some(g) = self
            .resync
            .next_gap(&self.buf, self.base, &mut self.pos, end, |r| {
                records.push(r.to_record())
            })
        {
            self.gaps.push(g);
        }
        // Discard everything before the live position: decoded records,
        // and (when a gap is open) its interior — only offsets matter.
        let keep_abs = match &self.resync.open_gap {
            Some(g) => g.cand,
            None => self.pos,
        };
        let keep_rel = keep_abs - self.base;
        if keep_rel > 0 {
            self.buf.drain(..keep_rel);
            self.base = keep_abs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(nparams: usize) -> TraceRecord {
        TraceRecord {
            core: TraceCore::Spe(3),
            code: EventCode::SpeDmaGet,
            timestamp: 0xdead_beef_cafe,
            params: (0..nparams as u64).map(|i| i * 7 + 1).collect(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for n in 0..=6 {
            let r = rec(n);
            let mut bytes = Vec::new();
            r.encode_into(&mut bytes);
            assert_eq!(bytes.len(), r.encoded_len());
            assert_eq!(bytes.len() % 16, 0, "records are 16-byte granular");
            let (d, used) = TraceRecord::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(d, r);
        }
    }

    #[test]
    fn stream_of_mixed_records_decodes() {
        let mut bytes = Vec::new();
        let records: Vec<TraceRecord> = (0..5).map(rec).collect();
        for r in &records {
            r.encode_into(&mut bytes);
        }
        let decoded = decode_stream(&bytes).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn truncated_stream_reports_offset() {
        let mut bytes = Vec::new();
        rec(2).encode_into(&mut bytes);
        let full = bytes.len();
        rec(4).encode_into(&mut bytes);
        bytes.truncate(full + 8);
        let (off, err) = decode_stream(&bytes).unwrap_err();
        assert_eq!(off, full);
        assert!(matches!(err, RecordError::Truncated { .. }));
    }

    #[test]
    fn unknown_code_is_rejected() {
        let mut bytes = Vec::new();
        rec(0).encode_into(&mut bytes);
        bytes[2] = 0xff;
        bytes[3] = 0xff;
        let err = TraceRecord::decode(&bytes).unwrap_err();
        assert_eq!(err, RecordError::UnknownCode { raw: 0xffff });
    }

    #[test]
    fn zero_granules_is_corrupt() {
        let mut bytes = vec![0u8; 16];
        assert_eq!(
            TraceRecord::decode(&bytes).unwrap_err(),
            RecordError::ZeroLength
        );
        bytes[0] = 2;
        bytes[4] = 9; // param count inconsistent with 2 granules
        let err = TraceRecord::decode(&bytes).unwrap_err();
        assert!(matches!(
            err,
            RecordError::Truncated { .. } | RecordError::BadParamCount { .. }
        ));
    }

    #[test]
    fn core_tag_roundtrip() {
        for c in [
            TraceCore::Ppe(0),
            TraceCore::Ppe(1),
            TraceCore::Spe(0),
            TraceCore::Spe(15),
        ] {
            assert_eq!(TraceCore::from_tag(c.tag()), c);
        }
        assert!(TraceCore::Spe(2).is_spe());
        assert!(!TraceCore::Ppe(0).is_spe());
        assert_eq!(TraceCore::Spe(4).to_string(), "SPE4");
    }

    fn spe_rec(dec: u64, nparams: usize) -> TraceRecord {
        TraceRecord {
            core: TraceCore::Spe(3),
            code: EventCode::SpeDmaGet,
            timestamp: dec,
            params: (0..nparams as u64).collect(),
        }
    }

    fn spe_stream(decs: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (i, &d) in decs.iter().enumerate() {
            spe_rec(d, i % 3).encode_into(&mut bytes);
        }
        bytes
    }

    #[test]
    fn lossy_matches_strict_on_clean_stream() {
        let bytes = spe_stream(&[5000, 4800, 4700, 4100, 4099]);
        let strict = decode_stream(&bytes).unwrap();
        let lossy = decode_stream_lossy(&bytes, Some(TraceCore::Spe(3)));
        assert!(lossy.is_clean());
        assert_eq!(lossy.gap_bytes(), 0);
        assert_eq!(lossy.est_lost_records(), 0);
        assert_eq!(lossy.records, strict);
        // Also with no stream-core hint.
        assert_eq!(decode_stream_lossy(&bytes, None).records, strict);
    }

    #[test]
    fn lossy_resyncs_past_header_corruption() {
        let bytes = spe_stream(&[5000, 4800, 4700, 4100, 4099]);
        let mut damaged = bytes.clone();
        // Record 1 starts at 16 (record 0 has 0 params = 1 granule).
        damaged[16] = 0; // zero granule count
        let lossy = decode_stream_lossy(&damaged, Some(TraceCore::Spe(3)));
        assert_eq!(lossy.gaps.len(), 1);
        assert_eq!(lossy.gaps[0].offset, 16);
        assert!(matches!(lossy.gaps[0].cause, RecordError::ZeroLength));
        assert!(lossy.gap_bytes() > 0);
        assert!(lossy.est_lost_records() >= 1);
        // One record survived before the gap, so the gap sits between
        // surviving records 0 and 1.
        assert_eq!(lossy.gaps[0].records_before, 1);
        // Records before and after the gap survive.
        assert_eq!(lossy.records.first().unwrap().timestamp, 5000);
        assert_eq!(lossy.records.last().unwrap().timestamp, 4099);
        assert!(lossy.records.len() < 5);
    }

    #[test]
    fn lossy_reports_torn_tail() {
        let mut bytes = spe_stream(&[5000, 4800]);
        let full = bytes.len();
        bytes.truncate(full - 7); // torn flush: partial final granule
        let lossy = decode_stream_lossy(&bytes, Some(TraceCore::Spe(3)));
        assert_eq!(lossy.records.len(), 1);
        assert_eq!(lossy.gaps.len(), 1);
        assert!(matches!(
            lossy.gaps[0].cause,
            RecordError::Truncated { .. } | RecordError::BadParamCount { .. }
        ));
        assert!(lossy.gaps[0].est_records >= 1);
    }

    #[test]
    fn lossy_rejects_core_mismatch_and_backward_decrementer() {
        // A record from another SPE spliced into SPE3's stream.
        let mut bytes = spe_stream(&[5000, 4800]);
        bytes[16 + 1] = TraceCore::Spe(7).tag();
        let lossy = decode_stream_lossy(&bytes, Some(TraceCore::Spe(3)));
        assert_eq!(lossy.records.len(), 1);
        assert!(matches!(
            lossy.gaps[0].cause,
            RecordError::CoreMismatch { .. }
        ));

        // Decrementer jumping upward (duplicated flush window).
        let bytes = spe_stream(&[5000, 4800, 5000, 4800]);
        let lossy = decode_stream_lossy(&bytes, Some(TraceCore::Spe(3)));
        assert!(lossy
            .gaps
            .iter()
            .any(|g| matches!(g.cause, RecordError::TimestampJump { .. })));

        // Timestamp wider than the 32-bit decrementer.
        let bytes = spe_stream(&[5000, u64::from(u32::MAX) + 10]);
        let lossy = decode_stream_lossy(&bytes, Some(TraceCore::Spe(3)));
        assert!(lossy
            .gaps
            .iter()
            .any(|g| matches!(g.cause, RecordError::TimestampWide { .. })));
    }

    #[test]
    fn lossy_ppe_stream_accepts_any_thread_tag() {
        let mut bytes = Vec::new();
        for t in 0..3u8 {
            TraceRecord {
                core: TraceCore::Ppe(t),
                code: EventCode::PpeUser,
                timestamp: 1000 + u64::from(t),
                params: vec![1, 2],
            }
            .encode_into(&mut bytes);
        }
        let lossy = decode_stream_lossy(&bytes, Some(TraceCore::Ppe(0)));
        assert!(lossy.is_clean());
        assert_eq!(lossy.records.len(), 3);
    }

    #[test]
    fn lossy_terminates_on_pure_garbage() {
        let bytes = vec![0xa5u8; 16 * 9 + 3];
        let lossy = decode_stream_lossy(&bytes, Some(TraceCore::Spe(0)));
        assert!(lossy.records.is_empty());
        assert_eq!(lossy.gap_bytes(), bytes.len() as u64);
        assert!(lossy.est_lost_records() >= 1);
    }

    #[test]
    fn granule_math() {
        assert_eq!(granules_for(0), 1);
        assert_eq!(granules_for(1), 2);
        assert_eq!(granules_for(2), 2);
        assert_eq!(granules_for(3), 3);
        assert_eq!(granules_for(4), 3);
    }

    /// Runs `bytes` through a cursor split at the given points and
    /// returns the concatenated output.
    fn chunked(bytes: &[u8], core: Option<TraceCore>, splits: &[usize]) -> LossyDecode {
        let mut cur = LossyCursor::new(core);
        let mut out = LossyDecode::default();
        let mut prev = 0;
        for &s in splits {
            cur.push(&bytes[prev..s]);
            let d = cur.take_output();
            out.records.extend(d.records);
            out.gaps.extend(d.gaps);
            prev = s;
        }
        cur.push(&bytes[prev..]);
        cur.finish();
        assert!(cur.is_finished());
        let d = cur.take_output();
        out.records.extend(d.records);
        out.gaps.extend(d.gaps);
        assert_eq!(cur.decoded_total(), out.records.len() as u64);
        out
    }

    /// Asserts cursor == one-shot at every single split point and under
    /// 1-byte chunking.
    fn assert_chunking_invariant(bytes: &[u8], core: Option<TraceCore>) {
        let oneshot = decode_stream_lossy(bytes, core);
        for split in 0..=bytes.len() {
            assert_eq!(
                chunked(bytes, core, &[split]),
                oneshot,
                "split at {split} of {}",
                bytes.len()
            );
        }
        let every_byte: Vec<usize> = (1..bytes.len()).collect();
        assert_eq!(chunked(bytes, core, &every_byte), oneshot, "1-byte chunks");
    }

    #[test]
    fn cursor_matches_oneshot_on_clean_stream() {
        let bytes = spe_stream(&[5000, 4800, 4700, 4100, 4099]);
        assert_chunking_invariant(&bytes, Some(TraceCore::Spe(3)));
        assert_chunking_invariant(&bytes, None);
    }

    #[test]
    fn cursor_matches_oneshot_on_header_corruption() {
        let mut bytes = spe_stream(&[5000, 4800, 4700, 4100, 4099]);
        bytes[16] = 0; // zero granule count on record 1
        assert_chunking_invariant(&bytes, Some(TraceCore::Spe(3)));
    }

    #[test]
    fn cursor_matches_oneshot_on_torn_tail() {
        let mut bytes = spe_stream(&[5000, 4800, 4700]);
        let full = bytes.len();
        bytes.truncate(full - 7);
        assert_chunking_invariant(&bytes, Some(TraceCore::Spe(3)));
    }

    #[test]
    fn cursor_matches_oneshot_on_invariant_violations() {
        // Core mismatch, decrementer jump, wide timestamp, garbage run.
        let mut spliced = spe_stream(&[5000, 4800, 4600]);
        spliced[16 + 1] = TraceCore::Spe(7).tag();
        assert_chunking_invariant(&spliced, Some(TraceCore::Spe(3)));

        let dup = spe_stream(&[5000, 4800, 5000, 4800]);
        assert_chunking_invariant(&dup, Some(TraceCore::Spe(3)));

        let wide = spe_stream(&[5000, u64::from(u32::MAX) + 10, 4800]);
        assert_chunking_invariant(&wide, Some(TraceCore::Spe(3)));

        let garbage = vec![0xa5u8; 16 * 9 + 3];
        assert_chunking_invariant(&garbage, Some(TraceCore::Spe(0)));

        let mut mixed = spe_stream(&[5000, 4800, 4700, 4600, 4500]);
        for b in &mut mixed[40..56] {
            *b ^= 0x5a;
        }
        assert_chunking_invariant(&mixed, Some(TraceCore::Spe(3)));
    }

    #[test]
    fn gap_spanning_chunk_boundary_is_counted_once() {
        let bytes = spe_stream(&[5000, 4800, 4700, 4100, 4099]);
        let mut damaged = bytes.clone();
        // Corrupt records 1 and 2 into one contiguous gap.
        damaged[16] = 0;
        damaged[32] = 0;
        let oneshot = decode_stream_lossy(&damaged, Some(TraceCore::Spe(3)));
        assert_eq!(oneshot.gaps.len(), 1, "one contiguous gap");
        // Split right in the middle of the gap: a per-chunk decoder
        // would report the gap once per chunk; the cursor must not.
        let split = 24;
        let got = chunked(&damaged, Some(TraceCore::Spe(3)), &[split]);
        assert_eq!(got.gaps.len(), 1, "gap re-entered at a chunk boundary");
        assert_eq!(got, oneshot);
    }

    #[test]
    fn cursor_finish_preview_is_nondestructive() {
        let mut bytes = spe_stream(&[5000, 4800, 4700]);
        let tail = bytes.split_off(20); // mid-record split
        let mut cur = LossyCursor::new(Some(TraceCore::Spe(3)));
        cur.push(&bytes);
        let early = cur.take_output();
        assert_eq!(early.records.len(), 1, "only the complete record");

        // Previewing a finish reports the held-back partial record as a
        // torn tail without disturbing the cursor.
        let preview = cur.finish_preview();
        assert_eq!(preview.records.len(), 0);
        assert_eq!(preview.gaps.len(), 1);
        assert!(matches!(
            preview.gaps[0].cause,
            RecordError::Truncated { .. }
        ));
        assert!(!cur.is_finished());

        // The real stream continues and the preview left no residue.
        cur.push(&tail);
        cur.finish();
        let rest = cur.take_output();
        assert_eq!(rest.records.len(), 2);
        assert!(rest.gaps.is_empty());
        assert_eq!(cur.finish_preview(), LossyDecode::default());
    }

    #[test]
    fn cursor_empty_pushes_are_harmless() {
        let bytes = spe_stream(&[5000, 4800]);
        let mut cur = LossyCursor::new(Some(TraceCore::Spe(3)));
        cur.push(&[]);
        cur.push(&bytes);
        cur.push(&[]);
        cur.finish();
        cur.finish(); // idempotent
        assert_eq!(
            cur.take_output(),
            decode_stream_lossy(&bytes, Some(TraceCore::Spe(3)))
        );
    }
}
