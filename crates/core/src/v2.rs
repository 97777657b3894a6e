//! The PDT v2 blocked, compressed trace container (`pdt2`).
//!
//! The v1 format ([`crate::format`]) stores raw 16-byte record
//! granules and must be held fully in memory. The v2 container splits
//! every stream into fixed-size blocks of column-major records with
//! per-block compression — delta + varint timestamps, dictionary-coded
//! event codes, all hand-rolled (no external codec dependencies) — and
//! carries a per-block *footer directory* (min/max global timestamp,
//! core set, event-group mask, decode-entry state) so windowed queries
//! can skip whole blocks without decoding them.
//!
//! ```text
//! magic     "PDT2"
//! u16       version (2)
//! header    num_ppe_threads .. spe_buffer_bytes, exactly as v1
//! u32       stream count
//! streams:  40-byte stream header
//!             u8  core_tag, u8 anchoring, u16 pad,
//!             u32 n_blocks, u64 dropped, u64 raw_len,
//!             u64 payloads_len, u64 run_tb
//!           payloads_len bytes of blocks, each:
//!             17-byte inline prefix (kind, n_records, raw_len,
//!                                    payload_len, payload_crc)
//!             payload bytes
//!           n_blocks x 80-byte directory entries (the footers)
//! names:    u32 count, then per entry u32 ctx, u32 len, utf-8 bytes
//! ```
//!
//! Two block kinds exist. **Packed** blocks hold a run of records that
//! decode cleanly under the stream invariants of
//! [`decode_stream_lossy`]; their payload is columnar and compressed.
//! **Raw** blocks hold byte ranges the lossy decoder skipped
//! ([`DecodeGap`](crate::DecodeGap)s) verbatim. Decoding a v2 stream therefore
//! reconstructs the *decode-equivalent* v1 byte stream: every clean
//! record re-encodes canonically at its original offset and every gap
//! byte is preserved, so the lossy decoder reports identical records,
//! gaps and resync behavior — loss accounting survives the format
//! conversion exactly.
//!
//! Corruption inside a v2 image (a failed payload CRC, a torn block, a
//! flipped footer) is never fatal: readers substitute zero bytes for
//! the block's raw range, which the lossy decoder reports as a single
//! [`DecodeGap`](crate::DecodeGap) — damage degrades to the same loss accounting the v1
//! path uses.

use std::io::{self, Seek, SeekFrom, Write};

use bytes::{Buf, BufMut};

use crate::event::EventCode;
use crate::format::{TraceFile, TraceHeader, TraceStream, VERSION};
use crate::record::{decode_stream_lossy, TraceCore, TraceRecord, MAX_PARAMS};

/// v2 container magic bytes.
pub const MAGIC2: &[u8; 4] = b"PDT2";

/// v2 container version.
pub const VERSION2: u16 = 2;

/// Default records per packed block.
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// Raw (gap) payload bytes per block before splitting.
pub const RAW_BLOCK_MAX: usize = 1 << 24;

/// Size of a stream header.
pub const STREAM_HEADER_BYTES: usize = 40;

/// Size of a block's inline prefix.
pub const PREFIX_BYTES: usize = 17;

/// Size of one directory entry (block footer).
pub const ENTRY_BYTES: usize = 80;

/// Errors from parsing or decoding a v2 container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum V2Error {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion {
        /// The version found.
        found: u16,
    },
    /// The image ended early.
    Truncated {
        /// What was being read.
        reading: &'static str,
    },
    /// A structural or CRC inconsistency.
    Corrupt {
        /// What failed to validate.
        what: &'static str,
    },
    /// A name-table entry is not UTF-8.
    BadName,
}

impl std::fmt::Display for V2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V2Error::BadMagic => f.write_str("not a PDT v2 container (bad magic)"),
            V2Error::BadVersion { found } => {
                write!(f, "unsupported v2 version {found} (expected {VERSION2})")
            }
            V2Error::Truncated { reading } => {
                write!(f, "v2 container truncated while reading {reading}")
            }
            V2Error::Corrupt { what } => write!(f, "v2 container corrupt: {what}"),
            V2Error::BadName => f.write_str("context name is not valid utf-8"),
        }
    }
}

impl std::error::Error for V2Error {}

impl From<V2Error> for io::Error {
    /// An [`InvalidData`](io::ErrorKind::InvalidData) error that
    /// displays as the v2 error, for readers that walk a file.
    fn from(e: V2Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------
// Primitive codecs: varint, zigzag, crc32.
// ---------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads an LEB128 varint from the front of `buf`, advancing it.
/// Returns `None` on truncation or a varint wider than 64 bits.
pub fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&b, rest) = buf.split_first()?;
        *buf = rest;
        if shift == 63 && b > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Zigzag-encodes a signed delta so small magnitudes stay small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32 (IEEE 802.3) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Sync anchors (global-time placement for footer timestamps).
// ---------------------------------------------------------------------

/// A `PpeCtxRun` sync record harvested from a PPE stream: the bridge
/// from an SPE's decrementer snapshots to the global timebase. The v2
/// *packer* replicates the analyzer's harvest (first anchor per SPE, in
/// stream then record order) so block footers can carry global
/// timestamps; the analyzer itself still re-derives anchors from the
/// decoded records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncAnchor {
    /// SPE index.
    pub spe: u8,
    /// Context id (params\[0\]).
    pub ctx: u32,
    /// Timebase at context run (the record's timestamp).
    pub run_tb: u64,
    /// Decrementer start value (params\[2\]).
    pub dec_start: u32,
}

/// Harvests sync anchors from a trace's PPE streams exactly as the
/// analyzer does: lossy decode, first `PpeCtxRun` per SPE wins, in
/// stream then record order.
pub fn harvest_sync_anchors(trace: &TraceFile) -> Vec<SyncAnchor> {
    let mut anchors: Vec<SyncAnchor> = Vec::new();
    for s in &trace.streams {
        if s.core.is_spe() {
            continue;
        }
        for r in &decode_stream_lossy(&s.bytes, Some(s.core)).records {
            if r.code == EventCode::PpeCtxRun && r.params.len() >= 3 {
                let spe = r.params[1] as u8;
                if !anchors.iter().any(|a| a.spe == spe) {
                    anchors.push(SyncAnchor {
                        spe,
                        ctx: r.params[0] as u32,
                        run_tb: r.timestamp,
                        dec_start: r.params[2] as u32,
                    });
                }
            }
        }
    }
    anchors
}

// ---------------------------------------------------------------------
// Codec statistics.
// ---------------------------------------------------------------------

/// Counters describing what a v2 decode actually touched — the codec
/// analogue of the scheduler's `ExecStats`. A windowed query that
/// skips properly shows `blocks_skipped` close to the block total and
/// `payload_bytes_read` far below the container size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Packed blocks whose payload was decoded.
    pub blocks_decoded: u64,
    /// Blocks skipped via footer min/max without touching the payload.
    pub blocks_skipped: u64,
    /// Blocks treated as damaged (CRC/structure failure) and replaced
    /// by a zero-filled gap range.
    pub blocks_corrupt: u64,
    /// Records decoded out of packed payloads.
    pub records_decoded: u64,
    /// Compressed payload bytes read and decoded.
    pub payload_bytes_read: u64,
    /// Reconstructed v1 record bytes produced.
    pub raw_bytes_out: u64,
}

impl CodecStats {
    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &CodecStats) {
        self.blocks_decoded += other.blocks_decoded;
        self.blocks_skipped += other.blocks_skipped;
        self.blocks_corrupt += other.blocks_corrupt;
        self.records_decoded += other.records_decoded;
        self.payload_bytes_read += other.payload_bytes_read;
        self.raw_bytes_out += other.raw_bytes_out;
    }
}

// ---------------------------------------------------------------------
// Block metadata: inline prefixes and directory entries (footers).
// ---------------------------------------------------------------------

/// Block payload kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Columnar-compressed run of cleanly decodable records.
    Packed,
    /// Verbatim bytes of a [`DecodeGap`](crate::DecodeGap) range.
    Raw,
}

impl BlockKind {
    fn to_byte(self) -> u8 {
        match self {
            BlockKind::Packed => 0,
            BlockKind::Raw => 1,
        }
    }

    fn from_byte(b: u8) -> Option<BlockKind> {
        match b {
            0 => Some(BlockKind::Packed),
            1 => Some(BlockKind::Raw),
            _ => None,
        }
    }
}

/// Footer flag: this block covers a decode gap (raw bytes).
pub const FLAG_GAP: u8 = 1 << 0;
/// Footer flag: the stream had no sync anchor when written, so the
/// footer carries no global timestamps and its events (if any) are
/// unplaced — exactly the streams the analyzer discards as unanchored.
pub const FLAG_UNPLACED: u8 = 1 << 1;

/// One directory entry — the per-block footer that makes skipping
/// possible without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Payload kind.
    pub kind: BlockKind,
    /// [`FLAG_GAP`] / [`FLAG_UNPLACED`].
    pub flags: u8,
    /// Records in the block (0 for raw blocks).
    pub n_records: u32,
    /// Reconstructed v1 bytes the block decodes to.
    pub raw_len: u32,
    /// Stored payload bytes.
    pub payload_len: u32,
    /// CRC-32 of the payload bytes.
    pub payload_crc: u32,
    /// Bit `min(core_tag, 31)` set for every core appearing in the
    /// block's records.
    pub core_mask: u32,
    /// OR of [`crate::EventGroup`] bits of the block's event codes.
    pub group_mask: u32,
    /// SPE decrementer snapshot in force *before* the block's first
    /// record (the anchor's `dec_start` for block 0). Lets a reader
    /// resume time reconstruction mid-stream.
    pub entry_dec: u32,
    /// Minimum global timestamp of the block's records. For gap blocks
    /// this brackets: the last placed time before the gap.
    pub min_tb: u64,
    /// Maximum global timestamp. For gap blocks: the first placed time
    /// after the gap (`u64::MAX` when the gap runs to end of stream).
    pub max_tb: u64,
    /// Cumulative elapsed decrementer ticks before the block.
    pub entry_elapsed: u64,
    /// Decoded records preceding this block in the stream (the first
    /// record's `stream_seq`).
    pub entry_seq: u64,
    /// Offset of the block's inline prefix within the stream's block
    /// region.
    pub block_off: u64,
}

impl BlockEntry {
    /// True when `[min_tb, max_tb]` intersects the half-open query
    /// window `[start_tb, end_tb)`.
    pub fn overlaps(&self, start_tb: u64, end_tb: u64) -> bool {
        self.min_tb < end_tb && self.max_tb >= start_tb
    }

    /// Serializes to the 80-byte on-disk entry (with trailing CRC).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.put_u8(self.kind.to_byte());
        out.put_u8(self.flags);
        out.put_u16_le(0);
        out.put_u32_le(self.n_records);
        out.put_u32_le(self.raw_len);
        out.put_u32_le(self.payload_len);
        out.put_u32_le(self.payload_crc);
        out.put_u32_le(self.core_mask);
        out.put_u32_le(self.group_mask);
        out.put_u32_le(self.entry_dec);
        out.put_u64_le(self.min_tb);
        out.put_u64_le(self.max_tb);
        out.put_u64_le(self.entry_elapsed);
        out.put_u64_le(self.entry_seq);
        out.put_u64_le(self.block_off);
        let crc = crc32(&out[start..]);
        out.put_u32_le(crc);
        out.put_u32_le(0);
        debug_assert_eq!(out.len() - start, ENTRY_BYTES);
    }

    /// Parses an 80-byte directory entry, verifying its CRC.
    ///
    /// # Errors
    ///
    /// Returns [`V2Error::Corrupt`] when the entry CRC or kind byte is
    /// invalid, [`V2Error::Truncated`] when fewer than
    /// [`ENTRY_BYTES`] are available.
    pub fn decode(bytes: &[u8]) -> Result<BlockEntry, V2Error> {
        if bytes.len() < ENTRY_BYTES {
            return Err(V2Error::Truncated {
                reading: "directory entry",
            });
        }
        let mut buf = &bytes[72..];
        let stored_crc = buf.get_u32_le();
        if crc32(&bytes[..72]) != stored_crc {
            return Err(V2Error::Corrupt {
                what: "directory entry crc",
            });
        }
        let mut buf = &bytes[..72];
        let kind = BlockKind::from_byte(buf.get_u8()).ok_or(V2Error::Corrupt {
            what: "directory entry kind",
        })?;
        let flags = buf.get_u8();
        buf.advance(2);
        Ok(BlockEntry {
            kind,
            flags,
            n_records: buf.get_u32_le(),
            raw_len: buf.get_u32_le(),
            payload_len: buf.get_u32_le(),
            payload_crc: buf.get_u32_le(),
            core_mask: buf.get_u32_le(),
            group_mask: buf.get_u32_le(),
            entry_dec: buf.get_u32_le(),
            min_tb: buf.get_u64_le(),
            max_tb: buf.get_u64_le(),
            entry_elapsed: buf.get_u64_le(),
            entry_seq: buf.get_u64_le(),
            block_off: buf.get_u64_le(),
        })
    }
}

/// A block's inline prefix: the minimal metadata a *streaming* reader
/// needs (the directory arrives after the payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPrefix {
    /// Payload kind.
    pub kind: BlockKind,
    /// Records in the block (0 for raw blocks).
    pub n_records: u32,
    /// Reconstructed v1 bytes the block decodes to.
    pub raw_len: u32,
    /// Stored payload bytes.
    pub payload_len: u32,
    /// CRC-32 of the payload bytes.
    pub payload_crc: u32,
}

impl BlockPrefix {
    /// Serializes the 17-byte prefix.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u8(self.kind.to_byte());
        out.put_u32_le(self.n_records);
        out.put_u32_le(self.raw_len);
        out.put_u32_le(self.payload_len);
        out.put_u32_le(self.payload_crc);
    }

    /// Parses a 17-byte prefix.
    ///
    /// # Errors
    ///
    /// Returns [`V2Error::Truncated`] on short input and
    /// [`V2Error::Corrupt`] on an invalid kind byte.
    pub fn decode(bytes: &[u8]) -> Result<BlockPrefix, V2Error> {
        if bytes.len() < PREFIX_BYTES {
            return Err(V2Error::Truncated {
                reading: "block prefix",
            });
        }
        let mut buf = bytes;
        let kind = BlockKind::from_byte(buf.get_u8()).ok_or(V2Error::Corrupt {
            what: "block prefix kind",
        })?;
        Ok(BlockPrefix {
            kind,
            n_records: buf.get_u32_le(),
            raw_len: buf.get_u32_le(),
            payload_len: buf.get_u32_le(),
            payload_crc: buf.get_u32_le(),
        })
    }
}

// ---------------------------------------------------------------------
// Packed payload codec (columnar, compressed).
// ---------------------------------------------------------------------

/// Encodes a run of cleanly decodable records as a columnar packed
/// payload: an event-code dictionary, core/param-count columns (each
/// collapsing to a single byte when uniform), delta+varint timestamps
/// and varint parameters.
///
/// # Panics
///
/// Panics on an empty run, more than 255 distinct event codes (cannot
/// happen — the code space is smaller) or a record with more than
/// [`MAX_PARAMS`] parameters.
pub fn encode_packed_payload(records: &[TraceRecord]) -> Vec<u8> {
    assert!(!records.is_empty(), "packed block must hold records");
    let mut dict: Vec<u16> = Vec::new();
    let mut indices: Vec<u8> = Vec::with_capacity(records.len());
    for r in records {
        let raw = r.code.raw();
        let idx = match dict.iter().position(|&c| c == raw) {
            Some(i) => i,
            None => {
                dict.push(raw);
                assert!(dict.len() <= 255, "event-code dictionary overflow");
                dict.len() - 1
            }
        };
        indices.push(idx as u8);
    }
    let first_tag = records[0].core.tag();
    let uniform_core = records.iter().all(|r| r.core.tag() == first_tag);
    let first_np = records[0].params.len();
    let uniform_np = records.iter().all(|r| r.params.len() == first_np);

    let mut out = Vec::with_capacity(records.len() * 4);
    out.put_u8(dict.len() as u8);
    for &c in &dict {
        out.put_u16_le(c);
    }
    out.put_u8(u8::from(uniform_core));
    out.put_u8(u8::from(uniform_np));
    if uniform_core {
        out.put_u8(first_tag);
    } else {
        for r in records {
            out.put_u8(r.core.tag());
        }
    }
    if uniform_np {
        assert!(first_np <= MAX_PARAMS);
        out.put_u8(first_np as u8);
    } else {
        for r in records {
            assert!(r.params.len() <= MAX_PARAMS);
            out.put_u8(r.params.len() as u8);
        }
    }
    out.extend_from_slice(&indices);
    put_varint(&mut out, records[0].timestamp);
    for pair in records.windows(2) {
        let delta = pair[1].timestamp.wrapping_sub(pair[0].timestamp) as i64;
        put_varint(&mut out, zigzag(delta));
    }
    for r in records {
        for &p in &r.params {
            put_varint(&mut out, p);
        }
    }
    out
}

/// Decodes a packed payload back into its records.
///
/// Every structural invariant is validated — dictionary bounds, known
/// event codes, parameter counts, varint termination, no trailing
/// bytes — so corrupt payloads fail cleanly instead of producing
/// records that were never written.
///
/// # Errors
///
/// Returns [`V2Error::Corrupt`] on any inconsistency.
pub fn decode_packed_payload(payload: &[u8], n_records: u32) -> Result<Vec<TraceRecord>, V2Error> {
    const CORRUPT: V2Error = V2Error::Corrupt {
        what: "packed payload",
    };
    let n = n_records as usize;
    if n == 0 {
        return Err(CORRUPT);
    }
    let mut buf = payload;
    let take = |buf: &mut &[u8], n: usize| -> Result<Vec<u8>, V2Error> {
        if buf.len() < n {
            return Err(CORRUPT);
        }
        let head = buf[..n].to_vec();
        buf.advance(n);
        Ok(head)
    };
    if buf.is_empty() {
        return Err(CORRUPT);
    }
    let dict_len = buf.get_u8() as usize;
    if dict_len == 0 || buf.len() < dict_len * 2 {
        return Err(CORRUPT);
    }
    let mut dict: Vec<EventCode> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let raw = buf.get_u16_le();
        dict.push(EventCode::from_raw(raw).ok_or(CORRUPT)?);
    }
    if buf.len() < 2 {
        return Err(CORRUPT);
    }
    let uniform_core = buf.get_u8();
    let uniform_np = buf.get_u8();
    if uniform_core > 1 || uniform_np > 1 {
        return Err(CORRUPT);
    }
    let tags: Vec<u8> = if uniform_core == 1 {
        take(&mut buf, 1)?
    } else {
        take(&mut buf, n)?
    };
    let nparams: Vec<u8> = if uniform_np == 1 {
        take(&mut buf, 1)?
    } else {
        take(&mut buf, n)?
    };
    if nparams.iter().any(|&p| p as usize > MAX_PARAMS) {
        return Err(CORRUPT);
    }
    let indices = take(&mut buf, n)?;
    if indices.iter().any(|&i| i as usize >= dict_len) {
        return Err(CORRUPT);
    }
    let mut timestamps: Vec<u64> = Vec::with_capacity(n);
    let mut prev = get_varint(&mut buf).ok_or(CORRUPT)?;
    timestamps.push(prev);
    for _ in 1..n {
        let delta = unzigzag(get_varint(&mut buf).ok_or(CORRUPT)?);
        prev = prev.wrapping_add(delta as u64);
        timestamps.push(prev);
    }
    let mut records: Vec<TraceRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let np = if uniform_np == 1 {
            nparams[0]
        } else {
            nparams[i]
        } as usize;
        let mut params = Vec::with_capacity(np);
        for _ in 0..np {
            params.push(get_varint(&mut buf).ok_or(CORRUPT)?);
        }
        let tag = if uniform_core == 1 { tags[0] } else { tags[i] };
        records.push(TraceRecord {
            core: TraceCore::from_tag(tag),
            code: dict[indices[i] as usize],
            timestamp: timestamps[i],
            params,
        });
    }
    if !buf.is_empty() {
        return Err(V2Error::Corrupt {
            what: "trailing packed payload bytes",
        });
    }
    Ok(records)
}

/// Re-encodes records to their canonical v1 byte stream.
pub fn records_to_bytes(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.iter().map(TraceRecord::encoded_len).sum());
    for r in records {
        r.encode_into(&mut out);
    }
    out
}

/// Sum of the records' canonical encoded lengths.
pub fn raw_len_of(records: &[TraceRecord]) -> usize {
    records.iter().map(TraceRecord::encoded_len).sum()
}

/// One packed block decoded column-wise: the struct-of-arrays twin of
/// [`decode_packed_payload`]'s `Vec<TraceRecord>`. The payload's
/// columns land directly in reusable buffers — no per-record `Vec`
/// allocation — so a reader can append them straight into its own
/// columnar store. Buffers keep their capacity across
/// [`decode_packed_columns`] calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnBatch {
    /// Per-record core tags (expanded to `n` entries even when the
    /// block stored a single uniform byte).
    pub tags: Vec<u8>,
    /// Per-record event codes.
    pub codes: Vec<EventCode>,
    /// Per-record raw timestamps (PPE: timebase; SPE: decrementer).
    pub timestamps: Vec<u64>,
    /// Parameter-range bounds into [`params`](Self::params);
    /// `n + 1` entries.
    pub params_off: Vec<u32>,
    /// Flattened parameters.
    pub params: Vec<u64>,
}

impl ColumnBatch {
    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Drops the contents, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.tags.clear();
        self.codes.clear();
        self.timestamps.clear();
        self.params_off.clear();
        self.params.clear();
    }

    /// Record `i`'s parameter slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn params_of(&self, i: usize) -> &[u64] {
        let lo = self.params_off[i] as usize;
        let hi = self.params_off[i + 1] as usize;
        &self.params[lo..hi]
    }

    /// Sum of the records' canonical v1 encoded lengths — what
    /// [`records_to_bytes`] would produce, computed from the counts
    /// alone.
    pub fn raw_len(&self) -> u64 {
        let mut total = 0u64;
        for w in self.params_off.windows(2) {
            let np = (w[1] - w[0]) as usize;
            total += (1 + np.div_ceil(2)) as u64 * 16;
        }
        total
    }

    /// Reconstructs record `i` (the row-form escape hatch for readers
    /// that fall back to the record path).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn record(&self, i: usize) -> TraceRecord {
        TraceRecord {
            core: TraceCore::from_tag(self.tags[i]),
            code: self.codes[i],
            timestamp: self.timestamps[i],
            params: self.params_of(i).to_vec(),
        }
    }
}

/// Decodes a packed payload straight into columnar buffers, appending
/// nothing on failure. Validation is identical to
/// [`decode_packed_payload`] — dictionary bounds, known event codes,
/// parameter counts, varint termination, no trailing bytes — and the
/// decoded columns are record-for-record equal to the record path.
///
/// # Errors
///
/// Returns [`V2Error::Corrupt`] on any inconsistency.
pub fn decode_packed_columns(
    payload: &[u8],
    n_records: u32,
    out: &mut ColumnBatch,
) -> Result<(), V2Error> {
    let r = decode_packed_columns_inner(payload, n_records, out);
    if r.is_err() {
        out.clear();
    }
    r
}

fn decode_packed_columns_inner(
    payload: &[u8],
    n_records: u32,
    out: &mut ColumnBatch,
) -> Result<(), V2Error> {
    const CORRUPT: V2Error = V2Error::Corrupt {
        what: "packed payload",
    };
    out.clear();
    let n = n_records as usize;
    if n == 0 || payload.is_empty() {
        return Err(CORRUPT);
    }
    let mut buf = payload;
    let take = |buf: &mut &[u8], n: usize| -> Result<(), V2Error> {
        if buf.len() < n {
            return Err(CORRUPT);
        }
        buf.advance(n);
        Ok(())
    };
    let dict_len = buf.get_u8() as usize;
    if dict_len == 0 || buf.len() < dict_len * 2 {
        return Err(CORRUPT);
    }
    let mut dict: [EventCode; 255] = [EventCode::PpeUser; 255];
    for slot in dict.iter_mut().take(dict_len) {
        let raw = buf.get_u16_le();
        *slot = EventCode::from_raw(raw).ok_or(CORRUPT)?;
    }
    if buf.len() < 2 {
        return Err(CORRUPT);
    }
    let uniform_core = buf.get_u8();
    let uniform_np = buf.get_u8();
    if uniform_core > 1 || uniform_np > 1 {
        return Err(CORRUPT);
    }
    let tags = buf;
    take(&mut buf, if uniform_core == 1 { 1 } else { n })?;
    let nparams = buf;
    take(&mut buf, if uniform_np == 1 { 1 } else { n })?;
    let np_bound = if uniform_np == 1 { 1 } else { n };
    if nparams[..np_bound].iter().any(|&p| p as usize > MAX_PARAMS) {
        return Err(CORRUPT);
    }
    let indices = buf;
    take(&mut buf, n)?;
    if indices[..n].iter().any(|&i| i as usize >= dict_len) {
        return Err(CORRUPT);
    }

    out.timestamps.reserve(n);
    let mut ts = get_varint(&mut buf).ok_or(CORRUPT)?;
    out.timestamps.push(ts);
    for _ in 1..n {
        let delta = unzigzag(get_varint(&mut buf).ok_or(CORRUPT)?);
        ts = ts.wrapping_add(delta as u64);
        out.timestamps.push(ts);
    }

    out.tags.reserve(n);
    if uniform_core == 1 {
        out.tags.resize(n, tags[0]);
    } else {
        out.tags.extend_from_slice(&tags[..n]);
    }
    out.codes.reserve(n);
    out.codes
        .extend(indices[..n].iter().map(|&i| dict[i as usize]));

    out.params_off.reserve(n + 1);
    out.params_off.push(0);
    for i in 0..n {
        let np = if uniform_np == 1 {
            nparams[0]
        } else {
            nparams[i]
        } as usize;
        for _ in 0..np {
            out.params.push(get_varint(&mut buf).ok_or(CORRUPT)?);
        }
        out.params_off.push(out.params.len() as u32);
    }
    if !buf.is_empty() {
        return Err(V2Error::Corrupt {
            what: "trailing packed payload bytes",
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Streaming writer.
// ---------------------------------------------------------------------

/// How a stream's footer timestamps were placed on the global timebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchoring {
    /// PPE stream: record timestamps *are* global timebase values.
    Ppe,
    /// SPE stream with a known sync anchor; the stream header's
    /// `run_tb` plus per-block `entry_dec`/`entry_elapsed` reconstruct
    /// global time from any block without decoding its predecessors.
    Anchored,
    /// SPE stream written before any sync anchor was known: footers
    /// carry no usable timestamps ([`FLAG_UNPLACED`]) and the
    /// analyzer will discard the stream's events as unanchored.
    Unanchored,
}

impl Anchoring {
    fn to_byte(self) -> u8 {
        match self {
            Anchoring::Ppe => 0,
            Anchoring::Anchored => 1,
            Anchoring::Unanchored => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Anchoring> {
        match b {
            0 => Some(Anchoring::Ppe),
            1 => Some(Anchoring::Anchored),
            2 => Some(Anchoring::Unanchored),
            _ => None,
        }
    }
}

struct OpenStream {
    core: TraceCore,
    anchoring: Anchoring,
    run_tb: u64,
    dropped: u64,
    prev_dec: u32,
    elapsed: u64,
    seq: u64,
    raw_len: u64,
    payloads_len: u64,
    header_pos: u64,
    buf: Vec<(TraceRecord, u64)>,
    snap: (u32, u64, u64),
    entries: Vec<BlockEntry>,
    pending_gap: Vec<usize>,
    last_time: u64,
}

/// Streaming v2 container writer: records (and gap byte ranges) go in,
/// blocks come out, and memory stays bounded by one block plus the
/// in-flight stream's directory — a 10M-event trace never exists as a
/// contiguous byte buffer.
///
/// Stream order matters for footer precision: sync anchors are
/// harvested from pushed PPE records, so write the PPE stream before
/// the SPE streams it anchors (the layout every tracer in this repo
/// produces). An SPE stream begun before its anchor is written with
/// [`FLAG_UNPLACED`] footers; [`finish`](V2Writer::finish) rejects the
/// container if an anchor for it surfaced later, rather than emit
/// footers that contradict the analyzer.
pub struct V2Writer<W: Write + Seek> {
    w: W,
    block_records: usize,
    anchors: Vec<SyncAnchor>,
    count_pos: u64,
    n_streams: u32,
    cur: Option<OpenStream>,
    unanchored_spes: Vec<u8>,
    finished: bool,
}

impl<W: Write + Seek> std::fmt::Debug for V2Writer<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("V2Writer")
            .field("block_records", &self.block_records)
            .field("n_streams", &self.n_streams)
            .field("finished", &self.finished)
            .finish()
    }
}

impl<W: Write + Seek> V2Writer<W> {
    /// Starts a container: writes the magic, header and a stream-count
    /// placeholder (backpatched by [`finish`](V2Writer::finish)).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if `block_records` is 0 or over `1 << 20`.
    pub fn new(mut w: W, header: TraceHeader, block_records: usize) -> io::Result<V2Writer<W>> {
        assert!(
            (1..=1 << 20).contains(&block_records),
            "block_records out of range"
        );
        let mut head = Vec::with_capacity(44);
        head.put_slice(MAGIC2);
        head.put_u16_le(VERSION2);
        head.put_u8(header.num_ppe_threads);
        head.put_u8(header.num_spes);
        head.put_u64_le(header.core_hz);
        head.put_u64_le(header.timebase_divider);
        head.put_u32_le(header.dec_start);
        head.put_u32_le(header.group_mask);
        head.put_u32_le(header.spe_buffer_bytes);
        w.write_all(&head)?;
        let count_pos = w.stream_position()?;
        w.write_all(&0u32.to_le_bytes())?;
        Ok(V2Writer {
            w,
            block_records,
            anchors: Vec::new(),
            count_pos,
            n_streams: 0,
            cur: None,
            unanchored_spes: Vec::new(),
            finished: false,
        })
    }

    /// Seeds the anchor table up front (the two-pass packer knows every
    /// anchor before writing; a streaming caller can skip this and rely
    /// on harvest-as-pushed).
    pub fn preset_anchors(&mut self, anchors: &[SyncAnchor]) {
        for a in anchors {
            if !self.anchors.iter().any(|x| x.spe == a.spe) {
                self.anchors.push(*a);
            }
        }
    }

    /// Opens the next stream.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if a stream is already open or the writer is finished.
    pub fn begin_stream(&mut self, core: TraceCore, dropped: u64) -> io::Result<()> {
        assert!(self.cur.is_none(), "previous stream still open");
        assert!(!self.finished, "writer already finished");
        let header_pos = self.w.stream_position()?;
        self.w.write_all(&[0u8; STREAM_HEADER_BYTES])?;
        let (anchoring, run_tb, prev_dec) = match core {
            TraceCore::Ppe(_) => (Anchoring::Ppe, 0, 0),
            TraceCore::Spe(spe) => match self.anchors.iter().find(|a| a.spe == spe) {
                Some(a) => (Anchoring::Anchored, a.run_tb, a.dec_start),
                None => {
                    self.unanchored_spes.push(spe);
                    (Anchoring::Unanchored, 0, 0)
                }
            },
        };
        self.cur = Some(OpenStream {
            core,
            anchoring,
            run_tb,
            dropped,
            prev_dec,
            elapsed: 0,
            seq: 0,
            raw_len: 0,
            payloads_len: 0,
            header_pos,
            buf: Vec::new(),
            snap: (prev_dec, 0, 0),
            entries: Vec::new(),
            pending_gap: Vec::new(),
            last_time: 0,
        });
        Ok(())
    }

    /// Appends one record to the open stream. The record must satisfy
    /// the stream's decode invariants (matching core tag, monotone SPE
    /// decrementer) — a tracer always produces such records; corrupt
    /// ranges go through [`push_gap`](V2Writer::push_gap) instead.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if no stream is open.
    pub fn push(&mut self, rec: &TraceRecord) -> io::Result<()> {
        let s = self.cur.as_mut().expect("no open stream");
        if s.buf.is_empty() {
            s.snap = (s.prev_dec, s.elapsed, s.seq);
        }
        let time = match s.anchoring {
            Anchoring::Ppe => {
                if rec.code == EventCode::PpeCtxRun && rec.params.len() >= 3 {
                    let spe = rec.params[1] as u8;
                    if !self.anchors.iter().any(|a| a.spe == spe) {
                        self.anchors.push(SyncAnchor {
                            spe,
                            ctx: rec.params[0] as u32,
                            run_tb: rec.timestamp,
                            dec_start: rec.params[2] as u32,
                        });
                    }
                }
                rec.timestamp
            }
            Anchoring::Anchored => {
                let dec = rec.timestamp as u32;
                s.elapsed += u64::from(s.prev_dec.wrapping_sub(dec));
                s.prev_dec = dec;
                s.run_tb.wrapping_add(s.elapsed)
            }
            Anchoring::Unanchored => 0,
        };
        if s.anchoring != Anchoring::Unanchored {
            for idx in s.pending_gap.drain(..) {
                s.entries[idx].max_tb = time;
            }
            s.last_time = time;
        }
        s.seq += 1;
        s.buf.push((rec.clone(), time));
        if s.buf.len() >= self.block_records {
            Self::flush_packed(&mut self.w, s)?;
        }
        Ok(())
    }

    /// Appends a decode-gap byte range verbatim, closing any buffered
    /// record run first. The footer brackets the gap between the last
    /// placed record time and the next one ([`u64::MAX`] until a record
    /// follows or the stream ends).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if no stream is open.
    pub fn push_gap(&mut self, bytes: &[u8]) -> io::Result<()> {
        let s = self.cur.as_mut().expect("no open stream");
        if !s.buf.is_empty() {
            Self::flush_packed(&mut self.w, s)?;
        }
        for chunk in bytes.chunks(RAW_BLOCK_MAX) {
            let crc = crc32(chunk);
            let prefix = BlockPrefix {
                kind: BlockKind::Raw,
                n_records: 0,
                raw_len: chunk.len() as u32,
                payload_len: chunk.len() as u32,
                payload_crc: crc,
            };
            let mut head = Vec::with_capacity(PREFIX_BYTES);
            prefix.encode_into(&mut head);
            self.w.write_all(&head)?;
            self.w.write_all(chunk)?;
            let unplaced = s.anchoring == Anchoring::Unanchored;
            s.entries.push(BlockEntry {
                kind: BlockKind::Raw,
                flags: FLAG_GAP | if unplaced { FLAG_UNPLACED } else { 0 },
                n_records: 0,
                raw_len: chunk.len() as u32,
                payload_len: chunk.len() as u32,
                payload_crc: crc,
                core_mask: 0,
                group_mask: 0,
                entry_dec: s.prev_dec,
                min_tb: s.last_time,
                max_tb: u64::MAX,
                entry_elapsed: s.elapsed,
                entry_seq: s.seq,
                block_off: s.payloads_len,
            });
            if !unplaced {
                let idx = s.entries.len() - 1;
                s.pending_gap.push(idx);
            }
            s.payloads_len += (PREFIX_BYTES + chunk.len()) as u64;
            s.raw_len += chunk.len() as u64;
        }
        Ok(())
    }

    fn flush_packed(w: &mut W, s: &mut OpenStream) -> io::Result<()> {
        if s.buf.is_empty() {
            return Ok(());
        }
        let records: Vec<TraceRecord> = s.buf.iter().map(|(r, _)| r.clone()).collect();
        let payload = encode_packed_payload(&records);
        let raw_len = raw_len_of(&records) as u32;
        let crc = crc32(&payload);
        let prefix = BlockPrefix {
            kind: BlockKind::Packed,
            n_records: records.len() as u32,
            raw_len,
            payload_len: payload.len() as u32,
            payload_crc: crc,
        };
        let mut head = Vec::with_capacity(PREFIX_BYTES);
        prefix.encode_into(&mut head);
        w.write_all(&head)?;
        w.write_all(&payload)?;
        let mut core_mask = 0u32;
        let mut group_mask = 0u32;
        for r in &records {
            core_mask |= 1u32 << u32::from(r.core.tag()).min(31);
            group_mask |= r.code.group().bit();
        }
        let unplaced = s.anchoring == Anchoring::Unanchored;
        let (min_tb, max_tb) = if unplaced {
            (u64::MAX, 0)
        } else {
            let times = s.buf.iter().map(|&(_, t)| t);
            (
                times.clone().min().expect("nonempty"),
                times.max().expect("nonempty"),
            )
        };
        s.entries.push(BlockEntry {
            kind: BlockKind::Packed,
            flags: if unplaced { FLAG_UNPLACED } else { 0 },
            n_records: records.len() as u32,
            raw_len,
            payload_len: payload.len() as u32,
            payload_crc: crc,
            core_mask,
            group_mask,
            entry_dec: s.snap.0,
            min_tb,
            max_tb,
            entry_elapsed: s.snap.1,
            entry_seq: s.snap.2,
            block_off: s.payloads_len,
        });
        s.payloads_len += (PREFIX_BYTES + payload.len()) as u64;
        s.raw_len += u64::from(raw_len);
        s.buf.clear();
        Ok(())
    }

    /// Closes the open stream: flushes the buffered run, writes the
    /// footer directory and backpatches the stream header.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if no stream is open.
    pub fn end_stream(&mut self) -> io::Result<()> {
        let mut s = self.cur.take().expect("no open stream");
        Self::flush_packed(&mut self.w, &mut s)?;
        s.pending_gap.clear();
        let mut dir = Vec::with_capacity(s.entries.len() * ENTRY_BYTES);
        for e in &s.entries {
            e.encode_into(&mut dir);
        }
        self.w.write_all(&dir)?;
        let end_pos = self.w.stream_position()?;
        let mut head = Vec::with_capacity(STREAM_HEADER_BYTES);
        head.put_u8(s.core.tag());
        head.put_u8(s.anchoring.to_byte());
        head.put_u16_le(0);
        head.put_u32_le(s.entries.len() as u32);
        head.put_u64_le(s.dropped);
        head.put_u64_le(s.raw_len);
        head.put_u64_le(s.payloads_len);
        head.put_u64_le(s.run_tb);
        self.w.seek(SeekFrom::Start(s.header_pos))?;
        self.w.write_all(&head)?;
        self.w.seek(SeekFrom::Start(end_pos))?;
        self.n_streams += 1;
        Ok(())
    }

    /// Writes the name table, backpatches the stream count and returns
    /// the underlying writer.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] if a stream was
    /// written as unanchored but a sync anchor for it surfaced in a
    /// later PPE stream (its footers would contradict the analyzer);
    /// otherwise returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if a stream is still open.
    pub fn finish(mut self, ctx_names: &[(u32, String)]) -> io::Result<W> {
        assert!(self.cur.is_none(), "stream still open");
        assert!(!self.finished, "writer already finished");
        self.finished = true;
        if let Some(spe) = self
            .unanchored_spes
            .iter()
            .find(|spe| self.anchors.iter().any(|a| a.spe == **spe))
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("SPE{spe} stream was written before its sync anchor; reorder streams"),
            ));
        }
        let mut names = Vec::new();
        names.put_u32_le(ctx_names.len() as u32);
        for (ctx, name) in ctx_names {
            names.put_u32_le(*ctx);
            names.put_u32_le(name.len() as u32);
            names.put_slice(name.as_bytes());
        }
        self.w.write_all(&names)?;
        let end_pos = self.w.stream_position()?;
        self.w.seek(SeekFrom::Start(self.count_pos))?;
        self.w.write_all(&self.n_streams.to_le_bytes())?;
        self.w.seek(SeekFrom::Start(end_pos))?;
        self.w.flush()?;
        Ok(self.w)
    }

    /// Sync anchors known so far (preset plus harvested).
    pub fn anchors(&self) -> &[SyncAnchor] {
        &self.anchors
    }
}

// ---------------------------------------------------------------------
// One-shot conversion: v1 <-> v2.
// ---------------------------------------------------------------------

/// Packs a v1 trace into a v2 container.
///
/// Each stream is lossy-decoded with the same invariants the analyzer
/// uses: clean record runs become packed blocks of at most
/// `block_records` records, decode gaps become raw blocks holding the
/// damaged bytes verbatim. Unpacking (or block-at-a-time ingestion)
/// therefore reproduces a byte stream whose lossy decode — records,
/// gap offsets, gap causes, resync points — is identical to the
/// original's.
pub fn pack(trace: &TraceFile, block_records: usize) -> Vec<u8> {
    // Writing into a `Vec` cannot fail, and the preset anchors keep
    // `finish` from refusing an anchor that arrives after its SPE.
    try_pack(trace, block_records).expect("vec io")
}

/// [`pack`], with the writer's errors returned.
fn try_pack(trace: &TraceFile, block_records: usize) -> io::Result<Vec<u8>> {
    let mut w = V2Writer::new(io::Cursor::new(Vec::new()), trace.header, block_records)?;
    w.preset_anchors(&harvest_sync_anchors(trace));
    for s in &trace.streams {
        w.begin_stream(s.core, s.dropped)?;
        let lossy = decode_stream_lossy(&s.bytes, Some(s.core));
        let mut next = 0usize;
        for gap in &lossy.gaps {
            while next < gap.records_before as usize {
                w.push(&lossy.records[next])?;
                next += 1;
            }
            w.push_gap(&s.bytes[gap.offset..gap.offset + gap.len])?;
        }
        while next < lossy.records.len() {
            w.push(&lossy.records[next])?;
            next += 1;
        }
        w.end_stream()?;
    }
    Ok(w.finish(&trace.ctx_names)?.into_inner())
}

/// Unpacks a v2 container back into an in-memory v1 trace.
///
/// This is the *strict* path (for `ta-cli unpack`): any CRC or
/// structural failure is an error. Tolerant decoding — damaged blocks
/// degrading to decode gaps — lives in the analyzer's v2 ingestion.
///
/// # Errors
///
/// Returns [`V2Error`] on any structural or CRC inconsistency.
pub fn unpack(image: &[u8]) -> Result<TraceFile, V2Error> {
    let v2 = V2File::parse(image)?;
    let mut streams = Vec::with_capacity(v2.streams.len());
    for meta in &v2.streams {
        // The header's raw length is checked only once the blocks are
        // decoded, so a damaged one may reserve no more than 16 raw
        // bytes per payload byte: twice what the packed codec expands
        // to (at least an index and a timestamp byte per 16-byte
        // record, at least one byte per 8-byte parameter).
        let budget = meta.raw_len.min(meta.payloads_len.saturating_mul(16));
        let mut bytes = Vec::with_capacity(usize::try_from(budget).unwrap_or(0));
        for item in BlockIter::new(meta.region(image)) {
            let (prefix, payload) = item?;
            if crc32(payload) != prefix.payload_crc {
                return Err(V2Error::Corrupt {
                    what: "block payload crc",
                });
            }
            match prefix.kind {
                BlockKind::Packed => {
                    let records = decode_packed_payload(payload, prefix.n_records)?;
                    let raw = records_to_bytes(&records);
                    if raw.len() != prefix.raw_len as usize {
                        return Err(V2Error::Corrupt {
                            what: "packed block raw length",
                        });
                    }
                    bytes.extend_from_slice(&raw);
                }
                BlockKind::Raw => {
                    if prefix.raw_len != prefix.payload_len {
                        return Err(V2Error::Corrupt {
                            what: "raw block length",
                        });
                    }
                    bytes.extend_from_slice(payload);
                }
            }
        }
        if bytes.len() as u64 != meta.raw_len {
            return Err(V2Error::Corrupt {
                what: "stream raw length",
            });
        }
        streams.push(TraceStream {
            core: meta.core,
            bytes,
            dropped: meta.dropped,
        });
    }
    Ok(TraceFile {
        header: v2.header,
        streams,
        ctx_names: v2.ctx_names,
    })
}

// ---------------------------------------------------------------------
// The container walk: everything in a v2 image but the blocks.
// ---------------------------------------------------------------------

/// Location and placement metadata of one stream inside a v2 image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2StreamMeta {
    /// The producing core.
    pub core: TraceCore,
    /// How footer timestamps were placed.
    pub anchoring: Anchoring,
    /// Sync-anchor run timebase (SPE anchored streams; 0 otherwise).
    pub run_tb: u64,
    /// Records the tracer dropped on this stream.
    pub dropped: u64,
    /// Reconstructed v1 byte length of the stream.
    pub raw_len: u64,
    /// Block count.
    pub n_blocks: u32,
    /// Absolute offset of the block region within the image.
    pub blocks_off: usize,
    /// Block-region length the stream header claims.
    pub payloads_len: u64,
    /// Block-region bytes the image holds: `payloads_len`, unless the
    /// image ends inside the region.
    pub present: usize,
    /// Absolute offset of the footer directory within the image (where
    /// it would start, when the image ends first).
    pub dir_off: usize,
    /// Whether the image holds the footer directory whole: false only
    /// for the stream the image ends inside.
    pub directory: bool,
}

impl V2StreamMeta {
    /// The block-region bytes `image` holds for this stream; empty when
    /// `image` is not the image the stream was walked from.
    pub fn region<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        image
            .get(self.blocks_off..self.blocks_off.saturating_add(self.present))
            .unwrap_or_default()
    }
}

/// Where a v2 walk stopped: the structure the image ends inside and the
/// byte offset that structure starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// The structure, as [`V2Error::Truncated`] names it.
    pub reading: &'static str,
    /// Its absolute offset within the image.
    pub offset: usize,
}

impl std::fmt::Display for Truncation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "image ends inside the {} at byte {}",
            self.reading, self.offset
        )
    }
}

/// A v2 container's structure: the header, per-stream block-region
/// locations with their footer directories, and the name table — no
/// block is read. Queries then decode the directory entries and read
/// the payloads they need.
///
/// [`V2File::read`] walks an image through positioned reads. An image
/// that ends inside a structure keeps what it holds whole: the complete
/// streams, the stream it ends inside (its header and the region bytes
/// present, without a directory), the names read so far, and
/// [`truncation`](Self::truncation) says where it stopped.
#[derive(Debug, Clone)]
pub struct V2File {
    /// Session/machine header (version rewritten to the v1 value so a
    /// reconstructed [`TraceFile`] serializes valid v1 bytes).
    pub header: TraceHeader,
    /// Per-stream metadata, in directory order.
    pub streams: Vec<V2StreamMeta>,
    /// Context-name table.
    pub ctx_names: Vec<(u32, String)>,
    /// Where the walk stopped, when the image ends inside a structure.
    pub truncation: Option<Truncation>,
    /// Each stream's footer directory bytes (empty without one).
    dirs: Vec<Vec<u8>>,
}

impl V2File {
    /// Walks a whole image held in memory.
    ///
    /// # Errors
    ///
    /// Returns [`V2Error`] on bad magic/version, a structurally
    /// inconsistent stream directory, an invalid name, or an image that
    /// ends inside any structure ([`V2Error::Truncated`]).
    pub fn parse(image: &[u8]) -> Result<V2File, V2Error> {
        let file = V2File::walk(image)?;
        match file.truncation {
            Some(t) => Err(V2Error::Truncated { reading: t.reading }),
            None => Ok(file),
        }
    }

    /// Walks an image held in memory, keeping the prefix of one that
    /// ends inside a structure, as [`V2File::read`] does.
    ///
    /// # Errors
    ///
    /// The errors of [`V2File::read`].
    pub fn walk(image: &[u8]) -> Result<V2File, V2Error> {
        V2File::read(image.len(), |at, buf| {
            let src = image
                .get(at..at + buf.len())
                .ok_or(V2Error::Truncated { reading: "image" })?;
            buf.copy_from_slice(src);
            Ok(())
        })
    }

    /// Walks an image of `len` bytes through `read_at`, which fills
    /// `buf` with the image bytes at offset `at`; it is asked only for
    /// bytes inside `len`. The walk reads the header, each 40-byte
    /// stream header, each stream's footer directory (whole) and the
    /// name table, skips every block region, and stops at the first
    /// structure the image ends inside.
    ///
    /// # Errors
    ///
    /// [`V2Error::Truncated`] when the image ends before the container
    /// header does, [`V2Error`] on bad magic/version, an invalid stream
    /// anchoring byte or name, or the first error of `read_at`.
    pub fn read<E: From<V2Error>>(
        len: usize,
        read_at: impl FnMut(usize, &mut [u8]) -> Result<(), E>,
    ) -> Result<V2File, E> {
        let mut w = Walk {
            len,
            at: 0,
            read_at,
        };
        let magic: [u8; 4] = w.take()?.ok_or(V2Error::Truncated { reading: "magic" })?;
        if &magic != MAGIC2 {
            return Err(V2Error::BadMagic.into());
        }
        let h: [u8; 32] = w.take()?.ok_or(V2Error::Truncated { reading: "header" })?;
        let mut h = &h[..];
        let version = h.get_u16_le();
        if version != VERSION2 {
            return Err(V2Error::BadVersion { found: version }.into());
        }
        let header = TraceHeader {
            version: VERSION,
            num_ppe_threads: h.get_u8(),
            num_spes: h.get_u8(),
            core_hz: h.get_u64_le(),
            timebase_divider: h.get_u64_le(),
            dec_start: h.get_u32_le(),
            group_mask: h.get_u32_le(),
            spe_buffer_bytes: h.get_u32_le(),
        };
        let mut file = V2File {
            header,
            streams: Vec::new(),
            ctx_names: Vec::new(),
            truncation: None,
            dirs: Vec::new(),
        };
        file.truncation = file.walk_streams(&mut w)?;
        Ok(file)
    }

    /// Walks the streams and the name table after the header, keeping
    /// what the image holds whole, and returns the structure the image
    /// ends inside, if any.
    fn walk_streams<E: From<V2Error>, F: FnMut(usize, &mut [u8]) -> Result<(), E>>(
        &mut self,
        w: &mut Walk<F>,
    ) -> Result<Option<Truncation>, E> {
        let stop = |reading, offset| Ok(Some(Truncation { reading, offset }));
        let at = w.at;
        let Some(count) = w.take()? else {
            return stop("stream count", at);
        };
        let n_streams = u32::from_le_bytes(count);
        // Every stream header takes STREAM_HEADER_BYTES, so a damaged
        // count cannot ask for more room than the image could fill.
        self.streams
            .reserve((n_streams as usize).min(w.left() / STREAM_HEADER_BYTES));
        for _ in 0..n_streams {
            let at = w.at;
            let Some(h) = w.take::<STREAM_HEADER_BYTES>()? else {
                return stop("stream header", at);
            };
            let mut h = &h[..];
            let core = TraceCore::from_tag(h.get_u8());
            let anchoring = Anchoring::from_byte(h.get_u8()).ok_or(V2Error::Corrupt {
                what: "stream anchoring byte",
            })?;
            h.advance(2);
            let n_blocks = h.get_u32_le();
            let dropped = h.get_u64_le();
            let raw_len = h.get_u64_le();
            let payloads_len = h.get_u64_le();
            let run_tb = h.get_u64_le();
            let blocks_off = w.at;
            let present = payloads_len.min(w.left() as u64) as usize;
            w.at += present;
            let dir_off = w.at;
            let dir = if present as u64 == payloads_len {
                w.take_vec(u64::from(n_blocks) * ENTRY_BYTES as u64)?
            } else {
                None
            };
            self.streams.push(V2StreamMeta {
                core,
                anchoring,
                run_tb,
                dropped,
                raw_len,
                n_blocks,
                blocks_off,
                payloads_len,
                present,
                dir_off,
                directory: dir.is_some(),
            });
            let Some(dir) = dir else {
                return if present as u64 == payloads_len {
                    stop("footer directory", dir_off)
                } else {
                    stop("block region", blocks_off)
                };
            };
            self.dirs.push(dir);
        }
        let at = w.at;
        let Some(count) = w.take()? else {
            return stop("name table", at);
        };
        let n_names = u32::from_le_bytes(count);
        // Likewise for the 8-byte name entry headers.
        self.ctx_names.reserve((n_names as usize).min(w.left() / 8));
        for _ in 0..n_names {
            let at = w.at;
            let Some(e) = w.take::<8>()? else {
                return stop("name entry", at);
            };
            let ctx = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
            let len = u32::from_le_bytes([e[4], e[5], e[6], e[7]]);
            let Some(name) = w.take_vec(u64::from(len))? else {
                return stop("name bytes", at + 8);
            };
            let name = String::from_utf8(name).map_err(|_| V2Error::BadName)?;
            self.ctx_names.push((ctx, name));
        }
        Ok(None)
    }

    /// Decodes (and CRC-verifies) entry `block` of stream `stream`'s
    /// footer directory.
    ///
    /// # Errors
    ///
    /// Returns [`V2Error::Corrupt`] on a flipped footer, or on an
    /// index outside the directory the image holds (the stream the
    /// image ends inside has none).
    pub fn entry(&self, stream: usize, block: u32) -> Result<BlockEntry, V2Error> {
        let at = block as usize * ENTRY_BYTES;
        let bytes = self
            .dirs
            .get(stream)
            .and_then(|d| d.get(at..at + ENTRY_BYTES))
            .ok_or(V2Error::Corrupt {
                what: "directory entry index",
            })?;
        BlockEntry::decode(bytes)
    }

    /// The range, within stream `stream`'s block region, of the payload
    /// a (trusted) footer entry points at.
    ///
    /// # Errors
    ///
    /// Returns [`V2Error::Corrupt`] when the entry points outside the
    /// region bytes the image holds (a corrupt entry that passed its CRC
    /// cannot happen, but a caller may pass a synthetic one) or the
    /// stream index is out of range.
    pub fn payload_range(
        &self,
        stream: usize,
        entry: &BlockEntry,
    ) -> Result<std::ops::Range<usize>, V2Error> {
        let bad = V2Error::Corrupt {
            what: "footer block offset",
        };
        let present = self.streams.get(stream).ok_or(bad.clone())?.present;
        let start = usize::try_from(entry.block_off)
            .ok()
            .and_then(|o| o.checked_add(PREFIX_BYTES))
            .ok_or(bad.clone())?;
        match start.checked_add(entry.payload_len as usize) {
            Some(end) if end <= present => Ok(start..end),
            _ => Err(bad),
        }
    }

    /// Total blocks over all streams.
    pub fn total_blocks(&self) -> u64 {
        self.streams.iter().map(|s| u64::from(s.n_blocks)).sum()
    }
}

/// A forward walk over an image read through positioned reads.
struct Walk<F> {
    len: usize,
    at: usize,
    read_at: F,
}

impl<E, F: FnMut(usize, &mut [u8]) -> Result<(), E>> Walk<F> {
    /// Bytes left after the walk's position.
    fn left(&self) -> usize {
        self.len - self.at
    }

    /// Reads the next `N` bytes; `None`, reading nothing, when the
    /// image ends first.
    fn take<const N: usize>(&mut self) -> Result<Option<[u8; N]>, E> {
        if N > self.left() {
            return Ok(None);
        }
        let mut buf = [0; N];
        (self.read_at)(self.at, &mut buf)?;
        self.at += N;
        Ok(Some(buf))
    }

    /// Reads the next `n` bytes, allocating only once they are known to
    /// be in the image; `None` when the image ends first.
    fn take_vec(&mut self, n: u64) -> Result<Option<Vec<u8>>, E> {
        if n > self.left() as u64 {
            return Ok(None);
        }
        let mut buf = vec![0; n as usize];
        (self.read_at)(self.at, &mut buf)?;
        self.at += buf.len();
        Ok(Some(buf))
    }
}

/// Iterator over the `(prefix, payload)` pairs of one stream's block
/// region, driven by the inline prefixes. Yields one `Err` and then
/// fuses if the region is structurally inconsistent or ends inside a
/// block.
#[derive(Debug, Clone)]
pub struct BlockIter<'a> {
    region: &'a [u8],
    off: usize,
    failed: bool,
}

impl<'a> BlockIter<'a> {
    /// Iterates the blocks of `region`, a stream's block-region bytes
    /// ([`V2StreamMeta::region`]).
    pub fn new(region: &'a [u8]) -> Self {
        BlockIter {
            region,
            off: 0,
            failed: false,
        }
    }
}

impl<'a> Iterator for BlockIter<'a> {
    type Item = Result<(BlockPrefix, &'a [u8]), V2Error>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.region.get(self.off..).unwrap_or_default();
        if self.failed || rest.is_empty() {
            return None;
        }
        let prefix = match BlockPrefix::decode(rest) {
            Ok(p) => p,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        match rest.get(PREFIX_BYTES..PREFIX_BYTES + prefix.payload_len as usize) {
            Some(payload) => {
                self.off += PREFIX_BYTES + payload.len();
                Some(Ok((prefix, payload)))
            }
            None => {
                self.failed = true;
                Some(Err(V2Error::Truncated {
                    reading: "block payload",
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::MAGIC;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut buf = out.as_slice();
            assert_eq!(get_varint(&mut buf), Some(v));
            assert!(buf.is_empty());
        }
        // Truncated and overlong inputs fail cleanly.
        assert_eq!(get_varint(&mut &[0x80u8][..]), None);
        assert_eq!(get_varint(&mut &[0x80u8; 11][..]), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn columnar_decode_matches_record_decode() {
        // Mixed cores, codes and param counts so neither column
        // collapses to its uniform byte; then a uniform run.
        let mixed: Vec<TraceRecord> = (0..100)
            .map(|i| TraceRecord {
                core: if i % 3 == 0 {
                    TraceCore::Ppe((i % 2) as u8)
                } else {
                    TraceCore::Spe((i % 5) as u8)
                },
                code: if i % 2 == 0 {
                    EventCode::SpeDmaGet
                } else {
                    EventCode::PpeUser
                },
                timestamp: 1_000_000u64.wrapping_add(i * 37 % 1000),
                params: vec![i; (i % 5) as usize],
            })
            .collect();
        let uniform: Vec<TraceRecord> = (0..50)
            .map(|i| TraceRecord {
                core: TraceCore::Spe(3),
                code: EventCode::SpeUser,
                timestamp: 500 + i,
                params: vec![i],
            })
            .collect();
        let mut batch = ColumnBatch::default();
        for records in [mixed, uniform] {
            let payload = encode_packed_payload(&records);
            let rows = decode_packed_payload(&payload, records.len() as u32).unwrap();
            decode_packed_columns(&payload, records.len() as u32, &mut batch).unwrap();
            assert_eq!(batch.len(), rows.len());
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(batch.record(i), *r);
            }
            assert_eq!(batch.raw_len(), raw_len_of(&records) as u64);
        }
    }

    #[test]
    fn columnar_decode_fails_atomically() {
        let records: Vec<TraceRecord> = (0..10)
            .map(|i| TraceRecord {
                core: TraceCore::Spe(0),
                code: EventCode::SpeUser,
                timestamp: i,
                params: vec![i, i + 1],
            })
            .collect();
        let payload = encode_packed_payload(&records);
        let mut batch = ColumnBatch::default();
        // Truncations and bit flips must match the record decoder's
        // verdict and leave the batch empty on failure.
        for cut in 0..payload.len() {
            let rows = decode_packed_payload(&payload[..cut], 10);
            let cols = decode_packed_columns(&payload[..cut], 10, &mut batch);
            assert_eq!(rows.is_err(), cols.is_err());
            if cols.is_err() {
                assert!(batch.is_empty() && batch.params_off.is_empty());
            }
        }
        for bit in 0..payload.len() * 8 {
            let mut bad = payload.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let rows = decode_packed_payload(&bad, 10);
            let cols = decode_packed_columns(&bad, 10, &mut batch);
            assert_eq!(rows.is_err(), cols.is_err(), "bit {bit}");
            match (rows, cols) {
                (Ok(rows), Ok(())) => {
                    assert_eq!(batch.len(), rows.len());
                    for (i, r) in rows.iter().enumerate() {
                        assert_eq!(batch.record(i), *r);
                    }
                }
                (Err(_), Err(_)) => {
                    assert!(batch.is_empty() && batch.params_off.is_empty());
                }
                _ => unreachable!(),
            }
        }
    }

    fn ppe_run(spe: u8, tb: u64, dec_start: u32) -> TraceRecord {
        TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxRun,
            timestamp: tb,
            params: vec![7, u64::from(spe), u64::from(dec_start)],
        }
    }

    fn spe_rec(spe: u8, code: EventCode, dec: u32, params: Vec<u64>) -> TraceRecord {
        TraceRecord {
            core: TraceCore::Spe(spe),
            code,
            timestamp: u64::from(dec),
            params,
        }
    }

    fn sample() -> TraceFile {
        let mut ppe = Vec::new();
        TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxCreate,
            timestamp: 50,
            params: vec![7],
        }
        .encode_into(&mut ppe);
        ppe_run(0, 100, 10_000).encode_into(&mut ppe);
        TraceRecord {
            core: TraceCore::Ppe(1),
            code: EventCode::PpeUser,
            timestamp: 400,
            params: vec![1, 2, 3],
        }
        .encode_into(&mut ppe);
        let mut spe = Vec::new();
        for (i, code) in [
            EventCode::SpeCtxStart,
            EventCode::SpeDmaGet,
            EventCode::SpeDmaGet,
            EventCode::SpeTagWaitBegin,
            EventCode::SpeTagWaitEnd,
            EventCode::SpeStop,
        ]
        .iter()
        .enumerate()
        {
            spe_rec(0, *code, 10_000 - 100 * i as u32, vec![i as u64; i % 4]).encode_into(&mut spe);
        }
        TraceFile {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: 2,
                num_spes: 1,
                core_hz: 3_200_000_000,
                timebase_divider: 120,
                dec_start: 10_000,
                group_mask: 0xffff,
                spe_buffer_bytes: 4096,
            },
            streams: vec![
                TraceStream {
                    core: TraceCore::Ppe(0),
                    bytes: ppe,
                    dropped: 1,
                },
                TraceStream {
                    core: TraceCore::Spe(0),
                    bytes: spe,
                    dropped: 0,
                },
            ],
            ctx_names: vec![(7, "kernel".into())],
        }
    }

    #[test]
    fn packed_payload_roundtrip_mixed() {
        // Duplicate codes, mixed thread tags, max-width params and
        // pathological timestamp deltas in one block.
        let records = vec![
            TraceRecord {
                core: TraceCore::Ppe(0),
                code: EventCode::PpeUser,
                timestamp: u64::MAX,
                params: vec![u64::MAX; MAX_PARAMS],
            },
            TraceRecord {
                core: TraceCore::Ppe(3),
                code: EventCode::PpeMboxWrite,
                timestamp: 0,
                params: vec![],
            },
            TraceRecord {
                core: TraceCore::Ppe(0),
                code: EventCode::PpeUser,
                timestamp: 1,
                params: vec![0, u64::MAX, 42],
            },
        ];
        let payload = encode_packed_payload(&records);
        let back = decode_packed_payload(&payload, records.len() as u32).unwrap();
        assert_eq!(back, records);
        assert_eq!(records_to_bytes(&back), records_to_bytes(&records));
    }

    #[test]
    fn packed_payload_rejects_damage() {
        let records = vec![
            spe_rec(0, EventCode::SpeDmaGet, 900, vec![1, 2]),
            spe_rec(0, EventCode::SpeDmaPut, 800, vec![3]),
        ];
        let payload = encode_packed_payload(&records);
        assert!(decode_packed_payload(&payload, 2).is_ok());
        // Wrong record count, truncation, trailing garbage, bad dict.
        assert!(decode_packed_payload(&payload, 3).is_err());
        assert!(decode_packed_payload(&payload[..payload.len() - 1], 2).is_err());
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_packed_payload(&long, 2).is_err());
        let mut bad = payload;
        bad[1] = 0xff; // dictionary entry -> unknown event code
        bad[2] = 0xff;
        assert!(decode_packed_payload(&bad, 2).is_err());
    }

    #[test]
    fn entry_roundtrip_and_crc() {
        let e = BlockEntry {
            kind: BlockKind::Packed,
            flags: 0,
            n_records: 9,
            raw_len: 144,
            payload_len: 60,
            payload_crc: 0xdead_beef,
            core_mask: 1 << 16,
            group_mask: 0b10,
            entry_dec: 5000,
            min_tb: 100,
            max_tb: 900,
            entry_elapsed: 50,
            entry_seq: 4096,
            block_off: 77,
        };
        let mut bytes = Vec::new();
        e.encode_into(&mut bytes);
        assert_eq!(bytes.len(), ENTRY_BYTES);
        assert_eq!(BlockEntry::decode(&bytes).unwrap(), e);
        for i in [0, 5, 33, 70] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(BlockEntry::decode(&bad).is_err(), "flip at {i} undetected");
        }
        assert!(e.overlaps(0, 101));
        assert!(e.overlaps(900, 901));
        assert!(!e.overlaps(0, 100));
        assert!(!e.overlaps(901, 2000));
    }

    #[test]
    fn pack_unpack_roundtrip_clean() {
        let f = sample();
        let image = pack(&f, 2);
        assert_eq!(&image[..4], MAGIC2);
        let g = unpack(&image).unwrap();
        assert_eq!(f, g);
        // v1 magic rejected by the v2 parser and vice versa.
        assert_eq!(V2File::parse(&f.to_bytes()).unwrap_err(), V2Error::BadMagic);
        assert_eq!(&f.to_bytes()[..4], MAGIC);
    }

    #[test]
    fn pack_unpack_roundtrip_damaged() {
        // Corrupt one SPE record: the gap bytes must survive verbatim
        // so the reconstructed stream decodes identically.
        let mut f = sample();
        f.streams[1].bytes[16] = 0; // zero granule count
        let before = decode_stream_lossy(&f.streams[1].bytes, Some(TraceCore::Spe(0)));
        assert!(!before.gaps.is_empty());
        let g = unpack(&pack(&f, 2)).unwrap();
        assert_eq!(f, g, "gap bytes and clean runs must both round-trip");
    }

    #[test]
    fn footer_times_match_analyzer_semantics() {
        let f = sample();
        let image = pack(&f, 2);
        let v2 = V2File::parse(&image).unwrap();
        assert_eq!(v2.header, f.header);
        assert_eq!(v2.ctx_names, f.ctx_names);
        assert_eq!(v2.streams.len(), 2);
        assert_eq!(v2.streams[0].anchoring, Anchoring::Ppe);
        assert_eq!(v2.streams[1].anchoring, Anchoring::Anchored);
        assert_eq!(v2.streams[1].run_tb, 100);

        // SPE stream: decs 10_000, 9_900 ... elapsed 0,100,...; times
        // run_tb + elapsed. Blocks of 2 records.
        let meta = &v2.streams[1];
        assert_eq!(meta.n_blocks, 3);
        let e0 = v2.entry(1, 0).unwrap();
        assert_eq!((e0.min_tb, e0.max_tb), (100, 200));
        assert_eq!(e0.entry_dec, 10_000);
        assert_eq!((e0.entry_elapsed, e0.entry_seq), (0, 0));
        let e1 = v2.entry(1, 1).unwrap();
        assert_eq!((e1.min_tb, e1.max_tb), (300, 400));
        assert_eq!(e1.entry_dec, 9_900);
        assert_eq!((e1.entry_elapsed, e1.entry_seq), (100, 2));
        let e2 = v2.entry(1, 2).unwrap();
        assert_eq!((e2.min_tb, e2.max_tb), (500, 600));
        assert!(e2.group_mask & crate::EventGroup::SpeLifecycle.bit() != 0);
        assert_eq!(e0.core_mask, 1 << 16);

        // PPE stream: min/max are raw timestamps; thread tags 0 and 1.
        let p0 = v2.entry(0, 0).unwrap();
        assert_eq!((p0.min_tb, p0.max_tb), (50, 100));
        let p1 = v2.entry(0, 1).unwrap();
        assert_eq!((p1.min_tb, p1.max_tb), (400, 400));
        assert_eq!(p1.core_mask, 1 << 1);

        // Payload access agrees with the block iterator.
        let region = v2.streams[1].region(&image);
        let by_iter: Vec<_> = BlockIter::new(region)
            .map(|r| r.unwrap().1.to_vec())
            .collect();
        for (i, want) in by_iter.iter().enumerate() {
            let e = v2.entry(1, i as u32).unwrap();
            assert_eq!(&region[v2.payload_range(1, &e).unwrap()], want.as_slice());
        }
        // Indices outside the directories are errors, not panics.
        assert!(v2.entry(1, 3).is_err());
        assert!(v2.entry(2, 0).is_err());
        let e0 = v2.entry(1, 0).unwrap();
        assert!(v2.payload_range(2, &e0).is_err());
    }

    #[test]
    fn gap_footers_bracket_global_time() {
        let mut f = sample();
        f.streams[1].bytes[48] = 0; // corrupt record 2's granule header
        let image = pack(&f, 1);
        let v2 = V2File::parse(&image).unwrap();
        let meta = &v2.streams[1];
        let entries: Vec<BlockEntry> = (0..meta.n_blocks)
            .map(|i| v2.entry(1, i).unwrap())
            .collect();
        let gap = entries
            .iter()
            .find(|e| e.kind == BlockKind::Raw)
            .expect("gap block");
        assert!(gap.flags & FLAG_GAP != 0);
        // Gap sits after the record at time 200 and before the next
        // surviving record; its bracket must cover that span.
        assert_eq!(gap.min_tb, 200);
        assert!(gap.max_tb > gap.min_tb && gap.max_tb != u64::MAX);
        assert_eq!(gap.n_records, 0);
    }

    #[test]
    fn unanchored_stream_is_flagged_and_never_overlaps() {
        let mut f = sample();
        // Remove the PPE stream: the SPE stream loses its anchor.
        f.streams.remove(0);
        let image = pack(&f, 4);
        let v2 = V2File::parse(&image).unwrap();
        assert_eq!(v2.streams[0].anchoring, Anchoring::Unanchored);
        let e = v2.entry(0, 0).unwrap();
        assert!(e.flags & FLAG_UNPLACED != 0);
        assert!(!e.overlaps(0, u64::MAX));
        // Unpack still reproduces the stream bytes exactly.
        assert_eq!(unpack(&image).unwrap(), f);
    }

    #[test]
    fn writer_rejects_anchor_after_unanchored_stream() {
        let f = sample();
        let mut w = V2Writer::new(io::Cursor::new(Vec::new()), f.header, 8).unwrap();
        // SPE stream first (no anchor known yet) ...
        w.begin_stream(TraceCore::Spe(0), 0).unwrap();
        w.push(&spe_rec(0, EventCode::SpeUser, 9000, vec![]))
            .unwrap();
        w.end_stream().unwrap();
        // ... then the PPE stream that would have anchored it.
        w.begin_stream(TraceCore::Ppe(0), 0).unwrap();
        w.push(&ppe_run(0, 100, 10_000)).unwrap();
        w.end_stream().unwrap();
        let err = w.finish(&[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parse_detects_truncation_and_flipped_footers() {
        let image = pack(&sample(), 2);
        for cut in [3, 10, 45, 60, image.len() - 1] {
            assert!(V2File::parse(&image[..cut]).is_err(), "cut at {cut}");
        }
        let v2 = V2File::parse(&image).unwrap();
        let mut flipped = image.clone();
        flipped[v2.streams[1].dir_off + 8] ^= 0x01;
        let v2f = V2File::parse(&flipped).unwrap();
        assert_eq!(
            v2f.entry(1, 0).unwrap_err(),
            V2Error::Corrupt {
                what: "directory entry crc"
            }
        );
        // Other entries in the same stream are unaffected.
        assert!(v2f.entry(1, 1).is_ok());
    }

    #[test]
    fn the_walk_keeps_the_prefix_of_a_truncated_image() {
        let f = sample();
        let image = pack(&f, 2);
        let whole = V2File::parse(&image).unwrap();
        assert_eq!(whole.truncation, None);
        let walk = |cut: usize| V2File::walk(&image[..cut]);
        assert_eq!(
            walk(35).unwrap_err(),
            V2Error::Truncated { reading: "header" }
        );
        let (s0, s1) = (whole.streams[0], whole.streams[1]);
        let names = s1.dir_off + s1.n_blocks as usize * ENTRY_BYTES;
        let last_name = f.ctx_names.last().unwrap().1.len();
        for (cut, reading, offset, streams) in [
            (38, "stream count", 36, 0),
            (40 + 39, "stream header", 40, 0),
            (s0.blocks_off + 20, "block region", s0.blocks_off, 1),
            (s1.dir_off + 79, "footer directory", s1.dir_off, 2),
            (names + 3, "name table", names, 2),
            (names + 4 + 7, "name entry", names + 4, 2),
            (image.len() - 1, "name bytes", image.len() - last_name, 2),
        ] {
            let cut_file = walk(cut).unwrap();
            assert_eq!(
                cut_file.truncation,
                Some(Truncation { reading, offset }),
                "cut at {cut}"
            );
            assert_eq!(cut_file.streams.len(), streams, "cut at {cut}");
            assert_eq!(
                V2File::parse(&image[..cut]).unwrap_err(),
                V2Error::Truncated { reading },
                "cut at {cut}"
            );
        }
        // The stream the image ends inside keeps its present bytes and
        // has no directory; the complete one before it keeps its own.
        let cut = walk(s1.blocks_off + 30).unwrap();
        let last = cut.streams[1];
        assert_eq!((last.present, last.directory), (30, false));
        assert!(cut.entry(1, 0).is_err());
        assert!(cut.streams[0].directory);
        assert_eq!(cut.entry(0, 0), whole.entry(0, 0));
        // Whole streams before a cut name table keep every name read.
        let cut = walk(image.len() - 1).unwrap();
        assert_eq!(cut.ctx_names.len(), f.ctx_names.len() - 1);
    }

    #[test]
    fn block_iter_fuses_on_structural_damage() {
        let image = pack(&sample(), 2);
        let v2 = V2File::parse(&image).unwrap();
        let mut bad = image.clone();
        // Blow up the first block's payload_len field (prefix offset 9).
        let off = v2.streams[1].blocks_off + 9;
        bad[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let v2b = V2File::parse(&bad).unwrap();
        let mut it = BlockIter::new(v2b.streams[1].region(&bad));
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "iterator must fuse after an error");
    }

    #[test]
    fn anchor_harvest_matches_analyzer_rules() {
        let mut f = sample();
        // A second run record for the same SPE must not displace the
        // first; one with too few params is ignored.
        let mut extra = Vec::new();
        TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxRun,
            timestamp: 999,
            params: vec![1],
        }
        .encode_into(&mut extra);
        ppe_run(0, 5555, 1).encode_into(&mut extra);
        ppe_run(2, 700, 8_000).encode_into(&mut extra);
        f.streams[0].bytes.extend_from_slice(&extra);
        let anchors = harvest_sync_anchors(&f);
        assert_eq!(anchors.len(), 2);
        assert_eq!((anchors[0].spe, anchors[0].run_tb), (0, 100));
        assert_eq!((anchors[1].spe, anchors[1].run_tb), (2, 700));
    }
}
