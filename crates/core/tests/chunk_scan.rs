//! The chunked stream scan against the whole-stream scan: over clean,
//! truncated and byte-flipped streams, read in random chunks down to
//! `ChunkScan::MIN_CHUNK`, a `ChunkScan` yields exactly the records,
//! gaps and record count a `RecordScan` over the whole stream yields,
//! lossy and strict.
//!
//! And every decoder against a per-record oracle: a `ChunkScan` at
//! random chunk sizes, a `RecordScan` and a `LossyCursor` fed random
//! pieces yield the records, gaps and record count of a walk built on
//! `RecordRef::decode` and `check_in_stream` alone, over random SPE and
//! PPE streams with byte flips and truncations.

use proptest::prelude::*;

use pdt::{
    check_in_stream, ChunkScan, DecodeGap, EventCode, LossyCursor, RecordError, RecordRef,
    RecordScan, TraceCore, TraceRecord,
};

/// One scanned item, owned so chunk buffers can be reused.
#[derive(Debug, PartialEq, Eq)]
enum Item {
    Record(TraceRecord),
    Gap(DecodeGap),
}

/// An SPE3 stream of `n` records with decrementer steps and parameter
/// counts drawn from `shape`.
fn spe_stream(shape: &[(u32, usize)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut dec = u32::MAX;
    for &(step, nparams) in shape {
        dec = dec.wrapping_sub(step);
        TraceRecord {
            core: TraceCore::Spe(3),
            code: EventCode::SpeDmaGet,
            timestamp: u64::from(dec),
            params: (0..nparams as u64).collect(),
        }
        .encode_into(&mut bytes);
    }
    bytes
}

/// Scans `stream` the way a file reader does: each chunk is read into
/// one reused buffer from `resume_at`, its length taken in turn from
/// `sizes`.
fn chunked(stream: &[u8], mut scan: ChunkScan, sizes: &[usize]) -> (Vec<Item>, u64) {
    let mut buf = Vec::new();
    let mut items = Vec::new();
    let mut k = 0;
    while !scan.is_done() {
        let base = scan.resume_at();
        let end = stream.len().min(base + sizes[k % sizes.len()]);
        k += 1;
        buf.clear();
        buf.extend_from_slice(&stream[base..end]);
        while let Some(g) = scan.next_gap(&buf, base, |r| items.push(Item::Record(r.to_record()))) {
            items.push(Item::Gap(g));
        }
        assert!(k <= stream.len() + 1, "the scan stopped making progress");
    }
    (items, scan.records())
}

fn whole(mut scan: RecordScan<'_>) -> (Vec<Item>, u64) {
    let mut items = Vec::new();
    while let Some(g) = scan.next_gap(|r| items.push(Item::Record(r.to_record()))) {
        items.push(Item::Gap(g));
    }
    (items, scan.records())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chunked_scan_matches_the_whole_stream_scan(
        shape in prop::collection::vec((0u32..5000, 0usize..=16), 1..400),
        damage in 0usize..3,
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        cut in any::<usize>(),
        sizes in prop::collection::vec(ChunkScan::MIN_CHUNK..3 * ChunkScan::MIN_CHUNK, 1..8),
    ) {
        let mut stream = spe_stream(&shape);
        match damage {
            0 => {}
            1 => stream.truncate(cut % (stream.len() + 1)),
            _ => {
                for &(at, b) in &flips {
                    let at = at % stream.len();
                    stream[at] = b;
                }
            }
        }
        let core = Some(TraceCore::Spe(3));
        let lossy = whole(RecordScan::lossy(&stream, core));
        prop_assert_eq!(&chunked(&stream, ChunkScan::lossy(stream.len(), core), &sizes), &lossy);
        let strict = whole(RecordScan::strict(&stream));
        prop_assert_eq!(&chunked(&stream, ChunkScan::strict(stream.len()), &sizes), &strict);
        // A strict scan's one gap runs to the end of the stream.
        for item in &strict.0 {
            if let Item::Gap(g) = item {
                prop_assert_eq!(g.offset + g.len, stream.len());
                prop_assert_eq!(g.est_records, (g.len as u64).div_ceil(16).max(1));
            }
        }
    }
}

#[test]
fn strict_gap_in_an_early_chunk_runs_to_the_stream_end() {
    let mut stream = spe_stream(&[(10, 16); 200]);
    stream[16 * 9 * 3] = 0; // zero granules on record 3
    let (items, records) = chunked(
        &stream,
        ChunkScan::strict(stream.len()),
        &[ChunkScan::MIN_CHUNK],
    );
    assert_eq!(records, 3);
    let Some(Item::Gap(g)) = items.last() else {
        panic!("no gap");
    };
    assert_eq!((g.offset, g.len), (16 * 9 * 3, stream.len() - 16 * 9 * 3));
    assert_eq!(g.est_records, (g.len as u64).div_ceil(16));
}

#[test]
fn a_claimed_maximal_record_is_retried_in_the_next_chunk() {
    // A header claiming 255 granules near a chunk's end: the scan must
    // wait for the next chunk rather than open a gap.
    let mut stream = spe_stream(&[(10, 0); 600]);
    stream[ChunkScan::MIN_CHUNK - 16] = 255;
    let core = Some(TraceCore::Spe(3));
    let expect = whole(RecordScan::lossy(&stream, core));
    for size in [ChunkScan::MIN_CHUNK, ChunkScan::MIN_CHUNK + 16, 5000] {
        let got = chunked(&stream, ChunkScan::lossy(stream.len(), core), &[size]);
        assert_eq!(got, expect, "chunks of {size}");
    }
}

#[test]
fn an_empty_stream_is_done_before_any_chunk() {
    let scan = ChunkScan::lossy(0, None);
    assert!(scan.is_done());
    assert_eq!(scan.resume_at(), 0);
}

/// The oracle: one record at a time over the whole stream, accepting
/// what `RecordRef::decode` decodes and, given a stream core,
/// `check_in_stream` passes. A lossy walk skips a rejected record in
/// 16-byte steps to the next accepted candidate (or the stream's end);
/// a strict walk (no stream core) stops at it with a gap to the end.
fn oracle(stream: &[u8], core: Option<TraceCore>) -> (Vec<Item>, u64) {
    let strict = core.is_none();
    let accept = |at: usize, prev: Option<u32>| -> Result<(RecordRef<'_>, usize), RecordError> {
        let (r, used) = RecordRef::decode(&stream[at..])?;
        if let Some(c) = core {
            check_in_stream(c, r.core, r.timestamp, prev)?;
        }
        Ok((r, used))
    };
    let (mut items, mut records, mut prev, mut pos) = (Vec::new(), 0u64, None, 0);
    while pos < stream.len() {
        match accept(pos, prev) {
            Ok((r, used)) => {
                if core.is_some_and(TraceCore::is_spe) {
                    prev = Some(r.timestamp as u32);
                }
                items.push(Item::Record(r.to_record()));
                records += 1;
                pos += used;
            }
            Err(cause) => {
                let end = match strict {
                    true => stream.len(),
                    false => (pos + 16..)
                        .step_by(16)
                        .find(|&c| c >= stream.len() || accept(c, prev).is_ok())
                        .map_or(stream.len(), |c| c.min(stream.len())),
                };
                let len = end - pos;
                items.push(Item::Gap(DecodeGap {
                    offset: pos,
                    len,
                    est_records: (len as u64).div_ceil(16).max(1),
                    records_before: records,
                    cause,
                }));
                pos = end;
            }
        }
    }
    (items, records)
}

/// A cursor fed `stream` cut at `cuts` (taken modulo the length), its
/// output taken after every piece: the records, the gaps (a take keeps
/// them apart) and the cursor's record count.
fn cursor(
    stream: &[u8],
    core: TraceCore,
    cuts: &[usize],
) -> (Vec<TraceRecord>, Vec<DecodeGap>, u64) {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    at.sort_unstable();
    let mut cur = LossyCursor::new(Some(core));
    let (mut records, mut gaps) = (Vec::new(), Vec::new());
    let mut prev = 0;
    for end in at.into_iter().chain([stream.len()]) {
        cur.push(&stream[prev..end]);
        prev = end;
        let out = cur.take_output();
        records.extend(out.records);
        gaps.extend(out.gaps);
    }
    cur.finish();
    let out = cur.take_output();
    records.extend(out.records);
    gaps.extend(out.gaps);
    (records, gaps, cur.decoded_total())
}

/// A PPE stream of records from threads 0–2 with parameter counts from
/// `shape`.
fn ppe_stream(shape: &[(u32, usize)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut tb = 1000u64;
    for (k, &(step, nparams)) in shape.iter().enumerate() {
        tb += u64::from(step);
        TraceRecord {
            core: TraceCore::Ppe((k % 3) as u8),
            code: [
                EventCode::PpeUser,
                EventCode::PpeCtxRun,
                EventCode::PpeMboxWrite,
            ][k % 3],
            timestamp: tb,
            params: (0..nparams as u64).collect(),
        }
        .encode_into(&mut bytes);
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_decoder_matches_the_per_record_oracle(
        ppe in any::<bool>(),
        shape in prop::collection::vec((0u32..5000, 0usize..=16), 1..300),
        damage in 0usize..4,
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        cut in any::<usize>(),
        sizes in prop::collection::vec(ChunkScan::MIN_CHUNK..3 * ChunkScan::MIN_CHUNK, 1..8),
        pieces in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        let (mut stream, core) = match ppe {
            true => (ppe_stream(&shape), TraceCore::Ppe(0)),
            false => (spe_stream(&shape), TraceCore::Spe(3)),
        };
        if damage & 1 == 1 {
            for &(at, b) in &flips {
                let at = at % stream.len();
                stream[at] = b;
            }
        }
        if damage & 2 == 2 {
            stream.truncate(cut % (stream.len() + 1));
        }
        for hint in [Some(core), None] {
            let expect = oracle(&stream, hint);
            let (scan, whole_scan) = match hint {
                Some(_) => (ChunkScan::lossy(stream.len(), hint), RecordScan::lossy(&stream, hint)),
                None => (ChunkScan::strict(stream.len()), RecordScan::strict(&stream)),
            };
            prop_assert_eq!(&chunked(&stream, scan, &sizes), &expect);
            prop_assert_eq!(&whole(whole_scan), &expect);
        }
        let (items, records) = oracle(&stream, Some(core));
        let (want_records, want_gaps): (Vec<_>, Vec<_>) = items.into_iter().partition(|i| matches!(i, Item::Record(_)));
        let (got_records, got_gaps, total) = cursor(&stream, core, &pieces);
        prop_assert_eq!(total, records);
        prop_assert_eq!(got_records.into_iter().map(Item::Record).collect::<Vec<_>>(), want_records);
        prop_assert_eq!(got_gaps.into_iter().map(Item::Gap).collect::<Vec<_>>(), want_gaps);
    }
}
