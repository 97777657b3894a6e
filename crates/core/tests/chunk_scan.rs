//! The chunked stream scan against the whole-stream scan: over clean,
//! truncated and byte-flipped streams, read in random chunks down to
//! `ChunkScan::MIN_CHUNK`, a `ChunkScan` yields exactly the records,
//! gaps and record count a `RecordScan` over the whole stream yields,
//! lossy and strict.

use proptest::prelude::*;

use pdt::{ChunkScan, DecodeGap, EventCode, RecordScan, Scanned, TraceCore, TraceRecord};

/// One scanned item, owned so chunk buffers can be reused.
#[derive(Debug, PartialEq, Eq)]
enum Item {
    Record(TraceRecord),
    Gap(DecodeGap),
}

fn own(item: Scanned<'_>) -> Item {
    match item {
        Scanned::Record(r) => Item::Record(r.to_record()),
        Scanned::Gap(g) => Item::Gap(g),
    }
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
        while let Some(item) = scan.next(&buf, base) {
            items.push(own(item));
        }
        assert!(k <= stream.len() + 1, "the scan stopped making progress");
    }
    (items, scan.records())
}

fn whole(mut scan: RecordScan<'_>) -> (Vec<Item>, u64) {
    let items = scan.by_ref().map(own).collect();
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
