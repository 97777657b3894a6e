//! File-backed against in-memory ingest. A `.pdt` analyzed from disk
//! (`TraceImage::read`, and `Analysis::open`, the front door of either
//! container: the layout read with positioned reads, each stream read
//! in chunks by its ingest shard) must give exactly what the same bytes
//! give in memory (`TraceImage::parse`): the same products,
//! `LossReport` and SARIF lint report, or the same error text, lossy
//! and strict, at `Serial` and `Workers(2)`.
//!
//! The inputs are every golden, copies of each truncated at every
//! stream boundary ±1, byte-flipped copies, and a synthetic trace whose
//! SPE streams span many read chunks, damaged on both sides of chunk
//! boundaries.

use std::fs::File;

use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream, VERSION};
use ta::{Analysis, AnalysisBuilder, AnalyzeError, Parallelism, TraceImage, V2Trace};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden_bytes, GOLDEN};
#[path = "common/roundtrip.rs"]
mod roundtrip;
#[path = "common/tempfile.rs"]
mod tempfile;
use tempfile::TempFile;

const PARS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Workers(2)];

/// Bytes a file-backed stream reads per chunk.
const CHUNK: usize = 64 << 10;

fn run(image: TraceImage<'_>, par: Parallelism, strict: bool) -> Result<Analysis, String> {
    run_builder(Analysis::of(image), par, strict)
}

fn run_builder(
    builder: AnalysisBuilder<'_>,
    par: Parallelism,
    strict: bool,
) -> Result<Analysis, String> {
    let builder = builder.parallelism(par);
    let builder = if strict { builder.strict() } else { builder };
    builder.run().map_err(|e| e.to_string())
}

/// Asserts that two sessions, or two errors, are the same answer.
fn assert_same_answer(at: &str, f: Result<Analysis, String>, m: Result<Analysis, String>) {
    match (f, m) {
        (Ok(f), Ok(m)) => {
            assert_eq!(f.events(), m.events(), "{at}: events");
            assert_eq!(f.loss(), m.loss(), "{at}: loss");
            assert_eq!(f.intervals(), m.intervals(), "{at}: intervals");
            assert_eq!(f.stats(), m.stats(), "{at}: stats");
            assert_eq!(f.timeline(), m.timeline(), "{at}: timeline");
            assert_eq!(f.summary(), m.summary(), "{at}: summary");
            assert_eq!(f.lint().to_sarif(), m.lint().to_sarif(), "{at}: sarif");
        }
        (f, m) => assert_eq!(f.err(), m.err(), "{at}: error"),
    }
}

/// Asserts that `bytes`, analyzed from a file (through
/// `TraceImage::read` and through `Analysis::open`) and from memory,
/// give the same answers under every parallelism and policy.
fn assert_same(what: &str, bytes: &[u8]) {
    let tmp = TempFile::new(what, bytes);
    let file = File::open(&tmp.0).unwrap();
    let from_file = TraceImage::read(&file).map_err(|e| e.to_string());
    let in_memory = TraceImage::parse(bytes).map_err(|e| e.to_string());
    let (from_file, in_memory) = match (from_file, in_memory) {
        (Ok(f), Ok(m)) => (f, m),
        (f, m) => {
            let opened = Analysis::open(&tmp.0).map(|_| ());
            let opened = opened.map_err(|e| e.to_string()).err();
            assert_eq!(opened, m.as_ref().err().cloned(), "{what}: opened layout");
            assert_eq!(f.err(), m.err(), "{what}: layout");
            return;
        }
    };
    assert_eq!(from_file.header(), in_memory.header(), "{what}: header");
    assert_eq!(
        from_file.ctx_names(),
        in_memory.ctx_names(),
        "{what}: names"
    );
    for par in PARS {
        for strict in [false, true] {
            let at = format!("{what} {par:?} strict={strict}");
            assert_same_answer(
                &at,
                run(from_file.clone(), par, strict),
                run(in_memory.clone(), par, strict),
            );
            assert_same_answer(
                &format!("{at} opened"),
                run_builder(Analysis::open(&tmp.0).unwrap(), par, strict),
                run(in_memory.clone(), par, strict),
            );
        }
    }
}

/// Offsets of every stream's directory entry, first record byte and
/// end in a v1 image.
fn stream_boundaries(bytes: &[u8]) -> Vec<usize> {
    let n = u32::from_le_bytes(bytes[36..40].try_into().unwrap());
    let mut at = 40;
    let mut out = vec![at];
    for _ in 0..n {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        out.extend([at + 20, at + 20 + len]);
        at += 20 + len;
    }
    out
}

#[test]
fn goldens_analyze_identically_from_a_file() {
    for name in GOLDEN {
        assert_same(name, &golden_bytes(name));
    }
}

#[test]
fn truncated_goldens_fail_or_degrade_identically_from_a_file() {
    for name in GOLDEN {
        let bytes = golden_bytes(name);
        for b in stream_boundaries(&bytes) {
            for cut in [b.saturating_sub(1), b, b + 1] {
                if cut < bytes.len() {
                    assert_same(&format!("{name} cut {cut}"), &bytes[..cut]);
                }
            }
        }
    }
}

#[test]
fn byte_flipped_goldens_analyze_identically_from_a_file() {
    for name in GOLDEN {
        let bytes = golden_bytes(name);
        for k in 0..24 {
            let at = (k * 7919 + 13) % bytes.len();
            let mut damaged = bytes.clone();
            damaged[at] ^= 0xa5;
            assert_same(&format!("{name} flip {at}"), &damaged);
        }
    }
}

/// A trace whose two SPE streams hold `records` records each, several
/// read chunks long; SPE `unanchored` gets no sync anchor.
fn synthetic(records: usize, unanchored: Option<u8>) -> TraceFile {
    let mut ppe = Vec::new();
    for spe in (0..2u8).filter(|&s| Some(s) != unanchored) {
        TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxRun,
            timestamp: 100 + u64::from(spe),
            params: vec![u64::from(spe), u64::from(spe), u64::from(u32::MAX)],
        }
        .encode_into(&mut ppe);
    }
    let mut streams = vec![TraceStream {
        core: TraceCore::Ppe(0),
        bytes: ppe,
        dropped: 0,
    }];
    for spe in 0..2u8 {
        let mut bytes = Vec::new();
        let mut dec = u32::MAX;
        let mut push = |code, params: Vec<u64>, dec: u32| {
            TraceRecord {
                core: TraceCore::Spe(spe),
                code,
                timestamp: u64::from(dec),
                params,
            }
            .encode_into(&mut bytes)
        };
        push(EventCode::SpeCtxStart, vec![u64::from(spe)], dec);
        // Each DMA is waited for before the next, so the trace stays
        // race-free and cheap to lint.
        for k in 0..records as u64 {
            dec -= 40;
            match k % 20 {
                0 => push(
                    EventCode::SpeDmaGet,
                    vec![0x1000 + (k % 640) * 64, 0x10_0000 + k * 128, 128, 1],
                    dec,
                ),
                1 => push(EventCode::SpeTagWaitBegin, vec![1 << 1, 0], dec),
                2 => push(EventCode::SpeTagWaitEnd, vec![1 << 1], dec),
                _ => push(EventCode::SpeUser, (0..k % 7).collect(), dec),
            }
        }
        push(EventCode::SpeStop, vec![0], dec - 40);
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
            num_spes: 2,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        },
        streams,
        ctx_names: vec![(0, "k0".into()), (1, "k1".into())],
    }
}

/// Stream-relative offsets of the records of the clean stream at
/// `bytes[from..from + len]`.
fn record_starts(bytes: &[u8], from: usize, len: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < len {
        out.push(at);
        at += usize::from(bytes[from + at]) * 16;
    }
    out
}

#[test]
fn damage_across_chunk_boundaries_reads_identically_from_a_file() {
    let bytes = synthetic(12_000, None).to_bytes();
    let b = stream_boundaries(&bytes);
    let (spe1, len) = (b[5], b[6] - b[5]);
    assert!(len > 3 * CHUNK, "SPE1 spans several chunks");
    assert_same("synthetic clean", &bytes);
    let starts = record_starts(&bytes, spe1, len);
    // The record holding stream offset `at`.
    let holding = |at: usize| starts[starts.partition_point(|&s| s <= at) - 1];
    // Record headers to damage: the records straddling, ending at and
    // starting at chunk boundaries, and a run of records across one, so
    // that one gap spans two chunks.
    let run: Vec<usize> = starts
        .iter()
        .copied()
        .filter(|s| (2 * CHUNK - 64..2 * CHUNK + 64).contains(s))
        .collect();
    let damage: [(Vec<usize>, usize, u8); 6] = [
        (vec![holding(CHUNK)], 0, 0xff),
        (vec![holding(CHUNK - 1), holding(CHUNK + 16)], 0, 0),
        (vec![holding(2 * CHUNK)], 1, 0x17),
        (run, 1, 0x15),
        (vec![holding(3 * CHUNK - 1), holding(CHUNK / 2)], 8, 0),
        (vec![holding(3 * CHUNK)], 0, 0xff),
    ];
    for (k, (records, byte, value)) in damage.iter().enumerate() {
        let mut damaged = bytes.clone();
        for &r in records {
            damaged[spe1 + r + byte] = *value;
        }
        let lossy = Analysis::of(TraceImage::parse(&damaged).unwrap())
            .run()
            .unwrap();
        assert!(lossy.loss().total_gaps() > 0, "damage {k} opened no gap");
        assert_same(&format!("synthetic damage {k}"), &damaged);
    }
    // A torn tail in the last chunk.
    assert_same("synthetic torn", &bytes[..bytes.len() - 40]);
}

#[test]
fn strict_missing_anchor_yields_to_a_record_error_read_from_the_file() {
    // SPE0 has no anchor, so strict ingest re-scans every stream for an
    // earlier malformed record, through the file, before blaming the
    // anchor; SPE1 has one, past its first chunk.
    let mut bytes = synthetic(4_000, Some(0)).to_bytes();
    let spe1 = stream_boundaries(&bytes)[5];
    let mut at = spe1;
    while at < spe1 + CHUNK + 4000 {
        at += usize::from(bytes[at]) * 16;
    }
    bytes[at] = 0; // a record header claiming zero granules
    let tmp = TempFile::new("anchor", &bytes);
    let file = File::open(&tmp.0).unwrap();
    let err = Analysis::of(TraceImage::read(&file).unwrap())
        .strict()
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            AnalyzeError::Record {
                core: TraceCore::Spe(1),
                ..
            }
        ),
        "{err}"
    );
    assert_same("anchor", &bytes);
}

/// A layout the goldens lack, now that every stream decodes in one
/// round: the PPE stream listed last, so every anchor follows the SPE
/// data it places; an SPE stream before it with a malformed record; and
/// a second SPE stream with no anchor. In memory and file-backed, at
/// every parallelism, the strict error and the lossy events, anchors
/// and loss equal the serial row path's.
#[test]
fn ppe_last_with_a_malformed_and_an_unanchored_spe_stream() {
    let mut trace = synthetic(4_000, Some(1));
    trace.streams.rotate_left(1);
    assert!(!trace.streams[2].core.is_spe());
    // A record header claiming zero granules, past SPE0's first chunk.
    let spe0 = &mut trace.streams[0].bytes;
    let at = record_starts(spe0, 0, spe0.len())
        .into_iter()
        .find(|&s| s > CHUNK + 100)
        .unwrap();
    spe0[at] = 0;

    let strict = ta::analyze(&trace).unwrap_err();
    assert!(
        matches!(
            strict,
            AnalyzeError::Record {
                core: TraceCore::Spe(0),
                ..
            }
        ),
        "{strict}"
    );
    let (rows, loss) = ta::analyze_lossy(&trace);
    assert!(!loss.streams[0].gaps.is_empty(), "SPE0 has a gap");
    assert!(loss.streams[1].unanchored, "SPE1 has no anchor");

    let bytes = trace.to_bytes();
    let tmp = TempFile::new("ppe-last", &bytes);
    let file = File::open(&tmp.0).unwrap();
    for (reader, image) in [
        ("in memory", TraceImage::parse(&bytes).unwrap()),
        ("file-backed", TraceImage::read(&file).unwrap()),
    ] {
        for par in [
            Parallelism::Serial,
            Parallelism::Workers(2),
            Parallelism::Workers(4),
        ] {
            let at = format!("{reader} {par:?}");
            let err = run(image.clone(), par, true).err();
            assert_eq!(err, Some(strict.to_string()), "{at}: strict error");
            let a = run(image.clone(), par, false).unwrap();
            assert_eq!(a.events(), rows.events.as_slice(), "{at}: events");
            assert_eq!(a.analyzed().anchors, rows.anchors, "{at}: anchors");
            assert_eq!(a.loss(), &loss, "{at}: loss");
        }
    }
}

/// `Analysis::open` sniffs the container from the file's magic: a
/// `.pdt` analyzes as its image in memory does (neither reader accepts
/// the other's container), a `.pdt2` as its container in memory does
/// (and strictly, as its strict reference), and a file shorter than the
/// magic is read as a `.pdt`, which it cannot be.
#[test]
fn the_container_is_sniffed_from_the_file_magic() {
    let (v1, v2) = (
        golden_bytes("stream.pdt"),
        goldens::golden_v2_bytes("stream.pdt"),
    );
    let v1_file = TempFile::new("sniff-v1", &v1);
    let v2_file = TempFile::new("sniff-v2", &v2);
    let short = TempFile::new("sniff-short", b"PDT");
    for par in PARS {
        for strict in [false, true] {
            let at = format!("{par:?} strict={strict}");
            let open = |tmp: &TempFile| Analysis::open(&tmp.0).map_err(|e| e.to_string());
            assert_same_answer(
                &format!(".pdt {at}"),
                open(&v1_file).and_then(|b| run_builder(b, par, strict)),
                run(TraceImage::parse(&v1).unwrap(), par, strict),
            );
            let v2_want = if strict {
                roundtrip::strict_reference(&v2, par)
            } else {
                let (a, _) = V2Trace::parse(&v2).unwrap().analyze(par).unwrap();
                Ok(std::sync::Arc::into_inner(a).unwrap())
            };
            let v2_got = open(&v2_file).and_then(|b| run_builder(b, par, strict));
            assert_same_answer(&format!(".pdt2 {at}"), v2_got, v2_want);
            assert_eq!(
                open(&short).err(),
                TraceImage::parse(b"PDT").err().map(|e| e.to_string()),
                "short {at}"
            );
        }
    }
}
