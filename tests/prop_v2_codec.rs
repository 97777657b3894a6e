//! Property battery for the v2 (`PDT2`) codec.
//!
//! * Packed-payload round trips on arbitrary record soups, including
//!   pathological timestamp deltas (0, 1, `u64::MAX`, random),
//!   max-width parameters and duplicate event codes — decode must be
//!   byte-identical to the canonical source encoding.
//! * Whole-container `pack`/`unpack` round trips on synthetic traces
//!   with clean runs, decode-proof garbage gaps, anchored and
//!   unanchored SPE streams — at tiny block sizes so every run is
//!   split at every block boundary.
//! * The file-backed [`V2Trace`] reader, differential against the
//!   same image in memory — whole, and for one case truncated at
//!   **every** offset.
//! * Random byte mutations over a valid image: the readers may report
//!   loss but must never panic.

use proptest::prelude::*;

use pdt::v2::{decode_packed_payload, encode_packed_payload, pack, records_to_bytes, unpack};
use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream, VERSION};
use ta::{analyze_v2, Parallelism, V2Trace};

#[path = "common/roundtrip.rs"]
mod roundtrip;
use roundtrip::Roundtrip;
#[path = "common/tempfile.rs"]
mod tempfile;
use tempfile::TempFile;

const CODES: &[EventCode] = &[
    EventCode::SpeCtxStart,
    EventCode::SpeStop,
    EventCode::SpeDmaGet,
    EventCode::SpeDmaPut,
    EventCode::SpeTagWaitBegin,
    EventCode::SpeTagWaitEnd,
    EventCode::SpeMboxWrite,
    EventCode::SpeUser,
    EventCode::PpeCtxCreate,
    EventCode::PpeCtxRun,
    EventCode::PpeCtxStopped,
    EventCode::PpeMboxWrite,
    EventCode::PpeUser,
];

/// Any record at all — the payload codec is agnostic to stream
/// invariants, so cores, codes and timestamps are unconstrained.
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        prop_oneof![
            (0u8..2).prop_map(TraceCore::Ppe),
            (0u8..8).prop_map(TraceCore::Spe),
        ],
        0..CODES.len(),
        // Pathological deltas: ties, unit steps, full-width jumps.
        prop_oneof![
            Just(0u64),
            Just(1u64),
            Just(u64::MAX),
            Just(u64::MAX - 1),
            any::<u64>(),
            0u64..1000,
        ],
        // Max-width parameters up to the format limit of 16.
        prop::collection::vec(
            prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
            0..=16,
        ),
    )
        .prop_map(|(core, ci, timestamp, params)| TraceRecord {
            core,
            code: CODES[ci],
            timestamp,
            params,
        })
}

/// One segment of a synthetic stream: a clean record run or a garbage
/// range that provably never decodes (granule count 0 → `ZeroLength`).
#[derive(Debug, Clone)]
enum Segment {
    Clean { n: usize },
    Garbage(Vec<u8>),
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        (1usize..40).prop_map(|n| Segment::Clean { n }),
        (5usize..40).prop_map(|n| Segment::Clean { n }),
        (10usize..60).prop_map(|n| Segment::Clean { n }),
        // Garbage sized in whole granules (so the 16-byte resync
        // realigns with the following clean run) with every granule
        // header zeroed (count 0 → `ZeroLength`, provably never
        // decodes or canonicalizes differently).
        (1usize..5, any::<u8>()).prop_map(|(n, seed)| {
            let mut v: Vec<u8> = (0..n * 16)
                .map(|j| seed.wrapping_add(j as u8).wrapping_mul(31))
                .collect();
            for b in v.iter_mut().step_by(16) {
                *b = 0;
            }
            Segment::Garbage(v)
        }),
    ]
}

/// A synthetic trace: one PPE stream (publishing anchors for the
/// first `anchored` SPEs) and `n_spe` SPE streams with decrementer
/// timestamps obeying the stream invariants, interleaved with garbage.
fn arb_trace() -> impl Strategy<Value = TraceFile> {
    (
        1u8..4, // n_spe
        0u8..4, // anchored (clamped)
        prop::collection::vec(prop::collection::vec(arb_segment(), 1..5), 1..5),
        any::<u32>(), // dec_start
    )
        .prop_map(|(n_spe, anchored, layouts, dec_start)| {
            let n_spe = n_spe.min(3);
            let anchored = anchored.min(n_spe);
            let header = TraceHeader {
                version: VERSION,
                num_ppe_threads: 2,
                num_spes: n_spe,
                core_hz: 3_200_000_000,
                timebase_divider: 80,
                dec_start,
                group_mask: !0,
                spe_buffer_bytes: 16 * 1024,
            };
            let mut streams = Vec::new();

            // PPE stream: anchors first, then filler events.
            let mut ppe = Vec::new();
            let mut tb = 1_000u64;
            for spe in 0..anchored {
                TraceRecord {
                    core: TraceCore::Ppe(0),
                    code: EventCode::PpeCtxRun,
                    timestamp: tb,
                    params: vec![u64::from(spe) + 7, u64::from(spe), u64::from(dec_start)],
                }
                .encode_into(&mut ppe);
                tb += 50;
            }
            for i in 0..20u64 {
                TraceRecord {
                    core: TraceCore::Ppe((i % 2) as u8),
                    code: EventCode::PpeUser,
                    timestamp: tb + i * 31,
                    params: vec![i, u64::MAX - i],
                }
                .encode_into(&mut ppe);
            }
            streams.push(TraceStream {
                core: TraceCore::Ppe(0),
                bytes: ppe,
                dropped: 0,
            });

            // SPE streams from the generated segment layouts.
            for spe in 0..n_spe {
                let layout = &layouts[spe as usize % layouts.len()];
                let mut bytes = Vec::new();
                let mut dec = dec_start;
                for seg in layout {
                    match seg {
                        Segment::Clean { n } => {
                            for i in 0..*n {
                                dec = dec.wrapping_sub(1 + (i as u32 * 13) % 977);
                                TraceRecord {
                                    core: TraceCore::Spe(spe),
                                    code: CODES[i % CODES.len()],
                                    timestamp: u64::from(dec),
                                    params: vec![u64::MAX; i % 5],
                                }
                                .encode_into(&mut bytes);
                            }
                        }
                        Segment::Garbage(g) => bytes.extend_from_slice(g),
                    }
                }
                streams.push(TraceStream {
                    core: TraceCore::Spe(spe),
                    bytes,
                    dropped: u64::from(spe),
                });
            }
            TraceFile {
                header,
                streams,
                ctx_names: vec![(7, "ctx-a".into()), (8, String::new())],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed payloads round-trip record-exact and byte-identical to
    /// the canonical encoding, whatever the deltas/params/codes.
    #[test]
    fn packed_payload_roundtrips(recs in prop::collection::vec(arb_record(), 1..300)) {
        let payload = encode_packed_payload(&recs);
        let back = decode_packed_payload(&payload, recs.len() as u32).unwrap();
        prop_assert_eq!(&back, &recs);
        prop_assert_eq!(records_to_bytes(&back), records_to_bytes(&recs));
    }

    /// The payload decoder never panics on garbage, and on success
    /// re-encodes to claimed-length bytes.
    #[test]
    fn packed_payload_decoder_survives_garbage(
        payload in prop::collection::vec(any::<u8>(), 0..400),
        n in 0u32..600,
    ) {
        if let Ok(recs) = decode_packed_payload(&payload, n) {
            prop_assert_eq!(recs.len() as u32, n);
        }
    }

    /// `unpack(pack(trace))` is the byte identity on canonical traces
    /// — clean runs, garbage gaps, unanchored streams — at every tiny
    /// block size (so runs split at every block boundary).
    #[test]
    fn container_roundtrip_is_byte_identity(trace in arb_trace()) {
        let want = trace.to_bytes();
        for br in [1usize, 2, 3, 5, 8, 64] {
            let back = unpack(&pack(&trace, br)).unwrap();
            prop_assert_eq!(back.to_bytes(), want.clone(), "block_records={}", br);
        }
    }

    /// The file-backed reader matches the in-memory reader on the same
    /// image. Both drive the one direct decoder, so each is also held
    /// to the independent roundtrip oracle.
    #[test]
    fn chunked_ingest_matches_one_shot(
        trace in arb_trace(),
        br in prop_oneof![Just(2usize), Just(5usize), Just(64usize)],
    ) {
        let image = pack(&trace, br);
        let v2 = V2Trace::parse(&image).unwrap();
        let (reference, ref_stats) = v2.analyze(Parallelism::Serial).unwrap();

        let tmp = TempFile::new("prop", &image);
        let file = tmp.open();
        let (got, stats) = V2Trace::read(&file)
            .unwrap()
            .analyze(Parallelism::Workers(2))
            .unwrap();
        prop_assert_eq!(got.events(), reference.events());
        prop_assert_eq!(got.loss(), reference.loss());
        prop_assert_eq!(stats, ref_stats);
        let oracle = Roundtrip::walk(&image).unwrap().analyze(Parallelism::Serial).unwrap();
        prop_assert_eq!(reference.events(), oracle.analysis.events());
        prop_assert_eq!(reference.loss(), &oracle.loss);
    }

    /// Random byte mutations over a valid image: both readers must
    /// survive (reporting loss or a structural error) without
    /// panicking.
    #[test]
    fn mutated_images_never_panic(
        trace in arb_trace(),
        flips in prop::collection::vec((any::<u32>(), 0u8..8), 1..12),
    ) {
        let mut image = pack(&trace, 5);
        for (idx, bit) in &flips {
            let off = *idx as usize % image.len();
            image[off] ^= 1 << bit;
        }
        if let Ok(v2) = V2Trace::parse(&image) {
            let (a, _) = v2.analyze(Parallelism::Serial).unwrap();
            let _ = a.events();
            let _ = v2.window_events(0, u64::MAX).unwrap();
        }
        if let Ok((a, _)) = analyze_v2(&image, Parallelism::Serial) {
            let _ = a.events();
        }
    }
}

/// Exhaustive truncation coverage: one fixed small trace cut at
/// **every** offset and read from a file must equal the same prefix
/// analyzed in memory (or fail with the same error), and the whole file
/// must equal the one-shot products.
#[test]
fn every_truncation_offset_reads_identically_from_a_file() {
    let trace = small_fixed_trace();
    let image = pack(&trace, 3);
    let v2 = V2Trace::parse(&image).unwrap();
    let (reference, _) = v2.analyze(Parallelism::Serial).unwrap();

    let tmp = TempFile::new("every-cut", &image);
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&tmp.0)
        .unwrap();
    for k in (0..=image.len()).rev() {
        file.set_len(k as u64).unwrap();
        let memory = analyze_v2(&image[..k], Parallelism::Serial);
        let from_file = V2Trace::read(&file).map_err(|e| e.to_string());
        let (m, f) = match (memory, from_file) {
            (Ok((m, _)), Ok(f)) => (m, f.analyze(Parallelism::Serial).unwrap().0),
            (m, f) => {
                assert_eq!(m.err().map(|e| e.to_string()), f.err(), "cut at {k}");
                continue;
            }
        };
        assert_eq!(f.events(), m.events(), "cut at {k}");
        assert_eq!(f.loss(), m.loss(), "cut at {k}");
        if k == image.len() {
            assert_eq!(f.events(), reference.events());
            assert_eq!(f.loss(), reference.loss());
        }
    }
}

/// A deterministic minimal trace: anchored SPE with a mid-stream
/// garbage gap, plus an unanchored SPE.
fn small_fixed_trace() -> TraceFile {
    let header = TraceHeader {
        version: VERSION,
        num_ppe_threads: 1,
        num_spes: 2,
        core_hz: 3_200_000_000,
        timebase_divider: 80,
        dec_start: 50_000,
        group_mask: !0,
        spe_buffer_bytes: 4096,
    };
    let mut ppe = Vec::new();
    TraceRecord {
        core: TraceCore::Ppe(0),
        code: EventCode::PpeCtxRun,
        timestamp: 500,
        params: vec![9, 0, 50_000],
    }
    .encode_into(&mut ppe);
    TraceRecord {
        core: TraceCore::Ppe(0),
        code: EventCode::PpeUser,
        timestamp: 900,
        params: vec![1],
    }
    .encode_into(&mut ppe);

    let mut spe0 = Vec::new();
    let mut dec = 50_000u32;
    for i in 0..7u64 {
        dec -= 100;
        TraceRecord {
            core: TraceCore::Spe(0),
            code: EventCode::SpeUser,
            timestamp: u64::from(dec),
            params: vec![i],
        }
        .encode_into(&mut spe0);
        if i == 3 {
            spe0.extend_from_slice(&[0u8; 32]); // undecodable gap
        }
    }
    let mut spe1 = Vec::new();
    TraceRecord {
        core: TraceCore::Spe(1),
        code: EventCode::SpeStop,
        timestamp: 40_000,
        params: vec![],
    }
    .encode_into(&mut spe1);

    TraceFile {
        header,
        streams: vec![
            TraceStream {
                core: TraceCore::Ppe(0),
                bytes: ppe,
                dropped: 0,
            },
            TraceStream {
                core: TraceCore::Spe(0),
                bytes: spe0,
                dropped: 2,
            },
            TraceStream {
                core: TraceCore::Spe(1),
                bytes: spe1,
                dropped: 0,
            },
        ],
        ctx_names: vec![(9, "kernel".into())],
    }
}
