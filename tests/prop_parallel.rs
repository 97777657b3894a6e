//! Property-based equivalence of the one-shot columnar ingest: whatever
//! the machine shape, workload or damage, `Analysis::of(..).run()` must
//! produce exactly the serial row analyzer's output — same events in
//! the same order, same anchors, same loss report, same strict error —
//! at `Serial` and at `Workers(2)`, which decodes the SPE streams on
//! two executors, and every product must be identical at every
//! `Parallelism`.

use proptest::prelude::*;

use cell_pdt::prelude::*;
use pdt::{EventCode, TraceHeader, TraceRecord, TraceStream, VERSION};
use ta::{analyze_lossy, analyze_v2, AnalyzeError, AnalyzedTrace, V2Trace};

#[path = "common/tempfile.rs"]
mod tempfile;
use tempfile::TempFile;

/// The executor counts every ingest check runs at.
const INGEST_PAR: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Workers(2)];

/// A generatable, always-terminating SPU action.
#[derive(Debug, Clone)]
enum Step {
    Compute(u64),
    DmaRound { size_class: u8, tag: u8 },
    User(u32),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..20_000).prop_map(Step::Compute),
        ((0u8..4), (0u8..4)).prop_map(|(size_class, tag)| Step::DmaRound { size_class, tag }),
        (0u32..100).prop_map(Step::User),
    ]
}

fn to_actions(steps: &[Step]) -> Vec<SpuAction> {
    let mut out = Vec::new();
    for s in steps {
        match s {
            Step::Compute(n) => out.push(SpuAction::Compute(*n)),
            Step::DmaRound { size_class, tag } => {
                let size = 128u32 << (2 * *size_class as u32); // 128..8192
                let tag = TagId::new(*tag).unwrap();
                out.push(SpuAction::DmaGet {
                    lsa: cellsim::LsAddr::new(0x10000),
                    ea: 0x100000,
                    size,
                    tag,
                });
                out.push(SpuAction::WaitTags {
                    mask: tag.mask_bit(),
                    mode: TagWaitMode::All,
                });
            }
            Step::User(id) => out.push(SpuAction::UserEvent {
                id: *id,
                a0: 1,
                a1: 2,
            }),
        }
    }
    out
}

fn traced_run(programs: &[Vec<Step>], buffer_bytes: u32) -> TraceFile {
    let spes = programs.len();
    let mut m = Machine::new(MachineConfig::default().with_num_spes(spes)).unwrap();
    let session = TraceSession::install(
        TracingConfig::default().with_buffer_bytes(buffer_bytes),
        &mut m,
    )
    .unwrap();
    let jobs: Vec<SpeJob> = programs
        .iter()
        .enumerate()
        .map(|(i, steps)| SpeJob::new(format!("p{i}"), Box::new(SpuScript::new(to_actions(steps)))))
        .collect();
    m.set_ppe_program(PpeThreadId::new(0), Box::new(SpmdDriver::new(jobs)));
    m.run().expect("scripted programs always terminate");
    session.collect(&m)
}

/// Asserts the ingest agrees with the serial row oracles under both
/// policies, at every count in [`INGEST_PAR`]: lossy rows + loss
/// report, and the strict result or error.
fn assert_matches_oracles(trace: &TraceFile) {
    let (rows, loss) = analyze_lossy(trace);
    let want = analyze(trace);
    for par in INGEST_PAR {
        let a = Analysis::of(trace)
            .parallelism(par)
            .run()
            .expect("lossy never fails");
        prop_assert_eq!(
            a.events(),
            rows.events.as_slice(),
            "lossy events, {:?}",
            par
        );
        prop_assert_eq!(&a.analyzed().anchors, &rows.anchors, "lossy anchors");
        prop_assert_eq!(a.analyzed().dropped, rows.dropped);
        prop_assert_eq!(a.loss(), &loss, "loss report, {:?}", par);

        match (&want, Analysis::of(trace).parallelism(par).strict().run()) {
            (Ok(serial), Ok(strict)) => {
                prop_assert_eq!(strict.events(), serial.events.as_slice(), "strict events");
                prop_assert_eq!(&strict.analyzed().anchors, &serial.anchors);
            }
            (Err(want), Err(got)) => prop_assert_eq!(&got, want, "strict error, {:?}", par),
            (want, got) => prop_assert!(
                false,
                "strict outcome differs at {:?}: serial ok={}, ingest ok={}",
                par,
                want.is_ok(),
                got.is_ok()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_ingestion_is_byte_identical_to_serial(
        programs in prop::collection::vec(prop::collection::vec(arb_step(), 0..24), 1..6),
        buffer_bytes in prop_oneof![Just(512u32), Just(2048u32), Just(8192u32)],
    ) {
        let trace = traced_run(&programs, buffer_bytes);
        let serial = analyze(&trace).expect("trace analyzes");
        let serial_intervals = build_intervals(&serial);
        let serial_stats = compute_stats(&serial);

        let rows = ta::analyze_parallel(&trace).expect("wrapper analyzes");
        prop_assert_eq!(&rows.events, &serial.events, "event order");
        prop_assert_eq!(&rows.anchors, &serial.anchors, "anchors");
        prop_assert_eq!(rows.dropped, serial.dropped);

        for par in [Parallelism::Serial, Parallelism::Workers(2), Parallelism::Workers(8)] {
            let analysis = Analysis::of(&trace).parallelism(par).run().unwrap();
            analysis.build_products(par);
            prop_assert_eq!(analysis.events(), serial.events.as_slice());
            prop_assert_eq!(analysis.intervals(), serial_intervals.as_slice());
            prop_assert_eq!(analysis.stats(), &serial_stats, "stats, {:?}", par);
        }
    }

    #[test]
    fn zero_copy_image_matches_serial(
        programs in prop::collection::vec(prop::collection::vec(arb_step(), 0..12), 1..4),
    ) {
        let trace = traced_run(&programs, 2048);
        let bytes = trace.to_bytes();
        let image = TraceImage::parse(&bytes).expect("image parses");
        let serial = analyze(&trace).expect("trace analyzes");
        let a = Analysis::of(image.clone()).strict().run().expect("image analyzes");
        prop_assert_eq!(a.events(), serial.events.as_slice());
        prop_assert_eq!(&a.analyzed().anchors, &serial.anchors);
        let lossy = Analysis::of(image.clone()).run().expect("lossy never fails");
        prop_assert_eq!(lossy.events(), serial.events.as_slice());
        prop_assert_eq!(lossy.loss().total_gaps(), 0);
    }

    #[test]
    fn mutated_streams_match_the_row_oracles(
        programs in prop::collection::vec(prop::collection::vec(arb_step(), 0..16), 1..4),
        flips in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..6),
    ) {
        let mut trace = traced_run(&programs, 2048);
        let n = trace.streams.len();
        for (stream, at, xor) in flips {
            let s = &mut trace.streams[stream as usize % n];
            if !s.bytes.is_empty() {
                let i = at as usize % s.bytes.len();
                s.bytes[i] ^= xor.max(1);
            }
        }
        assert_matches_oracles(&trace);
    }

    #[test]
    fn truncated_streams_match_the_row_oracles(
        programs in prop::collection::vec(prop::collection::vec(arb_step(), 0..16), 1..4),
        cuts in prop::collection::vec((any::<u8>(), any::<u16>()), 1..3),
    ) {
        let mut trace = traced_run(&programs, 2048);
        let n = trace.streams.len();
        for (stream, keep) in cuts {
            let s = &mut trace.streams[stream as usize % n];
            let len = s.bytes.len();
            s.bytes.truncate(keep as usize % (len + 1));
        }
        assert_matches_oracles(&trace);
    }
}

fn header(num_spes: u8) -> TraceHeader {
    TraceHeader {
        version: VERSION,
        num_ppe_threads: 2,
        num_spes,
        core_hz: 3_200_000_000,
        timebase_divider: 120,
        dec_start: u32::MAX,
        group_mask: u32::MAX,
        spe_buffer_bytes: 2048,
    }
}

fn encode(recs: &[TraceRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for r in recs {
        r.encode_into(&mut bytes);
    }
    bytes
}

fn ctx_run(spe: u8, tb: u64) -> TraceRecord {
    TraceRecord {
        core: TraceCore::Ppe(0),
        code: EventCode::PpeCtxRun,
        timestamp: tb,
        params: vec![u64::from(spe), u64::from(spe), u64::from(u32::MAX)],
    }
}

/// An SPE stream of `n` records, decrementer stepping by `step`, with
/// parameter tuples that repeat every few records.
fn spe_stream(spe: u8, n: usize, step: u32) -> Vec<u8> {
    spe_stream_marked(spe, n, step, u64::from(spe))
}

/// [`spe_stream`] with `mark` as every record's second parameter, so
/// two streams for one SPE can be told apart.
fn spe_stream_marked(spe: u8, n: usize, step: u32, mark: u64) -> Vec<u8> {
    let mut dec = u32::MAX;
    let recs: Vec<TraceRecord> = (0..n)
        .map(|k| {
            let r = TraceRecord {
                core: TraceCore::Spe(spe),
                code: if k % 2 == 0 {
                    EventCode::SpeUser
                } else {
                    EventCode::SpeTagWaitEnd
                },
                timestamp: u64::from(dec),
                params: vec![(k % 5) as u64, mark],
            };
            dec = dec.wrapping_sub(step);
            r
        })
        .collect();
    encode(&recs)
}

fn stream(core: TraceCore, bytes: Vec<u8>, dropped: u64) -> TraceStream {
    TraceStream {
        core,
        bytes,
        dropped,
    }
}

fn assert_case(trace: &TraceFile) {
    assert_matches_oracles(trace);
    // The zero-copy image and the owned file take the same path.
    let bytes = trace.to_bytes();
    let image = TraceImage::parse(&bytes).unwrap();
    let (rows, loss) = analyze_lossy(trace);
    for par in INGEST_PAR {
        let a = Analysis::of(image.clone()).parallelism(par).run().unwrap();
        assert_eq!(a.events(), rows.events.as_slice(), "{par:?}");
        assert_eq!(a.loss(), &loss, "{par:?}");
    }
}

/// The strict error at every count in [`INGEST_PAR`], which must agree.
fn strict_error(trace: &TraceFile) -> AnalyzeError {
    let errs: Vec<AnalyzeError> = INGEST_PAR
        .iter()
        .map(|&par| {
            let run = Analysis::of(trace).parallelism(par).strict().run();
            run.expect_err("damaged trace must fail strict ingest")
        })
        .collect();
    assert!(errs.windows(2).all(|w| w[0] == w[1]), "{errs:?}");
    errs.into_iter().next().unwrap()
}

/// PPE hardware threads interleaved at equal ticks against tag order:
/// the PPE run must be sorted before the merge.
#[test]
fn equal_tick_ppe_threads_are_ordered_like_serial() {
    let mut ppe = Vec::new();
    for spe in 0..3u8 {
        ppe.push(TraceRecord {
            core: TraceCore::Ppe(1),
            code: EventCode::PpeUser,
            timestamp: 50,
            params: vec![u64::from(spe), 0, 0],
        });
        ppe.push(ctx_run(spe, 50));
    }
    let mut streams = vec![stream(TraceCore::Ppe(0), encode(&ppe), 0)];
    for spe in 0..3u8 {
        streams.push(stream(TraceCore::Spe(spe), spe_stream(spe, 40, 3), 0));
    }
    assert_case(&TraceFile {
        header: header(3),
        streams,
        ctx_names: vec![(0, "k".into())],
    });
}

/// Unanchored and empty SPE streams, in both policies.
#[test]
fn unanchored_and_empty_spe_streams_match_serial() {
    let trace = TraceFile {
        header: header(4),
        streams: vec![
            stream(
                TraceCore::Ppe(0),
                encode(&[ctx_run(0, 10), ctx_run(2, 20)]),
                1,
            ),
            stream(TraceCore::Spe(0), spe_stream(0, 30, 7), 0),
            stream(TraceCore::Spe(1), Vec::new(), 2),
            stream(TraceCore::Spe(2), Vec::new(), 0),
            stream(TraceCore::Spe(3), spe_stream(3, 12, 5), 3),
        ],
        ctx_names: vec![],
    };
    assert_case(&trace);
    // Strict: SPE3 has records but no anchor.
    assert!(Analysis::of(&trace).strict().run().is_err());
    // Lossy: SPE3 is discarded and accounted.
    assert!(Analysis::of(&trace).run().unwrap().loss().streams[4].unanchored);
}

/// Streams sized around 4096 records (the batch size of the lazy cursor
/// ingest once had), with damage landing on either side of that
/// boundary: the strict error must name the earlier stream whatever
/// order the damage is met in.
#[test]
fn lazy_batch_boundaries_match_serial() {
    for n in [4095, 4096, 4097, 8192, 8193] {
        let mut streams = vec![stream(
            TraceCore::Ppe(0),
            encode(&[ctx_run(0, 5), ctx_run(1, 6)]),
            0,
        )];
        streams.push(stream(TraceCore::Spe(0), spe_stream(0, n, 11), 0));
        streams.push(stream(TraceCore::Spe(1), spe_stream(1, n / 2, 23), 0));
        let clean = TraceFile {
            header: header(2),
            streams,
            ctx_names: vec![],
        };
        assert_case(&clean);
        // Each record is 32 bytes. Corrupt SPE0 just past its first
        // batch and SPE1 at its first record, and tear SPE1's tail: the
        // strict error must still name SPE0, the earlier stream, though
        // the merge meets SPE1's damage first.
        let mut damaged = clean.clone();
        if let Some(b) = damaged.streams[1].bytes.get_mut(4097 * 32) {
            *b = 0;
        }
        damaged.streams[2].bytes[0] = 0;
        let len = damaged.streams[2].bytes.len();
        damaged.streams[2].bytes.truncate(len - 7);
        assert_case(&damaged);
    }
}

/// A `PpeCtxRun` anchor near `u64::MAX` wraps the placed SPE time.
/// Nothing may panic (debug builds check overflow), and every reader
/// must agree with the serial oracle. The wrapping anchor comes first
/// in one PPE stream, so its keys go backwards, and last in the other.
/// The one-shot finish step re-times the wrapping SPE run with wrapping
/// adds and sorts it, for both containers.
#[test]
fn anchor_near_u64_max_wraps_identically_everywhere() {
    for ppe in [
        [ctx_run(0, u64::MAX - 1000), ctx_run(1, 40)],
        [ctx_run(1, 40), ctx_run(0, u64::MAX - 1000)],
    ] {
        let trace = TraceFile {
            header: header(2),
            streams: vec![
                stream(TraceCore::Ppe(0), encode(&ppe), 0),
                stream(TraceCore::Spe(0), spe_stream(0, 60, 50), 0),
                stream(TraceCore::Spe(1), spe_stream(1, 20, 9), 0),
            ],
            ctx_names: vec![(0, "k0".into())],
        };
        let serial: AnalyzedTrace = analyze(&trace).unwrap();
        assert!(
            serial.events.iter().any(|e| e.time_tb < 1000),
            "time wrapped"
        );
        assert_case(&trace);

        let bytes = trace.to_bytes();
        let mut chunked = ImageIngest::new();
        for chunk in bytes.chunks(97) {
            chunked.push(chunk).unwrap();
        }
        let snap = chunked.snapshot().unwrap();
        assert_eq!(snap.events(), serial.events.as_slice(), "chunked v1");

        // `pack` places events too: it must not panic on the wrap either.
        let packed = pdt::pack(&trace, 16);
        let (v2, _) = analyze_v2(&packed, Parallelism::Serial).unwrap();
        assert_eq!(v2.events(), serial.events.as_slice(), "one-shot v2");
        let tmp = TempFile::new("wrap", &packed);
        let file = tmp.open();
        let (v2_file, _) = V2Trace::read(&file)
            .unwrap()
            .analyze(Parallelism::Workers(2))
            .unwrap();
        assert_eq!(v2_file.events(), serial.events.as_slice(), "file-backed v2");
    }
}

/// Two damaged SPE streams decode as separate shards: the strict error
/// names the lower stream, though its damage sits far later in its
/// stream than the higher stream's, and the lossy report accounts both.
#[test]
fn two_damaged_spe_streams_report_the_lower_stream() {
    let mut trace = TraceFile {
        header: header(3),
        streams: vec![
            stream(
                TraceCore::Ppe(0),
                encode(&[ctx_run(0, 5), ctx_run(1, 6), ctx_run(2, 7)]),
                0,
            ),
            stream(TraceCore::Spe(0), spe_stream(0, 300, 11), 0),
            stream(TraceCore::Spe(1), spe_stream(1, 300, 13), 0),
            stream(TraceCore::Spe(2), spe_stream(2, 300, 17), 0),
        ],
        ctx_names: vec![],
    };
    // Each record is 32 bytes; a zero granule count is malformed.
    trace.streams[2].bytes[250 * 32] = 0;
    trace.streams[3].bytes[32] = 0;
    assert_case(&trace);
    match strict_error(&trace) {
        AnalyzeError::Record { core, offset, .. } => {
            assert_eq!(core, TraceCore::Spe(1));
            assert_eq!(offset, 250 * 32);
        }
        e => panic!("expected a record error, got {e:?}"),
    }
    let lossy = Analysis::of(&trace)
        .parallelism(Parallelism::Workers(2))
        .run()
        .unwrap();
    assert_eq!(lossy.loss().streams[2].gaps.len(), 1);
    assert_eq!(lossy.loss().streams[3].gaps.len(), 1);
}

/// Two SPE streams for one SPE share its core tag, so their events tie
/// on `(time, tag, stream_seq)`: the merge breaks every tie by stream
/// index, at every executor count.
#[test]
fn streams_sharing_a_core_tag_break_ties_by_stream_index() {
    let trace = TraceFile {
        header: header(2),
        streams: vec![
            stream(
                TraceCore::Ppe(0),
                encode(&[ctx_run(0, 5), ctx_run(1, 9)]),
                0,
            ),
            stream(TraceCore::Spe(0), spe_stream_marked(0, 80, 7, 100), 0),
            stream(TraceCore::Spe(1), spe_stream(1, 40, 5), 0),
            stream(TraceCore::Spe(0), spe_stream_marked(0, 80, 7, 200), 0),
        ],
        ctx_names: vec![],
    };
    assert_case(&trace);
    for par in INGEST_PAR {
        let a = Analysis::of(&trace).parallelism(par).run().unwrap();
        let spe0: Vec<(u64, u64, u64)> = a
            .events()
            .iter()
            .filter(|e| e.core == TraceCore::Spe(0))
            .map(|e| (e.time_tb, e.stream_seq, e.params[1]))
            .collect();
        assert_eq!(spe0.len(), 160);
        for pair in spe0.chunks(2) {
            assert_eq!((pair[0].0, pair[0].1), (pair[1].0, pair[1].1), "{par:?}");
            assert_eq!((pair[0].2, pair[1].2), (100, 200), "{par:?}");
        }
    }
}

/// Both SPE anchors near `u64::MAX`: every placed SPE stream wraps and
/// takes the sorted run, one of them damaged, at every executor count.
#[test]
fn wrapping_spe_runs_sort_identically_at_every_executor_count() {
    let mut trace = TraceFile {
        header: header(2),
        streams: vec![
            stream(
                TraceCore::Ppe(0),
                encode(&[ctx_run(0, u64::MAX - 700), ctx_run(1, u64::MAX - 300)]),
                0,
            ),
            stream(TraceCore::Spe(0), spe_stream(0, 90, 40), 0),
            stream(TraceCore::Spe(1), spe_stream(1, 70, 30), 0),
        ],
        ctx_names: vec![],
    };
    assert_case(&trace);
    trace.streams[2].bytes[40 * 32] = 0;
    assert_case(&trace);
    let a = Analysis::of(&trace)
        .parallelism(Parallelism::Workers(2))
        .run()
        .unwrap();
    // The store is core-major; the global order is sorted by time.
    let times: Vec<u64> = a.columns().ordered().map(|v| v.time_tb).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted");
    assert!(times[0] < 1000, "time wrapped");
}
