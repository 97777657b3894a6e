//! Property-based tests of the analyzer: reconstruction never panics
//! on structurally valid traces, preserves per-core order, and its
//! interval algebra is self-consistent.

use proptest::prelude::*;

use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream, VERSION};
use ta::{analyze, build_intervals, compute_stats, ActivityKind};

const SPE_CODES: &[EventCode] = &[
    EventCode::SpeDmaGet,
    EventCode::SpeDmaPut,
    EventCode::SpeTagWaitBegin,
    EventCode::SpeTagWaitEnd,
    EventCode::SpeMboxReadBegin,
    EventCode::SpeMboxReadEnd,
    EventCode::SpeUser,
];

fn header(n_spes: u8) -> TraceHeader {
    TraceHeader {
        version: VERSION,
        num_ppe_threads: 1,
        num_spes: n_spes,
        core_hz: 3_200_000_000,
        timebase_divider: 120,
        dec_start: u32::MAX,
        group_mask: u32::MAX,
        spe_buffer_bytes: 2048,
    }
}

/// Builds a structurally valid trace: a PPE stream with one run record
/// per SPE, and per-SPE streams with start/stop brackets around
/// arbitrary middle events whose decrementer values descend by
/// arbitrary (wrapping) steps.
fn arb_trace() -> impl Strategy<Value = TraceFile> {
    (
        1u8..4,
        prop::collection::vec(
            prop::collection::vec((0usize..SPE_CODES.len(), 1u32..5_000), 0..40),
            1..4,
        ),
    )
        .prop_map(|(_n, per_spe)| {
            let n = per_spe.len() as u8;
            let mut ppe_bytes = Vec::new();
            for spe in 0..n {
                TraceRecord {
                    core: TraceCore::Ppe(0),
                    code: EventCode::PpeCtxRun,
                    timestamp: 100 + spe as u64 * 37,
                    params: vec![spe as u64, spe as u64, u32::MAX as u64],
                }
                .encode_into(&mut ppe_bytes);
            }
            let mut streams = vec![TraceStream {
                core: TraceCore::Ppe(0),
                bytes: ppe_bytes,
                dropped: 0,
            }];
            for (spe, middle) in per_spe.iter().enumerate() {
                let mut dec = u32::MAX;
                let mut bytes = Vec::new();
                let mut push = |code: EventCode, dec: u32, params: Vec<u64>| {
                    TraceRecord {
                        core: TraceCore::Spe(spe as u8),
                        code,
                        timestamp: dec as u64,
                        params,
                    }
                    .encode_into(&mut bytes);
                };
                push(EventCode::SpeCtxStart, dec, vec![spe as u64]);
                for (code_i, step) in middle {
                    dec = dec.wrapping_sub(*step);
                    let code = SPE_CODES[*code_i];
                    let params = match code {
                        EventCode::SpeDmaGet | EventCode::SpeDmaPut => {
                            vec![0x1000, 0, 4096, (*step % 32) as u64]
                        }
                        EventCode::SpeTagWaitBegin => vec![(*step % 0xffff) as u64, 0],
                        EventCode::SpeTagWaitEnd => vec![(*step % 0xffff) as u64],
                        EventCode::SpeMboxReadBegin => vec![],
                        EventCode::SpeMboxReadEnd => vec![*step as u64],
                        _ => vec![1, 2, 3],
                    };
                    push(code, dec, params);
                }
                dec = dec.wrapping_sub(1);
                push(EventCode::SpeStop, dec, vec![0]);
                streams.push(TraceStream {
                    core: TraceCore::Spe(spe as u8),
                    bytes,
                    dropped: 0,
                });
            }
            TraceFile {
                header: header(n),
                streams,
                ctx_names: (0..n as u32).map(|c| (c, format!("k{c}"))).collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analysis_is_total_and_order_preserving(trace in arb_trace()) {
        let analyzed = analyze(&trace).expect("valid traces analyze");
        // Global order is sorted.
        prop_assert!(analyzed
            .events
            .windows(2)
            .all(|w| w[0].time_tb <= w[1].time_tb));
        // Per-core recording order survives the merge.
        for spe in analyzed.spes() {
            let seqs: Vec<u64> = analyzed
                .core_events(TraceCore::Spe(spe))
                .map(|e| e.stream_seq)
                .collect();
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
        // Stats never panic; intervals tile each active window.
        let stats = compute_stats(&analyzed);
        prop_assert!(stats.mean_utilization() >= 0.0 && stats.mean_utilization() <= 1.0);
        for iv in build_intervals(&analyzed) {
            let mut cursor = iv.start_tb;
            for seg in &iv.intervals {
                prop_assert_eq!(seg.start_tb, cursor);
                cursor = seg.end_tb;
            }
            prop_assert_eq!(cursor, iv.stop_tb);
            let sum: u64 = [
                ActivityKind::Compute,
                ActivityKind::DmaWait,
                ActivityKind::MboxWait,
                ActivityKind::SignalWait,
            ]
            .iter()
            .map(|k| iv.total(*k))
            .sum();
            prop_assert_eq!(sum, iv.active());
        }
        // The renderers accept whatever came out.
        let sess = ta::Analysis::from_analyzed(analyzed.clone());
        prop_assert!(sess
            .render(ta::ReportKind::Svg, &ta::RenderOptions::default())
            .ends_with("</svg>\n"));
        prop_assert!(sess
            .render(
                ta::ReportKind::Ascii,
                &ta::RenderOptions::default().with_ascii_width(40)
            )
            .contains("legend"));
        // Round-trip through bytes is lossless.
        let again = TraceFile::from_bytes(&trace.to_bytes()).unwrap();
        prop_assert_eq!(again, trace);
    }

    #[test]
    fn lossy_decode_is_identical_to_strict_on_clean_traces(trace in arb_trace()) {
        let strict = analyze(&trace).expect("valid traces analyze");
        let (serial, loss) = ta::analyze_lossy(&trace);
        prop_assert_eq!(&serial.events, &strict.events, "serial lossy == strict");
        prop_assert!(loss.is_clean(), "no gaps on a clean trace: {}", loss.render());
        prop_assert_eq!(loss.total_est_lost(), 0);
        let a = ta::Analysis::of(&trace).run().unwrap();
        prop_assert_eq!(a.events(), strict.events.as_slice(), "columnar lossy == strict");
        prop_assert!(a.loss().is_clean());
    }

    #[test]
    fn fault_injected_traces_always_analyze_with_loss_accounted(
        trace in arb_trace(),
        seed in 0u64..1_000,
        nmodes in 0usize..=5,
    ) {
        let mut damaged = trace.clone();
        let plan = &ta::FaultKind::ALL[..nmodes];
        let log = ta::FaultInjector::new(seed).inject(&mut damaged, plan);
        // Terminates without panic whatever the damage.
        let (serial, loss) = ta::analyze_lossy(&damaged);
        // The columnar ingest agrees with the serial rows on damage too.
        let a = ta::Analysis::of(&damaged).run().unwrap();
        prop_assert_eq!(a.events(), serial.events.as_slice(), "columnar == serial on damage");
        prop_assert_eq!(a.loss(), &loss);
        if log.is_empty() {
            // No fault applied (empty plan or streams too small):
            // must match strict exactly.
            prop_assert!(loss.is_clean(), "undamaged yet lossy: {}", loss.render());
            prop_assert_eq!(&serial.events, &analyze(&trace).unwrap().events);
        } else {
            // Damage was dealt: the accounting must notice it.
            prop_assert!(
                !loss.is_clean() || loss.total_est_lost() > 0,
                "damage {:?} left no trace in the loss report: {}",
                log,
                loss.render()
            );
        }
    }

    #[cfg(feature = "scan-oracle")]
    #[test]
    fn index_queries_equal_brute_force(
        trace in arb_trace(),
        windows in prop::collection::vec((0u64..40_000, 0u64..40_000), 1..8),
        stabs in prop::collection::vec(0u64..40_000, 1..8),
    ) {
        let a = ta::Analysis::of(&trace).run().unwrap();
        let idx = a.index();
        let intervals = a.intervals();
        let suspects = idx.suspect_ranges();
        let end = idx.end_tb();
        // Deliberately include degenerate shapes alongside the random
        // ones: zero-length windows, windows past the trace end, and
        // the full span.
        let mut cases: Vec<(u64, u64)> = windows;
        cases.extend([
            (0, 0),
            (end / 2, end / 2),
            (end + 1, end + 10_000),
            (0, u64::MAX),
            (end, end + 1),
        ]);
        for (t0, t1) in cases {
            // Aggregation: binary search + lane checkpoints == full rescan.
            let fast = a.summarize(t0, t1);
            let slow = ta::index::oracle::window_summary(
                a.analyzed(), intervals, suspects, t0, t1,
            );
            prop_assert_eq!(&fast, &slow, "summary [{}, {})", t0, t1);
            // Filtered extraction == linear scan, windowed and per-core.
            let f = ta::EventFilter::new().in_window(t0, t1);
            let scan: Vec<_> = a.events().iter().filter(|e| f.matches(e)).collect();
            prop_assert_eq!(a.query(&f), scan, "query [{}, {})", t0, t1);
            for spe in a.analyzed().spes() {
                let fc = ta::EventFilter::new().in_window(t0, t1).on_core(TraceCore::Spe(spe));
                let scan: Vec<_> = a.events().iter().filter(|e| fc.matches(e)).collect();
                prop_assert_eq!(a.query(&fc), scan, "query spe{} [{}, {})", spe, t0, t1);
            }
            // Range clipping by binary search == SpeIntervals::clip.
            let clipped = a.intervals_window(t0, t1);
            let expect: Vec<_> = intervals.iter().map(|iv| iv.clip(t0, t1)).collect();
            prop_assert_eq!(clipped, expect, "clip [{}, {})", t0, t1);
        }
        // Stabbing == linear search of the full interval sets.
        for t in stabs {
            for iv in intervals {
                prop_assert_eq!(
                    idx.stab(iv.spe, t),
                    ta::index::oracle::stab(intervals, iv.spe, t),
                    "stab spe{} @ {}", iv.spe, t
                );
            }
        }
    }

    #[cfg(feature = "scan-oracle")]
    #[test]
    fn index_queries_equal_brute_force_on_damaged_traces(
        trace in arb_trace(),
        seed in 0u64..1_000,
        nmodes in 1usize..=5,
        windows in prop::collection::vec((0u64..40_000, 0u64..40_000), 1..6),
    ) {
        let mut damaged = trace.clone();
        ta::FaultInjector::new(seed).inject(&mut damaged, &ta::FaultKind::ALL[..nmodes]);
        let a = ta::Analysis::of(&damaged).run().unwrap();
        let idx = a.index();
        let intervals = a.intervals();
        let suspects = idx.suspect_ranges();
        // Gap-derived suspect ranges bracket real time: each sits
        // inside the (extended) trace span.
        for r in suspects {
            prop_assert!(r.start_tb < r.end_tb);
            prop_assert!(r.end_tb <= idx.end_tb().saturating_add(1));
        }
        let end = idx.end_tb();
        let mut cases: Vec<(u64, u64)> = windows;
        // Gap-spanning windows: one window per suspect range that
        // straddles it, plus degenerate shapes.
        cases.extend(
            suspects
                .iter()
                .map(|r| (r.start_tb.saturating_sub(1), r.end_tb.saturating_add(1))),
        );
        cases.extend([(0, 0), (0, u64::MAX), (end + 1, end + 5)]);
        for (t0, t1) in cases {
            let fast = a.summarize(t0, t1);
            let slow = ta::index::oracle::window_summary(
                a.analyzed(), intervals, suspects, t0, t1,
            );
            prop_assert_eq!(&fast, &slow, "summary [{}, {}) on damaged trace", t0, t1);
            // A window overlapping a suspect range must be flagged.
            let overlap = suspects.iter().any(|r| r.overlaps(t0, t1));
            prop_assert_eq!(fast.suspect, overlap);
            let f = ta::EventFilter::new().in_window(t0, t1);
            let scan: Vec<_> = a.events().iter().filter(|e| f.matches(e)).collect();
            prop_assert_eq!(a.query(&f), scan);
        }
    }

    #[test]
    fn session_lanes_tile_their_span_in_order(
        trace in arb_trace(),
        seed in 0u64..1_000,
        nmodes in 0usize..=5,
    ) {
        // The index and the live-tail overlay answer windows by binary
        // search over each lane, which relies on this invariant.
        let mut damaged = trace.clone();
        ta::FaultInjector::new(seed).inject(&mut damaged, &ta::FaultKind::ALL[..nmodes]);
        for t in [&trace, &damaged] {
            let a = ta::Analysis::of(t).run().unwrap();
            for iv in a.intervals() {
                let mut cursor = iv.start_tb;
                for seg in &iv.intervals {
                    prop_assert_eq!(seg.start_tb, cursor, "spe{} gap or overlap", iv.spe);
                    prop_assert!(seg.end_tb > seg.start_tb, "spe{} empty interval", iv.spe);
                    cursor = seg.end_tb;
                }
                prop_assert_eq!(cursor, iv.stop_tb, "spe{} ends short of stop", iv.spe);
            }
        }
    }

    #[test]
    fn columnar_materialization_is_lossless(
        trace in arb_trace(),
        seed in 0u64..1_000,
        nmodes in 0usize..=5,
    ) {
        // Row → columns → row is the identity on a clean trace, field
        // by field (AnalyzedTrace carries no PartialEq).
        let clean = analyze(&trace).expect("valid traces analyze");
        let cols = ta::ColumnarTrace::from_analyzed(&clean);
        let back = cols.materialize();
        prop_assert_eq!(&back.events, &clean.events);
        prop_assert_eq!(&back.ctx_names, &clean.ctx_names);
        prop_assert_eq!(&back.anchors, &clean.anchors);
        prop_assert_eq!(back.header, clean.header);
        prop_assert_eq!(back.dropped, clean.dropped);
        // Same through the consuming constructor on a fault-injected
        // trace: whatever survives lossy decode round-trips exactly.
        let mut damaged = trace.clone();
        ta::FaultInjector::new(seed).inject(&mut damaged, &ta::FaultKind::ALL[..nmodes]);
        let (rows, _loss) = ta::analyze_lossy(&damaged);
        let cols = ta::ColumnarTrace::from_rows(rows.clone());
        let back = cols.materialize();
        prop_assert_eq!(&back.events, &rows.events);
        prop_assert_eq!(&back.ctx_names, &rows.ctx_names);
        prop_assert_eq!(&back.anchors, &rows.anchors);
        prop_assert_eq!(back.header, rows.header);
        prop_assert_eq!(back.dropped, rows.dropped);
    }

    #[test]
    fn window_clipping_conserves_ticks(
        trace in arb_trace(),
        cut in 0u64..10_000,
    ) {
        let analyzed = analyze(&trace).unwrap();
        for iv in build_intervals(&analyzed) {
            let mid = iv.start_tb + cut.min(iv.active());
            let left = iv.clip(0, mid);
            let right = iv.clip(mid, u64::MAX);
            for kind in [
                ActivityKind::Compute,
                ActivityKind::DmaWait,
                ActivityKind::MboxWait,
                ActivityKind::SignalWait,
            ] {
                prop_assert_eq!(
                    left.total(kind) + right.total(kind),
                    iv.total(kind),
                    "kind {:?} not conserved across the cut",
                    kind
                );
            }
        }
    }
}
