//! Workspace-wide integration tests: every workload run traced, its
//! trace analyzed, and the analyzer's answers cross-checked against
//! simulator ground truth — the full reproduction pipeline end to end.

use cell_pdt::prelude::*;
use pdt::TraceFile;

fn traced(
    workload: &dyn Workload,
    spes: usize,
    tcfg: TracingConfig,
) -> (workloads::WorkloadResult, TraceFile) {
    let result = run_workload(
        workload,
        MachineConfig::default().with_num_spes(spes),
        Some(tcfg),
    )
    .expect("workload runs and verifies");
    let trace = result.trace.clone().expect("trace collected");
    (result, trace)
}

fn all_workloads() -> Vec<(Box<dyn Workload>, usize)> {
    vec![
        (
            Box::new(MatmulWorkload::new(MatmulConfig {
                n: 128,
                spes: 2,
                seed: 1,
            })) as Box<dyn Workload>,
            2,
        ),
        (
            Box::new(FftWorkload::new(FftConfig {
                n1: 16,
                n2: 32,
                spes: 2,
                seed: 2,
            })),
            2,
        ),
        (
            Box::new(StreamWorkload::new(StreamConfig {
                blocks: 12,
                block_bytes: 4096,
                buffering: Buffering::Double,
                spes: 2,
                ..StreamConfig::default()
            })),
            2,
        ),
        (
            Box::new(PipelineWorkload::new(PipelineConfig {
                blocks: 6,
                block_bytes: 2048,
                pairs: 1,
                stage_cycles: 1000,
                seed: 3,
            })),
            2,
        ),
        (
            Box::new(SparseWorkload::new(SparseConfig {
                rows: 512,
                rows_per_chunk: 64,
                spes: 2,
                schedule: Schedule::Dynamic,
                ..SparseConfig::default()
            })),
            2,
        ),
        (
            Box::new(StencilWorkload::new(StencilConfig {
                n: 32,
                iters: 3,
                spes: 2,
                seed: 6,
            })),
            2,
        ),
    ]
}

#[test]
fn every_workload_traces_and_analyzes() {
    for (w, spes) in all_workloads() {
        let (result, trace) = traced(w.as_ref(), spes, TracingConfig::default());
        // The trace file round-trips through its binary form.
        let parsed = TraceFile::from_bytes(&trace.to_bytes()).expect("parse");
        assert_eq!(parsed, trace, "{}: binary roundtrip", w.name());
        // It analyzes, and every SPE that ran shows up.
        let analyzed = analyze(&trace).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let stats = compute_stats(&analyzed);
        assert_eq!(
            stats.spes.len(),
            spes,
            "{}: all SPEs present in the analysis",
            w.name()
        );
        // Analyzer activity agrees with ground truth within 5%/15%.
        let v = validate(
            &analyzed,
            &stats,
            &result.report,
            result.machine.config().clock.core_hz,
        );
        assert!(
            v.max_active_rel_err() < 0.05,
            "{}: active err {} \n{}",
            w.name(),
            v.max_active_rel_err(),
            v.render()
        );
        // Renderers accept the real trace, via the unified Report API.
        let a = Analysis::from_analyzed(analyzed);
        assert!(
            a.timeline().lanes.len() >= spes,
            "{}: lanes present",
            w.name()
        );
        assert!(a
            .render(ReportKind::Svg, &RenderOptions::default())
            .contains("</svg>"));
        assert!(a
            .render(
                ReportKind::Ascii,
                &RenderOptions::default().with_ascii_width(60)
            )
            .contains("legend"));
    }
}

#[test]
fn group_masks_filter_the_trace() {
    let w = StreamWorkload::new(StreamConfig {
        blocks: 8,
        block_bytes: 4096,
        buffering: Buffering::Single,
        spes: 1,
        ..StreamConfig::default()
    });
    // DMA-only: no mailbox records anywhere.
    let (_, trace) = traced(
        &w,
        1,
        TracingConfig::default().with_groups(GroupMask::dma_only()),
    );
    let a = Analysis::of(&trace).run().unwrap();
    let mbox = EventFilter::new().in_group(EventGroup::SpeMbox).apply(&a);
    assert!(mbox.is_empty(), "mailbox events must be filtered out");
    let dma = EventFilter::new().in_group(EventGroup::SpeDma).apply(&a);
    assert!(!dma.is_empty(), "dma events must be present");
}

#[test]
fn tracing_off_means_zero_perturbation() {
    let w = MatmulWorkload::new(MatmulConfig {
        n: 128,
        spes: 2,
        seed: 4,
    });
    let base = run_workload(&w, MachineConfig::default().with_num_spes(2), None)
        .unwrap()
        .report
        .cycles;
    let again = run_workload(&w, MachineConfig::default().with_num_spes(2), None)
        .unwrap()
        .report
        .cycles;
    assert_eq!(base, again, "untraced runs are exactly reproducible");
}

#[test]
fn traced_runs_are_deterministic_too() {
    let w = SparseWorkload::new(SparseConfig {
        rows: 512,
        spes: 2,
        schedule: Schedule::Dynamic,
        ..SparseConfig::default()
    });
    let (r1, t1) = traced(&w, 2, TracingConfig::default());
    let (r2, t2) = traced(&w, 2, TracingConfig::default());
    assert_eq!(r1.report.cycles, r2.report.cycles);
    assert_eq!(t1.to_bytes(), t2.to_bytes(), "bit-identical traces");
}

#[test]
fn analyzer_event_counts_match_tracer_stats() {
    let w = FftWorkload::new(FftConfig {
        n1: 16,
        n2: 16,
        spes: 2,
        seed: 5,
    });
    let (_, trace) = traced(&w, 2, TracingConfig::default());
    let analyzed = analyze(&trace).unwrap();
    let stats = compute_stats(&analyzed);
    // Total decoded events equal the sum of per-stream record counts.
    let stream_total: u64 = trace
        .streams
        .iter()
        .map(|s| s.records().unwrap().len() as u64)
        .sum();
    assert_eq!(stats.counts.total(), stream_total);
    assert_eq!(analyzed.events.len() as u64, stream_total);
}

#[test]
fn csv_exports_are_consistent() {
    let w = StreamWorkload::new(StreamConfig {
        blocks: 6,
        block_bytes: 2048,
        spes: 1,
        ..StreamConfig::default()
    });
    let (_, trace) = traced(&w, 1, TracingConfig::default());
    let a = Analysis::of(&trace).run().unwrap();
    let events_csv = a.render(ReportKind::Csv, &RenderOptions::default());
    assert_eq!(
        events_csv.lines().count(),
        a.analyzed().events.len() + 1,
        "one CSV row per event plus header"
    );
    let iv_csv = a.render(
        ReportKind::Csv,
        &RenderOptions::default().with_csv(CsvTable::Intervals),
    );
    let n_intervals: usize = a.intervals().iter().map(|s| s.intervals.len()).sum();
    assert_eq!(iv_csv.lines().count(), n_intervals + 1);
}

#[test]
fn ls_pressure_from_trace_buffer_is_real() {
    // A workload that nearly fills the LS fails to start only when the
    // PDT buffer steals the remaining space.
    struct Greedy;
    impl SpuProgram for Greedy {
        fn resume(&mut self, _wake: SpuWake, env: cellsim::SpuEnv<'_>) -> SpuAction {
            // 255 KiB: fits alone, not next to a 2 KiB trace buffer.
            match env.ls.alloc(255 * 1024, 128, "huge") {
                Ok(_) => SpuAction::Stop(1),
                Err(_) => SpuAction::Stop(2),
            }
        }
    }
    let run = |traced: bool| {
        let mut m = Machine::new(MachineConfig::default().with_num_spes(1)).unwrap();
        let _s = traced.then(|| TraceSession::install(TracingConfig::default(), &mut m).unwrap());
        m.set_ppe_program(
            PpeThreadId::new(0),
            Box::new(SpmdDriver::new(vec![SpeJob::new(
                "greedy",
                Box::new(Greedy),
            )])),
        );
        m.run().unwrap().stop_codes[0].1.unwrap()
    };
    assert_eq!(run(false), 1, "fits without tracing");
    assert_eq!(run(true), 2, "trace buffer steals the space");
}
