//! End-to-end: run traced programs on the simulator, analyze the trace
//! bytes, and check the analyzer's answers against the simulator's
//! ground truth.

use cellsim::{
    CoreId, LsAddr, Machine, MachineConfig, PpeThreadId, RunReport, SpeId, SpeJob, SpmdDriver,
    SpuAction, SpuEnv, SpuProgram, SpuScript, SpuWake, TagId, TagWaitMode,
};
use pdt::{TraceCore, TraceFile, TraceSession, TracingConfig};
use ta::{
    analyze, build_intervals, compute_stats, validate, ActivityKind, Analysis, RenderOptions,
    ReportKind,
};

fn tag(t: u8) -> TagId {
    TagId::new(t).unwrap()
}

/// A kernel alternating DMA waits and compute for `rounds` rounds.
fn dma_compute_kernel(rounds: u32, compute: u64, dma_bytes: u32, base_ea: u64) -> SpuScript {
    let mut actions = Vec::new();
    for k in 0..rounds {
        actions.push(SpuAction::DmaGet {
            lsa: LsAddr::new(0x10000),
            ea: base_ea + (k as u64 % 64) * dma_bytes as u64,
            size: dma_bytes,
            tag: tag(0),
        });
        actions.push(SpuAction::WaitTags {
            mask: tag(0).mask_bit(),
            mode: TagWaitMode::All,
        });
        actions.push(SpuAction::Compute(compute));
    }
    SpuScript::new(actions)
}

fn run_traced(n_spes: usize, cfg: TracingConfig, jobs: Vec<SpeJob>) -> (TraceFile, RunReport, u64) {
    let mut m = Machine::new(MachineConfig::default().with_num_spes(n_spes)).unwrap();
    let session = TraceSession::install(cfg, &mut m).unwrap();
    m.set_ppe_program(PpeThreadId::new(0), Box::new(SpmdDriver::new(jobs)));
    let report = m.run().unwrap();
    let trace = session.collect(&m);
    let clock = m.config().clock.core_hz;
    (trace, report, clock)
}

#[test]
fn analyzer_reconstructs_activity_within_tolerance() {
    let jobs = (0..4)
        .map(|i| {
            SpeJob::new(
                format!("w{i}"),
                Box::new(dma_compute_kernel(40, 8_000 + i * 1_000, 8192, 0x100000)),
            )
        })
        .collect();
    let (trace, report, clock_hz) = run_traced(4, TracingConfig::default(), jobs);

    let analyzed = analyze(&trace).expect("trace analyzes");
    let stats = compute_stats(&analyzed);
    assert_eq!(stats.spes.len(), 4);

    let v = validate(&analyzed, &stats, &report, clock_hz);
    assert_eq!(v.spes.len(), 4);
    // Active time reconstructed within 2% (timebase quantization +
    // ~5 µs start-anchor skew over a multi-ms run).
    assert!(
        v.max_active_rel_err() < 0.02,
        "active err {}\n{}",
        v.max_active_rel_err(),
        v.render()
    );
    // DMA-wait time within 10% (wait end observed at trace granularity).
    assert!(
        v.max_dma_wait_rel_err() < 0.10,
        "dma err {}\n{}",
        v.max_dma_wait_rel_err(),
        v.render()
    );
}

#[test]
fn analyzer_sees_load_imbalance_the_simulator_created() {
    // SPE0 does 4x the compute of the others.
    let jobs = (0..4)
        .map(|i| {
            let compute = if i == 0 { 40_000 } else { 10_000 };
            SpeJob::new(
                format!("w{i}"),
                Box::new(dma_compute_kernel(30, compute, 4096, 0x100000)),
            )
        })
        .collect();
    let (trace, _report, _clock) = run_traced(4, TracingConfig::default(), jobs);
    let analyzed = analyze(&trace).unwrap();
    let stats = compute_stats(&analyzed);
    let c0 = stats.spe(0).unwrap().compute_tb;
    let c1 = stats.spe(1).unwrap().compute_tb;
    assert!(
        c0 > c1 * 3,
        "imbalance visible in trace: SPE0={c0} SPE1={c1}"
    );
    assert!(stats.imbalance() > 1.5, "imbalance {}", stats.imbalance());
}

#[test]
fn dma_latency_grows_with_transfer_size() {
    let jobs = vec![SpeJob::new(
        "small",
        Box::new(dma_compute_kernel(30, 100, 128, 0x100000)),
    )];
    let (trace, _, _) = run_traced(1, TracingConfig::default(), jobs);
    let a = analyze(&trace).unwrap();
    let small = compute_stats(&a).dma.latency_ticks.mean();

    let jobs = vec![SpeJob::new(
        "large",
        Box::new(dma_compute_kernel(30, 100, 16384, 0x100000)),
    )];
    let (trace, _, _) = run_traced(1, TracingConfig::default(), jobs);
    let a = analyze(&trace).unwrap();
    let large = compute_stats(&a).dma.latency_ticks.mean();

    assert!(
        large > small,
        "16 KiB DMAs ({large} ticks) must be slower than 128 B ({small} ticks)"
    );
}

#[test]
fn renderers_produce_output_for_a_real_trace() {
    let jobs = vec![SpeJob::new(
        "draw",
        Box::new(dma_compute_kernel(10, 5_000, 4096, 0x100000)),
    )];
    let (trace, _, _) = run_traced(1, TracingConfig::default(), jobs);
    let a = analyze(&trace).unwrap();
    let sess = Analysis::from_analyzed(a.clone());
    assert!(sess.timeline().lanes.len() >= 2, "PPE lane + SPE lane");
    let svg = sess.render(ReportKind::Svg, &RenderOptions::default());
    assert!(svg.contains("SPE0 (draw)"));
    assert!(svg.matches("<rect").count() > 5);

    let txt = sess.render(
        ReportKind::Ascii,
        &RenderOptions::default().with_ascii_width(80),
    );
    assert!(txt.contains("SPE0"));
    assert!(txt.contains('='), "compute glyphs present: \n{txt}");
    assert!(txt.contains('d'), "dma-wait glyphs present: \n{txt}");

    let iv = build_intervals(&a);
    assert!(iv[0].total(ActivityKind::DmaWait) > 0);
}

#[test]
fn mailbox_waits_show_up_in_the_trace() {
    /// SPU waits for a mailbox word that arrives late.
    struct LateMbox;
    impl SpuProgram for LateMbox {
        fn resume(&mut self, wake: SpuWake, _env: SpuEnv<'_>) -> SpuAction {
            match wake {
                SpuWake::Start => SpuAction::ReadInMbox,
                SpuWake::InMbox(v) => SpuAction::Stop(v),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    use cellsim::{PpeAction, PpeEnv, PpeProgram, PpeWake};
    struct SlowSender {
        ctx: Option<cellsim::CtxId>,
    }
    impl PpeProgram for SlowSender {
        fn resume(&mut self, wake: PpeWake, _env: PpeEnv<'_>) -> PpeAction {
            match wake {
                PpeWake::Start => PpeAction::CreateContext {
                    name: "late".into(),
                    program: Box::new(LateMbox),
                },
                PpeWake::ContextCreated(c) => {
                    self.ctx = Some(c);
                    PpeAction::RunContext(c)
                }
                PpeWake::ContextStarted(_) => PpeAction::Compute(500_000),
                PpeWake::ComputeDone => PpeAction::WriteInMbox {
                    ctx: self.ctx.unwrap(),
                    value: 7,
                },
                PpeWake::MboxWritten => PpeAction::WaitStop {
                    ctx: self.ctx.unwrap(),
                },
                PpeWake::Stopped { .. } => PpeAction::Halt,
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    let mut m = Machine::new(MachineConfig::default().with_num_spes(1)).unwrap();
    let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
    m.set_ppe_program(PpeThreadId::new(0), Box::new(SlowSender { ctx: None }));
    let report = m.run().unwrap();
    let trace = session.collect(&m);

    let a = analyze(&trace).unwrap();
    let stats = compute_stats(&a);
    let mbox_tb = stats.spe(0).unwrap().mbox_wait_tb;
    // ~500k cycles of waiting ≈ 4166 ticks.
    assert!(
        (3_500..6_000).contains(&mbox_tb),
        "mailbox wait {mbox_tb} ticks"
    );
    // Cross-check against ground truth.
    let gt = report
        .core(CoreId::Spe(SpeId::new(0)))
        .unwrap()
        .breakdown
        .mbox_wait;
    let gt_tb = gt / 120;
    assert!(
        ta::rel_err(mbox_tb as f64, gt_tb as f64) < 0.05,
        "ta {mbox_tb} vs gt {gt_tb}"
    );
}

#[test]
fn trace_and_untraced_results_agree_but_timing_dilates() {
    let mk_jobs = || {
        vec![SpeJob::new(
            "k",
            Box::new(dma_compute_kernel(200, 300, 1024, 0x100000)),
        )]
    };
    // Untraced run.
    let mut m0 = Machine::new(MachineConfig::default().with_num_spes(1)).unwrap();
    m0.set_ppe_program(PpeThreadId::new(0), Box::new(SpmdDriver::new(mk_jobs())));
    let base = m0.run().unwrap();
    // Traced run.
    let (_, traced, _) = run_traced(1, TracingConfig::default(), mk_jobs());
    assert!(
        traced.cycles > base.cycles,
        "tracing dilates: {} vs {}",
        traced.cycles,
        base.cycles
    );
    let overhead = (traced.cycles - base.cycles) as f64 / base.cycles as f64;
    assert!(
        overhead < 0.5,
        "overhead should stay moderate, got {:.1}%",
        overhead * 100.0
    );
}

#[test]
fn per_spe_streams_preserve_program_order() {
    let jobs = vec![SpeJob::new(
        "ord",
        Box::new(dma_compute_kernel(5, 1_000, 2048, 0x100000)),
    )];
    let (trace, _, _) = run_traced(1, TracingConfig::default(), jobs);
    let a = analyze(&trace).unwrap();
    let seqs: Vec<u64> = a
        .core_events(TraceCore::Spe(0))
        .map(|e| e.stream_seq)
        .collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(
        seqs, sorted,
        "global merge must not reorder a core's stream"
    );
    // Times are non-decreasing too.
    let times: Vec<u64> = a
        .core_events(TraceCore::Spe(0))
        .map(|e| e.time_tb)
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn occupancy_separates_buffering_strategies_on_real_traces() {
    use ta::dma_occupancy;
    let run = |compute: u64, double: bool| {
        let mut actions = Vec::new();
        let t0 = tag(0);
        let t1 = tag(1);
        if double {
            // Classic prefetch loop on two tags.
            actions.push(SpuAction::DmaGet {
                lsa: LsAddr::new(0x10000),
                ea: 0x100000,
                size: 8192,
                tag: t0,
            });
            for k in 0..12u64 {
                let (cur, nxt) = if k % 2 == 0 { (t0, t1) } else { (t1, t0) };
                actions.push(SpuAction::DmaGet {
                    lsa: LsAddr::new(0x14000),
                    ea: 0x100000 + (k + 1) * 8192,
                    size: 8192,
                    tag: nxt,
                });
                actions.push(SpuAction::WaitTags {
                    mask: cur.mask_bit(),
                    mode: TagWaitMode::All,
                });
                actions.push(SpuAction::Compute(compute));
            }
        } else {
            for k in 0..12u64 {
                actions.push(SpuAction::DmaGet {
                    lsa: LsAddr::new(0x10000),
                    ea: 0x100000 + k * 8192,
                    size: 8192,
                    tag: t0,
                });
                actions.push(SpuAction::WaitTags {
                    mask: t0.mask_bit(),
                    mode: TagWaitMode::All,
                });
                actions.push(SpuAction::Compute(compute));
            }
        }
        let (trace, _, _) = run_traced(
            1,
            TracingConfig::default(),
            vec![SpeJob::new("occ", Box::new(SpuScript::new(actions)))],
        );
        let a = analyze(&trace).unwrap();
        dma_occupancy(&a).remove(0)
    };
    let single = run(2000, false);
    let double = run(2000, true);
    assert_eq!(single.peak, 1);
    assert!(double.peak >= 2);
    assert!(
        double.mean > single.mean + 0.3,
        "double {} vs single {}",
        double.mean,
        single.mean
    );
}

#[test]
fn ground_truth_report_renders() {
    let jobs = vec![SpeJob::new(
        "r",
        Box::new(dma_compute_kernel(5, 2_000, 4096, 0x100000)),
    )];
    let (_, report, _) = run_traced(1, TracingConfig::default(), jobs);
    let txt = report.render();
    assert!(txt.contains("run:"), "{txt}");
    assert!(txt.contains("SPE0"), "{txt}");
    assert!(txt.contains("via trace flushes"), "{txt}");
}

#[test]
fn clock_alignment_recovers_the_anchor_skew_on_a_real_trace() {
    use cellsim::{PpeAction, PpeEnv, PpeProgram, PpeWake};
    use ta::{align_clocks, violations};

    /// SPU waits for a word immediately; the PPE sends it right after
    /// start, creating a tight PPE→SPE causality edge that exposes the
    /// anchor skew.
    struct EchoOnce;
    impl SpuProgram for EchoOnce {
        fn resume(&mut self, wake: SpuWake, _env: SpuEnv<'_>) -> SpuAction {
            match wake {
                SpuWake::Start => SpuAction::ReadInMbox,
                SpuWake::InMbox(v) => SpuAction::WriteOutMbox(v + 1),
                SpuWake::MboxWritten => SpuAction::Stop(0),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    struct Sender {
        ctx: Option<cellsim::CtxId>,
    }
    impl PpeProgram for Sender {
        fn resume(&mut self, wake: PpeWake, _env: PpeEnv<'_>) -> PpeAction {
            match wake {
                PpeWake::Start => PpeAction::CreateContext {
                    name: "echo".into(),
                    program: Box::new(EchoOnce),
                },
                PpeWake::ContextCreated(c) => {
                    self.ctx = Some(c);
                    PpeAction::RunContext(c)
                }
                PpeWake::ContextStarted(_) => PpeAction::WriteInMbox {
                    ctx: self.ctx.unwrap(),
                    value: 41,
                },
                PpeWake::MboxWritten => PpeAction::ReadOutMbox {
                    ctx: self.ctx.unwrap(),
                },
                PpeWake::OutMbox(v) => {
                    assert_eq!(v, 42);
                    PpeAction::WaitStop {
                        ctx: self.ctx.unwrap(),
                    }
                }
                PpeWake::Stopped { .. } => PpeAction::Halt,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    let mut m = cellsim::Machine::new(cellsim::MachineConfig::default().with_num_spes(1)).unwrap();
    let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
    m.set_ppe_program(PpeThreadId::new(0), Box::new(Sender { ctx: None }));
    m.run().unwrap();
    let trace = session.collect(&m);
    let analyzed = analyze(&trace).unwrap();

    // The uncorrected timeline violates the inbound-mailbox edge: the
    // SPE's read happens almost immediately after the PPE write, but
    // its clock runs ~5 µs (≈133 ticks) early.
    let before = violations(&analyzed);
    assert!(
        !before.is_empty(),
        "anchor skew should be observable as a causality violation"
    );

    let (fixed, est) = align_clocks(&analyzed);
    assert_eq!(est.len(), 1);
    // The estimated shift is of the context-start-latency order
    // (16k cycles ≈ 133 ticks), minus however long the SPU actually
    // waited before the word arrived.
    assert!(
        (1..=140).contains(&est[0].shift_tb),
        "estimate {} ticks",
        est[0].shift_tb
    );
    assert!(violations(&fixed).len() < before.len());
}
