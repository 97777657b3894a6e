//! Criterion benchmark for E15: full derived-product builds, row path
//! against the columnar pipeline at several worker counts.
//!
//! Three event-rate traces (8 SPEs, dense user-event storms) of
//! geometrically growing size have their complete product set built
//! three ways: every product from the row `Vec<GlobalEvent>` by the
//! serial free functions (the pre-columnar path), and off a shared
//! columnar store via `build_products` with 1 and 4 workers. The
//! row path rescans the event vector per product; the columnar path
//! converts once and shares the core-major store, so its
//! cost per event drops as products are added. `product_smoke`
//! asserts the ≥2x (4 workers) and ≥1.3x (1 worker) separation as a
//! CI gate and emits `BENCH_products.json`; this bench produces the
//! full scaling table.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cellsim::{MachineConfig, PpeThreadId, SpeJob, SpmdDriver, SpuAction, SpuScript};
use pdt::{TraceFile, TraceSession, TracingConfig};
use ta::lint::LintConfig;
use ta::{analyze_lossy, Analysis, AnalyzedTrace, ColumnarTrace, LossReport, Parallelism};

const SPES: usize = 8;

/// Dense user-event storm, `events_per_spe` events on each of 8 SPEs.
fn storm_trace(events_per_spe: usize) -> TraceFile {
    let mut m = cellsim::Machine::new(MachineConfig::default().with_num_spes(SPES)).unwrap();
    let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
    let jobs = (0..SPES)
        .map(|i| {
            let mut actions = Vec::with_capacity(2 * events_per_spe);
            for k in 0..events_per_spe {
                actions.push(SpuAction::UserEvent {
                    id: (k % 50) as u32,
                    a0: k as u64,
                    a1: i as u64,
                });
                actions.push(SpuAction::Compute(200));
            }
            SpeJob::new(format!("storm{i}"), Box::new(SpuScript::new(actions)))
        })
        .collect();
    m.set_ppe_program(PpeThreadId::new(0), Box::new(SpmdDriver::new(jobs)));
    m.run().unwrap();
    session.collect(&m)
}

/// The pre-columnar serial path: every product from the rows.
fn row_products(rows: &AnalyzedTrace, loss: &LossReport, cfg: &LintConfig) -> usize {
    let iv = ta::intervals::build_intervals(rows);
    let st = ta::stats::compute_stats_with(rows, &iv);
    let tl = ta::timeline::build_timeline_with(rows, &iv);
    let oc = ta::occupancy::dma_occupancy(rows);
    let ph = ta::phases::user_phases(rows);
    let ix = ta::index::TraceIndex::build(rows, &iv, loss);
    let li = ta::lint::lint_trace(rows, &iv, loss, cfg);
    black_box((&st, &tl, &oc, &ph, &ix));
    iv.len() + li.diagnostics.len()
}

fn bench_product_scaling(c: &mut Criterion) {
    let cfg = LintConfig::default();
    for events_per_spe in [1_000usize, 4_000, 16_000] {
        let trace = storm_trace(events_per_spe);
        let (rows, loss) = analyze_lossy(&trace);
        let n = rows.events.len() as u64;

        let mut g = c.benchmark_group(format!("products/n={n}"));
        g.throughput(Throughput::Elements(n));
        g.bench_function("row_serial", |b| {
            b.iter(|| black_box(row_products(black_box(&rows), &loss, &cfg)))
        });
        for workers in [1usize, 4] {
            g.bench_function(format!("columnar_{workers}t"), |b| {
                b.iter(|| {
                    let a = Analysis::from_columns(ColumnarTrace::from_analyzed(black_box(&rows)));
                    a.build_products(Parallelism::Workers(workers));
                    black_box(a.intervals().len() + a.lint().diagnostics.len())
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_product_scaling);
criterion_main!(benches);
