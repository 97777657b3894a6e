//! Criterion benchmark of trace ingestion: the same 8-SPE, all-events
//! trace (an event-rate workload, ≥100k records) through the serial row
//! reference, the one-shot columnar ingest, and the memoized `Analysis`
//! session with every product.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cellsim::{MachineConfig, PpeThreadId, SpeJob, SpmdDriver, SpuAction, SpuScript};
use pdt::{TraceFile, TraceSession, TracingConfig};
use ta::{Analysis, Parallelism};

/// An 8-SPE trace with every event group enabled and ≥100k records:
/// each SPE fires a dense user-event storm (the event-rate workload
/// shape) so the decode cost dominates analysis.
fn big_trace() -> TraceFile {
    const SPES: usize = 8;
    const EVENTS_PER_SPE: usize = 13_000; // > 100k records over 8 SPEs

    let mut m = cellsim::Machine::new(MachineConfig::default().with_num_spes(SPES)).unwrap();
    let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
    let jobs = (0..SPES)
        .map(|i| {
            let mut actions = Vec::with_capacity(2 * EVENTS_PER_SPE);
            for k in 0..EVENTS_PER_SPE {
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

fn bench_parallel_analyze(c: &mut Criterion) {
    let trace = big_trace();
    let records: u64 = trace
        .streams
        .iter()
        .map(|s| s.records().map(|r| r.len() as u64).unwrap_or(0))
        .sum();
    assert!(
        records >= 100_000,
        "bench trace too small: {records} records"
    );

    let mut g = c.benchmark_group("trace/parallel_analyze");
    g.throughput(Throughput::Elements(records));
    g.bench_function("serial_reference", |b| {
        b.iter(|| black_box(ta::analyze(black_box(&trace)).unwrap().events.len()))
    });
    g.bench_function("columnar_ingest", |b| {
        b.iter(|| {
            let a = Analysis::of(black_box(&trace)).run().unwrap();
            black_box(a.columns().events.len())
        })
    });
    g.bench_function("session_all_products", |b| {
        b.iter(|| {
            let a = Analysis::of(black_box(&trace))
                .parallelism(Parallelism::Workers(8))
                .run()
                .unwrap();
            black_box((a.stats().spes.len(), a.timeline().lanes.len()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_parallel_analyze);
criterion_main!(benches);
