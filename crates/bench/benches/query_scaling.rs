//! Criterion benchmark for E13: window-query cost vs. trace size,
//! naive linear scan against the trace index.
//!
//! Three event-rate traces (8 SPEs, dense user-event storms) of
//! geometrically growing size are queried with a fixed-width window
//! (1/64 of the span, centered). The naive path rescans every global
//! event per query, so its cost grows linearly with trace size; the
//! indexed path resolves the window by binary search over per-core
//! offsets and the lane checkpoints, so its cost tracks the *result*
//! size and stays near-flat. `query_smoke` asserts the ≥5x separation
//! as a CI gate; this bench produces the full scaling table.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cellsim::{MachineConfig, PpeThreadId, SpeJob, SpmdDriver, SpuAction, SpuScript};
use pdt::{TraceFile, TraceSession, TracingConfig};
use ta::{Analysis, EventFilter};

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

/// The fixed query window: 1/64 of the trace span, centered.
fn window_of(a: &Analysis) -> (u64, u64) {
    let (s, e) = (a.index().start_tb(), a.index().end_tb());
    let span = e.saturating_sub(s).max(64);
    let mid = s + span / 2;
    (mid - span / 128, mid + span / 128)
}

fn bench_query_scaling(c: &mut Criterion) {
    for events_per_spe in [1_000usize, 4_000, 16_000] {
        let trace = storm_trace(events_per_spe);
        let a = Analysis::of(&trace).run().unwrap();
        a.index(); // build outside the timed region, like the other products
        let n = a.events().len() as u64;
        let (t0, t1) = window_of(&a);
        let f = EventFilter::new().in_window(t0, t1);

        // The two paths must agree before we time them.
        let indexed = a.query(&f);
        let naive: Vec<_> = a.events().iter().filter(|e| f.matches(e)).collect();
        assert_eq!(indexed, naive, "index diverged from scan at n={n}");
        assert!(!indexed.is_empty(), "empty window defeats the benchmark");

        let mut g = c.benchmark_group(format!("query/n={n}"));
        g.throughput(Throughput::Elements(n));
        g.bench_function("naive_scan", |b| {
            b.iter(|| {
                black_box(
                    a.events()
                        .iter()
                        .filter(|e| black_box(&f).matches(e))
                        .count(),
                )
            })
        });
        g.bench_function("indexed", |b| {
            b.iter(|| black_box(a.query(black_box(&f)).len()))
        });
        g.bench_function("indexed_summary", |b| {
            b.iter(|| black_box(a.summarize(black_box(t0), black_box(t1)).total_events()))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_query_scaling);
criterion_main!(benches);
