//! Scheduler-determinism suite: every derived product must be
//! byte-identical whatever [`Parallelism`] drives the shard fan-out
//! — `Serial`, `Workers(2)`, `Workers(4)`, `Auto` — and across
//! repeated runs under the same setting. Runs over the full golden
//! corpus, including the fault-injected and racy traces, through both
//! the one-shot `Analysis` path and the streaming `ImageIngest` path.
//!
//! This is the differential oracle for the shard-task decomposition:
//! per-stream decode shards, per-SPE interval shards, per-rule×per-shard
//! lint sweeps, and per-core index blocks may execute in any order on
//! any worker, but the assembled products must not depend on that
//! order.

use pdt::v2::{pack, DEFAULT_BLOCK_RECORDS};
use ta::{analyze_v2, Analysis, ImageIngest, Parallelism};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, GOLDEN};

const SETTINGS: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Workers(2),
    Parallelism::Workers(4),
    Parallelism::Auto,
];

/// Asserts all seven products (plus ingestion itself) of `got` equal
/// the serial reference.
fn assert_products_eq(reference: &Analysis, got: &Analysis, what: &str) {
    assert_eq!(got.events(), reference.events(), "{what}: events");
    assert_eq!(got.loss(), reference.loss(), "{what}: loss");
    assert_eq!(got.intervals(), reference.intervals(), "{what}: intervals");
    assert_eq!(got.stats(), reference.stats(), "{what}: stats");
    assert_eq!(got.timeline(), reference.timeline(), "{what}: timeline");
    assert_eq!(got.occupancy(), reference.occupancy(), "{what}: occupancy");
    assert_eq!(got.phases(), reference.phases(), "{what}: phases");
    assert_eq!(got.index(), reference.index(), "{what}: index");
    assert_eq!(got.lint(), reference.lint(), "{what}: lint");
}

/// One-shot ingest's own output: the event columns and their parameter
/// dictionary size (ids are assigned in stream order, never in decode
/// order).
fn assert_ingest_eq(reference: &Analysis, got: &Analysis, what: &str) {
    let (want, have) = (&reference.columns().events, &got.columns().events);
    assert_eq!(have, want, "{what}: columns");
    assert_eq!(have.dict_len(), want.dict_len(), "{what}: dict_len");
}

/// One-shot path: every parallelism setting, run twice each, must
/// reproduce the serial ingest and products exactly on every golden
/// trace.
#[test]
fn products_identical_across_parallelism_and_repeats() {
    for name in GOLDEN {
        let trace = golden(name);
        let reference = Analysis::of(&trace)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        reference.build_products(Parallelism::Serial);

        for par in SETTINGS {
            for rep in 0..2 {
                let a = Analysis::of(&trace).parallelism(par).run().unwrap();
                let what = format!("{name} {par:?} rep{rep}");
                assert_ingest_eq(&reference, &a, &what);
                a.build_products(par);
                assert_products_eq(&reference, &a, &what);
            }
        }
    }
}

/// One-shot v2 path: the direct decoder's columns, loss report and
/// codec counters are identical at every parallelism setting.
#[test]
fn v2_ingest_identical_across_parallelism() {
    for name in GOLDEN {
        let packed = pack(&golden(name), DEFAULT_BLOCK_RECORDS);
        let (reference, ref_stats) = analyze_v2(&packed, Parallelism::Serial).unwrap();
        for par in SETTINGS {
            let (a, stats) = analyze_v2(&packed, par).unwrap();
            let what = format!("{name} v2 {par:?}");
            assert_ingest_eq(&reference, &a, &what);
            assert_eq!(a.loss(), reference.loss(), "{what}: loss");
            assert_eq!(stats, ref_stats, "{what}: codec stats");
        }
    }
}

/// Streaming path: chunked image ingestion under every parallelism
/// setting must land on the same snapshot products as the serial
/// one-shot analysis.
#[test]
fn streamed_products_identical_across_parallelism() {
    for name in GOLDEN {
        let trace = golden(name);
        let image = trace.to_bytes();
        let reference = Analysis::of(&trace)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        reference.build_products(Parallelism::Serial);

        for par in SETTINGS {
            let mut ing = ImageIngest::new().with_parallelism(par);
            for piece in image.chunks(4096) {
                ing.push(piece).unwrap();
            }
            ing.finish().unwrap();
            let snap = ing.snapshot().unwrap();
            snap.build_products(par);
            assert_products_eq(&reference, &snap, &format!("{name} streamed {par:?}"));
        }
    }
}

/// Re-building products on an already-warm session is a no-op: the
/// memoized products never flip, whatever setting asks again.
#[test]
fn warm_sessions_are_stable_under_rebuilds() {
    let trace = golden("stream_racy.pdt");
    let a = Analysis::of(&trace)
        .parallelism(Parallelism::Workers(4))
        .run()
        .unwrap();
    a.build_products(Parallelism::Workers(4));
    let lint_before = a.lint().diagnostics.len();
    let intervals_before = a.intervals().to_vec();
    for par in SETTINGS {
        a.build_products(par);
    }
    assert_eq!(a.lint().diagnostics.len(), lint_before);
    assert_eq!(a.intervals(), intervals_before.as_slice());
}
