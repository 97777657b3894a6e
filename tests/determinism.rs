//! Scheduler-determinism suite: every derived product must be
//! byte-identical whatever [`Parallelism`] drives the shard fan-out
//! — `Serial`, `Workers(2)`, `Workers(4)`, `Auto` — and across
//! repeated runs under the same setting. Runs over the full golden
//! corpus, including the fault-injected and racy traces, through both
//! the one-shot `Analysis` path and the streaming `ImageIngest` path.
//!
//! This is the differential oracle for the shard-task decomposition:
//! per-SPE interval shards, per-rule×per-shard lint sweeps, and
//! per-core index blocks may execute in any order on any worker, but
//! the assembled products must not depend on that order.

use ta::{Analysis, ImageIngest, Parallelism};

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

/// One-shot path: every parallelism setting, run twice each, must
/// reproduce the serial products exactly on every golden trace.
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
                a.build_products(par);
                assert_products_eq(&reference, &a, &format!("{name} {par:?} rep{rep}"));
            }
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
