//! Golden-trace differential suite for the columnar product pipeline:
//! every derived product built by an [`Analysis`] session — off the
//! columnar event store, serially or via `build_products` — must be
//! identical to the product the untouched row-oriented free functions
//! compute from the same ingestion. Runs over the full seeded corpus,
//! including the fault-injected and racy traces.

use ta::{analyze_lossy, build_intervals, dma_occupancy, user_phases, Analysis, Parallelism};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, GOLDEN};

/// Columnar products (built in parallel) equal the row-path products
/// on every golden trace.
#[test]
fn columnar_products_match_row_products_on_goldens() {
    for name in GOLDEN {
        let trace = golden(name);
        let (rows, loss) = analyze_lossy(&trace);

        let a = Analysis::of(&trace)
            .parallelism(Parallelism::Workers(2))
            .run()
            .unwrap();
        a.build_products(Parallelism::Workers(4));

        // The materialize-on-demand rows are byte-identical to the
        // direct row ingestion.
        assert_eq!(a.events(), rows.events.as_slice(), "{name}: events");
        assert_eq!(a.loss(), &loss, "{name}: loss");

        // Each product equals its row-oriented oracle.
        let iv = build_intervals(&rows);
        assert_eq!(a.intervals(), iv.as_slice(), "{name}: intervals");
        assert_eq!(
            a.stats(),
            &ta::stats::compute_stats_with(&rows, &iv),
            "{name}: stats"
        );
        assert_eq!(
            a.timeline(),
            ta::timeline::build_timeline_with(&rows, &iv),
            "{name}: timeline"
        );
        assert_eq!(
            a.occupancy(),
            dma_occupancy(&rows).as_slice(),
            "{name}: occupancy"
        );
        assert_eq!(a.phases(), &user_phases(&rows), "{name}: phases");
        assert_eq!(
            a.index(),
            &ta::index::TraceIndex::build(&rows, &iv, &loss),
            "{name}: index"
        );
    }
}

/// `build_products` at several worker counts returns the same
/// products as plain serial accessor calls on a separate session.
#[test]
fn parallel_and_serial_sessions_agree_on_goldens() {
    for name in GOLDEN {
        let trace = golden(name);
        let serial = Analysis::of(&trace).run().unwrap();
        for workers in [1usize, 2, 4] {
            let parallel = Analysis::of(&trace).run().unwrap();
            parallel.build_products(Parallelism::Workers(workers));
            assert_eq!(parallel.intervals(), serial.intervals(), "{name}@{workers}");
            assert_eq!(parallel.stats(), serial.stats(), "{name}@{workers}");
            assert_eq!(parallel.timeline(), serial.timeline(), "{name}@{workers}");
            assert_eq!(parallel.occupancy(), serial.occupancy(), "{name}@{workers}");
            assert_eq!(parallel.phases(), serial.phases(), "{name}@{workers}");
            assert_eq!(parallel.index(), serial.index(), "{name}@{workers}");
            assert_eq!(parallel.lint(), serial.lint(), "{name}@{workers}");
        }
    }
}
