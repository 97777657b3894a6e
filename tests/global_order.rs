//! The global event order is a view built on demand: the per-core
//! requests (`ta-cli summary`, `query --summary`, `timeline --svg`,
//! whole or windowed) never build it, and the global-order consumers
//! (`lint`, the events listing) build it exactly once per session, on
//! every golden, in both containers, at every parallelism. (A damaged
//! `.pdt2` stream is read again by the same one-shot decoder, whose
//! finish step lays the streams out core-major like every other load,
//! so it builds the order once too.)

use std::sync::Arc;

use ta::{analyze_v2, Analysis, EventFilter, Parallelism, RenderOptions, ReportKind};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, golden_v2_bytes, GOLDEN};

/// Every golden's `.pdt` and `.pdt2` sessions at `par`.
fn sessions(par: Parallelism) -> Vec<(String, Arc<Analysis>)> {
    let mut out = Vec::new();
    for name in GOLDEN {
        let a = Analysis::of(&golden(name)).parallelism(par).run().unwrap();
        out.push((name.to_string(), Arc::new(a)));
        let (a, _) = analyze_v2(&golden_v2_bytes(name), par).unwrap();
        out.push((format!("{name}2"), a));
    }
    out
}

#[test]
fn per_core_requests_build_no_order_and_listings_build_it_once() {
    for par in [Parallelism::Serial, Parallelism::Workers(2)] {
        for (name, a) in sessions(par) {
            let builds = || a.columns().order_builds();
            // ta-cli summary
            let _ = a.summary();
            // ta-cli query --from --to --summary
            let (s, e) = (a.index().start_tb(), a.index().end_tb());
            let (t0, t1) = (s + (e - s) / 2, s + (e - s) / 2 + (e - s) / 100);
            let _ = a.summarize(t0, t1);
            // ta-cli timeline --svg, whole and windowed
            for opts in [
                RenderOptions::default(),
                RenderOptions::default().with_window(t0, t1),
            ] {
                (a.write_report(ReportKind::Svg, &opts, &mut std::io::sink())).unwrap();
            }
            assert_eq!(builds(), 0, "{name} {par:?}: per-core requests");

            // ta-cli lint, then ta-cli events and a listing query.
            let _ = a.lint().to_sarif();
            assert_eq!(builds(), 1, "{name} {par:?}: lint");
            a.write_report(
                ReportKind::Csv,
                &RenderOptions::default(),
                &mut std::io::sink(),
            )
            .unwrap();
            let _ = a.query(&EventFilter::new().in_window(s, e));
            assert_eq!(builds(), 1, "{name} {par:?}: lint, events and query");
        }
    }
}
