//! # bench — the benchmark harness
//!
//! Regenerates every table and figure of the reconstructed evaluation
//! (experiments E1–E10; see `DESIGN.md` for the index and
//! `EXPERIMENTS.md` for the measured results). The `experiments`
//! binary drives [`exp::run_all`]; Criterion micro-benchmarks of the
//! simulator and trace machinery live under `benches/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chart;
pub mod exp;
pub mod runner;

pub use chart::{line_chart, ChartOptions, Series};
pub use exp::{run_all, run_one, ExperimentOutput};
pub use runner::{
    bench_json, overhead_pair, pct, peak_rss_kb, repo_root, reset_peak_rss_kb, write_bench_json,
    BenchRecord, OverheadPair, Scale, Table,
};
