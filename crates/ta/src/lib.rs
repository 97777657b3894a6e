//! # ta — the Trace Analyzer
//!
//! The second half of the reproduced paper's contribution: a reader
//! and visualizer for PDT traces. The analyzer never talks to the
//! simulator — it works from trace bytes alone, exactly like the
//! original tool working from trace files shipped off a Cell blade.
//!
//! Pipeline:
//!
//! 1. [`session`] — the front door: [`Analysis`] ingests a trace once
//!    and memoizes every derived product behind typed accessors.
//! 2. Ingestion decodes the per-core streams straight out of the trace
//!    bytes, reconstructs global time from decrementer snapshots + the
//!    `PpeCtxRun` sync records (wrap-safe), one shard per SPE stream,
//!    and lays the per-stream runs out core-major in the columnar
//!    store ([`ColumnarTrace`]); the global order is built on demand.
//!    The
//!    serial row path in [`mod@analyze`] is the reference it matches
//!    byte for byte; [`mod@parallel`] keeps the row-returning wrappers.
//! 3. [`reader`] — zero-copy views of serialized trace images.
//! 4. [`intervals`] — turn begin/end event pairs into activity
//!    intervals (compute / DMA wait / mailbox wait / signal wait).
//! 5. [`stats`] — per-SPE utilization and wait breakdowns, DMA traffic
//!    and observed-latency statistics, event counts.
//! 6. [`timeline`] + [`svg`] / [`ascii`] — the Gantt views.
//! 7. [`csv`], [`query`] — export and filtering.
//! 8. [`mod@validate`] — fidelity checks against simulator ground truth.
//! 9. [`mod@lint`] — rule-based static analysis over the reconstructed
//!    trace: DMA races, tag-group misuse, mailbox deadlock shapes and
//!    more, as structured event-anchored diagnostics.
//!
//! ## Example
//!
//! ```
//! use cellsim::{Machine, MachineConfig, PpeThreadId, SpmdDriver, SpeJob, SpuScript, SpuAction};
//! use pdt::{TraceSession, TracingConfig};
//! use ta::Analysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new(MachineConfig::default().with_num_spes(1))?;
//! let session = TraceSession::install(TracingConfig::default(), &mut machine)?;
//! machine.set_ppe_program(
//!     PpeThreadId::new(0),
//!     Box::new(SpmdDriver::new(vec![SpeJob::new(
//!         "kernel",
//!         Box::new(SpuScript::new(vec![SpuAction::Compute(100_000)])),
//!     )])),
//! );
//! machine.run()?;
//! let trace = session.collect(&machine);
//!
//! let analysis = Analysis::of(&trace).parallelism(ta::Parallelism::Workers(4)).run()?;
//! let svg = analysis.svg(&ta::SvgOptions::default());
//! assert!(svg.contains("</svg>"));
//! assert_eq!(analysis.stats().spes.len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Incremental ingest
//!
//! For traces that arrive incrementally — a file still being written,
//! a socket — use [`IngestSession`] / [`ImageIngest`] from
//! [`mod@stream`]: append byte chunks as they land and take immutable
//! [`Analysis`] snapshots at any point.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod ascii;
pub mod causality;
pub mod columns;
pub mod compare;
pub mod csv;
pub mod exec;
pub mod faults;
pub mod hb;
pub mod histogram;
pub mod html;
pub mod index;
pub mod intervals;
pub mod lint;
pub mod loss;
pub mod occupancy;
mod oneshot;
mod overlay;
pub mod parallel;
pub mod phases;
pub mod query;
pub mod reader;
pub mod report;
pub mod session;
pub mod stats;
pub mod stream;
pub mod summary;
pub mod svg;
pub mod timeline;
pub mod v2read;
pub mod validate;

pub use analyze::{analyze, analyze_lossy, AnalyzeError, AnalyzedTrace, GlobalEvent, SpeAnchor};
pub use causality::{
    align_clocks, estimate_skew, sync_edges_columns, violations, CausalEdge, EdgeKind,
    SkewEstimate, Violation,
};
pub use columns::{ColumnarTrace, EventColumns, EventView, Interner, Sym};
pub use compare::{compare_traces, Comparison, SpeDelta};
pub use exec::{ExecStats, Parallelism};
pub use faults::{FaultInjector, FaultKind, InjectedFault};
pub use hb::{event_clocks, Access, AccessDir, ClockTable, HbIndex, RaceWitness, Space, VecClock};
pub use histogram::Log2Histogram;
pub use index::{SuspectRange, TraceIndex, WindowActivity, WindowSummary};
pub use intervals::{build_intervals, ActivityKind, Interval, SpeIntervals};
#[cfg(feature = "scan-oracle")]
pub use lint::dma_race_window_heuristic;
pub use lint::{
    lint_columns, lint_trace, Anchor, ConfigError, Diagnostic, Lint, LintConfig, LintContext,
    LintReport, RuleInfo, Severity, Suppression,
};
pub use loss::{DecodePolicy, LossReport, StreamLoss};
pub use occupancy::{dma_occupancy, OccupancyStep, SpeOccupancy};
pub use parallel::{analyze_parallel, analyze_parallel_lossy};
pub use phases::{user_phases, PhaseReport, UserPhase};
pub use query::EventFilter;
pub use reader::{ImageStream, MappedImage, TraceImage};
pub use report::{
    AsciiReport, CsvReport, CsvTable, HtmlReport, RenderOptions, Report, ReportKind, SvgReport,
};
pub use session::{Analysis, AnalysisBuilder};
pub use stats::{compute_stats, DmaSummary, EventCounts, SpeActivity, TraceStats};
pub use stream::{ImageIngest, IngestSession, StreamId};
pub use svg::SvgOptions;
pub use timeline::{Lane, Marker, Timeline};
pub use v2read::{analyze_v2, is_v2_image, V2Trace, WindowQuery};
pub use validate::{rel_err, validate, SpeValidation, ValidationReport};
