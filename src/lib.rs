//! # cell-pdt — trace-based performance analysis on a simulated Cell BE
//!
//! Umbrella crate for the reproduction of *Trace-based Performance
//! Analysis on Cell BE* (Biberstein et al., ISPASS 2008). It re-exports
//! the four component crates:
//!
//! - [`cellsim`] — the cycle-approximate Cell Broadband Engine
//!   simulator substrate (PPE, SPEs, MFC DMA, EIB, mailboxes, signals,
//!   decrementers);
//! - [`pdt`] — the Performance Debugging Tool: event tracing with
//!   local-store buffers, DMA flushing and an emergent overhead model;
//! - [`ta`] — the Trace Analyzer: timestamp reconstruction, activity
//!   intervals, statistics, SVG/ASCII timelines;
//! - [`workloads`] — verified Cell applications (matmul, FFT,
//!   streaming, pipeline, sparse) plus microbenchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use cell_pdt::prelude::*;
//!
//! # fn main() -> Result<(), cell_pdt::Error> {
//! // Build a 2-SPE machine and attach a PDT tracing session.
//! let mut machine = Machine::new(MachineConfig::default().with_num_spes(2))?;
//! let session = TraceSession::install(TracingConfig::default(), &mut machine)?;
//!
//! // Run a verified workload.
//! let workload = StreamWorkload::new(StreamConfig {
//!     blocks: 8,
//!     spes: 2,
//!     ..StreamConfig::default()
//! });
//! let driver = workload.stage(&mut machine);
//! machine.set_ppe_program(PpeThreadId::new(0), driver);
//! machine.run()?;
//! workload.verify(&machine)?;
//!
//! // Analyze the trace the PDT collected: one columnar ingestion,
//! // memoized products behind the session's accessors.
//! let trace = session.collect(&machine);
//! let analysis = Analysis::of(&trace).run()?;
//! assert_eq!(analysis.stats().spes.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;

pub use cellsim;
pub use pdt;
pub use ta;
pub use workloads;

pub use error::Error;

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use crate::Error;
    pub use cellsim::{
        CoreId, Machine, MachineConfig, PpeAction, PpeProgram, PpeThreadId, PpeWake, SpeId, SpeJob,
        SpmdDriver, SpuAction, SpuProgram, SpuScript, SpuWake, TagId, TagWaitMode,
    };
    pub use pdt::{EventGroup, GroupMask, TraceCore, TraceFile, TraceSession, TracingConfig};
    pub use ta::{
        analyze, build_intervals, compute_stats, validate, ActivityKind, Analysis, AnalysisBuilder,
        CsvTable, DecodePolicy, EventFilter, FaultInjector, FaultKind, ImageIngest, IngestSession,
        LossReport, MappedImage, Parallelism, RenderOptions, Report, ReportKind, SvgOptions,
        TraceImage,
    };
    pub use workloads::{
        run_workload, Buffering, DmaSweepConfig, DmaSweepWorkload, EventRateConfig,
        EventRateWorkload, FftConfig, FftWorkload, MatmulConfig, MatmulWorkload, PipelineConfig,
        PipelineWorkload, Schedule, SparseConfig, SparseWorkload, StencilConfig, StencilWorkload,
        StreamConfig, StreamWorkload, Workload,
    };
}
