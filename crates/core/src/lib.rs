//! # pdt — the Performance Debugging Tool
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Trace-based Performance Analysis on Cell BE* (Biberstein et al.,
//! ISPASS 2008): an event-tracing infrastructure for Cell applications
//! that records significant runtime events — DMA issue and completion
//! waits, mailbox and signal traffic, context lifecycle and
//! user-defined events — while preserving per-core sequential order,
//! core assignment and relative timing.
//!
//! Architecture (mirroring the shipped PDT):
//!
//! - **Event schema** ([`event`], [`group`]): every instrumentation
//!   point has a stable [`EventCode`] in an [`EventGroup`]; groups are
//!   enabled per session through a [`GroupMask`].
//! - **SPE tracing** ([`spe_tracer`], [`buffer`]): events are recorded
//!   into a small double-buffered trace buffer in each SPE's local
//!   store, timestamped with the SPU decrementer, and flushed to main
//!   memory with real DMA transfers riding the ordinary MFC/EIB path.
//!   Recording charges SPU cycles per the [`OverheadModel`], so tracing
//!   perturbation *emerges* from the simulation.
//! - **PPE tracing** ([`ppe_tracer`]): PPE events are timestamped with
//!   the timebase and buffered in main memory; `PpeCtxRun` records
//!   carry the decrementer/timebase synchronization the analyzer needs.
//! - **Trace file** ([`mod@format`], [`record`]): a binary format with
//!   per-core streams of 16-byte-granular records plus the context
//!   name table.
//! - **Session** ([`session`]): installs tracers into a
//!   [`cellsim::Machine`] and collects the trace after the run.
//!
//! ## Example
//!
//! ```
//! use cellsim::{Machine, MachineConfig, PpeThreadId, SpmdDriver, SpeJob, SpuScript, SpuAction};
//! use pdt::{TraceSession, TracingConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new(MachineConfig::default().with_num_spes(1))?;
//! let session = TraceSession::install(TracingConfig::default(), &mut machine)?;
//! machine.set_ppe_program(
//!     PpeThreadId::new(0),
//!     Box::new(SpmdDriver::new(vec![SpeJob::new(
//!         "kernel",
//!         Box::new(SpuScript::new(vec![SpuAction::Compute(10_000)])),
//!     )])),
//! );
//! machine.run()?;
//! let trace = session.collect(&machine);
//! assert!(trace.total_bytes() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod config;

/// Marker conventions for user events.
///
/// Applications bracket logical phases by emitting user events whose
/// first payload word (`a0`) carries one of these markers; the trace
/// analyzer's `phases` module pairs them into named intervals.
pub mod markers {
    /// `a0` value opening a user phase.
    pub const PHASE_BEGIN: u64 = 1;
    /// `a0` value closing a user phase.
    pub const PHASE_END: u64 = 2;

    /// User-event id that suspends SPE-side tracing (the
    /// `pdt_trace_disable` API): subsequent events on that SPE pay
    /// only the mask check and record nothing until re-enabled. The
    /// control events themselves are always recorded so the analyzer
    /// can see the gap.
    pub const TRACE_DISABLE_ID: u32 = 0xffff_ff00;
    /// User-event id that resumes SPE-side tracing
    /// (`pdt_trace_enable`).
    pub const TRACE_ENABLE_ID: u32 = 0xffff_ff01;
}

pub mod event;
pub mod format;
pub mod group;
pub mod overhead;
pub mod ppe_tracer;
pub mod record;
pub mod session;
pub mod sink;
pub mod spe_tracer;
pub mod v2;

pub use buffer::{BufferStats, SpeTraceBuffer, WriteOutcome};
pub use config::{TracingConfig, TracingConfigError, TracingConfigRepr};
pub use event::{encode_event, EncodedEvent, EventCode};
pub use format::{
    FormatError, ImageLayout, StreamMeta, TraceFile, TraceHeader, TraceStream, HEADER_BYTES, MAGIC,
    VERSION,
};
pub use group::{EventGroup, GroupMask};
pub use overhead::OverheadModel;
pub use ppe_tracer::PdtPpeTracer;
pub use record::{
    check_in_stream, decode_stream, decode_stream_lossy, granules_for, ChunkScan, DecodeGap,
    LossyCursor, LossyDecode, RecordError, RecordRef, RecordScan, TraceCore, TraceRecord,
    DEFAULT_WRAP_TOLERANCE, MAX_PARAMS,
};
pub use session::TraceSession;
pub use spe_tracer::PdtSpeTracer;
pub use v2::{
    pack, unpack, Anchoring, BlockEntry, BlockIter, BlockKind, BlockPrefix, CodecStats, SyncAnchor,
    Truncation, V2Error, V2File, V2StreamMeta, V2Writer, DEFAULT_BLOCK_RECORDS, MAGIC2, VERSION2,
};
