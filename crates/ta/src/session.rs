//! The analysis session: one ingestion, every product.
//!
//! [`Analysis`] is the analyzer's front door. It owns a reconstructed
//! trace and memoizes every derived product — intervals, statistics,
//! timeline, DMA occupancy, user phases — so each is computed at most
//! once per session no matter how many views ask for it. Ingestion
//! decodes the trace's streams straight into the core-major columnar
//! store (the one-shot placement shared with the v2 reader), with
//! output identical to the serial row path; the global event order is
//! built only when a product or listing asks for it.
//!
//! ```
//! use cellsim::{Machine, MachineConfig, PpeThreadId, SpmdDriver, SpeJob, SpuScript, SpuAction};
//! use pdt::{TraceSession, TracingConfig};
//! use ta::Analysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new(MachineConfig::default().with_num_spes(2))?;
//! let session = TraceSession::install(TracingConfig::default(), &mut machine)?;
//! machine.set_ppe_program(
//!     PpeThreadId::new(0),
//!     Box::new(SpmdDriver::new(vec![
//!         SpeJob::new("a", Box::new(SpuScript::new(vec![SpuAction::Compute(50_000)]))),
//!         SpeJob::new("b", Box::new(SpuScript::new(vec![SpuAction::Compute(80_000)]))),
//!     ])),
//! );
//! machine.run()?;
//! let trace = session.collect(&machine);
//!
//! let analysis = Analysis::of(&trace).parallelism(ta::Parallelism::Workers(4)).run()?;
//! assert_eq!(analysis.stats().spes.len(), 2);
//! assert!(analysis.svg(&ta::SvgOptions::default()).contains("</svg>"));
//! # Ok(())
//! # }
//! ```

use std::sync::{Arc, OnceLock};

use crate::analyze::{AnalyzeError, AnalyzedTrace, GlobalEvent};
use crate::causality::{ranked_sync_edges, sync_edges_store, CausalEdge};
use crate::columns::ColumnarTrace;
use crate::exec::{self, Parallelism};
use crate::index::{TraceIndex, WindowSummary};
use crate::intervals::{build_spe_intervals_columns, SpeIntervals};
use crate::lint::{lint_columns_sharded_with_edges, LintConfig, LintReport};
use crate::loss::{DecodePolicy, LossReport};
use crate::occupancy::{dma_occupancy_columns, dma_occupancy_columns_par, SpeOccupancy};
use crate::oneshot;
use crate::overlay::Overlay;
use crate::phases::{user_phases_columns, PhaseReport};
use crate::query::EventFilter;
use crate::reader::TraceImage;
use crate::report::{RenderOptions, ReportKind};
use crate::stats::{compute_stats_columns_par, TraceStats};
use crate::stats::{DmaMatcher, DmaSummary};
use crate::summary::render_summary_with;
use crate::svg::SvgOptions;
use crate::timeline::{build_timeline_columns, build_timeline_where, Timeline};

use pdt::TraceCore;

/// Configures and launches an [`Analysis`]; created by
/// [`Analysis::of`].
#[derive(Debug)]
pub struct AnalysisBuilder<'t> {
    image: TraceImage<'t>,
    par: Parallelism,
    filter: Option<EventFilter>,
    policy: DecodePolicy,
}

impl AnalysisBuilder<'_> {
    /// Sets the session's concurrency: the [`Parallelism`] ingestion
    /// decodes the SPE streams with and its products are built with.
    /// Defaults to [`Parallelism::Auto`] (the machine's available
    /// parallelism).
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Restricts the session to events passing `filter`. Applied after
    /// timestamp reconstruction, before any product is derived, so
    /// every accessor sees the filtered view.
    pub fn filter(mut self, filter: EventFilter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Aborts the analysis on the first malformed record instead of
    /// resynchronizing past it (the pre-loss-accounting behavior).
    pub fn strict(mut self) -> Self {
        self.policy = DecodePolicy::Strict;
        self
    }

    /// Resynchronizes past corrupt records and quantifies what was
    /// skipped in the session's [`LossReport`]. This is the default.
    pub fn lossy(mut self) -> Self {
        self.policy = DecodePolicy::Lossy;
        self
    }

    /// Ingests the trace and returns the session.
    ///
    /// # Errors
    ///
    /// Under the default [lossy](Self::lossy) policy, corruption
    /// becomes decode gaps in the session's [`LossReport`], so only a
    /// file-backed image whose streams cannot be read fails
    /// ([`AnalyzeError::Read`]).
    /// Under [`strict`](Self::strict) it returns [`AnalyzeError`] on
    /// corrupt records or missing sync anchors — the same errors, in
    /// the same precedence, as the serial
    /// [`analyze`](crate::analyze::analyze).
    pub fn run(self) -> Result<Analysis, AnalyzeError> {
        let (mut columns, loss) = oneshot::ingest(&self.image, self.policy, self.par)?;
        if let Some(f) = &self.filter {
            columns.retain_views(|v| f.matches_view(v));
        }
        Ok(Analysis::from_shared(Arc::new(columns), loss, self.par))
    }
}

/// An analysis session over one trace: ingestion up front, memoized
/// products on demand.
///
/// Internally the session is columnar: ingestion writes a
/// [`ColumnarTrace`] (struct-of-arrays event columns plus a string
/// interner for context names), every derived product iterates those
/// shared columns, and the row-oriented
/// [`AnalyzedTrace`] is materialized lazily only when an accessor
/// actually needs `&[GlobalEvent]` — so row-free workloads never pay
/// for per-event `Vec` allocations.
///
/// The columns sit behind an [`Arc`] so a streaming
/// [`IngestSession`](crate::stream::IngestSession) can hand out
/// `Analysis` snapshots that share the base store with the
/// ingestion side instead of copying it per epoch. A live-tail epoch
/// may instead hold a base store plus per-stream overlays: it answers
/// [`summarize`](Self::summarize) and
/// [`event_count`](Self::event_count) without merging, and merges once,
/// on first use, for everything else.
#[derive(Debug)]
pub struct Analysis {
    store: Store,
    rows: OnceLock<AnalyzedTrace>,
    loss: LossReport,
    par: Parallelism,
    intervals: OnceLock<Arc<[SpeIntervals]>>,
    stats: OnceLock<TraceStats>,
    timeline: OnceLock<Timeline>,
    occupancy: OnceLock<Vec<SpeOccupancy>>,
    phases: OnceLock<PhaseReport>,
    index: OnceLock<Arc<TraceIndex>>,
    store_edges: OnceLock<Vec<CausalEdge>>,
    sync_edges: OnceLock<Vec<CausalEdge>>,
    lint: OnceLock<LintReport>,
}

/// Where an [`Analysis`] gets its events.
#[derive(Debug)]
enum Store {
    /// One globally ordered store.
    Columns(Arc<ColumnarTrace>),
    /// A live-tail epoch, merged on first use.
    Overlay(Box<Overlay>),
}

impl Analysis {
    /// Starts building an analysis of `trace`: a [`TraceImage`], in
    /// memory or read from a file, or a `&`[`TraceFile`](pdt::TraceFile),
    /// which lends its streams without copying them.
    pub fn of<'t>(trace: impl Into<TraceImage<'t>>) -> AnalysisBuilder<'t> {
        AnalysisBuilder {
            image: trace.into(),
            par: Parallelism::Auto,
            filter: None,
            policy: DecodePolicy::default(),
        }
    }

    /// Wraps an already-reconstructed trace in a session, so code
    /// holding an [`AnalyzedTrace`] (e.g. from the serial path) gets
    /// the memoized accessors too.
    pub fn from_analyzed(analyzed: AnalyzedTrace) -> Self {
        Self::from_columns(ColumnarTrace::from_rows(analyzed))
    }

    /// Wraps an already-built columnar store in a session — the
    /// zero-copy entry point for code that interns its own columns.
    pub fn from_columns(columns: ColumnarTrace) -> Self {
        Self::from_shared(
            Arc::new(columns),
            LossReport::default(),
            Parallelism::Serial,
        )
    }

    /// Wraps a shared columnar store: the snapshot entry point used by
    /// [`IngestSession`](crate::stream::IngestSession), which keeps the
    /// base store alive on its side of the `Arc`.
    pub(crate) fn from_shared(
        columns: Arc<ColumnarTrace>,
        loss: LossReport,
        par: Parallelism,
    ) -> Self {
        Self::from_store(Store::Columns(columns), loss, par)
    }

    /// Wraps a live-tail epoch: the
    /// [`IngestSession`](crate::stream::IngestSession)'s snapshot entry
    /// point while a stream is open.
    pub(crate) fn from_overlay(overlay: Overlay, loss: LossReport, par: Parallelism) -> Self {
        Self::from_store(Store::Overlay(Box::new(overlay)), loss, par)
    }

    fn from_store(store: Store, loss: LossReport, par: Parallelism) -> Self {
        Self {
            store,
            rows: OnceLock::new(),
            loss,
            par,
            intervals: OnceLock::new(),
            stats: OnceLock::new(),
            timeline: OnceLock::new(),
            occupancy: OnceLock::new(),
            phases: OnceLock::new(),
            index: OnceLock::new(),
            store_edges: OnceLock::new(),
            sync_edges: OnceLock::new(),
            lint: OnceLock::new(),
        }
    }

    /// Seeds the memoized query index (snapshot reuse of the
    /// incrementally maintained index). A no-op if already built.
    pub(crate) fn preset_index(&self, index: Arc<TraceIndex>) {
        let _ = self.index.set(index);
    }

    /// The reconstructed trace as rows. Materialized from the columns
    /// on first call and memoized; products never depend on it.
    pub fn analyzed(&self) -> &AnalyzedTrace {
        self.rows.get_or_init(|| self.columns().materialize())
    }

    /// The columnar event store every product is derived from. A
    /// live-tail epoch merges its overlays into it on first call.
    pub fn columns(&self) -> &ColumnarTrace {
        match &self.store {
            Store::Columns(c) => c,
            Store::Overlay(o) => o.columns(),
        }
    }

    /// Number of events, without merging a live-tail epoch.
    pub fn event_count(&self) -> usize {
        match &self.store {
            Store::Columns(c) => c.events.len(),
            Store::Overlay(o) => o.len(),
        }
    }

    /// Loss accounting from ingestion. Populated by the (default)
    /// lossy decode policy; empty under [`strict`](AnalysisBuilder::strict)
    /// or when the session was built from an [`AnalyzedTrace`].
    pub fn loss(&self) -> &LossReport {
        &self.loss
    }

    /// The globally ordered event list, materialized from the columns
    /// on first call (see [`analyzed`](Self::analyzed)).
    pub fn events(&self) -> &[GlobalEvent] {
        &self.analyzed().events
    }

    /// Per-SPE activity intervals (computed once, one shard per SPE
    /// under the session's [`Parallelism`], shared by
    /// [`stats`](Self::stats) and [`timeline`](Self::timeline)).
    pub fn intervals(&self) -> &[SpeIntervals] {
        self.lanes()
    }

    /// The memoized intervals, shared with the index.
    fn lanes(&self) -> &Arc<[SpeIntervals]> {
        self.intervals.get_or_init(|| {
            let spes = self.columns().spes();
            let lanes = exec::map_indexed(self.par, spes.len(), |i| {
                build_spe_intervals_columns(self.columns(), spes[i])
            });
            lanes.into_iter().flatten().collect()
        })
    }

    /// Per-SPE utilization, DMA traffic and event-count statistics,
    /// with the DMA observer's per-SPE shards under the session's
    /// [`Parallelism`].
    pub fn stats(&self) -> &TraceStats {
        self.stats
            .get_or_init(|| compute_stats_columns_par(self.columns(), self.intervals(), self.par))
    }

    /// The Gantt timeline model.
    pub fn timeline(&self) -> &Timeline {
        self.timeline
            .get_or_init(|| build_timeline_columns(self.columns(), self.intervals()))
    }

    /// Outstanding-DMA occupancy per SPE.
    pub fn occupancy(&self) -> &[SpeOccupancy] {
        self.occupancy
            .get_or_init(|| dma_occupancy_columns(self.columns()))
    }

    /// User-marked phase report.
    pub fn phases(&self) -> &PhaseReport {
        self.phases
            .get_or_init(|| user_phases_columns(self.columns()))
    }

    /// Builds every memoized product at the given [`Parallelism`] in
    /// two [`exec::map_indexed`] rounds, then returns the session for
    /// chaining.
    ///
    /// Round 1 runs the products that need only the columns (phases,
    /// occupancy) beside one interval shard per SPE; the lanes are then
    /// assembled in SPE order. Round 2 runs the interval-consuming
    /// products (index, lint, stats, timeline). Fan-outs inside a
    /// product run serially on its shard's thread, so the host is
    /// never oversubscribed. Every product is byte-identical to a
    /// serial build; calling any accessor afterwards returns the
    /// already-built value.
    pub fn build_products(&self, par: Parallelism) -> &Self {
        if par.workers() <= 1 {
            // The serial warm-up, in plain accessor order.
            let _ = self.intervals();
            let _ = self.index();
            let _ = self.lint();
            let _ = self.stats();
            let _ = self.timeline();
            let _ = self.occupancy();
            let _ = self.phases();
            return self;
        }
        // A streaming snapshot may have seeded the intervals already.
        let spes = match self.intervals.get() {
            Some(_) => Vec::new(),
            None => self.columns().spes(),
        };
        let lanes = exec::map_indexed(par, 2 + spes.len(), |i| match i {
            0 => {
                let _ = self.phases();
                None
            }
            1 => {
                let _ = self
                    .occupancy
                    .get_or_init(|| dma_occupancy_columns_par(self.columns(), par));
                None
            }
            _ => build_spe_intervals_columns(self.columns(), spes[i - 2]),
        });
        if self.intervals.get().is_none() {
            let _ = self.intervals.set(lanes.into_iter().flatten().collect());
        }
        exec::map_indexed(par, 4, |i| match i {
            0 => {
                let _ = self.index();
            }
            1 => {
                let _ = self.lint.get_or_init(|| {
                    lint_columns_sharded_with_edges(
                        self.columns(),
                        self.intervals(),
                        &self.loss,
                        self.store_edges(),
                        &LintConfig::default(),
                        par,
                    )
                });
            }
            2 => {
                let _ = self.stats.get_or_init(|| {
                    compute_stats_columns_par(self.columns(), self.intervals(), par)
                });
            }
            _ => {
                let _ = self.timeline();
            }
        });
        self
    }

    /// The query index: each core's segment of the store, searchable
    /// by time, and each SPE's intervals with a lane checkpoint per 64
    /// of them. O(cores + intervals) to build and hold, whatever the
    /// trace's time span; memoized like the other products.
    pub fn index(&self) -> &TraceIndex {
        self.index.get_or_init(|| {
            Arc::new(TraceIndex::build_columns(
                self.columns(),
                Arc::clone(self.lanes()),
                &self.loss,
            ))
        })
    }

    /// The trace's full synchronization-edge set (context starts,
    /// mailbox FIFO pairs, signal-notify pairs) with global-rank
    /// endpoints — see
    /// [`sync_edges_columns`](crate::causality::sync_edges_columns).
    /// Mapped from the lint runs' store-position set through the
    /// global order, which it builds on first call.
    pub fn sync_edges(&self) -> &[CausalEdge] {
        (self.sync_edges).get_or_init(|| ranked_sync_edges(self.columns(), self.store_edges()))
    }

    /// The synchronization-edge set with store positions for endpoints,
    /// extracted without the global order once per snapshot and shared
    /// by every lint run, so re-linting (or linting after streaming
    /// appends) never re-derives the pairings.
    fn store_edges(&self) -> &[CausalEdge] {
        (self.store_edges).get_or_init(|| sync_edges_store(self.columns(), &self.loss))
    }

    /// Runs the default lint rule registry with the default
    /// [`LintConfig`], memoized like the other products. The rules see
    /// the session's memoized intervals, its memoized sync edges (in
    /// store positions: lint builds no global order) and its ingestion
    /// [`LossReport`], so diagnostics anchored in damaged regions are
    /// downgraded to suspect rather than reported firm. Rule shards run
    /// under the session's [`Parallelism`].
    pub fn lint(&self) -> &LintReport {
        self.lint
            .get_or_init(|| self.lint_with(&LintConfig::default()))
    }

    /// Runs the lint rules with a caller-provided configuration
    /// (baseline suppressions, allow/deny lists, thresholds) under the
    /// session's [`Parallelism`]. Not memoized — each call re-runs the
    /// rules with `config` (the sync-edge extraction is still shared
    /// between runs).
    pub fn lint_with(&self, config: &LintConfig) -> LintReport {
        lint_columns_sharded_with_edges(
            self.columns(),
            self.intervals(),
            &self.loss,
            self.store_edges(),
            config,
            self.par,
        )
    }

    /// Applies `filter` through the [index](Self::index): window
    /// bounds resolve by binary search over the globally ordered rows.
    /// Result order and content are identical to a linear scan.
    pub fn query(&self, filter: &EventFilter) -> Vec<&GlobalEvent> {
        self.index().query(self.analyzed(), filter)
    }

    /// Exact aggregate of the half-open window `[start_tb, end_tb)`:
    /// per-core event counts, per-SPE activity occupancy and the
    /// gap-suspicion flag, resolved by two binary searches per core
    /// segment and two lane checkpoint differences per SPE. Never
    /// builds the global order.
    pub fn summarize(&self, start_tb: u64, end_tb: u64) -> WindowSummary {
        match &self.store {
            Store::Overlay(o) => o.summarize(start_tb, end_tb),
            Store::Columns(c) => self.index().summarize(c, start_tb, end_tb),
        }
    }

    /// Every SPE's activity intervals clipped to `[start_tb, end_tb)`
    /// by binary search over the index's lanes — identical to
    /// [`SpeIntervals::clip`] on the full sets.
    pub fn intervals_window(&self, start_tb: u64, end_tb: u64) -> Vec<SpeIntervals> {
        self.index().clip_all(start_tb, end_tb)
    }

    /// The timeline model restricted to `[start_tb, end_tb)`: the same
    /// lane set as [`timeline`](Self::timeline), with segments clipped
    /// and markers extracted by binary search.
    pub fn timeline_window(&self, start_tb: u64, end_tb: u64) -> Timeline {
        build_timeline_where(self.columns(), self.index(), start_tb, end_tb)
    }

    /// Outstanding-DMA occupancy restricted to `[start_tb, end_tb)`,
    /// derived from the memoized full series by binary search with a
    /// carry-in step at the window start.
    pub fn occupancy_window(&self, start_tb: u64, end_tb: u64) -> Vec<SpeOccupancy> {
        self.occupancy()
            .iter()
            .map(|o| o.window(start_tb, end_tb))
            .collect()
    }

    /// DMA traffic observed within `[start_tb, end_tb)`: commands
    /// issued in the window, completions only when the covering tag
    /// wait also falls inside it. Each SPE's window is a binary search
    /// over its segment.
    pub fn dma_window(&self, start_tb: u64, end_tb: u64) -> DmaSummary {
        let idx = self.index();
        let cols = self.columns();
        let mut m = DmaMatcher::default();
        for spe in cols.spes() {
            m.next_spe();
            for i in idx.core_range_in(cols, TraceCore::Spe(spe), start_tb, end_tb) {
                let v = cols.events.view(i);
                m.observe(v.time_tb, v.code, v.params);
            }
        }
        m.finish()
    }

    /// Writes the session through the unified [`Report`] interface —
    /// the front door to all four exporters — to `out`, as the
    /// exporter produces it. The only errors are the sink's.
    ///
    /// [`Report`]: crate::report::Report
    pub fn write_report(
        &self,
        kind: ReportKind,
        opts: &RenderOptions,
        out: &mut dyn std::io::Write,
    ) -> std::io::Result<()> {
        kind.report().write(self, opts, out)
    }

    /// Renders the session to a `String`: what
    /// [`write_report`](Self::write_report) writes, collected.
    pub fn render(&self, kind: ReportKind, opts: &RenderOptions) -> String {
        let mut out = Vec::new();
        // Writing into a `Vec` cannot fail, and every exporter writes
        // UTF-8, so the lossy branch is never taken.
        let _ = self.write_report(kind, opts, &mut out);
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Renders the timeline as SVG. Convenience for
    /// [`render`](Self::render) with [`ReportKind::Svg`].
    pub fn svg(&self, opts: &SvgOptions) -> String {
        self.render(ReportKind::Svg, &RenderOptions::default().with_svg(*opts))
    }

    /// Renders the timeline as ASCII art, `width` columns wide.
    /// Convenience for [`render`](Self::render) with
    /// [`ReportKind::Ascii`].
    pub fn ascii(&self, width: usize) -> String {
        self.render(
            ReportKind::Ascii,
            &RenderOptions::default().with_ascii_width(width),
        )
    }

    /// Renders the plain-text summary report, including the loss
    /// section when loss accounting ran.
    pub fn summary(&self) -> String {
        render_summary_with(self.columns(), self.stats(), Some(&self.loss))
    }

    /// Renders the standalone HTML report. Convenience for
    /// [`render`](Self::render) with [`ReportKind::Html`].
    pub fn html(&self, title: &str) -> String {
        self.render(
            ReportKind::Html,
            &RenderOptions::default()
                .with_title(title)
                .with_svg(SvgOptions {
                    width: 1100,
                    ..SvgOptions::default()
                }),
        )
    }

    /// Consumes the session, returning the reconstructed trace (the
    /// memoized row materialization when one exists, otherwise a fresh
    /// one).
    pub fn into_analyzed(mut self) -> AnalyzedTrace {
        match self.rows.take() {
            Some(rows) => rows,
            None => self.columns().materialize(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::intervals::build_intervals;
    use crate::stats::compute_stats;
    use crate::timeline::build_timeline;
    use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream, VERSION};

    fn trace(spes: u8) -> TraceFile {
        let mut ppe = Vec::new();
        for spe in 0..spes {
            TraceRecord {
                core: TraceCore::Ppe(0),
                code: EventCode::PpeCtxRun,
                timestamp: 100 + spe as u64,
                params: vec![spe as u64, spe as u64, u32::MAX as u64],
            }
            .encode_into(&mut ppe);
        }
        let mut streams = vec![TraceStream {
            core: TraceCore::Ppe(0),
            bytes: ppe,
            dropped: 0,
        }];
        for spe in 0..spes {
            let mut bytes = Vec::new();
            let mut dec = u32::MAX;
            for (code, step, params) in [
                (EventCode::SpeCtxStart, 0u32, vec![spe as u64]),
                (EventCode::SpeDmaGet, 500, vec![0x1000, 0x100000, 4096, 1]),
                (EventCode::SpeTagWaitBegin, 10, vec![2, 0]),
                (EventCode::SpeTagWaitEnd, 800, vec![2]),
                (EventCode::SpeUser, 100, vec![7, 1, 0]),
                (EventCode::SpeStop, 1000, vec![0]),
            ] {
                dec = dec.wrapping_sub(step);
                TraceRecord {
                    core: TraceCore::Spe(spe),
                    code,
                    timestamp: dec as u64,
                    params,
                }
                .encode_into(&mut bytes);
            }
            streams.push(TraceStream {
                core: TraceCore::Spe(spe),
                bytes,
                dropped: 0,
            });
        }
        TraceFile {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: 1,
                num_spes: spes,
                core_hz: 3_200_000_000,
                timebase_divider: 120,
                dec_start: u32::MAX,
                group_mask: u32::MAX,
                spe_buffer_bytes: 2048,
            },
            streams,
            ctx_names: (0..spes as u32).map(|c| (c, format!("k{c}"))).collect(),
        }
    }

    #[test]
    fn session_products_match_free_functions() {
        let t = trace(3);
        let a = Analysis::of(&t)
            .parallelism(Parallelism::Workers(4))
            .run()
            .unwrap();
        let serial = analyze(&t).unwrap();
        assert_eq!(a.events(), serial.events.as_slice());
        assert_eq!(a.intervals(), build_intervals(&serial).as_slice());
        let stats = compute_stats(&serial);
        assert_eq!(a.stats().spes, stats.spes);
        assert_eq!(a.stats().duration_tb, stats.duration_tb);
        assert_eq!(a.timeline(), &build_timeline(&serial));
    }

    #[test]
    fn products_are_memoized() {
        let t = trace(2);
        let a = Analysis::of(&t).run().unwrap();
        let first: *const _ = a.stats();
        let second: *const _ = a.stats();
        assert_eq!(first, second);
        let iv1: *const _ = a.intervals();
        let iv2: *const _ = a.intervals();
        assert_eq!(iv1, iv2);
    }

    #[test]
    fn filter_restricts_every_product() {
        let t = trace(2);
        let full = Analysis::of(&t).run().unwrap();
        let only_spe0 = Analysis::of(&t)
            .filter(EventFilter::new().on_core(TraceCore::Spe(0)))
            .run()
            .unwrap();
        assert!(only_spe0.events().len() < full.events().len());
        assert!(only_spe0
            .events()
            .iter()
            .all(|e| e.core == TraceCore::Spe(0)));
        assert_eq!(only_spe0.stats().spes.len(), 1);
    }

    #[test]
    fn index_is_memoized_and_query_matches_scan() {
        let t = trace(3);
        let a = Analysis::of(&t)
            .parallelism(Parallelism::Workers(4))
            .run()
            .unwrap();
        let i1: *const _ = a.index();
        let i2: *const _ = a.index();
        assert_eq!(i1, i2);
        let f = EventFilter::new()
            .in_window(0, u64::MAX)
            .on_core(TraceCore::Spe(1));
        let indexed = a.query(&f);
        let scanned: Vec<_> = a.events().iter().filter(|e| f.matches(e)).collect();
        assert_eq!(indexed, scanned);
        assert_eq!(f.apply(&a), scanned);
    }

    #[test]
    fn windowed_products_agree_with_full_recomputation() {
        let t = trace(2);
        let a = Analysis::of(&t).run().unwrap();
        let (t0, t1) = {
            let s = a.index().start_tb();
            let e = a.index().end_tb();
            (s + (e - s) / 4, s + 3 * (e - s) / 4)
        };

        // Clipped intervals equal SpeIntervals::clip on the full sets.
        let clipped = a.intervals_window(t0, t1);
        let expect: Vec<_> = a.intervals().iter().map(|iv| iv.clip(t0, t1)).collect();
        assert_eq!(clipped, expect);

        // The windowed timeline keeps the lane set and clips content.
        let tl = a.timeline_window(t0, t1);
        assert_eq!(tl.lanes.len(), a.timeline().lanes.len());
        assert_eq!((tl.start_tb, tl.end_tb), (t0, t1));
        for (lane, full) in tl.lanes.iter().zip(&a.timeline().lanes) {
            assert_eq!(lane.label, full.label);
            assert!(lane
                .markers
                .iter()
                .all(|m| m.time_tb >= t0 && m.time_tb < t1));
            assert!(lane
                .segments
                .iter()
                .all(|s| s.start_tb >= t0 && s.end_tb <= t1));
        }

        // Windowed summary equals the brute-force oracle.
        #[cfg(feature = "scan-oracle")]
        {
            let oracle = crate::index::oracle::window_summary(
                a.analyzed(),
                a.intervals(),
                a.index().suspect_ranges(),
                t0,
                t1,
            );
            assert_eq!(a.summarize(t0, t1), oracle);
        }

        // Windowed DMA equals the matcher run over scan-filtered events.
        let dma = a.dma_window(t0, t1);
        let mut windowed = a.analyzed().clone();
        windowed
            .events
            .retain(|e| e.time_tb >= t0 && e.time_tb < t1);
        assert_eq!(dma, crate::stats::observe_dma(&windowed));

        // Windowed occupancy derives from the memoized full series.
        let occ = a.occupancy_window(t0, t1);
        assert_eq!(occ.len(), a.occupancy().len());
        for (w, full) in occ.iter().zip(a.occupancy()) {
            assert_eq!(*w, full.window(t0, t1));
        }
    }

    #[test]
    fn windowed_renders_dispatch_through_reports() {
        let t = trace(2);
        let a = Analysis::of(&t).run().unwrap();
        let (s, e) = (a.index().start_tb(), a.index().end_tb());
        let mid = (s + e) / 2;
        let opts = RenderOptions::default().with_window(s, mid);
        // Windowed events CSV holds exactly the in-window rows.
        let csv = a.render(ReportKind::Csv, &opts);
        let full_csv = a.render(ReportKind::Csv, &RenderOptions::default());
        assert!(csv.lines().count() < full_csv.lines().count());
        let in_window = a.query(&EventFilter::new().in_window(s, mid)).len();
        assert_eq!(csv.lines().count(), in_window + 1, "header + rows");
        // The other exporters accept the window too.
        assert!(a
            .render(
                ReportKind::Svg,
                &opts.clone().with_svg(SvgOptions::default())
            )
            .contains("</svg>"));
        assert!(a.render(ReportKind::Html, &opts).contains("</html>"));
        assert!(!a.render(ReportKind::Ascii, &opts).is_empty());
    }

    #[test]
    fn parallel_products_equal_serial_products() {
        let t = trace(4);
        let serial = Analysis::of(&t)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        serial.build_products(Parallelism::Serial);
        for workers in [2, 4, 8] {
            let parallel = Analysis::of(&t)
                .parallelism(Parallelism::Serial)
                .run()
                .unwrap();
            parallel.build_products(Parallelism::Workers(workers));
            assert_eq!(parallel.intervals(), serial.intervals());
            assert_eq!(parallel.stats(), serial.stats());
            assert_eq!(parallel.timeline(), serial.timeline());
            assert_eq!(parallel.occupancy(), serial.occupancy());
            assert_eq!(parallel.phases(), serial.phases());
            assert_eq!(parallel.index(), serial.index());
            assert_eq!(parallel.lint(), serial.lint());
            assert_eq!(parallel.events(), serial.events());
        }
    }

    #[test]
    fn build_products_memoizes_like_serial_access() {
        let t = trace(2);
        let a = Analysis::of(&t).run().unwrap();
        a.build_products(Parallelism::Workers(4));
        // Accessors now return the already-built products.
        let s1: *const _ = a.stats();
        let i1: *const _ = a.index();
        a.build_products(Parallelism::Workers(4)); // idempotent
        assert_eq!(s1, a.stats() as *const _);
        assert_eq!(i1, a.index() as *const _);
    }

    #[test]
    fn interner_dedups_under_concurrent_product_builds() {
        // Two contexts share one name: the interner holds a single
        // symbol for it, and concurrent product builds (which resolve
        // labels through the shared interner) see consistent strings.
        let mut t = trace(3);
        t.ctx_names = vec![(0, "kern".into()), (1, "kern".into()), (2, "other".into())];
        let a = Analysis::of(&t).run().unwrap();
        a.build_products(Parallelism::Workers(4));
        assert_eq!(a.columns().interner().len(), 2);
        assert_eq!(a.columns().ctx_name(0), Some("kern"));
        assert_eq!(a.columns().ctx_name(1), Some("kern"));
        assert_eq!(a.columns().ctx_name(2), Some("other"));
        let labels: Vec<&str> = a
            .timeline()
            .lanes
            .iter()
            .map(|l| l.label.as_str())
            .collect();
        assert!(labels.contains(&"SPE0 (kern)"), "{labels:?}");
        assert!(labels.contains(&"SPE2 (other)"), "{labels:?}");
    }

    #[test]
    fn build_products_serial_and_parallel_agree_with_accessors() {
        let t = trace(3);
        let a = Analysis::of(&t)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        a.build_products(Parallelism::Serial);
        let b = Analysis::of(&t)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        b.build_products(Parallelism::Workers(4));
        assert_eq!(a.intervals(), b.intervals());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.timeline(), b.timeline());
        assert_eq!(a.occupancy(), b.occupancy());
        assert_eq!(a.phases(), b.phases());
        assert_eq!(a.index(), b.index());
        assert_eq!(a.lint(), b.lint());
        // Without `build_products`, the accessors fan out under the
        // session's own parallelism, and ingest decodes under it too.
        for par in [Parallelism::Workers(2), Parallelism::Workers(4)] {
            let c = Analysis::of(&t).parallelism(par).run().unwrap();
            assert_eq!(c.columns().events, a.columns().events, "{par:?}");
            assert_eq!(c.intervals(), a.intervals(), "{par:?}");
            assert_eq!(c.stats(), a.stats(), "{par:?}");
        }
    }

    #[test]
    fn renders_through_session() {
        let t = trace(1);
        let a = Analysis::of(&t).run().unwrap();
        assert!(a.svg(&SvgOptions::default()).ends_with("</svg>\n"));
        assert!(a.ascii(60).contains("legend"));
        assert!(a.summary().contains("SPE"));
        assert!(a.html("t").contains("<html"));
        assert!(!a.occupancy().is_empty());
        let _ = a.phases();
        let analyzed = a.into_analyzed();
        assert!(!analyzed.events.is_empty());
    }
}
