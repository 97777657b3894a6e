//! The trace lint engine: rule-based static analysis over decoded
//! traces.
//!
//! The paper's central claim is that a PDT trace is enough to find
//! bugs *after the fact* — misused tag groups, serialization stalls,
//! racy double-buffering — without rerunning the workload. This module
//! is that workflow made mechanical: a registry of [`Lint`] rules runs
//! over an [`AnalyzedTrace`] (pure inspection, no re-execution) and
//! emits structured, event-anchored [`Diagnostic`]s.
//!
//! ## Rules
//!
//! | id | severity | detects |
//! |----|----------|---------|
//! | `dma-race` | error | overlapping DMA accesses (local store or main memory) with no happens-before ordering path, ≥1 write — the [`crate::hb`] vector-clock engine |
//! | `unwaited-tag-group` | error | DMA issued but never covered by a tag wait |
//! | `wait-without-dma` | warn | tag wait naming only tags with zero outstanding transfers |
//! | `unbalanced-intervals` | warn | begin without end / end without begin per core |
//! | `mailbox-deadlock-shape` | error | cyclic blocked-on-mailbox/signal wait chains across SPEs |
//! | `overhead-hotspot` | warn | instrumentation overhead above a threshold fraction of an interval |
//!
//! ## Gap awareness
//!
//! Rules are downgraded, not silenced, by trace damage: a diagnostic
//! whose anchor falls inside a decode-gap [`SuspectRange`], or whose
//! stream lost records, keeps its severity but gains
//! [`Diagnostic::suspect`] — CI gating counts only *firm* diagnostics,
//! so a truncated trace never fails a build over an artifact of the
//! truncation. A [`.talint.toml`](LintConfig::from_toml_str) baseline
//! file can further allow/deny rules and suppress known findings.

mod dma;
mod mailbox;
mod overhead;
mod render;
mod structure;

mod baseline;

use pdt::TraceCore;

use crate::analyze::AnalyzedTrace;
use crate::causality::{sync_edges_store, CausalEdge};
use crate::columns::{ColumnarTrace, EventView};
use crate::exec::{self, Parallelism};
use crate::hb::DmaReplay;
use crate::index::{compute_suspect_ranges_columns, SuspectRange};
use crate::intervals::SpeIntervals;
use crate::loss::LossReport;

pub use baseline::ConfigError;
#[cfg(feature = "scan-oracle")]
pub use dma::dma_race_window_heuristic;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth a look, not actionable by itself.
    Info,
    /// Suspicious pattern; may be benign.
    Warn,
    /// A defect the trace proves (up to reconstruction fidelity).
    Error,
}

impl Severity {
    /// Stable lowercase label (`"error"`, `"warn"`, `"info"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// A position in the trace a diagnostic points at: the producing core,
/// the event's per-stream sequence number and its reconstructed
/// timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// The core whose stream recorded the event.
    pub core: TraceCore,
    /// The event's sequence number within its stream.
    pub seq: u64,
    /// The reconstructed timebase tick.
    pub time_tb: u64,
}

impl Anchor {
    /// Anchors at a columnar event view.
    pub fn at_view(view: &EventView<'_>) -> Self {
        Anchor {
            core: view.core,
            seq: view.stream_seq,
            time_tb: view.time_tb,
        }
    }
}

/// One finding: a rule id, a severity, a primary anchor (plus related
/// events) and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The reporting rule's id.
    pub rule: &'static str,
    /// Effective severity (after any `--deny` promotion).
    pub severity: Severity,
    /// True when the finding may be an artifact of trace damage: the
    /// anchor falls in a decode-gap [`SuspectRange`] or the anchored
    /// stream lost records. Suspect diagnostics never gate CI.
    pub suspect: bool,
    /// The primary event the finding points at, when one exists.
    pub anchor: Option<Anchor>,
    /// Secondary events involved (e.g. the other half of a race).
    pub related: Vec<Anchor>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// True for a firm (non-suspect) error — the kind that gates CI.
    pub fn is_firm_error(&self) -> bool {
        self.severity == Severity::Error && !self.suspect
    }
}

/// A known finding to drop from the report (the `[[suppress]]` entries
/// of a `.talint.toml`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule id to suppress.
    pub rule: String,
    /// Restrict the suppression to diagnostics anchored on this core
    /// (`None` suppresses the rule everywhere).
    pub core: Option<TraceCore>,
    /// Why the finding is acceptable — required, so baselines stay
    /// reviewable.
    pub reason: String,
}

/// Tunables and baseline state for a lint run.
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    /// Rule ids to skip entirely.
    pub allow: Vec<String>,
    /// Rule ids whose diagnostics are promoted to [`Severity::Error`].
    pub deny: Vec<String>,
    /// `overhead-hotspot` fires when instrumentation overhead exceeds
    /// this fraction of an interval.
    pub overhead_threshold: f64,
    /// Intervals shorter than this many ticks are ignored by
    /// `overhead-hotspot` (tiny denominators make noisy ratios).
    pub min_overhead_ticks: u64,
    /// Baseline suppressions.
    pub suppress: Vec<Suppression>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            allow: Vec::new(),
            deny: Vec::new(),
            overhead_threshold: 0.25,
            min_overhead_ticks: 256,
            suppress: Vec::new(),
        }
    }
}

impl LintConfig {
    /// Parses a `.talint.toml` baseline file (a small TOML subset; see
    /// the crate docs for the accepted grammar).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the offending line on syntax or
    /// type errors.
    pub fn from_toml_str(text: &str) -> Result<Self, ConfigError> {
        baseline::parse(text)
    }

    fn suppresses(&self, d: &Diagnostic) -> bool {
        self.suppress.iter().any(|s| {
            s.rule == d.rule
                && match (s.core, &d.anchor) {
                    (None, _) => true,
                    (Some(c), Some(a)) => a.core == c,
                    (Some(_), None) => false,
                }
        })
    }
}

/// A lint rule: stable id, default severity, one-paragraph docs, and
/// the check itself. Rules are stateless (`Send + Sync`) so the
/// parallel runner can sweep shards of several rules concurrently;
/// what rules share within one run (the per-SPE DMA replay) lives in
/// the run's [`LintContext`].
pub trait Lint: Send + Sync {
    /// Stable kebab-case id (`"dma-race"`).
    fn id(&self) -> &'static str;
    /// Default severity of this rule's diagnostics.
    fn severity(&self) -> Severity;
    /// What the rule detects and why it matters — rendered into SARIF
    /// rule metadata.
    fn docs(&self) -> &'static str;
    /// Runs the rule, returning its diagnostics (unsorted; the runner
    /// orders and post-processes them).
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic>;
    /// How many independent shards [`Lint::check`] decomposes into for
    /// parallel execution. Contract: concatenating the results of
    /// `check_shard(ctx, 0..shards(ctx))` in shard order must equal
    /// `check(ctx)` exactly. Whole-trace rules keep the default of 1.
    fn shards(&self, ctx: &LintContext<'_>) -> usize {
        let _ = ctx;
        1
    }
    /// Runs one shard (see [`Lint::shards`]). Per-SPE rules map a
    /// shard index to one SPE's sweep; the default delegates the only
    /// shard to [`Lint::check`]. A shard past the last holds nothing.
    fn check_shard(&self, ctx: &LintContext<'_>, shard: usize) -> Vec<Diagnostic> {
        match shard {
            0 => self.check(ctx),
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Debug for dyn Lint + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lint({})", self.id())
    }
}

/// The SPE a shard index denotes: shard `k` is the `k`-th SPE in the
/// trace's stable SPE order, for every per-SPE-sharded rule (`None`
/// past the last SPE).
pub(super) fn spe_of_shard(ctx: &LintContext<'_>, shard: usize) -> Option<u8> {
    ctx.trace.spes().get(shard).copied()
}

/// The serial `check` of a sharded rule: concatenate the shards in
/// shard order. The sharding contract makes this the definition of
/// `check`, so serial and parallel runs share one code path.
pub(super) fn check_by_shards(rule: &dyn Lint, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    (0..rule.shards(ctx))
        .flat_map(|s| rule.check_shard(ctx, s))
        .collect()
}

/// Everything a rule may inspect.
#[derive(Debug)]
pub struct LintContext<'a> {
    /// The reconstructed trace, in columnar form: rules iterate
    /// [`EventView`]s off the shared column slices rather than
    /// row structs.
    pub trace: &'a ColumnarTrace,
    /// Reconstructed per-SPE activity intervals.
    pub intervals: &'a [SpeIntervals],
    /// Ingestion loss accounting (empty when none ran).
    pub loss: &'a LossReport,
    /// Decode-gap time ranges derived from `loss`.
    pub suspects: &'a [SuspectRange],
    /// The trace's full synchronization-edge set (see
    /// [`sync_edges_columns`](crate::causality::sync_edges_columns)),
    /// with store positions for endpoints rather than global ranks, so
    /// a lint run builds no global order. Extracted once per run and
    /// shared by every rule and shard, so neither the happens-before
    /// engine nor the mailbox rules re-derive pairings.
    pub edges: &'a [CausalEdge],
    /// The run's configuration.
    pub config: &'a LintConfig,
    /// The run's DMA replay, one memo cell per SPE, shared by the
    /// three DMA rules.
    dma: &'a DmaReplay<'a>,
}

impl LintContext<'_> {
    /// Whether findings anchored on `core` should be downgraded to
    /// suspect: the core's stream (or, for SPEs, the PPE stream its
    /// reconstruction depends on) lost records, or the tracer dropped
    /// records trace-wide.
    pub fn stream_truncated(&self, core: TraceCore) -> bool {
        if self.trace.dropped > 0 {
            return true;
        }
        match core {
            TraceCore::Spe(s) => self.loss.suspect(s),
            TraceCore::Ppe(_) => self
                .loss
                .streams
                .iter()
                .any(|l| !l.core.is_spe() && !l.is_clean()),
        }
    }

    /// Whether `t` falls inside any decode-gap suspect range.
    pub fn tick_suspect(&self, t: u64) -> bool {
        self.suspects
            .iter()
            .any(|r| r.overlaps(t, t.saturating_add(1)))
    }
}

/// Metadata of a rule that ran (for report renderers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// The rule id.
    pub id: &'static str,
    /// Its default severity.
    pub severity: Severity,
    /// Its documentation string.
    pub docs: &'static str,
}

/// The outcome of a lint run: ordered diagnostics plus the rule set
/// that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// All surviving diagnostics, most severe first, then by anchor
    /// time.
    pub diagnostics: Vec<Diagnostic>,
    /// The rules that ran (allow-listed rules are absent).
    pub rules: Vec<RuleInfo>,
    /// Diagnostics dropped by baseline suppressions.
    pub suppressed: usize,
}

impl LintReport {
    /// Firm (non-suspect) error-severity diagnostics — what a CI gate
    /// should count.
    pub fn firm_errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_firm_error())
    }

    /// True when no firm error survived.
    pub fn is_clean(&self) -> bool {
        self.firm_errors().next().is_none()
    }

    /// Diagnostics of one rule.
    pub fn of_rule<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Plain-text rendering, one line per diagnostic.
    pub fn render_text(&self) -> String {
        render::to_text(self)
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> String {
        render::to_json(self)
    }

    /// SARIF 2.1.0 rendering, for CI code-scanning upload.
    pub fn to_sarif(&self) -> String {
        render::to_sarif(self)
    }
}

/// The built-in rule registry, in documentation order.
pub fn default_rules() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(dma::DmaRace),
        Box::new(dma::UnwaitedTagGroup),
        Box::new(dma::WaitWithoutDma),
        Box::new(structure::UnbalancedIntervals),
        Box::new(mailbox::MailboxDeadlockShape),
        Box::new(overhead::OverheadHotspot),
    ]
}

/// Runs the default rule registry over a reconstructed trace.
///
/// `intervals` must be the trace's reconstructed activity intervals
/// and `loss` its ingestion loss accounting (use
/// [`LossReport::default`] when none ran). Prefer
/// [`Analysis::lint`](crate::Analysis::lint), which wires the session's
/// memoized products in.
pub fn lint_trace(
    trace: &AnalyzedTrace,
    intervals: &[SpeIntervals],
    loss: &LossReport,
    config: &LintConfig,
) -> LintReport {
    lint_columns(
        &ColumnarTrace::from_analyzed(trace),
        intervals,
        loss,
        config,
    )
}

/// [`lint_trace`] over the columnar store — the engine proper. The
/// row entry point converts and delegates here; the session calls this
/// directly so linting shares the columns with every other product.
pub fn lint_columns(
    trace: &ColumnarTrace,
    intervals: &[SpeIntervals],
    loss: &LossReport,
    config: &LintConfig,
) -> LintReport {
    let edges = sync_edges_store(trace, loss);
    lint_columns_sharded_with_edges(trace, intervals, loss, &edges, config, Parallelism::Serial)
}

/// [`lint_columns`] with a caller-supplied sync-edge set in store
/// positions (the memoized session path) and shard-parallel rule
/// sweeps: every
/// `(rule, shard)` pair — per-SPE sweeps for the DMA and structure
/// rules, per-lane for `overhead-hotspot`, whole-trace for
/// `mailbox-deadlock-shape` and `dma-race` (whose one shard builds the
/// race index, so it is scheduled first) — becomes one unit of an
/// [`exec::map_indexed`] fan-out. Results are assembled in
/// `(rule, shard)` order (each rule's `check` order, by the sharding
/// contract), then post-processed (deny promotion, suspect downgrade,
/// suppression) and sorted, so the report is byte-identical under every
/// [`Parallelism`]; [`lint_columns`] is the `Serial` case.
pub(crate) fn lint_columns_sharded_with_edges(
    trace: &ColumnarTrace,
    intervals: &[SpeIntervals],
    loss: &LossReport,
    edges: &[CausalEdge],
    config: &LintConfig,
    par: Parallelism,
) -> LintReport {
    let suspects = compute_suspect_ranges_columns(trace, loss);
    let dma = DmaReplay::new(trace);
    let ctx = LintContext {
        trace,
        intervals,
        loss,
        suspects: &suspects,
        edges,
        config,
        dma: &dma,
    };
    let rules: Vec<Box<dyn Lint>> = default_rules()
        .into_iter()
        .filter(|r| !config.allow.iter().any(|a| a == r.id()))
        .collect();
    let pairs: Vec<(usize, usize)> = rules
        .iter()
        .enumerate()
        .flat_map(|(ri, r)| (0..r.shards(&ctx)).map(move |s| (ri, s)))
        .collect();
    let sweeps = exec::map_indexed(par, pairs.len(), |i| {
        let (ri, shard) = pairs[i];
        rules[ri].check_shard(&ctx, shard)
    });

    let rule_infos = rules
        .iter()
        .map(|r| RuleInfo {
            id: r.id(),
            severity: r.severity(),
            docs: r.docs(),
        })
        .collect();
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for sweep in sweeps {
        for mut d in sweep {
            if config.deny.iter().any(|a| a == d.rule) {
                d.severity = Severity::Error;
            }
            if let Some(a) = &d.anchor {
                d.suspect |= ctx.tick_suspect(a.time_tb) || ctx.stream_truncated(a.core);
            }
            if config.suppresses(&d) {
                suppressed += 1;
                continue;
            }
            diagnostics.push(d);
        }
    }
    diagnostics.sort_by_key(|d| {
        (
            std::cmp::Reverse(d.severity),
            d.anchor.map(|a| (a.time_tb, a.core.tag(), a.seq)),
            d.rule,
        )
    });
    LintReport {
        diagnostics,
        rules: rule_infos,
        suppressed,
    }
}
