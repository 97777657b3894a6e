//! DMA transfer-lifetime reconstruction and the three tag-group rules.
//!
//! `dma-race` runs on the happens-before engine ([`crate::hb`]): the
//! rule builds one [`HbIndex`] per lint run (memoized in the rule
//! instance, shared across shards) and renders its [`RaceWitness`]es
//! as diagnostics — the two accesses, the exact byte intersection and
//! the absence-of-sync explanation. The pre-engine *window heuristic*
//! (issue → first covering `SpeTagWaitEnd`, overlapping windows +
//! overlapping local store + different tags + ≥1 GET) survives behind
//! the `scan-oracle` feature as [`dma_race_window_heuristic`], the
//! differential baseline the `hb_smoke` CI gate compares the engine
//! against — exactly how PR 3/5 kept the naive scans.
//!
//! `unwaited-tag-group` and `wait-without-dma` still replay transfer
//! lifetimes with [`sweep`], the single definition of the wait-window
//! semantics.

use std::sync::OnceLock;

use pdt::{EventCode, TraceCore};

use crate::columns::ColumnarTrace;
use crate::hb::{HbIndex, RaceWitness, Space};
#[cfg(feature = "scan-oracle")]
use crate::index::{IntervalTree, Span};

use super::{check_by_shards, spe_of_shard, Anchor, Diagnostic, Lint, LintContext, Severity};

/// Direction of a reconstructed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// GET: main storage → local store (writes LS).
    Get,
    /// PUT: local store → main storage (reads LS).
    Put,
}

/// One reconstructed DMA transfer on one SPE.
#[derive(Debug, Clone)]
struct Transfer {
    dir: Dir,
    lsa: u64,
    bytes: u64,
    tag: u8,
    /// Issue tick.
    start_tb: u64,
    /// First covering tag-wait end, or the lane's last tick when the
    /// transfer was never waited.
    end_tb: u64,
    waited: bool,
    anchor: Anchor,
}

impl Transfer {
    #[cfg(feature = "scan-oracle")]
    fn ls_overlaps(&self, other: &Transfer) -> bool {
        self.lsa < other.ls_end() && other.lsa < self.ls_end()
    }

    /// End of the local-store range, saturating on hostile params.
    #[cfg(feature = "scan-oracle")]
    fn ls_end(&self) -> u64 {
        self.lsa.saturating_add(self.bytes)
    }
}

/// A transfer's unsynchronized window plus its index in the history,
/// the payload the heuristic's interval tree carries.
#[cfg(feature = "scan-oracle")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TransferSpan {
    start_tb: u64,
    end_tb: u64,
    idx: u32,
}

#[cfg(feature = "scan-oracle")]
impl Span for TransferSpan {
    fn span(&self) -> (u64, u64) {
        (self.start_tb, self.end_tb)
    }
}

/// One SPE's reconstructed DMA history.
#[derive(Debug)]
struct SpeDmaHistory {
    spe: u8,
    transfers: Vec<Transfer>,
    /// `SpeTagWaitBegin` events whose mask covered zero outstanding
    /// transfers, with the offending mask.
    vacuous_waits: Vec<(Anchor, u32)>,
}

/// The wait-mask bit of MFC tag group `tag`. A wait mask has one bit
/// per group (32); a wider tag, which only damaged params produce, is
/// covered by no mask.
fn tag_bit(tag: u8) -> u32 {
    1u32.checked_shl(u32::from(tag)).unwrap_or(0)
}

/// Replays one SPE's stream, tracking transfer lifetimes against the
/// tag-wait events. Shared by all three DMA rules so the lifetime
/// semantics have exactly one definition.
fn sweep(trace: &ColumnarTrace, spe: u8) -> SpeDmaHistory {
    // The group mask knows whether this SPE recorded any DMA or
    // tag-wait event at all; when it did not, the replay below cannot
    // produce anything, so skip the scan.
    if !trace.core_has_group(TraceCore::Spe(spe), pdt::EventGroup::SpeDma) {
        return SpeDmaHistory {
            spe,
            transfers: Vec::new(),
            vacuous_waits: Vec::new(),
        };
    }
    let mut transfers: Vec<Transfer> = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    let mut vacuous_waits = Vec::new();
    let mut last_tb = 0u64;
    for v in trace.core_events(TraceCore::Spe(spe)) {
        last_tb = last_tb.max(v.time_tb);
        match v.code {
            EventCode::SpeDmaGet | EventCode::SpeDmaPut => {
                if v.params.len() < 4 {
                    continue;
                }
                transfers.push(Transfer {
                    dir: if v.code == EventCode::SpeDmaGet {
                        Dir::Get
                    } else {
                        Dir::Put
                    },
                    lsa: v.params[1],
                    bytes: v.params[2],
                    tag: (v.params[3] & 0xff) as u8,
                    start_tb: v.time_tb,
                    end_tb: u64::MAX,
                    waited: false,
                    anchor: Anchor::at_view(&v),
                });
                pending.push(transfers.len() - 1);
            }
            EventCode::SpeTagWaitBegin => {
                let mask = v.params.first().copied().unwrap_or(0) as u32;
                let covers_any = pending
                    .iter()
                    .any(|&i| mask & tag_bit(transfers[i].tag) != 0);
                if !covers_any {
                    vacuous_waits.push((Anchor::at_view(&v), mask));
                }
            }
            EventCode::SpeTagWaitEnd => {
                let completed = v.params.first().copied().unwrap_or(0) as u32;
                pending.retain(|&i| {
                    if completed & tag_bit(transfers[i].tag) != 0 {
                        transfers[i].end_tb = v.time_tb;
                        transfers[i].waited = true;
                        false
                    } else {
                        true
                    }
                });
            }
            _ => {}
        }
    }
    // Transfers never covered by a wait stay open past the lane's end.
    for &i in &pending {
        transfers[i].end_tb = last_tb.max(transfers[i].start_tb).saturating_add(1);
    }
    // Guard degenerate clocks: a window is never empty.
    for t in &mut transfers {
        t.end_tb = t.end_tb.max(t.start_tb.saturating_add(1));
    }
    SpeDmaHistory {
        spe,
        transfers,
        vacuous_waits,
    }
}

/// `dma-race`: overlapping DMA accesses with no happens-before
/// ordering path, at least one writing the shared bytes.
pub(super) struct DmaRace {
    /// The engine's race index, built once per lint run on first use
    /// and shared by every shard (rule instances are created fresh per
    /// run by `default_rules`, so the cache can never go stale).
    hb: OnceLock<HbIndex>,
}

impl DmaRace {
    pub(super) fn new() -> Self {
        DmaRace {
            hb: OnceLock::new(),
        }
    }

    fn index(&self, ctx: &LintContext<'_>) -> &HbIndex {
        self.hb.get_or_init(|| HbIndex::build(ctx.trace, ctx.edges))
    }
}

impl Lint for DmaRace {
    fn id(&self) -> &'static str {
        "dma-race"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn docs(&self) -> &'static str {
        "Two DMA accesses touch the same bytes (in one SPE's local store or \
         in main memory), at least one writes them, and no happens-before \
         path — tag wait, MFC barrier, or synchronization observed through \
         mailbox/signal traffic — orders the issues. The final contents \
         depend on transfer timing. Detected by vector-clock analysis over \
         the trace's synchronization events; same-tag pairs race too (the \
         MFC orders nothing within a tag group absent a wait or barrier)."
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        check_by_shards(self, ctx)
    }

    /// One shard per `(spe, tag)` pair with at least one transfer; a
    /// race is checked in the shard of its later (anchor) access.
    fn shards(&self, ctx: &LintContext<'_>) -> usize {
        self.index(ctx).shard_count()
    }

    fn check_shard(&self, ctx: &LintContext<'_>, shard: usize) -> Vec<Diagnostic> {
        let index = self.index(ctx);
        index
            .races_in_shard(shard)
            .iter()
            .map(|w| {
                let mut d = race_diagnostic(w);
                // A degraded propagation (cycle through skewed sync
                // edges) or damage on the *other* endpoint's stream
                // makes the verdict conservative, not firm. The runner
                // post-pass handles the anchor's own stream.
                d.suspect = index.degraded()
                    || ctx.stream_truncated(TraceCore::Spe(w.first.spe))
                    || ctx.stream_truncated(TraceCore::Spe(w.second.spe));
                d
            })
            .collect()
    }
}

/// Renders one engine witness: both endpoints, the byte intersection,
/// and why no ordering exists. Anchored at the later access with the
/// earlier one related, like every pairwise rule.
fn race_diagnostic(w: &RaceWitness) -> Diagnostic {
    let anchor = |a: &crate::hb::Access| Anchor {
        core: TraceCore::Spe(a.spe),
        seq: a.seq,
        time_tb: a.time_tb,
    };
    let space = match w.space {
        Space::LocalStore => "LS",
        Space::MainMemory => "EA",
    };
    let (f_lo, f_hi) = w.first.range(w.space);
    let (s_lo, s_hi) = w.second.range(w.space);
    let other = if w.first.spe == w.second.spe {
        String::new()
    } else {
        format!("SPE{} ", w.first.spe)
    };
    let why = match (w.space, w.same_tag) {
        (Space::LocalStore, true) => {
            "same tag group — the MFC orders nothing within a group; \
             no wait or barrier between the issues"
        }
        (Space::LocalStore, false) => "no tag wait or MFC barrier between the issues",
        (Space::MainMemory, _) => {
            "no synchronization path (tag wait observed via \
             mailbox/signal) orders the transfers"
        }
    };
    Diagnostic {
        rule: "dma-race",
        severity: Severity::Error,
        suspect: false,
        anchor: Some(anchor(&w.second)),
        related: vec![anchor(&w.first)],
        message: format!(
            "SPE{}: {} tag {} [{space} {:#x}..{:#x}) races {}{} tag {} \
             [{space} {:#x}..{:#x}) on bytes [{:#x}..{:#x}) — {why}",
            w.second.spe,
            w.second.dir.name(),
            w.second.tag,
            s_lo,
            s_hi,
            other,
            w.first.dir.name(),
            w.first.tag,
            f_lo,
            f_hi,
            w.lo,
            w.hi,
        ),
    }
}

/// The pre-engine `dma-race` heuristic, kept as the differential
/// oracle for the `hb_smoke` CI gate: transfers whose issue→wait
/// windows overlap in time and local store, from different tag groups,
/// with at least one GET. Misses same-tag races and flags overlaps
/// that mailbox/signal/barrier traffic actually orders — the
/// imprecision the engine exists to remove.
#[cfg(feature = "scan-oracle")]
pub fn dma_race_window_heuristic(trace: &ColumnarTrace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for spe in trace.spes() {
        let hist = sweep(trace, spe);
        if hist.transfers.len() < 2 {
            continue;
        }
        // The unsynchronized windows, indexed by the shared tree.
        let tree = IntervalTree::new(
            hist.transfers
                .iter()
                .enumerate()
                .map(|(i, t)| TransferSpan {
                    start_tb: t.start_tb,
                    end_tb: t.end_tb,
                    idx: i as u32,
                })
                .collect(),
        );
        for (i, t) in hist.transfers.iter().enumerate() {
            for span in tree.range(t.start_tb, t.end_tb) {
                let j = span.idx as usize;
                // Each unordered pair once, reported at the later issue.
                if j >= i {
                    continue;
                }
                let o = &hist.transfers[j];
                if o.tag != t.tag && t.ls_overlaps(o) && (t.dir == Dir::Get || o.dir == Dir::Get) {
                    out.push(Diagnostic {
                        rule: "dma-race",
                        severity: Severity::Error,
                        suspect: false,
                        anchor: Some(t.anchor),
                        related: vec![o.anchor],
                        message: format!(
                            "SPE{}: {} tag {} [LS {:#x}..{:#x}) races {} tag {} \
                             [LS {:#x}..{:#x}) — no tag wait orders them",
                            hist.spe,
                            dir_name(t.dir),
                            t.tag,
                            t.lsa,
                            t.ls_end(),
                            dir_name(o.dir),
                            o.tag,
                            o.lsa,
                            o.ls_end(),
                        ),
                    });
                }
            }
        }
    }
    out
}

fn dir_name(d: Dir) -> &'static str {
    match d {
        Dir::Get => "GET",
        Dir::Put => "PUT",
    }
}

/// `unwaited-tag-group`: DMA issued but never covered by a tag wait.
pub(super) struct UnwaitedTagGroup;

impl Lint for UnwaitedTagGroup {
    fn id(&self) -> &'static str {
        "unwaited-tag-group"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn docs(&self) -> &'static str {
        "A DMA transfer was issued but no subsequent tag wait ever covered its \
         tag group, so the program never learned whether the data moved — \
         reads of the target are unordered with the transfer."
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        check_by_shards(self, ctx)
    }

    fn shards(&self, ctx: &LintContext<'_>) -> usize {
        ctx.trace.spes().len()
    }

    fn check_shard(&self, ctx: &LintContext<'_>, shard: usize) -> Vec<Diagnostic> {
        let hist = sweep(ctx.trace, spe_of_shard(ctx, shard));
        let mut out = Vec::new();
        // One diagnostic per (spe, tag): anchored at the first
        // unwaited issue, the rest related.
        let mut tags: Vec<u8> = hist
            .transfers
            .iter()
            .filter(|t| !t.waited)
            .map(|t| t.tag)
            .collect();
        tags.sort_unstable();
        tags.dedup();
        for tag in tags {
            let unwaited: Vec<&Transfer> = hist
                .transfers
                .iter()
                .filter(|t| !t.waited && t.tag == tag)
                .collect();
            let first = unwaited[0];
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.severity(),
                suspect: false,
                anchor: Some(first.anchor),
                related: unwaited.iter().skip(1).take(4).map(|t| t.anchor).collect(),
                message: format!(
                    "SPE{}: {} transfer(s) on tag {} issued but never waited \
                     (first: {} of {} bytes at LS {:#x})",
                    hist.spe,
                    unwaited.len(),
                    tag,
                    dir_name(first.dir),
                    first.bytes,
                    first.lsa,
                ),
            });
        }
        out
    }
}

/// `wait-without-dma`: tag wait naming only tags with zero outstanding
/// transfers — the paper's misused-tag-group case.
pub(super) struct WaitWithoutDma;

impl Lint for WaitWithoutDma {
    fn id(&self) -> &'static str {
        "wait-without-dma"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn docs(&self) -> &'static str {
        "A tag wait's mask covered no outstanding transfer, so it completed \
         vacuously. Usually a wrong mask (waiting on the tag the program \
         meant to use, not the one it did) or a stale wait left over from \
         refactoring."
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        check_by_shards(self, ctx)
    }

    fn shards(&self, ctx: &LintContext<'_>) -> usize {
        ctx.trace.spes().len()
    }

    fn check_shard(&self, ctx: &LintContext<'_>, shard: usize) -> Vec<Diagnostic> {
        let hist = sweep(ctx.trace, spe_of_shard(ctx, shard));
        let mut out = Vec::new();
        for (anchor, mask) in &hist.vacuous_waits {
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.severity(),
                suspect: false,
                anchor: Some(*anchor),
                related: Vec::new(),
                message: format!(
                    "SPE{}: tag wait on mask {:#x} with zero outstanding \
                     transfers on those tags — the wait is vacuous",
                    hist.spe, mask,
                ),
            });
        }
        out
    }
}

// The sweep itself is covered through the rule tests in
// `tests/golden_lints.rs` and the synthetic-trace tests in
// `lint::tests` (mod.rs side), which exercise every lifetime case:
// waited, never-waited, partial completion masks, and vacuous waits.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent};
    use crate::loss::LossReport;
    use pdt::{TraceHeader, VERSION};

    fn header() -> TraceHeader {
        TraceHeader {
            version: VERSION,
            num_ppe_threads: 1,
            num_spes: 1,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        }
    }

    fn ev(t: u64, code: EventCode, params: Vec<u64>, seq: u64) -> GlobalEvent {
        GlobalEvent {
            time_tb: t,
            core: TraceCore::Spe(0),
            code,
            params,
            stream_seq: seq,
        }
    }

    /// A transfer with a distinct EA per issue tick, so local-store
    /// cases stay pure LS tests (overlapping EAs are their own race).
    fn dma(t: u64, code: EventCode, lsa: u64, size: u64, tag: u64, seq: u64) -> GlobalEvent {
        ev(t, code, vec![0x100000 + 0x10000 * t, lsa, size, tag], seq)
    }

    fn trace_of(events: Vec<GlobalEvent>) -> AnalyzedTrace {
        AnalyzedTrace {
            header: header(),
            events,
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        }
    }

    fn run_rule(rule: &dyn Lint, t: &AnalyzedTrace) -> Vec<Diagnostic> {
        let cols = crate::columns::ColumnarTrace::from_analyzed(t);
        let loss = LossReport::default();
        let config = super::super::LintConfig::default();
        let edges = crate::causality::sync_edges_columns(&cols, &loss);
        let ctx = LintContext {
            trace: &cols,
            intervals: &[],
            loss: &loss,
            suspects: &[],
            edges: &edges,
            config: &config,
        };
        rule.check(&ctx)
    }

    #[test]
    fn overlapping_gets_on_different_tags_race() {
        use EventCode::*;
        let t = trace_of(vec![
            ev(0, SpeCtxStart, vec![0], 0),
            dma(10, SpeDmaGet, 0x1000, 4096, 0, 1),
            dma(20, SpeDmaGet, 0x1800, 4096, 1, 2), // overlaps [0x1800,0x2000)
            ev(30, SpeTagWaitBegin, vec![0b11, 0], 3),
            ev(40, SpeTagWaitEnd, vec![0b11], 4),
            ev(50, SpeStop, vec![0], 5),
        ]);
        let d = run_rule(&DmaRace::new(), &t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].anchor.unwrap().seq, 2, "anchored at the later issue");
        assert_eq!(d[0].related[0].seq, 1);
        assert!(d[0].message.contains("on bytes [0x1800..0x2000)"));
    }

    #[test]
    fn wait_between_transfers_orders_them() {
        use EventCode::*;
        let t = trace_of(vec![
            dma(10, SpeDmaGet, 0x1000, 4096, 0, 0),
            ev(20, SpeTagWaitBegin, vec![0b1, 0], 1),
            ev(30, SpeTagWaitEnd, vec![0b1], 2),
            dma(40, SpeDmaGet, 0x1000, 4096, 1, 3),
            ev(50, SpeTagWaitBegin, vec![0b10, 0], 4),
            ev(60, SpeTagWaitEnd, vec![0b10], 5),
        ]);
        assert!(run_rule(&DmaRace::new(), &t).is_empty());
    }

    #[test]
    fn same_tag_overlap_races_without_intervening_wait() {
        use EventCode::*;
        // The MFC orders nothing within one tag group: two same-tag
        // GETs into the same buffer inside one wait window race. The
        // window heuristic structurally misses this (it skips same-tag
        // pairs); the engine reports it.
        let t = trace_of(vec![
            dma(10, SpeDmaGet, 0x1000, 4096, 0, 0),
            dma(20, SpeDmaGet, 0x1000, 4096, 0, 1),
            ev(30, SpeTagWaitBegin, vec![0b1, 0], 2),
            ev(40, SpeTagWaitEnd, vec![0b1], 3),
        ]);
        let d = run_rule(&DmaRace::new(), &t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("same tag group"), "{}", d[0].message);
        #[cfg(feature = "scan-oracle")]
        assert!(
            dma_race_window_heuristic(&crate::columns::ColumnarTrace::from_analyzed(&t)).is_empty(),
            "the heuristic misses same-tag races"
        );
    }

    #[test]
    fn concurrent_puts_do_not_race() {
        use EventCode::*;
        // Two PUTs read local store; with disjoint EAs nothing is
        // doubly written, so there is no race anywhere.
        let t = trace_of(vec![
            dma(10, SpeDmaPut, 0x1000, 4096, 0, 0),
            dma(20, SpeDmaPut, 0x1000, 4096, 1, 1),
            ev(30, SpeTagWaitBegin, vec![0b11, 0], 2),
            ev(40, SpeTagWaitEnd, vec![0b11], 3),
        ]);
        assert!(run_rule(&DmaRace::new(), &t).is_empty());
        // A PUT against a concurrent overlapping GET does race.
        let t = trace_of(vec![
            dma(10, SpeDmaPut, 0x1000, 4096, 0, 0),
            dma(20, SpeDmaGet, 0x1000, 4096, 1, 1),
            ev(30, SpeTagWaitBegin, vec![0b11, 0], 2),
            ev(40, SpeTagWaitEnd, vec![0b11], 3),
        ]);
        assert_eq!(run_rule(&DmaRace::new(), &t).len(), 1);
    }

    #[test]
    fn concurrent_puts_to_one_ea_range_race_in_main_memory() {
        use EventCode::*;
        // Disjoint local store, same effective address: both PUTs
        // write the same main-memory bytes with no ordering between
        // them — a race the LS-only heuristic never looked for.
        let t = trace_of(vec![
            ev(10, SpeDmaPut, vec![0x100000, 0x1000, 4096, 0], 0),
            ev(20, SpeDmaPut, vec![0x100000, 0x3000, 4096, 1], 1),
            ev(30, SpeTagWaitBegin, vec![0b11, 0], 2),
            ev(40, SpeTagWaitEnd, vec![0b11], 3),
        ]);
        let d = run_rule(&DmaRace::new(), &t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("[EA 0x100000..0x101000)"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn disjoint_ls_ranges_do_not_race() {
        use EventCode::*;
        let t = trace_of(vec![
            dma(10, SpeDmaGet, 0x1000, 0x800, 0, 0),
            dma(20, SpeDmaGet, 0x1800, 0x800, 1, 1), // adjacent, no overlap
            ev(30, SpeTagWaitBegin, vec![0b11, 0], 2),
            ev(40, SpeTagWaitEnd, vec![0b11], 3),
        ]);
        assert!(run_rule(&DmaRace::new(), &t).is_empty());
    }

    #[test]
    fn hostile_params_render_without_overflow() {
        use EventCode::*;
        // Ranges that end past u64::MAX and a tag outside the 32 MFC
        // groups: every rule renders them, saturated, without a panic.
        let near = u64::MAX - 8;
        let t = trace_of(vec![
            ev(10, SpeDmaGet, vec![near, near, 4096, 0], 0),
            ev(20, SpeDmaGet, vec![near, near, 4096, 40], 1),
            ev(30, SpeTagWaitBegin, vec![u64::MAX, 0], 2),
            ev(40, SpeTagWaitEnd, vec![u64::MAX], 3),
        ]);
        let d = run_rule(&DmaRace::new(), &t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message
                .contains(&format!("on bytes [{near:#x}..{:#x})", u64::MAX)),
            "{}",
            d[0].message
        );
        let d = run_rule(&UnwaitedTagGroup, &t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("on tag 40"), "{}", d[0].message);
        #[cfg(feature = "scan-oracle")]
        assert_eq!(
            dma_race_window_heuristic(&crate::columns::ColumnarTrace::from_analyzed(&t)).len(),
            1
        );
    }

    #[test]
    fn unwaited_transfers_group_per_tag() {
        use EventCode::*;
        let t = trace_of(vec![
            dma(10, SpeDmaGet, 0x1000, 256, 3, 0),
            dma(20, SpeDmaGet, 0x2000, 256, 3, 1),
            dma(30, SpeDmaPut, 0x3000, 256, 4, 2),
            ev(40, SpeTagWaitBegin, vec![1 << 4, 0], 3),
            ev(50, SpeTagWaitEnd, vec![1 << 4], 4),
            ev(60, SpeStop, vec![0], 5),
        ]);
        let d = run_rule(&UnwaitedTagGroup, &t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("2 transfer(s) on tag 3"));
        assert_eq!(d[0].anchor.unwrap().seq, 0);
        assert_eq!(d[0].related.len(), 1);
    }

    #[test]
    fn partial_completion_mask_releases_only_named_tags() {
        use EventCode::*;
        // Wait-any completes tag 0 but leaves tag 1 outstanding.
        let t = trace_of(vec![
            dma(10, SpeDmaGet, 0x1000, 256, 0, 0),
            dma(20, SpeDmaGet, 0x2000, 256, 1, 1),
            ev(30, SpeTagWaitBegin, vec![0b11, 1], 2),
            ev(40, SpeTagWaitEnd, vec![0b01], 3),
            ev(50, SpeStop, vec![0], 4),
        ]);
        let d = run_rule(&UnwaitedTagGroup, &t);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("tag 1"));
    }

    #[test]
    fn vacuous_wait_is_flagged() {
        use EventCode::*;
        let t = trace_of(vec![
            dma(10, SpeDmaGet, 0x1000, 256, 0, 0),
            ev(20, SpeTagWaitBegin, vec![1 << 5, 0], 1), // wrong tag
            ev(30, SpeTagWaitEnd, vec![1 << 5], 2),
            ev(40, SpeTagWaitBegin, vec![1, 0], 3), // right tag
            ev(50, SpeTagWaitEnd, vec![1], 4),
        ]);
        let d = run_rule(&WaitWithoutDma, &t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].anchor.unwrap().seq, 1);
        assert!(d[0].message.contains("0x20"));
    }
}
