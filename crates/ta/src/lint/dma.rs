//! The three tag-group rules, over one DMA replay per SPE.
//!
//! A lint run replays each SPE's DMA events once, into the per-SPE
//! records of a [`DmaReplay`]: the transfers with their first covering
//! wait and ordering positions, and the tag waits that covered
//! nothing. That replay is the one definition of transfer lifetimes,
//! shared by all three DMA rules:
//!
//! - `dma-race` builds the happens-before [`HbIndex`] from it, as the
//!   run's first unit of work, and renders its [`RaceWitness`]es as
//!   diagnostics: the two accesses, the exact byte intersection and
//!   the absence-of-sync explanation;
//! - `unwaited-tag-group` reports the transfers no wait covered;
//! - `wait-without-dma` reports the vacuous waits.
//!
//! The pre-engine *window heuristic* (issue → first covering
//! `SpeTagWaitEnd`, overlapping windows + overlapping local store +
//! different tags + ≥1 GET) survives behind the `scan-oracle` feature
//! as [`dma_race_window_heuristic`], the differential baseline the
//! `hb_smoke` CI gate compares the engine against. It derives its
//! windows from the same records.

use pdt::TraceCore;

use crate::columns::ColumnarTrace;
#[cfg(feature = "scan-oracle")]
use crate::hb::{AccessDir, DmaReplay, Space::LocalStore, TreeSpan};
use crate::hb::{HbIndex, RaceWitness, Space, SpeDma, Transfer};
#[cfg(feature = "scan-oracle")]
use crate::index::IntervalTree;

use super::{check_by_shards, Anchor, Diagnostic, Lint, LintContext, Severity};

/// The anchor at stream position `pos` of `rec`'s SPE.
fn anchor(trace: &ColumnarTrace, rec: &SpeDma, pos: u32) -> Anchor {
    let i = rec.seg.start + pos as usize;
    Anchor {
        core: TraceCore::Spe(rec.spe),
        seq: trace.events.seq(i),
        time_tb: trace.events.times()[i],
    }
}

/// `dma-race`: overlapping DMA accesses with no happens-before
/// ordering path, at least one writing the shared bytes.
pub(super) struct DmaRace;

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

    /// One unit of work, the first of the run: builds the race index
    /// while the other rules' shards run, then renders its races in
    /// `(spe, tag)` shard order of their later (anchor) access.
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let index = HbIndex::from_replay(ctx.dma, ctx.edges);
        (index.races().iter())
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
    let replay = DmaReplay::new(trace);
    for rec in replay.records() {
        let ts = &rec.transfers;
        if ts.len() < 2 {
            continue;
        }
        let times = &trace.events.times()[rec.seg.clone()];
        let last_tb = times.iter().copied().max().unwrap_or(0);
        // Issue to first covering wait end; a transfer never waited
        // stays open past the lane's last tick. Never empty.
        let window = |t: &Transfer| {
            let start = times[t.pos as usize];
            let end = match t.waited() {
                true => times[t.wait_pos as usize],
                false => last_tb.max(start).saturating_add(1),
            };
            (start, end.max(start.saturating_add(1)))
        };
        let tree = IntervalTree::new(
            (ts.iter().enumerate())
                .map(|(i, t)| {
                    let (lo, hi) = window(t);
                    let idx = i as u32;
                    TreeSpan { lo, hi, idx }
                })
                .collect(),
        );
        for (i, t) in ts.iter().enumerate() {
            let (start, end) = window(t);
            let (t_lo, t_hi) = t.range(LocalStore);
            for span in tree.range(start, end) {
                let j = span.idx as usize;
                // Each unordered pair once, reported at the later issue.
                if j >= i {
                    continue;
                }
                let o = &ts[j];
                let (o_lo, o_hi) = o.range(LocalStore);
                let get = t.dir == AccessDir::Get || o.dir == AccessDir::Get;
                if o.tag != t.tag && t_lo < o_hi && o_lo < t_hi && get {
                    out.push(Diagnostic {
                        rule: "dma-race",
                        severity: Severity::Error,
                        suspect: false,
                        anchor: Some(anchor(trace, rec, t.pos)),
                        related: vec![anchor(trace, rec, o.pos)],
                        message: format!(
                            "SPE{}: {} tag {} [LS {t_lo:#x}..{t_hi:#x}) races {} tag {} \
                             [LS {o_lo:#x}..{o_hi:#x}) — no tag wait orders them",
                            rec.spe,
                            t.dir.name(),
                            t.tag,
                            o.dir.name(),
                            o.tag,
                        ),
                    });
                }
            }
        }
    }
    out
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
        ctx.dma.len()
    }

    fn check_shard(&self, ctx: &LintContext<'_>, shard: usize) -> Vec<Diagnostic> {
        let Some(rec) = ctx.dma.spe(shard) else {
            return Vec::new();
        };
        // One diagnostic per (spe, tag): anchored at the first
        // unwaited issue, the rest related. The sort is stable, so
        // each tag's transfers stay in issue order.
        let mut unwaited: Vec<&Transfer> = rec.transfers.iter().filter(|t| !t.waited()).collect();
        unwaited.sort_by_key(|t| t.tag);
        (unwaited.chunk_by(|a, b| a.tag == b.tag))
            .filter_map(|group| {
                let (first, rest) = group.split_first()?;
                Some(Diagnostic {
                    rule: self.id(),
                    severity: self.severity(),
                    suspect: false,
                    anchor: Some(anchor(ctx.trace, rec, first.pos)),
                    related: (rest.iter().take(4))
                        .map(|t| anchor(ctx.trace, rec, t.pos))
                        .collect(),
                    message: format!(
                        "SPE{}: {} transfer(s) on tag {} issued but never waited \
                         (first: {} of {} bytes at LS {:#x})",
                        rec.spe,
                        group.len(),
                        first.tag,
                        first.dir.name(),
                        first.bytes,
                        first.lsa,
                    ),
                })
            })
            .collect()
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
        ctx.dma.len()
    }

    fn check_shard(&self, ctx: &LintContext<'_>, shard: usize) -> Vec<Diagnostic> {
        let Some(rec) = ctx.dma.spe(shard) else {
            return Vec::new();
        };
        (rec.vacuous_waits.iter())
            .map(|&(pos, mask)| Diagnostic {
                rule: self.id(),
                severity: self.severity(),
                suspect: false,
                anchor: Some(anchor(ctx.trace, rec, pos)),
                related: Vec::new(),
                message: format!(
                    "SPE{}: tag wait on mask {:#x} with zero outstanding \
                     transfers on those tags — the wait is vacuous",
                    rec.spe, mask,
                ),
            })
            .collect()
    }
}

// The replay itself is covered through the rule tests below and in
// `tests/golden_lints.rs`, which exercise every lifetime case:
// waited, never-waited, partial completion masks, and vacuous waits.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent};
    use crate::hb::DmaReplay;
    use crate::loss::LossReport;
    use pdt::{EventCode, TraceHeader, VERSION};

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
            dma: &DmaReplay::new(&cols),
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
        let d = run_rule(&DmaRace, &t);
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
        assert!(run_rule(&DmaRace, &t).is_empty());
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
        let d = run_rule(&DmaRace, &t);
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
        assert!(run_rule(&DmaRace, &t).is_empty());
        // A PUT against a concurrent overlapping GET does race.
        let t = trace_of(vec![
            dma(10, SpeDmaPut, 0x1000, 4096, 0, 0),
            dma(20, SpeDmaGet, 0x1000, 4096, 1, 1),
            ev(30, SpeTagWaitBegin, vec![0b11, 0], 2),
            ev(40, SpeTagWaitEnd, vec![0b11], 3),
        ]);
        assert_eq!(run_rule(&DmaRace, &t).len(), 1);
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
        let d = run_rule(&DmaRace, &t);
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
        assert!(run_rule(&DmaRace, &t).is_empty());
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
        let d = run_rule(&DmaRace, &t);
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
