//! Per-core and DMA statistics derived from a trace.
//!
//! These are the numbers the Trace Analyzer's summary views show: per-
//! SPE activity breakdowns and utilization, and DMA traffic statistics
//! with observed completion latencies. Everything here is computed from
//! trace bytes alone; integration tests cross-check it against the
//! simulator's ground truth.

use std::collections::HashMap;

use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;
use crate::histogram::Log2Histogram;
use crate::intervals::{build_intervals, ActivityKind, SpeIntervals};

/// Activity summary for one SPE.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeActivity {
    /// The SPE index.
    pub spe: u8,
    /// Ticks from context start to stop.
    pub active_tb: u64,
    /// Ticks computing.
    pub compute_tb: u64,
    /// Ticks in tag-group waits.
    pub dma_wait_tb: u64,
    /// Ticks in mailbox waits.
    pub mbox_wait_tb: u64,
    /// Ticks in signal waits.
    pub signal_wait_tb: u64,
    /// Compute fraction of active time.
    pub utilization: f64,
}

impl SpeActivity {
    fn from_intervals(iv: &SpeIntervals) -> Self {
        SpeActivity {
            spe: iv.spe,
            active_tb: iv.active(),
            compute_tb: iv.total(ActivityKind::Compute),
            dma_wait_tb: iv.total(ActivityKind::DmaWait),
            mbox_wait_tb: iv.total(ActivityKind::MboxWait),
            signal_wait_tb: iv.total(ActivityKind::SignalWait),
            utilization: iv.utilization(),
        }
    }
}

/// One DMA command observed in the trace, with its completion as seen
/// at the closing tag wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedDma {
    /// The issuing SPE.
    pub spe: u8,
    /// True for GET (memory → LS).
    pub is_get: bool,
    /// Transfer bytes.
    pub bytes: u64,
    /// Issue time.
    pub issue_tb: u64,
    /// Completion observation time (`SpeTagWaitEnd` covering the tag),
    /// if any was seen.
    pub complete_tb: Option<u64>,
}

impl ObservedDma {
    /// Observed latency in ticks (issue to the wait that covered it).
    pub fn latency_tb(&self) -> Option<u64> {
        self.complete_tb.map(|c| c - self.issue_tb)
    }
}

/// DMA traffic summary for the whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DmaSummary {
    /// GET commands.
    pub gets: u64,
    /// PUT commands.
    pub puts: u64,
    /// Total bytes issued.
    pub bytes: u64,
    /// Every observed command.
    pub commands: Vec<ObservedDma>,
    /// Latency histogram (ticks), over commands with observed
    /// completion.
    pub latency_ticks: Log2Histogram,
    /// Size histogram (bytes).
    pub sizes: Log2Histogram,
}

impl DmaSummary {
    /// Appends another summary, preserving command order: per-SPE
    /// shard summaries absorbed in ascending SPE order reproduce the
    /// exact summary one sequential pass over all SPEs builds (the
    /// command list is a per-SPE concatenation; counters and
    /// histograms are commutative reductions).
    pub(crate) fn absorb(&mut self, mut other: DmaSummary) {
        self.gets += other.gets;
        self.puts += other.puts;
        self.bytes += other.bytes;
        self.commands.append(&mut other.commands);
        self.latency_ticks.merge(&other.latency_ticks);
        self.sizes.merge(&other.sizes);
    }

    /// Aggregate observed bandwidth in bytes per tick: total bytes of
    /// completed commands divided by the sum of their latencies.
    pub fn observed_bytes_per_tick(&self) -> f64 {
        let (b, t) = self
            .commands
            .iter()
            .filter_map(|c| c.latency_tb().map(|l| (c.bytes, l)))
            .fold((0u64, 0u64), |(b, t), (cb, cl)| (b + cb, t + cl));
        if t == 0 {
            0.0
        } else {
            b as f64 / t as f64
        }
    }
}

/// Event counts per code.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventCounts {
    counts: HashMap<EventCode, u64>,
}

impl EventCounts {
    /// Counts `codes` in a dense table indexed by [`EventCode::raw`],
    /// then fills the map once per distinct code: one array increment
    /// per event instead of a hash lookup.
    fn tally(codes: impl IntoIterator<Item = EventCode>) -> Self {
        // Every code's raw value is below 0x300 (`EventCode::from_raw`);
        // the map takes any that is not.
        let mut dense = [0u64; 0x300];
        let mut counts = HashMap::new();
        for code in codes {
            match dense.get_mut(usize::from(code.raw())) {
                Some(n) => *n += 1,
                None => *counts.entry(code).or_insert(0) += 1,
            }
        }
        for (raw, &n) in dense.iter().enumerate().filter(|(_, &n)| n > 0) {
            if let Some(code) = EventCode::from_raw(raw as u16) {
                counts.insert(code, n);
            }
        }
        EventCounts { counts }
    }

    /// Count for one code.
    pub fn get(&self, code: EventCode) -> u64 {
        self.counts.get(&code).copied().unwrap_or(0)
    }

    /// Total events.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// All `(code, count)` pairs, sorted by descending count.
    pub fn sorted(&self) -> Vec<(EventCode, u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(c, n)| (*c, *n)).collect();
        v.sort_by_key(|(c, n)| (std::cmp::Reverse(*n), c.raw()));
        v
    }
}

/// The full statistics bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Per-SPE activity.
    pub spes: Vec<SpeActivity>,
    /// DMA summary.
    pub dma: DmaSummary,
    /// Event counts.
    pub counts: EventCounts,
    /// Trace duration in ticks (first to last event).
    pub duration_tb: u64,
}

impl TraceStats {
    /// Activity for one SPE.
    pub fn spe(&self, spe: u8) -> Option<&SpeActivity> {
        self.spes.iter().find(|s| s.spe == spe)
    }

    /// Mean utilization over SPEs (0 when none).
    pub fn mean_utilization(&self) -> f64 {
        if self.spes.is_empty() {
            return 0.0;
        }
        self.spes.iter().map(|s| s.utilization).sum::<f64>() / self.spes.len() as f64
    }

    /// Load imbalance: max compute ticks / mean compute ticks over
    /// SPEs (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.spes.is_empty() {
            return 1.0;
        }
        let max = self.spes.iter().map(|s| s.compute_tb).max().unwrap_or(0) as f64;
        let mean =
            self.spes.iter().map(|s| s.compute_tb).sum::<u64>() as f64 / self.spes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Computes the statistics bundle for a trace.
///
/// New code should prefer [`Analysis::stats`](crate::session::Analysis::stats),
/// which shares one interval pass with the timeline and memoizes the
/// result; this function remains for compatibility.
pub fn compute_stats(trace: &AnalyzedTrace) -> TraceStats {
    compute_stats_with(trace, &build_intervals(trace))
}

/// Computes the statistics bundle from already-built intervals, so a
/// caller deriving several products (stats, timeline, …) from one
/// trace pays the interval pass once. [`compute_stats`] is this with a
/// fresh interval build.
pub fn compute_stats_with(trace: &AnalyzedTrace, intervals: &[SpeIntervals]) -> TraceStats {
    let spes = intervals.iter().map(SpeActivity::from_intervals).collect();

    let counts = EventCounts::tally(trace.events.iter().map(|e| e.code));

    let dma = observe_dma(trace);
    TraceStats {
        spes,
        dma,
        counts,
        duration_tb: trace.end_tb().saturating_sub(trace.start_tb()),
    }
}

/// [`compute_stats_with`] over the columnar store: event counts come
/// from one walk of the code column and the DMA matcher iterates
/// per-SPE offset slices, with no per-event allocation. The session
/// uses this path; the row functions remain the differential oracles.
pub fn compute_stats_columns(trace: &ColumnarTrace, intervals: &[SpeIntervals]) -> TraceStats {
    compute_stats_columns_par(trace, intervals, crate::exec::Parallelism::Serial)
}

/// [`compute_stats_columns`] with the DMA observer's per-SPE shards
/// fanned out through [`crate::exec::map_indexed`]. The counts walk
/// stays sequential (one pass over the code column); the result is
/// byte-identical to the serial build.
pub(crate) fn compute_stats_columns_par(
    trace: &ColumnarTrace,
    intervals: &[SpeIntervals],
    par: crate::exec::Parallelism,
) -> TraceStats {
    let spes = intervals.iter().map(SpeActivity::from_intervals).collect();

    let counts = EventCounts::tally(trace.events.codes().iter().copied());

    let dma = observe_dma_columns_par(trace, par);
    TraceStats {
        spes,
        dma,
        counts,
        duration_tb: trace.end_tb().saturating_sub(trace.start_tb()),
    }
}

/// [`observe_dma`] over the columnar store: the same matching
/// algorithm, driven by per-SPE [`EventView`](crate::columns::EventView)s.
pub fn observe_dma_columns(trace: &ColumnarTrace) -> DmaSummary {
    observe_dma_columns_par(trace, crate::exec::Parallelism::Serial)
}

/// [`observe_dma_columns`] with the per-SPE shards fanned out through
/// [`crate::exec::map_indexed`]; partial summaries are absorbed in SPE
/// order, so the result is byte-identical to the sequential observer.
pub(crate) fn observe_dma_columns_par(
    trace: &ColumnarTrace,
    par: crate::exec::Parallelism,
) -> DmaSummary {
    let spes = trace.spes();
    let parts =
        crate::exec::map_indexed(par, spes.len(), |i| observe_spe_dma_columns(trace, spes[i]));
    let mut summary = DmaSummary::default();
    for p in parts {
        summary.absorb(p);
    }
    summary
}

/// One SPE's shard of [`observe_dma_columns`]: the DMA matcher is
/// entirely stream-local (tags never cross SPEs), so per-SPE partial
/// summaries absorbed in SPE order rebuild the whole-trace summary
/// byte-for-byte. The independent shard unit the parallel product
/// scheduler fans out per SPE.
pub(crate) fn observe_spe_dma_columns(trace: &ColumnarTrace, spe: u8) -> DmaSummary {
    let mut summary = DmaSummary::default();
    let mut outstanding: HashMap<u8, Vec<usize>> = HashMap::new();
    for v in trace.core_events(TraceCore::Spe(spe)) {
        match v.code {
            EventCode::SpeDmaGet | EventCode::SpeDmaPut => {
                let is_get = v.code == EventCode::SpeDmaGet;
                let bytes = v.params[2];
                let tag = (v.params[3] & 0xff) as u8;
                let idx = summary.commands.len();
                summary.commands.push(ObservedDma {
                    spe,
                    is_get,
                    bytes,
                    issue_tb: v.time_tb,
                    complete_tb: None,
                });
                outstanding.entry(tag).or_default().push(idx);
                if is_get {
                    summary.gets += 1;
                } else {
                    summary.puts += 1;
                }
                summary.bytes += bytes;
                summary.sizes.add(bytes);
            }
            EventCode::SpeTagWaitEnd => {
                let mask = v.params[0] as u32;
                for tag in 0..32u8 {
                    if mask & (1 << tag) != 0 {
                        if let Some(idxs) = outstanding.remove(&tag) {
                            for i in idxs {
                                summary.commands[i].complete_tb = Some(v.time_tb);
                                if let Some(l) = summary.commands[i].latency_tb() {
                                    summary.latency_ticks.add(l);
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    summary
}

/// Matches DMA issue records to the tag waits that observe their
/// completion.
pub fn observe_dma(trace: &AnalyzedTrace) -> DmaSummary {
    observe_dma_over(trace.spes(), |spe| trace.core_events(TraceCore::Spe(spe)))
}

/// [`observe_dma`] generalized over the event source, so the full-
/// trace path and the index-backed windowed path
/// ([`Analysis::dma_window`](crate::session::Analysis::dma_window))
/// share one matching algorithm: `events_of(spe)` yields that SPE's
/// events in time order, and only what it yields is observed.
pub fn observe_dma_over<'a, S, I>(spes: S, mut events_of: impl FnMut(u8) -> I) -> DmaSummary
where
    S: IntoIterator<Item = u8>,
    I: IntoIterator<Item = &'a crate::analyze::GlobalEvent>,
{
    let mut summary = DmaSummary::default();
    for spe in spes {
        // Outstanding command indices per tag.
        let mut outstanding: HashMap<u8, Vec<usize>> = HashMap::new();
        for e in events_of(spe) {
            match e.code {
                EventCode::SpeDmaGet | EventCode::SpeDmaPut => {
                    let is_get = e.code == EventCode::SpeDmaGet;
                    let bytes = e.params[2];
                    let tag = (e.params[3] & 0xff) as u8;
                    let idx = summary.commands.len();
                    summary.commands.push(ObservedDma {
                        spe,
                        is_get,
                        bytes,
                        issue_tb: e.time_tb,
                        complete_tb: None,
                    });
                    outstanding.entry(tag).or_default().push(idx);
                    if is_get {
                        summary.gets += 1;
                    } else {
                        summary.puts += 1;
                    }
                    summary.bytes += bytes;
                    summary.sizes.add(bytes);
                }
                EventCode::SpeTagWaitEnd => {
                    let mask = e.params[0] as u32;
                    for tag in 0..32u8 {
                        if mask & (1 << tag) != 0 {
                            if let Some(idxs) = outstanding.remove(&tag) {
                                for i in idxs {
                                    summary.commands[i].complete_tb = Some(e.time_tb);
                                    if let Some(l) = summary.commands[i].latency_tb() {
                                        summary.latency_ticks.add(l);
                                    }
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::GlobalEvent;
    use pdt::{TraceHeader, VERSION};

    fn ev(t: u64, spe: u8, code: EventCode, params: Vec<u64>) -> GlobalEvent {
        GlobalEvent {
            time_tb: t,
            core: TraceCore::Spe(spe),
            code,
            params,
            stream_seq: t,
        }
    }

    #[test]
    fn dense_tally_matches_a_hash_count() {
        let all: Vec<EventCode> = (0..=u16::MAX).filter_map(EventCode::from_raw).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let codes: Vec<EventCode> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Skewed so some codes never occur.
                all[(state % all.len() as u64) as usize % (all.len() - 3)]
            })
            .collect();
        let mut expected = HashMap::new();
        for &c in &codes {
            *expected.entry(c).or_insert(0u64) += 1;
        }
        let counts = EventCounts::tally(codes.iter().copied());
        assert_eq!(counts.counts, expected);
        assert_eq!(counts.total(), codes.len() as u64);
        assert_eq!(EventCounts::tally([]), EventCounts::default());
    }

    fn trace(events: Vec<GlobalEvent>) -> AnalyzedTrace {
        AnalyzedTrace {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: 1,
                num_spes: 2,
                core_hz: 3_200_000_000,
                timebase_divider: 120,
                dec_start: u32::MAX,
                group_mask: u32::MAX,
                spe_buffer_bytes: 2048,
            },
            events,
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        }
    }

    #[test]
    fn dma_issue_matches_to_covering_wait() {
        use EventCode::*;
        let t = trace(vec![
            ev(0, 0, SpeCtxStart, vec![0]),
            ev(10, 0, SpeDmaGet, vec![0x1000, 0, 4096, 2]),
            ev(12, 0, SpeDmaPut, vec![0x2000, 0, 128, 3]),
            ev(20, 0, SpeTagWaitBegin, vec![0b1100, 0]),
            ev(50, 0, SpeTagWaitEnd, vec![0b1100]),
            ev(90, 0, SpeStop, vec![0]),
        ]);
        let d = observe_dma(&t);
        assert_eq!(d.gets, 1);
        assert_eq!(d.puts, 1);
        assert_eq!(d.bytes, 4224);
        assert_eq!(d.commands.len(), 2);
        assert_eq!(d.commands[0].latency_tb(), Some(40));
        assert_eq!(d.commands[1].latency_tb(), Some(38));
        assert!(d.observed_bytes_per_tick() > 0.0);
    }

    #[test]
    fn unwaited_dma_has_no_latency() {
        use EventCode::*;
        let t = trace(vec![
            ev(0, 0, SpeCtxStart, vec![0]),
            ev(10, 0, SpeDmaGet, vec![0x1000, 0, 4096, 2]),
            ev(90, 0, SpeStop, vec![0]),
        ]);
        let d = observe_dma(&t);
        assert_eq!(d.commands[0].complete_tb, None);
        assert_eq!(d.latency_ticks.count(), 0);
        assert_eq!(d.sizes.count(), 1);
    }

    #[test]
    fn stats_aggregate_per_spe_and_imbalance() {
        use EventCode::*;
        let t = trace(vec![
            // SPE0: 100 ticks active, 40 in dma wait.
            ev(0, 0, SpeCtxStart, vec![0]),
            ev(10, 0, SpeTagWaitBegin, vec![1, 0]),
            ev(50, 0, SpeTagWaitEnd, vec![1]),
            ev(100, 0, SpeStop, vec![0]),
            // SPE1: 100 ticks active, all compute.
            ev(0, 1, SpeCtxStart, vec![0]),
            ev(100, 1, SpeStop, vec![0]),
        ]);
        let s = compute_stats(&t);
        assert_eq!(s.spes.len(), 2);
        let s0 = s.spe(0).unwrap();
        assert_eq!(s0.dma_wait_tb, 40);
        assert_eq!(s0.compute_tb, 60);
        assert!((s0.utilization - 0.6).abs() < 1e-12);
        let s1 = s.spe(1).unwrap();
        assert!((s1.utilization - 1.0).abs() < 1e-12);
        assert!((s.mean_utilization() - 0.8).abs() < 1e-12);
        // Imbalance: compute 60 vs 100 → max/mean = 100/80 = 1.25.
        assert!((s.imbalance() - 1.25).abs() < 1e-12);
        assert_eq!(s.duration_tb, 100);
        assert_eq!(s.counts.get(SpeCtxStart), 2);
        assert_eq!(s.counts.total(), 6);
    }

    #[test]
    fn columnar_stats_match_row_stats() {
        use EventCode::*;
        let t = trace(vec![
            ev(0, 0, SpeCtxStart, vec![0]),
            ev(10, 0, SpeDmaGet, vec![0x1000, 0, 4096, 2]),
            ev(12, 0, SpeDmaPut, vec![0x2000, 0, 128, 3]),
            ev(20, 0, SpeTagWaitBegin, vec![0b1100, 0]),
            ev(50, 0, SpeTagWaitEnd, vec![0b1100]),
            ev(90, 0, SpeStop, vec![0]),
            ev(0, 1, SpeCtxStart, vec![1]),
            ev(30, 1, SpeDmaGet, vec![0, 0, 2048, 5]),
            ev(100, 1, SpeStop, vec![0]),
        ]);
        let cols = ColumnarTrace::from_analyzed(&t);
        let iv = build_intervals(&t);
        assert_eq!(compute_stats_columns(&cols, &iv), compute_stats(&t));
        assert_eq!(observe_dma_columns(&cols), observe_dma(&t));
    }

    #[test]
    fn sorted_counts_descend() {
        use EventCode::*;
        let t = trace(vec![
            ev(0, 0, SpeUser, vec![1, 0, 0]),
            ev(1, 0, SpeUser, vec![1, 0, 0]),
            ev(2, 0, SpeStop, vec![0]),
        ]);
        let s = compute_stats(&t);
        let sorted = s.counts.sorted();
        assert_eq!(sorted[0], (SpeUser, 2));
        assert_eq!(sorted[1], (SpeStop, 1));
    }
}
