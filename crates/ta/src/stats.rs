//! Per-core and DMA statistics derived from a trace.
//!
//! These are the numbers the Trace Analyzer's summary views show: per-
//! SPE activity breakdowns and utilization, and DMA traffic statistics
//! with observed completion latencies. Everything here is computed from
//! trace bytes alone; integration tests cross-check it against the
//! simulator's ground truth.
//!
//! The session computes the columnar functions. Their DMA figures are a
//! fold over each SPE's `hb::SpeDma` replay, the one place that matches
//! issues to the tag waits that cover them. The row functions
//! ([`compute_stats`], [`observe_dma`]) keep their own tag matching and
//! are the differential oracles the tests hold the columns to.

use std::collections::HashMap;
use std::ops::Range;

use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;
use crate::exec::{map_indexed, Parallelism};
use crate::hb::{spe_segments, AccessDir, SpeDma};
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

/// DMA traffic summary for the whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DmaSummary {
    /// GET commands.
    pub gets: u64,
    /// PUT commands.
    pub puts: u64,
    /// Total bytes issued.
    pub bytes: u64,
    /// Latency histogram (ticks), over commands with observed
    /// completion.
    pub latency_ticks: Log2Histogram,
    /// Size histogram (bytes).
    pub sizes: Log2Histogram,
    /// Bytes of the commands with observed completion.
    completed_bytes: u64,
}

impl DmaSummary {
    /// Folds another summary in: every field is a commutative sum or
    /// histogram, so per-SPE shard summaries absorbed in any order
    /// reproduce the summary one sequential pass builds.
    pub(crate) fn absorb(&mut self, other: DmaSummary) {
        self.gets += other.gets;
        self.puts += other.puts;
        self.bytes += other.bytes;
        self.latency_ticks.merge(&other.latency_ticks);
        self.sizes.merge(&other.sizes);
        self.completed_bytes += other.completed_bytes;
    }

    /// Aggregate observed bandwidth in bytes per tick: total bytes of
    /// completed commands divided by the sum of their latencies.
    pub fn observed_bytes_per_tick(&self) -> f64 {
        let ticks = self.latency_ticks.sum();
        if ticks == 0 {
            0.0
        } else {
            self.completed_bytes as f64 / ticks as f64
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
/// from one walk of the code column and the DMA figures from each
/// SPE's replay, with no per-event allocation. The session uses this
/// path; the row functions remain the differential oracles.
pub fn compute_stats_columns(trace: &ColumnarTrace, intervals: &[SpeIntervals]) -> TraceStats {
    compute_stats_columns_par(trace, intervals, Parallelism::Serial)
}

/// [`compute_stats_columns`] with the DMA replay's per-SPE shards
/// fanned out through [`map_indexed`]. The counts walk
/// stays sequential (one pass over the code column); the result is
/// byte-identical to the serial build.
pub(crate) fn compute_stats_columns_par(
    trace: &ColumnarTrace,
    intervals: &[SpeIntervals],
    par: Parallelism,
) -> TraceStats {
    let spes = intervals.iter().map(SpeActivity::from_intervals).collect();

    let counts = EventCounts::tally(trace.events.codes().iter().copied());

    let dma = replay_dma(trace, &spe_segments(trace), par);
    TraceStats {
        spes,
        dma,
        counts,
        duration_tb: trace.end_tb().saturating_sub(trace.start_tb()),
    }
}

/// [`observe_dma`] over the columnar store: the DMA traffic of the SPE
/// segments `segs` ([`spe_segments`], whole or windowed). One
/// [`map_indexed`] shard per segment replays it, folds the transfers
/// and drops the replay. A transfer counts as a GET or a PUT, with its
/// bytes in the total and the sizes; a waited one adds its latency
/// (wait minus issue time) and completed bytes. So a window counts its
/// issues, completed only if the wait is inside too.
pub(crate) fn replay_dma(
    trace: &ColumnarTrace,
    segs: &[(u8, usize, Range<usize>)],
    par: Parallelism,
) -> DmaSummary {
    let times = trace.events.times();
    let parts = map_indexed(par, segs.len(), |i| {
        let (spe, stream, seg) = segs[i].clone();
        let mut s = DmaSummary::default();
        for t in &SpeDma::replay(trace, spe, stream, seg.clone()).transfers {
            match t.dir {
                AccessDir::Get => s.gets += 1,
                AccessDir::Put => s.puts += 1,
            }
            s.bytes += t.bytes;
            s.sizes.add(t.bytes);
            if t.waited() {
                let (issue, wait) = (seg.start + t.pos as usize, seg.start + t.wait_pos as usize);
                s.latency_ticks.add(times[wait] - times[issue]);
                s.completed_bytes += t.bytes;
            }
        }
        s
    });
    let mut summary = DmaSummary::default();
    for p in parts {
        summary.absorb(p);
    }
    summary
}

/// Matches DMA issue records to the tag waits that observe their
/// completion: the row oracle of the session's DMA statistics, with
/// its own per-tag queues. A tag-wait mask names tags 0–31, so a command on a
/// tag at or above 32, or one never waited on, counts in the traffic
/// totals and sizes but never in latency.
pub fn observe_dma(trace: &AnalyzedTrace) -> DmaSummary {
    let mut s = DmaSummary::default();
    // Outstanding `(issue_tb, bytes)` per tag, in issue order.
    let mut outstanding: [Vec<(u64, u64)>; 32] = Default::default();
    for spe in trace.spes() {
        // Tags are per SPE: the last SPE's open commands never complete.
        outstanding.iter_mut().for_each(Vec::clear);
        for e in trace.core_events(TraceCore::Spe(spe)) {
            match e.code {
                EventCode::SpeDmaGet | EventCode::SpeDmaPut => {
                    // `[ea, lsa, size, tag]`; a damaged record may be
                    // short and then counts nowhere, as in the replay.
                    let [_, _, bytes, tag, ..] = *e.params else {
                        continue;
                    };
                    if e.code == EventCode::SpeDmaGet {
                        s.gets += 1;
                    } else {
                        s.puts += 1;
                    }
                    s.bytes += bytes;
                    s.sizes.add(bytes);
                    if let Some(q) = outstanding.get_mut((tag & 0xff) as usize) {
                        q.push((e.time_tb, bytes));
                    }
                }
                EventCode::SpeTagWaitEnd => {
                    let mask = e.params.first().copied().unwrap_or(0) as u32;
                    for (tag, q) in outstanding.iter_mut().enumerate() {
                        if mask & (1 << tag) != 0 {
                            for (issue_tb, bytes) in q.drain(..) {
                                s.latency_ticks.add(e.time_tb - issue_tb);
                                s.completed_bytes += bytes;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    s
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
        // Latencies 40 (the GET) and 38 (the PUT).
        assert_eq!(d.latency_ticks.count(), 2);
        assert_eq!(d.latency_ticks.min(), Some(38));
        assert_eq!(d.latency_ticks.max(), Some(40));
        assert_eq!(d.observed_bytes_per_tick(), 4224.0 / 78.0);
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
        assert_eq!(d.gets, 1);
        assert_eq!(d.latency_ticks.count(), 0);
        assert_eq!(d.sizes.count(), 1);
        assert_eq!(d.observed_bytes_per_tick(), 0.0);
    }

    #[test]
    fn high_tags_and_unwaited_commands_count_as_traffic_only() {
        use EventCode::*;
        let all_tags = vec![u32::MAX as u64];
        let t = trace(vec![
            ev(0, 0, SpeCtxStart, vec![0]),
            // Tags 32 and 0x1ff lie outside every 32-bit wait mask.
            ev(10, 0, SpeDmaGet, vec![0, 0, 256, 32]),
            ev(11, 0, SpeDmaPut, vec![0, 0, 512, 0x1ff]),
            ev(14, 0, SpeDmaGet, vec![0, 0, 1024, 2]),
            ev(30, 0, SpeTagWaitEnd, all_tags.clone()),
            // Issued after SPE0's last wait: never waited on.
            ev(40, 0, SpeDmaPut, vec![0, 0, 64, 5]),
            ev(90, 0, SpeStop, vec![0]),
            // SPE1's wait completes nothing of SPE0's.
            ev(0, 1, SpeCtxStart, vec![0]),
            ev(50, 1, SpeTagWaitEnd, all_tags),
            ev(90, 1, SpeStop, vec![0]),
        ]);
        let rows = observe_dma(&t);
        let cols = ColumnarTrace::from_analyzed(&t);
        let cols = replay_dma(&cols, &spe_segments(&cols), Parallelism::Workers(2));
        for d in [rows, cols] {
            assert_eq!((d.gets, d.puts), (2, 2));
            assert_eq!(d.bytes, 256 + 512 + 1024 + 64);
            assert_eq!(d.sizes.count(), 4);
            assert_eq!(d.latency_ticks.count(), 1);
            assert_eq!(d.latency_ticks.sum(), 16);
            assert_eq!(d.observed_bytes_per_tick(), 1024.0 / 16.0);
        }
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
        let segs = spe_segments(&cols);
        assert_eq!(
            replay_dma(&cols, &segs, Parallelism::Serial),
            observe_dma(&t)
        );
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
