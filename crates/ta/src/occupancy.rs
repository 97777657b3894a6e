//! MFC queue-occupancy analysis: how many DMA commands each SPE keeps
//! in flight over time, reconstructed from trace events alone.
//!
//! A command becomes outstanding at its issue record and is retired at
//! the first `SpeTagWaitEnd` whose mask covers its tag (the analyzer
//! cannot see individual completions — neither could the original TA —
//! so this is the *observable* outstanding count, an upper bound).
//! Deep sustained occupancy is how effective double buffering looks in
//! a trace; an occupancy stuck at 0/1 is the single-buffered
//! anti-pattern the paper's use case fixes.
//!
//! A wait mask names tags 0–31, so a command whose tag byte is 32 or
//! more (only damaged params carry one) is never retired, as in the
//! DMA statistics and the lint. The session's series is a fold over
//! each SPE's `hb::SpeDma` replay; the row function [`dma_occupancy`]
//! keeps its own per-tag counts and is the differential oracle.

use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;
use crate::exec::{map_indexed, Parallelism};
use crate::hb::{spe_segments, SpeDma};

/// A step in an occupancy time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyStep {
    /// When the outstanding count changed (ticks).
    pub time_tb: u64,
    /// The outstanding command count from this time on.
    pub outstanding: u32,
}

/// One SPE's occupancy series and summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeOccupancy {
    /// The SPE.
    pub spe: u8,
    /// The step series, in time order.
    pub steps: Vec<OccupancyStep>,
    /// Maximum observed outstanding count.
    pub peak: u32,
    /// Time-weighted mean outstanding count over the series' span.
    pub mean: f64,
}

impl SpeOccupancy {
    /// Builds the summary (peak, time-weighted mean) from a step
    /// series. The mean weights each step by the time to the next
    /// step, so it covers the span from the first to the last step.
    pub fn from_steps(spe: u8, steps: Vec<OccupancyStep>) -> SpeOccupancy {
        let peak = steps.iter().map(|s| s.outstanding).max().unwrap_or(0);
        let (mut area, mut span) = (0f64, 0u64);
        for w in steps.windows(2) {
            let dt = w[1].time_tb - w[0].time_tb;
            area += w[0].outstanding as f64 * dt as f64;
            span += dt;
        }
        let mean = if span == 0 { 0.0 } else { area / span as f64 };
        SpeOccupancy {
            spe,
            steps,
            peak,
            mean,
        }
    }

    /// Restricts the series to the half-open window `[t0, t1)` by
    /// binary search, with a carry-in step at `t0` holding the
    /// outstanding count in force when the window opens. Peak and mean
    /// are recomputed over the windowed series.
    pub fn window(&self, t0: u64, t1: u64) -> SpeOccupancy {
        let t1 = t1.max(t0);
        let lo = self.steps.partition_point(|s| s.time_tb < t0);
        let hi = self.steps.partition_point(|s| s.time_tb < t1);
        let mut steps = Vec::with_capacity(hi - lo + 1);
        let opens_mid_series = lo > 0 && t1 > t0;
        let first_is_at_t0 = self.steps.get(lo).is_some_and(|s| s.time_tb == t0) && lo < hi;
        if opens_mid_series && !first_is_at_t0 {
            steps.push(OccupancyStep {
                time_tb: t0,
                outstanding: self.steps[lo - 1].outstanding,
            });
        }
        steps.extend_from_slice(&self.steps[lo..hi]);
        Self::from_steps(self.spe, steps)
    }

    /// Fraction of the observed span with at least `k` commands
    /// outstanding.
    pub fn fraction_at_least(&self, k: u32) -> f64 {
        let (mut covered, mut total) = (0u64, 0u64);
        for w in self.steps.windows(2) {
            let dt = w[1].time_tb - w[0].time_tb;
            total += dt;
            if w[0].outstanding >= k {
                covered += dt;
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }
}

/// Builds the occupancy series for every SPE in the trace: the row
/// oracle of the session's columnar series.
pub fn dma_occupancy(trace: &AnalyzedTrace) -> Vec<SpeOccupancy> {
    let mut out = Vec::new();
    for spe in trace.spes() {
        let mut per_tag = [0u32; 32];
        let mut outstanding = 0u32;
        let mut steps = Vec::new();
        let mut peak = 0u32;
        for e in trace.core_events(TraceCore::Spe(spe)) {
            match e.code {
                EventCode::SpeDmaGet | EventCode::SpeDmaPut => {
                    // `[ea, lsa, size, tag]`; a damaged record may be short
                    // and then counts nowhere, as in the lint's replay.
                    let Some(&tag) = e.params.get(3) else {
                        continue;
                    };
                    if let Some(n) = per_tag.get_mut((tag & 0xff) as usize) {
                        *n += 1;
                    }
                    outstanding += 1;
                }
                EventCode::SpeTagWaitEnd => {
                    let mask = e.params.first().copied().unwrap_or(0) as u32;
                    for (t, count) in per_tag.iter_mut().enumerate() {
                        if mask & (1 << t) != 0 {
                            outstanding -= *count;
                            *count = 0;
                        }
                    }
                }
                _ => continue,
            }
            peak = peak.max(outstanding);
            steps.push(OccupancyStep {
                time_tb: e.time_tb,
                outstanding,
            });
        }
        if steps.is_empty() {
            continue;
        }
        debug_assert_eq!(peak, steps.iter().map(|s| s.outstanding).max().unwrap_or(0));
        out.push(SpeOccupancy::from_steps(spe, steps));
    }
    out
}

/// [`dma_occupancy`] over the columnar store, with the per-SPE lanes
/// fanned out through [`map_indexed`]; lanes assemble in SPE order, so
/// the result equals the sequential build. The session uses this path;
/// the row function remains the differential oracle. A lane is folded
/// from the SPE's replay: each issue steps up by one, and each
/// `SpeTagWaitEnd` steps down by the transfers it was the first to
/// cover (a wait that covers nothing still steps). An SPE with no DMA
/// or tag-wait event has no lane.
pub fn dma_occupancy_columns_par(trace: &ColumnarTrace, par: Parallelism) -> Vec<SpeOccupancy> {
    let segs = spe_segments(trace);
    map_indexed(par, segs.len(), |i| {
        let (spe, stream, seg) = segs[i].clone();
        let codes = &trace.events.codes()[seg.clone()];
        let times = &trace.events.times()[seg.clone()];
        let transfers = SpeDma::replay(trace, spe, stream, seg).transfers;
        // Issue positions ascend; the wait positions, one per waited
        // transfer, are sorted so each wait-end takes its run of them.
        let mut issues = transfers.iter().map(|t| t.pos).peekable();
        let mut waits: Vec<u32> = (transfers.iter().filter(|t| t.waited()))
            .map(|t| t.wait_pos)
            .collect();
        waits.sort_unstable();
        let mut waits = waits.into_iter().peekable();
        let mut outstanding = 0u32;
        let mut steps = Vec::new();
        for (pos, (&code, &time_tb)) in (0u32..).zip(codes.iter().zip(times)) {
            if issues.next_if_eq(&pos).is_some() {
                outstanding += 1;
            } else if code == EventCode::SpeTagWaitEnd {
                while waits.next_if_eq(&pos).is_some() {
                    outstanding -= 1;
                }
            } else {
                continue;
            }
            steps.push(OccupancyStep {
                time_tb,
                outstanding,
            });
        }
        (!steps.is_empty()).then(|| SpeOccupancy::from_steps(spe, steps))
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::GlobalEvent;
    use pdt::{TraceHeader, VERSION};

    fn ev(t: u64, code: EventCode, params: Vec<u64>) -> GlobalEvent {
        GlobalEvent {
            time_tb: t,
            core: TraceCore::Spe(0),
            code,
            params,
            stream_seq: t,
        }
    }

    fn trace(events: Vec<GlobalEvent>) -> AnalyzedTrace {
        AnalyzedTrace {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: 1,
                num_spes: 1,
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
    fn occupancy_tracks_issue_and_retire() {
        use EventCode::*;
        let t = trace(vec![
            ev(0, SpeDmaGet, vec![0, 0, 4096, 0]),
            ev(10, SpeDmaGet, vec![0, 0, 4096, 1]),
            ev(20, SpeTagWaitEnd, vec![0b01]), // retires tag 0
            ev(30, SpeDmaPut, vec![0, 0, 4096, 1]),
            // Tag byte 33 lies outside every wait mask: never retired,
            // not aliased to tag 1.
            ev(35, SpeDmaGet, vec![0, 0, 4096, 33]),
            ev(40, SpeTagWaitEnd, vec![0b10]), // retires both tag-1 cmds
            ev(50, SpeTagWaitEnd, vec![0b100]), // covers nothing: still a step
        ]);
        let occ = dma_occupancy(&t);
        assert_eq!(
            occ,
            dma_occupancy_columns_par(&ColumnarTrace::from_analyzed(&t), Parallelism::Serial)
        );
        assert_eq!(occ.len(), 1);
        let s = &occ[0];
        let series: Vec<(u64, u32)> = s.steps.iter().map(|x| (x.time_tb, x.outstanding)).collect();
        assert_eq!(
            series,
            vec![(0, 1), (10, 2), (20, 1), (30, 2), (35, 3), (40, 1), (50, 1)]
        );
        assert_eq!(s.peak, 3);
        // Mean over [0,50): (1*10 + 2*10 + 1*10 + 2*5 + 3*5 + 1*10)/50 = 1.5
        assert!((s.mean - 1.5).abs() < 1e-12);
        assert!((s.fraction_at_least(2) - 0.4).abs() < 1e-12);
        assert!((s.fraction_at_least(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_carries_in_the_outstanding_count() {
        use EventCode::*;
        let t = trace(vec![
            ev(0, SpeDmaGet, vec![0, 0, 4096, 0]),
            ev(10, SpeDmaGet, vec![0, 0, 4096, 1]),
            ev(20, SpeTagWaitEnd, vec![0b01]),
            ev(30, SpeDmaPut, vec![0, 0, 4096, 1]),
            ev(40, SpeTagWaitEnd, vec![0b10]),
        ]);
        let full = &dma_occupancy(&t)[0];
        // Window opening mid-series: carry-in step at t0 with the
        // count in force (2 from the step at t=10).
        let w = full.window(15, 40);
        let series: Vec<(u64, u32)> = w.steps.iter().map(|x| (x.time_tb, x.outstanding)).collect();
        assert_eq!(series, vec![(15, 2), (20, 1), (30, 2)]);
        assert_eq!(w.peak, 2);
        // Window starting exactly on a step: no duplicate carry-in.
        let exact = full.window(10, 40);
        assert_eq!(
            exact.steps[0],
            OccupancyStep {
                time_tb: 10,
                outstanding: 2
            }
        );
        assert_eq!(exact.steps.len(), 3);
        // Degenerate windows are empty.
        assert!(full.window(15, 15).steps.is_empty());
        assert!(full.window(30, 20).steps.is_empty());
        // Past the series end the last count (0 here) carries forward.
        let past = full.window(100, 200);
        assert_eq!(
            past.steps,
            vec![OccupancyStep {
                time_tb: 100,
                outstanding: 0
            }]
        );
        assert_eq!(past.peak, 0);
        // Full-span window reproduces the series.
        assert_eq!(full.window(0, u64::MAX), *full);
    }

    #[test]
    fn columnar_occupancy_matches_row_occupancy() {
        use EventCode::*;
        let t = trace(vec![
            ev(0, SpeDmaGet, vec![0, 0, 4096, 0]),
            ev(10, SpeDmaGet, vec![0, 0, 4096, 1]),
            ev(20, SpeTagWaitEnd, vec![0b01]),
            ev(30, SpeDmaPut, vec![0, 0, 4096, 1]),
            ev(40, SpeTagWaitEnd, vec![0b10]),
        ]);
        let cols = ColumnarTrace::from_analyzed(&t);
        assert_eq!(
            dma_occupancy_columns_par(&cols, Parallelism::Workers(2)),
            dma_occupancy(&t)
        );
        let empty = ColumnarTrace::from_analyzed(&trace(vec![]));
        assert!(dma_occupancy_columns_par(&empty, Parallelism::Serial).is_empty());
    }

    #[test]
    fn empty_or_dma_free_trace_yields_nothing() {
        use EventCode::*;
        assert!(dma_occupancy(&trace(vec![])).is_empty());
        let t = trace(vec![ev(0, SpeUser, vec![1, 0, 0])]);
        assert!(dma_occupancy(&t).is_empty());
    }

    #[test]
    fn double_buffering_shows_deeper_occupancy_than_single() {
        use EventCode::*;
        // Single-buffered: issue, wait, issue, wait.
        let single = trace(vec![
            ev(0, SpeDmaGet, vec![0, 0, 4096, 0]),
            ev(10, SpeTagWaitEnd, vec![1]),
            ev(20, SpeDmaGet, vec![0, 0, 4096, 0]),
            ev(30, SpeTagWaitEnd, vec![1]),
        ]);
        // Double-buffered: two outstanding most of the time.
        let double = trace(vec![
            ev(0, SpeDmaGet, vec![0, 0, 4096, 0]),
            ev(1, SpeDmaGet, vec![0, 0, 4096, 1]),
            ev(10, SpeTagWaitEnd, vec![0b01]),
            ev(11, SpeDmaGet, vec![0, 0, 4096, 0]),
            ev(20, SpeTagWaitEnd, vec![0b10]),
            ev(21, SpeDmaGet, vec![0, 0, 4096, 1]),
            ev(30, SpeTagWaitEnd, vec![0b11]),
        ]);
        let s = &dma_occupancy(&single)[0];
        let d = &dma_occupancy(&double)[0];
        assert!(d.mean > s.mean, "double {} vs single {}", d.mean, s.mean);
        assert!(d.peak >= 2 && s.peak == 1);
    }
}
