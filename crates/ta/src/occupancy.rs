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

use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;

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

/// Builds the occupancy series for every SPE in the trace.
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
                    let tag = (tag & 0xff) as usize % 32;
                    per_tag[tag] += 1;
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

/// [`dma_occupancy`] over the columnar store: the same issue/retire
/// state machine, walking each SPE's memoized offset slice. The
/// session uses this path; the row function remains the differential
/// oracle.
pub fn dma_occupancy_columns(trace: &ColumnarTrace) -> Vec<SpeOccupancy> {
    dma_occupancy_columns_par(trace, crate::exec::Parallelism::Serial)
}

/// [`dma_occupancy_columns`] with the per-SPE lanes fanned out through
/// [`crate::exec::map_indexed`]; lanes assemble in SPE order, so the
/// result equals the sequential build.
pub(crate) fn dma_occupancy_columns_par(
    trace: &ColumnarTrace,
    par: crate::exec::Parallelism,
) -> Vec<SpeOccupancy> {
    let spes = trace.spes();
    crate::exec::map_indexed(par, spes.len(), |i| {
        spe_dma_occupancy_columns(trace, spes[i])
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One SPE's lane of [`dma_occupancy_columns`]: the independent shard
/// unit the parallel product scheduler fans out per SPE. `None` when
/// the SPE issued no DMA or tag-wait events.
pub(crate) fn spe_dma_occupancy_columns(trace: &ColumnarTrace, spe: u8) -> Option<SpeOccupancy> {
    let mut per_tag = [0u32; 32];
    let mut outstanding = 0u32;
    let mut steps = Vec::new();
    for v in trace.core_events(TraceCore::Spe(spe)) {
        match v.code {
            EventCode::SpeDmaGet | EventCode::SpeDmaPut => {
                // `[ea, lsa, size, tag]`; a damaged record may be short
                // and then counts nowhere, as in the lint's replay.
                let Some(&tag) = v.params.get(3) else {
                    continue;
                };
                let tag = (tag & 0xff) as usize % 32;
                per_tag[tag] += 1;
                outstanding += 1;
            }
            EventCode::SpeTagWaitEnd => {
                let mask = v.params.first().copied().unwrap_or(0) as u32;
                for (t, count) in per_tag.iter_mut().enumerate() {
                    if mask & (1 << t) != 0 {
                        outstanding -= *count;
                        *count = 0;
                    }
                }
            }
            _ => continue,
        }
        steps.push(OccupancyStep {
            time_tb: v.time_tb,
            outstanding,
        });
    }
    if steps.is_empty() {
        return None;
    }
    Some(SpeOccupancy::from_steps(spe, steps))
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
            ev(40, SpeTagWaitEnd, vec![0b10]), // retires both tag-1 cmds
        ]);
        let occ = dma_occupancy(&t);
        assert_eq!(occ.len(), 1);
        let s = &occ[0];
        let series: Vec<(u64, u32)> = s.steps.iter().map(|x| (x.time_tb, x.outstanding)).collect();
        assert_eq!(series, vec![(0, 1), (10, 2), (20, 1), (30, 2), (40, 0)]);
        assert_eq!(s.peak, 2);
        // Mean over [0,40): (1*10 + 2*10 + 1*10 + 2*10)/40 = 1.5
        assert!((s.mean - 1.5).abs() < 1e-12);
        assert!((s.fraction_at_least(2) - 0.5).abs() < 1e-12);
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
        assert_eq!(dma_occupancy_columns(&cols), dma_occupancy(&t));
        let empty = ColumnarTrace::from_analyzed(&trace(vec![]));
        assert!(dma_occupancy_columns(&empty).is_empty());
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
