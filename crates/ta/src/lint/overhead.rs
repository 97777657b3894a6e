//! `overhead-hotspot`: instrumentation cost versus interval length.
//!
//! Tracing is not free — the paper prices an SPE event at ~100 ns —
//! and a loop that records events densely enough spends a meaningful
//! fraction of its time in the tracer, skewing exactly the intervals
//! being measured. This rule prices every SPE event with the default
//! [`OverheadModel`], converts cycles to timebase ticks with the
//! trace's own divider, and flags compute intervals whose estimated
//! instrumentation share exceeds the configured threshold.

use pdt::{OverheadModel, TraceCore};

use crate::intervals::ActivityKind;

use super::{check_by_shards, Anchor, Diagnostic, Lint, LintContext, Severity};

pub(super) struct OverheadHotspot;

impl Lint for OverheadHotspot {
    fn id(&self) -> &'static str {
        "overhead-hotspot"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn docs(&self) -> &'static str {
        "Estimated instrumentation overhead (default cost model, priced per \
         recorded event) exceeds the configured fraction of a compute \
         interval — the measurement is perturbing what it measures."
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        check_by_shards(self, ctx)
    }

    fn shards(&self, ctx: &LintContext<'_>) -> usize {
        ctx.intervals.len()
    }

    fn check_shard(&self, ctx: &LintContext<'_>, shard: usize) -> Vec<Diagnostic> {
        let model = OverheadModel::default();
        let divider = ctx.trace.header.timebase_divider.max(1) as f64;
        let mut out = Vec::new();
        {
            let lane = &ctx.intervals[shard];
            let cols = &ctx.trace.events;
            let offs = ctx.trace.core_slice(TraceCore::Spe(lane.spe));
            // Prefix sums of per-event cost in ticks, over the lane's
            // time-sorted events, so each interval resolves with two
            // binary searches. Reads the time and params columns
            // directly — no per-event view materialization.
            let times = &cols.times()[offs.clone()];
            let mut prefix = Vec::with_capacity(offs.len() + 1);
            prefix.push(0f64);
            for o in offs.clone() {
                let cycles = model.spe_cost(cols.params(o).len(), false);
                prefix.push(prefix.last().unwrap() + cycles as f64 / divider);
            }
            for iv in &lane.intervals {
                if iv.kind != ActivityKind::Compute {
                    continue;
                }
                let len = iv.end_tb.saturating_sub(iv.start_tb);
                if len < ctx.config.min_overhead_ticks {
                    continue;
                }
                let lo = times.partition_point(|&t| t < iv.start_tb);
                let hi = times.partition_point(|&t| t < iv.end_tb);
                let overhead_tb = prefix[hi] - prefix[lo];
                let frac = overhead_tb / len as f64;
                if frac > ctx.config.overhead_threshold {
                    let anchor = if lo < offs.len() {
                        Anchor::at_view(&cols.view(offs.start + lo))
                    } else {
                        Anchor {
                            core: TraceCore::Spe(lane.spe),
                            seq: 0,
                            time_tb: iv.start_tb,
                        }
                    };
                    out.push(Diagnostic {
                        rule: self.id(),
                        severity: self.severity(),
                        suspect: false,
                        anchor: Some(anchor),
                        related: Vec::new(),
                        message: format!(
                            "SPE{}: ~{:.0}% of compute interval [{}, {}) is \
                             instrumentation overhead ({} events in {} ticks)",
                            lane.spe,
                            frac * 100.0,
                            iv.start_tb,
                            iv.end_tb,
                            hi - lo,
                            len,
                        ),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent};
    use crate::intervals::{Interval, SpeIntervals};
    use pdt::{EventCode, TraceHeader, VERSION};

    fn trace_of(events: Vec<GlobalEvent>) -> AnalyzedTrace {
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

    fn lane(intervals: Vec<Interval>) -> SpeIntervals {
        SpeIntervals {
            spe: 0,
            start_tb: 0,
            stop_tb: 100_000,
            intervals,
        }
    }

    fn run(
        t: &AnalyzedTrace,
        lanes: &[SpeIntervals],
        config: &super::super::LintConfig,
    ) -> Vec<Diagnostic> {
        let cols = crate::columns::ColumnarTrace::from_analyzed(t);
        let loss = crate::loss::LossReport::default();
        let ctx = LintContext {
            trace: &cols,
            intervals: lanes,
            loss: &loss,
            suspects: &[],
            edges: &[],
            config,
            dma: &crate::hb::DmaReplay::new(&cols),
        };
        OverheadHotspot.check(&ctx)
    }

    #[test]
    fn dense_user_events_in_a_compute_interval_are_flagged() {
        // 200 SpeUser events (3 params → 186 cycles ≈ 1.55 ticks each)
        // inside a 1000-tick compute interval: ~31% overhead.
        let mut events = Vec::new();
        for k in 0..200u64 {
            events.push(GlobalEvent {
                time_tb: 1000 + k * 5,
                core: TraceCore::Spe(0),
                code: EventCode::SpeUser,
                params: vec![1, k, 0],
                stream_seq: k,
            });
        }
        let t = trace_of(events);
        let lanes = [lane(vec![Interval {
            start_tb: 1000,
            end_tb: 2000,
            kind: ActivityKind::Compute,
        }])];
        let config = super::super::LintConfig::default();
        let d = run(&t, &lanes, &config);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("instrumentation overhead"));
        assert_eq!(d[0].anchor.unwrap().time_tb, 1000);
    }

    #[test]
    fn sparse_events_and_short_intervals_stay_quiet() {
        let events = vec![GlobalEvent {
            time_tb: 1500,
            core: TraceCore::Spe(0),
            code: EventCode::SpeUser,
            params: vec![1, 0, 0],
            stream_seq: 0,
        }];
        let t = trace_of(events);
        let config = super::super::LintConfig::default();
        // One event in 1000 ticks: ~0.2%.
        let lanes = [lane(vec![Interval {
            start_tb: 1000,
            end_tb: 2000,
            kind: ActivityKind::Compute,
        }])];
        assert!(run(&t, &lanes, &config).is_empty());
        // A 10-tick interval is below min_overhead_ticks even though
        // the ratio would be huge.
        let lanes = [lane(vec![Interval {
            start_tb: 1498,
            end_tb: 1508,
            kind: ActivityKind::Compute,
        }])];
        assert!(run(&t, &lanes, &config).is_empty());
        // Wait intervals are never priced.
        let lanes = [lane(vec![Interval {
            start_tb: 1000,
            end_tb: 2000,
            kind: ActivityKind::DmaWait,
        }])];
        assert!(run(&t, &lanes, &config).is_empty());
    }
}
