//! Before/after trace comparison.
//!
//! The Trace Analyzer's workflow is iterative: trace, fix, trace again,
//! compare. [`compare_traces`] lines up two traces of the same
//! application and reports what changed — runtime, per-SPE activity
//! breakdowns, DMA behaviour and event demography — which is how the
//! paper's use cases present their fixes.

use crate::session::Analysis;

/// Per-SPE before/after deltas (milliseconds unless noted).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeDelta {
    /// The SPE.
    pub spe: u8,
    /// Active time, before.
    pub before_active_ms: f64,
    /// Active time, after.
    pub after_active_ms: f64,
    /// DMA-wait fraction, before (0..=1).
    pub before_dma_frac: f64,
    /// DMA-wait fraction, after.
    pub after_dma_frac: f64,
    /// Utilization, before.
    pub before_util: f64,
    /// Utilization, after.
    pub after_util: f64,
}

/// The comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Whole-trace span before, ms.
    pub before_ms: f64,
    /// Whole-trace span after, ms.
    pub after_ms: f64,
    /// `before / after`.
    pub speedup: f64,
    /// Imbalance before.
    pub before_imbalance: f64,
    /// Imbalance after.
    pub after_imbalance: f64,
    /// SPEs present in both traces.
    pub spes: Vec<SpeDelta>,
    /// Total events before/after.
    pub events: (u64, u64),
    /// DMA bytes before/after.
    pub dma_bytes: (u64, u64),
}

impl Comparison {
    /// Renders a comparison table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "runtime: {:.3} ms -> {:.3} ms ({:.2}x)\n\
             imbalance: {:.2} -> {:.2}\n\
             events: {} -> {}, DMA bytes: {} -> {}\n\n",
            self.before_ms,
            self.after_ms,
            self.speedup,
            self.before_imbalance,
            self.after_imbalance,
            self.events.0,
            self.events.1,
            self.dma_bytes.0,
            self.dma_bytes.1
        );
        out.push_str(&format!(
            "{:<5} {:>12} {:>12} {:>10} {:>10} {:>8} {:>8}\n",
            "spe", "active(ms)", "active'(ms)", "dma%", "dma%'", "util", "util'"
        ));
        for d in &self.spes {
            out.push_str(&format!(
                "SPE{:<2} {:>12.3} {:>12.3} {:>9.1}% {:>9.1}% {:>7.1}% {:>7.1}%\n",
                d.spe,
                d.before_active_ms,
                d.after_active_ms,
                d.before_dma_frac * 100.0,
                d.after_dma_frac * 100.0,
                d.before_util * 100.0,
                d.after_util * 100.0
            ));
        }
        out
    }
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Compares two sessions of the same application, from their
/// memoized [`stats`](Analysis::stats).
pub fn compare_traces(before: &Analysis, after: &Analysis) -> Comparison {
    let (sb, sa) = (before.stats(), after.stats());
    let (before, after) = (before.columns(), after.columns());
    let before_ms = before.tb_to_ns(sb.duration_tb) / 1e6;
    let after_ms = after.tb_to_ns(sa.duration_tb) / 1e6;
    let mut spes = Vec::new();
    for b in &sb.spes {
        if let Some(a) = sa.spe(b.spe) {
            spes.push(SpeDelta {
                spe: b.spe,
                before_active_ms: before.tb_to_ns(b.active_tb) / 1e6,
                after_active_ms: after.tb_to_ns(a.active_tb) / 1e6,
                before_dma_frac: frac(b.dma_wait_tb, b.active_tb),
                after_dma_frac: frac(a.dma_wait_tb, a.active_tb),
                before_util: b.utilization,
                after_util: a.utilization,
            });
        }
    }
    Comparison {
        before_ms,
        after_ms,
        speedup: if after_ms > 0.0 {
            before_ms / after_ms
        } else {
            0.0
        },
        before_imbalance: sb.imbalance(),
        after_imbalance: sa.imbalance(),
        spes,
        events: (sb.counts.total(), sa.counts.total()),
        dma_bytes: (sb.dma.bytes, sa.dma.bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent};
    use pdt::{EventCode, TraceCore, TraceHeader, VERSION};

    fn trace(active: u64, dma_wait: u64) -> AnalyzedTrace {
        use EventCode::*;
        let mk = |t: u64, code, params: Vec<u64>| GlobalEvent {
            time_tb: t,
            core: TraceCore::Spe(0),
            code,
            params,
            stream_seq: t,
        };
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
            events: vec![
                mk(0, SpeCtxStart, vec![0]),
                mk(5, SpeDmaGet, vec![0, 0, 4096, 1]),
                mk(10, SpeTagWaitBegin, vec![2, 0]),
                mk(10 + dma_wait, SpeTagWaitEnd, vec![2]),
                mk(active, SpeStop, vec![0]),
            ],
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        }
    }

    #[test]
    fn comparison_measures_improvement() {
        let before = Analysis::from_analyzed(trace(1000, 600));
        let after = Analysis::from_analyzed(trace(500, 100));
        let c = compare_traces(&before, &after);
        assert!((c.speedup - 2.0).abs() < 1e-9);
        assert_eq!(c.spes.len(), 1);
        let d = &c.spes[0];
        assert!((d.before_dma_frac - 0.6).abs() < 1e-9);
        assert!((d.after_dma_frac - 0.2).abs() < 1e-9);
        assert!(d.after_util > d.before_util);
        let txt = c.render();
        assert!(txt.contains("2.00x"));
        assert!(txt.contains("SPE0"));
    }

    #[test]
    fn disjoint_spes_are_skipped() {
        let mut after = trace(500, 100);
        for e in &mut after.events {
            e.core = TraceCore::Spe(3);
        }
        let c = compare_traces(
            &Analysis::from_analyzed(trace(1000, 600)),
            &Analysis::from_analyzed(after),
        );
        assert!(c.spes.is_empty());
        assert_eq!(c.events, (5, 5));
    }
}
