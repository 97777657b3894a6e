//! Cross-validation of trace-derived statistics against simulator
//! ground truth.
//!
//! The analyzer only ever sees trace bytes; the simulator knows exactly
//! what each core did. Comparing the two quantifies the *fidelity* of
//! trace-based analysis — including the time-sync skew and the
//! instrumentation blind spots — which is experiment E10's subject.

use cellsim::{CoreId, RunReport, SpeId};

use crate::analyze::AnalyzedTrace;
use crate::stats::TraceStats;

/// Comparison of one SPE's trace-derived and ground-truth numbers, in
/// nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeValidation {
    /// The SPE.
    pub spe: u8,
    /// Active time from the trace.
    pub ta_active_ns: f64,
    /// Active time from ground truth (everything between idle and
    /// stop).
    pub gt_active_ns: f64,
    /// DMA-wait time from the trace.
    pub ta_dma_wait_ns: f64,
    /// DMA-wait time from ground truth.
    pub gt_dma_wait_ns: f64,
    /// Mailbox + signal wait time from the trace.
    pub ta_blocked_ns: f64,
    /// Mailbox + signal wait time from ground truth (includes blocks
    /// the instrumentation cannot see, e.g. full outbound mailboxes).
    pub gt_blocked_ns: f64,
    /// Tracing overhead cycles from ground truth (invisible to the TA,
    /// which folds them into compute).
    pub gt_trace_overhead_ns: f64,
    /// True when the trace-derived side spans decode gaps — the
    /// numbers are lower bounds, not measurements, and a large relative
    /// error is expected rather than a fidelity defect. [`validate`]
    /// sees no loss report and leaves it false.
    pub suspect: bool,
}

impl SpeValidation {
    /// Relative error of the trace-derived active time.
    pub fn active_rel_err(&self) -> f64 {
        rel_err(self.ta_active_ns, self.gt_active_ns)
    }

    /// Relative error of the trace-derived DMA-wait time.
    pub fn dma_wait_rel_err(&self) -> f64 {
        rel_err(self.ta_dma_wait_ns, self.gt_dma_wait_ns)
    }
}

/// Relative error |a - b| / max(|b|, ε).
///
/// The denominator clamps on the *magnitude* of the ground truth:
/// clamping on the signed value would turn every negative `b` into a
/// huge spurious error (ε denominator) instead of a sensible relative
/// one.
pub fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-9)
}

/// The full validation report.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Per-SPE comparisons.
    pub spes: Vec<SpeValidation>,
}

impl ValidationReport {
    /// Largest active-time relative error over SPEs.
    pub fn max_active_rel_err(&self) -> f64 {
        self.spes
            .iter()
            .map(SpeValidation::active_rel_err)
            .fold(0.0, f64::max)
    }

    /// Largest DMA-wait relative error over SPEs.
    pub fn max_dma_wait_rel_err(&self) -> f64 {
        self.spes
            .iter()
            .map(SpeValidation::dma_wait_rel_err)
            .fold(0.0, f64::max)
    }

    /// Largest active-time relative error over SPEs whose trace-side
    /// numbers do *not* span decode gaps. The fidelity headline for
    /// damaged traces: suspect SPEs are expected to diverge.
    pub fn max_trusted_active_rel_err(&self) -> f64 {
        self.spes
            .iter()
            .filter(|s| !s.suspect)
            .map(SpeValidation::active_rel_err)
            .fold(0.0, f64::max)
    }

    /// Renders a comparison table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "spe  active(ta/gt) ns        dma-wait(ta/gt) ns      blocked(ta/gt) ns       trace-ovh ns\n",
        );
        for s in &self.spes {
            let label = format!("{}{}", s.spe, if s.suspect { "*" } else { "" });
            out.push_str(&format!(
                "{:<4} {:>10.0}/{:<10.0} {:>10.0}/{:<10.0} {:>10.0}/{:<10.0} {:>10.0}\n",
                label,
                s.ta_active_ns,
                s.gt_active_ns,
                s.ta_dma_wait_ns,
                s.gt_dma_wait_ns,
                s.ta_blocked_ns,
                s.gt_blocked_ns,
                s.gt_trace_overhead_ns
            ));
        }
        if self.spes.iter().any(|s| s.suspect) {
            out.push_str("(* trace-side numbers span decode gaps; treat as lower bounds)\n");
        }
        out
    }
}

/// Compares trace-derived statistics against the simulator's ground
/// truth for every SPE present in both.
pub fn validate(
    trace: &AnalyzedTrace,
    stats: &TraceStats,
    report: &RunReport,
    clock_hz: u64,
) -> ValidationReport {
    let cyc_ns = 1e9 / clock_hz as f64;
    let mut spes = Vec::new();
    for a in &stats.spes {
        let Some(core) = report.core(CoreId::Spe(SpeId::new(a.spe as usize))) else {
            continue;
        };
        let b = &core.breakdown;
        spes.push(SpeValidation {
            spe: a.spe,
            ta_active_ns: trace.tb_to_ns(a.active_tb),
            gt_active_ns: b.active_total() as f64 * cyc_ns,
            ta_dma_wait_ns: trace.tb_to_ns(a.dma_wait_tb),
            gt_dma_wait_ns: b.dma_wait as f64 * cyc_ns,
            ta_blocked_ns: trace.tb_to_ns(a.mbox_wait_tb + a.signal_wait_tb),
            gt_blocked_ns: (b.mbox_wait + b.signal_wait) as f64 * cyc_ns,
            gt_trace_overhead_ns: b.trace_overhead as f64 * cyc_ns,
            suspect: false,
        });
    }
    ValidationReport { spes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_basics() {
        assert!((rel_err(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((rel_err(100.0, 100.0)).abs() < 1e-12);
        assert!(rel_err(1.0, 0.0) > 1e6, "guarded against division by zero");
    }

    #[test]
    fn rel_err_handles_negative_ground_truth() {
        // |(-90) - (-100)| / 100 = 0.1 — the old signed clamp blew this
        // up to 1e10 by dividing by epsilon.
        assert!((rel_err(-90.0, -100.0) - 0.1).abs() < 1e-12);
        assert!((rel_err(-100.0, -100.0)).abs() < 1e-12);
    }

    #[test]
    fn report_aggregates_max_errors() {
        let r = ValidationReport {
            spes: vec![
                SpeValidation {
                    spe: 0,
                    ta_active_ns: 100.0,
                    gt_active_ns: 100.0,
                    ta_dma_wait_ns: 50.0,
                    gt_dma_wait_ns: 40.0,
                    ta_blocked_ns: 0.0,
                    gt_blocked_ns: 0.0,
                    gt_trace_overhead_ns: 5.0,
                    suspect: false,
                },
                SpeValidation {
                    spe: 1,
                    ta_active_ns: 90.0,
                    gt_active_ns: 100.0,
                    ta_dma_wait_ns: 40.0,
                    gt_dma_wait_ns: 40.0,
                    ta_blocked_ns: 0.0,
                    gt_blocked_ns: 0.0,
                    gt_trace_overhead_ns: 0.0,
                    suspect: true,
                },
            ],
        };
        assert!((r.max_active_rel_err() - 0.1).abs() < 1e-12);
        assert!((r.max_dma_wait_rel_err() - 0.25).abs() < 1e-12);
        assert!(
            r.max_trusted_active_rel_err().abs() < 1e-12,
            "suspect SPE1 excluded from the trusted maximum"
        );
        let txt = r.render();
        assert!(txt.contains("spe"));
        assert!(txt.contains("1*"), "suspect row is starred: {txt}");
        assert!(txt.contains("lower bounds"));
        assert_eq!(txt.lines().count(), 4);
    }
}
