//! Loss accounting for degraded traces.
//!
//! The PDT's buffers wrap, drop records under back-pressure and can be
//! torn mid-flush, so a real trace is not guaranteed byte-perfect. The
//! analyzer's lossy path resynchronizes past corruption (see
//! [`pdt::decode_stream_lossy`]) and *quantifies* what was lost instead
//! of hiding it: every skipped byte range, every tracer-side drop and
//! every stream that had to be discarded is folded into a
//! [`LossReport`], and per-SPE statistics derived from damaged streams
//! are flagged as suspect.

use pdt::{DecodeGap, TraceCore, Truncation};

/// How the analyzer treats malformed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePolicy {
    /// Abort the analysis on the first malformed record (the historical
    /// behavior).
    Strict,
    /// Resynchronize past corruption, recording every skipped range in
    /// the session's [`LossReport`].
    #[default]
    Lossy,
}

/// Loss accounting for one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamLoss {
    /// The stream's core.
    pub core: TraceCore,
    /// Records successfully decoded from the stream.
    pub decoded_records: u64,
    /// Records the tracer itself dropped (buffer back-pressure /
    /// region exhaustion), from the stream directory.
    pub tracer_dropped: u64,
    /// Byte ranges the resync decoder skipped.
    pub gaps: Vec<DecodeGap>,
    /// True when this SPE stream decoded records but no `PpeCtxRun`
    /// sync anchor survived, so its events could not be placed on the
    /// global timeline and the whole stream was discarded.
    pub unanchored: bool,
}

impl StreamLoss {
    /// Total bytes covered by decode gaps.
    pub fn gap_bytes(&self) -> u64 {
        self.gaps.iter().map(|g| g.len as u64).sum()
    }

    /// Estimated records lost to decode gaps alone.
    pub fn est_gap_records(&self) -> u64 {
        self.gaps.iter().map(|g| g.est_records).sum()
    }

    /// Estimated records lost overall: decode gaps, tracer drops, and
    /// (for an unanchored stream) every record that decoded but could
    /// not be used.
    pub fn est_lost_records(&self) -> u64 {
        let unusable = if self.unanchored {
            self.decoded_records
        } else {
            0
        };
        self.est_gap_records() + self.tracer_dropped + unusable
    }

    /// True when the stream lost nothing.
    pub fn is_clean(&self) -> bool {
        self.gaps.is_empty() && self.tracer_dropped == 0 && !self.unanchored
    }
}

/// Trace-wide loss accounting: one entry per stream, in stream order,
/// and where the image ends early, if it does.
///
/// An empty report (no streams, no truncation) means loss accounting
/// was not run — the strict decode policy aborts instead of
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LossReport {
    /// Per-stream loss, in stream order.
    pub streams: Vec<StreamLoss>,
    /// The structure a truncated `.pdt2` image ends inside, and its
    /// offset: the streams after it, or the names, are missing. `None`
    /// for a whole image.
    pub truncated: Option<Truncation>,
}

impl LossReport {
    /// True when the image is whole, every stream decoded completely
    /// and nothing was dropped.
    pub fn is_clean(&self) -> bool {
        self.truncated.is_none() && self.streams.iter().all(StreamLoss::is_clean)
    }

    /// Total bytes skipped by the resync decoder over all streams.
    pub fn total_gap_bytes(&self) -> u64 {
        self.streams.iter().map(StreamLoss::gap_bytes).sum()
    }

    /// Total decode gaps over all streams.
    pub fn total_gaps(&self) -> usize {
        self.streams.iter().map(|s| s.gaps.len()).sum()
    }

    /// Total estimated records lost (gaps + tracer drops + discarded
    /// unanchored streams).
    pub fn total_est_lost(&self) -> u64 {
        self.streams.iter().map(StreamLoss::est_lost_records).sum()
    }

    /// Total records the tracers reported dropping.
    pub fn tracer_dropped(&self) -> u64 {
        self.streams.iter().map(|s| s.tracer_dropped).sum()
    }

    /// Loss accounting for `core`'s stream, if present.
    pub fn stream(&self, core: TraceCore) -> Option<&StreamLoss> {
        self.streams.iter().find(|s| s.core == core)
    }

    /// Confidence flag for per-SPE statistics: true when stats for
    /// `spe` may be skewed by loss — its own stream had gaps, drops or
    /// was discarded, or a PPE stream had gaps (which can silently lose
    /// sync anchors and lifecycle events every SPE's reconstruction
    /// depends on).
    pub fn suspect(&self, spe: u8) -> bool {
        self.streams.iter().any(|s| match s.core {
            TraceCore::Spe(i) => i == spe && !s.is_clean(),
            TraceCore::Ppe(_) => !s.gaps.is_empty(),
        })
    }

    /// Renders the loss table (the `-- loss --` summary section body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<7} {:>8} {:>5} {:>10} {:>10} {:>9}  flags\n",
            "stream", "decoded", "gaps", "gap-bytes", "est-lost", "dropped"
        ));
        for s in &self.streams {
            let mut flags = String::new();
            if s.unanchored {
                flags.push_str("unanchored ");
            }
            if s.is_clean() {
                flags.push_str("clean");
            }
            out.push_str(&format!(
                "{:<7} {:>8} {:>5} {:>10} {:>10} {:>9}  {}\n",
                s.core.to_string(),
                s.decoded_records,
                s.gaps.len(),
                s.gap_bytes(),
                s.est_lost_records(),
                s.tracer_dropped,
                flags.trim_end()
            ));
        }
        if let Some(t) = &self.truncated {
            out.push_str(&format!("truncated: {t}\n"));
        }
        out.push_str(&format!(
            "total: {} gap(s), {} gap bytes, ~{} record(s) lost ({} tracer-dropped)\n",
            self.total_gaps(),
            self.total_gap_bytes(),
            self.total_est_lost(),
            self.tracer_dropped()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt::RecordError;

    fn gap(offset: usize, len: usize) -> DecodeGap {
        DecodeGap {
            offset,
            len,
            est_records: (len as u64).div_ceil(16).max(1),
            records_before: (offset / 16) as u64,
            cause: RecordError::ZeroLength,
        }
    }

    #[test]
    fn clean_report_totals_are_zero() {
        let r = LossReport {
            streams: vec![StreamLoss {
                core: TraceCore::Spe(0),
                decoded_records: 10,
                tracer_dropped: 0,
                gaps: vec![],
                unanchored: false,
            }],
            truncated: None,
        };
        assert!(r.is_clean());
        assert_eq!(r.total_gap_bytes(), 0);
        assert_eq!(r.total_est_lost(), 0);
        assert!(!r.suspect(0));
        assert!(r.render().contains("clean"));
    }

    #[test]
    fn gaps_and_drops_fold_into_totals() {
        let r = LossReport {
            streams: vec![
                StreamLoss {
                    core: TraceCore::Ppe(0),
                    decoded_records: 5,
                    tracer_dropped: 0,
                    gaps: vec![],
                    unanchored: false,
                },
                StreamLoss {
                    core: TraceCore::Spe(0),
                    decoded_records: 7,
                    tracer_dropped: 2,
                    gaps: vec![gap(32, 48)],
                    unanchored: false,
                },
            ],
            truncated: None,
        };
        assert!(!r.is_clean());
        assert_eq!(r.total_gap_bytes(), 48);
        assert_eq!(r.total_gaps(), 1);
        assert_eq!(r.total_est_lost(), 3 + 2);
        assert_eq!(r.tracer_dropped(), 2);
        assert!(r.suspect(0));
        assert!(!r.suspect(1), "other SPEs stay trusted");
        assert!(r.stream(TraceCore::Spe(0)).is_some());
    }

    #[test]
    fn ppe_gaps_taint_every_spe() {
        let r = LossReport {
            streams: vec![StreamLoss {
                core: TraceCore::Ppe(0),
                decoded_records: 5,
                tracer_dropped: 0,
                gaps: vec![gap(0, 16)],
                unanchored: false,
            }],
            truncated: None,
        };
        assert!(r.suspect(0));
        assert!(r.suspect(7));
    }

    #[test]
    fn a_truncation_is_loss_and_is_rendered() {
        let r = LossReport {
            streams: Vec::new(),
            truncated: Some(Truncation {
                reading: "stream header",
                offset: 2566,
            }),
        };
        assert!(!r.is_clean());
        assert_eq!(r.total_est_lost(), 0);
        assert!(r
            .render()
            .contains("truncated: image ends inside the stream header at byte 2566\n"));
    }

    #[test]
    fn unanchored_stream_counts_decoded_records_as_lost() {
        let s = StreamLoss {
            core: TraceCore::Spe(1),
            decoded_records: 9,
            tracer_dropped: 1,
            gaps: vec![],
            unanchored: true,
        };
        assert_eq!(s.est_lost_records(), 10);
        assert!(!s.is_clean());
    }
}
