//! Event filtering: time windows, cores, codes and groups.
//!
//! The Trace Analyzer's interactive views are zoom-and-filter
//! operations over the event list; [`EventFilter`] is the programmatic
//! equivalent. Application routes through the session's
//! [`TraceIndex`](crate::index::TraceIndex), so window and core
//! restrictions resolve by binary search instead of a full rescan. The
//! historical linear scan lives on only as the feature-gated
//! differential oracle in [`crate::index`]; the old `apply_scan`
//! entry point is gone — filter with [`EventFilter::apply`] or
//! [`Analysis::query`].

use pdt::{EventCode, EventGroup, TraceCore};

use crate::analyze::GlobalEvent;
use crate::session::Analysis;

/// A composable event filter (builder style; all criteria are ANDed,
/// repeated values within one criterion are ORed).
#[derive(Debug, Clone, Default)]
pub struct EventFilter {
    window: Option<(u64, u64)>,
    cores: Option<Vec<TraceCore>>,
    codes: Option<Vec<EventCode>>,
    groups: Option<Vec<EventGroup>>,
}

impl EventFilter {
    /// Matches everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restrict to `[start_tb, end_tb)`.
    pub fn in_window(mut self, start_tb: u64, end_tb: u64) -> Self {
        self.window = Some((start_tb, end_tb));
        self
    }

    /// Restrict to one core (may be called repeatedly to add cores).
    pub fn on_core(mut self, core: TraceCore) -> Self {
        self.cores.get_or_insert_with(Vec::new).push(core);
        self
    }

    /// Restrict to one event code (repeatable).
    pub fn with_code(mut self, code: EventCode) -> Self {
        self.codes.get_or_insert_with(Vec::new).push(code);
        self
    }

    /// Restrict to one event group (repeatable).
    pub fn in_group(mut self, group: EventGroup) -> Self {
        self.groups.get_or_insert_with(Vec::new).push(group);
        self
    }

    /// The half-open time window, if restricted.
    pub fn window(&self) -> Option<(u64, u64)> {
        self.window
    }

    /// The core restriction, if any.
    pub fn cores(&self) -> Option<&[TraceCore]> {
        self.cores.as_deref()
    }

    /// The event-code restriction, if any.
    pub fn codes(&self) -> Option<&[EventCode]> {
        self.codes.as_deref()
    }

    /// The event-group restriction, if any.
    pub fn groups(&self) -> Option<&[EventGroup]> {
        self.groups.as_deref()
    }

    /// Whether `event` passes the filter. The window is half-open:
    /// `start_tb` is included, `end_tb` is not.
    pub fn matches(&self, event: &GlobalEvent) -> bool {
        self.passes(event.time_tb, event.core, event.code)
    }

    /// [`matches`](Self::matches) for a columnar [`EventView`] — the
    /// same predicate, evaluated without materializing a row.
    pub fn matches_view(&self, view: &crate::columns::EventView<'_>) -> bool {
        self.passes(view.time_tb, view.core, view.code)
    }

    fn passes(&self, time_tb: u64, core: TraceCore, code: EventCode) -> bool {
        if let Some((s, e)) = self.window {
            if time_tb < s || time_tb >= e {
                return false;
            }
        }
        if let Some(cores) = &self.cores {
            if !cores.contains(&core) {
                return false;
            }
        }
        if let Some(codes) = &self.codes {
            if !codes.contains(&code) {
                return false;
            }
        }
        if let Some(groups) = &self.groups {
            if !groups.contains(&code.group()) {
                return false;
            }
        }
        true
    }

    /// Applies the filter through the session's
    /// [`TraceIndex`](crate::index::TraceIndex), preserving global
    /// order: window bounds resolve by binary search, so cost is
    /// O(log n + window) rather than O(trace).
    pub fn apply<'a>(&self, analysis: &'a Analysis) -> Vec<&'a GlobalEvent> {
        analysis.query(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalyzedTrace;
    use pdt::{TraceHeader, VERSION};

    fn trace() -> AnalyzedTrace {
        use EventCode::*;
        let mk = |t, core, code| GlobalEvent {
            time_tb: t,
            core,
            code,
            params: vec![],
            stream_seq: t,
        };
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
            events: vec![
                mk(0, TraceCore::Ppe(0), PpeCtxCreate),
                mk(10, TraceCore::Spe(0), SpeMboxReadBegin),
                mk(20, TraceCore::Spe(0), SpeMboxReadEnd),
                mk(30, TraceCore::Spe(1), SpeMboxReadBegin),
                mk(50, TraceCore::Spe(1), SpeUser),
            ],
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        }
    }

    fn session() -> Analysis {
        Analysis::from_analyzed(trace())
    }

    #[test]
    fn window_is_half_open() {
        let a = session();
        let got = EventFilter::new().in_window(10, 30).apply(&a);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].time_tb, 10);
        assert_eq!(got[1].time_tb, 20);
    }

    #[test]
    fn window_edges_include_start_exclude_end() {
        // Regression: an event exactly at `end_tb` must be excluded
        // and one exactly at `start_tb` included, on both paths.
        let a = session();
        let f = EventFilter::new().in_window(10, 50);
        let indexed = f.apply(&a);
        assert!(indexed.iter().any(|e| e.time_tb == 10), "start included");
        assert!(indexed.iter().all(|e| e.time_tb != 50), "end excluded");
        assert_eq!(indexed.len(), 3);
        let scanned: Vec<_> = a
            .analyzed()
            .events
            .iter()
            .filter(|e| f.matches(e))
            .collect();
        assert_eq!(indexed, scanned);
    }

    #[test]
    fn core_filter_composes_with_group() {
        let a = session();
        let got = EventFilter::new()
            .on_core(TraceCore::Spe(1))
            .in_group(EventGroup::SpeMbox)
            .apply(&a);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].time_tb, 30);
    }

    #[test]
    fn code_filter_exact() {
        let a = session();
        let got = EventFilter::new().with_code(EventCode::SpeUser).apply(&a);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].core, TraceCore::Spe(1));
    }

    #[test]
    fn empty_filter_matches_all() {
        let a = session();
        assert_eq!(EventFilter::new().apply(&a).len(), a.events().len());
    }

    #[test]
    fn view_matching_agrees_with_row_matching() {
        let t = trace();
        let cols = crate::columns::ColumnarTrace::from_analyzed(&t);
        let filters = [
            EventFilter::new(),
            EventFilter::new().in_window(10, 30),
            EventFilter::new().on_core(TraceCore::Spe(1)),
            EventFilter::new().with_code(EventCode::SpeUser),
            EventFilter::new().in_group(EventGroup::SpeMbox),
            EventFilter::new()
                .in_window(0, 40)
                .on_core(TraceCore::Spe(1))
                .in_group(EventGroup::SpeMbox),
        ];
        for f in &filters {
            for (e, v) in t.events.iter().zip(cols.events.iter()) {
                assert_eq!(f.matches(e), f.matches_view(&v), "{f:?} on {e:?}");
            }
        }
    }

    #[test]
    fn multiple_cores_are_ored() {
        let a = session();
        let got = EventFilter::new()
            .on_core(TraceCore::Spe(0))
            .on_core(TraceCore::Spe(1))
            .apply(&a);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn indexed_apply_equals_scan_for_every_filter_shape() {
        let a = session();
        for f in [
            EventFilter::new(),
            EventFilter::new().in_window(0, 0),
            EventFilter::new().in_window(50, 10),
            EventFilter::new().in_window(0, u64::MAX),
            EventFilter::new()
                .in_window(11, 30)
                .on_core(TraceCore::Spe(0)),
            EventFilter::new()
                .on_core(TraceCore::Ppe(0))
                .on_core(TraceCore::Spe(1))
                .in_group(EventGroup::SpeMbox),
            EventFilter::new().with_code(EventCode::SpeMboxReadBegin),
        ] {
            let scanned: Vec<_> = a
                .analyzed()
                .events
                .iter()
                .filter(|e| f.matches(e))
                .collect();
            assert_eq!(f.apply(&a), scanned, "filter {f:?}");
        }
    }
}
