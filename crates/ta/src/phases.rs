//! User-defined phase intervals.
//!
//! PDT applications bracket logical phases with user events
//! (`pdt_trace_user` begin/end pairs); the analyzer turns them into
//! named intervals so the timeline can show *application* structure on
//! top of the hardware activity. The marker convention lives in
//! [`pdt::markers`]: a user event whose first payload word is
//! [`pdt::markers::PHASE_BEGIN`] opens phase `id` on its core, and
//! [`pdt::markers::PHASE_END`] closes it.

use std::collections::HashMap;

use pdt::markers::{PHASE_BEGIN, PHASE_END};
use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;

/// One reconstructed user phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserPhase {
    /// Core the phase ran on.
    pub core: TraceCore,
    /// User phase id.
    pub id: u32,
    /// Begin timestamp (ticks).
    pub start_tb: u64,
    /// End timestamp (ticks).
    pub end_tb: u64,
}

impl UserPhase {
    /// Phase length in ticks.
    pub fn ticks(&self) -> u64 {
        self.end_tb - self.start_tb
    }
}

/// Result of phase reconstruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    /// Completed phases, in begin order.
    pub phases: Vec<UserPhase>,
    /// Begin markers never closed (count per `(core, id)`).
    pub unmatched_begins: u64,
    /// End markers with no open begin.
    pub unmatched_ends: u64,
}

impl PhaseReport {
    /// Total ticks spent in phases with `id`, over all cores.
    pub fn total_ticks(&self, id: u32) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.id == id)
            .map(UserPhase::ticks)
            .sum()
    }

    /// The distinct phase ids seen, sorted.
    pub fn ids(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.phases.iter().map(|p| p.id).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Reconstructs user phases from begin/end markers. Nested phases of
/// the *same id on the same core* pair LIFO (like brackets); distinct
/// ids are independent.
pub fn user_phases(trace: &AnalyzedTrace) -> PhaseReport {
    let mut open: HashMap<(TraceCore, u32), Vec<u64>> = HashMap::new();
    let mut report = PhaseReport::default();
    for e in &trace.events {
        if !matches!(e.code, EventCode::SpeUser | EventCode::PpeUser) {
            continue;
        }
        // A marker without an id (a damaged record) pairs with nothing.
        let Some(&id) = e.params.first() else {
            continue;
        };
        let id = id as u32;
        let marker = e.params.get(1).copied().unwrap_or(0);
        if marker == PHASE_BEGIN {
            open.entry((e.core, id)).or_default().push(e.time_tb);
        } else if marker == PHASE_END {
            match open.get_mut(&(e.core, id)).and_then(Vec::pop) {
                Some(start_tb) => report.phases.push(UserPhase {
                    core: e.core,
                    id,
                    start_tb,
                    end_tb: e.time_tb,
                }),
                None => report.unmatched_ends += 1,
            }
        }
    }
    report.unmatched_begins = open.values().map(|v| v.len() as u64).sum();
    report.phases.sort_by_key(|p| (p.start_tb, p.id));
    report
}

/// [`user_phases`] over the columnar store: one pass over the code /
/// params columns with the same LIFO pairing. The pairing is per core,
/// so the pass walks the store core by core; ordering ties on
/// `(start, id)` by the end's `(time, core)` reproduces the row
/// function's global end order without building the global order. The
/// session uses this path; the row function remains the differential
/// oracle.
pub fn user_phases_columns(trace: &ColumnarTrace) -> PhaseReport {
    let mut open: HashMap<(TraceCore, u32), Vec<u64>> = HashMap::new();
    let mut report = PhaseReport::default();
    for (i, code) in trace.events.codes().iter().enumerate() {
        if !matches!(code, EventCode::SpeUser | EventCode::PpeUser) {
            continue;
        }
        let v = trace.events.view(i);
        // A marker without an id (a damaged record) pairs with nothing.
        let Some(&id) = v.params.first() else {
            continue;
        };
        let id = id as u32;
        let marker = v.params.get(1).copied().unwrap_or(0);
        if marker == PHASE_BEGIN {
            open.entry((v.core, id)).or_default().push(v.time_tb);
        } else if marker == PHASE_END {
            match open.get_mut(&(v.core, id)).and_then(Vec::pop) {
                Some(start_tb) => report.phases.push(UserPhase {
                    core: v.core,
                    id,
                    start_tb,
                    end_tb: v.time_tb,
                }),
                None => report.unmatched_ends += 1,
            }
        }
    }
    report.unmatched_begins = open.values().map(|v| v.len() as u64).sum();
    // The key covers every field, so equal keys are equal phases.
    report
        .phases
        .sort_unstable_by_key(|p| (p.start_tb, p.id, p.end_tb, p.core.tag()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::GlobalEvent;
    use pdt::{TraceHeader, VERSION};

    fn user(t: u64, core: TraceCore, id: u32, marker: u64) -> GlobalEvent {
        GlobalEvent {
            time_tb: t,
            core,
            code: if core.is_spe() {
                EventCode::SpeUser
            } else {
                EventCode::PpeUser
            },
            params: vec![id as u64, marker, 0],
            stream_seq: t,
        }
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
    fn begin_end_pairs_become_phases() {
        let s0 = TraceCore::Spe(0);
        let t = trace(vec![
            user(10, s0, 1, PHASE_BEGIN),
            user(50, s0, 1, PHASE_END),
            user(60, s0, 2, PHASE_BEGIN),
            user(90, s0, 2, PHASE_END),
        ]);
        let r = user_phases(&t);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].ticks(), 40);
        assert_eq!(r.phases[1].ticks(), 30);
        assert_eq!(r.total_ticks(1), 40);
        assert_eq!(r.ids(), vec![1, 2]);
        assert_eq!(r.unmatched_begins, 0);
        assert_eq!(r.unmatched_ends, 0);
    }

    #[test]
    fn same_id_nests_lifo() {
        let s0 = TraceCore::Spe(0);
        let t = trace(vec![
            user(0, s0, 7, PHASE_BEGIN),
            user(10, s0, 7, PHASE_BEGIN),
            user(20, s0, 7, PHASE_END),
            user(40, s0, 7, PHASE_END),
        ]);
        let r = user_phases(&t);
        assert_eq!(r.phases.len(), 2);
        // Inner pairs first by start order after sorting.
        assert_eq!(r.phases[0].start_tb, 0);
        assert_eq!(r.phases[0].end_tb, 40);
        assert_eq!(r.phases[1].start_tb, 10);
        assert_eq!(r.phases[1].end_tb, 20);
    }

    #[test]
    fn cores_are_independent_and_unmatched_counted() {
        let s0 = TraceCore::Spe(0);
        let s1 = TraceCore::Spe(1);
        let ppe = TraceCore::Ppe(0);
        let t = trace(vec![
            user(0, s0, 1, PHASE_BEGIN),
            user(5, ppe, 1, PHASE_BEGIN),
            user(10, s1, 1, PHASE_END), // no begin on SPE1
            user(30, ppe, 1, PHASE_END),
        ]);
        let r = user_phases(&t);
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].core, ppe);
        assert_eq!(r.unmatched_begins, 1); // SPE0's begin
        assert_eq!(r.unmatched_ends, 1); // SPE1's end
    }

    #[test]
    fn columnar_phases_match_row_phases() {
        let s0 = TraceCore::Spe(0);
        let ppe = TraceCore::Ppe(0);
        let t = trace(vec![
            user(0, s0, 7, PHASE_BEGIN),
            user(5, ppe, 1, PHASE_BEGIN),
            user(10, s0, 7, PHASE_BEGIN),
            user(20, s0, 7, PHASE_END),
            user(30, ppe, 1, PHASE_END),
            user(40, s0, 7, PHASE_END),
            user(50, s0, 9, PHASE_END), // unmatched end
        ]);
        let cols = ColumnarTrace::from_analyzed(&t);
        assert_eq!(user_phases_columns(&cols), user_phases(&t));
    }

    #[test]
    fn plain_user_events_are_not_phases() {
        let s0 = TraceCore::Spe(0);
        let t = trace(vec![user(0, s0, 1, 99), user(10, s0, 1, 0)]);
        let r = user_phases(&t);
        assert!(r.phases.is_empty());
        assert_eq!(r.unmatched_ends, 0);
    }
}
