//! Shared collection state between the installed tracers and the
//! session that installs them.
//!
//! Tracers are moved into the [`cellsim::Machine`] as boxed trait
//! objects; the session keeps `Arc<Mutex<_>>` handles to their
//! counters and (for the PPE) the host-side trace bytes, so it can
//! assemble the trace file after the run.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::buffer::BufferStats;

/// Per-SPE stream state the session reads after the run.
#[derive(Debug, Clone, Default)]
pub struct SpeStreamShared {
    /// Buffer counters (records, drops, flushes).
    pub stats: BufferStats,
    /// Bytes of the main-memory region holding valid trace data.
    pub region_used: u64,
}

impl SpeStreamShared {
    /// True when the tracer lost records for this stream — the
    /// instrumentation-side counterpart to decoder gaps, folded into
    /// the analyzer's loss accounting.
    pub fn lost_records(&self) -> bool {
        self.stats.dropped > 0
    }
}

/// PPE-side stream state: trace bytes live host-side (they model a
/// main-memory buffer whose writes cost only the charged cycles).
#[derive(Debug, Clone, Default)]
pub struct PpeStreamShared {
    /// Encoded PPE records (all hardware threads interleaved; each
    /// record carries its thread tag).
    pub bytes: Vec<u8>,
    /// Records written.
    pub records: u64,
    /// Context-name table harvested from `PpeCtxCreate` events.
    pub ctx_names: Vec<(u32, String)>,
}

/// Shared handle to per-SPE stream state.
pub type SpeStreamHandle = Arc<Mutex<SpeStreamShared>>;

/// Shared handle to the PPE stream state.
pub type PpeStreamHandle = Arc<Mutex<PpeStreamShared>>;

/// Locks a stream handle.
///
/// # Panics
///
/// If a tracer panicked while holding the lock: its update (bytes
/// appended, record count not yet bumped) may be half done.
pub(crate) fn lock<T>(handle: &Mutex<T>) -> MutexGuard<'_, T> {
    handle
        .lock()
        .expect("a tracer panicked while updating its stream handle")
}

/// Creates a fresh SPE stream handle.
pub fn new_spe_handle() -> SpeStreamHandle {
    Arc::new(Mutex::new(SpeStreamShared::default()))
}

/// Creates a fresh PPE stream handle.
pub fn new_ppe_handle() -> PpeStreamHandle {
    Arc::new(Mutex::new(PpeStreamShared::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let h = new_spe_handle();
        let h2 = h.clone();
        lock(&h).region_used = 42;
        assert_eq!(lock(&h2).region_used, 42);
    }

    #[test]
    fn ppe_handle_accumulates() {
        let h = new_ppe_handle();
        lock(&h).bytes.extend_from_slice(&[1, 2, 3]);
        lock(&h).ctx_names.push((0, "a".into()));
        assert_eq!(lock(&h).bytes.len(), 3);
        assert_eq!(lock(&h).ctx_names[0].1, "a");
    }
}
