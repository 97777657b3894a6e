//! The PPE-side tracer.
//!
//! PPE trace buffers live in cacheable main memory and are drained by
//! the trace writer directly, so — unlike the SPE side — no simulated
//! DMA is involved: the tracer appends encoded records to a host-side
//! stream and charges the configured cycles. It also harvests context
//! names and the `PpeCtxRun` time-synchronization records the analyzer
//! needs to place SPE decrementer timestamps on the global timeline.

use cellsim::{PpeThreadId, PpeTracer, RuntimeEvent};

use crate::config::TracingConfig;
use crate::event::encode_event;
use crate::record::{TraceCore, TraceRecord};
use crate::sink::{lock, PpeStreamHandle};

/// PPE-side PDT tracer (one per machine, shared by both hardware
/// threads).
#[derive(Debug)]
pub struct PdtPpeTracer {
    cfg: TracingConfig,
    shared: PpeStreamHandle,
    scratch: Vec<u8>,
}

impl PdtPpeTracer {
    /// Creates a tracer publishing records through `shared`.
    pub fn new(cfg: TracingConfig, shared: PpeStreamHandle) -> Self {
        PdtPpeTracer {
            cfg,
            shared,
            scratch: Vec::with_capacity(128),
        }
    }
}

impl PpeTracer for PdtPpeTracer {
    fn on_event(&mut self, thread: PpeThreadId, timebase: u64, ev: &RuntimeEvent) -> u64 {
        let enc = encode_event(ev);
        if !self.cfg.groups.contains(enc.code.group()) {
            return self.cfg.overhead.disabled_check_cycles;
        }
        let record = TraceRecord {
            core: TraceCore::Ppe(thread.index() as u8),
            code: enc.code,
            timestamp: timebase,
            params: enc.params,
        };
        self.scratch.clear();
        record.encode_into(&mut self.scratch);
        let nparams = record.params.len();
        {
            let mut s = lock(&self.shared);
            s.bytes.extend_from_slice(&self.scratch);
            s.records += 1;
            if let Some(name) = enc.ctx_name {
                s.ctx_names.push((record.params[0] as u32, name));
            }
        }
        self.cfg.overhead.ppe_cost(nparams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventCode;
    use crate::group::GroupMask;
    use crate::record::decode_stream;
    use crate::sink::new_ppe_handle;
    use cellsim::{CtxId, SpeId};

    #[test]
    fn records_and_names_are_collected() {
        let shared = new_ppe_handle();
        let mut tr = PdtPpeTracer::new(TracingConfig::default(), shared.clone());
        let c1 = tr.on_event(
            PpeThreadId::new(0),
            100,
            &RuntimeEvent::PpeCtxCreate {
                ctx: CtxId::new(0),
                name: "fft".into(),
            },
        );
        assert!(c1 > 0);
        tr.on_event(
            PpeThreadId::new(1),
            150,
            &RuntimeEvent::PpeCtxRun {
                ctx: CtxId::new(0),
                spe: SpeId::new(3),
                dec_start: u32::MAX,
            },
        );
        let s = lock(&shared);
        assert_eq!(s.records, 2);
        assert_eq!(s.ctx_names, vec![(0, "fft".to_string())]);
        let recs = decode_stream(&s.bytes).unwrap();
        assert_eq!(recs[0].core, TraceCore::Ppe(0));
        assert_eq!(recs[0].timestamp, 100);
        assert_eq!(recs[1].core, TraceCore::Ppe(1));
        assert_eq!(recs[1].code, EventCode::PpeCtxRun);
        assert_eq!(recs[1].params, vec![0, 3, u32::MAX as u64]);
    }

    #[test]
    fn disabled_groups_record_nothing() {
        let shared = new_ppe_handle();
        let cfg = TracingConfig::default().with_groups(GroupMask::NONE);
        let mut tr = PdtPpeTracer::new(cfg, shared.clone());
        let c = tr.on_event(
            PpeThreadId::new(0),
            1,
            &RuntimeEvent::PpeUser {
                id: 1,
                a0: 0,
                a1: 0,
            },
        );
        assert_eq!(c, cfg.overhead.disabled_check_cycles);
        assert_eq!(lock(&shared).records, 0);
    }
}
