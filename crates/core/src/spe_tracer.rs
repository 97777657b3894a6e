//! The SPE-side tracer: the PDT component that lives inside each SPU's
//! instrumented runtime.
//!
//! [`PdtSpeTracer`] implements [`cellsim::SpeTracer`]. On every hook it
//! encodes the event into the local-store trace buffer, charges the
//! configured instrumentation cycles, and — when a buffer half fills —
//! asks the machine to flush it with a real DMA. All of its costs flow
//! into simulated time, so the overhead experiments measure mechanism,
//! not assumption.

use cellsim::{FlushRequest, LocalStore, RuntimeEvent, SpeId, SpeTracer, TagId, TraceCost};

use crate::buffer::SpeTraceBuffer;
use crate::config::TracingConfig;
use crate::event::encode_event;
use crate::record::{TraceCore, TraceRecord};
use crate::sink::{lock, SpeStreamHandle};

/// SPE-side PDT tracer, one per SPE.
#[derive(Debug)]
pub struct PdtSpeTracer {
    cfg: TracingConfig,
    buffer: Option<SpeTraceBuffer>,
    shared: SpeStreamHandle,
    scratch: Vec<u8>,
    enabled: bool,
}

impl PdtSpeTracer {
    /// Creates a tracer publishing its counters through `shared`.
    pub fn new(cfg: TracingConfig, shared: SpeStreamHandle) -> Self {
        PdtSpeTracer {
            cfg,
            buffer: None,
            shared,
            scratch: Vec::with_capacity(128),
            enabled: true,
        }
    }

    /// Handles the runtime enable/disable control markers
    /// (see [`crate::markers`]). Returns whether `ev` is a control
    /// event; control events are always recorded.
    fn apply_control(&mut self, ev: &RuntimeEvent) -> bool {
        if let RuntimeEvent::SpeUser { id, .. } = ev {
            if *id == crate::markers::TRACE_DISABLE_ID {
                self.enabled = false;
                return true;
            }
            if *id == crate::markers::TRACE_ENABLE_ID {
                self.enabled = true;
                return true;
            }
        }
        false
    }

    fn publish(&self) {
        if let Some(buf) = &self.buffer {
            let mut s = lock(&self.shared);
            s.stats = buf.stats;
            s.region_used = buf.region_used();
        }
    }
}

impl SpeTracer for PdtSpeTracer {
    fn attach(&mut self, spe: SpeId, ls: &mut LocalStore) {
        let ea_base = self.cfg.region_base + spe.index() as u64 * self.cfg.region_per_spe;
        self.buffer = Some(SpeTraceBuffer::new(
            ls,
            self.cfg.spe_buffer_bytes,
            ea_base,
            self.cfg.region_per_spe,
            TagId::new(self.cfg.flush_tag).expect("validated flush tag"),
        ));
    }

    fn on_event(
        &mut self,
        spe: SpeId,
        dec: u32,
        ev: &RuntimeEvent,
        ls: &mut LocalStore,
    ) -> TraceCost {
        let is_control = self.apply_control(ev);
        let enc = encode_event(ev);
        if (!self.enabled && !is_control) || !self.cfg.groups.contains(enc.code.group()) {
            return TraceCost {
                cycles: self.cfg.overhead.disabled_check_cycles,
                flush: None,
            };
        }
        let buffer = self
            .buffer
            .as_mut()
            .expect("on_event before attach: machine contract violation");
        let record = TraceRecord {
            core: TraceCore::Spe(spe.index() as u8),
            code: enc.code,
            timestamp: dec as u64,
            params: enc.params,
        };
        self.scratch.clear();
        record.encode_into(&mut self.scratch);
        let nparams = record.params.len();
        let outcome = buffer.write_record(&self.scratch, ls);
        self.publish();
        TraceCost {
            cycles: self.cfg.overhead.spe_cost(nparams, outcome.flush.is_some()),
            flush: outcome.flush,
        }
    }

    fn on_flush_complete(&mut self, _spe: SpeId, _ls: &mut LocalStore) -> Option<FlushRequest> {
        if let Some(buf) = self.buffer.as_mut() {
            buf.flush_completed();
        }
        None
    }

    fn finalize(&mut self, _spe: SpeId, _ls: &mut LocalStore) -> Option<FlushRequest> {
        let req = self.buffer.as_mut().and_then(|b| b.finalize());
        self.publish();
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupMask;
    use crate::overhead::OverheadModel;
    use crate::record::decode_stream;
    use crate::sink::new_spe_handle;
    use cellsim::DmaKind;

    fn dma_event() -> RuntimeEvent {
        RuntimeEvent::SpeDmaIssue {
            kind: DmaKind::Get,
            lsa: 0,
            ea: 0x1000,
            size: 128,
            tag: 0,
            list_len: 0,
        }
    }

    #[test]
    fn enabled_event_costs_and_records() {
        let shared = new_spe_handle();
        let mut tr = PdtSpeTracer::new(TracingConfig::default(), shared.clone());
        let mut ls = LocalStore::new(256 * 1024);
        tr.attach(SpeId::new(0), &mut ls);
        let cost = tr.on_event(SpeId::new(0), 12345, &dma_event(), &mut ls);
        assert!(cost.cycles >= OverheadModel::default().spe_event_cycles);
        assert!(cost.flush.is_none());
        assert_eq!(lock(&shared).stats.records, 1);
    }

    #[test]
    fn disabled_group_costs_only_the_check() {
        let shared = new_spe_handle();
        let cfg = TracingConfig::default().with_groups(GroupMask::user_only());
        let mut tr = PdtSpeTracer::new(cfg, shared.clone());
        let mut ls = LocalStore::new(256 * 1024);
        tr.attach(SpeId::new(0), &mut ls);
        let cost = tr.on_event(SpeId::new(0), 1, &dma_event(), &mut ls);
        assert_eq!(cost.cycles, cfg.overhead.disabled_check_cycles);
        assert_eq!(lock(&shared).stats.records, 0);
    }

    #[test]
    fn buffer_fill_requests_flush_with_valid_dma() {
        let shared = new_spe_handle();
        let cfg = TracingConfig::default().with_buffer_bytes(256);
        let mut tr = PdtSpeTracer::new(cfg, shared.clone());
        let mut ls = LocalStore::new(256 * 1024);
        tr.attach(SpeId::new(2), &mut ls);
        let mut flush = None;
        for i in 0..10 {
            let cost = tr.on_event(SpeId::new(2), 1000 - i, &dma_event(), &mut ls);
            if cost.flush.is_some() {
                flush = cost.flush;
                break;
            }
        }
        let f = flush.expect("a flush must trigger");
        assert_eq!(f.len % 16, 0);
        assert_eq!(f.tag.get(), 31);
        assert_eq!(
            f.ea,
            cfg.region_base + 2 * cfg.region_per_spe,
            "flush targets SPE2's region"
        );
    }

    #[test]
    fn recorded_bytes_decode_back_to_the_event() {
        let shared = new_spe_handle();
        let mut tr = PdtSpeTracer::new(TracingConfig::default(), shared);
        let mut ls = LocalStore::new(256 * 1024);
        tr.attach(SpeId::new(1), &mut ls);
        tr.on_event(SpeId::new(1), 777, &dma_event(), &mut ls);
        let f = tr.finalize(SpeId::new(1), &mut ls).expect("final flush");
        // Read the record straight out of the LS buffer region.
        let bytes = ls.bytes(f.lsa, f.len).unwrap().to_vec();
        let recs = decode_stream(&bytes).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].core, TraceCore::Spe(1));
        assert_eq!(recs[0].timestamp, 777);
        assert_eq!(recs[0].code, crate::event::EventCode::SpeDmaGet);
        assert_eq!(recs[0].params[0], 0x1000);
    }

    #[test]
    fn finalize_without_events_is_none() {
        let shared = new_spe_handle();
        let mut tr = PdtSpeTracer::new(TracingConfig::default(), shared);
        let mut ls = LocalStore::new(256 * 1024);
        tr.attach(SpeId::new(0), &mut ls);
        assert!(tr.finalize(SpeId::new(0), &mut ls).is_none());
    }
}

#[cfg(test)]
mod control_tests {
    use super::*;
    use crate::markers::{TRACE_DISABLE_ID, TRACE_ENABLE_ID};
    use crate::record::decode_stream;
    use crate::sink::new_spe_handle;
    use cellsim::{DmaKind, LocalStore, SpeId};

    fn user(id: u32) -> RuntimeEvent {
        RuntimeEvent::SpeUser { id, a0: 0, a1: 0 }
    }

    fn dma() -> RuntimeEvent {
        RuntimeEvent::SpeDmaIssue {
            kind: DmaKind::Get,
            lsa: 0,
            ea: 0x1000,
            size: 128,
            tag: 0,
            list_len: 0,
        }
    }

    #[test]
    fn runtime_disable_suppresses_events_but_records_controls() {
        let shared = new_spe_handle();
        let cfg = TracingConfig::default();
        let mut tr = PdtSpeTracer::new(cfg, shared.clone());
        let mut ls = LocalStore::new(256 * 1024);
        tr.attach(SpeId::new(0), &mut ls);

        tr.on_event(SpeId::new(0), 100, &dma(), &mut ls);
        // Disable: subsequent events cost only the check.
        tr.on_event(SpeId::new(0), 99, &user(TRACE_DISABLE_ID), &mut ls);
        let c = tr.on_event(SpeId::new(0), 98, &dma(), &mut ls);
        assert_eq!(c.cycles, cfg.overhead.disabled_check_cycles);
        tr.on_event(SpeId::new(0), 97, &user(42), &mut ls);
        // Re-enable: events record again.
        tr.on_event(SpeId::new(0), 96, &user(TRACE_ENABLE_ID), &mut ls);
        tr.on_event(SpeId::new(0), 95, &dma(), &mut ls);

        let f = tr.finalize(SpeId::new(0), &mut ls).expect("flush");
        let bytes = ls.bytes(f.lsa, f.len).unwrap().to_vec();
        let recs = decode_stream(&bytes).unwrap();
        // Recorded: dma, disable-marker, enable-marker, dma.
        let ids: Vec<(crate::event::EventCode, u64)> = recs
            .iter()
            .map(|r| (r.code, r.params.first().copied().unwrap_or(0)))
            .collect();
        assert_eq!(recs.len(), 4, "records: {ids:?}");
        assert_eq!(recs[1].params[0], TRACE_DISABLE_ID as u64);
        assert_eq!(recs[2].params[0], TRACE_ENABLE_ID as u64);
        assert_eq!(lock(&shared).stats.records, 4);
    }
}
