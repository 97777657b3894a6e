//! Trace-session orchestration.
//!
//! [`TraceSession::install`] wires PDT tracers into a machine before a
//! run; [`TraceSession::collect`] assembles the [`TraceFile`] after the
//! run by reading the flushed SPE streams back out of *simulated main
//! memory* (the bytes got there through real simulated DMA) and
//! grabbing the PPE stream from the host-side buffer.

use cellsim::{Machine, SpeId, DEC_START_VALUE};

use crate::config::{TracingConfig, TracingConfigError};
use crate::format::{TraceFile, TraceHeader, TraceStream, VERSION};
use crate::ppe_tracer::PdtPpeTracer;
use crate::record::TraceCore;
use crate::sink::{lock, new_ppe_handle, new_spe_handle, PpeStreamHandle, SpeStreamHandle};
use crate::spe_tracer::PdtSpeTracer;

/// A live tracing session bound to one machine.
#[derive(Debug)]
pub struct TraceSession {
    cfg: TracingConfig,
    spe_handles: Vec<SpeStreamHandle>,
    ppe_handle: PpeStreamHandle,
    num_spes: usize,
    num_ppe_threads: usize,
    core_hz: u64,
    timebase_divider: u64,
}

impl TraceSession {
    /// Validates `cfg` against the machine and installs tracers on
    /// every SPE and the PPE.
    ///
    /// # Errors
    ///
    /// Returns [`TracingConfigError`] if the configuration is invalid,
    /// the per-SPE trace regions overlap (the region layout wraps the
    /// address space), a region start violates the MFC DMA alignment
    /// rule (flush targets must share the local-store buffer's low 4
    /// address bits, i.e. be 16-byte aligned), or the regions do not
    /// fit in the machine's main memory.
    pub fn install(cfg: TracingConfig, machine: &mut Machine) -> Result<Self, TracingConfigError> {
        // Every flush DMA targets region_base + i * region_per_spe +
        // offset from a 16-byte-aligned LS half-buffer; the MFC
        // requires EA and LSA to agree in their low 4 bits, so both
        // the base and the stride must be 16-byte aligned.
        if !cfg.region_base.is_multiple_of(16) {
            return Err(TracingConfigError::new(format!(
                "region_base {:#x} violates the MFC DMA alignment rule (16-byte)",
                cfg.region_base
            )));
        }
        if !cfg.region_per_spe.is_multiple_of(16) {
            return Err(TracingConfigError::new(format!(
                "region_per_spe {:#x} violates the MFC DMA alignment rule (16-byte)",
                cfg.region_per_spe
            )));
        }
        cfg.validate()?;
        let mcfg = machine.config();
        let num_spes = mcfg.num_spes;
        // Checked layout arithmetic: if base + per_spe * num_spes wraps
        // the u64 address space, later regions alias earlier ones.
        let end = cfg
            .region_per_spe
            .checked_mul(num_spes as u64)
            .and_then(|total| cfg.region_base.checked_add(total))
            .ok_or_else(|| {
                TracingConfigError::new(format!(
                    "per-SPE trace regions overlap: {:#x} + {} * {:#x} wraps the address space",
                    cfg.region_base, num_spes, cfg.region_per_spe
                ))
            })?;
        if end > mcfg.mem_size {
            return Err(TracingConfigError::new(format!(
                "trace regions [{:#x}, {:#x}) exceed main memory of {:#x} bytes",
                cfg.region_base, end, mcfg.mem_size
            )));
        }
        let num_ppe_threads = mcfg.num_ppe_threads;
        let core_hz = mcfg.clock.core_hz;
        let timebase_divider = mcfg.clock.timebase_divider;

        let mut spe_handles = Vec::with_capacity(num_spes);
        for i in 0..num_spes {
            let handle = new_spe_handle();
            machine.set_spe_tracer(
                SpeId::new(i),
                Box::new(PdtSpeTracer::new(cfg, handle.clone())),
            );
            spe_handles.push(handle);
        }
        let ppe_handle = new_ppe_handle();
        machine.set_ppe_tracer(Box::new(PdtPpeTracer::new(cfg, ppe_handle.clone())));

        Ok(TraceSession {
            cfg,
            spe_handles,
            ppe_handle,
            num_spes,
            num_ppe_threads,
            core_hz,
            timebase_divider,
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &TracingConfig {
        &self.cfg
    }

    /// Assembles the trace file after `machine.run()` finished.
    pub fn collect(&self, machine: &Machine) -> TraceFile {
        let mut streams = Vec::with_capacity(1 + self.num_spes);
        {
            let ppe = lock(&self.ppe_handle);
            streams.push(TraceStream {
                core: TraceCore::Ppe(0),
                bytes: ppe.bytes.clone(),
                dropped: 0,
            });
        }
        for (i, handle) in self.spe_handles.iter().enumerate() {
            let shared = lock(handle);
            let used = shared.region_used;
            let base = self.cfg.region_base + i as u64 * self.cfg.region_per_spe;
            let mut bytes = vec![0u8; used as usize];
            machine
                .mem()
                .read(base, &mut bytes)
                .expect("trace region within validated memory bounds");
            streams.push(TraceStream {
                core: TraceCore::Spe(i as u8),
                bytes,
                dropped: shared.stats.dropped,
            });
        }
        let ctx_names = lock(&self.ppe_handle).ctx_names.clone();
        TraceFile {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: self.num_ppe_threads as u8,
                num_spes: self.num_spes as u8,
                core_hz: self.core_hz,
                timebase_divider: self.timebase_divider,
                dec_start: DEC_START_VALUE,
                group_mask: self.cfg.groups.bits(),
                spe_buffer_bytes: self.cfg.spe_buffer_bytes,
            },
            streams,
            ctx_names,
        }
    }

    /// Per-SPE record/drop counters (for overhead reports).
    pub fn spe_stats(&self) -> Vec<crate::buffer::BufferStats> {
        self.spe_handles.iter().map(|h| lock(h).stats).collect()
    }

    /// PPE records written.
    pub fn ppe_records(&self) -> u64 {
        lock(&self.ppe_handle).records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::{
        LsAddr, MachineConfig, PpeThreadId, SpeJob, SpmdDriver, SpuAction, SpuScript, TagId,
        TagWaitMode,
    };

    fn traced_machine() -> (Machine, TraceSession) {
        let mut m = Machine::new(MachineConfig::default().with_num_spes(2)).unwrap();
        let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
        let tag = TagId::new(0).unwrap();
        let jobs = (0..2)
            .map(|i| {
                SpeJob::new(
                    format!("k{i}"),
                    Box::new(SpuScript::new(vec![
                        SpuAction::DmaGet {
                            lsa: LsAddr::new(0x8000),
                            ea: 0x10000,
                            size: 4096,
                            tag,
                        },
                        SpuAction::WaitTags {
                            mask: tag.mask_bit(),
                            mode: TagWaitMode::All,
                        },
                        SpuAction::Compute(5_000),
                        SpuAction::UserEvent {
                            id: 7,
                            a0: 1,
                            a1: 2,
                        },
                    ])),
                )
            })
            .collect();
        m.set_ppe_program(PpeThreadId::new(0), Box::new(SpmdDriver::new(jobs)));
        (m, session)
    }

    #[test]
    fn end_to_end_trace_collection() {
        let (mut m, session) = traced_machine();
        m.run().unwrap();
        let trace = session.collect(&m);
        assert_eq!(trace.header.num_spes, 2);
        assert_eq!(trace.streams.len(), 3);
        // The PPE stream must contain lifecycle records with names.
        assert_eq!(trace.ctx_name(0), Some("k0"));
        assert_eq!(trace.ctx_name(1), Some("k1"));
        // Each SPE stream decodes and contains the expected sequence.
        for spe in 0..2u8 {
            let s = trace.stream(TraceCore::Spe(spe)).unwrap();
            let recs = s.records().unwrap();
            assert!(!recs.is_empty(), "SPE{spe} stream empty");
            use crate::event::EventCode::*;
            let codes: Vec<_> = recs.iter().map(|r| r.code).collect();
            assert_eq!(
                codes,
                vec![
                    SpeCtxStart,
                    SpeDmaGet,
                    SpeTagWaitBegin,
                    SpeTagWaitEnd,
                    SpeUser,
                    SpeStop
                ]
            );
            // Decrementer timestamps must be non-increasing (it counts
            // down).
            for w in recs.windows(2) {
                assert!(
                    w[1].timestamp <= w[0].timestamp,
                    "decrementer increased within a stream"
                );
            }
            assert_eq!(s.dropped, 0);
        }
        // Round-trip the whole file.
        let parsed = TraceFile::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn session_rejects_regions_beyond_memory() {
        let mut m = Machine::new(
            MachineConfig::default()
                .with_num_spes(2)
                .with_mem_size(1 << 20),
        )
        .unwrap();
        let err = TraceSession::install(TracingConfig::default(), &mut m).unwrap_err();
        assert!(err.to_string().contains("exceed main memory"));
    }

    #[test]
    fn session_rejects_overlapping_region_layout() {
        // base + per_spe * num_spes wraps u64, so SPE1's region would
        // alias low memory (and SPE0's region).
        let mut m = Machine::new(MachineConfig::default().with_num_spes(2)).unwrap();
        let cfg = TracingConfig {
            region_base: 0x1000,
            region_per_spe: (u64::MAX / 2 + 1) & !0xf,
            ..TracingConfig::default()
        };
        let err = TraceSession::install(cfg, &mut m).unwrap_err();
        assert!(err.to_string().contains("overlap"), "got: {err}");
    }

    #[test]
    fn session_rejects_dma_misaligned_regions() {
        let mut m = Machine::new(MachineConfig::default().with_num_spes(2)).unwrap();
        // Base breaks the low-4-bit congruence with the 16-byte-aligned
        // LS half-buffers.
        let cfg = TracingConfig {
            region_base: 0x0800_0008,
            ..TracingConfig::default()
        };
        let err = TraceSession::install(cfg, &mut m).unwrap_err();
        assert!(err.to_string().contains("alignment"), "got: {err}");
        // A misaligned stride breaks it for every SPE past the first.
        let cfg = TracingConfig {
            region_per_spe: 4 * 1024 * 1024 + 8,
            ..TracingConfig::default()
        };
        let err = TraceSession::install(cfg, &mut m).unwrap_err();
        assert!(err.to_string().contains("alignment"), "got: {err}");
    }

    #[test]
    fn stats_expose_record_counts() {
        let (mut m, session) = traced_machine();
        m.run().unwrap();
        let stats = session.spe_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.records == 6));
        assert!(session.ppe_records() > 0);
    }
}
