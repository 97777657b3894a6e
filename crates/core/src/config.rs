//! Tracing-session configuration.

use crate::group::GroupMask;
use crate::overhead::OverheadModel;

/// Errors from validating a [`TracingConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracingConfigError {
    msg: String,
}

impl TracingConfigError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        TracingConfigError { msg: msg.into() }
    }
}

impl std::fmt::Display for TracingConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid tracing configuration: {}", self.msg)
    }
}

impl std::error::Error for TracingConfigError {}

/// Configuration of a PDT tracing session.
///
/// The defaults match the shipped PDT: a 2 KiB double-buffered trace
/// buffer in each SPE's local store, a dedicated flush tag, and all
/// event groups enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracingConfig {
    /// Enabled event groups.
    pub groups: GroupMask,
    /// Total LS trace-buffer bytes per SPE (split into two halves).
    pub spe_buffer_bytes: u32,
    /// Main-memory base address of the trace regions.
    pub region_base: u64,
    /// Main-memory bytes reserved per SPE stream.
    pub region_per_spe: u64,
    /// MFC tag the tracer's flush DMAs use (PDT reserves one).
    pub flush_tag: u8,
    /// The instrumentation cost model.
    pub overhead: OverheadModel,
}

impl Default for TracingConfig {
    fn default() -> Self {
        TracingConfig {
            groups: GroupMask::all(),
            spe_buffer_bytes: 2048,
            region_base: 0x0800_0000, // 128 MiB, above workload data
            region_per_spe: 4 * 1024 * 1024,
            flush_tag: 31,
            overhead: OverheadModel::default(),
        }
    }
}

impl TracingConfig {
    /// Sets the enabled groups.
    pub fn with_groups(mut self, groups: GroupMask) -> Self {
        self.groups = groups;
        self
    }

    /// Sets the per-SPE local-store buffer size.
    pub fn with_buffer_bytes(mut self, bytes: u32) -> Self {
        self.spe_buffer_bytes = bytes;
        self
    }

    /// Sets the overhead model.
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Half-buffer size (the flush granule).
    pub fn half_buffer_bytes(&self) -> u32 {
        self.spe_buffer_bytes / 2
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`TracingConfigError`] if the buffer is too small,
    /// misaligned, larger than one DMA can flush, or the flush tag is
    /// out of range.
    pub fn validate(&self) -> Result<(), TracingConfigError> {
        if self.spe_buffer_bytes < 256 {
            return Err(TracingConfigError::new(format!(
                "spe_buffer_bytes {} too small (min 256)",
                self.spe_buffer_bytes
            )));
        }
        if !self.spe_buffer_bytes.is_multiple_of(32) {
            return Err(TracingConfigError::new(
                "spe_buffer_bytes must be a multiple of 32 (two 16-byte-granular halves)",
            ));
        }
        if self.half_buffer_bytes() > 16 * 1024 {
            return Err(TracingConfigError::new(
                "half buffer exceeds the 16 KiB single-DMA limit",
            ));
        }
        if self.flush_tag >= 32 {
            return Err(TracingConfigError::new(format!(
                "flush_tag {} out of range",
                self.flush_tag
            )));
        }
        if self.region_per_spe < self.spe_buffer_bytes as u64 {
            return Err(TracingConfigError::new(
                "region_per_spe smaller than one trace buffer",
            ));
        }
        if !self.region_base.is_multiple_of(128) {
            return Err(TracingConfigError::new(
                "region_base must be 128-byte aligned",
            ));
        }
        Ok(())
    }
}

/// Plain-data mirror of [`TracingConfig`] (used for config
/// round-trips in tools and tests; `OverheadModel` is flattened).
#[derive(Debug, Clone, PartialEq)]
pub struct TracingConfigRepr {
    /// Group-mask bits.
    pub groups: u32,
    /// LS buffer bytes.
    pub spe_buffer_bytes: u32,
    /// Region base EA.
    pub region_base: u64,
    /// Region bytes per SPE.
    pub region_per_spe: u64,
    /// Flush tag.
    pub flush_tag: u8,
    /// SPE event base cycles.
    pub spe_event_cycles: u64,
    /// PPE event base cycles.
    pub ppe_event_cycles: u64,
}

impl From<&TracingConfig> for TracingConfigRepr {
    fn from(c: &TracingConfig) -> Self {
        TracingConfigRepr {
            groups: c.groups.bits(),
            spe_buffer_bytes: c.spe_buffer_bytes,
            region_base: c.region_base,
            region_per_spe: c.region_per_spe,
            flush_tag: c.flush_tag,
            spe_event_cycles: c.overhead.spe_event_cycles,
            ppe_event_cycles: c.overhead.ppe_event_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = TracingConfig::default();
        c.validate().unwrap();
        assert_eq!(c.half_buffer_bytes(), 1024);
        assert!(c.groups.contains(crate::group::EventGroup::SpeDma));
    }

    #[test]
    fn small_or_misaligned_buffers_rejected() {
        assert!(TracingConfig::default()
            .with_buffer_bytes(128)
            .validate()
            .is_err());
        assert!(TracingConfig::default()
            .with_buffer_bytes(1000)
            .validate()
            .is_err());
        assert!(
            TracingConfig::default()
                .with_buffer_bytes(64 * 1024)
                .validate()
                .is_err(),
            "half > 16 KiB DMA limit"
        );
    }

    #[test]
    fn bad_flush_tag_rejected() {
        let c = TracingConfig {
            flush_tag: 32,
            ..TracingConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn repr_mirrors_config() {
        let c = TracingConfig::default().with_buffer_bytes(4096);
        let r = TracingConfigRepr::from(&c);
        assert_eq!(r.spe_buffer_bytes, 4096);
        assert_eq!(r.groups, c.groups.bits());
        assert_eq!(r.flush_tag, 31);
    }
}
