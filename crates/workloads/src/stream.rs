//! Streaming triad workload: the paper's double-buffering use case.
//!
//! Each SPE processes a contiguous range of data blocks, computing
//! `out[i] = a * in[i] + b` per element. Two buffering strategies are
//! provided:
//!
//! - [`Buffering::Single`]: GET a block, wait, compute, PUT, wait —
//!   every transfer exposed on the critical path.
//! - [`Buffering::Double`]: the canonical Cell scheme with two input
//!   and two output buffers on separate tag groups, prefetching block
//!   *k+1* while computing block *k*.
//!
//! Experiment E6 traces both and shows the DMA-wait fraction collapse
//! the paper demonstrates with the Trace Analyzer timeline.

use cellsim::{
    CtxId, LsAddr, Machine, PpeAction, PpeEnv, PpeProgram, PpeWake, SpeJob, SpmdDriver, SpuAction,
    SpuEnv, SpuProgram, SpuWake, TagId, TagWaitMode,
};

use crate::common::{check_f32, DataGen, Workload, DATA_BASE};

/// Buffering strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buffering {
    /// One input and one output buffer; transfers serialize with
    /// compute.
    Single,
    /// Two input and two output buffers; transfers overlap compute.
    Double,
    /// A *deliberately broken* double-buffer: the prefetch GET lands in
    /// the same LS buffer as the in-flight GET, on a tag group that is
    /// never waited, and the kernel opens with a wait on an unused tag.
    /// Exists to seed `ta-cli lint` findings (`dma-race`,
    /// `unwaited-tag-group`, `wait-without-dma`); its output is
    /// unspecified and not verified.
    RacyDouble,
    /// A mailbox-paced, barrier-protected in-place double buffer that
    /// is *correct* but looks racy to a window heuristic: each round's
    /// PUT is not tag-waited until the final drain, so its wait window
    /// stretches over the GET that later refills the same buffer. An
    /// `mfc_barrier` between the PUT and the refill orders them; the
    /// happens-before engine proves the overlap synchronized while the
    /// window heuristic false-positives on it. Output is verified.
    MboxSync,
    /// A *deliberately broken* "double buffer" that hides its race
    /// inside one tag group: block *k+1* is prefetched into the same
    /// LS buffer as the in-flight GET of block *k*, on the **same**
    /// tag — which the MFC does not order within a group. A window
    /// heuristic that only compares differing tags misses it; the
    /// happens-before engine reports it. Output is unspecified and
    /// not verified.
    TagHidden,
}

/// Streaming workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Total data blocks (split contiguously across SPEs).
    pub blocks: usize,
    /// Bytes per block (a valid DMA size, multiple of 16).
    pub block_bytes: u32,
    /// Triad scale.
    pub a: f32,
    /// Triad offset.
    pub b: f32,
    /// Modeled compute cycles per block (on top of the data movement).
    pub compute_cycles_per_block: u64,
    /// Buffering strategy.
    pub buffering: Buffering,
    /// SPEs to use.
    pub spes: usize,
    /// Data seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            blocks: 64,
            block_bytes: 16 * 1024,
            a: 2.5,
            b: -1.0,
            compute_cycles_per_block: 4096,
            buffering: Buffering::Double,
            spes: 4,
            seed: 42,
        }
    }
}

impl StreamConfig {
    fn elems_per_block(&self) -> usize {
        self.block_bytes as usize / 4
    }

    fn in_base(&self) -> u64 {
        DATA_BASE
    }

    fn out_base(&self) -> u64 {
        let total = self.blocks as u64 * self.block_bytes as u64;
        (DATA_BASE + total + 0xffff) & !0xffff
    }
}

/// The streaming workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamWorkload {
    /// Parameters.
    pub cfg: StreamConfig,
}

impl StreamWorkload {
    /// Creates the workload.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamWorkload { cfg }
    }

    /// The input data this workload stages (derived from the seed).
    pub fn input(&self) -> Vec<f32> {
        DataGen::new(self.cfg.seed).f32_vec(self.cfg.blocks * self.cfg.elems_per_block())
    }
}

impl Workload for StreamWorkload {
    fn name(&self) -> &str {
        "stream"
    }

    fn stage(&self, machine: &mut Machine) -> Box<dyn PpeProgram> {
        let input = self.input();
        machine
            .mem_mut()
            .write_f32_slice(self.cfg.in_base(), &input)
            .expect("input fits in data region");
        // Split blocks contiguously.
        let per = self.cfg.blocks.div_ceil(self.cfg.spes);
        let mut counts = Vec::with_capacity(self.cfg.spes);
        let jobs: Vec<SpeJob> = (0..self.cfg.spes)
            .map(|s| {
                let first = s * per;
                let count = per.min(self.cfg.blocks.saturating_sub(first));
                counts.push(count);
                let kernel: Box<dyn SpuProgram> = match self.cfg.buffering {
                    Buffering::Single => Box::new(SingleBufferKernel::new(self.cfg, first, count)),
                    Buffering::Double => Box::new(DoubleBufferKernel::new(self.cfg, first, count)),
                    Buffering::RacyDouble => {
                        Box::new(RacyDoubleBufferKernel::new(self.cfg, first, count))
                    }
                    Buffering::MboxSync => Box::new(MboxSyncKernel::new(self.cfg, first, count)),
                    Buffering::TagHidden => Box::new(TagHiddenKernel::new(self.cfg, first, count)),
                };
                SpeJob::new(format!("stream{s}"), kernel)
            })
            .collect();
        if self.cfg.buffering == Buffering::MboxSync {
            // The mailbox-paced kernel reports each round to the PPE
            // and waits for an acknowledgement; SpmdDriver never reads
            // outbound mailboxes, so it needs the echo driver.
            Box::new(MboxEchoDriver::new(jobs, counts))
        } else {
            Box::new(SpmdDriver::new(jobs))
        }
    }

    fn verify(&self, machine: &Machine) -> Result<(), String> {
        if matches!(
            self.cfg.buffering,
            Buffering::RacyDouble | Buffering::TagHidden
        ) {
            // These kernels overwrite an input buffer while a transfer
            // into it is still in flight; whatever they computed is
            // unspecified by construction. The run itself (no
            // simulator fault) is the only thing to verify.
            return Ok(());
        }
        let n = self.cfg.blocks * self.cfg.elems_per_block();
        let input = self.input();
        let got = machine
            .mem()
            .read_f32_slice(self.cfg.out_base(), n)
            .map_err(|e| e.to_string())?;
        let want: Vec<f32> = input.iter().map(|x| self.cfg.a * x + self.cfg.b).collect();
        check_f32(&got, &want, 1e-5)
    }
}

fn transform(env: &mut SpuEnv<'_>, from: LsAddr, to: LsAddr, elems: usize, a: f32, b: f32) {
    let data = env.ls.read_f32_slice(from, elems).expect("in buffer");
    let out: Vec<f32> = data.iter().map(|x| a * x + b).collect();
    env.ls.write_f32_slice(to, &out).expect("out buffer");
}

// ---------------------------------------------------------------------
// Single-buffered kernel
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinglePhase {
    Init,
    GetIssued,
    GetDone,
    ComputeDone,
    PutIssued,
    PutDone,
}

/// One-in one-out buffer streaming kernel.
#[derive(Debug)]
pub struct SingleBufferKernel {
    cfg: StreamConfig,
    first: usize,
    count: usize,
    k: usize,
    phase: SinglePhase,
    in_buf: LsAddr,
    out_buf: LsAddr,
}

impl SingleBufferKernel {
    /// Kernel over blocks `[first, first+count)`.
    pub fn new(cfg: StreamConfig, first: usize, count: usize) -> Self {
        SingleBufferKernel {
            cfg,
            first,
            count,
            k: 0,
            phase: SinglePhase::Init,
            in_buf: LsAddr::new(0),
            out_buf: LsAddr::new(0),
        }
    }

    fn block_ea(&self, base: u64, k: usize) -> u64 {
        base + (self.first + k) as u64 * self.cfg.block_bytes as u64
    }
}

const IN_TAG: u8 = 0;
const OUT_TAG: u8 = 2;

impl SpuProgram for SingleBufferKernel {
    fn resume(&mut self, _wake: SpuWake, mut env: SpuEnv<'_>) -> SpuAction {
        let bytes = self.cfg.block_bytes;
        match self.phase {
            SinglePhase::Init => {
                self.in_buf = env.ls.alloc(bytes, 128, "in").unwrap();
                self.out_buf = env.ls.alloc(bytes, 128, "out").unwrap();
                if self.count == 0 {
                    return SpuAction::Stop(0);
                }
                self.phase = SinglePhase::GetIssued;
                SpuAction::DmaGet {
                    lsa: self.in_buf,
                    ea: self.block_ea(self.cfg.in_base(), self.k),
                    size: bytes,
                    tag: TagId::new(IN_TAG).unwrap(),
                }
            }
            SinglePhase::GetIssued => {
                self.phase = SinglePhase::GetDone;
                SpuAction::WaitTags {
                    mask: 1 << IN_TAG,
                    mode: TagWaitMode::All,
                }
            }
            SinglePhase::GetDone => {
                transform(
                    &mut env,
                    self.in_buf,
                    self.out_buf,
                    self.cfg.elems_per_block(),
                    self.cfg.a,
                    self.cfg.b,
                );
                self.phase = SinglePhase::ComputeDone;
                SpuAction::Compute(self.cfg.compute_cycles_per_block)
            }
            SinglePhase::ComputeDone => {
                self.phase = SinglePhase::PutIssued;
                SpuAction::DmaPut {
                    lsa: self.out_buf,
                    ea: self.block_ea(self.cfg.out_base(), self.k),
                    size: bytes,
                    tag: TagId::new(OUT_TAG).unwrap(),
                }
            }
            SinglePhase::PutIssued => {
                self.phase = SinglePhase::PutDone;
                SpuAction::WaitTags {
                    mask: 1 << OUT_TAG,
                    mode: TagWaitMode::All,
                }
            }
            SinglePhase::PutDone => {
                self.k += 1;
                if self.k >= self.count {
                    return SpuAction::Stop(0);
                }
                self.phase = SinglePhase::GetIssued;
                SpuAction::DmaGet {
                    lsa: self.in_buf,
                    ea: self.block_ea(self.cfg.in_base(), self.k),
                    size: bytes,
                    tag: TagId::new(IN_TAG).unwrap(),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Double-buffered kernel
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DoublePhase {
    Init,
    FirstGetIssued,
    PrefetchIssued,
    InWaitDone,
    ComputeDone,
    OutWaitDone,
    PutIssued,
    DrainWait,
}

/// Two-in two-out buffer streaming kernel with prefetch.
#[derive(Debug)]
pub struct DoubleBufferKernel {
    cfg: StreamConfig,
    first: usize,
    count: usize,
    k: usize,
    phase: DoublePhase,
    in_bufs: [LsAddr; 2],
    out_bufs: [LsAddr; 2],
}

impl DoubleBufferKernel {
    /// Kernel over blocks `[first, first+count)`.
    pub fn new(cfg: StreamConfig, first: usize, count: usize) -> Self {
        DoubleBufferKernel {
            cfg,
            first,
            count,
            k: 0,
            phase: DoublePhase::Init,
            in_bufs: [LsAddr::new(0); 2],
            out_bufs: [LsAddr::new(0); 2],
        }
    }

    fn block_ea(&self, base: u64, k: usize) -> u64 {
        base + (self.first + k) as u64 * self.cfg.block_bytes as u64
    }

    fn in_tag(k: usize) -> u8 {
        (k % 2) as u8
    }

    fn out_tag(k: usize) -> u8 {
        2 + (k % 2) as u8
    }

    fn get_action(&self, k: usize) -> SpuAction {
        SpuAction::DmaGet {
            lsa: self.in_bufs[k % 2],
            ea: self.block_ea(self.cfg.in_base(), k),
            size: self.cfg.block_bytes,
            tag: TagId::new(Self::in_tag(k)).unwrap(),
        }
    }
}

impl SpuProgram for DoubleBufferKernel {
    fn resume(&mut self, _wake: SpuWake, mut env: SpuEnv<'_>) -> SpuAction {
        let bytes = self.cfg.block_bytes;
        match self.phase {
            DoublePhase::Init => {
                for b in 0..2 {
                    self.in_bufs[b] = env.ls.alloc(bytes, 128, "in").unwrap();
                    self.out_bufs[b] = env.ls.alloc(bytes, 128, "out").unwrap();
                }
                if self.count == 0 {
                    return SpuAction::Stop(0);
                }
                self.phase = DoublePhase::FirstGetIssued;
                self.get_action(0)
            }
            DoublePhase::FirstGetIssued => {
                // Prefetch block 1, if any.
                if self.count > 1 {
                    self.phase = DoublePhase::PrefetchIssued;
                    return self.get_action(1);
                }
                self.phase = DoublePhase::InWaitDone;
                SpuAction::WaitTags {
                    mask: 1 << Self::in_tag(0),
                    mode: TagWaitMode::All,
                }
            }
            DoublePhase::PrefetchIssued => {
                self.phase = DoublePhase::InWaitDone;
                SpuAction::WaitTags {
                    mask: 1 << Self::in_tag(self.k),
                    mode: TagWaitMode::All,
                }
            }
            DoublePhase::InWaitDone => {
                transform(
                    &mut env,
                    self.in_bufs[self.k % 2],
                    self.out_bufs[self.k % 2],
                    self.cfg.elems_per_block(),
                    self.cfg.a,
                    self.cfg.b,
                );
                self.phase = DoublePhase::ComputeDone;
                SpuAction::Compute(self.cfg.compute_cycles_per_block)
            }
            DoublePhase::ComputeDone => {
                // Ensure the previous PUT from this out-buffer is
                // done before overwriting... it already is: we
                // transformed into it. Ensure the *DMA* finished:
                self.phase = DoublePhase::OutWaitDone;
                SpuAction::WaitTags {
                    mask: 1 << Self::out_tag(self.k),
                    mode: TagWaitMode::All,
                }
            }
            DoublePhase::OutWaitDone => {
                self.phase = DoublePhase::PutIssued;
                SpuAction::DmaPut {
                    lsa: self.out_bufs[self.k % 2],
                    ea: self.block_ea(self.cfg.out_base(), self.k),
                    size: bytes,
                    tag: TagId::new(Self::out_tag(self.k)).unwrap(),
                }
            }
            DoublePhase::PutIssued => {
                // Prefetch block k+2 into the in-buffer we just
                // consumed, then advance.
                let next_prefetch = self.k + 2;
                self.k += 1;
                if self.k >= self.count {
                    self.phase = DoublePhase::DrainWait;
                    return SpuAction::WaitTags {
                        mask: (1 << OUT_TAG) | (1 << (OUT_TAG + 1)),
                        mode: TagWaitMode::All,
                    };
                }
                if next_prefetch < self.count {
                    self.phase = DoublePhase::PrefetchIssued;
                    return self.get_action(next_prefetch);
                }
                self.phase = DoublePhase::InWaitDone;
                SpuAction::WaitTags {
                    mask: 1 << Self::in_tag(self.k),
                    mode: TagWaitMode::All,
                }
            }
            DoublePhase::DrainWait => SpuAction::Stop(0),
        }
    }
}

// ---------------------------------------------------------------------
// Racy double-buffered kernel (deliberately broken, for the linter)
// ---------------------------------------------------------------------

/// The tag the racy kernel's never-waited prefetches go out on.
const RACY_PREFETCH_TAG: u8 = 1;
/// The unused tag the racy kernel pointlessly waits on at startup.
const RACY_BOGUS_TAG: u8 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RacyPhase {
    Init,
    BogusWaitIssued,
    GetIssued,
    PrefetchIssued,
    InWaitDone,
    ComputeDone,
    PutIssued,
    PutDone,
}

/// A naive "double buffer" that forgot the second buffer: block *k+1*
/// is prefetched into the **same** LS buffer the in-flight GET of
/// block *k* targets, on tag `RACY_PREFETCH_TAG` — which is never
/// waited. Every anti-pattern here is intentional; the lint golden
/// tests pin the diagnostics this kernel seeds:
///
/// - `dma-race`: the prefetch GET overlaps the primary GET in time and
///   LS range, on different tag groups, and both write local store.
/// - `unwaited-tag-group`: no tag wait ever covers the prefetch tag.
/// - `wait-without-dma`: the startup wait on `RACY_BOGUS_TAG` names
///   a tag with zero outstanding transfers.
#[derive(Debug)]
pub struct RacyDoubleBufferKernel {
    cfg: StreamConfig,
    first: usize,
    count: usize,
    k: usize,
    phase: RacyPhase,
    in_buf: LsAddr,
    out_buf: LsAddr,
}

impl RacyDoubleBufferKernel {
    /// Kernel over blocks `[first, first+count)`.
    pub fn new(cfg: StreamConfig, first: usize, count: usize) -> Self {
        RacyDoubleBufferKernel {
            cfg,
            first,
            count,
            k: 0,
            phase: RacyPhase::Init,
            in_buf: LsAddr::new(0),
            out_buf: LsAddr::new(0),
        }
    }

    fn block_ea(&self, base: u64, k: usize) -> u64 {
        base + (self.first + k) as u64 * self.cfg.block_bytes as u64
    }

    fn get_into_shared_buf(&self, k: usize, tag: u8) -> SpuAction {
        SpuAction::DmaGet {
            lsa: self.in_buf,
            ea: self.block_ea(self.cfg.in_base(), k),
            size: self.cfg.block_bytes,
            tag: TagId::new(tag).unwrap(),
        }
    }
}

impl SpuProgram for RacyDoubleBufferKernel {
    fn resume(&mut self, _wake: SpuWake, mut env: SpuEnv<'_>) -> SpuAction {
        let bytes = self.cfg.block_bytes;
        match self.phase {
            RacyPhase::Init => {
                self.in_buf = env.ls.alloc(bytes, 128, "in").unwrap();
                self.out_buf = env.ls.alloc(bytes, 128, "out").unwrap();
                // Bug #1: wait on a tag nothing was ever issued on.
                self.phase = RacyPhase::BogusWaitIssued;
                SpuAction::WaitTags {
                    mask: 1 << RACY_BOGUS_TAG,
                    mode: TagWaitMode::All,
                }
            }
            RacyPhase::BogusWaitIssued => {
                if self.count == 0 {
                    return SpuAction::Stop(0);
                }
                self.phase = RacyPhase::GetIssued;
                self.get_into_shared_buf(self.k, IN_TAG)
            }
            RacyPhase::GetIssued => {
                // Bug #2: "prefetch" the next block into the SAME
                // buffer, on a tag group that is never waited.
                if self.k + 1 < self.count {
                    self.phase = RacyPhase::PrefetchIssued;
                    return self.get_into_shared_buf(self.k + 1, RACY_PREFETCH_TAG);
                }
                self.phase = RacyPhase::InWaitDone;
                SpuAction::WaitTags {
                    mask: 1 << IN_TAG,
                    mode: TagWaitMode::All,
                }
            }
            RacyPhase::PrefetchIssued => {
                self.phase = RacyPhase::InWaitDone;
                SpuAction::WaitTags {
                    mask: 1 << IN_TAG,
                    mode: TagWaitMode::All,
                }
            }
            RacyPhase::InWaitDone => {
                transform(
                    &mut env,
                    self.in_buf,
                    self.out_buf,
                    self.cfg.elems_per_block(),
                    self.cfg.a,
                    self.cfg.b,
                );
                self.phase = RacyPhase::ComputeDone;
                SpuAction::Compute(self.cfg.compute_cycles_per_block)
            }
            RacyPhase::ComputeDone => {
                self.phase = RacyPhase::PutIssued;
                SpuAction::DmaPut {
                    lsa: self.out_buf,
                    ea: self.block_ea(self.cfg.out_base(), self.k),
                    size: bytes,
                    tag: TagId::new(OUT_TAG).unwrap(),
                }
            }
            RacyPhase::PutIssued => {
                self.phase = RacyPhase::PutDone;
                SpuAction::WaitTags {
                    mask: 1 << OUT_TAG,
                    mode: TagWaitMode::All,
                }
            }
            RacyPhase::PutDone => {
                self.k += 1;
                if self.k >= self.count {
                    return SpuAction::Stop(0);
                }
                self.phase = RacyPhase::GetIssued;
                self.get_into_shared_buf(self.k, IN_TAG)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mailbox-paced, barrier-protected kernel (correct; heuristic-hostile)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MboxPhase {
    Init,
    FirstGetIssued,
    GetsIssued,
    InWaitDone,
    ComputeDone,
    MboxSent,
    Acked,
    PutIssued,
    BarrierIssued,
    DrainWait,
}

/// An in-place double buffer whose rounds are paced by a PPE mailbox
/// echo and whose buffer reuse is protected by `mfc_barrier` instead
/// of per-round tag waits on the output group.
///
/// Round *k*: wait the input tag for buffer *k mod 2*, transform the
/// block in place, report the round to the PPE and wait for the ack,
/// PUT the buffer out on `OUT_TAG` **without waiting it**, issue an
/// MFC barrier, then refill the buffer with block *k+2*. The single
/// drain wait on `OUT_TAG` sits at the very end — so a window
/// heuristic sees every PUT's wait window stretch over the refill GET
/// of the same buffer and reports a race the barrier actually
/// prevents. The happens-before engine stays silent here.
#[derive(Debug)]
pub struct MboxSyncKernel {
    cfg: StreamConfig,
    first: usize,
    count: usize,
    k: usize,
    phase: MboxPhase,
    bufs: [LsAddr; 2],
}

impl MboxSyncKernel {
    /// Kernel over blocks `[first, first+count)`.
    pub fn new(cfg: StreamConfig, first: usize, count: usize) -> Self {
        MboxSyncKernel {
            cfg,
            first,
            count,
            k: 0,
            phase: MboxPhase::Init,
            bufs: [LsAddr::new(0); 2],
        }
    }

    fn block_ea(&self, base: u64, k: usize) -> u64 {
        base + (self.first + k) as u64 * self.cfg.block_bytes as u64
    }

    fn get_action(&self, k: usize) -> SpuAction {
        SpuAction::DmaGet {
            lsa: self.bufs[k % 2],
            ea: self.block_ea(self.cfg.in_base(), k),
            size: self.cfg.block_bytes,
            tag: TagId::new((k % 2) as u8).unwrap(),
        }
    }

    fn wait_in(&self) -> SpuAction {
        SpuAction::WaitTags {
            mask: 1 << ((self.k % 2) as u8),
            mode: TagWaitMode::All,
        }
    }
}

impl SpuProgram for MboxSyncKernel {
    fn resume(&mut self, _wake: SpuWake, mut env: SpuEnv<'_>) -> SpuAction {
        let bytes = self.cfg.block_bytes;
        match self.phase {
            MboxPhase::Init => {
                for b in 0..2 {
                    self.bufs[b] = env.ls.alloc(bytes, 128, "buf").unwrap();
                }
                if self.count == 0 {
                    return SpuAction::Stop(0);
                }
                self.phase = MboxPhase::FirstGetIssued;
                self.get_action(0)
            }
            MboxPhase::FirstGetIssued => {
                if self.count > 1 {
                    self.phase = MboxPhase::GetsIssued;
                    return self.get_action(1);
                }
                self.phase = MboxPhase::InWaitDone;
                self.wait_in()
            }
            MboxPhase::GetsIssued => {
                self.phase = MboxPhase::InWaitDone;
                self.wait_in()
            }
            MboxPhase::InWaitDone => {
                let buf = self.bufs[self.k % 2];
                transform(
                    &mut env,
                    buf,
                    buf,
                    self.cfg.elems_per_block(),
                    self.cfg.a,
                    self.cfg.b,
                );
                self.phase = MboxPhase::ComputeDone;
                SpuAction::Compute(self.cfg.compute_cycles_per_block)
            }
            MboxPhase::ComputeDone => {
                self.phase = MboxPhase::MboxSent;
                SpuAction::WriteOutMbox(self.k as u32)
            }
            MboxPhase::MboxSent => {
                self.phase = MboxPhase::Acked;
                SpuAction::ReadInMbox
            }
            MboxPhase::Acked => {
                self.phase = MboxPhase::PutIssued;
                SpuAction::DmaPut {
                    lsa: self.bufs[self.k % 2],
                    ea: self.block_ea(self.cfg.out_base(), self.k),
                    size: bytes,
                    tag: TagId::new(OUT_TAG).unwrap(),
                }
            }
            MboxPhase::PutIssued => {
                // The barrier is the whole trick: it orders the PUT we
                // just enqueued before the refill GET below without a
                // tag wait the heuristic could see.
                self.phase = MboxPhase::BarrierIssued;
                SpuAction::DmaBarrier
            }
            MboxPhase::BarrierIssued => {
                let refill = self.k + 2;
                self.k += 1;
                if refill < self.count {
                    self.phase = MboxPhase::GetsIssued;
                    return self.get_action(refill);
                }
                if self.k < self.count {
                    self.phase = MboxPhase::InWaitDone;
                    return self.wait_in();
                }
                self.phase = MboxPhase::DrainWait;
                SpuAction::WaitTags {
                    mask: 1 << OUT_TAG,
                    mode: TagWaitMode::All,
                }
            }
            MboxPhase::DrainWait => SpuAction::Stop(0),
        }
    }
}

/// PPE driver for the mailbox-paced kernel: create → run → echo one
/// ack per round per context (in round-major order) → join → halt.
pub struct MboxEchoDriver {
    jobs: Vec<Option<SpeJob>>,
    /// Flattened (round, job) echo schedule: the job index of each
    /// outbound-mailbox read, in the order the driver services them.
    schedule: Vec<usize>,
    ctxs: Vec<CtxId>,
    phase: EchoPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EchoPhase {
    Create(usize),
    Run(usize),
    /// Servicing `schedule[idx]`; `acked` is false while the read is
    /// outstanding and true while the ack write is.
    Echo {
        idx: usize,
        acked: bool,
    },
    Join(usize),
    Done,
}

impl std::fmt::Debug for MboxEchoDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MboxEchoDriver")
            .field("jobs", &self.jobs.len())
            .field("echoes", &self.schedule.len())
            .field("phase", &self.phase)
            .finish()
    }
}

impl MboxEchoDriver {
    /// Creates a driver over the given jobs; `rounds[j]` is the number
    /// of mailbox round-trips job `j` performs.
    pub fn new(jobs: Vec<SpeJob>, rounds: Vec<usize>) -> Self {
        assert_eq!(jobs.len(), rounds.len());
        let max = rounds.iter().copied().max().unwrap_or(0);
        let mut schedule = Vec::new();
        for round in 0..max {
            for (j, &r) in rounds.iter().enumerate() {
                if round < r {
                    schedule.push(j);
                }
            }
        }
        MboxEchoDriver {
            jobs: jobs.into_iter().map(Some).collect(),
            schedule,
            ctxs: Vec::new(),
            phase: EchoPhase::Create(0),
        }
    }

    fn after_starts(&self) -> EchoPhase {
        if self.schedule.is_empty() {
            self.after_echoes()
        } else {
            EchoPhase::Echo {
                idx: 0,
                acked: false,
            }
        }
    }

    fn after_echoes(&self) -> EchoPhase {
        if self.ctxs.is_empty() {
            EchoPhase::Done
        } else {
            EchoPhase::Join(0)
        }
    }

    fn emit(&mut self) -> PpeAction {
        match self.phase {
            EchoPhase::Create(j) => {
                let job = self.jobs[j].take().expect("job consumed twice");
                PpeAction::CreateContext {
                    name: job.name,
                    program: job.program,
                }
            }
            EchoPhase::Run(j) => PpeAction::RunContext(self.ctxs[j]),
            EchoPhase::Echo { idx, acked: false } => PpeAction::ReadOutMbox {
                ctx: self.ctxs[self.schedule[idx]],
            },
            EchoPhase::Echo { idx, acked: true } => PpeAction::WriteInMbox {
                ctx: self.ctxs[self.schedule[idx]],
                value: 1,
            },
            EchoPhase::Join(j) => PpeAction::WaitStop { ctx: self.ctxs[j] },
            EchoPhase::Done => PpeAction::Halt,
        }
    }
}

impl PpeProgram for MboxEchoDriver {
    fn resume(&mut self, wake: PpeWake, _env: PpeEnv<'_>) -> PpeAction {
        match wake {
            PpeWake::Start => {
                if self.jobs.is_empty() {
                    self.phase = EchoPhase::Done;
                }
            }
            PpeWake::ContextCreated(ctx) => {
                let EchoPhase::Create(j) = self.phase else {
                    panic!("unexpected ContextCreated in {:?}", self.phase)
                };
                self.ctxs.push(ctx);
                self.phase = EchoPhase::Run(j);
            }
            PpeWake::ContextStarted(_) => {
                let EchoPhase::Run(j) = self.phase else {
                    panic!("unexpected ContextStarted in {:?}", self.phase)
                };
                self.phase = if j + 1 < self.jobs.len() {
                    EchoPhase::Create(j + 1)
                } else {
                    self.after_starts()
                };
            }
            PpeWake::OutMbox(_) => {
                let EchoPhase::Echo { idx, acked: false } = self.phase else {
                    panic!("unexpected OutMbox in {:?}", self.phase)
                };
                self.phase = EchoPhase::Echo { idx, acked: true };
            }
            PpeWake::MboxWritten => {
                let EchoPhase::Echo { idx, acked: true } = self.phase else {
                    panic!("unexpected MboxWritten in {:?}", self.phase)
                };
                self.phase = if idx + 1 < self.schedule.len() {
                    EchoPhase::Echo {
                        idx: idx + 1,
                        acked: false,
                    }
                } else {
                    self.after_echoes()
                };
            }
            PpeWake::Stopped { .. } => {
                let EchoPhase::Join(j) = self.phase else {
                    panic!("unexpected Stopped in {:?}", self.phase)
                };
                self.phase = if j + 1 < self.ctxs.len() {
                    EchoPhase::Join(j + 1)
                } else {
                    EchoPhase::Done
                };
            }
            other => panic!("unexpected wake {other:?} in {:?}", self.phase),
        }
        self.emit()
    }
}

// ---------------------------------------------------------------------
// Same-tag racy kernel (deliberately broken; heuristic-invisible)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagHiddenPhase {
    Init,
    GetIssued,
    PrefetchIssued,
    InWaitDone,
    ComputeDone,
    PutIssued,
    PutDone,
}

/// A "double buffer" whose race hides inside one tag group: each round
/// GETs block *k* into the input buffer and immediately "prefetches"
/// block *k+1* into the **same** buffer on the **same** tag. The MFC
/// orders nothing within a tag group, so the two GETs race on the
/// whole buffer — but a window heuristic that only pairs differing
/// tags never sees it. The happens-before engine reports one same-tag
/// race per prefetch.
#[derive(Debug)]
pub struct TagHiddenKernel {
    cfg: StreamConfig,
    first: usize,
    count: usize,
    k: usize,
    phase: TagHiddenPhase,
    in_buf: LsAddr,
    out_buf: LsAddr,
}

impl TagHiddenKernel {
    /// Kernel over blocks `[first, first+count)`.
    pub fn new(cfg: StreamConfig, first: usize, count: usize) -> Self {
        TagHiddenKernel {
            cfg,
            first,
            count,
            k: 0,
            phase: TagHiddenPhase::Init,
            in_buf: LsAddr::new(0),
            out_buf: LsAddr::new(0),
        }
    }

    fn block_ea(&self, base: u64, k: usize) -> u64 {
        base + (self.first + k) as u64 * self.cfg.block_bytes as u64
    }

    fn get_in(&self, k: usize) -> SpuAction {
        SpuAction::DmaGet {
            lsa: self.in_buf,
            ea: self.block_ea(self.cfg.in_base(), k),
            size: self.cfg.block_bytes,
            tag: TagId::new(IN_TAG).unwrap(),
        }
    }
}

impl SpuProgram for TagHiddenKernel {
    fn resume(&mut self, _wake: SpuWake, mut env: SpuEnv<'_>) -> SpuAction {
        let bytes = self.cfg.block_bytes;
        match self.phase {
            TagHiddenPhase::Init => {
                self.in_buf = env.ls.alloc(bytes, 128, "in").unwrap();
                self.out_buf = env.ls.alloc(bytes, 128, "out").unwrap();
                if self.count == 0 {
                    return SpuAction::Stop(0);
                }
                self.phase = TagHiddenPhase::GetIssued;
                self.get_in(self.k)
            }
            TagHiddenPhase::GetIssued => {
                // The bug: "prefetch" the next block into the same
                // buffer on the same tag — unordered by the MFC.
                if self.k + 1 < self.count {
                    self.phase = TagHiddenPhase::PrefetchIssued;
                    return self.get_in(self.k + 1);
                }
                self.phase = TagHiddenPhase::InWaitDone;
                SpuAction::WaitTags {
                    mask: 1 << IN_TAG,
                    mode: TagWaitMode::All,
                }
            }
            TagHiddenPhase::PrefetchIssued => {
                self.phase = TagHiddenPhase::InWaitDone;
                SpuAction::WaitTags {
                    mask: 1 << IN_TAG,
                    mode: TagWaitMode::All,
                }
            }
            TagHiddenPhase::InWaitDone => {
                transform(
                    &mut env,
                    self.in_buf,
                    self.out_buf,
                    self.cfg.elems_per_block(),
                    self.cfg.a,
                    self.cfg.b,
                );
                self.phase = TagHiddenPhase::ComputeDone;
                SpuAction::Compute(self.cfg.compute_cycles_per_block)
            }
            TagHiddenPhase::ComputeDone => {
                self.phase = TagHiddenPhase::PutIssued;
                SpuAction::DmaPut {
                    lsa: self.out_buf,
                    ea: self.block_ea(self.cfg.out_base(), self.k),
                    size: bytes,
                    tag: TagId::new(OUT_TAG).unwrap(),
                }
            }
            TagHiddenPhase::PutIssued => {
                self.phase = TagHiddenPhase::PutDone;
                SpuAction::WaitTags {
                    mask: 1 << OUT_TAG,
                    mode: TagWaitMode::All,
                }
            }
            TagHiddenPhase::PutDone => {
                self.k += 1;
                if self.k >= self.count {
                    return SpuAction::Stop(0);
                }
                self.phase = TagHiddenPhase::GetIssued;
                self.get_in(self.k)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_workload;
    use cellsim::MachineConfig;

    fn small(buffering: Buffering, spes: usize) -> StreamConfig {
        StreamConfig {
            blocks: 12,
            block_bytes: 4096,
            compute_cycles_per_block: 3000,
            buffering,
            spes,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn racy_double_buffer_runs_to_completion() {
        // Output is unspecified (that's the point), but the simulator
        // must not fault and the run must terminate.
        let w = StreamWorkload::new(small(Buffering::RacyDouble, 2));
        let r = run_workload(&w, MachineConfig::default().with_num_spes(2), None).unwrap();
        assert!(r.report.cycles > 0);
    }

    #[test]
    fn mbox_sync_produces_correct_results() {
        // The barrier-protected in-place scheme is correct despite
        // never tag-waiting a PUT before its buffer is refilled.
        let w = StreamWorkload::new(small(Buffering::MboxSync, 2));
        run_workload(&w, MachineConfig::default().with_num_spes(2), None).unwrap();
    }

    #[test]
    fn mbox_sync_single_block_and_single_spe_edge_cases() {
        for (blocks, spes) in [(1usize, 1usize), (2, 1), (3, 2)] {
            let cfg = StreamConfig {
                blocks,
                block_bytes: 1024,
                spes,
                buffering: Buffering::MboxSync,
                ..StreamConfig::default()
            };
            run_workload(
                &StreamWorkload::new(cfg),
                MachineConfig::default().with_num_spes(spes),
                None,
            )
            .unwrap();
        }
    }

    #[test]
    fn tag_hidden_runs_to_completion() {
        // Output is unspecified (the same-tag prefetch clobbers the
        // buffer), but the run must terminate without faulting.
        let w = StreamWorkload::new(small(Buffering::TagHidden, 2));
        let r = run_workload(&w, MachineConfig::default().with_num_spes(2), None).unwrap();
        assert!(r.report.cycles > 0);
    }

    #[test]
    fn single_buffer_produces_correct_results() {
        let w = StreamWorkload::new(small(Buffering::Single, 2));
        let r = run_workload(&w, MachineConfig::default().with_num_spes(2), None).unwrap();
        assert!(r.report.cycles > 0);
    }

    #[test]
    fn double_buffer_produces_correct_results() {
        let w = StreamWorkload::new(small(Buffering::Double, 2));
        run_workload(&w, MachineConfig::default().with_num_spes(2), None).unwrap();
    }

    #[test]
    fn double_buffering_is_faster_when_balanced() {
        // Compute ≈ transfer time so overlap matters.
        let mk = |buffering| StreamConfig {
            blocks: 32,
            block_bytes: 16 * 1024,
            compute_cycles_per_block: 2500,
            buffering,
            spes: 1,
            ..StreamConfig::default()
        };
        let single = run_workload(
            &StreamWorkload::new(mk(Buffering::Single)),
            MachineConfig::default().with_num_spes(1),
            None,
        )
        .unwrap();
        let double = run_workload(
            &StreamWorkload::new(mk(Buffering::Double)),
            MachineConfig::default().with_num_spes(1),
            None,
        )
        .unwrap();
        let speedup = single.report.cycles as f64 / double.report.cycles as f64;
        assert!(
            speedup > 1.25,
            "double buffering speedup {speedup:.2} (single {} double {})",
            single.report.cycles,
            double.report.cycles
        );
    }

    #[test]
    fn uneven_block_split_still_verifies() {
        // 13 blocks over 4 SPEs: one SPE gets a single block.
        let cfg = StreamConfig {
            blocks: 13,
            block_bytes: 2048,
            spes: 4,
            buffering: Buffering::Double,
            ..StreamConfig::default()
        };
        run_workload(
            &StreamWorkload::new(cfg),
            MachineConfig::default().with_num_spes(4),
            None,
        )
        .unwrap();
    }

    #[test]
    fn single_block_double_buffer_edge_case() {
        let cfg = StreamConfig {
            blocks: 1,
            block_bytes: 1024,
            spes: 1,
            buffering: Buffering::Double,
            ..StreamConfig::default()
        };
        run_workload(
            &StreamWorkload::new(cfg),
            MachineConfig::default().with_num_spes(1),
            None,
        )
        .unwrap();
    }
}
