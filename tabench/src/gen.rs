//! Seeded synthetic traces, written record by record.
//!
//! Every trace has the same shape: 8 SPEs, each anchored by a
//! `PpeCtxRun` record, running a double-buffered loop — a GET into one
//! of two reused local-store buffers while the other buffer is
//! processed and PUT back, with tag waits that order every reuse.
//! Mailbox round trips, PPE signal deliveries and user phase markers
//! are mixed in. EAs are disjoint per SPE, so a clean trace has no
//! race at all; `races > 0` plants that many GET–GET pairs into one
//! LS buffer with no wait between them, each exactly one `dma-race`.
//!
//! The simulator is not used: at millions of events its drop and
//! decode-gap accounting, not the analyzer, would decide what the
//! benchmark measures.

use pdt::markers::{PHASE_BEGIN, PHASE_END};
use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream, VERSION};

/// SPEs in every generated trace.
const SPES: u8 = 8;

const DEC_START: u32 = u32::MAX;
const BUF_BYTES: u64 = 0x4000;
const LS_BUF: [u64; 2] = [0x4000, 0x8000];
/// Input/output EA ring slots per SPE (a 4 MiB ring of 16 KiB slots).
const EA_SLOTS: u64 = 256;
const USER_PHASE: u64 = 1;
const USER_PAD: u64 = 9;
/// Events an SPE's budget must keep for the loop epilogue: a phase
/// end, the final two-tag wait, `SpeStop` and `PpeCtxStopped`.
const EPILOGUE: usize = 5;

/// What to generate.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Exact event count (PPE and SPE records together).
    pub events: usize,
    /// GET–GET race pairs to plant, spread over the SPEs.
    pub races: usize,
    /// Drives every timing and placement choice.
    pub seed: u64,
}

/// A generated trace plus the ground truth the output checks use.
#[derive(Debug)]
pub struct Generated {
    /// The trace, ready for `TraceFile::to_bytes` or `pdt::pack`.
    pub trace: TraceFile,
    pub truth: Truth,
}

/// What a correct analysis of a generated trace must report.
#[derive(Debug)]
pub struct Truth {
    /// Races actually planted.
    pub races: usize,
    /// Global timebase tick of every event, sorted.
    times: Vec<u64>,
}

impl Truth {
    /// Events in the trace.
    pub fn events(&self) -> usize {
        self.times.len()
    }

    /// Events whose global time lies in `[t0, t1)`.
    pub fn events_in(&self, t0: u64, t1: u64) -> usize {
        self.times.partition_point(|&t| t < t1) - self.times.partition_point(|&t| t < t0)
    }

    /// The window `[t0, t1)` between two fractions of the span; `to`
    /// of 1 includes the last event.
    pub fn window(&self, from: f64, to: f64) -> (u64, u64) {
        let (lo, hi) = (self.times[0], self.times[self.times.len() - 1]);
        let at = |f: f64| lo + ((hi - lo) as f64 * f) as u64;
        (at(from), if to >= 1.0 { hi + 1 } else { at(to) })
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// One SPE's record stream under construction, plus the PPE records
/// its synchronization produces.
struct SpeWriter<'a> {
    spe: u8,
    run_tb: u64,
    t: u64,
    bytes: Vec<u8>,
    used: usize,
    ppe: &'a mut Vec<(u64, TraceRecord)>,
    times: &'a mut Vec<u64>,
}

impl SpeWriter<'_> {
    /// Records an SPE event at the current time; the timestamp is the
    /// decrementer value the SPU would have read.
    fn spe(&mut self, code: EventCode, params: Vec<u64>) {
        let dec = DEC_START.wrapping_sub((self.t - self.run_tb) as u32);
        TraceRecord {
            core: TraceCore::Spe(self.spe),
            code,
            timestamp: u64::from(dec),
            params,
        }
        .encode_into(&mut self.bytes);
        self.times.push(self.t);
        self.used += 1;
    }

    /// Records a PPE event at timebase tick `t`.
    fn ppe(&mut self, t: u64, code: EventCode, params: Vec<u64>) {
        self.ppe.push((
            t,
            TraceRecord {
                core: TraceCore::Ppe(0),
                code,
                timestamp: t,
                params,
            },
        ));
        self.times.push(t);
        self.used += 1;
    }

    fn wait(&mut self, mask: u64, rng: &mut Rng, lo: u64, hi: u64) {
        self.spe(EventCode::SpeTagWaitBegin, vec![mask, 0]);
        self.t += rng.range(lo, hi);
        self.spe(EventCode::SpeTagWaitEnd, vec![mask]);
        self.t += 1;
    }

    fn dma(&mut self, code: EventCode, ea: u64, buf: usize) {
        self.spe(code, vec![ea, LS_BUF[buf], BUF_BYTES, buf as u64]);
        self.t += 2;
    }
}

/// Generates a trace of exactly `spec.events` events.
///
/// # Panics
///
/// Panics if `spec.events` leaves an SPE fewer than 32 events, or too
/// few for its share of `spec.races`.
pub fn generate(spec: Spec) -> Generated {
    let spes = usize::from(SPES);
    assert!(
        spec.events >= 32 * spes,
        "{} events is too few",
        spec.events
    );
    let mut rng = Rng(spec.seed ^ 0x7461_6265_6e63_6800);
    let mut ppe: Vec<(u64, TraceRecord)> = Vec::new();
    let mut times: Vec<u64> = Vec::with_capacity(spec.events);
    let mut streams = Vec::with_capacity(spes + 1);
    let mut planted = 0;

    for s in 0..spes {
        let budget = spec.events / spes + usize::from(s < spec.events % spes);
        let races = spec.races / spes + usize::from(s < spec.races % spes);
        let ctx = s as u64;
        let run_tb = 100 + 10 * ctx;
        let mut w = SpeWriter {
            spe: s as u8,
            run_tb,
            t: run_tb + 5,
            bytes: Vec::with_capacity(budget * 40),
            used: 0,
            ppe: &mut ppe,
            times: &mut times,
        };
        w.ppe(10 + ctx, EventCode::PpeCtxCreate, vec![ctx]);
        w.ppe(
            run_tb,
            EventCode::PpeCtxRun,
            vec![ctx, ctx, u64::from(DEC_START)],
        );
        w.spe(EventCode::SpeCtxStart, vec![ctx]);

        // Races go into the first half of the loop, on distinct
        // iterations (about 6 events per iteration).
        let half = (budget / 12).max(3) as u64;
        assert!(
            (races as u64) < half,
            "{races} races do not fit in {budget} events"
        );
        let mut plants: Vec<u64> = Vec::with_capacity(races);
        while plants.len() < races {
            let i = rng.range(1, half);
            if !plants.contains(&i) {
                plants.push(i);
            }
        }

        let in_base = 0x1000_0000 + ctx * 0x0100_0000;
        let out_base = 0x8000_0000 + ctx * 0x0100_0000;
        let ea_in = |k: u64| in_base + (k % EA_SLOTS) * BUF_BYTES;
        let ea_out = |k: u64| out_base + (k % EA_SLOTS) * BUF_BYTES;
        w.dma(EventCode::SpeDmaGet, ea_in(0), 0);

        let mut phase_open = false;
        let mut i: u64 = 0;
        loop {
            let (cur, nxt) = ((i & 1) as usize, (1 - (i & 1)) as usize);
            let plant = plants.contains(&i);
            let cost = if i >= 1 { 2 } else { 0 }
                + 4
                + usize::from(plant)
                + usize::from(i.is_multiple_of(128))
                + usize::from(i % 128 == 127)
                + if i % 64 == 63 { 5 } else { 0 }
                + if i % 64 == 31 { 3 } else { 0 };
            if w.used + cost + EPILOGUE > budget {
                break;
            }
            if i >= 1 {
                // The previous PUT read buffer `nxt`: wait before refilling it.
                w.wait(1 << nxt, &mut rng, 2, 20);
            }
            w.dma(EventCode::SpeDmaGet, ea_in(i + 1), nxt);
            if plant {
                w.dma(EventCode::SpeDmaGet, ea_in(i + 1 + EA_SLOTS / 2), nxt);
                planted += 1;
            }
            w.wait(1 << cur, &mut rng, 4, 40);
            if i.is_multiple_of(128) {
                w.spe(EventCode::SpeUser, vec![USER_PHASE, PHASE_BEGIN, i / 128]);
                phase_open = true;
            }
            w.t += rng.range(150, 450);
            if i % 128 == 127 {
                w.spe(EventCode::SpeUser, vec![USER_PHASE, PHASE_END, i / 128]);
                phase_open = false;
            }
            w.dma(EventCode::SpeDmaPut, ea_out(i), cur);
            if i % 64 == 63 {
                // Outbound word read by the PPE, which answers inbound.
                let t = w.t;
                w.spe(EventCode::SpeMboxWrite, vec![i]);
                w.t = t + 2;
                w.spe(EventCode::SpeMboxReadBegin, vec![]);
                w.ppe(t + 4, EventCode::PpeMboxRead, vec![ctx, i]);
                w.ppe(t + 8, EventCode::PpeMboxWrite, vec![ctx, i + 1]);
                w.t = t + 12;
                w.spe(EventCode::SpeMboxReadEnd, vec![i + 1]);
                w.t = t + 14;
            }
            if i % 64 == 31 {
                let t = w.t;
                w.spe(EventCode::SpeSignalReadBegin, vec![1]);
                w.ppe(t + 3, EventCode::PpeSignalWrite, vec![ctx, 1, i]);
                w.t = t + 6;
                w.spe(EventCode::SpeSignalReadEnd, vec![i]);
                w.t = t + 8;
            }
            i += 1;
        }
        assert!(
            i > plants.iter().copied().max().unwrap_or(0),
            "SPE{s}: loop ended before every race was planted"
        );

        if phase_open {
            w.spe(EventCode::SpeUser, vec![USER_PHASE, PHASE_END, i / 128]);
        }
        // The last PUT and the unused prefetch are both outstanding.
        w.wait(0b11, &mut rng, 4, 40);
        let mut k = 0;
        while w.used + 2 < budget {
            w.t += 50;
            w.spe(EventCode::SpeUser, vec![USER_PAD, 0, k]);
            k += 1;
        }
        w.t += 10;
        w.spe(EventCode::SpeStop, vec![0]);
        let stop = w.t;
        w.ppe(stop + 10, EventCode::PpeCtxStopped, vec![ctx, 0]);
        debug_assert_eq!(w.used, budget);
        streams.push(TraceStream {
            core: TraceCore::Spe(s as u8),
            bytes: w.bytes,
            dropped: 0,
        });
    }

    ppe.sort_by_key(|(t, _)| *t);
    let mut ppe_bytes = Vec::with_capacity(ppe.len() * 40);
    for (_, r) in &ppe {
        r.encode_into(&mut ppe_bytes);
    }
    streams.insert(
        0,
        TraceStream {
            core: TraceCore::Ppe(0),
            bytes: ppe_bytes,
            dropped: 0,
        },
    );
    times.sort_unstable();

    Generated {
        truth: Truth {
            races: planted,
            times,
        },
        trace: TraceFile {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: 1,
                num_spes: SPES,
                core_hz: 3_200_000_000,
                timebase_divider: 120,
                dec_start: DEC_START,
                group_mask: u32::MAX,
                spe_buffer_bytes: 2048,
            },
            streams,
            ctx_names: (0..u32::from(SPES))
                .map(|c| (c, format!("tabench{c}")))
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta::{Analysis, Parallelism};

    fn spec(events: usize, races: usize, seed: u64) -> Spec {
        Spec {
            events,
            races,
            seed,
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = generate(spec(20_000, 4, 1)).trace.to_bytes();
        let b = generate(spec(20_000, 4, 1)).trace.to_bytes();
        let c = generate(spec(20_000, 4, 2)).trace.to_bytes();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn event_count_is_exact() {
        for events in [256, 20_001, 33_333] {
            let g = generate(spec(events, 0, 3));
            assert_eq!(g.truth.events(), events);
            let a = Analysis::of(&g.trace)
                .parallelism(Parallelism::Serial)
                .run()
                .expect("lossy analysis never fails");
            assert_eq!(a.columns().events.len(), events);
            assert!(a.loss().is_clean());
        }
    }

    #[test]
    fn clean_trace_has_no_findings() {
        let g = generate(spec(30_000, 0, 5));
        let a = Analysis::of(&g.trace).run().expect("lossy analysis");
        let report = a.lint();
        assert_eq!(report.firm_errors().count(), 0, "{}", report.render_text());
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn racy_trace_has_exactly_the_planted_races() {
        let g = generate(spec(30_000, 16, 7));
        assert_eq!(g.truth.races, 16);
        let a = Analysis::of(&g.trace).run().expect("lossy analysis");
        let report = a.lint();
        assert_eq!(
            report.of_rule("dma-race").count(),
            16,
            "{}",
            report.render_text()
        );
        assert_eq!(report.firm_errors().count(), 16, "{}", report.render_text());
    }

    #[test]
    fn window_counts_match_the_analyzer() {
        let g = generate(spec(20_000, 0, 9));
        let a = Analysis::of(&g.trace).run().expect("lossy analysis");
        let t = &g.truth;
        for (from, to) in [(0.495, 0.505), (0.99, 1.0), (0.0, 1.0)] {
            let (t0, t1) = t.window(from, to);
            assert_eq!(
                a.summarize(t0, t1).total_events() as usize,
                t.events_in(t0, t1)
            );
            assert!(t.events_in(t0, t1) > 0);
        }
        let (t0, t1) = t.window(0.0, 1.0);
        assert_eq!(t.events_in(t0, t1), t.events());
    }
}
