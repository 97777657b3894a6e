//! Property battery for the happens-before engine (`ta::hb`).
//!
//! * Vector-clock algebra: `join` is commutative, associative,
//!   idempotent and monotone; `dominates` is a partial order and
//!   exactly characterizes joins.
//! * `happens_before` over arbitrary synthetic traces — random SPE
//!   streams of DMA, wait, barrier, mailbox and signal events plus a
//!   PPE driver stream — is a strict partial order: irreflexive,
//!   antisymmetric, transitive; and same-stream events are always
//!   ordered by position.
//! * Race enumeration is exact: `HbIndex::build(..).races()` equals a
//!   brute-force oracle that walks every transfer pair with the dense
//!   clock table, witness for witness and in the same order.
//! * Race verdicts are deterministic: the lint report on the race
//!   goldens is byte-identical across `Serial`, `Workers(4)` and
//!   `Auto`, and across one-shot versus chunked streamed ingestion.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use pdt::{EventCode, TraceCore, TraceHeader, VERSION};
use ta::{
    event_clocks, sync_edges_columns, Access, AccessDir, AnalyzedTrace, ClockTable, ColumnarTrace,
    GlobalEvent, HbIndex, ImageIngest, LossReport, Parallelism, RaceWitness, Space, SpeAnchor,
    VecClock,
};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, golden_bytes};

// ---------------------------------------------------------------------
// Vector-clock algebra
// ---------------------------------------------------------------------

fn arb_clock(width: usize) -> impl Strategy<Value = VecClock> {
    prop::collection::vec(0u32..6, width).prop_map(|entries| {
        let mut c = VecClock::new(entries.len());
        for (i, e) in entries.into_iter().enumerate() {
            c.set(i, e);
        }
        c
    })
}

proptest! {
    #[test]
    fn join_is_commutative_associative_idempotent_monotone(
        a in arb_clock(5),
        b in arb_clock(5),
        c in arb_clock(5),
    ) {
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(&ab, &ba, "commutative");

        let mut ab_c = ab.clone();
        ab_c.join(&c);
        let mut bc = b.clone();
        bc.join(&c);
        let mut a_bc = a.clone();
        a_bc.join(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");

        let mut aa = a.clone();
        aa.join(&a);
        prop_assert_eq!(&aa, &a, "idempotent");

        // Monotone: the join dominates both inputs, and is the least
        // such clock (entry-wise max).
        prop_assert!(ab.dominates(&a));
        prop_assert!(ab.dominates(&b));
        for i in 0..5 {
            prop_assert_eq!(ab.get(i), a.get(i).max(b.get(i)));
        }
    }

    #[test]
    fn dominates_is_a_partial_order(
        a in arb_clock(4),
        b in arb_clock(4),
        c in arb_clock(4),
    ) {
        prop_assert!(a.dominates(&a), "reflexive");
        if a.dominates(&b) && b.dominates(&a) {
            prop_assert_eq!(&a, &b, "antisymmetric");
        }
        if a.dominates(&b) && b.dominates(&c) {
            prop_assert!(a.dominates(&c), "transitive");
        }
    }
}

// ---------------------------------------------------------------------
// Synthetic traces: happens_before is a strict partial order
// ---------------------------------------------------------------------

/// One step of a synthetic stream program; parameters are drawn from
/// tiny domains so streams genuinely interact (shared tags, shared EA
/// ranges, matching mailbox pairs) *and* produce malformed shapes
/// (ends without begins, waits on idle tags) the engine must survive.
#[derive(Debug, Clone)]
enum Step {
    Dma {
        put: bool,
        lsa: u64,
        ea: u64,
        bytes: u64,
        /// `params[3]`: the tag, plus bit 8 for a list DMA.
        tag: u64,
    },
    WaitEnd {
        mask: u64,
    },
    Barrier,
    MboxWrite(u64),
    MboxReadEnd(u64),
    SignalReadBegin(u64),
    SignalReadEnd(u64),
}

/// A DMA step. LS slots sit 2 KiB apart and EA slots include two that
/// share half their bytes, so 4 KiB transfers overlap partially; sizes
/// include zero, and one in five transfers is a list DMA.
fn arb_dma(put: bool) -> impl Strategy<Value = Step> {
    ((0u64..4), (0usize..3), (0usize..4), (0u64..3), (0u64..5)).prop_map(
        move |(ls, ea, size, tag, list)| Step::Dma {
            put,
            lsa: 0x800 * ls,
            ea: [0x10_0000, 0x10_0800, 0x20_0000][ea],
            bytes: [0, 0x800, 0x1000, 0x1000][size],
            tag: tag | if list == 0 { 0x100 } else { 0 },
        },
    )
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_dma(false),
        arb_dma(true),
        (1u64..8).prop_map(|mask| Step::WaitEnd { mask }),
        Just(Step::Barrier),
        (0u64..4).prop_map(Step::MboxWrite),
        (0u64..4).prop_map(Step::MboxReadEnd),
        (0u64..2).prop_map(Step::SignalReadBegin),
        (0u64..4).prop_map(Step::SignalReadEnd),
    ]
}

/// A PPE driver action against context `ctx` (== SPE index here).
/// Contexts are drawn from the full `0..3` range and reduced modulo
/// the actual SPE count in [`assemble`].
#[derive(Debug, Clone)]
enum PpeStep {
    MboxWrite {
        ctx: u64,
        value: u64,
    },
    MboxRead {
        ctx: u64,
    },
    SignalWrite {
        ctx: u64,
        reg: u64,
    },
    /// Reads `from`'s outbound mailbox, then writes `to`'s inbound
    /// one: the hop that orders one SPE's events before another's.
    Relay {
        from: u64,
        to: u64,
    },
}

fn arb_ppe_step() -> impl Strategy<Value = PpeStep> {
    prop_oneof![
        ((0u64..3), (0u64..4)).prop_map(|(ctx, value)| PpeStep::MboxWrite { ctx, value }),
        (0u64..3).prop_map(|ctx| PpeStep::MboxRead { ctx }),
        ((0u64..3), (0u64..2)).prop_map(|(ctx, reg)| PpeStep::SignalWrite { ctx, reg }),
        ((0u64..3), (0u64..3)).prop_map(|(from, to)| PpeStep::Relay { from, to }),
    ]
}

/// Assembles per-stream step lists into a globally time-sorted trace.
/// Only the first `spes` step lists are used, and PPE context ids are
/// reduced modulo `spes`; per-stream skews make the streams interleave
/// differently case to case.
fn assemble(
    spes: usize,
    mut spe_steps: Vec<Vec<Step>>,
    ppe_steps: Vec<PpeStep>,
    skews: Vec<u64>,
) -> ColumnarTrace {
    use EventCode::*;
    spe_steps.truncate(spes);
    let spes = spe_steps.len() as u8;
    let mut events = Vec::new();
    // The PPE stream opens by running every context so mailbox and
    // signal targets resolve.
    let mut seq = 0u64;
    let mut t = 1;
    for s in 0..spes {
        events.push(GlobalEvent {
            time_tb: t,
            core: TraceCore::Ppe(0),
            code: PpeCtxRun,
            params: vec![s as u64, s as u64],
            stream_seq: seq,
        });
        seq += 1;
        t += 1;
    }
    for step in ppe_steps {
        let m = spes.max(1) as u64;
        let actions = match step {
            PpeStep::MboxWrite { ctx, value } => vec![(PpeMboxWrite, vec![ctx % m, value])],
            PpeStep::MboxRead { ctx } => vec![(PpeMboxRead, vec![ctx % m])],
            PpeStep::SignalWrite { ctx, reg } => vec![(PpeSignalWrite, vec![ctx % m, reg, 7])],
            PpeStep::Relay { from, to } => vec![
                (PpeMboxRead, vec![from % m]),
                (PpeMboxWrite, vec![to % m, 0]),
            ],
        };
        for (code, params) in actions {
            events.push(GlobalEvent {
                time_tb: t,
                core: TraceCore::Ppe(0),
                code,
                params,
                stream_seq: seq,
            });
            seq += 1;
            t += 13;
        }
    }
    for (s, steps) in spe_steps.into_iter().enumerate() {
        let core = TraceCore::Spe(s as u8);
        let mut t = 2 + skews[s % skews.len()];
        let mut seq = 0u64;
        let mut push = |t: &mut u64, seq: &mut u64, code, params| {
            events.push(GlobalEvent {
                time_tb: *t,
                core,
                code,
                params,
                stream_seq: *seq,
            });
            *seq += 1;
            *t += 7;
        };
        push(&mut t, &mut seq, SpeCtxStart, vec![s as u64]);
        for step in steps {
            match step {
                Step::Dma {
                    put,
                    lsa,
                    ea,
                    bytes,
                    tag,
                } => {
                    let code = if put { SpeDmaPut } else { SpeDmaGet };
                    push(&mut t, &mut seq, code, vec![ea, lsa, bytes, tag])
                }
                Step::WaitEnd { mask } => {
                    push(&mut t, &mut seq, SpeTagWaitBegin, vec![mask, 0]);
                    push(&mut t, &mut seq, SpeTagWaitEnd, vec![mask]);
                }
                Step::Barrier => push(&mut t, &mut seq, SpeDmaBarrier, vec![]),
                Step::MboxWrite(v) => push(&mut t, &mut seq, SpeMboxWrite, vec![v]),
                Step::MboxReadEnd(v) => {
                    push(&mut t, &mut seq, SpeMboxReadBegin, vec![]);
                    push(&mut t, &mut seq, SpeMboxReadEnd, vec![v]);
                }
                Step::SignalReadBegin(reg) => push(&mut t, &mut seq, SpeSignalReadBegin, vec![reg]),
                Step::SignalReadEnd(v) => push(&mut t, &mut seq, SpeSignalReadEnd, vec![v]),
            }
        }
    }
    events.sort_by_key(|e| (e.time_tb, e.core.tag(), e.stream_seq));
    ColumnarTrace::from_analyzed(&AnalyzedTrace {
        header: TraceHeader {
            version: VERSION,
            num_ppe_threads: 1,
            num_spes: spes.max(1),
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        },
        events,
        ctx_names: vec![],
        // Context `s` runs on SPE `s`, so PPE mailbox and signal
        // traffic pairs with the SPE side into cross-stream edges.
        anchors: (0..spes)
            .map(|s| SpeAnchor {
                spe: s,
                ctx: u32::from(s),
                run_tb: 1 + u64::from(s),
                dec_start: u32::MAX,
            })
            .collect(),
        dropped: 0,
    })
}

/// The generator inputs for one synthetic trace: SPE count, three
/// candidate step lists (trimmed to the count), PPE driver steps and
/// stream skews. The stub proptest has no `prop_flat_map`, so the
/// width-dependent trimming happens inside [`assemble`].
type TraceParts = ((usize, Vec<Vec<Step>>), (Vec<PpeStep>, Vec<u64>));

/// Trace parts with fewer than `steps` steps per stream.
fn arb_trace_parts(steps: usize) -> impl Strategy<Value = TraceParts> {
    (
        (
            1usize..4,
            prop::collection::vec(prop::collection::vec(arb_step(), 0..steps), 3),
        ),
        (
            prop::collection::vec(arb_ppe_step(), 0..steps),
            prop::collection::vec(0u64..40, 1..=3),
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn happens_before_is_a_strict_partial_order(
        ((spes, steps), (ppe, skews)) in arb_trace_parts(8)
    ) {
        let trace = assemble(spes, steps, ppe, skews);
        let edges = sync_edges_columns(&trace, &LossReport::default());
        let table = event_clocks(&trace, &edges);
        let n = trace.events.len();
        for a in 0..n {
            prop_assert!(!table.happens_before(a, a), "irreflexive at {a}");
            for b in 0..n {
                if table.happens_before(a, b) {
                    prop_assert!(
                        !table.happens_before(b, a),
                        "antisymmetry violated between {a} and {b}"
                    );
                }
                for c in 0..n {
                    if table.happens_before(a, b) && table.happens_before(b, c) {
                        prop_assert!(
                            table.happens_before(a, c),
                            "transitivity violated: {a} -> {b} -> {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn same_stream_events_are_ordered_by_position(
        ((spes, steps), (ppe, skews)) in arb_trace_parts(8)
    ) {
        let trace = assemble(spes, steps, ppe, skews);
        let edges = sync_edges_columns(&trace, &LossReport::default());
        let table = event_clocks(&trace, &edges);
        for core in trace.cores() {
            let offs = trace.core_ranks(core);
            for w in offs.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                prop_assert!(
                    table.happens_before(a, b),
                    "{core:?}: adjacent stream events {a},{b} must be ordered"
                );
            }
        }
    }

    #[test]
    fn race_enumeration_never_panics_and_shards_partition(
        ((spes, steps), (ppe, skews)) in arb_trace_parts(8)
    ) {
        let trace = assemble(spes, steps, ppe, skews);
        let edges = sync_edges_columns(&trace, &LossReport::default());
        let idx = HbIndex::build(&trace, &edges);
        let total: usize = (0..idx.shard_count())
            .map(|s| idx.races_in_shard(s).len())
            .sum();
        prop_assert_eq!(total, idx.races().len(), "shards must partition the races");
        for w in idx.races() {
            prop_assert!(w.lo < w.hi, "witness byte range must be non-empty");
        }
    }
}

// ---------------------------------------------------------------------
// Race enumeration against a brute-force oracle
// ---------------------------------------------------------------------

/// A transfer as the oracle sees it: the access, and the events that
/// order it on its own stream, found by scanning forward from the
/// issue.
struct OracleTransfer {
    acc: Access,
    list: bool,
    pos: usize,
    /// First covering `SpeTagWaitEnd` or `SpeDmaBarrier` after the
    /// issue (`usize::MAX` when neither exists).
    order_pos: usize,
    /// Global index of the first covering `SpeTagWaitEnd`.
    wait: Option<usize>,
}

fn oracle_transfers(trace: &ColumnarTrace) -> Vec<OracleTransfer> {
    use EventCode::*;
    let mut out = Vec::new();
    for spe in trace.spes() {
        let views: Vec<_> = trace.core_events(TraceCore::Spe(spe)).collect();
        let offs = trace.core_ranks(TraceCore::Spe(spe));
        for (pos, v) in views.iter().enumerate() {
            if !matches!(v.code, SpeDmaGet | SpeDmaPut) || v.params.len() < 4 {
                continue;
            }
            let tag = (v.params[3] & 0xff) as u8;
            let covers = |w: &ta::EventView<'_>| {
                w.code == SpeTagWaitEnd
                    && tag < 32
                    && w.params.first().copied().unwrap_or(0) as u32 & (1 << tag) != 0
            };
            let later = || views.iter().enumerate().skip(pos + 1);
            let wait = later().find(|(_, w)| covers(w)).map(|(p, _)| p);
            let barrier = later()
                .find(|(_, w)| w.code == SpeDmaBarrier)
                .map(|(p, _)| p);
            out.push(OracleTransfer {
                acc: Access {
                    spe,
                    dir: if v.code == SpeDmaGet {
                        AccessDir::Get
                    } else {
                        AccessDir::Put
                    },
                    tag,
                    lsa: v.params[1],
                    ea: v.params[0],
                    bytes: v.params[2],
                    time_tb: v.time_tb,
                    seq: v.stream_seq,
                    global: offs[pos] as usize,
                },
                list: v.params[3] >> 8 != 0,
                pos,
                order_pos: wait
                    .unwrap_or(usize::MAX)
                    .min(barrier.unwrap_or(usize::MAX)),
                wait: wait.map(|p| offs[p] as usize),
            });
        }
    }
    out
}

/// The byte range of `a` in `space`, saturating at the top.
fn oracle_range(a: &Access, space: Space) -> (u64, u64) {
    let lo = if space == Space::LocalStore {
        a.lsa
    } else {
        a.ea
    };
    (lo, lo.saturating_add(a.bytes))
}

/// Whether `a` and `b` touch common bytes of `space`, at least one of
/// them writing (GETs write local store, PUTs main memory).
fn oracle_conflict(a: &OracleTransfer, b: &OracleTransfer, space: Space) -> bool {
    let writer = if space == Space::LocalStore {
        AccessDir::Get
    } else {
        AccessDir::Put
    };
    let (alo, ahi) = oracle_range(&a.acc, space);
    let (blo, bhi) = oracle_range(&b.acc, space);
    a.acc.bytes > 0
        && b.acc.bytes > 0
        && alo < bhi
        && blo < ahi
        && (a.acc.dir == writer || b.acc.dir == writer)
}

/// Every racing pair by the DESIGN definitions, from all O(n²) pairs:
/// on one SPE the later issue races the earlier transfer until a
/// covering wait-end or barrier orders it; across SPEs a pair is
/// ordered only when one side's covering wait happens before the
/// other's issue. Main-memory checks skip list DMAs, and a pair racing
/// in local store is reported there only.
fn oracle_races(table: &ClockTable, ts: &[OracleTransfer]) -> Vec<RaceWitness> {
    let witness = |space, a: &OracleTransfer, b: &OracleTransfer| {
        let (alo, ahi) = oracle_range(&a.acc, space);
        let (blo, bhi) = oracle_range(&b.acc, space);
        RaceWitness {
            space,
            first: a.acc,
            second: b.acc,
            lo: alo.max(blo),
            hi: ahi.min(bhi),
            same_tag: a.acc.tag == b.acc.tag,
        }
    };
    let mut races = Vec::new();
    for (i, x) in ts.iter().enumerate() {
        for y in &ts[i + 1..] {
            let (a, b) = if x.acc.global < y.acc.global {
                (x, y)
            } else {
                (y, x)
            };
            let same_spe = a.acc.spe == b.acc.spe;
            let unordered = if same_spe {
                b.pos < a.order_pos
            } else {
                !completes_before(table, a, b) && !completes_before(table, b, a)
            };
            if !unordered {
                continue;
            }
            if same_spe && oracle_conflict(a, b, Space::LocalStore) {
                races.push(witness(Space::LocalStore, a, b));
            } else if !a.list && !b.list && oracle_conflict(a, b, Space::MainMemory) {
                races.push(witness(Space::MainMemory, a, b));
            }
        }
    }
    let mut shards: Vec<(u8, u8)> = ts.iter().map(|t| (t.acc.spe, t.acc.tag)).collect();
    shards.sort_unstable();
    shards.dedup();
    let rank = |a: &Access| shards.iter().position(|&s| s == (a.spe, a.tag)).unwrap();
    races.sort_by_key(|r| (rank(&r.second), r.second.global, r.first.global));
    races
}

/// Whether `a`'s covering wait happens before `b`'s issue.
fn completes_before(table: &ClockTable, a: &OracleTransfer, b: &OracleTransfer) -> bool {
    a.wait
        .is_some_and(|w| table.happens_before(w, b.acc.global))
}

/// Cases the oracle property runs, and per-path hit counters checked
/// on the last case: the generator must keep reaching every path.
const ORACLE_CASES: u32 = 256;
static ORACLE_RUN: AtomicUsize = AtomicUsize::new(0);
/// LS races; same-SPE EA races; cross-SPE EA races; LS races whose EA
/// sides also conflict (the dedup); unordered cross-SPE GET–GET EA
/// overlaps (never a race); conflicting cross-SPE EA pairs ordered by
/// the lower SPE's wait; and by the higher SPE's wait.
static ORACLE_HITS: [AtomicUsize; 7] = [const { AtomicUsize::new(0) }; 7];

fn record_oracle_coverage(table: &ClockTable, ts: &[OracleTransfer], races: &[RaceWitness]) {
    let hit = |i: usize| ORACLE_HITS[i].fetch_add(1, Ordering::Relaxed);
    let by_global = |g: usize| ts.iter().find(|t| t.acc.global == g).unwrap();
    for r in races {
        let (a, b) = (by_global(r.first.global), by_global(r.second.global));
        let ea_conflict = !a.list && !b.list && oracle_conflict(a, b, Space::MainMemory);
        hit(match r.space {
            Space::LocalStore if ea_conflict => 3,
            Space::LocalStore => 0,
            Space::MainMemory if r.first.spe == r.second.spe => 1,
            Space::MainMemory => 2,
        });
    }
    for (i, a) in ts.iter().enumerate() {
        for b in &ts[i + 1..] {
            if a.acc.spe == b.acc.spe || a.list || b.list {
                continue;
            }
            let (lower, higher) = if a.acc.spe < b.acc.spe {
                (a, b)
            } else {
                (b, a)
            };
            if oracle_conflict(a, b, Space::MainMemory) {
                if completes_before(table, lower, higher) {
                    hit(5);
                }
                if completes_before(table, higher, lower) {
                    hit(6);
                }
            } else {
                let gets = a.acc.dir == AccessDir::Get && b.acc.dir == AccessDir::Get;
                let (alo, ahi) = oracle_range(&a.acc, Space::MainMemory);
                let (blo, bhi) = oracle_range(&b.acc, Space::MainMemory);
                let sized = a.acc.bytes > 0 && b.acc.bytes > 0;
                if gets && sized && alo < bhi && blo < ahi {
                    hit(4);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]

    #[test]
    fn races_match_the_brute_force_oracle(
        ((spes, steps), (ppe, skews)) in arb_trace_parts(16)
    ) {
        let trace = assemble(spes, steps, ppe, skews);
        let edges = sync_edges_columns(&trace, &LossReport::default());
        let table = event_clocks(&trace, &edges);
        let ts = oracle_transfers(&trace);
        let want = oracle_races(&table, &ts);
        let idx = HbIndex::build(&trace, &edges);
        prop_assert_eq!(idx.races(), &want[..]);
        record_oracle_coverage(&table, &ts, &want);
        if ORACLE_RUN.fetch_add(1, Ordering::Relaxed) + 1 == ORACLE_CASES as usize {
            let hits: Vec<usize> = ORACLE_HITS.iter().map(|h| h.load(Ordering::Relaxed)).collect();
            prop_assert!(hits.iter().all(|&h| h > 0), "generator missed a path: {hits:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Verdict determinism
// ---------------------------------------------------------------------

const RACE_GOLDENS: [&str; 3] = [
    "stream_racy.pdt",
    "stream_tag_hidden.pdt",
    "stream_mbox_sync.pdt",
];

#[test]
fn verdicts_are_identical_across_parallelism() {
    for name in RACE_GOLDENS {
        let trace = golden(name);
        let reference = ta::Analysis::of(&trace)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        let want_text = reference.lint().render_text();
        let want_json = reference.lint().to_json();
        for par in [Parallelism::Workers(4), Parallelism::Auto] {
            let a = ta::Analysis::of(&trace).parallelism(par).run().unwrap();
            assert_eq!(a.lint().render_text(), want_text, "{name} {par:?}");
            assert_eq!(a.lint().to_json(), want_json, "{name} {par:?}");
        }
    }
}

#[test]
fn verdicts_are_identical_one_shot_vs_streamed() {
    for name in RACE_GOLDENS {
        let trace = golden(name);
        let reference = ta::Analysis::of(&trace)
            .parallelism(Parallelism::Workers(2))
            .run()
            .unwrap();
        let image = golden_bytes(name);
        for split in [1usize, 57, 4096] {
            let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(2));
            for chunk in image.chunks(split) {
                ing.push(chunk).unwrap();
            }
            ing.finish().unwrap();
            let snap = ing.snapshot().expect("complete image");
            assert_eq!(
                snap.lint().render_text(),
                reference.lint().render_text(),
                "{name} split {split}"
            );
            assert_eq!(
                snap.sync_edges(),
                reference.sync_edges(),
                "{name} split {split}: sync-edge sets must match"
            );
        }
    }
}
