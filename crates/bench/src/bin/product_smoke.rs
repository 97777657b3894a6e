//! Parallel-product smoke gate: `product_smoke [EVENTS_PER_SPE]`.
//!
//! Guards the columnar product pipeline three ways, exiting nonzero on
//! the first violation so `scripts/check.sh` can run it as a cheap
//! tier-1 gate:
//!
//! - **Parity is fatal.** On every golden trace, all seven derived
//!   products built by `build_products(Parallelism::Workers(4))` must
//!   be identical to the products a serial session computes one
//!   accessor at a time.
//! - **The columnar pipeline must actually be fast.** On a large storm
//!   trace (default 12k events on each of 8 SPEs), the full product
//!   set built off shared columns must beat the serial row path — each
//!   product rescanning the row `Vec<GlobalEvent>` — by ≥ 1.8x with
//!   four workers and ≥ 1.3x with one. (The floor was 2x before the
//!   store slimmed to ~19 B/event; the dictionary indirection on
//!   parameter reads costs a few percent of product-build time, and
//!   the shared 1-CPU CI box measures the seed itself anywhere in
//!   1.8–2.2x run to run.)
//! - **Adding workers must never cost wall time.** The columnar build
//!   is timed at 1, 2, 4, and 8 requested workers, which run on at most
//!   one executor per host CPU. Each step up in *effective* executors
//!   may be at most 10% slower than the previous one (scheduler
//!   overhead budget); requested counts that run the same executors
//!   are one configuration, timed by its best run. On
//!   hosts with ≥ 4 CPUs, 4 workers must additionally be ≥ 1.5x
//!   faster than 1; on smaller hosts that gate is skipped and noted,
//!   since wall-clock speedup is physically capped by the CPU count.
//!
//! Emits `BENCH_products.json` and `BENCH_ingest.json` at the repo
//! root (stable schema: name, events_per_sec, wall_ms, threads) for
//! the tracked perf trajectory. `BENCH_products.json` meta carries
//! `host_cpus`, the executors each requested worker count ran on
//! (`executors_Nt`), the number of shards the `ta::exec` fan-out ran
//! over the columnar runs, and the query index's
//! `index_bytes_per_event`. `BENCH_ingest.json` times ingest at
//! `Serial` and at `Workers(2)`, of the trace (`ingest_decode_1t`/
//! `_2t`) and of its `pdt::pack` packing (`ingest_v2_decode_1t`/
//! `_2t`), and the interval lanes at `Serial` (`intervals_1t`), each
//! row the median of `INGEST_SAMPLES` samples on a fresh session; its
//! meta carries each row's quartiles (`<row>_p25_ms`, `<row>_p75_ms`),
//! the sample count and the executors the 2-worker rows actually ran
//! on.

use std::process::ExitCode;
use std::time::Instant;

use bench::{peak_rss_kb, repo_root, write_bench_json, BenchRecord};
use cellsim::{MachineConfig, PpeThreadId, SpeJob, SpmdDriver, SpuAction, SpuScript};
use pdt::{TraceFile, TraceSession, TracingConfig};
use ta::lint::LintConfig;
use ta::{analyze_lossy, Analysis, AnalyzedTrace, ColumnarTrace, LossReport, Parallelism};

const SPES: usize = 8;
/// Recalibrated from 2.0 when `EventColumns` slimmed to ~19 B/event:
/// parameter reads now go through the dictionary (one extra dependent
/// load), and the noisy shared CI host measures the pre-slim seed
/// itself between 1.8x and 2.2x.
const MIN_SPEEDUP_4T: f64 = 1.8;
const MIN_SPEEDUP_1T: f64 = 1.3;
/// Each worker-count step may cost at most this factor in wall time
/// over the previous one (covers timer noise + scheduler overhead —
/// best-of-7 readings on the shared 1-CPU CI box still jitter ±6%,
/// so the budget sits above that while staying far below the 2x
/// plateau regressions this gate exists to catch).
const MONOTONE_SLACK: f64 = 1.10;
/// Required 4-worker-vs-1-worker speedup of the columnar build — only
/// enforced when the host actually has ≥ 4 CPUs.
const MIN_SCALING_4W: f64 = 1.5;

const GOLDEN: [&str; 5] = [
    "matmul.pdt",
    "stream.pdt",
    "pipeline.pdt",
    "stream_faulted.pdt",
    "stream_racy.pdt",
];

const WORKER_POINTS: [usize; 4] = [1, 2, 4, 8];

fn storm_trace(events_per_spe: usize) -> TraceFile {
    let mut m = cellsim::Machine::new(MachineConfig::default().with_num_spes(SPES)).unwrap();
    let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
    let jobs = (0..SPES)
        .map(|i| {
            let mut actions = Vec::with_capacity(2 * events_per_spe);
            for k in 0..events_per_spe {
                actions.push(SpuAction::UserEvent {
                    id: (k % 50) as u32,
                    a0: k as u64,
                    a1: i as u64,
                });
                actions.push(SpuAction::Compute(200));
            }
            SpeJob::new(format!("storm{i}"), Box::new(SpuScript::new(actions)))
        })
        .collect();
    m.set_ppe_program(PpeThreadId::new(0), Box::new(SpmdDriver::new(jobs)));
    m.run().unwrap();
    session.collect(&m)
}

/// Parallel product builds must be indistinguishable from serial ones
/// on every golden trace.
fn check_parity() -> Result<(), String> {
    let dir = repo_root().join("tests/golden");
    for name in GOLDEN {
        let path = dir.join(name);
        let trace = TraceFile::read_from(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let serial = Analysis::of(&trace)
            .run()
            .map_err(|e| format!("{name}: {e}"))?;
        let parallel = Analysis::of(&trace)
            .run()
            .map_err(|e| format!("{name}: {e}"))?;
        parallel.build_products(Parallelism::Workers(4));
        let bad = |what: &str| Err(format!("{name}: parallel {what} diverged from serial"));
        if parallel.intervals() != serial.intervals() {
            return bad("intervals");
        }
        if parallel.stats() != serial.stats() {
            return bad("stats");
        }
        if parallel.timeline() != serial.timeline() {
            return bad("timeline");
        }
        if parallel.occupancy() != serial.occupancy() {
            return bad("occupancy");
        }
        if parallel.phases() != serial.phases() {
            return bad("phases");
        }
        if parallel.index() != serial.index() {
            return bad("index");
        }
        if parallel.lint() != serial.lint() {
            return bad("lint");
        }
    }
    Ok(())
}

/// Best (minimum) wall time of `f` over `reps` runs, in ms — the
/// noise-robust estimator for CPU-bound work on a shared box.
fn best_ms(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64 / 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Samples per `BENCH_ingest.json` row: its `wall_ms` is their median,
/// and the meta records their quartiles.
const INGEST_SAMPLES: usize = 11;

/// A `BENCH_ingest.json` row over `events` events: the median of
/// `INGEST_SAMPLES` calls of `sample` (each returns its ms), with the
/// 25th and 75th percentiles (nearest rank) appended to `meta`.
fn sampled_row(
    name: &str,
    threads: usize,
    events: usize,
    meta: &mut Vec<(String, f64)>,
    mut sample: impl FnMut() -> f64,
) -> BenchRecord {
    let mut ms: Vec<f64> = (0..INGEST_SAMPLES).map(|_| sample()).collect();
    ms.sort_by(f64::total_cmp);
    let [p25, median, p75] = [1, 2, 3].map(|q| ms[(ms.len() - 1) * q / 4]);
    meta.push((format!("{name}_p25_ms"), p25));
    meta.push((format!("{name}_p75_ms"), p75));
    BenchRecord {
        name: name.into(),
        events_per_sec: events as f64 / (median / 1e3),
        wall_ms: median,
        threads,
    }
}

/// The pre-columnar serial product path: every product built from the
/// row `Vec<GlobalEvent>` by the free functions, one after another.
fn row_products(rows: &AnalyzedTrace, loss: &LossReport, cfg: &LintConfig) -> usize {
    let iv = ta::intervals::build_intervals(rows);
    let st = ta::stats::compute_stats_with(rows, &iv);
    let tl = ta::timeline::build_timeline_with(rows, &iv);
    let oc = ta::occupancy::dma_occupancy(rows);
    let ph = ta::phases::user_phases(rows);
    let ix = ta::index::TraceIndex::build(rows, &iv, loss);
    let li = ta::lint::lint_trace(rows, &iv, loss, cfg);
    std::hint::black_box((&st, &tl, &oc, &ph, &ix));
    iv.len() + li.diagnostics.len()
}

fn run() -> Result<(), String> {
    let events_per_spe: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().map_err(|_| format!("bad size {v:?}")))
        .transpose()?
        .unwrap_or(12_000);

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    check_parity()?;
    println!(
        "golden parity: OK (7 products, serial == parallel on {} traces)",
        GOLDEN.len()
    );

    let trace = storm_trace(events_per_spe);
    let (rows, loss) = analyze_lossy(&trace);
    let cfg = LintConfig::default();
    let n = rows.events.len();
    println!("trace: {n} global events over {SPES} SPEs, host has {host_cpus} CPUs");

    // Ingest (decode into columns) throughput at one executor and at
    // two, each sample a fresh session. Each SPE stream decodes as one
    // shard, and no rows are materialized in the timed region. Then
    // the interval lanes of a fresh session, the pass every request
    // pays after ingest.
    let ingest_points = [(Parallelism::Serial, 1usize), (Parallelism::Workers(2), 2)];
    let fresh = |par| Analysis::of(&trace).parallelism(par).run();
    let mut ingest_meta = Vec::new();
    let mut ingest: Vec<BenchRecord> = ingest_points
        .into_iter()
        .map(|(par, threads)| {
            let name = format!("ingest_decode_{threads}t");
            sampled_row(&name, threads, n, &mut ingest_meta, || {
                let start = Instant::now();
                let events = fresh(par).map(|a| a.columns().events.len());
                let ms = start.elapsed().as_nanos() as f64 / 1e6;
                std::hint::black_box(events.unwrap_or(0));
                ms
            })
        })
        .collect();
    // The same trace as a `.pdt2`, decoded in memory straight into
    // columns: every block's CRC check and payload decode, no
    // transpose.
    let packed = pdt::pack(&trace, pdt::DEFAULT_BLOCK_RECORDS);
    for (par, threads) in ingest_points {
        let name = format!("ingest_v2_decode_{threads}t");
        ingest.push(sampled_row(&name, threads, n, &mut ingest_meta, || {
            let start = Instant::now();
            let events = ta::analyze_v2(&packed, par).map(|(a, _)| a.columns().events.len());
            let ms = start.elapsed().as_nanos() as f64 / 1e6;
            std::hint::black_box(events.unwrap_or(0));
            ms
        }));
    }
    ingest.push(sampled_row("intervals_1t", 1, n, &mut ingest_meta, || {
        let Ok(a) = fresh(Parallelism::Serial) else {
            return f64::NAN;
        };
        let start = Instant::now();
        std::hint::black_box(a.intervals().len());
        start.elapsed().as_nanos() as f64 / 1e6
    }));
    // `map_indexed` runs at most one executor per host CPU and per SPE
    // stream, whatever the requested count.
    let ingest_executors = 2.min(host_cpus).min(SPES);

    // Full product set: serial row path vs columnar pipeline. Both
    // sides read the same ingested rows; the columnar side pays its
    // row->columns conversion inside the timed region. One untimed
    // pass of each side first, so the timed reps are not measuring
    // cold caches.
    std::hint::black_box(row_products(&rows, &loss, &cfg));
    {
        let a = Analysis::from_columns(ColumnarTrace::from_analyzed(&rows));
        a.build_products(Parallelism::Workers(WORKER_POINTS[0]));
        std::hint::black_box(a.intervals().len());
    }
    let reps = 7;
    let row_ms = best_ms(reps, || row_products(&rows, &loss, &cfg));
    let mut records = vec![BenchRecord {
        name: "products_row_serial".into(),
        events_per_sec: n as f64 / (row_ms / 1e3),
        wall_ms: row_ms,
        threads: 1,
    }];

    let sched_before = ta::exec::pool().stats();
    let mut col_ms = [0.0f64; WORKER_POINTS.len()];
    for (i, workers) in WORKER_POINTS.into_iter().enumerate() {
        let ms = best_ms(reps, || {
            let a = Analysis::from_columns(ColumnarTrace::from_analyzed(&rows));
            a.build_products(Parallelism::Workers(workers));
            a.intervals().len() + a.lint().diagnostics.len()
        });
        col_ms[i] = ms;
        records.push(BenchRecord {
            name: format!("products_columnar_{workers}t"),
            events_per_sec: n as f64 / (ms / 1e3),
            wall_ms: ms,
            threads: workers,
        });
    }
    let sched = ta::exec::pool().stats().since(&sched_before);

    // Per-product build times over a shared, pre-built column store.
    let cols = ColumnarTrace::from_analyzed(&rows);
    let iv = ta::intervals::build_intervals_columns(&cols);
    let each: [(&str, &dyn Fn() -> usize); 7] = [
        ("product_intervals", &|| {
            ta::intervals::build_intervals_columns(&cols).len()
        }),
        ("product_stats", &|| {
            ta::stats::compute_stats_columns(&cols, &iv).spes.len()
        }),
        // The view: labels and markers, with lanes borrowing `iv`.
        ("product_timeline", &|| {
            ta::timeline::build_timeline_columns(&cols, &iv).lanes.len()
        }),
        ("product_occupancy", &|| {
            ta::occupancy::dma_occupancy_columns_par(&cols, Parallelism::Serial).len()
        }),
        ("product_phases", &|| {
            ta::phases::user_phases_columns(&cols).phases.len()
        }),
        ("product_index", &|| {
            ta::index::TraceIndex::build_columns(&cols, iv.as_slice(), &loss)
                .cores()
                .count()
        }),
        ("product_lint", &|| {
            ta::lint::lint_columns(&cols, &iv, &loss, &cfg)
                .diagnostics
                .len()
        }),
    ];
    for (name, f) in each {
        let ms = best_ms(reps, f);
        records.push(BenchRecord {
            name: name.into(),
            events_per_sec: n as f64 / (ms / 1e3),
            wall_ms: ms,
            threads: 1,
        });
    }

    // Executors each worker point ran on: `map_indexed` caps them at
    // the host's CPUs. Per distinct effective count, the best time of
    // the points that ran it.
    let executors = WORKER_POINTS.map(|w| w.min(host_cpus));
    let mut effective: Vec<(usize, f64)> = Vec::new();
    for (&e, &ms) in executors.iter().zip(&col_ms) {
        match effective.last_mut() {
            Some((last, best)) if *last == e => *best = best.min(ms),
            _ => effective.push((e, ms)),
        }
    }

    let speedup_1t = row_ms / col_ms[0];
    let speedup_4t = row_ms / col_ms[2];
    let scaling_4w = col_ms[0] / col_ms[2];
    let rss = peak_rss_kb();
    println!(
        "products: row serial {row_ms:.2} ms, columnar 1t {:.2} ms ({speedup_1t:.2}x), \
         2t {:.2} ms, 4t {:.2} ms ({speedup_4t:.2}x), 8t {:.2} ms, peak RSS {rss} kB",
        col_ms[0], col_ms[1], col_ms[2], col_ms[3]
    );
    println!(
        "fan-out: {} shards on {} spawned threads over the columnar runs; \
         workers 1/2/4/8 ran on {:?} executors",
        sched.tasks, sched.workers, executors
    );

    let index_bytes =
        ta::index::TraceIndex::build_columns(&cols, iv.as_slice(), &loss).bytes_in_memory();
    println!(
        "index: {index_bytes} bytes, {:.2} B/event",
        index_bytes as f64 / n as f64
    );

    let meta = [
        ("events", n as f64),
        ("index_bytes_per_event", index_bytes as f64 / n as f64),
        ("peak_rss_kb", rss as f64),
        ("speedup_1t", speedup_1t),
        ("speedup_4t", speedup_4t),
        ("scaling_4w", scaling_4w),
        ("host_cpus", host_cpus as f64),
        ("sched_tasks", sched.tasks as f64),
        ("executors_1t", executors[0] as f64),
        ("executors_2t", executors[1] as f64),
        ("executors_4t", executors[2] as f64),
        ("executors_8t", executors[3] as f64),
    ];
    let p = write_bench_json("BENCH_products.json", &records, &meta).map_err(|e| e.to_string())?;
    println!("wrote {}", p.display());
    let p = write_bench_json(
        "BENCH_ingest.json",
        &ingest,
        &[
            ("events", n as f64),
            ("host_cpus", host_cpus as f64),
            ("ingest_2t_executors", ingest_executors as f64),
            ("samples", INGEST_SAMPLES as f64),
        ]
        .into_iter()
        .chain(ingest_meta.iter().map(|(k, v)| (k.as_str(), *v)))
        .collect::<Vec<_>>(),
    )
    .map_err(|e| e.to_string())?;
    println!("wrote {}", p.display());

    if speedup_4t < MIN_SPEEDUP_4T {
        return Err(format!(
            "4-thread product build only {speedup_4t:.2}x faster than the serial row path \
             (need {MIN_SPEEDUP_4T}x)"
        ));
    }
    if speedup_1t < MIN_SPEEDUP_1T {
        return Err(format!(
            "1-thread columnar build only {speedup_1t:.2}x faster than the serial row path \
             (need {MIN_SPEEDUP_1T}x)"
        ));
    }
    // Monotone-scaling gate: each step up in *effective* executors
    // must not regress wall time beyond the noise budget. Requested
    // counts past the host's CPUs run the same executors, so they are
    // one configuration, timed by its best run, not a step.
    for w in effective.windows(2) {
        let ((e0, ms0), (e1, ms1)) = (w[0], w[1]);
        if ms1 > ms0 * MONOTONE_SLACK {
            return Err(format!(
                "columnar build got slower with more executors: {e0} {ms0:.2} ms -> \
                 {e1} {ms1:.2} ms (budget {MONOTONE_SLACK}x)"
            ));
        }
    }
    if host_cpus >= 4 {
        if scaling_4w < MIN_SCALING_4W {
            return Err(format!(
                "4-worker columnar build only {scaling_4w:.2}x faster than 1-worker \
                 (need {MIN_SCALING_4W}x on a {host_cpus}-CPU host)"
            ));
        }
    } else {
        println!(
            "scaling gate: host has {host_cpus} CPUs (< 4) — wall-clock speedup is capped \
             by the hardware; enforcing the no-regression budget only"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("product_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
