//! Fault-injection smoke check: `fault_smoke [SEED ...]`.
//!
//! For each seed (default 1 2 3), traces a small workload, injects one
//! fault of every mode at seeded record boundaries, and asserts the
//! resilience contract end to end:
//!
//! - the lossy decoder terminates without panicking on the damage;
//! - serial and parallel ingestion agree event-for-event;
//! - the loss accounting is nonzero exactly when damage was dealt,
//!   and every damaged stream shows up in the report;
//! - the clean trace analyzes identically under strict and lossy
//!   policies.
//!
//! Exits nonzero on the first violated invariant, so CI can run it as
//! a cheap gate (`scripts/check.sh` does, with three seeds).

use std::process::ExitCode;

use cellsim::MachineConfig;
use pdt::TracingConfig;
use ta::{analyze_lossy, Analysis, FaultInjector, FaultKind};
use workloads::{run_workload, Buffering, StreamConfig, StreamWorkload};

fn check(seed: u64) -> Result<(), String> {
    let spes = 2;
    let w = StreamWorkload::new(StreamConfig {
        blocks: 16,
        block_bytes: 4096,
        buffering: Buffering::Double,
        spes,
        ..StreamConfig::default()
    });
    let r = run_workload(
        &w,
        MachineConfig::default().with_num_spes(spes),
        Some(TracingConfig::default()),
    )
    .map_err(|e| format!("workload: {e}"))?;
    let trace = r.trace.as_ref().unwrap();

    // Clean trace: lossy == strict, empty loss accounting.
    let strict = Analysis::of(trace)
        .strict()
        .run()
        .map_err(|e| e.to_string())?;
    let lossy = Analysis::of(trace).run().map_err(|e| e.to_string())?;
    if lossy.analyzed().events != strict.analyzed().events {
        return Err("clean trace: lossy != strict".into());
    }
    if !lossy.loss().is_clean() || lossy.loss().total_est_lost() != 0 {
        return Err(format!("clean trace has loss:\n{}", lossy.loss().render()));
    }

    // Damaged trace: terminates, columnar == serial rows, loss accounted.
    let mut damaged = trace.clone();
    let log = FaultInjector::new(seed).inject(&mut damaged, &FaultKind::ALL);
    if log.is_empty() {
        return Err("injector applied no faults to a real trace".into());
    }
    let (serial, loss) = analyze_lossy(&damaged);
    let columnar = Analysis::of(&damaged).run().map_err(|e| e.to_string())?;
    if columnar.analyzed().events != serial.events || columnar.loss() != &loss {
        return Err("columnar ingest disagrees with serial on damage".into());
    }
    if loss.is_clean() && loss.total_est_lost() == 0 {
        return Err(format!(
            "injected {:?} but the loss report is clean:\n{}",
            log,
            loss.render()
        ));
    }
    // Every damaged stream must be individually accounted.
    for f in &log {
        let sl = loss
            .stream(f.core)
            .ok_or_else(|| format!("no loss entry for damaged stream {}", f.core))?;
        if sl.is_clean() && sl.est_lost_records() == 0 {
            return Err(format!(
                "stream {} took {:?} damage but reads clean",
                f.core, f.kind
            ));
        }
    }
    println!(
        "seed {seed}: {} faults, {} gap(s), {} byte(s) skipped, ~{} record(s) lost — ok",
        log.len(),
        loss.total_gaps(),
        loss.total_gap_bytes(),
        loss.total_est_lost()
    );
    Ok(())
}

fn main() -> ExitCode {
    let seeds: Vec<u64> = {
        let args: Vec<u64> = std::env::args()
            .skip(1)
            .map(|a| a.parse().expect("seeds are integers"))
            .collect();
        if args.is_empty() {
            vec![1, 2, 3]
        } else {
            args
        }
    };
    for seed in seeds {
        if let Err(e) = check(seed) {
            eprintln!("seed {seed}: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
