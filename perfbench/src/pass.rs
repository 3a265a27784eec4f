//! One closed-loop pass over a workload's cells: the sweep, then the
//! JSON and CSV a user of `neon run` would get, then (untimed) the
//! correctness checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use neon_scenario::emit;
use neon_scenario::sweep::{self, SweepCell, SweepOutcome};
use neon_scenario::{CellResult, CellRunner};

use crate::check::{cell_events, check_cell, row_digests};
use crate::spans::{timed, Spans};

/// What one pass measured and produced.
pub struct Pass {
    /// Host time from the first cell to rendered JSON and CSV.
    pub wall: Duration,
    /// Bytes of JSON plus CSV rendered.
    pub bytes: usize,
    /// Simulated events over every host of every cell that completed.
    pub events: u64,
    /// Per cell, in plan order: the digest of its simulated JSON row,
    /// or `None` if the cell panicked.
    pub rows: Vec<Option<u64>>,
    /// Cells that panicked, broke a check or differ from the reference.
    pub failed: usize,
    /// The sweep's results (cells that panicked are absent).
    pub outcome: SweepOutcome,
}

/// Runs `cells` on `threads` workers (`sweep::run_serial` for one).
fn run_cells(cells: &[SweepCell], threads: usize) -> SweepOutcome {
    match threads {
        1 => sweep::run_serial(cells),
        n => sweep::run_parallel(cells, Some(n)),
    }
}

/// Runs one planned cell on `runner`.
pub fn run_on(runner: &mut CellRunner, c: &SweepCell) -> CellResult {
    runner.run(
        &c.spec,
        c.scheduler,
        c.placement,
        c.fleet_placement,
        c.rebalance,
        c.faults,
        c.seed,
    )
}

/// Reruns each cell alone after a sweep panicked, so only the cells
/// that panic themselves count as failed.
fn isolate(cells: &[SweepCell]) -> (SweepOutcome, Vec<Option<usize>>) {
    let started = Instant::now();
    let mut results = Vec::new();
    let mut slots = Vec::new();
    for c in cells {
        let ran = catch_unwind(AssertUnwindSafe(|| run_on(&mut CellRunner::new(), c)));
        match ran {
            Ok(r) => {
                slots.push(Some(results.len()));
                results.push(r);
            }
            Err(_) => slots.push(None),
        }
    }
    let outcome = SweepOutcome {
        results,
        wall: started.elapsed(),
        threads: 1,
    };
    (outcome, slots)
}

/// One pass. With a recorder, the sweep and emit calls are recorded
/// as spans under a `pass` span. `reference` holds the row digests
/// every cell must reproduce.
pub fn pass(
    cells: &[SweepCell],
    threads: usize,
    reference: Option<&[Option<u64>]>,
    mut spans: Option<&mut Spans>,
) -> Pass {
    if let Some(s) = spans.as_deref_mut() {
        s.enter("pass");
    }
    let (ran, run) = timed(spans.as_deref_mut(), "sweep.run", || {
        catch_unwind(AssertUnwindSafe(|| run_cells(cells, threads)))
    });
    let (outcome, slots) = match ran {
        Ok(outcome) => (outcome, (0..cells.len()).map(Some).collect()),
        Err(_) => isolate(cells),
    };
    let (json, to_json) = timed(spans.as_deref_mut(), "emit.to_json", || {
        emit::to_json(&outcome)
    });
    let (csv, to_csv) = timed(spans.as_deref_mut(), "emit.to_csv", || {
        emit::to_csv(&outcome)
    });
    if let Some(s) = spans {
        s.exit();
    }

    let digests = row_digests(&json);
    let split = digests.len() == outcome.results.len();
    if !split {
        eprintln!(
            "perfbench: {} JSON rows for {} results; every cell counts as failed",
            digests.len(),
            outcome.results.len()
        );
    }
    let rows: Vec<Option<u64>> = slots
        .iter()
        .map(|slot| slot.filter(|_| split).map(|i| digests[i]))
        .collect();
    let mut failed = 0;
    for (i, cell) in cells.iter().enumerate() {
        let verdict = match slots[i] {
            None => Err("panicked".to_string()),
            Some(_) if !split => Err("row not found in the JSON".to_string()),
            Some(j) => check_cell(cell, &outcome.results[j]).and_then(|()| match reference {
                Some(r) if r[i] != rows[i] => {
                    Err("simulated row differs from the reference execution".to_string())
                }
                _ => Ok(()),
            }),
        };
        if let Err(why) = verdict {
            failed += 1;
            eprintln!(
                "perfbench: cell {i} ({} {} seed {}) failed: {why}",
                cell.spec.name,
                cell.scheduler.label(),
                cell.seed
            );
        }
    }
    Pass {
        wall: run + to_json + to_csv,
        bytes: json.len() + csv.len(),
        events: outcome.results.iter().map(cell_events).sum(),
        rows,
        failed,
        outcome,
    }
}
