//! Correctness checks behind `cell_error_rate`, fleet-wide event
//! counting, and the `sim_digest` of simulated outputs.
//!
//! A cell fails when it panics, when [`check_cell`] finds a broken
//! property, or when its simulated row differs from the reference
//! execution of the same cell (a second execution of the same seed, or
//! the serial execution when the workload runs in parallel).

use neon_core::telemetry::StatKey;
use neon_core::RunReport;
use neon_scenario::sweep::SweepCell;
use neon_scenario::CellResult;

/// Every host's report of a cell: each fleet host, or the one world.
/// `CellResult::report` alone holds only host 0 of a fleet cell.
pub fn host_reports(r: &CellResult) -> Vec<&RunReport> {
    match &r.fleet {
        Some(fleet) => fleet.hosts.iter().collect(),
        None => vec![&r.report],
    }
}

/// Simulated events of a cell, summed over every host.
pub fn cell_events(r: &CellResult) -> u64 {
    host_reports(r).iter().map(|h| h.events).sum()
}

/// Properties every cell satisfies; the first one broken is returned.
pub fn check_cell(cell: &SweepCell, r: &CellResult) -> Result<(), String> {
    let s = &r.summary;
    let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    ensure(
        s.scenario == cell.spec.name
            && s.scheduler == cell.scheduler
            && s.placement == cell.placement
            && s.fleet_placement == cell.fleet_placement
            && s.rebalance == cell.rebalance
            && s.faults_mode == cell.faults
            && s.seed == cell.seed,
        "summary does not belong to its cell",
    )?;
    let unit = |u: f64| (0.0..=1.0).contains(&u);
    ensure(unit(s.utilization), "utilization outside [0, 1]")?;
    ensure(
        s.per_device.iter().all(|d| unit(d.utilization)),
        "device utilization outside [0, 1]",
    )?;
    ensure(
        s.per_host.iter().all(|h| unit(h.utilization)),
        "host utilization outside [0, 1]",
    )?;
    ensure(
        s.fairness > 0.0 && s.fairness <= 1.0 + 1e-9,
        "fairness outside (0, 1]",
    )?;
    ensure(
        s.round_p50 <= s.round_p95 && s.round_p95 <= s.round_p99,
        "round percentiles out of order",
    )?;
    ensure(
        s.departed + s.killed <= s.admitted,
        "more tasks departed or killed than admitted",
    )?;
    let hosts = host_reports(r);
    ensure(
        hosts
            .iter()
            .all(|h| h.stats.get(StatKey::Events) == h.events),
        "events counter disagrees with the stats block",
    )?;
    ensure(
        hosts
            .iter()
            .flat_map(|h| h.tasks.iter())
            .all(|t| t.completed_requests <= t.submitted_requests),
        "a task completed more requests than it submitted",
    )?;
    ensure(cell_events(r) > 0, "no simulated events")?;
    if cell.spec.hosts > 1 {
        ensure(
            r.fleet.is_some() && s.hosts == cell.spec.hosts && s.per_host.len() == s.hosts,
            "fleet cell without one summary per host",
        )?;
        ensure(
            s.per_host.iter().map(|h| h.rounds).sum::<u64>() == s.total_rounds,
            "per-host rounds do not sum to total_rounds",
        )?;
        ensure(
            s.per_host.iter().map(|h| h.admitted).sum::<usize>() == s.admitted,
            "per-host admissions do not sum to admitted",
        )?;
    } else {
        ensure(
            r.fleet.is_none() && s.hosts == 1,
            "single-host cell ran a fleet",
        )?;
    }
    Ok(())
}

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The simulated part of each result row of an `emit::to_json`
/// document, in plan order: the row up to its host-time fields
/// (`elapsed_ms`, `peak_rss_bytes`), which close every row. The
/// document's `sweep` header (threads, wall time) is not a row.
pub fn sim_rows(json: &str) -> Vec<&str> {
    json.lines()
        .filter(|l| l.starts_with("    {"))
        .map(|row| {
            row.rfind(", \"elapsed_ms\": ")
                .map_or(row, |cut| &row[..cut])
        })
        .collect()
}

/// One digest per result row of an `emit::to_json` document.
pub fn row_digests(json: &str) -> Vec<u64> {
    sim_rows(json).iter().map(|r| fnv1a(r.as_bytes())).collect()
}

/// The digest of a whole sweep's simulated outputs.
pub fn sim_digest(rows: &[u64]) -> u64 {
    let bytes: Vec<u8> = rows.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}
