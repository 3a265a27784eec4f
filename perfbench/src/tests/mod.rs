//! Self-tests of the benchmark: metric definitions, determinism of the
//! simulated outputs it digests, fleet-wide event counting, and that
//! its correctness checks catch a doctored result.

use std::collections::BTreeSet;
use std::sync::Arc;

use neon_scenario::sweep::{self, SweepCell};
use neon_sim::SimDuration;

use crate::check::{cell_events, check_cell, sim_digest, sim_rows};
use crate::metrics::{end_to_end, per_layer, MetricDef};
use crate::pass::pass;
use crate::workload::{load_shape, set_up, Workload};

fn benchmark_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The workload's own shapes, cut to `seeds` seeds and a short horizon,
/// so a test runs in moments in a debug build.
fn small_cells(w: Workload, seed: u64, seeds: usize) -> Vec<SweepCell> {
    let cells = set_up(w, seed, None).expect("workload sets up").cells;
    let mut specs: Vec<Arc<neon_scenario::ScenarioSpec>> = Vec::new();
    for c in &cells {
        if !specs.iter().any(|s| Arc::ptr_eq(s, &c.spec)) {
            specs.push(Arc::clone(&c.spec));
        }
    }
    sweep::plan(specs.iter().map(|s| {
        let mut s = (**s).clone();
        s.seeds.truncate(seeds);
        s.horizon = s.horizon.min(SimDuration::from_millis(250));
        s
    }))
}

#[test]
fn metric_definitions_are_well_formed_and_unique() {
    let defs: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
    let mut seen = BTreeSet::new();
    for d in &defs {
        assert!(is_name(&d.name), "bad metric name {:?}", d.name);
        assert!(is_unit(d.unit), "bad unit {:?} for {}", d.unit, d.name);
        assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
    }
    assert!(end_to_end()
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let json = benchmark_json();
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "BENCHMARK.json lacks workload {}",
            w.name()
        );
    }
    let e2e = end_to_end();
    let layers = per_layer();
    for d in &e2e {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
            d.name,
            d.unit,
            d.better.label()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for d in &layers {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name,
            d.unit,
            d.better.label()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let named = json.matches("{\"name\": ").count();
    assert_eq!(named, Workload::ALL.len() + e2e.len() + layers.len());
}

#[test]
fn same_seed_repeats_digest_and_counts_and_other_seed_differs() {
    let cells = small_cells(Workload::PolicySweep, 7, 1);
    let first = pass(&cells, 1, None, None);
    let second = pass(&cells, 1, Some(&first.rows), None);
    assert_eq!(first.failed, 0);
    assert_eq!(second.failed, 0, "a second execution of one seed diverged");
    let digest =
        |rows: &[Option<u64>]| sim_digest(&rows.iter().flatten().copied().collect::<Vec<_>>());
    assert_eq!(digest(&first.rows), digest(&second.rows));
    assert_eq!(first.events, second.events);

    let other = pass(&small_cells(Workload::PolicySweep, 8, 1), 1, None, None);
    assert_ne!(digest(&first.rows), digest(&other.rows));
}

#[test]
fn parallel_rack_matches_serial_rack() {
    let cells = small_cells(Workload::Rack, 3, 1);
    let serial = pass(&cells, 1, None, None);
    let parallel = pass(&cells, 2, Some(&serial.rows), None);
    assert_eq!(serial.failed, 0);
    assert_eq!(parallel.failed, 0, "serial and parallel runs differ");
}

#[test]
fn fleet_cells_count_events_on_every_host() {
    let mut spec = load_shape("fleet_rack.toml").expect("shape loads");
    spec.horizon = SimDuration::from_millis(300);
    spec.fleet_placements.truncate(1);
    let cells = sweep::plan([spec]);
    let outcome = sweep::run_serial(&cells);
    let r = &outcome.results[0];
    let fleet = r
        .fleet
        .as_ref()
        .expect("a multi-host cell reports its fleet");
    let per_host: u64 = fleet.hosts.iter().map(|h| h.events).sum();
    assert_eq!(cell_events(r), per_host);
    assert!(cell_events(r) > r.report.events, "host 0 alone undercounts");
    assert_eq!(r.report.events, fleet.hosts[0].events);
}

#[test]
fn doctored_results_are_caught() {
    let mut spec = load_shape("fleet_rack.toml").expect("shape loads");
    spec.horizon = SimDuration::from_millis(200);
    spec.fleet_placements.truncate(1);
    let cells = sweep::plan([spec]);
    let outcome = sweep::run_serial(&cells);
    let (cell, honest) = (&cells[0], &outcome.results[0]);
    assert_eq!(check_cell(cell, honest), Ok(()));

    let mut r = honest.clone();
    r.summary.utilization = 1.5;
    assert!(check_cell(cell, &r).is_err(), "utilization above 1 passed");

    let mut r = honest.clone();
    r.summary.per_host[1].rounds += 1;
    assert!(
        check_cell(cell, &r).is_err(),
        "per-host rounds off by one passed"
    );

    let mut r = honest.clone();
    r.summary.seed ^= 1;
    assert!(
        check_cell(cell, &r).is_err(),
        "a result for another seed passed"
    );

    // A row that differs from the reference execution fails the cell.
    let reference = pass(&cells, 1, None, None);
    let mut doctored = reference.rows.clone();
    doctored[0] = doctored[0].map(|d| d ^ 1);
    assert_eq!(pass(&cells, 1, Some(&doctored), None).failed, 1);
}

#[test]
fn sim_rows_drop_host_time_fields() {
    let cells = small_cells(Workload::LongHorizon, 1, 1);
    let json = neon_scenario::emit::to_json(&sweep::run_serial(&cells));
    let rows = sim_rows(&json);
    assert_eq!(rows.len(), cells.len());
    assert!(json.contains("\"elapsed_ms\""));
    assert!(rows
        .iter()
        .all(|r| !r.contains("elapsed_ms") && !r.contains("peak_rss")));
    assert!(rows[0].contains("\"total_rounds\""));
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        crate::parse_args(&args)
    };
    let ok = parse("--workload rack --seed 3 --seconds 2.5 --trace 1").expect("valid arguments");
    assert_eq!((ok.workload, ok.seed, ok.trace), (Workload::Rack, 3, true));
    assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
    assert!(parse("--workload rack --seed 1 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload rack --seed 1 --seconds 1 --trace 2").is_err());
    assert!(parse("--workload rack --seed 1 --seconds 1").is_err());
    assert!(parse("--workload rack --seed").is_err());
}
