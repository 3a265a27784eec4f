//! Golden outputs of every example scenario: each
//! `examples/scenarios/*.toml` runs through the parallel sweep runner,
//! and the simulated part of its JSON and CSV rows must hash to the
//! pinned constants. Host-time columns (`elapsed_ms`, `peak_rss_bytes`)
//! are cut before hashing; everything else is a fixed point of the
//! simulator, so any drift in staging, world construction or summary
//! code shows up here.

use disengaged_scheduling::scenario::{emit, sweep, toml_file};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One digest over a list of per-row hashes.
fn digest(rows: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = rows.flat_map(|h| h.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Result rows of an `emit::to_json` document, cut before the
/// host-time fields.
fn json_rows(json: &str) -> Vec<&str> {
    json.lines()
        .filter(|l| l.starts_with("    {"))
        .map(|row| {
            row.rfind(", \"elapsed_ms\": ")
                .map_or(row, |cut| &row[..cut])
        })
        .collect()
}

/// Header and rows of an `emit::to_csv` document with the host-time
/// columns dropped.
fn csv_rows(csv: &str) -> Vec<String> {
    let header = csv.lines().next().expect("CSV header");
    let keep: Vec<bool> = header
        .split(',')
        .map(|c| c != "elapsed_ms" && c != "peak_rss_bytes")
        .collect();
    csv.lines()
        .map(|line| {
            line.split(',')
                .zip(&keep)
                .filter(|(_, k)| **k)
                .map(|(f, _)| f)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// `(file, result rows, JSON digest, CSV digest)` per example scenario.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    (
        "adversary_midrun.toml",
        7,
        0x515b920b8b767e0b,
        0x79416eb371a8d46c,
    ),
    ("churn.toml", 14, 0x6c74549ec41cccfb, 0x929186e223edb508),
    (
        "faulty_rack.toml",
        2,
        0x6171cd2ce5cd2746,
        0x42829378f06f2c05,
    ),
    (
        "fleet_churn.toml",
        1,
        0x4aeb873a179d6152,
        0xa379f2cc26639f54,
    ),
    ("fleet_rack.toml", 3, 0xee5bf88ccbf97498, 0x56ae13091c2167a0),
    (
        "hetero_gpu.toml",
        12,
        0x35c8377c25f85b88,
        0x9dcb90b3092bfaf7,
    ),
    ("multi_gpu.toml", 6, 0xdcb6685380631950, 0xa6cd07bfbbb83586),
    (
        "poisson_burst.toml",
        4,
        0x0b3fd6b337f5a12c,
        0x73e9b8324d3509b8,
    ),
];

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios")
}

/// Runs one example scenario and compares it with its golden row.
fn check(file: &str) {
    let &(_, rows, json_digest, csv_digest) = GOLDEN
        .iter()
        .find(|g| g.0 == file)
        .unwrap_or_else(|| panic!("{file}: no golden row"));
    let spec = toml_file(&scenario_dir().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let outcome = sweep::run_parallel(&sweep::plan([spec]), None);
    let json: Vec<u64> = json_rows(&emit::to_json(&outcome))
        .into_iter()
        .map(|r| fnv1a(r.as_bytes()))
        .collect();
    let csv = csv_rows(&emit::to_csv(&outcome));
    let got = (
        json.len(),
        digest(json.into_iter()),
        digest(csv.iter().map(|r| fnv1a(r.as_bytes()))),
    );
    assert_eq!(
        got,
        (rows, json_digest, csv_digest),
        "{file}: outputs drifted; computed row: (\"{file}\", {}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2
    );
}

#[test]
fn every_example_scenario_has_a_golden_row() {
    let mut on_disk: Vec<String> = std::fs::read_dir(scenario_dir())
        .expect("examples/scenarios")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".toml").then_some(name)
        })
        .collect();
    on_disk.sort();
    let pinned: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    assert_eq!(on_disk, pinned);
}

#[test]
fn adversary_midrun() {
    check("adversary_midrun.toml");
}

#[test]
fn churn() {
    check("churn.toml");
}

#[test]
fn faulty_rack() {
    check("faulty_rack.toml");
}

#[test]
fn fleet_churn() {
    check("fleet_churn.toml");
}

#[test]
fn fleet_rack() {
    check("fleet_rack.toml");
}

#[test]
fn hetero_gpu() {
    check("hetero_gpu.toml");
}

#[test]
fn multi_gpu() {
    check("multi_gpu.toml");
}

#[test]
fn poisson_burst() {
    check("poisson_burst.toml");
}
