//! Pins the scenario TOML loader.
//!
//! - Golden digests of the loaded `ScenarioSpec` (its `Debug` form) for
//!   every example scenario and for two inline documents that between
//!   them set every dotted key, every `[[device]]` key and every fault
//!   kind.
//! - A table of every root, dotted and block key: a value of the wrong
//!   type is an error that names the key.
//! - A fuzz property: mutated example files load or fail with a
//!   `SpecError`; they never panic.

use disengaged_scheduling::scenario::{from_toml, toml_file};
use proptest::prelude::*;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios")
}

/// Every example scenario file name, sorted.
fn example_files() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(scenario_dir())
        .expect("examples/scenarios")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| f.ends_with(".toml"))
        .collect();
    files.sort();
    files
}

/// `(file, digest of format!("{spec:?}"))` per example scenario.
const EXAMPLE_GOLDEN: &[(&str, u64)] = &[
    ("adversary_midrun.toml", 0x3fb77d7ed77249e9),
    ("churn.toml", 0xb431c2297167cc6e),
    ("faulty_rack.toml", 0xe14d5e1a4c385f0d),
    ("fleet_churn.toml", 0xa42804cd5940bf04),
    ("fleet_rack.toml", 0xcd2ffa166a744dfc),
    ("hetero_gpu.toml", 0x47372a7b76afd4cc),
    ("multi_gpu.toml", 0x39563cca6c34cc3e),
    ("poisson_burst.toml", 0x90c019c7f1e869c7),
];

#[test]
fn example_specs_match_their_goldens() {
    let files = example_files();
    let pinned: Vec<&str> = EXAMPLE_GOLDEN.iter().map(|g| g.0).collect();
    assert_eq!(files, pinned, "every example scenario has a golden row");
    let mut drift = Vec::new();
    for &(file, want) in EXAMPLE_GOLDEN {
        let spec = toml_file(&scenario_dir().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let got = fnv1a(format!("{spec:?}").as_bytes());
        if got != want {
            drift.push(format!("(\"{file}\", {got:#018x}),"));
        }
    }
    assert!(
        drift.is_empty(),
        "loaded specs drifted:\n{}",
        drift.join("\n")
    );
}

/// One host: every `params.*`, `cost.*`, `topology.*` and `fault.*`
/// key, `[[device]]` blocks with all their keys, and every fault kind
/// a single host accepts.
const SINGLE_HOST: &str = r#"
name = "loader-single"
horizon = "40ms"
seeds = [3, 4]
schedulers = "paper"
devices = 2
placement = ["least-loaded", "cost-min", "pinned:1"]
rebalance = ["count-diff", "cost"]
faults = ["none", "device", "all"]
metrics = "streaming"
sample_every = "1ms"
params.timeslice = "25ms"
params.sampling_max = "4ms"
params.sampling_requests = 48
params.freerun_multiplier = 3
params.freerun_min = "2ms"
params.freerun_max = "90ms"
params.overlong_limit = "1s"
params.hardware_preemption = true
cost.direct_submit = "300ns"
cost.fault_intercept = "2us"
cost.syscall_submit = "3us"
cost.driver_processing = "5us"
cost.completion_detect = "1500ns"
cost.polling_period = "800us"
cost.poll_scan = "400ns"
cost.kill_cleanup = "50us"
topology.interconnect = "pcie-gen3"
topology.same_switch_gbps = 12.5
topology.cross_pcie_gbps = 8
topology.cross_numa_gbps = 4.0
topology.same_switch_latency = "4us"
topology.cross_pcie_latency = "9us"
topology.cross_numa_latency = "15us"
fault.watchdog = "30ms"
fault.retry_budget = 4
fault.backoff_base = "300us"
fault.backoff_cap = "6ms"
fault.max_park_retries = 5

[[device]]
channels = 64
contexts = 32
ring = 256
context_switch = "6us"
graphics_cooldown = "40us"
numa = 0
switch = 0

[[device]]
channels = 48
contexts = 24
ring = 128
context_switch = "8us"
graphics_cooldown = "60us"
numa = 1
switch = 1

[[group]]
name = "pinned"
count = 2
workload = "fixed-loop"
service = "100us"
gap = "10us"
rounds = 40
device = 1
params.sampling_requests = 96
working_set = "1.5MB"

[[group]]
name = "churn"
count = 3
workload = "throttle"
request = "250us"
off_ratio = 0.25
jitter = 0.1
arrival = "poisson"
rate_hz = 50.0
arrival_start = "2ms"
lifetime = "exp(10ms)"

[[fault]]
at = "5ms"
kind = "device-remove"
device = 1

[[fault]]
at = "9ms"
kind = "device-add"
device = 1

[[fault]]
at = "3ms"
kind = "hang"
task = 2

[[fault]]
at = "4ms"
kind = "crash"

[[fault]]
at = "6ms"
kind = "submit-error"
task = 0
"#;

/// A fleet: `[[host]]` blocks, every `cluster.*` key and the host
/// fault kinds.
const FLEET: &str = r#"
name = "loader-fleet"
horizon = "30ms"
seeds = 9
schedulers = ["direct", "disengaged-fq"]
fleet_placement = ["round-robin", "fewest-tenants"]
fleet_rebalance = "count-diff"
rebalance = false
cluster.network = "25g"
cluster.latency = "80us"
cluster.gbps = 10.0

[[host]]
devices = 2

[[host]]
devices = 1

[[group]]
name = "spread"
count = 4
workload = "idle-burst"
idle = "2ms"
burst_requests = 8
request = "150us"
arrival = "stagger"
stagger = "1ms"

[[group]]
name = "timed"
count = 2
workload = "infinite-loop"
warmup_rounds = 5
request = "300us"
arrival = "at"
times = ["1ms", "4ms"]
lifetime = "12ms"

[[fault]]
at = "10ms"
kind = "host-fail"
host = 1

[[fault]]
at = "20ms"
kind = "host-recover"
host = 1
"#;

const INLINE_GOLDEN: [(&str, &str, u64); 2] = [
    ("single-host", SINGLE_HOST, 0xd8c4c933d70dae31),
    ("fleet", FLEET, 0x17c897d0413b6367),
];

#[test]
fn inline_specs_match_their_goldens() {
    let mut drift = Vec::new();
    for (label, text, want) in INLINE_GOLDEN {
        let spec = from_toml(text, label).unwrap_or_else(|e| panic!("{label}: {e}"));
        let got = fnv1a(format!("{spec:?}").as_bytes());
        if got != want {
            drift.push(format!("(\"{label}\", {got:#018x}),"));
        }
    }
    assert!(
        drift.is_empty(),
        "loaded specs drifted:\n{}",
        drift.join("\n")
    );
}

/// Where a key lives.
#[derive(Clone, Copy, Debug)]
enum At {
    Root,
    Device,
    Host,
    /// A `[[fault]]` block of the given kind.
    Fault(&'static str),
}

/// `(table, key, a value of the wrong type)` for every key outside the
/// `[[group]]` tables.
const WRONG_TYPED: &[(At, &str, &str)] = &[
    (At::Root, "name", "5"),
    (At::Root, "horizon", "5"),
    (At::Root, "seeds", "\"x\""),
    (At::Root, "schedulers", "5"),
    (At::Root, "devices", "\"x\""),
    (At::Root, "hosts", "\"x\""),
    (At::Root, "placement", "5"),
    (At::Root, "fleet_placement", "5"),
    (At::Root, "fleet_rebalance", "5"),
    (At::Root, "rebalance", "5"),
    (At::Root, "faults", "5"),
    (At::Root, "metrics", "5"),
    (At::Root, "sample_every", "5"),
    (At::Root, "params.timeslice", "5"),
    (At::Root, "params.sampling_max", "5"),
    (At::Root, "params.sampling_requests", "\"x\""),
    (At::Root, "params.freerun_multiplier", "\"x\""),
    (At::Root, "params.freerun_min", "5"),
    (At::Root, "params.freerun_max", "5"),
    (At::Root, "params.overlong_limit", "5"),
    (At::Root, "params.hardware_preemption", "\"x\""),
    (At::Root, "cost.direct_submit", "5"),
    (At::Root, "cost.fault_intercept", "5"),
    (At::Root, "cost.syscall_submit", "5"),
    (At::Root, "cost.driver_processing", "5"),
    (At::Root, "cost.completion_detect", "5"),
    (At::Root, "cost.polling_period", "5"),
    (At::Root, "cost.poll_scan", "5"),
    (At::Root, "cost.kill_cleanup", "5"),
    (At::Root, "topology.interconnect", "5"),
    (At::Root, "topology.same_switch_gbps", "\"x\""),
    (At::Root, "topology.cross_pcie_gbps", "\"x\""),
    (At::Root, "topology.cross_numa_gbps", "\"x\""),
    (At::Root, "topology.same_switch_latency", "5"),
    (At::Root, "topology.cross_pcie_latency", "5"),
    (At::Root, "topology.cross_numa_latency", "5"),
    (At::Root, "fault.watchdog", "5"),
    (At::Root, "fault.retry_budget", "\"x\""),
    (At::Root, "fault.backoff_base", "5"),
    (At::Root, "fault.backoff_cap", "5"),
    (At::Root, "fault.max_park_retries", "\"x\""),
    (At::Root, "cluster.network", "5"),
    (At::Root, "cluster.latency", "5"),
    (At::Root, "cluster.gbps", "\"x\""),
    (At::Device, "channels", "\"x\""),
    (At::Device, "contexts", "\"x\""),
    (At::Device, "ring", "\"x\""),
    (At::Device, "context_switch", "5"),
    (At::Device, "graphics_cooldown", "5"),
    (At::Device, "numa", "\"x\""),
    (At::Device, "switch", "\"x\""),
    (At::Host, "devices", "\"x\""),
    (At::Fault("hang"), "at", "5"),
    (At::Fault("hang"), "kind", "5"),
    (At::Fault("device-remove"), "device", "\"x\""),
    (At::Fault("hang"), "task", "\"x\""),
    (At::Fault("host-fail"), "host", "\"x\""),
];

/// A minimal scenario with `key = value` in the table `at` names.
fn with_wrong_value(at: At, key: &str, value: &str) -> String {
    let kv = format!("{key} = {value}\n");
    let mut root = String::new();
    if key != "horizon" {
        root.push_str("horizon = \"10ms\"\n");
    }
    let block = match at {
        At::Root => {
            root.push_str(&kv);
            String::new()
        }
        At::Device => format!("[[device]]\n{kv}"),
        At::Host => format!("[[host]]\n{kv}"),
        At::Fault(kind) => {
            let mut b = String::from("[[fault]]\n");
            if key != "at" {
                b.push_str("at = \"1ms\"\n");
            }
            if key != "kind" {
                b.push_str(&format!("kind = \"{kind}\"\n"));
            }
            b.push_str(&kv);
            b
        }
    };
    format!("{root}{block}[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n")
}

#[test]
fn wrong_typed_values_are_rejected_naming_the_key() {
    for &(at, key, value) in WRONG_TYPED {
        let text = with_wrong_value(at, key, value);
        match from_toml(&text, "x") {
            Ok(_) => panic!("{at:?} {key} = {value} loaded:\n{text}"),
            Err(e) => assert!(e.0.contains(key), "{at:?} {key} = {value}: {e}"),
        }
    }
}

/// Values a mutation swaps in: wrong types, out-of-range integers,
/// huge, zero and non-finite durations, and non-ASCII text.
const SWAPS: &[&str] = &[
    "5",
    "-1",
    "0",
    "4294967296",
    "9223372036854775807",
    "18446744073709551616",
    "1.5",
    "nan",
    "inf",
    "true",
    "\"x\"",
    "\"\"",
    "[1, \"a\"]",
    "[]",
    "\"0s\"",
    "\"99999999999999s\"",
    "\"1e30s\"",
    "\"nanms\"",
    "\"999999999999999999999GB\"",
    "\"exp(0ns)\"",
    "\"all\"",
    "\"pinned:99\"",
    "\"é\"",
];

const NON_ASCII: &[&str] = &["é", "日本", "\u{feff}", "ß=", "\u{202e}", "\"", "[[", "#"];

/// Applies one mutation, chosen by `op`, to the lines of a document.
fn mutate(lines: &mut Vec<String>, op: u8, a: u64, b: u64) {
    if lines.is_empty() {
        return;
    }
    let i = (a % lines.len() as u64) as usize;
    match op {
        // Delete a line (a key, a header or a comment).
        0 => {
            lines.remove(i);
        }
        // Duplicate a line.
        1 => {
            let line = lines[i].clone();
            lines.insert(i, line);
        }
        // Swap a value for one of another type or range.
        2 | 3 => {
            if let Some((key, _)) = lines[i].split_once('=') {
                let swap = SWAPS[(b % SWAPS.len() as u64) as usize];
                lines[i] = format!("{key}= {swap}");
            }
        }
        // Truncate a line at a character boundary.
        4 => {
            let chars: Vec<char> = lines[i].chars().collect();
            let cut = (b % (chars.len() as u64 + 1)) as usize;
            lines[i] = chars[..cut].iter().collect();
        }
        // Insert non-ASCII (or structural) text inside a line.
        _ => {
            let chars: Vec<char> = lines[i].chars().collect();
            let at = (b % (chars.len() as u64 + 1)) as usize;
            let text = NON_ASCII[(a / 7 % NON_ASCII.len() as u64) as usize];
            lines[i] = chars[..at]
                .iter()
                .copied()
                .chain(text.chars())
                .chain(chars[at..].iter().copied())
                .collect();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        .. ProptestConfig::default()
    })]

    /// Every mutated example loads or fails with a `SpecError`.
    #[test]
    fn mutated_examples_load_or_fail_cleanly(
        example in 0usize..64,
        ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..5),
    ) {
        let files = example_files();
        let file = &files[example % files.len()];
        let text = std::fs::read_to_string(scenario_dir().join(file)).expect("example");
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for &(op, a, b) in &ops {
            mutate(&mut lines, op, a, b);
        }
        let mutated = lines.join("\n");
        let loaded = std::panic::catch_unwind(|| from_toml(&mutated, "fuzz").map(|_| ()));
        match loaded {
            Ok(Ok(())) => {}
            Ok(Err(e)) => prop_assert!(!e.0.is_empty(), "{file}: empty error"),
            Err(_) => prop_assert!(false, "{file}: the loader panicked on:\n{mutated}"),
        }
    }
}
