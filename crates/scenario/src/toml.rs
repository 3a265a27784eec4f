//! Minimal TOML loader for scenario files.
//!
//! The build environment has no crates.io access, so scenarios are
//! parsed by a small built-in reader covering the subset the files
//! use (see the `examples/scenarios/` files): `key = value` pairs with
//! string, integer, float, boolean and flat-array values; dotted keys
//! (`params.timeslice = "20ms"`) stored flat under their dotted name;
//! `[[group]]`, `[[device]]`, `[[host]]` and `[[fault]]` headers, each
//! opening one table that the following keys belong to; `#` comments.
//!
//! Durations are strings with a unit suffix (`"134ns"`, `"430us"`,
//! `"30ms"`, `"2s"`); sizes take B/KB/MB/GB suffixes, powers of 1024
//! (`working_set = "64MB"`, the state charged against the
//! interconnect when a group's members are placed or migrated).
//!
//! # Sweep axes
//!
//! `schedulers`, `placement`, `fleet_placement`, `rebalance` and
//! `faults` take a label or an array of labels. `"all"` (and
//! `"paper"` for schedulers) stands for a set of labels, alone or
//! inside an array; placement's `"all"` excludes `"pinned:<device>"`,
//! and for `faults` `"all"` is a mode of its own (the whole schedule).
//! `rebalance` also takes the legacy booleans (`true` →
//! `"count-diff"`, `false` → `"off"`). `fleet_rebalance` and `metrics`
//! take one label; `sample_every = "<duration>"` switches on the
//! device-timeline sampler.
//!
//! # Topology, fleet and overrides
//!
//! `topology.interconnect` (`"free"` or `"pcie-gen3"`) and
//! `cluster.network` (`"free"` or `"25g"`) pick presets that the
//! per-tier `topology.*` and the `cluster.latency`/`cluster.gbps` keys
//! override. `hosts = N` runs N identical hosts; `[[host]]` blocks
//! size heterogeneous ones (a lone block must agree with `devices`).
//! `params.<field>` keys override [`SchedParams`] at top level, or in
//! a `[[group]]` for the device it is pinned to (`device = <index>`
//! required). `cost.<field>` keys override the [`CostModel`] at top
//! level only: the cost model describes the simulated host, so a
//! group that sets one is rejected with an error naming the key.
//!
//! # Declaring a key
//!
//! Each key outside `[[group]]` is declared once, as a `(name,
//! setter)` entry in its section's table: `ROOT` for top-level keys,
//! `PARAMS`, `COST`, `TOPOLOGY`, `CLUSTER` and `FAULT_CONFIG` for the
//! dotted families, `DEVICE` and `HOST` for those blocks, and
//! `FAULT_KINDS` for each fault kind with the operand key it reads.
//! The setter reads the key; the strict-key check, the "supported: …"
//! list and the did-you-mean hint read the same entry. A new dotted
//! family also needs a `ROOT` entry named after its prefix
//! (`"params."`). Group keys live in `KNOWN_GROUP_KEYS` and the
//! per-arm `WORKLOAD_ARM_KEYS`/`ARRIVAL_ARM_KEYS` tables. The labels
//! of each sweep axis are one [`Labels`] constant in [`crate::labels`],
//! shared with the `neon` CLI flags.
//!
//! # Positivity
//!
//! The loader rejects bandwidths that are not positive
//! (`topology.*_gbps`, `cluster.gbps`), non-finite numbers, negative
//! durations and sizes, and durations or sizes past 64 bits.
//! [`ScenarioSpec::validate`] rejects a zero `horizon`,
//! `sample_every`, `params.timeslice` or `params.freerun_min` (top
//! level or per group), `cost.polling_period`, `fault.watchdog`,
//! `fault.backoff_base` or `fault.backoff_cap`, a `[[device]]` with
//! `ring = 0`, a zero `count`, `devices` or `hosts`, a zero
//! exponential lifetime mean, and a poisson `rate_hz` that is not
//! positive.

use std::collections::BTreeMap;
use std::fmt::Display;

use neon_core::cost::{CostModel, SchedParams};
use neon_core::fault::{FaultConfig, FaultEvent, FaultKind};
use neon_core::rebalance::RebalanceKind;
use neon_gpu::{
    ClusterInterconnect, DeviceId, DeviceSlotSpec, GpuConfig, InterconnectParams, TaskId,
};
use neon_sim::{SimDuration, SimTime};

use crate::labels::{
    unknown, Labels, FAULT_MODES, FLEET_PLACEMENTS, FLEET_REBALANCES, METRICS_MODES, PLACEMENTS,
    REBALANCES, SCHEDULERS,
};
use crate::spec::{ArrivalSpec, LifetimeSpec, ScenarioSpec, SpecError, TenantGroup, WorkloadSpec};

/// A scalar or flat-array TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A flat array of scalars.
    Array(Vec<Value>),
}

type Table = BTreeMap<String, Value>;

/// The `[[block]]` headers a document may use.
const BLOCKS: [&str; 4] = ["group", "device", "host", "fault"];

/// The root table plus each block kind's tables in source order,
/// indexed like [`BLOCKS`].
type Document = (Table, [Vec<Table>; 4]);

fn parse_err(line_no: usize, msg: impl Into<String>) -> SpecError {
    SpecError(format!("line {}: {}", line_no, msg.into()))
}

/// Parses the supported TOML subset into a root table plus the
/// ordered block tables.
fn parse_document(text: &str) -> Result<Document, SpecError> {
    let mut root = Table::new();
    let mut blocks: [Vec<Table>; 4] = Default::default();
    // The block kind subsequent `key = value` lines belong to; `None`
    // is the root table.
    let mut section = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let header = header.trim();
            let kind = BLOCKS.iter().position(|b| *b == header).ok_or_else(|| {
                parse_err(
                    line_no,
                    format!(
                        "unsupported table array [[{header}]]; only [[group]], \
                         [[device]], [[host]] and [[fault]]"
                    ),
                )
            })?;
            blocks[kind].push(Table::new());
            section = Some(kind);
            continue;
        }
        if line.starts_with('[') {
            return Err(parse_err(
                line_no,
                "plain [table] headers are not supported; use top-level keys, \
                 [[group]], [[device]] or [[host]]",
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(parse_err(
                line_no,
                format!("expected key = value, got {line:?}"),
            ));
        };
        let key = key.trim().to_string();
        if key.is_empty()
            || key.starts_with('.')
            || key.ends_with('.')
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
        {
            return Err(parse_err(line_no, format!("bad key {key:?}")));
        }
        let value = parse_value(value.trim(), line_no)?;
        // A block section always has its table: the header pushed it.
        let table = section
            .and_then(|kind| blocks[kind].last_mut())
            .unwrap_or(&mut root);
        if table.insert(key.clone(), value).is_some() {
            return Err(parse_err(line_no, format!("duplicate key {key:?}")));
        }
    }
    Ok((root, blocks))
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str, line_no: usize) -> Result<Value, SpecError> {
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| parse_err(line_no, "unterminated array"))?;
        let mut items = Vec::new();
        for part in split_array_items(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_value(part, line_no)?);
        }
        return Ok(Value::Array(items));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| parse_err(line_no, "unterminated string"))?;
        if body.contains('"') {
            return Err(parse_err(line_no, "embedded quotes are not supported"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let cleaned = s.replace('_', "");
    if let Some(hex) = cleaned.strip_prefix("0x") {
        if let Ok(v) = i64::from_str_radix(hex, 16) {
            return Ok(Value::Int(v));
        }
    }
    if let Ok(v) = cleaned.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = cleaned.parse::<f64>() {
        return Ok(Value::Float(v));
    }
    Err(parse_err(line_no, format!("unparseable value {s:?}")))
}

/// Splits array items on commas outside quotes (arrays are flat, so no
/// bracket nesting to track).
fn split_array_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    items.push(current);
    items
}

/// Splits a literal like `"64MB"` into its non-negative number and its
/// unit; `what` names the literal in errors and `units` lists the
/// accepted units.
fn split_unit<'s>(s: &'s str, what: &str, units: &str) -> Result<(f64, &'s str), SpecError> {
    let split = s
        .find(|c: char| c.is_ascii_alphabetic())
        .ok_or_else(|| SpecError(format!("{what} {s:?} is missing a unit ({units})")))?;
    let (num, unit) = s.split_at(split);
    let value: f64 = num
        .trim()
        .parse()
        .ok()
        .filter(|v: &f64| !v.is_nan())
        .ok_or_else(|| SpecError(format!("bad {what} number in {s:?}")))?;
    if value < 0.0 {
        return Err(SpecError(format!("negative {what} {s:?}")));
    }
    Ok((value, unit))
}

/// Parses a byte-size literal with a unit suffix (`"512KB"`, `"64MB"`,
/// `"2GB"`, bare `"4096B"`); units are powers of 1024.
pub fn parse_size(s: &str) -> Result<u64, SpecError> {
    let s = s.trim();
    let (value, unit) = split_unit(s, "size", "B/KB/MB/GB")?;
    let scale: u64 = match unit {
        "B" => 1,
        "KB" | "KiB" => 1 << 10,
        "MB" | "MiB" => 1 << 20,
        "GB" | "GiB" => 1 << 30,
        _ => return Err(SpecError(format!("unknown size unit {unit:?} in {s:?}"))),
    };
    let bytes = value * scale as f64;
    // `as u64` would saturate and load as u64::MAX bytes.
    if bytes >= u64::MAX as f64 {
        return Err(SpecError(format!("size {s:?} overflows 64 bits")));
    }
    Ok(bytes as u64)
}

/// Parses a duration literal with a unit suffix (`"250us"`, `"2s"`).
pub fn parse_duration(s: &str) -> Result<SimDuration, SpecError> {
    let s = s.trim();
    let (value, unit) = split_unit(s, "duration", "ns/us/ms/s")?;
    let micros = match unit {
        "ns" => value / 1_000.0,
        "us" => value,
        "ms" => value * 1_000.0,
        "s" => value * 1_000_000.0,
        _ => {
            return Err(SpecError(format!(
                "unknown duration unit {unit:?} in {s:?}"
            )))
        }
    };
    // `from_micros_f64` would saturate at the u64 nanosecond ceiling
    // and read back as an infinite duration.
    if micros * 1_000.0 >= u64::MAX as f64 {
        return Err(SpecError(format!(
            "duration {s:?} overflows the nanosecond clock (about 584 years)"
        )));
    }
    Ok(SimDuration::from_micros_f64(micros))
}

// ----------------------------------------------------------------------
// Typed accessors
// ----------------------------------------------------------------------

/// Reads `key` through `conv`; a value `conv` refuses is an error
/// saying what the key must be.
fn get<'t, V>(
    t: &'t Table,
    key: &str,
    must_be: &str,
    conv: impl FnOnce(&'t Value) -> Option<V>,
) -> Result<Option<V>, SpecError> {
    t.get(key)
        .map(|v| conv(v).ok_or_else(|| SpecError(format!("{key} must be {must_be}, got {v:?}"))))
        .transpose()
}

/// Reads a value or a flat array of values as a list.
fn get_list<'t, V>(
    t: &'t Table,
    key: &str,
    must_be: &str,
    conv: impl Fn(&'t Value) -> Option<V>,
) -> Result<Option<Vec<V>>, SpecError> {
    let items = match t.get(key) {
        None => return Ok(None),
        Some(Value::Array(items)) => items.as_slice(),
        Some(v) => std::slice::from_ref(v),
    };
    let item = |v| conv(v).ok_or_else(|| SpecError(format!("{key} must be {must_be}, got {v:?}")));
    items.iter().map(item).collect::<Result<_, _>>().map(Some)
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn get_str<'t>(t: &'t Table, key: &str) -> Result<Option<&'t str>, SpecError> {
    get(t, key, "a string", as_str)
}

/// Reads a string key through `parse`, naming the key in its errors.
fn get_parsed<V>(
    t: &Table,
    key: &str,
    parse: fn(&str) -> Result<V, SpecError>,
) -> Result<Option<V>, SpecError> {
    let named = |e: SpecError| SpecError(format!("{key}: {}", e.0));
    get_str(t, key)?
        .map(|s| parse(s).map_err(named))
        .transpose()
}

fn get_duration(t: &Table, key: &str) -> Result<Option<SimDuration>, SpecError> {
    get_parsed(t, key, parse_duration)
}

fn require_duration(t: &Table, key: &str, what: &str) -> Result<SimDuration, SpecError> {
    get_duration(t, key)?
        .ok_or_else(|| SpecError(format!("{what} requires {key} = \"<duration>\"")))
}

fn get_u64(t: &Table, key: &str) -> Result<Option<u64>, SpecError> {
    get(t, key, "a non-negative integer", |v| match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    })
}

/// Like [`get_u64`] but range-checked to `u32`: a value like
/// `device = 4294967296` must be rejected, not silently truncated to 0
/// by an `as u32` cast (which would, e.g., pin a group to the wrong
/// GPU).
fn get_u32(t: &Table, key: &str) -> Result<Option<u32>, SpecError> {
    let narrow = |v: u64| {
        u32::try_from(v).map_err(|_| {
            SpecError(format!(
                "{key} must fit in a 32-bit unsigned integer (0..={}), got {v}",
                u32::MAX
            ))
        })
    };
    get_u64(t, key)?.map(narrow).transpose()
}

fn get_f64(t: &Table, key: &str) -> Result<Option<f64>, SpecError> {
    get(t, key, "a finite number", |v| match v {
        Value::Float(f) if f.is_finite() => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    })
}

fn get_bool(t: &Table, key: &str) -> Result<Option<bool>, SpecError> {
    get(t, key, "true or false", |v| match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    })
}

// One GB/s = 2^30 bytes per 10^6 µs ≈ 1074 bytes/µs.
const BPUS_PER_GBPS: f64 = (1u64 << 30) as f64 / 1e6;

/// A positive bandwidth written in GB/s, in bytes per µs.
fn get_gbps(t: &Table, key: &str) -> Result<Option<f64>, SpecError> {
    match get_f64(t, key)? {
        Some(v) if v <= 0.0 => Err(SpecError(format!("{key} must be positive, got {v}"))),
        v => Ok(v.map(|v| v * BPUS_PER_GBPS)),
    }
}

// ----------------------------------------------------------------------
// Key declarations
// ----------------------------------------------------------------------

/// How a declared key reads its value into a field of `T`. The typed
/// arms point at the field; `With` runs its own reader (a preset, a
/// sweep axis, an optional field). A setter leaves its field alone
/// when the key is absent.
enum Slot<T> {
    Duration(fn(&mut T) -> &mut SimDuration),
    U32(fn(&mut T) -> &mut u32),
    U64(fn(&mut T) -> &mut u64),
    Usize(fn(&mut T) -> &mut usize),
    Bool(fn(&mut T) -> &mut bool),
    /// A bandwidth in GB/s, stored in bytes per µs.
    Gbps(fn(&mut T) -> &mut f64),
    With(fn(&mut T, &Table, &'static str) -> Result<(), SpecError>),
}

/// One declared key: its full name and the setter that reads it.
type Key<T> = (&'static str, Slot<T>);

/// Stores `value` in `slot` when there is one.
fn put<V>(slot: &mut V, value: Option<V>) -> Result<(), SpecError> {
    if let Some(v) = value {
        *slot = v;
    }
    Ok(())
}

/// Runs one key's setter on `target`.
fn set<T>(target: &mut T, table: &Table, (key, slot): &Key<T>) -> Result<(), SpecError> {
    match slot {
        Slot::Duration(f) => put(f(target), get_duration(table, key)?),
        Slot::U32(f) => put(f(target), get_u32(table, key)?),
        Slot::U64(f) => put(f(target), get_u64(table, key)?),
        Slot::Usize(f) => put(f(target), get_u64(table, key)?.map(|v| v as usize)),
        Slot::Bool(f) => put(f(target), get_bool(table, key)?),
        Slot::Gbps(f) => put(f(target), get_gbps(table, key)?),
        Slot::With(f) => f(target, table, key),
    }
}

/// The declared keys of one dotted family or block table.
struct Family<T: 'static> {
    /// What the error calls a key the family does not declare.
    stray: &'static str,
    keys: &'static [Key<T>],
}

impl<T: Clone> Family<T> {
    /// The family's key prefix (`"params."`); empty for a block, whose
    /// table holds only its own keys.
    fn prefix(&self) -> &'static str {
        let first = self.keys[0].0;
        first.find('.').map_or("", |dot| &first[..=dot])
    }

    /// Applies the family's keys in `table` to a copy of `base`: `None`
    /// when `table` sets none of them. A key under the family's prefix
    /// that it does not declare is an error.
    fn apply(&self, table: &Table, base: &T) -> Result<Option<T>, SpecError> {
        let prefix = self.prefix();
        let mut present = table.keys().filter(|k| k.starts_with(prefix)).peekable();
        if present.peek().is_none() {
            return Ok(None);
        }
        reject_strays(present, self.keys.iter().map(|k| k.0), self.stray)?;
        let mut out = base.clone();
        for key in self.keys {
            set(&mut out, table, key)?;
        }
        Ok(Some(out))
    }

    /// [`Family::apply`] for a block: an empty block is `base`.
    fn read(&self, table: &Table, base: &T) -> Result<T, SpecError> {
        Ok(self.apply(table, base)?.unwrap_or_else(|| base.clone()))
    }
}

/// Replaces `target` with the preset the `key` label names.
fn preset<T, const N: usize>(
    target: &mut T,
    t: &Table,
    key: &str,
    what: &str,
    presets: [(&str, T); N],
) -> Result<(), SpecError> {
    let Some(label) = get_str(t, key)? else {
        return Ok(());
    };
    let names: Vec<&str> = presets.iter().map(|p| p.0).collect();
    let (_, value) = presets
        .into_iter()
        .find(|p| p.0 == label)
        .ok_or_else(|| unknown(what, label, names))?;
    *target = value;
    Ok(())
}

/// Top-level keys. An entry named after a prefix (`"params."`) applies
/// that dotted family; the family checks its own members.
#[rustfmt::skip]
const ROOT: [Key<ScenarioSpec>; 18] = [
    ("name", Slot::With(|s, t, k| put(&mut s.name, get_str(t, k)?.map(str::to_string)))),
    ("horizon", Slot::With(|s, t, k| {
        put(&mut s.horizon, Some(require_duration(t, k, "scenario")?))
    })),
    ("seeds", Slot::With(|s, t, k| put(&mut s.seeds, get_seeds(t, k)?))),
    ("schedulers", Slot::With(|s, t, k| {
        put(&mut s.schedulers, get_labels(t, k, &SCHEDULERS)?)
    })),
    ("devices", Slot::Usize(|s| &mut s.devices)),
    ("hosts", Slot::Usize(|s| &mut s.hosts)),
    ("placement", Slot::With(|s, t, k| {
        put(&mut s.placements, get_labels(t, k, &PLACEMENTS)?)
    })),
    ("fleet_placement", Slot::With(|s, t, k| {
        put(&mut s.fleet_placements, get_labels(t, k, &FLEET_PLACEMENTS)?)
    })),
    ("fleet_rebalance", Slot::With(|s, t, k| {
        put(&mut s.fleet_rebalance, get_label(t, k, &FLEET_REBALANCES)?)
    })),
    ("rebalance", Slot::With(rebalances_from)),
    ("faults", Slot::With(|s, t, k| put(&mut s.fault_modes, get_labels(t, k, &FAULT_MODES)?))),
    ("metrics", Slot::With(|s, t, k| put(&mut s.metrics, get_label(t, k, &METRICS_MODES)?))),
    ("sample_every", Slot::With(|s, t, k| {
        put(&mut s.sample_every, get_duration(t, k)?.map(Some))
    })),
    ("params.", Slot::With(|s, t, _| {
        PARAMS.apply(t, &SchedParams::default()).map(|p| s.params = p)
    })),
    ("cost.", Slot::With(|s, t, _| COST.apply(t, &CostModel::default()).map(|c| s.cost = c))),
    ("topology.", Slot::With(|s, t, _| {
        TOPOLOGY.apply(t, &InterconnectParams::free()).map(|i| s.interconnect = i)
    })),
    ("cluster.", Slot::With(|s, t, _| {
        CLUSTER.apply(t, &ClusterInterconnect::free()).map(|c| s.cluster = c)
    })),
    ("fault.", Slot::With(|s, t, _| {
        put(&mut s.fault_config, FAULT_CONFIG.apply(t, &FaultConfig::default())?)
    })),
];

/// `params.<field>` overrides of [`SchedParams`], at top level and in
/// pinned groups.
#[rustfmt::skip]
const PARAMS: Family<SchedParams> = Family {
    stray: "sched-param override",
    keys: &[
        ("params.timeslice", Slot::Duration(|p| &mut p.timeslice)),
        ("params.sampling_max", Slot::Duration(|p| &mut p.sampling_max)),
        ("params.sampling_requests", Slot::U64(|p| &mut p.sampling_requests)),
        ("params.freerun_multiplier", Slot::U32(|p| &mut p.freerun_multiplier)),
        ("params.freerun_min", Slot::Duration(|p| &mut p.freerun_min)),
        ("params.freerun_max", Slot::Duration(|p| &mut p.freerun_max)),
        ("params.overlong_limit", Slot::Duration(|p| &mut p.overlong_limit)),
        ("params.hardware_preemption", Slot::Bool(|p| &mut p.hardware_preemption)),
    ],
};

/// `cost.<field>` overrides of the host [`CostModel`].
#[rustfmt::skip]
const COST: Family<CostModel> = Family {
    stray: "cost override",
    keys: &[
        ("cost.direct_submit", Slot::Duration(|c| &mut c.direct_submit)),
        ("cost.fault_intercept", Slot::Duration(|c| &mut c.fault_intercept)),
        ("cost.syscall_submit", Slot::Duration(|c| &mut c.syscall_submit)),
        ("cost.driver_processing", Slot::Duration(|c| &mut c.driver_processing)),
        ("cost.completion_detect", Slot::Duration(|c| &mut c.completion_detect)),
        ("cost.polling_period", Slot::Duration(|c| &mut c.polling_period)),
        ("cost.poll_scan", Slot::Duration(|c| &mut c.poll_scan)),
        ("cost.kill_cleanup", Slot::Duration(|c| &mut c.kill_cleanup)),
    ],
};

/// `topology.*`: an interconnect preset, then per-tier overrides.
#[rustfmt::skip]
const TOPOLOGY: Family<InterconnectParams> = Family {
    stray: "topology key",
    keys: &[
        ("topology.interconnect", Slot::With(|p, t, k| preset(p, t, k, "interconnect", [
            ("free", InterconnectParams::free()),
            ("pcie-gen3", InterconnectParams::pcie_gen3()),
        ]))),
        ("topology.same_switch_gbps", Slot::Gbps(|p| &mut p.same_switch_bpus)),
        ("topology.cross_pcie_gbps", Slot::Gbps(|p| &mut p.cross_pcie_bpus)),
        ("topology.cross_numa_gbps", Slot::Gbps(|p| &mut p.cross_numa_bpus)),
        ("topology.same_switch_latency", Slot::Duration(|p| &mut p.same_switch_latency)),
        ("topology.cross_pcie_latency", Slot::Duration(|p| &mut p.cross_pcie_latency)),
        ("topology.cross_numa_latency", Slot::Duration(|p| &mut p.cross_numa_latency)),
    ],
};

/// `cluster.*`: host-to-host transfer timing, a preset then overrides.
#[rustfmt::skip]
const CLUSTER: Family<ClusterInterconnect> = Family {
    stray: "cluster key",
    keys: &[
        ("cluster.network", Slot::With(|c, t, k| preset(c, t, k, "cluster network", [
            ("free", ClusterInterconnect::free()),
            ("25g", ClusterInterconnect::network_25g()),
        ]))),
        ("cluster.latency", Slot::Duration(|c| &mut c.latency)),
        ("cluster.gbps", Slot::Gbps(|c| &mut c.bpus)),
    ],
};

/// `fault.*` recovery tuning. Positivity of the durations is enforced
/// by [`neon_core::fault::FaultPlan::validate`] during spec
/// validation, with the same key names in the message.
#[rustfmt::skip]
const FAULT_CONFIG: Family<FaultConfig> = Family {
    stray: "fault key",
    keys: &[
        ("fault.watchdog", Slot::With(|c, t, k| {
            put(&mut c.watchdog, get_duration(t, k)?.map(Some))
        })),
        ("fault.retry_budget", Slot::U32(|c| &mut c.retry_budget)),
        ("fault.backoff_base", Slot::Duration(|c| &mut c.backoff_base)),
        ("fault.backoff_cap", Slot::Duration(|c| &mut c.backoff_cap)),
        ("fault.max_park_retries", Slot::U32(|c| &mut c.max_park_retries)),
    ],
};

/// A `[[device]]` block: one heterogeneous device slot.
#[rustfmt::skip]
const DEVICE: Family<DeviceSlotSpec> = Family {
    stray: "key",
    keys: &[
        ("channels", Slot::Usize(|d| &mut d.config.total_channels)),
        ("contexts", Slot::Usize(|d| &mut d.config.total_contexts)),
        ("ring", Slot::Usize(|d| &mut d.config.ring_capacity)),
        ("context_switch", Slot::Duration(|d| &mut d.config.context_switch)),
        ("graphics_cooldown", Slot::Duration(|d| &mut d.config.graphics_cooldown)),
        ("numa", Slot::U32(|d| &mut d.numa)),
        ("switch", Slot::U32(|d| &mut d.switch_id)),
    ],
};

/// A `[[host]]` block: one heterogeneous host's device count.
const HOST: Family<usize> = Family {
    stray: "key",
    keys: &[("devices", Slot::Usize(|d| d))],
};

/// Builds a fault kind from the kind's operand; `None` when a required
/// operand is missing.
type FaultCtor = fn(Option<u32>) -> Option<FaultKind>;

/// `[[fault]]` kinds: `(label, operand key, constructor)`. Device and
/// host kinds require their operand; for task kinds an absent `task`
/// means "the oldest live task at injection time".
#[rustfmt::skip]
const FAULT_KINDS: [(&str, &str, FaultCtor); 7] = [
    ("device-remove", "device", |d| Some(FaultKind::DeviceRemove { device: DeviceId::new(d?) })),
    ("device-add", "device", |d| Some(FaultKind::DeviceAdd { device: DeviceId::new(d?) })),
    ("hang", "task", |t| Some(FaultKind::TaskHang { task: t.map(TaskId::new) })),
    ("crash", "task", |t| Some(FaultKind::TaskCrash { task: t.map(TaskId::new) })),
    ("submit-error", "task", |t| Some(FaultKind::SubmitError { task: t.map(TaskId::new) })),
    ("host-fail", "host", |h| Some(FaultKind::HostFail { host: h? })),
    ("host-recover", "host", |h| Some(FaultKind::HostRecover { host: h? })),
];

/// Builds one scheduled fault from a `[[fault]]` table:
/// `at = "<duration>"`, `kind = "<label>"` and the operand that kind
/// reads.
fn fault_from(f: &Table) -> Result<FaultEvent, SpecError> {
    let operands = FAULT_KINDS.iter().map(|k| k.1);
    let mut known = vec!["at", "kind"];
    known.extend(operands.clone());
    known.dedup();
    reject_strays(f.keys(), known.into_iter(), "key")?;
    let at = require_duration(f, "at", "a [[fault]] block")?;
    let labels = FAULT_KINDS.iter().map(|k| k.0);
    let label = get_str(f, "kind")?.ok_or_else(|| {
        SpecError(format!(
            "requires kind = \"<{}>\"",
            labels.clone().collect::<Vec<_>>().join("|")
        ))
    })?;
    let &(_, operand, make) = FAULT_KINDS
        .iter()
        .find(|k| k.0 == label)
        .ok_or_else(|| unknown("fault kind", label, labels))?;
    if let Some(other) = operands
        .filter(|k| *k != operand)
        .find(|k| f.contains_key(*k))
    {
        return Err(SpecError(format!(
            "kind = {label:?} does not take {other:?}; remove it"
        )));
    }
    let kind = make(get_u32(f, operand)?)
        .ok_or_else(|| SpecError(format!("kind = {label:?} requires {operand} = <index>")))?;
    Ok(FaultEvent {
        at: SimTime::ZERO + at,
        kind,
    })
}

/// Reads a label axis: a string is a one-item list.
fn get_labels<T: Copy + Display>(
    t: &Table,
    key: &str,
    labels: &Labels<T>,
) -> Result<Option<Vec<T>>, SpecError> {
    get_list(t, key, "a label or an array of labels", as_str)?
        .map(|items| labels.parse_list(items))
        .transpose()
}

/// Reads a single-label key.
fn get_label<T: Copy + Display>(
    t: &Table,
    key: &str,
    labels: &Labels<T>,
) -> Result<Option<T>, SpecError> {
    get_str(t, key)?.map(|s| labels.parse_one(s)).transpose()
}

/// The `rebalance` axis, which also takes the legacy boolean toggle
/// (noted as a compatibility spelling).
fn rebalances_from(s: &mut ScenarioSpec, t: &Table, key: &'static str) -> Result<(), SpecError> {
    if let Some(Value::Bool(on)) = t.get(key) {
        s.rebalances = vec![RebalanceKind::from_legacy_bool(*on)];
        s.compat_notes.push(
            "rebalance takes a policy label; the boolean form is legacy \
             (true → \"count-diff\", false → \"off\")"
                .to_string(),
        );
        return Ok(());
    }
    put(&mut s.rebalances, get_labels(t, key, &REBALANCES)?)
}

fn get_seeds(t: &Table, key: &str) -> Result<Option<Vec<u64>>, SpecError> {
    get_list(t, key, "non-negative integers", |v| match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    })
}

// ----------------------------------------------------------------------
// Key strictness
// ----------------------------------------------------------------------
//
// Every table is checked against the full key vocabulary, so a typo or
// a key in the wrong place is an error with a pointed hint instead of a
// silent no-op. (`warmup_rounds` on a throttle group used to parse and
// do nothing — exactly the failure mode this closes.)

/// Group keys that are valid for every workload/arrival combination.
#[rustfmt::skip]
const KNOWN_GROUP_KEYS: [&str; 7] =
    ["name", "count", "workload", "arrival", "lifetime", "device", "working_set"];

/// `(workload kind, keys only that arm reads)`.
const WORKLOAD_ARM_KEYS: [(&str, &[&str]); 6] = [
    ("throttle", &["request", "off_ratio", "jitter"]),
    ("fixed-loop", &["service", "gap", "rounds"]),
    ("app", &["app"]),
    ("batcher", &["batch"]),
    ("idle-burst", &["idle", "burst_requests", "request"]),
    ("infinite-loop", &["warmup_rounds", "request"]),
];

/// `(arrival kind, keys only that arm reads)`.
const ARRIVAL_ARM_KEYS: [(&str, &[&str]); 4] = [
    ("at-start", &[]),
    ("stagger", &["stagger"]),
    ("at", &["times"]),
    ("poisson", &["rate_hz", "arrival_start"]),
];

/// Rejects the first of `keys` that `known` does not list.
fn reject_strays<'k>(
    mut keys: impl Iterator<Item = &'k String>,
    known: impl Iterator<Item = &'static str> + Clone,
    stray: &str,
) -> Result<(), SpecError> {
    match keys.find(|k| !known.clone().any(|n| n == k.as_str())) {
        Some(k) => Err(unknown(stray, k, known)),
        None => Ok(()),
    }
}

/// The keys only the `active` arm of an arm table reads.
fn arm_keys(arms: &[(&str, &'static [&'static str])], active: &str) -> &'static [&'static str] {
    arms.iter()
        .find(|(arm, _)| *arm == active)
        .map_or(&[], |(_, keys)| keys)
}

/// Rejects unknown top-level keys. Dotted families are validated
/// member-by-member by their own [`Family`]; this pass catches unknown
/// families, bare-key typos, and group keys that drifted above the
/// first `[[group]]` header.
fn validate_root_keys(root: &Table) -> Result<(), SpecError> {
    let names = || ROOT.iter().map(|k| k.0);
    for key in root.keys() {
        if let Some(dot) = key.find('.') {
            if names().any(|n| n == &key[..=dot]) {
                continue;
            }
            let families = names().filter_map(|n| n.strip_suffix('.'));
            return Err(unknown("key family", &key[..dot], families));
        }
        if names().any(|n| n == key) {
            continue;
        }
        let group_key = KNOWN_GROUP_KEYS.contains(&key.as_str())
            || WORKLOAD_ARM_KEYS
                .iter()
                .any(|(_, ks)| ks.contains(&key.as_str()))
            || ARRIVAL_ARM_KEYS
                .iter()
                .any(|(_, ks)| ks.contains(&key.as_str()));
        if group_key {
            return Err(SpecError(format!(
                "{key:?} is a group key; move it below a [[group]] header"
            )));
        }
        return Err(unknown(
            "top-level key",
            key,
            names().filter(|n| !n.ends_with('.')),
        ));
    }
    Ok(())
}

/// Rejects unknown and misplaced keys in one `[[group]]` table, given
/// the group's resolved workload and arrival kinds. A key that belongs
/// to a *different* arm gets an error naming the arm that reads it —
/// the silent no-op this check exists to close.
fn validate_group_keys(
    g: &Table,
    group_name: &str,
    workload: &str,
    arrival: &str,
) -> Result<(), SpecError> {
    let (workload_keys, arrival_keys) = (
        arm_keys(&WORKLOAD_ARM_KEYS, workload),
        arm_keys(&ARRIVAL_ARM_KEYS, arrival),
    );
    let supported = || {
        KNOWN_GROUP_KEYS
            .iter()
            .chain(workload_keys)
            .chain(arrival_keys)
            .copied()
    };
    for key in g.keys() {
        let key = key.as_str();
        // params.* members are checked by PARAMS itself.
        if key.starts_with(PARAMS.prefix()) || supported().any(|k| k == key) {
            continue;
        }
        let other_workloads: Vec<&str> = WORKLOAD_ARM_KEYS
            .iter()
            .filter(|(arm, keys)| *arm != workload && keys.contains(&key))
            .map(|(arm, _)| *arm)
            .collect();
        if !other_workloads.is_empty() {
            return Err(SpecError(format!(
                "group {group_name:?}: {key:?} is only used by workload = \"{}\" \
                 and does nothing under workload = \"{workload}\"; remove it or \
                 change the workload",
                other_workloads.join("\" / \"")
            )));
        }
        if let Some((arm, _)) = ARRIVAL_ARM_KEYS
            .iter()
            .find(|(arm, ks)| *arm != arrival && ks.contains(&key))
        {
            return Err(SpecError(format!(
                "group {group_name:?}: {key:?} is only used by arrival = \"{arm}\" \
                 and does nothing under arrival = \"{arrival}\"; remove it or \
                 change the arrival"
            )));
        }
        if ROOT.iter().any(|k| k.0 == key) {
            return Err(SpecError(format!(
                "group {group_name:?}: {key:?} is a top-level key; move it above \
                 the first [[group]] header"
            )));
        }
        let e = unknown("key", key, supported());
        return Err(SpecError(format!("group {group_name:?}: {}", e.0)));
    }
    Ok(())
}

fn workload_from(g: &Table) -> Result<WorkloadSpec, SpecError> {
    let kind = get_str(g, "workload")?.unwrap_or("throttle");
    match kind {
        "throttle" => Ok(WorkloadSpec::Throttle {
            request: require_duration(g, "request", "throttle")?,
            off_ratio: get_f64(g, "off_ratio")?.unwrap_or(0.0),
            jitter: get_f64(g, "jitter")?.unwrap_or(0.0),
        }),
        "fixed-loop" => Ok(WorkloadSpec::FixedLoop {
            service: require_duration(g, "service", "fixed-loop")?,
            gap: get_duration(g, "gap")?.unwrap_or(SimDuration::ZERO),
            rounds: get_u64(g, "rounds")?,
        }),
        "app" => Ok(WorkloadSpec::App {
            name: get_str(g, "app")?
                .ok_or_else(|| SpecError("app workload requires app = \"<Name>\"".into()))?
                .to_string(),
        }),
        "batcher" => Ok(WorkloadSpec::Batcher {
            batch: require_duration(g, "batch", "batcher")?,
        }),
        "idle-burst" => Ok(WorkloadSpec::IdleBurst {
            idle: require_duration(g, "idle", "idle-burst")?,
            burst_requests: get_u32(g, "burst_requests")?.unwrap_or(32),
            request: require_duration(g, "request", "idle-burst")?,
        }),
        "infinite-loop" => Ok(WorkloadSpec::InfiniteLoop {
            warmup_rounds: get_u32(g, "warmup_rounds")?.unwrap_or(50),
            request: require_duration(g, "request", "infinite-loop")?,
        }),
        other => Err(SpecError(format!("unknown workload kind {other:?}"))),
    }
}

fn arrival_from(g: &Table) -> Result<ArrivalSpec, SpecError> {
    let kind = get_str(g, "arrival")?.unwrap_or("at-start");
    match kind {
        "at-start" => Ok(ArrivalSpec::AtStart),
        "stagger" => Ok(ArrivalSpec::Staggered {
            gap: require_duration(g, "stagger", "stagger arrival")?,
        }),
        "at" => {
            let times =
                get_list(g, "times", "an array of duration strings", as_str)?.ok_or_else(|| {
                    SpecError("at arrival requires times = [\"<duration>\", ...]".into())
                })?;
            let times = times
                .into_iter()
                .map(parse_duration)
                .collect::<Result<_, _>>()?;
            Ok(ArrivalSpec::At { times })
        }
        "poisson" => Ok(ArrivalSpec::Poisson {
            rate_hz: get_f64(g, "rate_hz")?
                .ok_or_else(|| SpecError("poisson arrival requires rate_hz".into()))?,
            start: get_duration(g, "arrival_start")?.unwrap_or(SimDuration::ZERO),
        }),
        other => Err(SpecError(format!("unknown arrival kind {other:?}"))),
    }
}

fn lifetime_from(g: &Table) -> Result<LifetimeSpec, SpecError> {
    let Some(s) = get_str(g, "lifetime")? else {
        return Ok(LifetimeSpec::Forever);
    };
    if s == "forever" {
        return Ok(LifetimeSpec::Forever);
    }
    if let Some(body) = s.strip_prefix("exp(").and_then(|b| b.strip_suffix(')')) {
        return Ok(LifetimeSpec::Exponential {
            mean: parse_duration(body)?,
        });
    }
    Ok(LifetimeSpec::Fixed(parse_duration(s)?))
}

/// Builds one tenant group; `params.*` overrides start from the
/// scenario's `params`.
fn group_from(g: &Table, index: usize, params: &SchedParams) -> Result<TenantGroup, SpecError> {
    let name = get_str(g, "name")?
        .map(str::to_string)
        .unwrap_or_else(|| format!("group{index}"));
    if let Some(stray) = g.keys().find(|k| k.starts_with(COST.prefix())) {
        return Err(SpecError(format!(
            "group {name:?} sets {stray:?}: the cost model describes the \
             simulated host and cannot vary per group; move it to the top level"
        )));
    }
    validate_group_keys(
        g,
        &name,
        get_str(g, "workload")?.unwrap_or("throttle"),
        get_str(g, "arrival")?.unwrap_or("at-start"),
    )?;
    Ok(TenantGroup {
        params: PARAMS.apply(g, params)?,
        count: get_u32(g, "count")?.unwrap_or(1),
        workload: workload_from(g)?,
        arrival: arrival_from(g)?,
        lifetime: lifetime_from(g)?,
        device: get_u32(g, "device")?,
        working_set: get_parsed(g, "working_set", parse_size)?,
        name,
    })
}

/// Reads every table of one block kind, naming the block in errors
/// (`device[2]: …`).
fn read_blocks<T>(
    what: &str,
    tables: &[Table],
    read: impl Fn(&Table) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    let block = |(i, t)| read(t).map_err(|e| SpecError(format!("{what}[{i}]: {}", e.0)));
    tables.iter().enumerate().map(block).collect()
}

/// Parses scenario TOML text. `fallback_name` (usually the file stem)
/// names the scenario when the file has no `name` key.
pub fn from_toml(text: &str, fallback_name: &str) -> Result<ScenarioSpec, SpecError> {
    let (root, [groups, devices, hosts, faults]) = parse_document(text)?;
    validate_root_keys(&root)?;
    // [[device]] blocks set the device count when the devices key is
    // absent; when both appear, validation checks they agree. The
    // hosts key and [[host]] blocks follow the same rule one level up.
    let mut spec = ScenarioSpec::new(fallback_name, SimDuration::ZERO)
        .devices(devices.len().max(1))
        .hosts(hosts.len().max(1));
    for key in &ROOT {
        set(&mut spec, &root, key)?;
    }
    let slot = DeviceSlotSpec::near(GpuConfig::default());
    spec.device_slots = read_blocks("device", &devices, |d| DEVICE.read(d, &slot))?;
    spec.host_devices = read_blocks("host", &hosts, |h| HOST.read(h, &1))?;
    spec.faults = read_blocks("fault", &faults, fault_from)?;
    let params = spec.params.clone().unwrap_or_default();
    for (i, g) in groups.iter().enumerate() {
        spec.groups.push(group_from(g, i, &params)?);
    }
    spec.validate()?;
    Ok(spec)
}

/// Loads a scenario from a `.toml` file.
pub fn from_file(path: &std::path::Path) -> Result<ScenarioSpec, SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("scenario");
    from_toml(&text, stem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::fault::FaultMode;
    use neon_core::fleet::{FleetPlacementKind, FleetRebalanceKind};
    use neon_core::placement::PlacementKind;
    use neon_core::sched::SchedulerKind;
    use neon_core::telemetry::MetricsMode;

    const CHURN: &str = r#"
# A comment.
name = "unit-churn"
horizon = "200ms"
seeds = [1, 2]
schedulers = ["direct", "disengaged-fq"]

[[group]]
name = "resident"
count = 2
workload = "fixed-loop"
service = "100us"
gap = "10us"

[[group]]
name = "churner"          # trailing comment
count = 4
workload = "throttle"
request = "250us"
arrival = "poisson"
rate_hz = 50.0
lifetime = "exp(40ms)"
"#;

    #[test]
    fn full_scenario_round_trip() {
        let spec = from_toml(CHURN, "fallback").unwrap();
        assert_eq!(spec.name, "unit-churn");
        assert_eq!(spec.horizon, SimDuration::from_millis(200));
        assert_eq!(spec.seeds, vec![1, 2]);
        assert_eq!(spec.schedulers.len(), 2);
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.groups[0].count, 2);
        assert!(matches!(
            spec.groups[1].arrival,
            ArrivalSpec::Poisson { rate_hz, .. } if rate_hz == 50.0
        ));
        assert!(matches!(
            spec.groups[1].lifetime,
            LifetimeSpec::Exponential { mean } if mean == SimDuration::from_millis(40)
        ));
    }

    #[test]
    fn fallback_name_and_defaults_apply() {
        let text = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(text, "stem").unwrap();
        assert_eq!(spec.name, "stem");
        assert_eq!(spec.schedulers.len(), 7, "defaults to every policy");
        assert_eq!(spec.seeds.len(), 1);
        assert!(matches!(spec.groups[0].arrival, ArrivalSpec::AtStart));
        assert!(matches!(spec.groups[0].lifetime, LifetimeSpec::Forever));
    }

    #[test]
    fn durations_parse_all_units() {
        assert_eq!(
            parse_duration("134ns").unwrap(),
            SimDuration::from_nanos(134)
        );
        assert_eq!(
            parse_duration("430us").unwrap(),
            SimDuration::from_micros(430)
        );
        assert_eq!(
            parse_duration("30ms").unwrap(),
            SimDuration::from_millis(30)
        );
        assert_eq!(parse_duration("2s").unwrap(), SimDuration::from_secs(2));
        assert_eq!(
            parse_duration("1.5ms").unwrap(),
            SimDuration::from_micros(1_500)
        );
        assert!(parse_duration("10").is_err(), "unit required");
        assert!(parse_duration("10fortnights").is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "horizon = \"10ms\"\nbogus line\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
    }

    #[test]
    fn unknown_scheduler_label_is_rejected() {
        let text =
            "horizon = \"10ms\"\nschedulers = [\"warp-drive\"]\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        assert!(from_toml(text, "x").is_err());
    }

    const MULTI: &str = r#"
name = "multi"
horizon = "100ms"
devices = 4
placement = ["least-loaded", "round-robin", "pinned:2"]
rebalance = true
schedulers = ["disengaged-fq"]
params.sampling_max = "3ms"
params.freerun_max = "80ms"
cost.polling_period = "500us"

[[group]]
name = "floaters"
count = 6
workload = "throttle"
request = "200us"

[[group]]
name = "pinned-heavy"
count = 2
workload = "throttle"
request = "900us"
device = 3
params.sampling_requests = 96
"#;

    #[test]
    fn multi_device_scenario_round_trips() {
        let spec = from_toml(MULTI, "x").unwrap();
        assert_eq!(spec.devices, 4);
        assert_eq!(
            spec.rebalances,
            vec![RebalanceKind::CountDiff],
            "legacy rebalance = true maps to the count-diff heuristic"
        );
        assert_eq!(
            spec.placements,
            vec![
                PlacementKind::LeastLoaded,
                PlacementKind::RoundRobin,
                PlacementKind::Pinned(2)
            ]
        );
        assert_eq!(
            spec.params.as_ref().unwrap().sampling_max,
            SimDuration::from_millis(3)
        );
        assert_eq!(
            spec.params.as_ref().unwrap().freerun_max,
            SimDuration::from_millis(80)
        );
        assert_eq!(
            spec.cost.as_ref().unwrap().polling_period,
            SimDuration::from_micros(500)
        );
        assert_eq!(spec.groups[0].device, None);
        assert_eq!(spec.groups[1].device, Some(3));
        let group_params = spec.groups[1].params.as_ref().unwrap();
        assert_eq!(group_params.sampling_requests, 96);
        // Group overrides start from the scenario-level params.
        assert_eq!(group_params.sampling_max, SimDuration::from_millis(3));
        let per_device = spec.device_params(spec.devices);
        assert_eq!(per_device[3].sampling_requests, 96);
        assert_eq!(per_device[0].sampling_requests, 32);
        assert_eq!(spec.cell_count(), 3);
    }

    #[test]
    fn rebalance_axis_parses_labels_arrays_and_legacy_booleans() {
        let with_rebalance = |v: &str| {
            format!(
                "horizon = \"10ms\"\ndevices = 2\nrebalance = {v}\n\
                 [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n"
            )
        };
        let cases = [
            ("true", vec![RebalanceKind::CountDiff]),
            ("false", vec![RebalanceKind::Off]),
            ("\"cost\"", vec![RebalanceKind::CostAware]),
            ("\"cost-aware\"", vec![RebalanceKind::CostAware]),
            ("\"all\"", RebalanceKind::ALL.to_vec()),
            (
                "[\"count-diff\", \"cost-aware\"]",
                vec![RebalanceKind::CountDiff, RebalanceKind::CostAware],
            ),
        ];
        for (value, expected) in cases {
            let spec = from_toml(&with_rebalance(value), "x").unwrap();
            assert_eq!(spec.rebalances, expected, "rebalance = {value}");
        }
        // Missing key means off, and the axis multiplies the matrix.
        let spec = from_toml(&with_rebalance("\"all\""), "x").unwrap();
        assert_eq!(spec.cell_count(), 7 * 3, "schedulers x rebalances");
        let off = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap();
        assert_eq!(off.rebalances, vec![RebalanceKind::Off]);
        assert!(from_toml(&with_rebalance("\"warp-drive\""), "x").is_err());
    }

    #[test]
    fn placement_all_and_unknown_labels() {
        let ok = "horizon = \"10ms\"\ndevices = 2\nplacement = \"all\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(ok, "x").unwrap();
        assert_eq!(spec.placements.len(), PlacementKind::ALL.len());
        let bad = "horizon = \"10ms\"\nplacement = \"warp-drive\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        assert!(from_toml(bad, "x").is_err());
    }

    #[test]
    fn group_cost_overrides_are_rejected_with_guidance() {
        let text = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\ncost.polling_period = \"2ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("cannot vary per group"), "{e}");
    }

    #[test]
    fn group_params_without_pin_are_rejected_not_ignored() {
        let text = "horizon = \"10ms\"\ndevices = 2\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\nparams.sampling_requests = 96\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("require device"), "{e}");
    }

    #[test]
    fn unknown_override_keys_are_rejected() {
        let text = "horizon = \"10ms\"\nparams.warp_factor = 9\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown sched-param override"), "{e}");
        let text = "horizon = \"10ms\"\ncost.warp = \"1ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown cost override"), "{e}");
    }

    const HETERO: &str = r#"
name = "hetero"
horizon = "50ms"
placement = ["locality-first", "cost-min"]
schedulers = ["direct"]
rebalance = true
topology.interconnect = "pcie-gen3"
topology.cross_numa_gbps = 4.0
topology.same_switch_latency = "5us"

[[device]]
numa = 0
switch = 0

[[device]]
channels = 48
contexts = 24
numa = 1
switch = 1

[[group]]
name = "tenants"
count = 4
workload = "throttle"
request = "300us"
working_set = "128MB"
"#;

    #[test]
    fn hetero_topology_scenario_round_trips() {
        let spec = from_toml(HETERO, "x").unwrap();
        assert_eq!(spec.devices, 2, "[[device]] blocks define the count");
        assert_eq!(spec.device_slots.len(), 2);
        assert_eq!(spec.device_slots[0].config.total_contexts, 48);
        assert_eq!(spec.device_slots[1].config.total_contexts, 24);
        assert_eq!(spec.device_slots[1].numa, 1);
        assert_eq!(
            spec.placements,
            vec![PlacementKind::LocalityFirst, PlacementKind::CostMin]
        );
        let inter = spec.interconnect.as_ref().unwrap();
        assert_eq!(inter.same_switch_latency, SimDuration::from_micros(5));
        // 4 GB/s ≈ 4295 bytes/µs.
        assert!((inter.cross_numa_bpus - 4294.967296).abs() < 1e-6);
        assert_eq!(spec.groups[0].working_set, Some(128 << 20));
        let topo = spec.topology(spec.devices).expect("topology present");
        assert_eq!(topo.len(), 2);
        assert_eq!(
            topo.tier(0, 1),
            neon_gpu::LinkTier::CrossNuma,
            "devices sit on different NUMA nodes"
        );
    }

    #[test]
    fn device_count_mismatch_and_bad_keys_are_rejected() {
        let text = "horizon = \"10ms\"\ndevices = 3\n[[device]]\nnuma = 0\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("[[device]] block"), "{e}");

        let text = "horizon = \"10ms\"\n[[device]]\nwarp = 9\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown key"), "{e}");

        let text = "horizon = \"10ms\"\ntopology.warp = 9\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown topology key"), "{e}");

        let text = "horizon = \"10ms\"\ntopology.interconnect = \"carrier-pigeon\"\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown interconnect"), "{e}");
    }

    #[test]
    fn sizes_parse_all_units() {
        assert_eq!(parse_size("4096B").unwrap(), 4096);
        assert_eq!(parse_size("512KB").unwrap(), 512 << 10);
        assert_eq!(parse_size("64MB").unwrap(), 64 << 20);
        assert_eq!(parse_size("2GB").unwrap(), 2 << 30);
        assert_eq!(parse_size("1.5MB").unwrap(), 3 << 19);
        assert!(parse_size("64").is_err(), "unit required");
        assert!(parse_size("64parsecs").is_err());
    }

    #[test]
    fn telemetry_keys_parse_and_reject_bad_labels() {
        let with = |extra: &str| {
            format!(
                "horizon = \"10ms\"\n{extra}\n\
                 [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n"
            )
        };
        let spec = from_toml(&with(""), "x").unwrap();
        assert_eq!(spec.metrics, MetricsMode::Exact, "exact is the default");
        assert_eq!(spec.sample_every, None, "sampler is off by default");

        let spec = from_toml(&with("metrics = \"streaming\""), "x").unwrap();
        assert_eq!(spec.metrics, MetricsMode::Streaming);

        let spec = from_toml(&with("sample_every = \"500us\""), "x").unwrap();
        assert_eq!(spec.sample_every, Some(SimDuration::from_micros(500)));

        let e = from_toml(&with("metrics = \"approximate\""), "x").unwrap_err();
        assert!(e.0.contains("unknown metrics mode"), "{e}");
        let e = from_toml(&with("sample_every = \"0ms\""), "x").unwrap_err();
        assert!(e.0.contains("sample_every"), "{e}");
    }

    #[test]
    fn explicit_arrival_times_parse() {
        let text = "horizon = \"50ms\"\n[[group]]\ncount = 2\nworkload = \"throttle\"\nrequest = \"1ms\"\narrival = \"at\"\ntimes = [\"1ms\", \"2ms\"]\n";
        let spec = from_toml(text, "x").unwrap();
        assert!(matches!(
            &spec.groups[0].arrival,
            ArrivalSpec::At { times } if times.len() == 2
        ));
    }

    #[test]
    fn out_of_range_u32_values_are_rejected_naming_the_key() {
        // `device = 2^32` used to truncate silently to device 0 via
        // `as u32`; now every u32 site goes through the checked
        // helper and the error names the offending key.
        let with_group = |workload: &str, kv: &str| {
            format!(
                "horizon = \"10ms\"\ndevices = 2\n\
                 [[group]]\nworkload = \"{workload}\"\nrequest = \"1ms\"\n{kv}\n"
            )
        };
        let cases = [
            ("throttle", "device"),
            ("throttle", "count"),
            ("infinite-loop", "warmup_rounds"),
            ("idle-burst", "burst_requests"),
        ];
        for (workload, key) in cases {
            let text = if workload == "idle-burst" {
                with_group(workload, &format!("idle = \"1ms\"\n{key} = 4294967296"))
            } else {
                with_group(workload, &format!("{key} = 4294967296"))
            };
            let e = from_toml(&text, "x").unwrap_err();
            assert!(e.0.contains(key), "error must name {key}: {e}");
            assert!(e.0.contains("32-bit"), "{e}");
            assert!(e.0.contains("4294967296"), "{e}");
        }
        let e = from_toml(
            "horizon = \"10ms\"\n[[device]]\nnuma = 4294967296\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("numa"), "{e}");
        // In-range values still parse.
        let spec = from_toml(&with_group("throttle", "device = 1"), "x").unwrap();
        assert_eq!(spec.groups[0].device, Some(1));
    }

    const FLEET: &str = r#"
name = "unit-fleet"
horizon = "50ms"
seeds = [7]
schedulers = ["direct"]
hosts = 3
fleet_placement = ["least-loaded", "round-robin"]
fleet_rebalance = "count-diff"
cluster.network = "25g"

[[group]]
name = "spread"
count = 6
workload = "throttle"
request = "200us"
"#;

    #[test]
    fn fleet_keys_round_trip() {
        let spec = from_toml(FLEET, "x").unwrap();
        assert_eq!(spec.hosts, 3);
        assert!(
            spec.host_devices.is_empty(),
            "uniform hosts carry no layout"
        );
        assert_eq!(
            spec.fleet_placements,
            vec![
                FleetPlacementKind::LeastLoaded,
                FleetPlacementKind::RoundRobin
            ]
        );
        assert_eq!(spec.fleet_rebalance, FleetRebalanceKind::CountDiff);
        let cluster = spec.cluster.clone().unwrap();
        assert!(!cluster.is_free(), "25g network must charge transfers");
        assert_eq!(spec.host_device_counts(), vec![1, 1, 1]);
        // fleet_placement is a sweep axis: 1 scheduler × 2 fleet
        // placements × 1 seed.
        assert_eq!(spec.cell_count(), 2);
    }

    #[test]
    fn host_blocks_size_a_heterogeneous_fleet() {
        let text = "horizon = \"10ms\"\n\
                    [[host]]\ndevices = 2\n[[host]]\ndevices = 1\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(text, "x").unwrap();
        assert_eq!(spec.hosts, 2);
        assert_eq!(spec.host_device_counts(), vec![2, 1]);

        let e = from_toml(
            "horizon = \"10ms\"\n[[host]]\ndevices = 2\nbogus = 1\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("bogus"), "{e}");
    }

    #[test]
    fn cluster_latency_and_gbps_keys_parse() {
        let text = "horizon = \"10ms\"\nhosts = 2\n\
                    cluster.latency = \"50us\"\ncluster.gbps = 100.0\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(text, "x").unwrap();
        let cluster = spec.cluster.unwrap();
        assert!(!cluster.is_free());
        assert_eq!(cluster.latency, SimDuration::from_micros(50));

        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 2\ncluster.gbps = -1.0\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("cluster.gbps"), "{e}");
    }

    #[test]
    fn unknown_root_keys_get_did_you_mean_hints() {
        let e = from_toml(
            "horzon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown top-level key"), "{e}");
        assert!(e.0.contains("did you mean \"horizon\"?"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\ntopolgy.interconnect = \"free\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown key family"), "{e}");
        assert!(e.0.contains("did you mean \"topology\"?"), "{e}");
    }

    #[test]
    fn misplaced_workload_arm_keys_name_the_owning_arm() {
        // The PR 8 note: these used to parse and silently do nothing.
        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\nwarmup_rounds = 10\n",
            "x",
        )
        .unwrap_err();
        assert!(
            e.0.contains("only used by workload = \"infinite-loop\""),
            "{e}"
        );
        assert!(
            e.0.contains("does nothing under workload = \"throttle\""),
            "{e}"
        );

        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"fixed-loop\"\n\
             service = \"1ms\"\nburst_requests = 8\n",
            "x",
        )
        .unwrap_err();
        assert!(
            e.0.contains("only used by workload = \"idle-burst\""),
            "{e}"
        );

        // Keys are still accepted in their own arm.
        let ok = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"infinite-loop\"\n\
             request = \"1ms\"\nwarmup_rounds = 10\n",
            "x",
        );
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn misplaced_arrival_arm_keys_name_the_owning_arm() {
        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\nrate_hz = 50.0\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("only used by arrival = \"poisson\""), "{e}");
    }

    #[test]
    fn keys_in_the_wrong_table_get_pointed_errors() {
        // A group key above the first [[group]] header.
        let e = from_toml(
            "horizon = \"10ms\"\nrequest = \"1ms\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("group key"), "{e}");
        assert!(e.0.contains("[[group]]"), "{e}");

        // A top-level key inside a group.
        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\nschedulers = \"all\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("top-level key"), "{e}");

        // A plain typo inside a group.
        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequst = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown key"), "{e}");
        assert!(e.0.contains("did you mean \"request\"?"), "{e}");
    }

    #[test]
    fn legacy_rebalance_boolean_earns_a_compat_note() {
        let with_rebalance = |v: &str| {
            format!(
                "horizon = \"10ms\"\ndevices = 2\nrebalance = {v}\n\
                 [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n"
            )
        };
        let spec = from_toml(&with_rebalance("true"), "x").unwrap();
        assert_eq!(spec.compat_notes.len(), 1, "{:?}", spec.compat_notes);
        assert!(spec.compat_notes[0].contains("legacy"));
        let spec = from_toml(&with_rebalance("\"count-diff\""), "x").unwrap();
        assert!(spec.compat_notes.is_empty());
    }

    #[test]
    fn fleet_validation_rejects_ambiguous_layouts() {
        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 2\n[[device]]\nnuma = 0\n[[device]]\nnuma = 0\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("[[device]]"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 2\ndevices = 2\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\ndevice = 0\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("pins a device"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 3\n[[host]]\ndevices = 1\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("[[host]]"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 0\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("hosts"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nfleet_placement = \"most-loaded\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("fleet placement"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nfleet_rebalance = \"sometimes\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("off, count-diff"), "{e}");
    }

    const FAULTY: &str = r#"
name = "faulty"
horizon = "50ms"
devices = 2
schedulers = ["disengaged-fq"]
fault.watchdog = "5ms"
fault.retry_budget = 3
fault.backoff_base = "200us"
fault.backoff_cap = "4ms"

[[group]]
workload = "throttle"
request = "200us"
count = 3

[[fault]]
at = "10ms"
kind = "device-remove"
device = 1

[[fault]]
at = "20ms"
kind = "device-add"
device = 1

[[fault]]
at = "5ms"
kind = "hang"
"#;

    #[test]
    fn fault_blocks_and_config_round_trip() {
        let spec = from_toml(FAULTY, "x").unwrap();
        assert_eq!(spec.faults.len(), 3);
        assert!(matches!(
            spec.faults[0].kind,
            FaultKind::DeviceRemove { device } if device == DeviceId::new(1)
        ));
        assert!(matches!(
            spec.faults[2].kind,
            FaultKind::TaskHang { task: None }
        ));
        assert_eq!(
            spec.fault_config.watchdog,
            Some(SimDuration::from_millis(5))
        );
        assert_eq!(spec.fault_config.retry_budget, 3);
        assert_eq!(
            spec.fault_config.backoff_base,
            SimDuration::from_micros(200)
        );
        // No explicit axis: a faulted scenario defaults to one "all"
        // cell per (scheduler, seed).
        assert_eq!(spec.effective_fault_modes(), vec![FaultMode::All]);
        assert_eq!(spec.cell_count(), 1);
    }

    #[test]
    fn faults_axis_parses_labels_and_expands_cells() {
        let text = format!("faults = [\"none\", \"device\"]\n{}", FAULTY.trim_start());
        let spec = from_toml(&text, "x").unwrap();
        assert_eq!(spec.fault_modes, vec![FaultMode::None, FaultMode::Device]);
        assert_eq!(spec.cell_count(), 2);
        let e = from_toml(
            &format!("faults = \"devcie\"\n{}", FAULTY.trim_start()),
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("did you mean \"device\""), "{e}");
    }

    #[test]
    fn fault_blocks_reject_bad_kinds_operands_and_targets() {
        let bad_kind = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"explode\"\n";
        let e = from_toml(bad_kind, "x").unwrap_err();
        assert!(e.0.contains("unknown fault kind"), "{e}");

        let missing_device = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"device-remove\"\n";
        let e = from_toml(missing_device, "x").unwrap_err();
        assert!(e.0.contains("requires device"), "{e}");

        let wrong_operand = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"hang\"\ndevice = 0\n";
        let e = from_toml(wrong_operand, "x").unwrap_err();
        assert!(e.0.contains("does not take \"device\""), "{e}");

        // Out-of-range device target: caught by spec validation.
        let oob = "horizon = \"10ms\"\ndevices = 2\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"device-remove\"\ndevice = 5\n";
        let e = from_toml(oob, "x").unwrap_err();
        assert!(e.0.contains("targets device 5"), "{e}");

        // Host faults need a multi-host scenario.
        let single_host = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"host-fail\"\nhost = 0\n";
        let e = from_toml(single_host, "x").unwrap_err();
        assert!(e.0.contains("hosts > 1"), "{e}");
    }

    #[test]
    fn fault_config_rejects_zero_durations_and_stray_keys() {
        let zero_watchdog = "fault.watchdog = \"0ms\"\nhorizon = \"10ms\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(zero_watchdog, "x").unwrap_err();
        assert!(e.0.contains("fault.watchdog must be positive"), "{e}");

        let cap_below_base = "fault.backoff_base = \"4ms\"\nfault.backoff_cap = \"1ms\"\n\
             horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(cap_below_base, "x").unwrap_err();
        assert!(
            e.0.contains("fault.backoff_cap must be >= fault.backoff_base"),
            "{e}"
        );

        let stray = "fault.watchdgo = \"1ms\"\nhorizon = \"10ms\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(stray, "x").unwrap_err();
        assert!(e.0.contains("did you mean"), "{e}");
    }

    /// Loads `root` keys plus one throttle group (with `group` keys)
    /// and returns the error, which must name `key`.
    fn rejected(root: &str, group: &str, key: &str) -> SpecError {
        let text = format!(
            "horizon = \"10ms\"\n{root}[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n{group}"
        );
        let e = from_toml(&text, "x").unwrap_err();
        assert!(e.0.contains(key), "{key}: {e}");
        e
    }

    #[test]
    fn nan_poisson_rate_is_rejected() {
        rejected(
            "",
            "count = 2\narrival = \"poisson\"\nrate_hz = nan\n",
            "rate_hz",
        );
    }

    #[test]
    fn nan_jitter_is_rejected() {
        rejected("", "jitter = nan\n", "jitter");
    }

    #[test]
    fn nan_cluster_bandwidth_is_rejected() {
        rejected("hosts = 2\ncluster.gbps = nan\n", "", "cluster.gbps");
    }

    #[test]
    fn overflowing_horizon_is_rejected() {
        let e = parse_duration("99999999999999s").unwrap_err();
        assert!(e.0.contains("overflows"), "{e}");
        let text = "horizon = \"99999999999999s\"\n[[group]]\nworkload = \"throttle\"\n\
                    request = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("99999999999999s"), "{e}");
        // The largest representable span still loads.
        assert!(parse_duration("18446744073s").is_ok());
    }

    #[test]
    fn huge_device_count_is_rejected() {
        rejected("devices = 100000000\n", "", "100000000 devices");
    }

    #[test]
    fn huge_device_count_beside_host_blocks_is_rejected() {
        // `devices` sizes per-device tables in validation even when
        // [[host]] blocks size the worlds.
        rejected(
            "devices = 100000000\n[[host]]\ndevices = 1\n",
            "",
            "devices = 100000000",
        );
        rejected(
            "devices = 100000000\n[[host]]\ndevices = 1\n[[host]]\ndevices = 1\n",
            "",
            "devices = 100000000 exceeds",
        );
    }

    #[test]
    fn one_host_block_must_match_devices() {
        // A pin and per-group params checked against `devices = 4`
        // while the host block would build a one-device world.
        rejected(
            "devices = 4\n[[host]]\ndevices = 1\n",
            "device = 3\nparams.sampling_requests = 96\n",
            "[[host]] block has devices = 1",
        );
        // Two [[device]] slots beside a host block left at one device.
        rejected(
            "[[device]]\nnuma = 0\n[[device]]\nnuma = 0\n[[host]]\n",
            "",
            "[[host]] block has devices = 1",
        );
        // Agreeing counts load as one host.
        let spec = from_toml(
            "horizon = \"10ms\"\ndevices = 2\n[[host]]\ndevices = 2\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\ndevice = 1\n",
            "x",
        )
        .unwrap();
        assert_eq!(spec.host_device_counts(), vec![2]);
    }

    #[test]
    fn huge_host_count_is_rejected() {
        rejected("hosts = 50000000\n", "", "hosts = 50000000");
    }

    #[test]
    fn huge_group_count_is_rejected() {
        rejected(
            "",
            "name = \"big\"\ncount = 4000000000\n",
            "count 4000000000",
        );
    }

    #[test]
    fn zero_timeslice_is_rejected() {
        rejected("params.timeslice = \"0s\"\n", "", "params.timeslice");
        let e = rejected(
            "devices = 2\n",
            "device = 1\nparams.timeslice = \"0s\"\n",
            "params.timeslice must be positive",
        );
        assert!(e.0.contains("group"), "{e}");
    }

    #[test]
    fn zero_freerun_min_is_rejected() {
        rejected("params.freerun_min = \"0s\"\n", "", "params.freerun_min");
        rejected(
            "params.freerun_min = \"0s\"\nparams.freerun_max = \"0s\"\n",
            "",
            "params.freerun_min",
        );
    }

    #[test]
    fn zero_polling_period_is_rejected() {
        rejected("cost.polling_period = \"0s\"\n", "", "cost.polling_period");
    }

    #[test]
    fn zero_ring_is_rejected() {
        rejected("[[device]]\nring = 0\n", "", "ring must be at least 1");
    }

    #[test]
    fn oversized_working_set_is_rejected() {
        let e = parse_size("99999999999999999999GB").unwrap_err();
        assert!(e.0.contains("overflows"), "{e}");
        let e = rejected(
            "",
            "working_set = \"99999999999999999999GB\"\n",
            "working_set",
        );
        assert!(e.0.contains("99999999999999999999GB"), "{e}");
        // The largest sizes that fit still load.
        assert_eq!(parse_size("16777215GB").unwrap(), 16_777_215 << 30);
    }

    #[test]
    fn label_arrays_may_contain_all() {
        let text = "horizon = \"10ms\"\ndevices = 2\nplacement = [\"pinned:1\", \"all\"]\n\
                    rebalance = [\"all\"]\nschedulers = [\"paper\", \"engaged-drr\"]\n\
                    faults = [\"all\"]\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(text, "x").unwrap();
        let mut placements = vec![PlacementKind::Pinned(1)];
        placements.extend(PlacementKind::ALL);
        assert_eq!(spec.placements, placements);
        assert_eq!(spec.rebalances, RebalanceKind::ALL.to_vec());
        let mut schedulers = SchedulerKind::PAPER.to_vec();
        schedulers.push(SchedulerKind::EngagedDrr);
        assert_eq!(spec.schedulers, schedulers);
        assert_eq!(
            spec.fault_modes,
            vec![FaultMode::All],
            "faults \"all\" is one mode"
        );
        // A single-label key takes no group name.
        rejected(
            "fleet_rebalance = \"all\"\n",
            "",
            "unknown fleet rebalance policy",
        );
    }
}
