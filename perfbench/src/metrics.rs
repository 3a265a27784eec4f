//! Metric definitions (name, unit, direction) and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::SchedulerKind;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The `BENCHMARK.json` label.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Sizes of the synthetic device-load slices the placement probe uses.
pub const PLACEMENT_DEVICES: [usize; 2] = [4, 64];

/// The end-to-end metrics, printed by an untraced run (`--trace 0`).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower),
        def("wall_s", "s", Lower),
        def("sim_events_per_s", "1/s", Higher),
        def("peak_rss_bytes", "bytes", Lower),
    ]
}

/// The per-layer metrics, printed by a traced run (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut d = vec![
        def("toml.load_s", "s", Lower),
        def("spec.validate_s", "s", Lower),
        def("sweep.plan_s", "s", Lower),
        def("sweep.run_s", "s", Lower),
        def("sweep.overhead_s", "s", Lower),
        def("sweep.worker_busy_frac", "ratio", Higher),
        def("sweep.threads1_over_serial", "ratio", Lower),
        def("driver.cell_ms.p50", "ms", Lower),
        def("driver.cell_ms.p95", "ms", Lower),
        def("driver.world_build_us", "us", Lower),
        def("driver.summarize_us", "us", Lower),
    ];
    for k in SchedulerKind::ALL {
        d.push(def(
            format!("sched.{}.ns_per_event", k.label()),
            "ns",
            Lower,
        ));
    }
    d.extend([
        def("sched.denials", "count", Lower),
        def("sched.sampling_windows", "count", Lower),
        def("sched.preemptions", "count", Lower),
        def("sched.kills", "count", Lower),
        def("world.events", "count", Lower),
        def("world.ns_per_event", "ns", Lower),
        def("world.events_per_request", "ratio", Lower),
        def("world.polls", "count", Lower),
        def("gpu.direct_submits", "count", Higher),
        def("event.mix_ns_per_op.shallow", "ns", Lower),
        def("event.mix_ns_per_op.deep", "ns", Lower),
    ]);
    for k in PlacementKind::ALL {
        for n in PLACEMENT_DEVICES {
            d.push(def(format!("placement.{k}.place_ns.{n}dev"), "ns", Lower));
        }
    }
    d.push(def("placement.rejected", "count", Lower));
    for k in RebalanceKind::ALL {
        d.push(def(format!("rebalance.{k}.ns_per_event"), "ns", Lower));
    }
    d.extend([
        def("rebalance.accepted", "count", Higher),
        def("rebalance.vetoed", "count", Lower),
        def("rebalance.cooled_down", "count", Lower),
        def("rebalance.accept_ratio", "ratio", Higher),
        def("fault.all_over_none", "ratio", Lower),
        def("fault.injected", "count", Lower),
        def("fault.watchdog_kills", "count", Lower),
        def("fault.recovered", "count", Higher),
        def("fault.lost", "count", Lower),
        def("fault.recovery_ratio", "ratio", Higher),
        def("fleet.ns_per_event", "ns", Lower),
        def("fleet.cross_host_migrations", "count", Lower),
        def("fleet.rejected", "count", Lower),
        def("fleet.host_failures", "count", Lower),
        def("telemetry.trace_on_over_off", "ratio", Lower),
        def("metrics.streaming_over_exact", "ratio", Lower),
        def("emit.to_json_s", "s", Lower),
        def("emit.to_csv_s", "s", Lower),
        def("emit.bytes", "bytes", Lower),
        def("bench.trace_overhead_frac", "ratio", Lower),
    ]);
    d
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every defined metric, in definition order. Fails if a
/// defined metric has no value, a value is not finite, or a value has
/// no definition.
pub fn result_line(
    defs: &[MetricDef],
    values: &BTreeMap<String, f64>,
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    if let Some(stray) = values.keys().find(|k| !defs.iter().any(|d| &d.name == *k)) {
        return Err(format!("metric {stray} has no definition"));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(&d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(line)
}
