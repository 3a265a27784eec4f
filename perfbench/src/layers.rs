//! Per-layer metrics of the traced run.
//!
//! Every number is taken from outside the program, by timing calls
//! into a layer's public functions or by reading the counters its
//! reports already carry. Three sources feed them:
//!
//! - the workload's own passes and set-ups (`toml.*`, `spec.*`,
//!   `sweep.*`, `emit.*`, `bench.trace_overhead_frac`);
//! - cell passes, interleaved with the traced run's passes, which call
//!   `CellRunner::run` on every cell of the workload, one span per
//!   call; each cell's fastest call counts (`driver.cell_ms.*`,
//!   `driver.summarize_us`, `world.ns_per_event` and the per-policy
//!   host ns per event), plus the counters of the reference pass;
//! - fixed probes that are the same on every workload: the event-queue
//!   mix, the placement calls, the `--threads 1` and trace-on ratios
//!   on a churn subset, the streaming-vs-exact ratio on a shortened
//!   long-horizon cell, and a probe cell set that holds every
//!   scheduler, rebalance policy, a faulty pair and a fleet cell.
//!   A per-policy ns/event, `fault.all_over_none` or
//!   `fleet.ns_per_event` comes from the workload's own cells when it
//!   has any of that kind, and from the probe cell set otherwise.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use neon_core::fault::FaultMode;
use neon_core::placement::{DeviceLoad, PlacementKind};
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::SchedulerKind;
use neon_core::telemetry::{MetricsMode, StatKey};
use neon_gpu::DeviceId;
use neon_scenario::sweep::{self, SweepCell, SweepOutcome};
use neon_scenario::{run_cell, CellRunner, ScenarioSpec};
use neon_sim::{DetRng, EventQueue, SimDuration};

use crate::check::{cell_events, host_reports};
use crate::metrics::PLACEMENT_DEVICES;
use crate::pass::run_on;
use crate::spans::{timed, Spans};
use crate::stats::{fastest, median, percentile};
use crate::workload::{cell_seeds, load_shape};

/// Alternating pairs behind each ratio probe.
const RATIO_PAIRS: usize = 10;
/// Alternating pairs behind `metrics.streaming_over_exact`.
const STREAMING_PAIRS: usize = 5;
/// Rounds of fresh-vs-recycled calls per probe cell.
const WORLD_BUILD_ROUNDS: usize = 3;
/// Timed operations per event-queue depth.
const EVENT_OPS: usize = 1 << 17;
/// `Placement::place` calls per policy and slice size.
const PLACE_CALLS: usize = 20_000;
/// Cell passes over the probe cell set; each cell's fastest counts.
const PROBE_CELL_PASSES: usize = 3;
/// Repeats of each micro-probe; the median is reported.
const MICRO_REPEATS: usize = 5;

/// Host timing of one `CellRunner::run` call in a cell pass.
#[derive(Debug, Clone, Copy)]
pub struct CellTiming {
    /// Host time of the call.
    call: Duration,
    /// The cell's own `CellSummary::elapsed`.
    elapsed: Duration,
    /// Simulated events over every host.
    events: u64,
}

/// Calls `CellRunner::run` on every cell in plan order on one runner,
/// one `driver.cell` span per call under a `cell_pass` span.
pub fn cell_pass(cells: &[SweepCell], spans: &mut Spans) -> Vec<CellTiming> {
    let mut runner = CellRunner::new();
    spans.enter("cell_pass");
    let timings = cells
        .iter()
        .map(|c| {
            spans.enter("driver.cell");
            let r = run_on(&mut runner, c);
            let call = spans.exit();
            CellTiming {
                call,
                elapsed: r.summary.elapsed,
                events: cell_events(&r),
            }
        })
        .collect();
    spans.exit();
    timings
}

/// Per cell, its fastest call over several cell passes.
fn fastest_calls(passes: &[Vec<CellTiming>]) -> Vec<CellTiming> {
    let mut best = passes.first().cloned().unwrap_or_default();
    for pass in passes.iter().skip(1) {
        for (b, t) in best.iter_mut().zip(pass) {
            if t.call < b.call {
                *b = *t;
            }
        }
    }
    best
}

/// Host ns per simulated event over the cells `pick` selects; `None`
/// when it selects none.
fn ns_per_event(
    cells: &[SweepCell],
    timings: &[CellTiming],
    pick: impl Fn(&SweepCell) -> bool,
) -> Option<f64> {
    let (ns, events) = cells
        .iter()
        .zip(timings)
        .filter(|(c, _)| pick(c))
        .fold((0.0, 0u64), |(ns, ev), (_, t)| {
            (ns + t.call.as_nanos() as f64, ev + t.events)
        });
    (events > 0).then(|| ns / events as f64)
}

/// The workload's value, or the probe cell set's when the workload has
/// no cell of that kind.
fn own_or_probe(
    own: (&[SweepCell], &[CellTiming]),
    probe: (&[SweepCell], &[CellTiming]),
    pick: impl Fn(&SweepCell) -> bool,
) -> Result<f64, String> {
    ns_per_event(own.0, own.1, &pick)
        .or_else(|| ns_per_event(probe.0, probe.1, &pick))
        .ok_or_else(|| "the probe cell set lacks a cell kind".to_string())
}

/// Host ns/event of fault-all cells over their fault-free twins.
fn fault_ratio(cells: &[SweepCell], timings: &[CellTiming]) -> Option<f64> {
    let paired = |c: &SweepCell| {
        let modes = c.spec.effective_fault_modes();
        modes.contains(&FaultMode::None) && modes.contains(&FaultMode::All)
    };
    let all = ns_per_event(cells, timings, |c| paired(c) && c.faults == FaultMode::All)?;
    let none = ns_per_event(cells, timings, |c| paired(c) && c.faults == FaultMode::None)?;
    Some(all / none)
}

/// Loads a shape, gives it `seeds` cell seeds, lets `tweak` narrow its
/// axes, validates and plans it.
fn probe_plan(
    file: &str,
    seeds: Vec<u64>,
    tweak: impl FnOnce(&mut ScenarioSpec),
) -> Result<Vec<SweepCell>, String> {
    let mut spec = load_shape(file)?;
    spec.seeds = seeds;
    tweak(&mut spec);
    spec.validate().map_err(|e| format!("{file}: {e}"))?;
    Ok(sweep::plan([spec]))
}

/// The probe cell set: every scheduler on the churn shape, every
/// rebalance policy on the heterogeneous host, a fault-free/faulty
/// pair, and one fleet cell.
fn probe_cells(seed: u64) -> Result<Vec<SweepCell>, String> {
    let one = cell_seeds(seed, 1);
    let mut cells = probe_plan("churn.toml", one.clone(), |_| {})?;
    cells.extend(probe_plan("hetero_gpu.toml", one.clone(), |s| {
        s.schedulers = vec![SchedulerKind::DisengagedFairQueueing];
        s.placements = vec![PlacementKind::LeastLoaded];
        s.rebalances = RebalanceKind::ALL.to_vec();
    })?);
    cells.extend(probe_plan("faulty_rack.toml", one.clone(), |s| {
        s.schedulers = vec![SchedulerKind::DisengagedFairQueueing];
    })?);
    cells.extend(probe_plan("fleet_rack.toml", one, |s| {
        s.fleet_placements.truncate(1);
    })?);
    Ok(cells)
}

/// Median of `a` over median of `b`, sampled in alternating order.
fn ratio_of_medians(
    pairs: usize,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> f64 {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        if i % 2 == 0 {
            ta.push(a().as_secs_f64());
            tb.push(b().as_secs_f64());
        } else {
            tb.push(b().as_secs_f64());
            ta.push(a().as_secs_f64());
        }
    }
    median(&ta) / median(&tb)
}

/// Host time of one call.
fn clock<T>(f: impl FnOnce() -> T) -> Duration {
    let started = Instant::now();
    black_box(f());
    started.elapsed()
}

enum Op {
    Schedule(u64),
    Cancel(usize),
    Pop,
}

/// Host ns per `EventQueue` operation in a seeded 60/20/20
/// schedule/cancel/pop mix with about `depth` events pending. Ops run
/// in timed blocks of 32; between blocks the queue is brought back to
/// `depth` untimed. Cancels pick a random issued token, which may
/// already have fired, as in the simulator.
fn event_mix_ns(depth: usize, seed: u64) -> f64 {
    const BLOCK: usize = 32;
    const SPREAD_NS: u64 = 10_000_000;
    let mut rng = DetRng::seed_from(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut tokens: Vec<u64> = Vec::with_capacity(4 * depth + 64);
    let mut plan: Vec<Op> = Vec::with_capacity(BLOCK);
    let mut spent = Duration::ZERO;
    for _ in 0..EVENT_OPS / BLOCK {
        while q.len() > depth {
            q.pop();
        }
        while q.len() < depth {
            let dt = rng.raw() % SPREAD_NS;
            tokens.push(q.schedule(q.now() + SimDuration::from_nanos(dt), dt));
        }
        if tokens.len() > 4 * depth + 64 {
            tokens.drain(..tokens.len() - 2 * depth);
        }
        plan.clear();
        for _ in 0..BLOCK {
            plan.push(match rng.index(10) {
                0..=5 => Op::Schedule(rng.raw() % SPREAD_NS),
                6 | 7 => Op::Cancel(rng.index(usize::MAX)),
                _ => Op::Pop,
            });
        }
        let started = Instant::now();
        for op in &plan {
            match *op {
                Op::Schedule(dt) => {
                    tokens.push(q.schedule(q.now() + SimDuration::from_nanos(dt), dt));
                }
                Op::Cancel(i) => {
                    if !tokens.is_empty() {
                        let token = tokens.swap_remove(i % tokens.len());
                        black_box(q.cancel(token));
                    }
                }
                Op::Pop => {
                    black_box(q.pop());
                }
            }
        }
        spent += started.elapsed();
    }
    spent.as_nanos() as f64 / EVENT_OPS as f64
}

/// Host ns per `Placement::place` call on 16 seeded synthetic
/// `DeviceLoad` slices of `devices` devices, placing a 2-channel task.
fn place_ns(kind: PlacementKind, devices: usize, seed: u64) -> f64 {
    const SLICES: usize = 16;
    let mut rng = DetRng::seed_from(seed ^ devices as u64);
    let slices: Vec<Vec<DeviceLoad>> = (0..SLICES)
        .map(|_| {
            (0..devices)
                .map(|d| DeviceLoad {
                    device: DeviceId::from_index(d),
                    tenants: rng.index(9),
                    free_contexts: rng.index(48),
                    free_channels: rng.index(96),
                    queued_requests: rng.index(32),
                    busy: SimDuration::from_micros(rng.raw() % 1_000_000),
                    completed: rng.raw() % 10_000,
                    host_distance: u32::try_from(1 + rng.index(4)).unwrap_or(1),
                    staging_cost: SimDuration::from_micros(rng.raw() % 5_000),
                })
                .collect()
        })
        .collect();
    let mut policy = kind.build();
    let started = Instant::now();
    for i in 0..PLACE_CALLS {
        black_box(policy.place(black_box(&slices[i % SLICES]), 2));
    }
    started.elapsed().as_nanos() as f64 / PLACE_CALLS as f64
}

/// What the traced run hands over for the per-layer metrics.
pub struct Traced<'a> {
    /// Run seed.
    pub seed: u64,
    /// Worker threads of the workload's closed loop.
    pub threads: usize,
    /// The workload's plan.
    pub cells: &'a [SweepCell],
    /// The reference pass's results, for counts.
    pub reference: &'a SweepOutcome,
    /// Per-set-up host seconds of `toml_file`, `validate` and `plan`.
    pub setup: [Vec<f64>; 3],
    /// Wall seconds of untraced and of traced passes.
    pub walls: (Vec<f64>, Vec<f64>),
    /// Cell passes interleaved with the passes.
    pub cell_passes: Vec<Vec<CellTiming>>,
    /// Bytes of JSON plus CSV one pass renders.
    pub bytes: usize,
}

/// Every per-layer metric by name.
pub fn per_layer(t: &Traced, spans: &mut Spans) -> Result<BTreeMap<String, f64>, String> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let [load, validate, plan] = &t.setup;
    put("toml.load_s", fastest(load));
    put("spec.validate_s", fastest(validate));
    put("sweep.plan_s", fastest(plan));

    // Traced passes: spans around the sweep and emit calls.
    let run_s = fastest(&spans.seconds("sweep.run"));
    put("sweep.run_s", run_s);
    put("emit.to_json_s", fastest(&spans.seconds("emit.to_json")));
    put("emit.to_csv_s", fastest(&spans.seconds("emit.to_csv")));
    put("emit.bytes", t.bytes as f64);
    put(
        "bench.trace_overhead_frac",
        fastest(&t.walls.1) / fastest(&t.walls.0) - 1.0,
    );

    // Cell passes over the workload's own cells.
    let own = fastest_calls(&t.cell_passes);
    let busy: f64 = own.iter().map(|c| c.call.as_secs_f64()).sum();
    let threads = t.threads as f64;
    put("sweep.overhead_s", run_s - busy / threads);
    put("sweep.worker_busy_frac", busy / (threads * run_s));
    let call_ms: Vec<f64> = own.iter().map(|c| c.call.as_secs_f64() * 1e3).collect();
    put("driver.cell_ms.p50", median(&call_ms));
    put("driver.cell_ms.p95", percentile(&call_ms, 95.0));
    let summarize_us: Vec<f64> = own
        .iter()
        .map(|c| (c.call.as_secs_f64() - c.elapsed.as_secs_f64()) * 1e6)
        .collect();
    put("driver.summarize_us", median(&summarize_us));
    let world_ns =
        ns_per_event(t.cells, &own, |_| true).ok_or("the workload simulated no events")?;
    put("world.ns_per_event", world_ns);

    // Probe cell set, for cell kinds the workload lacks.
    let probe = probe_cells(t.seed)?;
    let probed: Vec<_> = (0..PROBE_CELL_PASSES)
        .map(|_| cell_pass(&probe, spans))
        .collect();
    let probed = fastest_calls(&probed);
    let own = (t.cells, own.as_slice());
    let probe_set = (probe.as_slice(), probed.as_slice());
    for k in SchedulerKind::ALL {
        let v = own_or_probe(own, probe_set, |c| c.scheduler == k)?;
        put(&format!("sched.{}.ns_per_event", k.label()), v);
    }
    for k in RebalanceKind::ALL {
        let v = own_or_probe(own, probe_set, |c| c.rebalance == k)?;
        put(&format!("rebalance.{k}.ns_per_event"), v);
    }
    put(
        "fleet.ns_per_event",
        own_or_probe(own, probe_set, |c| c.spec.hosts > 1)?,
    );
    let faults = fault_ratio(own.0, own.1)
        .or_else(|| fault_ratio(probe_set.0, probe_set.1))
        .ok_or("the probe cell set lacks a faulty pair")?;
    put("fault.all_over_none", faults);

    // Counters of the reference pass, summed over every host.
    let results = &t.reference.results;
    let hosts = || results.iter().flat_map(host_reports);
    let stat = |k: StatKey| hosts().map(|h| h.stats.get(k)).sum::<u64>() as f64;
    let summed = |f: &dyn Fn(&neon_scenario::CellSummary) -> u64| {
        results.iter().map(|r| f(&r.summary)).sum::<u64>() as f64
    };
    let events: u64 = results.iter().map(cell_events).sum();
    let requests: u64 = hosts()
        .flat_map(|h| h.tasks.iter())
        .map(|task| task.completed_requests)
        .sum();
    put("world.events", events as f64);
    put(
        "world.events_per_request",
        events as f64 / requests.max(1) as f64,
    );
    put("world.polls", stat(StatKey::Polls));
    put("gpu.direct_submits", stat(StatKey::DirectSubmits));
    put("sched.denials", stat(StatKey::Denials));
    put(
        "sched.sampling_windows",
        stat(StatKey::SamplingWindowsOpened),
    );
    put("sched.preemptions", stat(StatKey::Preemptions));
    put("sched.kills", stat(StatKey::Kills));
    put("placement.rejected", stat(StatKey::RejectedAdmissions));
    let accepted = stat(StatKey::RebalanceAccepted);
    let vetoed = stat(StatKey::RebalanceVetoed);
    let cooled = stat(StatKey::RebalanceCooledDown);
    put("rebalance.accepted", accepted);
    put("rebalance.vetoed", vetoed);
    put("rebalance.cooled_down", cooled);
    put(
        "rebalance.accept_ratio",
        accepted / (accepted + vetoed + cooled).max(1.0),
    );
    let recovered = summed(&|s| s.recovered_tasks);
    let lost = summed(&|s| s.lost_tasks);
    put("fault.injected", summed(&|s| s.injected_faults));
    put("fault.watchdog_kills", summed(&|s| s.watchdog_kills));
    put("fault.recovered", recovered);
    put("fault.lost", lost);
    put(
        "fault.recovery_ratio",
        recovered / (recovered + lost).max(1.0),
    );
    put(
        "fleet.cross_host_migrations",
        summed(&|s| s.cross_host_migrations),
    );
    put("fleet.rejected", summed(&|s| s.fleet_rejected));
    put(
        "fleet.host_failures",
        results
            .iter()
            .filter_map(|r| r.fleet.as_ref())
            .map(|f| f.host_failures)
            .sum::<u64>() as f64,
    );

    // Fixed probes.
    let (ratios, _) = timed(Some(&mut *spans), "probe.ratios", || ratio_probes(t.seed));
    let (threads1, trace_on, streaming, world_build) = ratios?;
    put("sweep.threads1_over_serial", threads1);
    put("telemetry.trace_on_over_off", trace_on);
    put("metrics.streaming_over_exact", streaming);
    put("driver.world_build_us", world_build);
    let ((shallow, deep), _) = timed(Some(&mut *spans), "probe.event_queue", || {
        let repeat = |depth| {
            let runs: Vec<f64> = (0..MICRO_REPEATS as u64)
                .map(|r| event_mix_ns(depth, t.seed ^ r))
                .collect();
            median(&runs)
        };
        (repeat(16), repeat(65_536))
    });
    put("event.mix_ns_per_op.shallow", shallow);
    put("event.mix_ns_per_op.deep", deep);
    let (placed, _) = timed(Some(&mut *spans), "probe.placement", || {
        let mut out = Vec::new();
        for k in PlacementKind::ALL {
            for n in PLACEMENT_DEVICES {
                let runs: Vec<f64> = (0..MICRO_REPEATS).map(|_| place_ns(k, n, t.seed)).collect();
                out.push((format!("placement.{k}.place_ns.{n}dev"), median(&runs)));
            }
        }
        out
    });
    for (name, v) in placed {
        put(&name, v);
    }
    Ok(m)
}

/// `sweep.threads1_over_serial`, `telemetry.trace_on_over_off`,
/// `metrics.streaming_over_exact` and `driver.world_build_us`.
fn ratio_probes(seed: u64) -> Result<(f64, f64, f64, f64), String> {
    // The churn subset: every scheduler on two seeds.
    let subset = probe_plan("churn.toml", cell_seeds(seed, 2), |_| {})?;
    let threads1 = ratio_of_medians(
        RATIO_PAIRS,
        || clock(|| sweep::run_parallel(&subset, Some(1))),
        || clock(|| sweep::run_serial(&subset)),
    );
    let traced = probe_plan("churn.toml", cell_seeds(seed, 2), |s| {
        s.capture_trace = true
    })?;
    let trace_on = ratio_of_medians(
        RATIO_PAIRS,
        || clock(|| sweep::run_serial(&traced)),
        || clock(|| sweep::run_serial(&subset)),
    );
    let shortened = |mode: MetricsMode| {
        probe_plan("fleet_churn.toml", cell_seeds(seed, 1), |s| {
            s.horizon = SimDuration::from_secs(3);
            s.metrics = mode;
        })
    };
    let streaming = shortened(MetricsMode::Streaming)?;
    let exact = shortened(MetricsMode::Exact)?;
    let streaming_ratio = ratio_of_medians(
        STREAMING_PAIRS,
        || clock(|| sweep::run_serial(&streaming)),
        || clock(|| sweep::run_serial(&exact)),
    );
    // Fresh `run_cell` against a warm `CellRunner::run` on the same cell.
    let mut runner = CellRunner::new();
    if let Some(c) = subset.first() {
        run_on(&mut runner, c);
    }
    let mut diffs_us = Vec::new();
    for round in 0..WORLD_BUILD_ROUNDS {
        for c in &subset {
            let fresh = || {
                clock(|| {
                    run_cell(
                        &c.spec,
                        c.scheduler,
                        c.placement,
                        c.fleet_placement,
                        c.rebalance,
                        c.faults,
                        c.seed,
                    )
                })
            };
            let mut recycled = || clock(|| run_on(&mut runner, c));
            let (f, r) = if round % 2 == 0 {
                let f = fresh();
                (f, recycled())
            } else {
                let r = recycled();
                (fresh(), r)
            };
            diffs_us.push((f.as_secs_f64() - r.as_secs_f64()) * 1e6);
        }
    }
    Ok((threads1, trace_on, streaming_ratio, median(&diffs_us)))
}
