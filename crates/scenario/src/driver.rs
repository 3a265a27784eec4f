//! Executes one scenario cell: a (scenario, scheduler, placement,
//! fleet placement, rebalance, fault mode, seed) tuple.
//!
//! Every cell takes one path over its host list,
//! [`ScenarioSpec::host_device_counts`]:
//!
//! 1. **Build** one [`World`] per host with `host_world`. A
//!    single-host cell is the one-entry case: its world is the
//!    [`CellRunner`]'s recycled one, [`World::reset`] in place, and its
//!    topology and per-device params come from the spec. Fleet hosts
//!    are built fresh and wrapped in a [`Fleet`] behind cluster-level
//!    placement.
//! 2. **Stage** the tenant groups with `stage`, which expands each
//!    group into arrival instants and lifetimes (deterministically,
//!    from the cell's seed) and hands every member to its target: the
//!    `World` directly (pins allowed), or the `Fleet` as a migratable
//!    factory its rebalance policy can move across hosts.
//! 3. **Run** to the horizon and **summarize** the per-host
//!    [`RunReport`]s, plus the [`FleetReport`]'s cluster counters when
//!    there is a fleet, into a [`CellSummary`] for tables and JSON.
//!
//! A single host never wraps its world in a 1-host `Fleet`: the
//! recycled world would be lost, every member would pay a boxed
//! factory, and the cell would report a fleet it never needed.
//!
//! Arrival and lifetime draws depend only on (seed, group index,
//! member index) — never on the scheduler, placement policy, or host
//! count — so every policy in a sweep faces exactly the same churn.

use std::time::Instant;

use neon_core::fault::FaultMode;
use neon_core::fleet::{Fleet, FleetPlacementKind, FleetReport, WorkloadFactory};
use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::report::round_distribution;
use neon_core::sched::SchedulerKind;
use neon_core::workload::BoxedWorkload;
use neon_core::world::{World, WorldConfig};
use neon_core::RunReport;
use neon_gpu::{DeviceId, GpuConfig};
use neon_metrics::jain_index;
use neon_sim::{DetRng, SimDuration, SimTime};

/// A field of `/proc/self/status`, parsed as bytes.
#[cfg(target_os = "linux")]
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident-set size of *this process* in bytes (Linux `VmHWM`),
/// `None` where unavailable. A process-wide high-water mark: on a
/// sweep it is monotone across cells, so per-cell values show which
/// cell first pushed the peak, not independent footprints. For
/// comparable per-row figures use [`current_rss_bytes`].
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmHWM:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Current resident-set size of *this process* in bytes (Linux
/// `VmRSS`), `None` where unavailable. An instantaneous sample, not a
/// high-water mark: sampling it after each sweep in a series yields
/// per-row figures that are independently comparable instead of each
/// inheriting every earlier row's peak.
pub fn current_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmRSS:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

use crate::spec::{ArrivalSpec, LifetimeSpec, ScenarioSpec, TenantGroup};

/// Per-device slice of a [`CellSummary`].
#[derive(Debug, Clone)]
pub struct DeviceSummary {
    /// The device.
    pub device: DeviceId,
    /// Compute-engine utilization of this device over the horizon.
    pub utilization: f64,
    /// Admissions this device refused.
    pub rejected: u64,
    /// Live tenants on the device at the horizon.
    pub tenants: usize,
    /// Tasks migrated onto this device by rebalancing.
    pub migrations_in: u64,
    /// Tasks rebalancing moved off this device.
    pub migrations_out: u64,
    /// Working-set movement charged on this device (staging onto it
    /// plus migration transfers landing here).
    pub transfer_stall: SimDuration,
}

/// Per-host slice of a fleet cell's [`CellSummary`].
#[derive(Debug, Clone)]
pub struct HostSummary {
    /// Host index within the fleet.
    pub host: usize,
    /// Devices this host exposes.
    pub devices: usize,
    /// Mean compute utilization across the host's devices.
    pub utilization: f64,
    /// Tasks this host admitted over the run.
    pub admitted: usize,
    /// Admissions the host's own (ground-truth) control refused.
    pub rejected: u64,
    /// Rounds completed on this host.
    pub rounds: u64,
}

/// Condensed outcome of one cell, cheap to tabulate and serialize.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Scenario name.
    pub scenario: String,
    /// Policy under test.
    pub scheduler: SchedulerKind,
    /// Placement policy under test.
    pub placement: PlacementKind,
    /// Fleet placement policy under test (a pure label on single-host
    /// cells, where no cluster decision exists).
    pub fleet_placement: FleetPlacementKind,
    /// Rebalancing policy under test.
    pub rebalance: RebalanceKind,
    /// Which categories of the scenario's fault schedule this cell
    /// injected ([`FaultMode::None`] on fault-free cells).
    pub faults_mode: FaultMode,
    /// Cell seed.
    pub seed: u64,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Devices in the cell's world (summed across hosts on fleet
    /// cells).
    pub devices: usize,
    /// Hosts in the cell (1 = one bare world, the legacy path).
    pub hosts: usize,
    /// Tasks admitted over the run (including those that departed).
    pub admitted: usize,
    /// Arrivals turned away because the device was exhausted.
    pub rejected: u64,
    /// Tasks that left gracefully (scheduled departure or finished
    /// workload) before the horizon.
    pub departed: usize,
    /// Tasks killed by the policy (over-long requests).
    pub killed: usize,
    /// Rounds completed across all tasks.
    pub total_rounds: u64,
    /// Requests completed across all tasks.
    pub completed_requests: u64,
    /// Interceptions (page faults) taken.
    pub faults: u64,
    /// Unintercepted submissions.
    pub direct_submits: u64,
    /// Compute-engine utilization over the horizon (mean across
    /// devices).
    pub utilization: f64,
    /// Jain fairness index over per-task device usage normalized by
    /// presence time (tasks present under 5 % of the horizon are
    /// excluded as noise). 1.0 = perfectly equal shares.
    pub fairness: f64,
    /// Median completed-round time across all tasks.
    pub round_p50: SimDuration,
    /// 95th-percentile round time.
    pub round_p95: SimDuration,
    /// 99th-percentile round time.
    pub round_p99: SimDuration,
    /// Tasks migrated between devices by rebalancing.
    pub migrations: u64,
    /// Total simulated time tasks spent stalled on working-set
    /// movement (admission staging + migration transfers); zero on
    /// flat topologies.
    pub transfer_stall: SimDuration,
    /// Tenants the fleet moved between hosts (0 on single-host cells).
    pub cross_host_migrations: u64,
    /// Simulated time spent in cross-host working-set transfers.
    pub cluster_transfer_stall: SimDuration,
    /// Arrivals rejected at the cluster boundary (no host's capacity
    /// ledger had room); host-level rejections stay in
    /// [`CellSummary::rejected`]'s total.
    pub fleet_rejected: u64,
    /// Fault events injected (world-level, plus host failures on fleet
    /// cells).
    pub injected_faults: u64,
    /// Watchdog kill-and-requeues.
    pub watchdog_kills: u64,
    /// Recovery retries scheduled (watchdog requeues, transient
    /// submission-error retries, park retries).
    pub fault_retries: u64,
    /// Tasks recovered from faults (drain-migrated, re-staged, or
    /// re-admitted cross-host).
    pub recovered_tasks: u64,
    /// Tasks lost to faults (crashes, exhausted retry budgets,
    /// unplaceable host-failure victims).
    pub lost_tasks: u64,
    /// Device hot-remove events injected.
    pub hot_removes: u64,
    /// Degraded-capacity time: device-offline spans summed across
    /// devices (plus host outages on fleet cells).
    pub degraded: SimDuration,
    /// Per-device utilization/rejection breakdown, in device order
    /// (hosts concatenated in host order on fleet cells).
    pub per_device: Vec<DeviceSummary>,
    /// Per-host breakdown, in host order; empty on single-host cells.
    pub per_host: Vec<HostSummary>,
    /// Host wall-clock time this cell took to simulate.
    pub elapsed: std::time::Duration,
    /// Process peak RSS in bytes when this cell finished (see
    /// [`peak_rss_bytes`]); `None` off Linux.
    pub peak_rss_bytes: Option<u64>,
}

/// Full outcome of one cell: the summary plus the raw report for
/// harnesses that need per-task details.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Condensed outcome.
    pub summary: CellSummary,
    /// The raw simulation report. On fleet cells (`hosts > 1`) this is
    /// host 0's report; the full picture is in [`CellResult::fleet`].
    pub report: RunReport,
    /// The cell's event trace rendered as JSON Lines, when the spec
    /// asked for capture ([`ScenarioSpec::capture_trace`] /
    /// `neon run --trace-out`). `None` otherwise (traces are per-world,
    /// so fleet cells don't capture one).
    pub trace_jsonl: Option<String>,
    /// The whole-fleet outcome when the cell ran a multi-host fleet;
    /// `None` on the single-host path.
    pub fleet: Option<FleetReport>,
}

impl CellResult {
    /// Simulated events of the cell, summed over every host (a fleet
    /// cell's [`CellResult::report`] is host 0's alone).
    pub fn events(&self) -> u64 {
        self.fleet.as_ref().map_or(self.report.events, |f| {
            f.hosts.iter().map(|h| h.events).sum()
        })
    }
}

/// A uniform draw in `(0, 1]`, for inverse-transform sampling.
fn unit_open(rng: &mut DetRng) -> f64 {
    let u = (rng.raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (1.0 - u).max(f64::MIN_POSITIVE)
}

/// An exponential draw with the given mean.
fn exponential(rng: &mut DetRng, mean: SimDuration) -> SimDuration {
    SimDuration::from_micros_f64(-unit_open(rng).ln() * mean.as_micros_f64())
}

/// Expands a group's arrival process into one instant per member.
fn arrival_times(group: &TenantGroup, rng: &mut DetRng) -> Vec<SimTime> {
    match &group.arrival {
        ArrivalSpec::AtStart => vec![SimTime::ZERO; group.count as usize],
        ArrivalSpec::Staggered { gap } => (0..group.count)
            .map(|i| SimTime::ZERO + *gap * i as u64)
            .collect(),
        ArrivalSpec::At { times } => times.iter().map(|&t| SimTime::ZERO + t).collect(),
        ArrivalSpec::Poisson { rate_hz, start } => {
            let mean = SimDuration::from_micros_f64(1e6 / rate_hz);
            let mut at = SimTime::ZERO + *start;
            (0..group.count)
                .map(|_| {
                    at += exponential(rng, mean);
                    at
                })
                .collect()
        }
    }
}

/// Draws a member's stay; `None` means it runs to workload completion
/// or the horizon.
fn lifetime(group: &TenantGroup, rng: &mut DetRng) -> Option<SimDuration> {
    match &group.lifetime {
        LifetimeSpec::Forever => None,
        LifetimeSpec::Fixed(d) => Some(*d),
        LifetimeSpec::Exponential { mean } => Some(exponential(rng, *mean)),
    }
}

/// Nearest-rank percentile of a sorted sample (`q` in percent). The
/// summary path goes through [`round_distribution`]; this stays as the
/// tests' independent oracle.
#[cfg(test)]
fn percentile(sorted: &[SimDuration], q: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The six sweep-axis values of one cell, travelling together.
#[derive(Debug, Clone, Copy)]
struct Axes {
    scheduler: SchedulerKind,
    placement: PlacementKind,
    fleet_placement: FleetPlacementKind,
    rebalance: RebalanceKind,
    faults: FaultMode,
    seed: u64,
}

/// Builds one host's world with `devices` devices for `cell`, or
/// resets `recycled` into it (the same world either way). The world
/// takes the cell's fault plan, which is `None` when the mode (or the
/// scenario) injects nothing, keeping fault-free cells on the exact
/// pre-fault code path.
fn host_world(spec: &ScenarioSpec, cell: Axes, devices: usize, recycled: Option<World>) -> World {
    let topology = spec.topology(devices);
    let device_params = spec.device_params(devices);
    let config = WorldConfig {
        faults: (cell.faults != FaultMode::None)
            .then(|| spec.fault_plan().filtered(cell.faults).world_plan()),
        devices: if topology.is_none() && devices > 1 {
            vec![GpuConfig::default(); devices]
        } else {
            Vec::new()
        },
        topology,
        cost: spec.cost.clone().unwrap_or_default(),
        params: spec.params.clone().unwrap_or_default(),
        device_params: device_params.clone(),
        rebalance: cell.rebalance,
        seed: cell.seed,
        record_requests: spec.record_requests,
        metrics: spec.metrics,
        sample_every: spec.sample_every,
        ..WorldConfig::default()
    };
    // The per-device scheduler: the sweep axis policy, or the spec's
    // custom factory when one is installed.
    let scheduler = |dev: DeviceId| {
        let params = device_params[dev.index()].clone();
        match spec.custom_scheduler {
            Some(factory) => factory.build(params),
            None => cell.scheduler.build(params),
        }
    };
    match recycled {
        Some(mut world) => {
            world.reset(config, cell.placement.build(), scheduler);
            world
        }
        None => World::with_devices(config, cell.placement.build(), scheduler),
    }
}

/// One tenant-group member's workload.
fn member(group: &TenantGroup) -> BoxedWorkload {
    group
        .build_member()
        // lint: allow(unchecked-unwrap) — spec.validate() ran before any
        // workload build on this path
        .expect("validated spec workloads must build")
}

/// Where the staging loop hands each member.
trait Stage {
    /// Admits a member present from time zero; `false` if refused.
    fn admit(&mut self, group: &TenantGroup) -> bool;
    /// Schedules a member's arrival at `at`, departing `stay` after
    /// admission (`None`: at workload completion or the horizon).
    fn spawn(&mut self, group: &TenantGroup, at: SimTime, stay: Option<SimDuration>);
}

/// A single host: members go straight onto the world, honoring pins.
impl Stage for World {
    fn admit(&mut self, group: &TenantGroup) -> bool {
        match group.device {
            Some(d) => self.add_task_pinned(member(group), DeviceId::new(d)),
            None => self.add_task(member(group)),
        }
        .is_ok()
    }

    fn spawn(&mut self, group: &TenantGroup, at: SimTime, stay: Option<SimDuration>) {
        let workload = member(group);
        match (stay, group.device.map(DeviceId::new)) {
            (Some(stay), Some(d)) => self.spawn_task_for_on(at, workload, stay, d),
            (Some(stay), None) => self.spawn_task_for(at, workload, stay),
            (None, Some(d)) => self.spawn_task_at_on(at, workload, d),
            (None, None) => self.spawn_task_at(at, workload),
        }
    }
}

/// A fleet (validation rules out pins): scheduled arrivals are staged
/// migratable, as a factory rebuilding the member's workload, so the
/// fleet rebalance policy can move them across hosts.
impl Stage for Fleet {
    fn admit(&mut self, group: &TenantGroup) -> bool {
        self.add_task(member(group)).is_ok()
    }

    fn spawn(&mut self, group: &TenantGroup, at: SimTime, stay: Option<SimDuration>) {
        let group = group.clone();
        let factory: WorkloadFactory = Box::new(move || member(&group));
        match stay {
            Some(stay) => self.spawn_migratable_for(at, factory, stay),
            None => self.spawn_migratable_at(at, factory),
        }
    }
}

/// Stages the spec's tenant groups on `target`. Returns the count of
/// closed-loop members turned away before the run started.
fn stage(target: &mut impl Stage, spec: &ScenarioSpec, seed: u64) -> u64 {
    let mut prerun_rejected = 0u64;
    let mut root = DetRng::seed_from(seed ^ 0x5CEA_7A11);
    for (gi, group) in spec.groups.iter().enumerate() {
        let mut rng = root.fork(gi as u64 + 1);
        for at in arrival_times(group, &mut rng) {
            let stay = lifetime(group, &mut rng);
            if at == SimTime::ZERO && stay.is_none() {
                // Closed-loop members present from the start take the
                // classic admission path (staggered first steps), so a
                // purely static scenario reproduces the legacy
                // harnesses byte for byte.
                if !target.admit(group) {
                    prerun_rejected += 1;
                }
            } else {
                target.spawn(group, at, stay);
            }
        }
    }
    prerun_rejected
}

/// Runs one (scenario, scheduler, placement, fleet placement,
/// rebalance, fault mode, seed) cell to its horizon on fresh worlds.
///
/// This is the reference path; sweep workers keep one [`CellRunner`],
/// which recycles its world across cells and is proven equivalent by
/// the runner-equivalence tests.
///
/// # Panics
///
/// Panics if the spec is invalid; call [`ScenarioSpec::validate`]
/// first when the spec comes from user input.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    spec: &ScenarioSpec,
    scheduler: SchedulerKind,
    placement: PlacementKind,
    fleet_placement: FleetPlacementKind,
    rebalance: RebalanceKind,
    faults: FaultMode,
    seed: u64,
) -> CellResult {
    CellRunner::new().run(
        spec,
        scheduler,
        placement,
        fleet_placement,
        rebalance,
        faults,
        seed,
    )
}

/// A reusable cell executor: builds one [`World`] on first use and
/// [`World::reset`]s it for every later single-host cell, so a sweep
/// worker pays world construction (event-queue slab, trace ring, task
/// table) once instead of per cell. Results are byte-identical to
/// [`run_cell`] — pinned by the runner-equivalence and world-reuse
/// tests.
#[derive(Default)]
pub struct CellRunner {
    world: Option<World>,
}

impl CellRunner {
    /// A runner with no world yet; the first cell builds it.
    pub fn new() -> Self {
        CellRunner::default()
    }

    /// Runs one cell. A single host runs this runner's recycled world;
    /// fleet cells (`hosts > 1`) build their hosts fresh each time — a
    /// `Fleet` runs once by design — leaving the recycled world
    /// untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        spec: &ScenarioSpec,
        scheduler: SchedulerKind,
        placement: PlacementKind,
        fleet_placement: FleetPlacementKind,
        rebalance: RebalanceKind,
        faults: FaultMode,
        seed: u64,
    ) -> CellResult {
        let cell = Axes {
            scheduler,
            placement,
            fleet_placement,
            rebalance,
            faults,
            seed,
        };
        let started = Instant::now();
        let hosts = spec.host_device_counts();
        let (report, fleet, prerun_rejected, traced) = match hosts[..] {
            [devices] => {
                let recycled = self.world.take();
                let world = self.world.insert(host_world(spec, cell, devices, recycled));
                if spec.capture_trace {
                    world.trace.set_enabled(true);
                }
                let prerun_rejected = stage(world, spec, seed);
                let report = world.run(spec.horizon);
                // Traces are per world, so only a single-host cell has one.
                let traced = spec.capture_trace.then_some(&*world);
                (report, None, prerun_rejected, traced)
            }
            _ => {
                let worlds = hosts
                    .iter()
                    .map(|&devices| host_world(spec, cell, devices, None))
                    .collect();
                let mut cluster = Fleet::new(
                    worlds,
                    fleet_placement.build(),
                    spec.fleet_rebalance.build(),
                    spec.cluster.clone().unwrap_or_default(),
                );
                if faults != FaultMode::None {
                    cluster.set_faults(spec.fault_plan().filtered(faults));
                }
                let prerun_rejected = stage(&mut cluster, spec, seed);
                let fleet = cluster.run(spec.horizon);
                (fleet.hosts[0].clone(), Some(fleet), prerun_rejected, None)
            }
        };
        let elapsed = started.elapsed();
        let trace_jsonl = traced.map(|world| world.trace.to_jsonl());
        let host_reports = match &fleet {
            Some(f) => &f.hosts[..],
            None => std::slice::from_ref(&report),
        };
        let summary = summarize(
            spec,
            cell,
            host_reports,
            fleet.as_ref(),
            prerun_rejected,
            elapsed,
        );
        CellResult {
            summary,
            report,
            trace_jsonl,
            fleet,
        }
    }
}

/// Condenses a cell's per-host reports — one on a single host — plus,
/// on a fleet, the cluster-level counters into its [`CellSummary`].
fn summarize(
    spec: &ScenarioSpec,
    cell: Axes,
    hosts: &[RunReport],
    fleet: Option<&FleetReport>,
    prerun_rejected: u64,
    elapsed: std::time::Duration,
) -> CellSummary {
    let tasks = || hosts.iter().flat_map(|h| &h.tasks);
    let sum = |f: fn(&RunReport) -> u64| hosts.iter().map(f).sum::<u64>();
    let sum_time = |f: fn(&RunReport) -> SimDuration| {
        hosts.iter().fold(SimDuration::ZERO, |acc, h| acc + f(h))
    };
    let cluster = |f: fn(&FleetReport) -> u64| fleet.map_or(0, f);
    let min_presence = spec.horizon / 20;
    let shares: Vec<f64> = tasks()
        .filter(|t| t.presence(spec.horizon) >= min_presence)
        .map(|t| {
            let presence = t.presence(spec.horizon);
            t.usage.as_micros_f64() / presence.as_micros_f64().max(1.0)
        })
        .collect();
    let fairness = if shares.is_empty() {
        1.0
    } else {
        jain_index(&shares)
    };
    // One interface for percentiles whatever the metrics mode: exact
    // vectors when present, merged per-task histograms otherwise.
    let rounds = round_distribution(tasks());
    CellSummary {
        scenario: spec.name.clone(),
        scheduler: cell.scheduler,
        placement: cell.placement,
        fleet_placement: cell.fleet_placement,
        rebalance: cell.rebalance,
        faults_mode: cell.faults,
        seed: cell.seed,
        horizon: spec.horizon,
        devices: spec.host_device_counts().iter().sum(),
        hosts: hosts.len(),
        admitted: tasks().count(),
        rejected: sum(|h| h.rejected_admissions) + cluster(|f| f.fleet_rejected) + prerun_rejected,
        departed: tasks()
            .filter(|t| t.finished_at.is_some() && !t.killed)
            .count(),
        killed: tasks().filter(|t| t.killed).count(),
        total_rounds: rounds.count(),
        completed_requests: tasks().map(|t| t.completed_requests).sum(),
        faults: sum(|h| h.faults),
        direct_submits: sum(|h| h.direct_submits),
        utilization: hosts.iter().map(RunReport::utilization).sum::<f64>() / hosts.len() as f64,
        fairness,
        round_p50: rounds.quantile(50.0),
        round_p95: rounds.quantile(95.0),
        round_p99: rounds.quantile(99.0),
        migrations: sum(|h| h.migrations),
        transfer_stall: sum_time(|h| h.transfer_stall),
        cross_host_migrations: cluster(|f| f.cross_host_migrations),
        cluster_transfer_stall: fleet.map_or(SimDuration::ZERO, |f| f.cluster_transfer_stall),
        fleet_rejected: cluster(|f| f.fleet_rejected),
        injected_faults: sum(|h| h.injected_faults) + cluster(|f| f.host_failures),
        watchdog_kills: sum(|h| h.watchdog_kills),
        fault_retries: sum(|h| h.fault_retries),
        recovered_tasks: sum(|h| h.recovered_tasks) + cluster(|f| f.fleet_fault_recovered),
        lost_tasks: sum(|h| h.lost_tasks) + cluster(|f| f.fleet_lost_tasks),
        hot_removes: sum(|h| h.hot_removes),
        degraded: sum_time(|h| h.degraded) + fleet.map_or(SimDuration::ZERO, |f| f.host_degraded),
        per_device: hosts
            .iter()
            .flat_map(|h| &h.devices)
            .map(|d| DeviceSummary {
                device: d.device,
                utilization: d.utilization(spec.horizon),
                rejected: d.rejected,
                tenants: d.tenants,
                migrations_in: d.migrations_in,
                migrations_out: d.migrations_out,
                transfer_stall: d.transfer_stall,
            })
            .collect(),
        // Host rows exist only on a fleet, so a single-host cell keeps
        // the CSV free of `host<i>_*` columns.
        per_host: match fleet {
            None => Vec::new(),
            Some(_) => hosts
                .iter()
                .enumerate()
                .map(|(i, h)| HostSummary {
                    host: i,
                    devices: h.devices.len(),
                    utilization: h.utilization(),
                    admitted: h.tasks.len(),
                    rejected: h.rejected_admissions,
                    rounds: h.round_distribution().count(),
                })
                .collect(),
        },
        elapsed,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{TenantGroup, WorkloadSpec};
    use neon_core::cost::SchedParams;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn churn_spec() -> ScenarioSpec {
        ScenarioSpec::new("unit", SimDuration::from_millis(120))
            .seeds(vec![7])
            .schedulers(vec![SchedulerKind::DisengagedFairQueueing])
            .group(
                TenantGroup::new(
                    "resident",
                    WorkloadSpec::FixedLoop {
                        service: us(80),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2),
            )
            .group(
                TenantGroup::new(
                    "churner",
                    WorkloadSpec::Throttle {
                        request: us(300),
                        off_ratio: 0.0,
                        jitter: 0.0,
                    },
                )
                .count(4)
                .arrival(ArrivalSpec::Poisson {
                    rate_hz: 100.0,
                    start: SimDuration::from_millis(5),
                })
                .lifetime(LifetimeSpec::Exponential {
                    mean: SimDuration::from_millis(25),
                }),
            )
    }

    #[test]
    fn poisson_arrivals_are_ordered_and_deterministic() {
        let group = TenantGroup::new(
            "g",
            WorkloadSpec::Throttle {
                request: us(100),
                off_ratio: 0.0,
                jitter: 0.0,
            },
        )
        .count(16)
        .arrival(ArrivalSpec::Poisson {
            rate_hz: 1000.0,
            start: SimDuration::from_millis(2),
        });
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(1);
        let ta = arrival_times(&group, &mut a);
        let tb = arrival_times(&group, &mut b);
        assert_eq!(ta, tb);
        assert!(ta.windows(2).all(|w| w[0] <= w[1]));
        assert!(ta[0] >= SimTime::ZERO + SimDuration::from_millis(2));
    }

    #[test]
    fn cell_runs_and_summarizes_churn() {
        let spec = churn_spec();
        let result = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        let s = &result.summary;
        assert!(s.admitted >= 2, "residents must be admitted");
        assert!(s.total_rounds > 100, "rounds: {}", s.total_rounds);
        assert!(s.utilization > 0.5, "utilization: {:.2}", s.utilization);
        assert!((0.0..=1.0).contains(&s.fairness));
        // At least one churner both arrived and departed mid-run.
        assert!(
            result
                .report
                .tasks
                .iter()
                .any(|t| t.arrived_at > SimTime::ZERO),
            "no mid-run arrival happened"
        );
    }

    #[test]
    fn cells_are_deterministic_per_seed() {
        let spec = churn_spec();
        let ll = PlacementKind::LeastLoaded;
        let a = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            ll,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        let b = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            ll,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        assert_eq!(a.summary.total_rounds, b.summary.total_rounds);
        assert_eq!(a.summary.faults, b.summary.faults);
        assert_eq!(a.report.compute_busy, b.report.compute_busy);
        let c = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            ll,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            8,
        );
        assert_ne!(
            (a.summary.total_rounds, a.summary.faults),
            (c.summary.total_rounds, c.summary.faults),
            "different seeds should perturb the run"
        );
    }

    #[test]
    fn static_scenarios_match_the_legacy_harness_path() {
        // A purely AtStart/Forever scenario must equal a hand-built
        // World with the same seed and workloads.
        let spec = ScenarioSpec::new("static", SimDuration::from_millis(60))
            .seeds(vec![42])
            .schedulers(vec![SchedulerKind::Direct])
            .group(
                TenantGroup::new(
                    "pair",
                    WorkloadSpec::FixedLoop {
                        service: us(50),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2),
            );
        let via_scenario = run_cell(
            &spec,
            SchedulerKind::Direct,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            42,
        );

        let config = WorldConfig {
            seed: 42,
            ..WorldConfig::default()
        };
        let mut world = World::new(config, SchedulerKind::Direct.build(SchedParams::default()));
        for _ in 0..2 {
            world
                .add_task(
                    WorkloadSpec::FixedLoop {
                        service: us(50),
                        gap: us(5),
                        rounds: None,
                    }
                    .build()
                    .unwrap(),
                )
                .unwrap();
        }
        let direct = world.run(SimDuration::from_millis(60));
        assert_eq!(via_scenario.report.compute_busy, direct.compute_busy);
        for (a, b) in via_scenario.report.tasks.iter().zip(&direct.tasks) {
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.usage, b.usage);
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<SimDuration> = (1..=100).map(SimDuration::from_micros).collect();
        assert_eq!(percentile(&sorted, 50.0), us(50));
        assert_eq!(percentile(&sorted, 95.0), us(95));
        assert_eq!(percentile(&sorted, 99.0), us(99));
        assert_eq!(percentile(&[], 50.0), SimDuration::ZERO);
        assert_eq!(percentile(&[us(7)], 99.0), us(7));
    }

    #[test]
    fn summary_carries_round_percentiles() {
        let spec = churn_spec();
        let r = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        let s = &r.summary;
        assert!(s.round_p50 > SimDuration::ZERO);
        assert!(s.round_p50 <= s.round_p95);
        assert!(s.round_p95 <= s.round_p99);
        // The p50 must actually be a completed round's duration.
        assert!(r
            .report
            .tasks
            .iter()
            .any(|t| t.rounds.contains(&s.round_p50)));
    }

    #[test]
    fn multi_device_cell_reports_per_device_columns() {
        let spec = ScenarioSpec::new("md", SimDuration::from_millis(60))
            .seeds(vec![3])
            .schedulers(vec![SchedulerKind::DisengagedFairQueueing])
            .devices(2)
            .group(
                TenantGroup::new(
                    "mix",
                    WorkloadSpec::FixedLoop {
                        service: us(100),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(4),
            );
        spec.validate().unwrap();
        for placement in PlacementKind::ALL {
            let r = run_cell(
                &spec,
                SchedulerKind::DisengagedFairQueueing,
                placement,
                FleetPlacementKind::LeastLoaded,
                RebalanceKind::Off,
                FaultMode::None,
                3,
            );
            let s = &r.summary;
            assert_eq!(s.devices, 2);
            assert_eq!(s.per_device.len(), 2);
            for d in &s.per_device {
                assert_eq!(d.tenants, 2, "{placement}: tasks must spread 2+2");
                assert!(d.utilization > 0.5, "{placement}: idle device");
                assert_eq!(d.rejected, 0);
            }
        }
    }

    #[test]
    fn pinned_groups_land_on_their_device_with_overridden_params() {
        let spec = ScenarioSpec::new("pin", SimDuration::from_millis(40))
            .seeds(vec![1])
            .schedulers(vec![SchedulerKind::DisengagedFairQueueing])
            .devices(2)
            .group(
                TenantGroup::new(
                    "left",
                    WorkloadSpec::FixedLoop {
                        service: us(100),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2)
                .device(0)
                .params(SchedParams {
                    sampling_requests: 96,
                    ..SchedParams::default()
                }),
            )
            .group(
                TenantGroup::new(
                    "right",
                    WorkloadSpec::FixedLoop {
                        service: us(100),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2)
                .device(1),
            );
        spec.validate().unwrap();
        let r = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            1,
        );
        for (i, t) in r.report.tasks.iter().enumerate() {
            let expected = if i < 2 { 0 } else { 1 };
            assert_eq!(t.device.raw(), expected, "task {i} pinned wrong");
        }
    }

    /// Everything a cell produces except its host-time fields.
    fn sim_row(r: &CellResult) -> String {
        let mut summary = r.summary.clone();
        summary.elapsed = std::time::Duration::ZERO;
        summary.peak_rss_bytes = None;
        format!(
            "{summary:?}\n{:?}\n{:?}\n{:?}",
            r.report, r.fleet, r.trace_jsonl
        )
    }

    #[test]
    fn a_recycled_runner_matches_fresh_cells_across_shapes() {
        let example = |text: &str| crate::toml::from_toml(text, "example").unwrap();
        let pinned = ScenarioSpec::new("pinned", SimDuration::from_millis(40))
            .devices(2)
            .group(
                TenantGroup::new(
                    "left",
                    WorkloadSpec::FixedLoop {
                        service: us(100),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2)
                .device(0)
                .params(SchedParams {
                    sampling_requests: 96,
                    ..SchedParams::default()
                }),
            )
            .group(
                TenantGroup::new(
                    "right",
                    WorkloadSpec::Throttle {
                        request: us(200),
                        off_ratio: 0.0,
                        jitter: 0.0,
                    },
                )
                .count(2)
                .device(1)
                .arrival(ArrivalSpec::Staggered {
                    gap: SimDuration::from_millis(3),
                }),
            );
        let hetero = example(include_str!("../../../examples/scenarios/hetero_gpu.toml"));
        let faulty = example(include_str!("../../../examples/scenarios/faulty_rack.toml"));
        let churn = churn_spec();
        let fleet = churn_spec().hosts(2);
        let (ll, off, none) = (
            PlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
        );
        // In order: one device, two devices with pins and per-group
        // params, a rebalancing topology, a fault schedule, a fleet,
        // and a single host again after the fleet.
        let plan = [
            (&churn, ll, off, none, 7),
            (&pinned, ll, off, none, 1),
            (
                &hetero,
                PlacementKind::CostMin,
                RebalanceKind::CostAware,
                none,
                33,
            ),
            (&faulty, ll, off, FaultMode::All, 7),
            (&fleet, ll, off, none, 7),
            (&churn, ll, off, none, 8),
        ];
        let mut runner = CellRunner::new();
        for (spec, placement, rebalance, faults, seed) in plan {
            spec.validate().unwrap();
            let cell = (
                SchedulerKind::DisengagedFairQueueing,
                placement,
                FleetPlacementKind::LeastLoaded,
                rebalance,
                faults,
                seed,
            );
            let recycled = runner.run(spec, cell.0, cell.1, cell.2, cell.3, cell.4, cell.5);
            let fresh = run_cell(spec, cell.0, cell.1, cell.2, cell.3, cell.4, cell.5);
            assert_eq!(
                sim_row(&recycled),
                sim_row(&fresh),
                "{} diverged after recycling",
                spec.name
            );
        }
    }

    #[test]
    fn fleet_cells_run_per_host_and_stay_deterministic() {
        let spec = churn_spec().hosts(2);
        spec.validate().unwrap();
        let run = || {
            run_cell(
                &spec,
                SchedulerKind::DisengagedFairQueueing,
                PlacementKind::LeastLoaded,
                FleetPlacementKind::LeastLoaded,
                RebalanceKind::Off,
                FaultMode::None,
                7,
            )
        };
        let result = run();
        let s = &result.summary;
        assert_eq!(s.hosts, 2);
        assert_eq!(s.fleet_placement, FleetPlacementKind::LeastLoaded);
        assert_eq!(s.per_host.len(), 2);
        assert_eq!(s.devices, 2, "two 1-GPU hosts");
        assert!(s.admitted >= 2, "residents must be admitted");
        assert!(
            s.per_host.iter().all(|h| h.admitted > 0),
            "least-loaded fleet placement must spread tenants: {:?}",
            s.per_host
        );
        let fleet = result.fleet.as_ref().expect("fleet cells carry a report");
        assert_eq!(fleet.hosts.len(), 2);
        assert_eq!(s.cross_host_migrations, 0, "rebalance off");
        // The arrival/lifetime schedule is seed-only, so the whole
        // fleet cell is reproducible.
        let again = run();
        assert_eq!(s.total_rounds, again.summary.total_rounds);
        assert_eq!(s.admitted, again.summary.admitted);
        for (a, b) in s.per_host.iter().zip(&again.summary.per_host) {
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.admitted, b.admitted);
        }
    }
}
