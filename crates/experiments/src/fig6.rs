//! Figure 6: performance and fairness of concurrent executions.
//!
//! Four application-pair families (DCT, FFT, glxgears, oclParticles —
//! each vs Throttle at several request sizes) × four schedulers. The
//! reported number is each co-runner's runtime normalized to running
//! alone with direct device access. Direct access shows severe
//! unfairness in both directions; the paper's schedulers hold each
//! co-runner near 2×.
//!
//! The matrix is embarrassingly parallel, so this harness rides
//! `neon-scenario`'s sweep runner: standalone baselines and every
//! (app, size, scheduler) mix are independent deterministic cells
//! fanned out across OS threads. Mixes are static all-at-start
//! scenarios, which take the classic admission path — results are
//! identical to the old serial loop (equivalence-tested below).

use neon_core::cost::SchedParams;
use neon_core::sched::SchedulerKind;
use neon_core::workload::BoxedWorkload;
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;
use neon_workloads::{app, throttle};

use crate::{pairwise, runner};

/// Configuration of the Figure 6 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each concurrent run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Throttle request sizes (defaults to the paper's 19 µs – 1.7 ms).
    pub throttle_sizes: Vec<SimDuration>,
    /// Schedulers (defaults to the paper's four columns).
    pub schedulers: Vec<SchedulerKind>,
    /// Application families (defaults to the paper's four rows).
    pub apps: Vec<AppFamily>,
}

/// The application side of a Figure 6 pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppFamily {
    /// DCT vs Throttle (row 1).
    Dct,
    /// FFT vs Throttle (row 2).
    Fft,
    /// glxgears (OpenGL) vs Throttle (row 3).
    Glxgears,
    /// oclParticles (OpenGL + OpenCL) vs Throttle (row 4).
    OclParticles,
}

impl AppFamily {
    /// All four rows of the figure.
    pub const ALL: [AppFamily; 4] = [
        AppFamily::Dct,
        AppFamily::Fft,
        AppFamily::Glxgears,
        AppFamily::OclParticles,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppFamily::Dct => "DCT",
            AppFamily::Fft => "FFT",
            AppFamily::Glxgears => "glxgears",
            AppFamily::OclParticles => "oclParticles",
        }
    }

    /// Builds the workload.
    pub fn build(self) -> BoxedWorkload {
        match self {
            AppFamily::Dct => Box::new(app::dct()),
            AppFamily::Fft => Box::new(app::fft()),
            AppFamily::Glxgears => Box::new(app::glxgears_model()),
            AppFamily::OclParticles => Box::new(app::ocl_particles_model()),
        }
    }

    /// `true` for combined compute+graphics applications, which the
    /// paper samples with a larger request budget (96 vs 32).
    pub fn is_combined(self) -> bool {
        matches!(self, AppFamily::OclParticles)
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: runner::MIX_HORIZON,
            seed: runner::DEFAULT_SEED,
            throttle_sizes: throttle::figure6_sizes(),
            schedulers: SchedulerKind::PAPER.to_vec(),
            apps: AppFamily::ALL.to_vec(),
        }
    }
}

/// One cell of the figure: an (app, throttle size, scheduler) triple.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application family.
    pub app: &'static str,
    /// Throttle request size.
    pub throttle_size: SimDuration,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Application runtime normalized to running alone.
    pub app_slowdown: f64,
    /// Throttle runtime normalized to running alone.
    pub throttle_slowdown: f64,
    /// Concurrency efficiency of the run (consumed by Figure 7).
    pub efficiency: f64,
}

fn app_group(family: AppFamily) -> TenantGroup {
    TenantGroup::new(
        family.name(),
        WorkloadSpec::App {
            name: family.name().to_string(),
        },
    )
}

fn throttle_group(size: SimDuration) -> TenantGroup {
    TenantGroup::new(
        format!("throttle-{size}"),
        WorkloadSpec::Throttle {
            request: size,
            off_ratio: 0.0,
            // Throttle's constructor default; spelled out because the
            // scenario spec's default of 0.0 would diverge from the
            // serial harness this port must reproduce exactly.
            jitter: 0.02,
        },
    )
}

/// Runs the full sweep through the parallel sweep runner: one block of
/// standalone direct-access baselines, then one scenario per
/// (app, size) pair whose scheduler axis is the figure's columns.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut specs = Vec::new();
    // Standalone baselines, one single-cell scenario per distinct
    // workload (apps first, then throttle sizes).
    for &family in &cfg.apps {
        specs.push(
            ScenarioSpec::new(format!("alone:{}", family.name()), runner::ALONE_HORIZON)
                .seeds(vec![cfg.seed])
                .schedulers(vec![SchedulerKind::Direct])
                .group(app_group(family)),
        );
    }
    for &size in &cfg.throttle_sizes {
        specs.push(
            ScenarioSpec::new(format!("alone:throttle-{size}"), runner::ALONE_HORIZON)
                .seeds(vec![cfg.seed])
                .schedulers(vec![SchedulerKind::Direct])
                .group(throttle_group(size)),
        );
    }
    // The mixes: scenario-major over (app, size), scheduler-minor.
    for &family in &cfg.apps {
        for &size in &cfg.throttle_sizes {
            let mut spec = ScenarioSpec::new(format!("{}+{size}", family.name()), cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(cfg.schedulers.clone())
                .group(app_group(family))
                .group(throttle_group(size));
            if family.is_combined() {
                // Combined compute+graphics applications get the larger
                // sampling budget the paper uses (96 vs 32 requests).
                spec = spec.params(SchedParams {
                    sampling_requests: 96,
                    ..SchedParams::default()
                });
            }
            specs.push(spec);
        }
    }
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);

    // Baselines occupy the first |apps| + |sizes| cells, in push order.
    let app_alone = |i: usize| runner::mean_round(&outcome.results[i].report, 0);
    let throttle_alone =
        |j: usize| runner::mean_round(&outcome.results[cfg.apps.len() + j].report, 0);
    let mix_base = cfg.apps.len() + cfg.throttle_sizes.len();
    let per_pair = cfg.schedulers.len();

    let mut rows = Vec::new();
    for (i, &family) in cfg.apps.iter().enumerate() {
        for (j, &size) in cfg.throttle_sizes.iter().enumerate() {
            for (k, &scheduler) in cfg.schedulers.iter().enumerate() {
                let cell = mix_base + (i * cfg.throttle_sizes.len() + j) * per_pair + k;
                let (tasks, efficiency) = pairwise::score(
                    &[app_alone(i), throttle_alone(j)],
                    &outcome.results[cell].report,
                );
                rows.push(Row {
                    app: family.name(),
                    throttle_size: size,
                    scheduler,
                    app_slowdown: tasks[0].slowdown,
                    throttle_slowdown: tasks[1].slowdown,
                    efficiency,
                });
            }
        }
    }
    rows
}

/// Renders the normalized-runtime table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "pair".into(),
        "scheduler".into(),
        "app slowdown".into(),
        "Throttle slowdown".into(),
    ]);
    for r in rows {
        table.row(vec![
            format!("{} vs Throttle({})", r.app, r.throttle_size),
            r.scheduler.label().into(),
            format!("{:.2}x", r.app_slowdown),
            format!("{:.2}x", r.throttle_slowdown),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::{self, PairwiseConfig};
    use neon_workloads::throttle;

    /// A reduced sweep used by the heavier assertions in
    /// `tests/figures.rs`; here we only sanity-check plumbing.
    #[test]
    fn single_cell_runs() {
        let cfg = Config {
            horizon: SimDuration::from_millis(400),
            throttle_sizes: vec![SimDuration::from_micros(430)],
            schedulers: vec![SchedulerKind::Direct],
            apps: vec![AppFamily::Dct],
            ..Config::default()
        };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 1);
        // Direct access vs a large-request Throttle starves DCT.
        assert!(rows[0].app_slowdown > 3.0);
    }

    #[test]
    fn sweep_runner_port_matches_the_serial_pairwise_path() {
        // The scenario-backed run() must reproduce the legacy serial
        // pairwise computation exactly, including the oclParticles
        // sampling-budget override (static cells take the same
        // admission path and seed).
        let size = SimDuration::from_micros(430);
        let cfg = Config {
            horizon: SimDuration::from_millis(500),
            throttle_sizes: vec![size],
            schedulers: vec![SchedulerKind::DisengagedFairQueueing],
            apps: vec![AppFamily::Dct, AppFamily::OclParticles],
            ..Config::default()
        };
        let rows = run(&cfg);

        let mut cache = runner::AloneCache::new(runner::ALONE_HORIZON, cfg.seed);
        for (row, family) in rows.iter().zip(cfg.apps.iter()) {
            let params = family.is_combined().then(|| SchedParams {
                sampling_requests: 96,
                ..SchedParams::default()
            });
            let pair = PairwiseConfig {
                scheduler: SchedulerKind::DisengagedFairQueueing,
                workloads: vec![family.build(), Box::new(throttle::saturating(size))],
                horizon: cfg.horizon,
                seed: cfg.seed,
                cost: None,
                params,
            };
            let serial = pairwise::run_with_cache(&pair, &mut cache);
            assert_eq!(row.app_slowdown, serial.tasks[0].slowdown, "{}", row.app);
            assert_eq!(
                row.throttle_slowdown, serial.tasks[1].slowdown,
                "{}",
                row.app
            );
            assert_eq!(row.efficiency, serial.efficiency, "{}", row.app);
        }
    }
}
