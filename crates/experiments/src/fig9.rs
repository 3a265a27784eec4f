//! Figure 9: performance and fairness for nonsaturating workloads.
//!
//! DCT runs against a Throttle that sleeps a configurable share of its
//! standalone execution ("off" ratio 0–80 %). Under the (non
//! work-conserving) timeslice schedulers the idle share of Throttle's
//! slices is wasted; under Disengaged Fair Queueing Throttle barely
//! suffers while DCT soaks up the idle capacity — "fairness does not
//! necessarily require co-runners to suffer equally".
//!
//! This harness rides `neon-scenario`'s parallel sweep runner: the
//! standalone baselines (DCT, plus one Throttle per off ratio) and
//! every (off ratio, scheduler) mix are independent deterministic
//! cells fanned out across OS threads. Mixes are static all-at-start
//! scenarios, which take the classic admission path — results are
//! identical to the old serial pairwise loop (equivalence-tested
//! below).

use neon_core::sched::SchedulerKind;
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

use crate::{pairwise, runner};

/// Configuration of the Figure 9/10 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Throttle request size.
    pub throttle_size: SimDuration,
    /// Off ratios to sweep.
    pub off_ratios: Vec<f64>,
    /// Schedulers to compare.
    pub schedulers: Vec<SchedulerKind>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: runner::MIX_HORIZON,
            seed: runner::DEFAULT_SEED,
            throttle_size: SimDuration::from_micros(430),
            off_ratios: vec![0.0, 0.2, 0.4, 0.6, 0.8],
            schedulers: SchedulerKind::PAPER.to_vec(),
        }
    }
}

/// One (off ratio, scheduler) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Throttle's off ratio.
    pub off_ratio: f64,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// DCT slowdown vs running alone.
    pub dct_slowdown: f64,
    /// Throttle slowdown vs running alone.
    pub throttle_slowdown: f64,
    /// Concurrency efficiency (consumed by Figure 10).
    pub efficiency: f64,
}

fn dct_group() -> TenantGroup {
    TenantGroup::new(
        "DCT",
        WorkloadSpec::App {
            name: "DCT".to_string(),
        },
    )
}

fn throttle_group(size: SimDuration, off: f64) -> TenantGroup {
    TenantGroup::new(
        format!("throttle-{size}-off{off}"),
        WorkloadSpec::Throttle {
            request: size,
            off_ratio: off,
            // Throttle's constructor default; spelled out because the
            // scenario spec's default of 0.0 would diverge from the
            // serial harness this port must reproduce exactly.
            jitter: 0.02,
        },
    )
}

/// Runs the sweep through the parallel sweep runner: one block of
/// standalone direct-access baselines (DCT, then one Throttle per off
/// ratio), then one scenario per off ratio whose scheduler axis is the
/// figure's columns.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut specs = vec![ScenarioSpec::new("alone:DCT", runner::ALONE_HORIZON)
        .seeds(vec![cfg.seed])
        .schedulers(vec![SchedulerKind::Direct])
        .group(dct_group())];
    for &off in &cfg.off_ratios {
        specs.push(
            ScenarioSpec::new(format!("alone:throttle-off{off}"), runner::ALONE_HORIZON)
                .seeds(vec![cfg.seed])
                .schedulers(vec![SchedulerKind::Direct])
                .group(throttle_group(cfg.throttle_size, off)),
        );
    }
    for &off in &cfg.off_ratios {
        specs.push(
            ScenarioSpec::new(format!("DCT+off{off}"), cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(cfg.schedulers.clone())
                .group(dct_group())
                .group(throttle_group(cfg.throttle_size, off)),
        );
    }
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);

    // Baselines occupy the first 1 + |off_ratios| cells, in push order.
    let dct_alone = runner::mean_round(&outcome.results[0].report, 0);
    let throttle_alone = |j: usize| runner::mean_round(&outcome.results[1 + j].report, 0);
    let mix_base = 1 + cfg.off_ratios.len();
    let per_mix = cfg.schedulers.len();

    let mut rows = Vec::new();
    for (j, &off) in cfg.off_ratios.iter().enumerate() {
        for (k, &scheduler) in cfg.schedulers.iter().enumerate() {
            let (tasks, efficiency) = pairwise::score(
                &[dct_alone, throttle_alone(j)],
                &outcome.results[mix_base + j * per_mix + k].report,
            );
            rows.push(Row {
                off_ratio: off,
                scheduler,
                dct_slowdown: tasks[0].slowdown,
                throttle_slowdown: tasks[1].slowdown,
                efficiency,
            });
        }
    }
    rows
}

/// Renders the fairness table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "off ratio".into(),
        "scheduler".into(),
        "DCT slowdown".into(),
        "Throttle slowdown".into(),
    ]);
    for r in rows {
        table.row(vec![
            format!("{:.0}%", r.off_ratio * 100.0),
            r.scheduler.label().into(),
            format!("{:.2}x", r.dct_slowdown),
            format!("{:.2}x", r.throttle_slowdown),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::{self, PairwiseConfig};
    use neon_workloads::{app, throttle};

    #[test]
    fn dfq_lets_dct_exploit_throttle_idleness() {
        let cfg = Config {
            horizon: SimDuration::from_millis(800),
            off_ratios: vec![0.8],
            schedulers: vec![
                SchedulerKind::DisengagedTimeslice,
                SchedulerKind::DisengagedFairQueueing,
            ],
            ..Config::default()
        };
        let rows = run(&cfg);
        let ts = &rows[0];
        let dfq = &rows[1];
        // Timeslice wastes Throttle's idle slices: DCT pays ~2x. DFQ is
        // (nearly) work conserving: DCT does clearly better, and
        // Throttle is barely slowed.
        assert!(ts.dct_slowdown > 1.8, "ts: {:.2}", ts.dct_slowdown);
        assert!(
            dfq.dct_slowdown < ts.dct_slowdown - 0.3,
            "dfq {:.2} vs ts {:.2}",
            dfq.dct_slowdown,
            ts.dct_slowdown
        );
        assert!(
            dfq.throttle_slowdown < 1.6,
            "throttle should barely suffer: {:.2}",
            dfq.throttle_slowdown
        );
    }

    #[test]
    fn sweep_runner_port_matches_the_serial_pairwise_path() {
        // The scenario-backed run() must reproduce the legacy serial
        // pairwise computation exactly (static cells take the same
        // admission path and seed).
        let cfg = Config {
            horizon: SimDuration::from_millis(600),
            off_ratios: vec![0.0, 0.6],
            schedulers: vec![SchedulerKind::DisengagedFairQueueing],
            ..Config::default()
        };
        let rows = run(&cfg);

        let mut cache = runner::AloneCache::new(runner::ALONE_HORIZON, cfg.seed);
        for (row, &off) in rows.iter().zip(cfg.off_ratios.iter()) {
            let pair = PairwiseConfig {
                scheduler: SchedulerKind::DisengagedFairQueueing,
                workloads: vec![
                    Box::new(app::dct()),
                    Box::new(throttle::nonsaturating(cfg.throttle_size, off)),
                ],
                horizon: cfg.horizon,
                seed: cfg.seed,
                cost: None,
                params: None,
            };
            let serial = pairwise::run_with_cache(&pair, &mut cache);
            assert_eq!(
                row.dct_slowdown, serial.tasks[0].slowdown,
                "off {off}: DCT diverged from the serial path"
            );
            assert_eq!(
                row.throttle_slowdown, serial.tasks[1].slowdown,
                "off {off}: Throttle diverged from the serial path"
            );
            assert_eq!(row.efficiency, serial.efficiency, "off {off}");
        }
    }
}
