//! Generic multiprogrammed comparison: run a set of workloads together
//! under one scheduler and compare each against its standalone
//! direct-access baseline (the methodology of §5.3).

use neon_core::cost::{CostModel, SchedParams};
use neon_core::sched::SchedulerKind;
use neon_core::workload::BoxedWorkload;
use neon_core::RunReport;
use neon_metrics::fairness;
use neon_sim::SimDuration;

use crate::runner::{self, RunSpec};

/// Configuration of one multiprogrammed comparison.
#[derive(Clone)]
pub struct PairwiseConfig {
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// The co-running workloads.
    pub workloads: Vec<BoxedWorkload>,
    /// Simulated duration of the concurrent run (baselines use
    /// [`runner::ALONE_HORIZON`]).
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Cost-model override (ablations); `None` uses defaults.
    pub cost: Option<CostModel>,
    /// Policy-parameter override (ablations); `None` uses defaults.
    pub params: Option<SchedParams>,
}

impl PairwiseConfig {
    /// A default-cost configuration.
    pub fn new(scheduler: SchedulerKind, workloads: Vec<BoxedWorkload>) -> Self {
        PairwiseConfig {
            scheduler,
            workloads,
            horizon: runner::MIX_HORIZON,
            seed: runner::DEFAULT_SEED,
            cost: None,
            params: None,
        }
    }
}

impl std::fmt::Debug for PairwiseConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairwiseConfig")
            .field("scheduler", &self.scheduler)
            .field("workloads", &self.workloads.len())
            .field("horizon", &self.horizon)
            .field("seed", &self.seed)
            .finish()
    }
}

/// Per-task outcome of a comparison.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Workload name.
    pub name: String,
    /// Standalone mean round (direct access).
    pub alone: SimDuration,
    /// Mean round in the mix.
    pub concurrent: SimDuration,
    /// `concurrent / alone` (Figure 6's normalized runtime).
    pub slowdown: f64,
    /// Ground-truth device usage in the mix.
    pub usage: SimDuration,
    /// Whether the scheduler killed the task.
    pub killed: bool,
}

/// Result of one multiprogrammed comparison.
#[derive(Debug, Clone)]
pub struct PairwiseResult {
    /// Per-task outcomes, in admission order.
    pub tasks: Vec<TaskOutcome>,
    /// The paper's concurrency-efficiency metric Σ(tᵢ/tᶜᵢ).
    pub efficiency: f64,
    /// The full report of the concurrent run.
    pub report: RunReport,
}

/// Runs the comparison, computing standalone baselines internally.
pub fn run(cfg: &PairwiseConfig) -> PairwiseResult {
    let mut cache = runner::AloneCache::new(runner::ALONE_HORIZON, cfg.seed);
    run_with_cache(cfg, &mut cache)
}

/// Runs the comparison reusing a baseline cache (for sweeps).
pub fn run_with_cache(cfg: &PairwiseConfig, cache: &mut runner::AloneCache) -> PairwiseResult {
    let alone: Vec<SimDuration> = cfg.workloads.iter().map(|w| cache.round(w)).collect();
    let mut spec = RunSpec::new(cfg.scheduler, cfg.horizon).with_seed(cfg.seed);
    if let Some(cost) = cfg.cost.clone() {
        spec = spec.with_cost(cost);
    }
    if let Some(params) = cfg.params.clone() {
        spec = spec.with_params(params);
    }
    let report = runner::run_mix(&spec, cfg.workloads.clone());
    let (tasks, efficiency) = score(&alone, &report);
    PairwiseResult {
        tasks,
        efficiency,
        report,
    }
}

/// Scores a mix against standalone baselines, where `alone[i]` is task
/// `i`'s standalone mean round: one [`TaskOutcome`] per task that has a
/// baseline, in admission order, and the mix's concurrency efficiency
/// Σ(tᵢ/tᶜᵢ). A starved task (no completed round) reads as an
/// infinite slowdown.
pub fn score(alone: &[SimDuration], report: &RunReport) -> (Vec<TaskOutcome>, f64) {
    let tasks: Vec<TaskOutcome> = report
        .tasks
        .iter()
        .zip(alone)
        .map(|(t, &alone)| {
            let concurrent = t.mean_round(runner::WARMUP).unwrap_or(SimDuration::ZERO);
            TaskOutcome {
                name: t.name.clone(),
                alone,
                concurrent,
                slowdown: if concurrent.is_zero() {
                    f64::INFINITY
                } else {
                    fairness::slowdown(alone, concurrent)
                },
                usage: t.usage,
                killed: t.killed,
            }
        })
        .collect();
    let pairs: Vec<(SimDuration, SimDuration)> =
        tasks.iter().map(|t| (t.alone, t.concurrent)).collect();
    let efficiency = fairness::concurrency_efficiency(&pairs);
    (tasks, efficiency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_workloads::Throttle;

    #[test]
    fn equal_throttles_split_evenly_under_dfq() {
        let cfg = PairwiseConfig {
            scheduler: SchedulerKind::DisengagedFairQueueing,
            workloads: vec![
                Box::new(Throttle::new(SimDuration::from_micros(100))),
                Box::new(Throttle::new(SimDuration::from_micros(100))),
            ],
            horizon: SimDuration::from_millis(600),
            seed: 7,
            cost: None,
            params: None,
        };
        // Same name means the alone cache collapses them — rename one.
        let mut cfg = cfg;
        cfg.workloads[1] = Box::new(
            Throttle::new(SimDuration::from_micros(101)), // distinct name
        );
        let result = run(&cfg);
        for t in &result.tasks {
            assert!(
                t.slowdown > 1.4 && t.slowdown < 2.9,
                "{}: slowdown {:.2} outside fair band",
                t.name,
                t.slowdown
            );
        }
    }
}
