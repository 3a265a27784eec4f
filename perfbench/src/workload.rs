//! The benchmark's workloads: which scenario shapes each runs, how the
//! run seed expands into cell seeds, and how its cells are executed.

use std::path::{Path, PathBuf};
use std::time::Duration;

use neon_scenario::sweep::{self, SweepCell};
use neon_scenario::{toml_file, ScenarioSpec};

use crate::spans::{timed, Spans};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hundreds of short single-device cells under all 7 schedulers,
    /// run serially: scheduler policy code, per-cell driver overhead
    /// and emit dominate.
    PolicySweep,
    /// One 30 s streaming-metrics cell under `direct`: the event queue,
    /// the device model and the streaming histograms do the work.
    LongHorizon,
    /// Multi-device, faulty and multi-host cells on the parallel
    /// runner: placement, rebalance, fault recovery and the fleet do
    /// the work, with skewed cell costs.
    Rack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PolicySweep, Workload::LongHorizon, Workload::Rack];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PolicySweep => "policy-sweep",
            Workload::LongHorizon => "long-horizon",
            Workload::Rack => "rack",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scenario files (under [`scenario_dir`]) and how many cell seeds
    /// each gets. Every other sweep axis comes from the file.
    pub fn shapes(self) -> &'static [(&'static str, usize)] {
        match self {
            Workload::PolicySweep => &[
                ("churn.toml", 20),
                ("adversary_midrun.toml", 20),
                ("poisson_burst.toml", 20),
            ],
            Workload::LongHorizon => &[("fleet_churn.toml", 1)],
            Workload::Rack => &[
                ("hetero_gpu.toml", 12),
                ("multi_gpu.toml", 12),
                ("faulty_rack.toml", 6),
                ("fleet_rack.toml", 1),
            ],
        }
    }

    /// Worker threads of the closed loop: 1, or the host's available
    /// parallelism on `rack`.
    pub fn threads(self) -> usize {
        match self {
            Workload::Rack => std::thread::available_parallelism().map_or(1, |n| n.get()),
            _ => 1,
        }
    }
}

/// Directory holding the benchmark's scenario shapes.
fn scenario_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// `n` cell seeds expanded from the run seed (SplitMix64), so the same
/// run seed always yields the same cells.
pub fn cell_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Loads one scenario shape with the loader's public entry point.
pub fn load_shape(file: &str) -> Result<ScenarioSpec, String> {
    let path = scenario_dir().join(file);
    toml_file(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One set-up of a workload: its planned cells and the host time each
/// set-up layer took.
pub struct Setup {
    /// The sweep plan, in plan order.
    pub cells: Vec<SweepCell>,
    /// `toml_file` over every shape.
    pub load: Duration,
    /// `ScenarioSpec::validate` over every shape.
    pub validate: Duration,
    /// `sweep::plan`.
    pub plan: Duration,
}

impl Setup {
    /// Host time of the whole set-up.
    pub fn total(&self) -> Duration {
        self.load + self.validate + self.plan
    }
}

/// Loads, seeds, validates and plans a workload.
pub fn set_up(w: Workload, seed: u64, mut spans: Option<&mut Spans>) -> Result<Setup, String> {
    let seeds = cell_seeds(seed, w.shapes().iter().map(|&(_, n)| n).max().unwrap_or(1));
    let (specs, load) = timed(spans.as_deref_mut(), "toml.load", || {
        w.shapes()
            .iter()
            .map(|&(file, n)| {
                load_shape(file).map(|mut spec| {
                    spec.seeds = seeds[..n].to_vec();
                    spec
                })
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let specs = specs?;
    let (valid, validate) = timed(spans.as_deref_mut(), "spec.validate", || {
        specs.iter().try_for_each(|s| s.validate())
    });
    valid.map_err(|e| e.to_string())?;
    let (cells, plan) = timed(spans, "sweep.plan", || sweep::plan(specs));
    Ok(Setup {
        cells,
        load,
        validate,
        plan,
    })
}
