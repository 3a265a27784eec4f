//! Deterministic fault injection: typed fault schedules and the
//! recovery tuning knobs the world's machinery runs under.
//!
//! A [`FaultPlan`] is a time-sorted list of [`FaultEvent`]s plus a
//! [`FaultConfig`] (watchdog timeout, retry budgets, backoff curve).
//! The plan is attached to a run through
//! [`crate::world::WorldConfig::faults`]; `None` (the default) keeps
//! the event stream — and every golden trace hash — byte-identical to
//! the fault-free model. With a plan attached, each event is scheduled
//! on the world's own event queue at its instant, so fault schedules
//! replay exactly under a fixed seed (the systematic-exploration
//! spirit of stateless model checking: a failing interleaving is a
//! value, not a flake).
//!
//! Fault taxonomy:
//!
//! - **Device hot-remove / hot-add** ([`FaultKind::DeviceRemove`],
//!   [`FaultKind::DeviceAdd`]): the Theseus-style reconfiguration
//!   item. Residents drain-and-migrate through the rebalancing
//!   machinery (priced by the `Topology`); with no surviving fit they
//!   park and retry under bounded exponential backoff.
//! - **Task hang** ([`FaultKind::TaskHang`]): the victim's next (or
//!   currently) running request never completes, wedging its engine
//!   until the per-device watchdog kills-and-requeues the task.
//! - **Task crash** ([`FaultKind::TaskCrash`]): immediate kill; the
//!   task is lost, its device state reclaimed.
//! - **Transient submission error** ([`FaultKind::SubmitError`]): the
//!   victim's next submission attempt fails once and is retried after
//!   the backoff base.
//! - **Whole-host failure / recovery** ([`FaultKind::HostFail`],
//!   [`FaultKind::HostRecover`]): fleet-scope events, ignored by a
//!   single [`crate::world::World`]; the `Fleet` planner truncates the
//!   failed host's residents and re-admits migratable ones across the
//!   cluster interconnect.

use neon_gpu::{DeviceId, TaskId};
use neon_sim::{SimDuration, SimTime};

/// One scheduled fault: what happens, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection instant (simulated time).
    pub at: SimTime,
    /// What is injected.
    pub kind: FaultKind,
}

/// The typed fault taxonomy. Task-targeted kinds take an optional
/// victim; `None` picks the lowest-id live task at the injection
/// instant (deterministic, and robust to schedules written without
/// knowledge of churn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Hot-remove: the device goes offline; residents drain-and-migrate
    /// or park.
    DeviceRemove { device: DeviceId },
    /// Hot-add: a previously removed device returns to service; parked
    /// tasks retry immediately.
    DeviceAdd { device: DeviceId },
    /// The victim's running (or next dispatched) request never
    /// completes.
    TaskHang { task: Option<TaskId> },
    /// The victim process dies on the spot.
    TaskCrash { task: Option<TaskId> },
    /// The victim's next submission attempt fails once (retried after
    /// the backoff base).
    SubmitError { task: Option<TaskId> },
    /// Fleet scope: the whole host fails; its residents truncate and
    /// migratable ones re-admit across the cluster.
    HostFail { host: u32 },
    /// Fleet scope: a failed host returns with empty devices.
    HostRecover { host: u32 },
}

impl FaultKind {
    /// Stable label used by traces, TOML parsing and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DeviceRemove { .. } => "device-remove",
            FaultKind::DeviceAdd { .. } => "device-add",
            FaultKind::TaskHang { .. } => "hang",
            FaultKind::TaskCrash { .. } => "crash",
            FaultKind::SubmitError { .. } => "submit-error",
            FaultKind::HostFail { .. } => "host-fail",
            FaultKind::HostRecover { .. } => "host-recover",
        }
    }

    /// The sweep-axis category this kind belongs to.
    pub fn category(&self) -> FaultCategory {
        match self {
            FaultKind::DeviceRemove { .. } | FaultKind::DeviceAdd { .. } => FaultCategory::Device,
            FaultKind::TaskHang { .. }
            | FaultKind::TaskCrash { .. }
            | FaultKind::SubmitError { .. } => FaultCategory::Task,
            FaultKind::HostFail { .. } | FaultKind::HostRecover { .. } => FaultCategory::Host,
        }
    }
}

/// Coarse fault category, the unit of the `faults` sweep axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCategory {
    Device,
    Task,
    Host,
}

/// One value of the `faults` sweep axis: which categories of the
/// scenario's fault schedule are injected in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultMode {
    /// Inject nothing — the cell runs the fault-free model
    /// byte-identically ([`crate::world::WorldConfig::faults`] stays
    /// `None`).
    #[default]
    None,
    /// Device hot-remove/hot-add events only.
    Device,
    /// Task hangs, crashes and transient submission errors only.
    Task,
    /// Whole-host failure/recovery events only (fleet scenarios).
    Host,
    /// The full schedule.
    All,
}

impl FaultMode {
    /// Every mode, in sweep order.
    pub const ALL: [FaultMode; 5] = [
        FaultMode::None,
        FaultMode::Device,
        FaultMode::Task,
        FaultMode::Host,
        FaultMode::All,
    ];

    /// Stable label (TOML value, CLI value, CSV column value).
    pub fn label(&self) -> &'static str {
        match self {
            FaultMode::None => "none",
            FaultMode::Device => "device",
            FaultMode::Task => "task",
            FaultMode::Host => "host",
            FaultMode::All => "all",
        }
    }

    /// Parses a mode label.
    pub fn parse(s: &str) -> Option<FaultMode> {
        FaultMode::ALL.into_iter().find(|m| m.label() == s)
    }

    /// `true` if this mode injects events of `kind`.
    pub fn admits(&self, kind: FaultKind) -> bool {
        match self {
            FaultMode::None => false,
            FaultMode::All => true,
            FaultMode::Device => kind.category() == FaultCategory::Device,
            FaultMode::Task => kind.category() == FaultCategory::Task,
            FaultMode::Host => kind.category() == FaultCategory::Host,
        }
    }
}

impl std::fmt::Display for FaultMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Recovery-machinery tuning: the watchdog and the retry/backoff
/// curves. All durations must be positive (enforced by
/// [`FaultPlan::validate`]; the scenario loader reports the offending
/// TOML key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Per-device watchdog timeout: a running request stagnant longer
    /// than this gets its task killed-and-requeued. `None` (the
    /// default) never arms the watchdog — hangs then persist until the
    /// horizon.
    pub watchdog: Option<SimDuration>,
    /// How many watchdog kill-and-requeue cycles one task lineage gets
    /// before it is declared lost.
    pub retry_budget: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Upper bound of the exponential backoff.
    pub backoff_cap: SimDuration,
    /// How many re-admission attempts a task displaced by a hot-remove
    /// gets before it is declared lost.
    pub max_park_retries: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            watchdog: None,
            retry_budget: 2,
            backoff_base: SimDuration::from_micros(500),
            backoff_cap: SimDuration::from_millis(8),
            max_park_retries: 8,
        }
    }
}

impl FaultConfig {
    /// The delay before retry `attempt` (0-based): `base * 2^attempt`,
    /// capped. Doubling is iterative, so a huge attempt count saturates
    /// at the cap instead of overflowing.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let mut d = self.backoff_base;
        for _ in 0..attempt.min(32) {
            if d >= self.backoff_cap {
                return self.backoff_cap;
            }
            d = d + d;
        }
        d.min(self.backoff_cap)
    }
}

/// A deterministic fault schedule: time-sorted events plus the
/// recovery configuration they are handled under.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Recovery tuning the world runs under while this plan is
    /// attached.
    pub config: FaultConfig,
}

impl FaultPlan {
    /// An empty plan under `config` — attach events with
    /// [`FaultPlan::push`].
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            events: Vec::new(),
            config,
        }
    }

    /// Appends an event, keeping the list time-sorted (stable: equal
    /// instants keep insertion order, so a schedule replays in the
    /// order it was written).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
        self
    }

    /// The time-sorted schedule.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The plan restricted to the categories `mode` admits (same
    /// config). [`FaultMode::None`] yields an empty plan — callers
    /// should then leave `WorldConfig::faults` as `None` so the run
    /// stays byte-identical to the fault-free model.
    pub fn filtered(&self, mode: FaultMode) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| mode.admits(e.kind))
                .collect(),
            config: self.config.clone(),
        }
    }

    /// The world-level slice of the plan: host-scope events stripped
    /// (the fleet layer consumes those).
    pub fn world_plan(&self) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.kind.category() != FaultCategory::Host)
                .collect(),
            config: self.config.clone(),
        }
    }

    /// The host-scope events, in time order.
    pub fn host_events(&self) -> Vec<FaultEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.kind.category() == FaultCategory::Host)
            .collect()
    }

    /// Rejects non-positive durations (a zero watchdog or backoff is a
    /// config typo that would otherwise busy-loop the event queue) and
    /// an inverted backoff range. The message names the offending knob
    /// so the scenario loader can surface it keyed.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(w) = self.config.watchdog {
            if w.is_zero() {
                return Err("fault.watchdog must be positive".into());
            }
        }
        if self.config.backoff_base.is_zero() {
            return Err("fault.backoff_base must be positive".into());
        }
        if self.config.backoff_cap.is_zero() {
            return Err("fault.backoff_cap must be positive".into());
        }
        if self.config.backoff_cap < self.config.backoff_base {
            return Err("fault.backoff_cap must be >= fault.backoff_base".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn push_keeps_events_time_sorted_and_stable() {
        let mut plan = FaultPlan::default();
        plan.push(t(30), FaultKind::TaskCrash { task: None });
        plan.push(t(10), FaultKind::TaskHang { task: None });
        plan.push(t(30), FaultKind::SubmitError { task: None });
        let kinds: Vec<&str> = plan.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["hang", "crash", "submit-error"]);
        assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn mode_filtering_partitions_the_taxonomy() {
        let mut plan = FaultPlan::default();
        plan.push(
            t(1),
            FaultKind::DeviceRemove {
                device: DeviceId::new(0),
            },
        );
        plan.push(
            t(2),
            FaultKind::TaskHang {
                task: Some(TaskId::new(0)),
            },
        );
        plan.push(t(3), FaultKind::HostFail { host: 1 });
        assert_eq!(plan.filtered(FaultMode::None).len(), 0);
        assert_eq!(plan.filtered(FaultMode::Device).len(), 1);
        assert_eq!(plan.filtered(FaultMode::Task).len(), 1);
        assert_eq!(plan.filtered(FaultMode::Host).len(), 1);
        assert_eq!(plan.filtered(FaultMode::All).len(), 3);
        assert_eq!(plan.world_plan().len(), 2);
        assert_eq!(plan.host_events().len(), 1);
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in FaultMode::ALL {
            assert_eq!(FaultMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(FaultMode::parse("chaos"), None);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let cfg = FaultConfig {
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_micros(350),
            ..FaultConfig::default()
        };
        assert_eq!(cfg.backoff(0), SimDuration::from_micros(100));
        assert_eq!(cfg.backoff(1), SimDuration::from_micros(200));
        assert_eq!(cfg.backoff(2), SimDuration::from_micros(350));
        assert_eq!(cfg.backoff(40), SimDuration::from_micros(350));
    }

    #[test]
    fn validate_rejects_zero_durations_by_key() {
        let mut plan = FaultPlan::default();
        plan.config.watchdog = Some(SimDuration::ZERO);
        // lint: allow(unchecked-unwrap) — asserting on the error text
        let err = plan.validate().unwrap_err();
        assert!(err.contains("fault.watchdog"), "{err}");

        let mut plan = FaultPlan::default();
        plan.config.backoff_base = SimDuration::ZERO;
        // lint: allow(unchecked-unwrap) — asserting on the error text
        let err = plan.validate().unwrap_err();
        assert!(err.contains("fault.backoff_base"), "{err}");

        let mut plan = FaultPlan::default();
        plan.config.backoff_cap = SimDuration::from_micros(1);
        plan.config.backoff_base = SimDuration::from_micros(2);
        // lint: allow(unchecked-unwrap) — asserting on the error text
        let err = plan.validate().unwrap_err();
        assert!(err.contains("backoff_cap"), "{err}");
    }
}
