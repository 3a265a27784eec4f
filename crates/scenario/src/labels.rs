//! Label lists: the labels each sweep axis (and single-label key)
//! accepts, declared once and shared by the TOML loader and the `neon`
//! CLI flags, plus the "unknown …; did you mean …?" errors both give.

use std::fmt::Display;

use neon_core::fault::FaultMode;
use neon_core::fleet::{FleetPlacementKind, FleetRebalanceKind};
use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::SchedulerKind;
use neon_core::telemetry::MetricsMode;

use crate::spec::SpecError;

/// The labels one sweep axis (or single-label key) accepts, shared by
/// the TOML keys and the `neon` CLI flags.
pub struct Labels<T: 'static> {
    /// What an error calls one value (`"placement policy"`).
    what: &'static str,
    /// Every kind, for the "supported: …" list and hints.
    all: &'static [T],
    /// Names that stand for several kinds (`"all"`, `"paper"`).
    groups: &'static [(&'static str, &'static [T])],
    /// The kind's own label parser.
    parse: fn(&str) -> Option<T>,
}

impl<T: Copy + Display> Labels<T> {
    /// Parses one label (a group name is not one label).
    pub fn parse_one(&self, label: &str) -> Result<T, SpecError> {
        (self.parse)(label).ok_or_else(|| {
            let kinds = self.all.iter().map(T::to_string);
            unknown(
                self.what,
                label,
                kinds.chain(self.groups.iter().map(|g| g.0.to_string())),
            )
        })
    }

    /// Parses a list of labels; a group name adds all its kinds.
    pub fn parse_list<'a>(
        &self,
        labels: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<T>, SpecError> {
        let mut kinds = Vec::new();
        for label in labels {
            match self.groups.iter().find(|(name, _)| *name == label) {
                Some((_, group)) => kinds.extend_from_slice(group),
                None => kinds.push(self.parse_one(label)?),
            }
        }
        Ok(kinds)
    }
}

/// `schedulers`: policy labels, `"all"` or the paper's four.
pub const SCHEDULERS: Labels<SchedulerKind> = Labels {
    what: "scheduler",
    all: &SchedulerKind::ALL,
    groups: &[
        ("all", &SchedulerKind::ALL),
        ("paper", &SchedulerKind::PAPER),
    ],
    parse: SchedulerKind::from_label,
};

/// `placement` / `--placement`; `"all"` excludes pinned placements.
pub const PLACEMENTS: Labels<PlacementKind> = Labels {
    what: "placement policy",
    all: &PlacementKind::ALL,
    groups: &[("all", &PlacementKind::ALL)],
    parse: PlacementKind::from_label,
};

/// `fleet_placement` / `--fleet-placement`.
pub const FLEET_PLACEMENTS: Labels<FleetPlacementKind> = Labels {
    what: "fleet placement policy",
    all: &FleetPlacementKind::ALL,
    groups: &[("all", &FleetPlacementKind::ALL)],
    parse: FleetPlacementKind::from_label,
};

/// `rebalance` / `--rebalance`.
pub const REBALANCES: Labels<RebalanceKind> = Labels {
    what: "rebalance policy",
    all: &RebalanceKind::ALL,
    groups: &[("all", &RebalanceKind::ALL)],
    parse: RebalanceKind::from_label,
};

/// `faults` / `--faults`; `"all"` is a mode of its own.
pub const FAULT_MODES: Labels<FaultMode> = Labels {
    what: "fault mode",
    all: &FaultMode::ALL,
    groups: &[],
    parse: FaultMode::parse,
};

/// `fleet_rebalance`: a single label.
pub const FLEET_REBALANCES: Labels<FleetRebalanceKind> = Labels {
    what: "fleet rebalance policy",
    all: &FleetRebalanceKind::ALL,
    groups: &[],
    parse: FleetRebalanceKind::from_label,
};

/// `metrics` / `--metrics`: a single label.
pub const METRICS_MODES: Labels<MetricsMode> = Labels {
    what: "metrics mode",
    all: &MetricsMode::ALL,
    groups: &[],
    parse: MetricsMode::from_label,
};

/// Levenshtein edit distance, for "did you mean" hints.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest candidate within edit distance 2, rendered as a
/// `; did you mean "x"?` suffix (empty when nothing is close).
fn did_you_mean<'a>(key: &str, candidates: impl Iterator<Item = &'a str>) -> String {
    candidates
        .map(|c| (edit_distance(key, c), c))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, c)| format!("; did you mean {c:?}?"))
        .unwrap_or_default()
}

/// `unknown <what> "<label>" (supported: a, b, …)` plus a did-you-mean
/// hint.
pub(crate) fn unknown<S: AsRef<str>>(
    what: &str,
    label: &str,
    supported: impl IntoIterator<Item = S>,
) -> SpecError {
    let supported: Vec<S> = supported.into_iter().collect();
    let names = || supported.iter().map(S::as_ref);
    let hint = did_you_mean(label, names());
    SpecError(format!(
        "unknown {what} {label:?} (supported: {}){hint}",
        names().collect::<Vec<_>>().join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_names_expand_but_fault_all_is_one_mode() {
        assert_eq!(PLACEMENTS.parse_list(["all"]).unwrap(), PlacementKind::ALL);
        assert_eq!(
            PLACEMENTS.parse_list(["pinned:3", "cost-min"]).unwrap(),
            [PlacementKind::Pinned(3), PlacementKind::CostMin]
        );
        assert_eq!(
            REBALANCES.parse_list(["cost", "all"]).unwrap(),
            [
                RebalanceKind::CostAware,
                RebalanceKind::Off,
                RebalanceKind::CountDiff,
                RebalanceKind::CostAware
            ]
        );
        assert_eq!(
            SCHEDULERS.parse_list(["paper"]).unwrap(),
            SchedulerKind::PAPER
        );
        assert_eq!(FAULT_MODES.parse_list(["all"]).unwrap(), [FaultMode::All]);
    }

    #[test]
    fn unknown_labels_list_the_supported_ones_with_a_hint() {
        let e = FLEET_PLACEMENTS.parse_list(["roud-robin"]).unwrap_err();
        assert!(
            e.0.contains("unknown fleet placement policy \"roud-robin\" (supported: "),
            "{e}"
        );
        assert!(e.0.contains("did you mean \"round-robin\"?"), "{e}");
        // Single-label kinds take no group name.
        assert!(FLEET_REBALANCES.parse_one("all").is_err());
        assert_eq!(
            METRICS_MODES.parse_one("streaming").unwrap(),
            MetricsMode::Streaming
        );
    }
}
