//! Sweep axes and grid expansion.
//!
//! An [`Axis`] is one swept spec key with its candidate values
//! (`tlb.entries=32,64,128`); [`SweepPlan::expand`] crosses every axis over a base
//! [`SystemSpec`] into a [`SweepPlan`] of validated points, and
//! [`SweepPlan::expand_all`] merges the grids of several bases. Combinations
//! the simulator has no model for (e.g. a hardware walker over a
//! three-tiered table, mid-sweep) are not silently dropped: they land in
//! [`SweepPlan::skipped`] with the validator's reason, so reports can say
//! what part of the grid went unmeasured.

use vm_core::SimConfig;

use crate::spec::SystemSpec;

/// One swept dimension: a dotted spec key and the values to try.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// The dotted key (`tlb.entries`, `mmu.table`, `cache.l1`, ...).
    pub key: String,
    /// The values, as CLI tokens, in sweep order.
    pub values: Vec<String>,
}

impl Axis {
    /// Parses the CLI grammar `key=v1,v2,...`.
    ///
    /// # Errors
    ///
    /// Returns a message if the `=` is missing or the value list is
    /// empty.
    pub fn parse(s: &str) -> Result<Axis, String> {
        let Some((key, values)) = s.split_once('=') else {
            return Err(format!(
                "sweep axis `{s}` must be `key=v1,v2,...` (e.g. tlb.entries=32,64)"
            ));
        };
        let values: Vec<String> =
            values.split(',').map(str::trim).filter(|v| !v.is_empty()).map(String::from).collect();
        if values.is_empty() {
            return Err(format!("sweep axis `{key}` has no values"));
        }
        Ok(Axis { key: key.trim().to_owned(), values })
    }
}

/// One grid point ready to simulate.
#[derive(Debug, Clone)]
pub struct PlannedPoint {
    /// Position in sweep order (stable across job counts).
    pub index: usize,
    /// The base spec's display name plus this point's settings.
    pub label: String,
    /// The `(axis key, value)` pairs that distinguish this point.
    pub settings: Vec<(String, String)>,
    /// The fully-overridden spec.
    pub spec: SystemSpec,
    /// The validated lowered configuration.
    pub config: SimConfig,
}

/// A point the grid contained but the validator rejected.
#[derive(Debug, Clone)]
pub struct SkippedPoint {
    /// The would-be point's label.
    pub label: String,
    /// Why it cannot be simulated.
    pub reason: String,
}

/// An expanded sweep: the runnable points plus the rejected corners of
/// the grid.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// Points to simulate, in sweep order.
    pub points: Vec<PlannedPoint>,
    /// Grid corners the validator rejected, with reasons.
    pub skipped: Vec<SkippedPoint>,
}

impl SweepPlan {
    /// Expands `axes` over `base` (first axis outermost), validating
    /// every point. With no axes the plan is the single base point.
    ///
    /// # Errors
    ///
    /// Returns a message if an axis *key* is unknown or a value fails to
    /// apply for **every** point (a key that never works is a typo, not a
    /// sparse grid).
    pub fn expand(base: &SystemSpec, axes: &[Axis]) -> Result<SweepPlan, String> {
        let mut plan = SweepPlan::default();
        let mut combo = vec![0usize; axes.len()];
        let mut any_applied = false;
        loop {
            let mut spec = base.clone();
            let mut settings = Vec::with_capacity(axes.len());
            let mut apply_err = None;
            for (axis, &ix) in axes.iter().zip(&combo) {
                let value = &axis.values[ix];
                if let Err(e) = spec.set(&axis.key, value) {
                    apply_err = Some(e);
                    break;
                }
                settings.push((axis.key.clone(), value.clone()));
            }
            let label = point_label(base, axes, &combo);
            match apply_err {
                Some(reason) => plan.skipped.push(SkippedPoint { label, reason }),
                None => {
                    any_applied = true;
                    match spec.validate() {
                        Ok(config) => plan.points.push(PlannedPoint {
                            index: plan.points.len(),
                            label,
                            settings,
                            spec,
                            config,
                        }),
                        Err(e) => plan.skipped.push(SkippedPoint { label, reason: e.msg }),
                    }
                }
            }
            // Odometer increment, last axis fastest.
            let mut i = axes.len();
            loop {
                if i == 0 {
                    if !any_applied {
                        // Every point failed at the same `set` — bad key.
                        let reason = plan
                            .skipped
                            .first()
                            .map(|s| s.reason.clone())
                            .unwrap_or_else(|| "empty sweep".to_owned());
                        return Err(reason);
                    }
                    return Ok(plan);
                }
                i -= 1;
                combo[i] += 1;
                if combo[i] < axes[i].values.len() {
                    break;
                }
                combo[i] = 0;
            }
        }
    }

    /// Expands `axes` over every base in turn and merges the grids into
    /// one plan with globally unique point indices, so multi-spec runs
    /// merge deterministically. Also returns, per point, the index of
    /// the base it came from.
    ///
    /// # Errors
    ///
    /// Returns a message if an axis key applies to no base at all. A key
    /// meaningless for one base (`tlb.entries` on BASE) but valid for
    /// another only skips that base.
    pub fn expand_all(
        bases: &[SystemSpec],
        axes: &[Axis],
    ) -> Result<(SweepPlan, Vec<usize>), String> {
        let mut merged = SweepPlan::default();
        let mut origin = Vec::new();
        let mut last_err = None;
        for (b, base) in bases.iter().enumerate() {
            match SweepPlan::expand(base, axes) {
                Ok(mut plan) => {
                    for mut point in plan.points.drain(..) {
                        point.index = merged.points.len();
                        merged.points.push(point);
                        origin.push(b);
                    }
                    merged.skipped.append(&mut plan.skipped);
                }
                Err(e) => last_err = Some(e),
            }
        }
        if merged.points.is_empty() && merged.skipped.is_empty() {
            if let Some(e) = last_err {
                return Err(e);
            }
        }
        Ok((merged, origin))
    }
}

/// `NAME tlb.entries=64 mmu.table=hashed` — the point's identity in
/// tables, CSV, and skip reports.
fn point_label(base: &SystemSpec, axes: &[Axis], combo: &[usize]) -> String {
    let mut label = base.display_name();
    for (axis, &ix) in axes.iter().zip(combo) {
        label.push(' ');
        label.push_str(&axis.key);
        label.push('=');
        label.push_str(&axis.values[ix]);
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_core::SystemKind;

    #[test]
    fn axis_grammar_parses() {
        let a = Axis::parse("tlb.entries=16, 32,64").unwrap();
        assert_eq!(a.key, "tlb.entries");
        assert_eq!(a.values, ["16", "32", "64"]);
        assert!(Axis::parse("tlb.entries").is_err());
        assert!(Axis::parse("tlb.entries=").is_err());
    }

    #[test]
    fn no_axes_is_the_base_point() {
        let plan = SweepPlan::expand(&SystemSpec::for_kind(SystemKind::Intel), &[]).unwrap();
        assert_eq!(plan.points.len(), 1);
        assert!(plan.skipped.is_empty());
        assert_eq!(plan.points[0].label, "INTEL");
    }

    #[test]
    fn grid_crosses_axes_first_outermost() {
        let axes =
            [Axis::parse("tlb.entries=32,64").unwrap(), Axis::parse("cache.l1=8K,16K").unwrap()];
        let plan = SweepPlan::expand(&SystemSpec::for_kind(SystemKind::Ultrix), &axes).unwrap();
        assert_eq!(plan.points.len(), 4);
        assert_eq!(
            plan.points[0].settings,
            [("tlb.entries".to_owned(), "32".to_owned()), ("cache.l1".to_owned(), "8K".to_owned())]
        );
        assert_eq!(plan.points[1].settings[1].1, "16K");
        assert_eq!(plan.points[2].settings[0].1, "64");
        assert!(plan.points.iter().enumerate().all(|(i, p)| p.index == i));
    }

    #[test]
    fn invalid_combos_are_skipped_with_reasons() {
        // three-tier has no hardware walker: those grid corners skip.
        let base = SystemSpec::for_kind(SystemKind::Intel);
        let axes = [Axis::parse("mmu.table=top-down,three-tier,two-tier").unwrap()];
        let plan = SweepPlan::expand(&base, &axes).unwrap();
        assert_eq!(plan.points.len(), 2);
        assert_eq!(plan.skipped.len(), 1);
        assert!(plan.skipped[0].reason.contains("three-tier"), "{}", plan.skipped[0].reason);
    }

    #[test]
    fn multi_base_plans_reindex_points() {
        let bases =
            [SystemSpec::for_kind(SystemKind::Ultrix), SystemSpec::for_kind(SystemKind::Intel)];
        let axes = [Axis::parse("tlb.entries=32,64").unwrap()];
        let (plan, origin) = SweepPlan::expand_all(&bases, &axes).unwrap();
        assert_eq!(plan.points.len(), 4);
        assert!(plan.points.iter().enumerate().all(|(i, p)| p.index == i));
        assert!(plan.points[0].label.starts_with("ULTRIX"));
        assert!(plan.points[2].label.starts_with("INTEL"));
        assert_eq!(origin, [0, 0, 1, 1]);
    }

    #[test]
    fn tlb_axis_on_base_system_skips_but_does_not_fail() {
        // `tlb.entries` applies to ULTRIX but is nonsense for BASE; the
        // merged plan keeps the valid half and records the rest.
        let bases =
            [SystemSpec::for_kind(SystemKind::Ultrix), SystemSpec::for_kind(SystemKind::Base)];
        let axes = [Axis::parse("tlb.entries=32,64").unwrap()];
        let (plan, _) = SweepPlan::expand_all(&bases, &axes).unwrap();
        assert_eq!(plan.points.len(), 2);
        assert_eq!(plan.skipped.len(), 2);
    }

    #[test]
    fn a_key_that_never_applies_is_an_error() {
        let base = SystemSpec::for_kind(SystemKind::Ultrix);
        let axes = [Axis::parse("tlb.banana=1,2").unwrap()];
        let err = SweepPlan::expand(&base, &axes).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }
}
