//! The global fleet plan: one merged grid, plus what each backend
//! needs to rebuild its slice of it.
//!
//! The coordinator never ships simulation state over the wire — a
//! dispatched point is just the base spec text plus every swept axis
//! pinned to that point's value (`tlb.entries=64`). The backend
//! re-expands that one-point grid through the same
//! [`vm_explore::SweepPlan`] machinery the coordinator used, so labels,
//! settings order, and therefore results are identical *by
//! construction*, not by protocol discipline.

use std::sync::Arc;

use vm_explore::{Axis, SweepPlan, SystemSpec};

/// The merged sweep grid plus, for every point, the base-spec TOML text
/// the owning backend re-expands it from.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// The global plan: points carry fleet-wide indices and labels.
    pub plan: SweepPlan,
    /// Per-point base spec text, parallel to `plan.points`.
    pub spec_toml: Vec<Arc<str>>,
}

impl FleetPlan {
    /// The pinned single-value axes that re-expand to exactly point
    /// `ix` on a backend (`["tlb.entries=64", "cache.l1=8K"]`).
    pub fn pinned_axes(&self, ix: usize) -> Vec<String> {
        self.plan.points[ix].settings.iter().map(|(k, v)| format!("{k}={v}")).collect()
    }
}

/// Plans the grid over every base spec through
/// [`SweepPlan::expand_all`], the planner `repro explore` uses, so fleet
/// point labels and indices match a single-node run exactly.
///
/// `specs` holds raw spec TOML texts (the coordinator keeps the text
/// because that is what the wire protocol carries).
///
/// # Errors
///
/// Returns a message when a spec fails to parse, or when an axis key
/// is rejected by every base.
pub fn fleet_plan(specs: &[String], axes: &[Axis]) -> Result<FleetPlan, String> {
    let bases = specs
        .iter()
        .map(|text| SystemSpec::parse(text).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let (plan, origin) = SweepPlan::expand_all(&bases, axes)?;
    let texts: Vec<Arc<str>> = specs.iter().map(|text| Arc::from(text.as_str())).collect();
    let spec_toml = origin.into_iter().map(|b| Arc::clone(&texts[b])).collect();
    Ok(FleetPlan { plan, spec_toml })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ULTRIX: &str = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n";
    const MACH: &str = "[mmu]\nkind = \"software-tlb\"\ntable = \"inverted\"\n";

    #[test]
    fn pinned_axes_re_expand_to_the_same_point() {
        let axes = vec![Axis::parse("tlb.entries=32,64,128").unwrap()];
        let fp = fleet_plan(&[ULTRIX.to_owned(), MACH.to_owned()], &axes).unwrap();
        assert_eq!(fp.plan.points.len(), 6);
        assert_eq!(fp.spec_toml.len(), 6);
        for (ix, point) in fp.plan.points.iter().enumerate() {
            assert_eq!(point.index, ix, "global reindex");
            // A backend re-expands the pinned axes over the shipped
            // spec text and must land on one point with the same label.
            let pinned: Vec<Axis> =
                fp.pinned_axes(ix).iter().map(|s| Axis::parse(s).unwrap()).collect();
            let base = SystemSpec::parse(&fp.spec_toml[ix]).unwrap();
            let sub = SweepPlan::expand(&base, &pinned).unwrap();
            assert_eq!(sub.points.len(), 1);
            assert_eq!(sub.points[0].label, point.label);
            assert_eq!(sub.points[0].settings, point.settings);
        }
    }

    #[test]
    fn bad_spec_text_is_a_hard_error() {
        assert!(fleet_plan(&["[mmu]\nkind = \"warp\"\n".to_owned()], &[]).is_err());
    }
}
