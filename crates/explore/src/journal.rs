//! Journaling sweep results: the bit-exact [`PointResult`] codec and the
//! plan↔journal compatibility checks behind `repro explore --resume`.
//!
//! The executor's determinism contract is *bit*-identity, so the CPI
//! figures stored in a journal must survive a JSON round-trip exactly.
//! JSON numbers (and this workspace's [`Value::Num`]) are `f64`, but a
//! decimal rendering can drop trailing bits — so every `f64` field is
//! stored as the 16-hex-digit big-endian rendering of its raw bit
//! pattern (`f64::to_bits`), and integers that must stay exact ride the
//! same way when they can exceed 2^53 (none do today, but the codec
//! refuses to guess).

use std::collections::BTreeMap;

use vm_harden::{fingerprint, Journal, RunHeader, JOURNAL_VERSION};
use vm_obs::json::Value;
use vm_trace::wire::{hex64, parse_hex64};

use crate::exec::{ExecConfig, PointResult};
use crate::sweep::SweepPlan;

/// Encodes an `f64` as the hex string of its bit pattern, so decoding
/// reproduces the exact bits (a decimal rendering may not).
fn f64_bits(f: f64) -> Value {
    Value::Str(hex64(f.to_bits()))
}

/// Decodes [`f64_bits`].
fn f64_from_bits(v: &Value) -> Option<f64> {
    parse_hex64(v.as_str()?).map(f64::from_bits)
}

/// Serializes a point result for a journal `payload`.
pub fn result_to_value(r: &PointResult) -> Value {
    let settings = r
        .settings
        .iter()
        .map(|(k, v)| Value::Arr(vec![k.clone().into(), v.clone().into()]))
        .collect();
    Value::obj([
        ("index", (r.index as u64).into()),
        ("label", r.label.clone().into()),
        ("settings", Value::Arr(settings)),
        ("system", r.system.clone().into()),
        ("workload", r.workload.clone().into()),
        ("vmcpi", f64_bits(r.vmcpi)),
        ("interrupt_cpi", f64_bits(r.interrupt_cpi)),
        ("mcpi", f64_bits(r.mcpi)),
        ("vm_total", f64_bits(r.vm_total)),
        ("tlb_area_bytes", r.tlb_area_bytes.into()),
        ("tlb_miss_ratio", r.tlb_miss_ratio.map_or(Value::Null, f64_bits)),
        ("user_instrs", r.user_instrs.into()),
        ("ctx", Value::Str(hex64(r.ctx))),
        ("att", Value::Str(hex64(r.att))),
    ])
}

/// Deserializes [`result_to_value`].
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field.
pub fn result_from_value(v: &Value) -> Result<PointResult, String> {
    let need = |k: &str| v.get(k).ok_or_else(|| format!("payload missing `{k}`"));
    let text = |k: &str| {
        need(k).and_then(|f| {
            f.as_str().map(str::to_owned).ok_or_else(|| format!("payload field `{k}` not a string"))
        })
    };
    let int = |k: &str| {
        need(k)
            .and_then(|f| f.as_u64().ok_or_else(|| format!("payload field `{k}` not an integer")))
    };
    let float = |k: &str| {
        need(k).and_then(|f| {
            f64_from_bits(f).ok_or_else(|| format!("payload field `{k}` not an f64 bit pattern"))
        })
    };
    let hex = |k: &str| {
        need(k).and_then(|f| {
            f.as_str()
                .and_then(parse_hex64)
                .ok_or_else(|| format!("payload field `{k}` not a canonical hex64 string"))
        })
    };
    let settings = need("settings")?
        .as_array()
        .ok_or("payload field `settings` not an array")?
        .iter()
        .map(|pair| {
            let kv = pair.as_array().filter(|a| a.len() == 2);
            match kv.map(|a| (a[0].as_str(), a[1].as_str())) {
                Some((Some(k), Some(val))) => Ok((k.to_owned(), val.to_owned())),
                _ => Err("payload `settings` entries must be [key, value] string pairs".to_owned()),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tlb_miss_ratio = match need("tlb_miss_ratio")? {
        Value::Null => None,
        other => Some(
            f64_from_bits(other).ok_or("payload field `tlb_miss_ratio` not an f64 bit pattern")?,
        ),
    };
    Ok(PointResult {
        index: int("index")? as usize,
        label: text("label")?,
        settings,
        system: text("system")?,
        workload: text("workload")?,
        vmcpi: float("vmcpi")?,
        interrupt_cpi: float("interrupt_cpi")?,
        mcpi: float("mcpi")?,
        vm_total: float("vm_total")?,
        tlb_area_bytes: int("tlb_area_bytes")?,
        tlb_miss_ratio,
        user_instrs: int("user_instrs")?,
        ctx: hex("ctx")?,
        att: hex("att")?,
    })
}

/// Hashes the identity of a sweep — every point label plus the run
/// lengths — for journal/resume compatibility checks.
pub fn plan_fingerprint(plan: &SweepPlan, exec: &ExecConfig) -> u64 {
    fingerprint(plan.points.iter().map(|p| p.label.as_str()), exec.warmup, exec.measure)
}

/// Builds the journal header for a sweep about to run.
pub fn run_header(plan: &SweepPlan, exec: &ExecConfig) -> RunHeader {
    RunHeader {
        version: JOURNAL_VERSION,
        points: plan.points.len() as u64,
        fingerprint: plan_fingerprint(plan, exec),
        warmup: exec.warmup,
        measure: exec.measure,
    }
}

/// Extracts the completed results to seed a resumed sweep with, after
/// verifying the journal belongs to exactly this plan at this scale.
/// Failed or timed-out points are *not* seeded — resume re-runs them.
///
/// # Errors
///
/// Returns a message when the journal has no header, was written by a
/// different plan or scale, or a payload fails to decode.
pub fn seeded_from_journal(
    journal: &Journal,
    plan: &SweepPlan,
    exec: &ExecConfig,
) -> Result<BTreeMap<usize, PointResult>, String> {
    let header = journal.header.ok_or("journal has no run header")?;
    let expect = run_header(plan, exec);
    if header.version != expect.version {
        return Err(format!(
            "journal version {} does not match this build's {}",
            header.version, expect.version
        ));
    }
    if header.points != expect.points || header.fingerprint != expect.fingerprint {
        return Err(
            "journal does not match this sweep (different points, axes, or run lengths)".to_owned()
        );
    }
    let mut seeded = BTreeMap::new();
    for (ix, entry) in journal.latest() {
        if ix >= expect.points {
            return Err(format!("journal point {ix} is out of range for this sweep"));
        }
        if entry.is_done() {
            let payload = entry.payload.as_ref().expect("is_done implies payload");
            let r = result_from_value(payload).map_err(|e| format!("journal point {ix}: {e}"))?;
            // The header fingerprint proves the *labels* match; the
            // attestation proves the *payload* was produced for exactly
            // this spec, seed, and scale by a binary that agrees with
            // this one — a stale-binary restart fails here instead of
            // silently merging unreproducible results.
            crate::attest::verify_in_context(
                &r,
                crate::attest::context_for(&plan.points[ix as usize], exec),
            )
            .map_err(|e| format!("journal point {ix} [integrity]: {e}"))?;
            seeded.insert(ix as usize, r);
        }
    }
    Ok(seeded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointResult {
        let mut r = PointResult {
            index: 3,
            label: "ULTRIX tlb.entries=64".to_owned(),
            settings: vec![("tlb.entries".to_owned(), "64".to_owned())],
            system: "ULTRIX".to_owned(),
            workload: "gcc".to_owned(),
            vmcpi: 0.1 + 0.2, // deliberately not exactly 0.3
            interrupt_cpi: 0.037,
            mcpi: 1.625,
            vm_total: 0.1 + 0.2 + 0.037,
            tlb_area_bytes: 2048,
            tlb_miss_ratio: Some(0.001953125),
            user_instrs: 500_000,
            ctx: 0,
            att: 0,
        };
        crate::attest::seal(&mut r, 0x0123_4567_89ab_cdef);
        r
    }

    #[test]
    fn results_round_trip_bit_exactly_through_json_text() {
        for r in [sample(), PointResult { tlb_miss_ratio: None, ..sample() }] {
            let text = result_to_value(&r).to_string();
            let parsed = vm_obs::json::parse(&text).unwrap();
            let back = result_from_value(&parsed).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.vmcpi.to_bits(), r.vmcpi.to_bits());
        }
    }

    #[test]
    fn decode_reports_the_offending_field() {
        let mut v = result_to_value(&sample());
        if let Value::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "mcpi");
        }
        let e = result_from_value(&v).unwrap_err();
        assert!(e.contains("mcpi"), "{e}");
        let bad = Value::obj([("vmcpi", 0.3.into())]);
        assert!(result_from_value(&bad).is_err());
    }

    #[test]
    fn fingerprint_tracks_plan_and_scale() {
        use crate::spec::SystemSpec;
        use crate::sweep::Axis;
        use vm_core::SystemKind;
        let base = SystemSpec::for_kind(SystemKind::Ultrix);
        let plan = SweepPlan::expand(&base, &[Axis::parse("tlb.entries=32,64").unwrap()]).unwrap();
        let other =
            SweepPlan::expand(&base, &[Axis::parse("tlb.entries=32,128").unwrap()]).unwrap();
        let quick = ExecConfig::QUICK;
        assert_eq!(plan_fingerprint(&plan, &quick), plan_fingerprint(&plan, &quick));
        assert_ne!(plan_fingerprint(&plan, &quick), plan_fingerprint(&other, &quick));
        assert_ne!(plan_fingerprint(&plan, &quick), plan_fingerprint(&plan, &ExecConfig::DEFAULT));
    }
}
