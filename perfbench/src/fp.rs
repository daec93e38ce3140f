//! Results fingerprints and the recorded values they are checked
//! against.
//!
//! A fingerprint is FNV-1a ([`vm_trace::wire::fnv1a`]) over result rows,
//! one row per point with every float printed in full (shortest
//! round-trip form), so a one-ulp change in any result changes the
//! fingerprint. `fingerprints.txt` beside this crate records the
//! expected value per workload and input variant; a run whose
//! fingerprint differs from the record fails.

use std::collections::BTreeMap;
use std::path::Path;

use vm_explore::PointResult;

/// Input variants: a workload seed selects variant `seed % VARIANTS`, so
/// every seed maps onto a recorded fingerprint.
pub const VARIANTS: u64 = 16;

/// The input variant a workload seed selects.
pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

/// The workload-generator seed of an input variant (presets take small
/// seeds; spec files carry them as TOML integers).
pub fn input_seed(variant: u64) -> u64 {
    variant + 1
}

/// One result row: identity, then every measured value in full.
pub fn row(r: &PointResult) -> String {
    format!(
        "{},{},{},{:?},{:?},{:?},{:?},{:?},{},{}",
        r.label,
        r.system,
        r.workload,
        r.vmcpi,
        r.interrupt_cpi,
        r.mcpi,
        r.vm_total,
        r.tlb_miss_ratio,
        r.tlb_area_bytes,
        r.user_instrs
    )
}

/// FNV-1a over `rows`, each terminated by a newline.
pub fn of_rows<I, S>(rows: I) -> u64
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut text = String::new();
    for r in rows {
        text.push_str(r.as_ref());
        text.push('\n');
    }
    vm_trace::wire::fnv1a(text.as_bytes())
}

/// The fingerprint of a result set, rows in the given order.
pub fn of_results(results: &[PointResult]) -> u64 {
    of_rows(results.iter().map(row))
}

/// Recorded fingerprints, by workload and input variant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Records {
    by_key: BTreeMap<(String, u64), u64>,
}

impl Records {
    /// Parses `workload variant hex16` lines; `#` starts a comment.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Records, String> {
        let mut by_key = BTreeMap::new();
        for (ix, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [w, v, h] if h.len() == 16 => {
                    v.parse::<u64>().ok().zip(u64::from_str_radix(h, 16).ok()).map(|kv| (w, kv))
                }
                _ => None,
            };
            let Some((w, (v, h))) = parsed else {
                return Err(format!(
                    "fingerprints line {}: expected `workload variant hex16`",
                    ix + 1
                ));
            };
            by_key.insert(((*w).to_owned(), v), h);
        }
        Ok(Records { by_key })
    }

    /// Loads and parses a records file.
    ///
    /// # Errors
    ///
    /// Propagates read and parse failures.
    pub fn load(path: &Path) -> Result<Records, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Records::parse(&text)
    }

    /// Records `fingerprint` for `workload` at `variant`.
    pub fn insert(&mut self, workload: &str, variant: u64, fingerprint: u64) {
        self.by_key.insert((workload.to_owned(), variant), fingerprint);
    }

    /// The file form of the records.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Results fingerprints per workload and input variant (seed % 16),\n\
             # written by `run.py --record`. A run whose fingerprint differs fails.\n",
        );
        for ((w, v), h) in &self.by_key {
            out.push_str(&format!("{w} {v} {h:016x}\n"));
        }
        out
    }

    /// Checks `got` against the record for `workload` at `variant`.
    ///
    /// # Errors
    ///
    /// Says whether the record is missing or which values disagree.
    pub fn check(&self, workload: &str, variant: u64, got: u64) -> Result<(), String> {
        match self.by_key.get(&(workload.to_owned(), variant)) {
            None => Err(format!("no recorded fingerprint for {workload} variant {variant}")),
            Some(&want) if want == got => Ok(()),
            Some(&want) => Err(format!(
                "{workload} variant {variant}: fingerprint {got:016x} differs from the recorded {want:016x}"
            )),
        }
    }
}
