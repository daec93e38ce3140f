//! Metric names, units, and the statistics the benchmark reports.
//!
//! Every metric the benchmark can print is listed here once, with its
//! unit; `BENCHMARK.json` at the repository root names the same lists
//! (a self-test keeps the two in step).

use std::collections::BTreeMap;

use vm_obs::json::Value;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("points_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The paper systems, as they appear in per-system metric names.
pub const SYSTEM_KEYS: [&str; 6] = ["ultrix", "mach", "intel", "pa-risc", "notlb", "base"];

/// The page-table walkers, as they appear in per-walker metric names.
pub const WALKER_KEYS: [&str; 6] = ["ultrix", "mach", "x86", "hashed", "inverted", "disjunct"];

/// The crates whose span self time the traced run reports.
pub const CRATES: [&str; 12] = [
    "trace",
    "core",
    "tlb",
    "ptable",
    "cache",
    "obs",
    "explore",
    "harden",
    "experiments",
    "serve",
    "supervise",
    "fleet",
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_owned(), unit));
    add("trace.synth_ns_per_instr", "ns");
    add("trace.decode_ns_per_instr", "ns");
    add("trace.records", "count");
    for s in SYSTEM_KEYS {
        add(&format!("core.step_ns_per_instr.{s}"), "ns");
    }
    add("core.build_us", "us");
    add("core.instrs", "count");
    add("tlb.probe_ns", "ns");
    add("tlb.lookups", "count");
    add("tlb.miss_ratio", "ratio");
    for w in WALKER_KEYS {
        add(&format!("ptable.refill_ns.{w}"), "ns");
    }
    add("ptable.walks", "count");
    add("cache.access_ns", "ns");
    add("cache.accesses", "count");
    add("cache.l1_miss_ratio", "ratio");
    add("explore.point_busy_s", "s");
    add("explore.exec_overhead_s", "s");
    add("explore.seal_us", "us");
    add("explore.codec_us", "us");
    add("harden.journal_append_us", "us");
    add("experiments.runner_overhead_s", "s");
    add("serve.submit_ms", "ms");
    add("serve.queue_wait_ms", "ms");
    add("serve.run_ms", "ms");
    add("serve.result_ms", "ms");
    add("serve.shed", "count");
    add("supervise.wire_ms", "ms");
    add("supervise.restarts", "count");
    add("fleet.dispatch_ms", "ms");
    add("fleet.useful_ratio", "ratio");
    add("fleet.hedged", "count");
    add("obs.nop_sink_ratio", "ratio");
    add("obs.stats_sink_ratio", "ratio");
    for c in CRATES {
        add(&format!("self_ms.{c}"), "ms");
    }
    add("failed_frac", "ratio");
    add("tracing.wall_untraced_s", "s");
    add("tracing.wall_traced_s", "s");
    add("tracing.overhead_pct", "%");
    m
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The median of `xs` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// A tail percentile chosen by [`tail_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// The percentile that rank represents (0–100).
    pub pct: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

/// The highest nearest-rank percentile no higher than `want` (a
/// fraction, e.g. `0.9`) that leaves at least `min_beyond` samples
/// beyond it. With too few samples for any such rank at or above the
/// median, falls back to the median, whatever remains beyond it.
///
/// Returns `None` only for an empty sample.
pub fn tail_percentile(samples: &[f64], want: f64, min_beyond: usize) -> Option<Tail> {
    let n = samples.len();
    let mid = median(samples)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let wanted_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted_rank.min(n.saturating_sub(min_beyond));
    if rank < n.div_ceil(2) {
        return Some(Tail { value: mid, pct: 50.0, samples: n, beyond: n / 2 });
    }
    let pct = if rank == wanted_rank { 100.0 * want } else { 100.0 * rank as f64 / n as f64 };
    Some(Tail { value: v[rank - 1], pct, samples: n, beyond: n - rank })
}

/// Outcome counts for the units of work a run attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units attempted (points, jobs, or simulations).
    pub attempted: u64,
    /// Units that ran but failed (including timeouts and job failures).
    pub failed: u64,
    /// Submissions the service shed (`503`).
    pub shed: u64,
    /// Submissions the service refused for any other reason.
    pub refused: u64,
}

impl Tally {
    /// Every unit that did not produce a result.
    pub fn lost(&self) -> u64 {
        (self.failed + self.shed + self.refused).min(self.attempted)
    }

    /// Failed, shed or refused units divided by units attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.lost() as f64 / self.attempted as f64
    }

    /// Counts every attempted unit as failed (a fingerprint mismatch
    /// makes every result of the run suspect).
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
    }

    /// Adds `other`'s counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.refused += other.refused;
    }
}

/// How the service answered one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted as the given job id.
    Admitted(u64),
    /// Shed under load (`503`).
    Shed,
    /// Refused with another status code.
    Refused(u16),
}

impl Admission {
    /// Classifies a `submit` response.
    pub fn of(resp: &Value) -> Admission {
        let code = resp.get("code").and_then(Value::as_u64).unwrap_or(0);
        match (code, resp.get("job").and_then(Value::as_u64)) {
            (200, Some(id)) => Admission::Admitted(id),
            (503, _) => Admission::Shed,
            (c, _) => Admission::Refused(c.min(u64::from(u16::MAX)) as u16),
        }
    }

    /// Records the admission in `tally` (one attempted unit).
    pub fn count(self, tally: &mut Tally) {
        tally.attempted += 1;
        match self {
            Admission::Admitted(_) => {}
            Admission::Shed => tally.shed += 1,
            Admission::Refused(_) => tally.refused += 1,
        }
    }
}

/// Metric values by name, rendered as the final result line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// The last line of the benchmark's output: `correct`, `attempted`,
    /// `failed`, and the listed metrics with their units. Listed metrics
    /// that were not measured, or came out non-finite, are an error.
    ///
    /// # Errors
    ///
    /// Names the first missing or non-finite metric.
    pub fn result_line(
        &self,
        names: &[(String, &'static str)],
        correct: bool,
        tally: Tally,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = *self.values.get(name).ok_or_else(|| format!("metric {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let entry = Value::Obj(vec![
                ("value".to_owned(), Value::Num(value)),
                ("unit".to_owned(), Value::Str((*unit).to_owned())),
            ]);
            metrics.push((name.clone(), entry));
        }
        let line = Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(correct)),
            ("attempted".to_owned(), tally.attempted.max(1).into()),
            ("failed".to_owned(), tally.lost().into()),
            ("metrics".to_owned(), Value::Obj(metrics)),
        ]);
        Ok(line.to_string())
    }
}

/// The end-to-end list in the owned form [`Report::result_line`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
}
