//! Declarative system specifications.
//!
//! A [`SystemSpec`] describes one point in the paper's design space —
//! refill mechanism × page-table organization × TLB geometry × cache
//! hierarchy × handler/interrupt costs — as a small, dependency-free
//! TOML-subset document:
//!
//! ```toml
//! [system]
//! name = "ULTRIX"
//!
//! [mmu]
//! kind = "software-tlb"
//! table = "two-tier"
//!
//! [tlb]
//! entries = 128
//! replacement = "random"
//!
//! [cache]
//! l1 = "16K"
//! l2 = "1M"
//! ```
//!
//! Every key is optional except `mmu.kind` and `mmu.table`; omitted keys
//! take the paper's Table 1 defaults, so each of the six published
//! systems is a ten-line file. [`SystemSpec::parse`] reads a document,
//! [`SystemSpec::validate`] rejects nonsensical combinations with precise
//! errors, and validation lowers the spec onto the `vm-core`
//! [`SimConfig`] that drives the simulator. [`SystemSpec::set`] applies a
//! dotted-key override (`tlb.entries=64`) — the primitive sweep axes are
//! built on.

use std::fmt;

use vm_cache::Associativity;
use vm_core::{AsidMode, MmuClass, SimConfig, SystemKind, TableOrg};
use vm_tlb::Replacement;

/// The paper's 4 KB page size — the only size the address arithmetic
/// models (specs saying anything else are rejected with a pointer here).
pub const PAGE_BYTES: u64 = 4096;

/// A parsed, not-necessarily-valid system specification.
///
/// Field defaults mirror [`SimConfig::paper_default`], so a spec that
/// only names its `[mmu]` section lowers to exactly the hard-coded paper
/// configuration for that system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Optional display name (`[system] name`); defaults to the composed
    /// system's label.
    pub name: Option<String>,
    /// The TLB-refill mechanism (`[mmu] kind`).
    pub mmu: MmuClass,
    /// The page-table organization (`[mmu] table`).
    pub table: TableOrg,
    /// Entries per split TLB (`[tlb] entries`).
    pub tlb_entries: usize,
    /// TLB replacement policy (`[tlb] replacement`).
    pub tlb_replacement: Replacement,
    /// Protected lower slots (`[tlb] protected`); `None` keeps the
    /// paper's per-system policy (16 for the MIPS-flavoured systems).
    pub tlb_protected: Option<usize>,
    /// Page size in bytes (`[memory] page`); only 4096 is modelled.
    pub page_bytes: u64,
    /// L1 size per side in bytes (`[cache] l1`).
    pub l1_bytes: u64,
    /// L1 line size in bytes (`[cache] l1-line`).
    pub l1_line: u64,
    /// L2 size per side in bytes (`[cache] l2`).
    pub l2_bytes: u64,
    /// L2 line size in bytes (`[cache] l2-line`).
    pub l2_line: u64,
    /// Cache associativity (`[cache] assoc`).
    pub cache_assoc: Associativity,
    /// Replace split L2s with one unified L2 of equal total capacity
    /// (`[cache] unified`).
    pub unified_l2: bool,
    /// Simulated physical memory (`[memory] phys`), which sizes the
    /// hashed/inverted tables.
    pub phys_mem_bytes: u64,
    /// Cycles per precise interrupt (`[costs] interrupt`).
    pub interrupt_cycles: u64,
    /// TLB random-replacement seed (`[sim] seed`).
    pub seed: u64,
    /// Workload preset name (`[workload] name`); defaults to `gcc`.
    pub workload: Option<String>,
    /// Workload generator seed (`[workload] seed`).
    pub trace_seed: u64,
}

impl SystemSpec {
    /// The spec for a composed system with all paper defaults.
    pub fn new(mmu: MmuClass, table: TableOrg) -> SystemSpec {
        let defaults = SimConfig::paper_default(SystemKind::Ultrix);
        SystemSpec {
            name: None,
            mmu,
            table,
            tlb_entries: defaults.tlb_entries,
            tlb_replacement: defaults.tlb_replacement,
            tlb_protected: None,
            page_bytes: PAGE_BYTES,
            l1_bytes: defaults.l1_bytes,
            l1_line: defaults.l1_line,
            l2_bytes: defaults.l2_bytes,
            l2_line: defaults.l2_line,
            cache_assoc: defaults.associativity,
            unified_l2: defaults.unified_l2,
            phys_mem_bytes: defaults.phys_mem_bytes,
            interrupt_cycles: 50,
            seed: defaults.seed,
            workload: None,
            trace_seed: 1,
        }
    }

    /// The spec equivalent of a hard-coded [`SystemKind`] preset.
    pub fn for_kind(kind: SystemKind) -> SystemSpec {
        let (mmu, table) = kind.decompose();
        let mut spec = SystemSpec::new(mmu, table);
        spec.name = Some(kind.label().to_owned());
        spec
    }

    /// The display name: `[system] name` if given, else the composed
    /// system's label (or `mmu/table` while the pair is invalid).
    pub fn display_name(&self) -> String {
        match (&self.name, SystemKind::compose(self.mmu, self.table)) {
            (Some(name), _) => name.clone(),
            (None, Ok(kind)) => kind.label().to_owned(),
            (None, Err(_)) => format!("{}/{}", self.mmu, self.table),
        }
    }

    /// The workload preset this spec runs (`gcc` unless overridden).
    pub fn workload_name(&self) -> &str {
        self.workload.as_deref().unwrap_or("gcc")
    }

    /// Parses a TOML-subset document.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with the offending line for syntax errors,
    /// unknown sections/keys, type mismatches, and a missing `[mmu]`
    /// section. Semantic validity is checked separately by
    /// [`SystemSpec::validate`].
    pub fn parse(text: &str) -> Result<SystemSpec, SpecError> {
        let mut mmu: Option<MmuClass> = None;
        let mut table: Option<TableOrg> = None;
        let mut staged: Vec<(String, String, Raw, usize)> = Vec::new();
        let mut section = String::new();
        for (ix, raw_line) in text.lines().enumerate() {
            let line = ix + 1;
            let stripped = strip_comment(raw_line).trim();
            if stripped.is_empty() {
                continue;
            }
            if let Some(inner) = stripped.strip_prefix('[') {
                let Some(name) = inner.strip_suffix(']') else {
                    return Err(SpecError::at(line, "unterminated `[section]` header"));
                };
                section = name.trim().to_owned();
                if !SECTIONS.contains(&section.as_str()) {
                    return Err(SpecError::at(
                        line,
                        format!("unknown section `[{section}]` (known: {})", list(SECTIONS)),
                    ));
                }
                continue;
            }
            let Some((key, value)) = stripped.split_once('=') else {
                return Err(SpecError::at(
                    line,
                    format!("expected `key = value`, got `{stripped}`"),
                ));
            };
            if section.is_empty() {
                return Err(SpecError::at(line, "keys must appear inside a `[section]`"));
            }
            let key = key.trim().to_owned();
            let value = parse_value(value.trim()).map_err(|msg| SpecError::at(line, msg))?;
            // `mmu.kind`/`mmu.table` are consumed immediately (they pick
            // the struct); everything else is staged and applied below.
            match (section.as_str(), key.as_str()) {
                ("mmu", "kind") => {
                    let s = value.expect_str("mmu.kind").map_err(|m| SpecError::at(line, m))?;
                    mmu = Some(MmuClass::parse(&s).ok_or_else(|| {
                        SpecError::at(
                            line,
                            format!(
                                "unknown mmu kind `{s}` (known: {})",
                                list_of(MmuClass::ALL.iter().map(|c| c.label()))
                            ),
                        )
                    })?);
                }
                ("mmu", "table") => {
                    let s = value.expect_str("mmu.table").map_err(|m| SpecError::at(line, m))?;
                    table = Some(TableOrg::parse(&s).ok_or_else(|| {
                        SpecError::at(
                            line,
                            format!(
                                "unknown page-table organization `{s}` (known: {})",
                                list_of(TableOrg::ALL.iter().map(|t| t.label()))
                            ),
                        )
                    })?);
                }
                _ => staged.push((section.clone(), key, value, line)),
            }
        }
        let (Some(mmu), Some(table)) = (mmu, table) else {
            return Err(SpecError::at(
                0,
                "a spec needs an `[mmu]` section with both `kind` and `table`",
            ));
        };
        let mut spec = SystemSpec::new(mmu, table);
        for (section, key, value, line) in staged {
            spec.apply(&section, &key, value).map_err(|msg| SpecError::at(line, msg))?;
        }
        Ok(spec)
    }

    /// Applies a dotted-key override, e.g. `set("tlb.entries", "64")` or
    /// `set("mmu.table", "hashed")` — the primitive sweep axes use.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys or unparseable values.
    pub fn set(&mut self, dotted: &str, value: &str) -> Result<(), String> {
        let Some((section, key)) = dotted.split_once('.') else {
            return Err(format!("key `{dotted}` must be `section.key` (e.g. `tlb.entries`)"));
        };
        if !SECTIONS.contains(&section) {
            return Err(format!("unknown section `{section}` (known: {})", list(SECTIONS)));
        }
        let raw = parse_cli_value(value);
        match (section, key) {
            ("mmu", "kind") => {
                let s = raw.expect_str("mmu.kind")?;
                self.mmu = MmuClass::parse(&s).ok_or_else(|| {
                    format!(
                        "unknown mmu kind `{s}` (known: {})",
                        list_of(MmuClass::ALL.iter().map(|c| c.label()))
                    )
                })?;
                Ok(())
            }
            ("mmu", "table") => {
                let s = raw.expect_str("mmu.table")?;
                self.table = TableOrg::parse(&s).ok_or_else(|| {
                    format!(
                        "unknown page-table organization `{s}` (known: {})",
                        list_of(TableOrg::ALL.iter().map(|t| t.label()))
                    )
                })?;
                Ok(())
            }
            _ => self.apply(section, key, raw),
        }
    }

    /// Applies one staged `section.key = value` (everything except
    /// `mmu.kind`/`mmu.table`, which select the composition itself).
    fn apply(&mut self, section: &str, key: &str, value: Raw) -> Result<(), String> {
        match (section, key) {
            ("system", "name") => self.name = Some(value.expect_str("system.name")?),
            ("tlb", "entries") => self.tlb_entries = value.expect_count("tlb.entries")?,
            ("tlb", "assoc") => {
                let s = value.expect_str("tlb.assoc")?;
                if !s.eq_ignore_ascii_case("full") {
                    return Err(format!(
                        "tlb.assoc `{s}` is not modelled: the paper's TLBs are fully \
                         associative (use \"full\" or omit the key)"
                    ));
                }
            }
            ("tlb", "replacement") => {
                let s = value.expect_str("tlb.replacement")?;
                self.tlb_replacement = Replacement::parse(&s).ok_or_else(|| {
                    format!("unknown tlb.replacement `{s}` (known: random, lru, fifo)")
                })?;
            }
            ("tlb", "protected") => self.tlb_protected = Some(value.expect_count("tlb.protected")?),
            ("cache", "l1") => self.l1_bytes = value.expect_size("cache.l1")?,
            ("cache", "l1-line") => self.l1_line = value.expect_size("cache.l1-line")?,
            ("cache", "l2") => self.l2_bytes = value.expect_size("cache.l2")?,
            ("cache", "l2-line") => self.l2_line = value.expect_size("cache.l2-line")?,
            ("cache", "assoc") => {
                let s = value.expect_str("cache.assoc")?;
                self.cache_assoc = Associativity::parse(&s).ok_or_else(|| {
                    format!("unknown cache.assoc `{s}` (use \"direct-mapped\" or \"N-way\")")
                })?;
            }
            ("cache", "unified") => self.unified_l2 = value.expect_bool("cache.unified")?,
            ("memory", "phys") => self.phys_mem_bytes = value.expect_size("memory.phys")?,
            ("memory", "page") => self.page_bytes = value.expect_size("memory.page")?,
            ("costs", "interrupt") => {
                self.interrupt_cycles = value.expect_count("costs.interrupt")? as u64
            }
            ("sim", "seed") => self.seed = value.expect_u64("sim.seed")?,
            ("workload", "name") => self.workload = Some(value.expect_str("workload.name")?),
            ("workload", "seed") => self.trace_seed = value.expect_u64("workload.seed")?,
            _ => {
                return Err(format!(
                    "unknown key `{key}` in `[{section}]` (known: {})",
                    section_keys(section)
                ))
            }
        }
        Ok(())
    }

    /// Checks the spec for nonsensical combinations and lowers it onto
    /// the `vm-core` configuration machinery.
    ///
    /// # Errors
    ///
    /// Returns a precise, self-contained message for: an MMU/table pair
    /// the simulator has no model for, TLB geometry on a TLB-less system,
    /// unmodelled page sizes, zero interrupt cost, an unknown workload
    /// preset, and any cache/TLB geometry `vm-core` itself rejects.
    pub fn validate(&self) -> Result<SimConfig, ValidateError> {
        let err = |msg: String| Err(ValidateError { spec: self.display_name(), msg });
        let kind = match SystemKind::compose(self.mmu, self.table) {
            Ok(kind) => kind,
            Err(e) => return err(e.to_string()),
        };
        if !self.mmu.has_tlb() {
            let defaults = SystemSpec::new(self.mmu, self.table);
            if (self.tlb_entries, self.tlb_replacement, self.tlb_protected)
                != (defaults.tlb_entries, defaults.tlb_replacement, defaults.tlb_protected)
            {
                return err(format!(
                    "a `{}` system has no TLB; remove the `[tlb]` section",
                    self.mmu
                ));
            }
        }
        if self.page_bytes != PAGE_BYTES {
            return err(format!(
                "page size {} is not modelled: the address arithmetic is fixed at the \
                 paper's 4 KB pages (memory.page = 4096)",
                self.page_bytes
            ));
        }
        if self.interrupt_cycles == 0 {
            return err("costs.interrupt must be at least 1 cycle".to_owned());
        }
        if let Some(p) = self.tlb_protected {
            if p >= self.tlb_entries {
                return err(format!(
                    "tlb.protected = {p} must leave at least one user slot in a \
                     {}-entry TLB",
                    self.tlb_entries
                ));
            }
        }
        if let Some(trace) = vm_trace::trace_workload(self.workload_name()) {
            // A `trace:NAME` workload replays a library trace. Only the
            // name's grammar is checkable here — whether the trace
            // exists depends on the library directory the executor runs
            // against, so existence is resolved at measure time (as a
            // structured `ingest` failure, not a crash).
            if !vm_trace::valid_trace_name(trace) {
                return err(format!(
                    "invalid trace workload `{}` (want trace:NAME with 1-64 chars \
                     of [a-z0-9._-], not starting with `.` or `-`)",
                    self.workload_name()
                ));
            }
        } else if vm_trace::presets::by_name(self.workload_name()).is_none() {
            return err(format!(
                "unknown workload `{}` (known: gcc, vortex, ijpeg, li, compress, perl; \
                 or trace:NAME for an ingested library trace)",
                self.workload_name()
            ));
        }
        let config = self.lower(kind);
        // Delegate geometry checking (power-of-two caches, line/size
        // relations, TLB slot counts) to the builders that own the rules.
        config
            .build()
            .map_err(|e| ValidateError { spec: self.display_name(), msg: e.to_string() })?;
        Ok(config)
    }

    /// Lowers the spec onto a [`SimConfig`] without validating. Most
    /// callers want [`SystemSpec::validate`].
    fn lower(&self, kind: SystemKind) -> SimConfig {
        let mut config = SimConfig::paper_default(kind);
        config.l1_bytes = self.l1_bytes;
        config.l1_line = self.l1_line;
        config.l2_bytes = self.l2_bytes;
        config.l2_line = self.l2_line;
        config.associativity = self.cache_assoc;
        config.unified_l2 = self.unified_l2;
        config.tlb_entries = self.tlb_entries;
        config.tlb_replacement = self.tlb_replacement;
        config.tlb_protected = self.tlb_protected;
        config.asid_mode = AsidMode::Tagged;
        config.flush_tlb_every = None;
        config.phys_mem_bytes = self.phys_mem_bytes;
        config.seed = self.seed;
        config
    }

    /// Prints the canonical TOML form. `parse(to_toml(spec)) == spec`
    /// for every representable spec (the round-trip property test pins
    /// this).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        if let Some(name) = &self.name {
            line("[system]".to_owned());
            line(format!("name = \"{name}\""));
            line(String::new());
        }
        line("[mmu]".to_owned());
        line(format!("kind = \"{}\"", self.mmu));
        line(format!("table = \"{}\"", self.table));
        if self.mmu.has_tlb() {
            line(String::new());
            line("[tlb]".to_owned());
            line(format!("entries = {}", self.tlb_entries));
            line(format!("replacement = \"{}\"", self.tlb_replacement));
            if let Some(p) = self.tlb_protected {
                line(format!("protected = {p}"));
            }
        }
        line(String::new());
        line("[cache]".to_owned());
        line(format!("l1 = {}", size_toml(self.l1_bytes)));
        line(format!("l1-line = {}", self.l1_line));
        line(format!("l2 = {}", size_toml(self.l2_bytes)));
        line(format!("l2-line = {}", self.l2_line));
        line(format!("assoc = \"{}\"", self.cache_assoc));
        line(format!("unified = {}", self.unified_l2));
        line(String::new());
        line("[memory]".to_owned());
        line(format!("phys = {}", size_toml(self.phys_mem_bytes)));
        line(format!("page = {}", self.page_bytes));
        line(String::new());
        line("[costs]".to_owned());
        line(format!("interrupt = {}", self.interrupt_cycles));
        line(String::new());
        line("[sim]".to_owned());
        line(format!("seed = {}", self.seed));
        if self.workload.is_some() || self.trace_seed != 1 {
            line(String::new());
            line("[workload]".to_owned());
            if let Some(w) = &self.workload {
                line(format!("name = \"{w}\""));
            }
            line(format!("seed = {}", self.trace_seed));
        }
        out
    }
}

/// The sections a spec document may contain.
const SECTIONS: &[&str] = &["system", "mmu", "tlb", "cache", "memory", "costs", "sim", "workload"];

/// Known keys per section, for "unknown key" error messages.
fn section_keys(section: &str) -> &'static str {
    match section {
        "system" => "name",
        "mmu" => "kind, table",
        "tlb" => "entries, assoc, replacement, protected",
        "cache" => "l1, l1-line, l2, l2-line, assoc, unified",
        "memory" => "phys, page",
        "costs" => "interrupt",
        "sim" => "seed",
        "workload" => "name, seed",
        _ => "(none)",
    }
}

fn list(items: &[&str]) -> String {
    list_of(items.iter().copied())
}

fn list_of<'a>(items: impl Iterator<Item = &'a str>) -> String {
    items.map(|s| format!("`{s}`")).collect::<Vec<_>>().join(", ")
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// A scalar spec value: the TOML subset knows integers, strings, and
/// booleans.
#[derive(Debug, Clone, PartialEq)]
enum Raw {
    Int(i128),
    Str(String),
    Bool(bool),
}

impl Raw {
    fn type_name(&self) -> &'static str {
        match self {
            Raw::Int(_) => "an integer",
            Raw::Str(_) => "a string",
            Raw::Bool(_) => "a boolean",
        }
    }

    fn expect_str(self, key: &str) -> Result<String, String> {
        match self {
            Raw::Str(s) => Ok(s),
            other => Err(format!("{key} expects a string, got {}", other.type_name())),
        }
    }

    fn expect_bool(self, key: &str) -> Result<bool, String> {
        match self {
            Raw::Bool(b) => Ok(b),
            other => Err(format!("{key} expects true/false, got {}", other.type_name())),
        }
    }

    fn expect_u64(self, key: &str) -> Result<u64, String> {
        match self {
            Raw::Int(n) => u64::try_from(n)
                .map_err(|_| format!("{key} must fit an unsigned 64-bit integer, got {n}")),
            other => Err(format!("{key} expects an integer, got {}", other.type_name())),
        }
    }

    fn expect_count(self, key: &str) -> Result<usize, String> {
        self.expect_u64(key).map(|n| n as usize)
    }

    /// A byte size: an integer, or a string with a K/M suffix (`"16K"`).
    fn expect_size(self, key: &str) -> Result<u64, String> {
        match self {
            Raw::Int(n) => {
                u64::try_from(n).map_err(|_| format!("{key} must be a non-negative size, got {n}"))
            }
            Raw::Str(s) => parse_size(&s).map_err(|e| format!("{key}: {e}")),
            other => Err(format!("{key} expects a size, got {}", other.type_name())),
        }
    }
}

/// Parses a byte size, `512`, `16K` or `1M`, the one size grammar of
/// spec files and `repro` flags.
///
/// # Errors
///
/// Names the text when it is not a size or when it overflows 64 bits.
pub fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, shift) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 20),
        _ => (s, 0),
    };
    let n: u64 = num.parse().map_err(|_| format!("`{s}` is not a size (e.g. 512, 16K, 1M)"))?;
    n.checked_mul(1u64 << shift).ok_or_else(|| format!("`{s}` overflows 64 bits"))
}

/// Renders a byte count as its shortest TOML value (`"16K"`, `"1M"`, or
/// a bare integer).
fn size_toml(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("\"{}M\"", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("\"{}K\"", bytes >> 10)
    } else {
        bytes.to_string()
    }
}

/// Parses one TOML value token.
fn parse_value(token: &str) -> Result<Raw, String> {
    if let Some(rest) = token.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(format!("unterminated string `{token}`"));
        };
        if inner.contains('"') {
            return Err(format!("strings cannot contain `\"`: `{token}`"));
        }
        return Ok(Raw::Str(inner.to_owned()));
    }
    match token {
        "true" => Ok(Raw::Bool(true)),
        "false" => Ok(Raw::Bool(false)),
        // i128 covers the full u64 range (seeds) plus negatives for
        // readable "must be non-negative" errors.
        _ => token
            .replace('_', "")
            .parse::<i128>()
            .map(Raw::Int)
            .map_err(|_| format!("`{token}` is not an integer, string, or boolean")),
    }
}

/// Interprets a bare CLI token (`--sweep tlb.entries=64`): boolean, then
/// integer, then string (so `two-tier` and `16K` need no quotes).
fn parse_cli_value(token: &str) -> Raw {
    match token {
        "true" => Raw::Bool(true),
        "false" => Raw::Bool(false),
        _ => token.parse::<i128>().map(Raw::Int).unwrap_or_else(|_| Raw::Str(token.to_owned())),
    }
}

/// A syntax or typing error in a spec document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based source line (0 for document-level errors).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl SpecError {
    fn at(line: usize, msg: impl Into<String>) -> SpecError {
        SpecError { line, msg: msg.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

/// A semantic rejection from [`SystemSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// The spec's display name, for multi-spec error reports.
    pub spec: String,
    /// What is nonsensical about the combination.
    pub msg: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec `{}`: {}", self.spec, self.msg)
    }
}

impl std::error::Error for ValidateError {}

#[cfg(test)]
mod tests {
    use super::*;

    const ULTRIX: &str = r#"
        [system]
        name = "ULTRIX"

        [mmu]
        kind = "software-tlb"   # MIPS-style refill exceptions
        table = "two-tier"

        [tlb]
        entries = 128
        replacement = "random"
    "#;

    #[test]
    fn minimal_spec_lowers_to_the_paper_default() {
        let spec = SystemSpec::parse(ULTRIX).unwrap();
        assert_eq!(spec.display_name(), "ULTRIX");
        let config = spec.validate().unwrap();
        assert_eq!(config, SimConfig::paper_default(SystemKind::Ultrix));
    }

    #[test]
    fn defaults_match_paper_default_for_every_kind() {
        for kind in SystemKind::PAPER {
            let config = SystemSpec::for_kind(kind).validate().unwrap();
            assert_eq!(config, SimConfig::paper_default(kind), "{kind}");
        }
    }

    #[test]
    fn sizes_parse_with_suffixes() {
        let spec = SystemSpec::parse(
            "[mmu]\nkind = \"hardware-tlb\"\ntable = \"top-down\"\n[cache]\nl1 = \"32K\"\nl2 = 2097152\n",
        )
        .unwrap();
        assert_eq!(spec.l1_bytes, 32 << 10);
        assert_eq!(spec.l2_bytes, 2 << 20);
    }

    #[test]
    fn an_overflowing_size_is_refused_naming_the_overflow() {
        // 2^44 + 1 MiB overflows 64 bits; a saturating parse read 2^64 - 1 bytes.
        let text = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n[cache]\nl2 = \"17592186044417M\"\n";
        let err = SystemSpec::parse(text).unwrap_err().to_string();
        assert!(err.contains("cache.l2: `17592186044417M` overflows 64 bits"), "{err}");
    }

    /// The validation error of `specs/NAME` with `extra` appended.
    fn shipped_spec_refusal(name: &str, extra: &str) -> String {
        let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).unwrap() + extra;
        SystemSpec::parse(&text).unwrap().validate().unwrap_err().to_string()
    }

    #[test]
    fn an_l1_past_the_host_memory_limit_is_refused_before_allocation() {
        let err = shipped_spec_refusal("ultrix.toml", "[cache]\nl1 = \"8388608M\"\n");
        assert_eq!(
            err,
            "spec `ULTRIX`: cannot build simulation: its caches, TLBs and page tables would \
             take 2199023396864 bytes of host memory, over the 1073741824-byte limit"
        );
    }

    #[test]
    fn an_l2_past_the_host_memory_limit_is_refused_before_allocation() {
        let err = shipped_spec_refusal("ultrix.toml", "[cache]\nl2 = \"16777216M\"\n");
        assert_eq!(
            err,
            "spec `ULTRIX`: cannot build simulation: its caches, TLBs and page tables would \
             take 2199023269888 bytes of host memory, over the 1073741824-byte limit"
        );
    }

    #[test]
    fn a_tlb_past_the_host_memory_limit_is_refused_before_allocation() {
        let err = shipped_spec_refusal("ultrix.toml", "[tlb]\nentries = 4000000000\n");
        assert_eq!(
            err,
            "spec `ULTRIX`: cannot build simulation: its caches, TLBs and page tables would \
             take 320000135168 bytes of host memory, over the 1073741824-byte limit"
        );
    }

    #[test]
    fn a_table_sized_by_physical_memory_out_of_bounds_is_refused_before_allocation() {
        let err = shipped_spec_refusal("pa-risc.toml", "[memory]\nphys = \"16777216M\"\n");
        assert_eq!(
            err,
            "spec `PA-RISC`: cannot build simulation: a hashed page table of 8589934592 entries \
             overruns its reserved span of 180224 (physical memory is limited to 256 MB)"
        );
        // Under one page, the hashed (PA-RISC, HYBRID) and inverted
        // (INV-HAT) tables have no frame to map.
        let mmus = ["", "[mmu]\nkind = \"hardware-tlb\"\n", "[mmu]\ntable = \"inverted\"\n"];
        for (mmu, phys) in mmus.into_iter().zip([0, 4095, 0]) {
            let err =
                shipped_spec_refusal("pa-risc.toml", &format!("{mmu}[memory]\nphys = {phys}\n"));
            assert_eq!(
                err,
                format!(
                    "spec `PA-RISC`: cannot build simulation: physical memory of {phys} bytes \
                     holds no 4096-byte page frame"
                ),
                "{mmu}"
            );
        }
    }

    #[test]
    fn set_overrides_dotted_keys() {
        let mut spec = SystemSpec::for_kind(SystemKind::Ultrix);
        spec.set("tlb.entries", "64").unwrap();
        spec.set("mmu.table", "hashed").unwrap();
        assert_eq!(spec.tlb_entries, 64);
        assert_eq!(spec.table, TableOrg::Hashed);
        assert!(spec.set("tlb.banana", "1").unwrap_err().contains("known: entries"));
        assert!(spec.set("entries", "1").unwrap_err().contains("section.key"));
    }

    #[test]
    fn nonsense_combos_are_rejected_precisely() {
        let mut spec = SystemSpec::new(MmuClass::HardwareTlb, TableOrg::ThreeTier);
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("three-tier") && msg.contains("supports"), "{msg}");

        spec = SystemSpec::new(MmuClass::SoftwareNoTlb, TableOrg::TwoTier);
        spec.tlb_entries = 64;
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("no TLB"), "{msg}");

        spec = SystemSpec::for_kind(SystemKind::Intel);
        spec.page_bytes = 8192;
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("4 KB"), "{msg}");

        spec = SystemSpec::for_kind(SystemKind::Intel);
        spec.workload = Some("specint2000".to_owned());
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("unknown workload"), "{msg}");

        spec = SystemSpec::for_kind(SystemKind::Ultrix);
        spec.l1_bytes = 3000;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = SystemSpec::parse("[mmu]\nkind: \"software-tlb\"\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("key = value"));

        let err = SystemSpec::parse("[mmu]\nkind = \"vax\"\n").unwrap_err();
        assert!(err.to_string().contains("unknown mmu kind"), "{err}");

        let err = SystemSpec::parse("[tlb]\nentries = 64\n").unwrap_err();
        assert!(err.to_string().contains("[mmu]"), "{err}");

        let err = SystemSpec::parse("[banana]\n").unwrap_err();
        assert!(err.to_string().contains("unknown section"), "{err}");
    }

    #[test]
    fn to_toml_round_trips() {
        let mut spec = SystemSpec::for_kind(SystemKind::PaRisc);
        spec.tlb_entries = 64;
        spec.workload = Some("vortex".to_owned());
        spec.trace_seed = 7;
        spec.tlb_protected = Some(8);
        let reparsed = SystemSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn comments_respect_strings() {
        assert_eq!(strip_comment("a = \"x#y\" # trailing"), "a = \"x#y\" ");
        assert_eq!(strip_comment("# whole line"), "");
    }
}
