//! The environment stamp every output carries, and host memory use.

use std::path::Path;
use std::process::Command;

use vm_obs::json::Value;

/// What a result depends on besides the code: two results files are
/// comparable when their stamps agree on everything but the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Available parallelism.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// The checkout's git commit, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a over the sources the benchmark builds, so checkouts
    /// without git history still say which code they ran.
    pub source: String,
    /// The workload.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// The run scale the workload uses.
    pub scale: String,
}

impl Stamp {
    /// Gathers the stamp for a run of `workload` at `seed`.
    pub fn gather(root: &Path, workload: &str, seed: u64, scale: &str) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: Command::new("rustc")
                .arg("-V")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .unwrap_or_else(|| "unknown".to_owned()),
            commit: git_commit(root).unwrap_or_else(|| "none".to_owned()),
            source: format!("{:016x}", source_fingerprint(root)),
            workload: workload.to_owned(),
            seed,
            scale: scale.to_owned(),
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "env: nproc={} rustc=\"{}\" commit={} source={} workload={} seed={} scale={}",
            self.nproc, self.rustc, self.commit, self.source, self.workload, self.seed, self.scale
        )
    }

    /// The stamp as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("nproc", (self.nproc as u64).into()),
            ("rustc", self.rustc.clone().into()),
            ("commit", self.commit.clone().into()),
            ("source", self.source.clone().into()),
            ("workload", self.workload.clone().into()),
            ("seed", self.seed.into()),
            ("scale", self.scale.clone().into()),
        ])
    }
}

/// Resolves `HEAD` by reading `.git` directly (no `git` process).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_owned()) };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}

/// FNV-1a over the workspace manifests and every file under `crates/`,
/// visited in sorted path order.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h = vm_trace::wire::Fnv1a::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.update(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
            h.update(&bytes);
        }
    }
    h.digest()
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The pids of every live descendant of `root` (children, grandchildren,
/// ...), found by walking `/proc/*/stat` parent links.
pub fn descendants(root: u32) -> Vec<u32> {
    let mut parent_of: Vec<(u32, u32)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for e in entries.flatten() {
            let Some(pid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { continue };
            // `pid (comm) state ppid ...`; comm may contain spaces.
            let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { continue };
            if let Some(ppid) = rest.split_whitespace().nth(1).and_then(|s| s.parse().ok()) {
                parent_of.push((pid, ppid));
            }
        }
    }
    let mut found = vec![root];
    let mut i = 0;
    while i < found.len() {
        let p = found[i];
        found.extend(parent_of.iter().filter(|&&(_, pp)| pp == p).map(|&(c, _)| c));
        i += 1;
    }
    found.remove(0);
    found
}

/// Peak resident set (`VmHWM`) of `pid`, in kB.
fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Tracks the peak resident memory of this process plus every process
/// it started, sampled while they are alive.
#[derive(Debug, Default)]
pub struct RssTracker {
    /// Highest peak seen per descendant pid, kB.
    children: std::collections::BTreeMap<u32, u64>,
}

impl RssTracker {
    /// Samples every live descendant's peak so far (call before tearing
    /// child processes down, and whenever they may be about to exit).
    pub fn sample(&mut self) {
        for pid in descendants(std::process::id()) {
            if let Some(kb) = peak_rss_kb(&pid.to_string()) {
                let slot = self.children.entry(pid).or_default();
                *slot = (*slot).max(kb);
            }
        }
    }

    /// (this process's peak MB, descendants' summed peaks MB,
    /// descendants sampled). Their sum is an upper bound on the
    /// simultaneous peak of the whole process tree.
    pub fn breakdown_mb(&self) -> (f64, f64, usize) {
        let own = peak_rss_kb("self").unwrap_or(0) as f64 / 1024.0;
        let children = self.children.values().sum::<u64>() as f64 / 1024.0;
        (own, children, self.children.len())
    }
}
