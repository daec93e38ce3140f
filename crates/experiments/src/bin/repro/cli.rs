//! Every `repro` entry point as one static table, [`VERBS`]: the one
//! parser reads argv against a verb's flag rows, and the one renderer
//! prints the verb's `--help` from the same rows.
//!
//! A row is its own help line: `"--queue N  queued-job bound"`. The
//! words before the first double space are the flag's spellings (the
//! words that start with `-`) and, when the flag takes a value, the
//! value's name; the rest of the row is the help text.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use crate::{
    experiments_cmd, explore_cmd, fleet_cmd, run_one, serve_cmd, serve_stats_cmd, trace_export_cmd,
    trace_stats_cmd, upload_cmd, verify_cmd, watch_cmd,
};
use vm_experiments::{registry, RunScale, Verbosity};
use vm_explore::spec::parse_size;
use vm_harden::ChaosPlan;
use vm_trace::{presets, WorkloadSpec};

/// One `repro` entry point and every flag it takes.
pub struct Verb {
    /// The word after `repro`; empty for the experiment runner.
    pub name: &'static str,
    /// The usage line's arguments before the flags. A `<...>` word here
    /// means the verb takes arguments that are not flags.
    args: &'static str,
    /// What the verb does, in one line.
    about: &'static str,
    /// The flag rows, in groups that verbs share.
    flags: &'static [&'static [&'static str]],
    /// Runs the verb on its parsed arguments.
    pub run: fn(&Args) -> Result<(), String>,
}

/// The run-length presets; the last one given wins.
const SCALE: &[&str] = &[
    "--quick  quick scale: 200k warm-up + 500k measured instructions",
    "--full  full scale: 2M warm-up + 8M measured (default: 1M + 2M)",
];

/// Progress on stderr; the last of these given wins.
const VERBOSITY: &[&str] = &[
    "--verbosity 0|1|2  progress on stderr: 0 quiet, 1 normal (default), 2 verbose",
    "-q, --quiet  same as --verbosity 0",
    "-v, --verbose  same as --verbosity 2",
];

/// Fault injection into a sweep's points (docs/robustness.md).
const CHAOS: &[&str] = &[
    "--chaos fault@ix,...  inject faults at points, e.g. panic@2,io@5; abort/oom need processes",
    "--chaos-seed N  seed for the injected faults (default 42)",
];

const HELP: &[&str] = &["-h, --help  print this help"];

/// The workload presets `--workload` takes.
const WORKLOADS: &str = "gcc|vortex|ijpeg|li|compress|perl";

/// The flags `explore` and `fleet` share: what to sweep, how a point
/// may fail, and where the results go.
const SWEEP: &[&str] = &[
    "--sweep key=v1,v2,...  sweep a dotted spec key, e.g. tlb.entries=32,64; repeat to cross",
    "--point-budget CYCLES  walk-cycle budget per point; over-budget points fail as timeouts",
    "--journal FILE  journal every finished point; explore --resume and verify read it",
    "--out DIR  write explore.csv and its -frontier and -sensitivity CSVs here",
    "--events FILE  write the run's lifecycle events as JSONL (serve-stats folds them)",
];

/// Every `repro` entry point, the experiment runner first. Each row is
/// the flag's help line, from which [`Row`] reads its spelling and arity.
pub static VERBS: &[Verb] = &[
    Verb {
        name: "",
        args: "<experiment>...",
        about: "regenerate the paper's tables and figures and check its claims (default: all)",
        flags: &[
            SCALE,
            &[
                "--threads N  worker threads (default: one per core)",
                "--out DIR  write each experiment's CSV here",
                "--strict  exit 1 unless every paper claim reproduces",
                "--workload W  what fig6-fig9 and telemetry run: gcc|vortex|ijpeg|li|compress|perl",
                "--events FILE  write the telemetry pass's events as JSONL; implies telemetry",
                "--chrome-trace FILE  write the telemetry pass for chrome://tracing; implies telemetry",
            ],
            VERBOSITY,
        ],
        run: experiments_cmd,
    },
    Verb {
        name: "run",
        args: "",
        about: "one custom simulation with a full report",
        flags: &[
            &[
                "--system S  the system by label: ULTRIX, MACH, INTEL, PA-RISC, ... (default ULTRIX)",
                "--workload W  gcc|vortex|ijpeg|li|compress|perl (default gcc)",
                "--l1 SIZE  L1 size per side (default 16K)",
                "--l1-line N  L1 line bytes (default 64)",
                "--l2 SIZE  L2 size per side (default 1M)",
                "--l2-line N  L2 line bytes (default 128)",
                "--tlb-entries N  entries per TLB (default 128)",
                "--unified  one unified L2 of twice the size instead of split I/D halves",
                "--instrs N  measured instructions, after a quarter as many warm up (default 2000000)",
                "--seed N  workload seed (default 42)",
                "--events FILE  write the run's events as JSONL",
                "--chrome-trace FILE  write the run as a chrome://tracing document",
            ],
            VERBOSITY,
        ],
        run: run_one,
    },
    Verb {
        name: "explore",
        args: "<spec.toml | dir>...",
        about: "sweep a design space of spec files: points, Pareto frontier and sensitivity",
        flags: &[
            SWEEP,
            &[
                "--jobs N  worker threads (default: one per core)",
                "--check  parse and validate the specs and --sweep keys, then exit",
                "--resume FILE  skip the journal's finished points, run the rest, keep appending",
                "--isolation unwind|process  run points in-process (default) or in worker processes",
            ],
            SCALE,
            CHAOS,
            VERBOSITY,
        ],
        run: explore_cmd,
    },
    Verb {
        name: "serve",
        args: "",
        about: "run the simulation daemon until drained by request, SIGTERM or SIGINT",
        flags: &[
            &[
                "--addr HOST:PORT  bind address; port 0 binds an ephemeral one (default 127.0.0.1:0)",
                "--port N  rewrite the bind port; the bound address is the first stdout line",
                "--jobs N  worker threads running sweeps (default 2)",
                "--workers N  worker processes that run the points (default 0: in-process)",
                "--queue N  queued-job bound; submissions past it shed with 503 (default 8)",
                "--degrade-depth N  queue depth at which new jobs clamp to quick scale (default 4)",
                "--state-dir DIR  persist job specs and journals here",
                "--resume  reload the jobs persisted in --state-dir",
                "--events FILE  append lifecycle events as JSONL for serve-stats",
                "--max-request-bytes N  longest request line accepted (default 1048576)",
                "--max-trace-bytes SIZE  largest trace an upload may declare (default 64M)",
                "--conn-upload-quota SIZE  upload bytes one connection may declare (default 256M)",
                "--staging-watermark SIZE  staged bytes past which uploads get 429 (default 256M)",
                "--upload-ttl-secs N  delete partial uploads idle this long (default 3600)",
            ],
            CHAOS,
        ],
        run: serve_cmd,
    },
    Verb {
        name: "serve-stats",
        args: "<events.jsonl>...",
        about: "fold serve --events streams, several lifetimes in a row, into a lifecycle report",
        flags: &[],
        run: serve_stats_cmd,
    },
    Verb {
        name: "watch",
        args: "--addr HOST:PORT [<job> | --all]",
        about: "render a daemon's live job telemetry; a JOB's stream ends with the job",
        flags: &[&[
            "--addr HOST:PORT  the daemon, or a fleet's --watch-addr",
            "--all  watch every job until the daemon drains",
            "--json  print the raw NDJSON frames (docs/live.md) instead of the dashboard",
        ]],
        run: watch_cmd,
    },
    Verb {
        name: "fleet",
        args: "<spec.toml | dir>... (--spawn N | --backend HOST:PORT)...",
        about: "shard a sweep across serve daemons; merges byte-identical to explore --jobs 1",
        flags: &[
            &[
                "--spawn N  fork N local `repro serve --port 0` daemons, drained and reaped at exit",
                "--backend HOST:PORT  dispatch to a running daemon (repeatable; mixes with --spawn)",
                "--fleet-journal FILE  append the coordinator's own crash-resume journal",
                "--resume  seed finished points from --fleet-journal and dispatch the rest",
                "--evict-after N  evict a backend past N failures inside a minute (default 3)",
                "--probation-ms N  wait before re-probing an evicted backend (0 never; default 5000)",
                "--audit-rate P  re-run this fraction of points on a second backend (default 0)",
                "--join-addr HOST:PORT  take join/leave/roster control verbs here; prints the address",
                "--watch-addr HOST:PORT  serve live telemetry to repro watch here; prints the address",
            ],
            SWEEP,
            SCALE,
            VERBOSITY,
        ],
        run: fleet_cmd,
    },
    Verb {
        name: "upload",
        args: "--addr HOST:PORT --name NAME <trace.bin>",
        about: "stream a binary trace into a daemon's library as workload trace:NAME, resumably",
        flags: &[&[
            "--addr HOST:PORT  the daemon",
            "--name NAME  the library name; jobs replay the trace as workload trace:NAME",
            "--chunk-bytes SIZE  raw bytes per chunk, within --max-request-bytes as base64 (default 256K)",
        ]],
        run: upload_cmd,
    },
    Verb {
        name: "trace-export",
        args: "--out FILE",
        about: "synthesize a workload's trace, or import a Dinero one, into the format repro upload ships",
        flags: &[&[
            "--out FILE  the trace file to write",
            "--workload W  gcc|vortex|ijpeg|li|compress|perl (default gcc)",
            "--seed N  workload seed (default 42)",
            "--instrs N  records to export (default 100000)",
            "--dinero FILE  import this Dinero (din) trace instead of synthesizing one",
            "--max-parse-errors N  skip up to N malformed din lines, each reported (default 0)",
        ]],
        run: trace_export_cmd,
    },
    Verb {
        name: "trace-stats",
        args: "[<file.trace> | --workload W]",
        about: "measure a trace file or workload model, print a file's first records, or list the models",
        flags: &[&[
            "--workload W  measure this model instead of a file: gcc|vortex|ijpeg|li|compress|perl",
            "--instrs N  the model's instructions to measure (default 1000000)",
            "--seed N  the model's seed (default 42)",
            "--head N  print the file's first N records instead of its statistics",
        ]],
        run: trace_stats_cmd,
    },
    Verb {
        name: "verify",
        args: "<explore.csv> --journal FILE",
        about: "re-check a run's CSV against its journal offline: decode, attestation, context, csv",
        flags: &[&[
            "--journal FILE  the run journal the CSV was merged from",
            "--spec FILE  the base spec the sweep expanded; enables the context stage",
        ]],
        run: verify_cmd,
    },
];

/// A flag row split into its parts.
struct Row {
    /// Spellings and value name: the help line's left column.
    head: &'static str,
    names: Vec<&'static str>,
    takes_value: bool,
    help: &'static str,
}

impl Row {
    fn new(row: &'static str) -> Row {
        let (head, help) = row.split_once("  ").unwrap_or((row, ""));
        let words = head.split(' ').map(|w| w.strip_suffix(',').unwrap_or(w));
        let (names, value): (Vec<_>, Vec<_>) = words.partition(|w| w.starts_with('-'));
        Row { head, names, takes_value: !value.is_empty(), help: help.trim_start() }
    }

    /// The spelling [`Args`] files the flag under: the row's last.
    fn key(&self) -> &'static str {
        self.names.last().copied().unwrap_or_default()
    }
}

impl Verb {
    /// How error lines and the usage line name the entry point.
    pub fn title(&self) -> String {
        if self.name.is_empty() {
            "repro".to_owned()
        } else {
            format!("repro {}", self.name)
        }
    }

    fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        self.flags.iter().chain([&HELP]).flat_map(|group| group.iter().copied()).map(Row::new)
    }

    fn row(&self, arg: &str) -> Option<Row> {
        self.rows().find(|row| row.names.contains(&arg))
    }

    /// The verb's `--help`, rendered from its table; the runner's also
    /// lists the experiments and the other verbs.
    pub fn help(&self) -> String {
        let rows: Vec<Row> = self.rows().collect();
        let width = rows.iter().map(|row| row.head.len()).max().unwrap_or(0);
        let args = if self.args.is_empty() { String::new() } else { format!(" {}", self.args) };
        let mut text = format!("usage: {}{args} [flags]\n{}\nflags:\n", self.title(), self.about);
        for row in rows {
            text.push_str(&format!("  {:<width$}  {}\n", row.head, row.help));
        }
        if self.name.is_empty() {
            let experiments = registry::help_block();
            text.push_str(&format!("experiments:\n{experiments}verbs (repro VERB --help):\n"));
            let width = VERBS.iter().map(|v| v.name.len()).max().unwrap_or(0);
            for verb in &VERBS[1..] {
                text.push_str(&format!("  {:<width$}  {}\n", verb.name, verb.about));
            }
        }
        text
    }

    /// Reads the words after the verb against its table; `None` means
    /// `--help` was given.
    pub fn parse(&'static self, argv: &[String]) -> Result<Option<Args>, String> {
        let mut args = Args { verb: self, given: Vec::new(), positional: Vec::new() };
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            match self.row(word) {
                Some(row) if row.key() == "--help" => return Ok(None),
                Some(row) => {
                    let value = row.takes_value.then(|| {
                        words.next().cloned().ok_or_else(|| format!("{word} needs a value"))
                    });
                    args.given.push((row.key(), value.transpose()?));
                }
                None if !word.starts_with('-') && self.args.contains('<') => {
                    args.positional.push(word.clone())
                }
                None => {
                    return Err(format!("unknown flag `{word}` (try `{} --help`)", self.title()))
                }
            }
        }
        Ok(Some(args))
    }
}

/// The flags and arguments of one invocation, read back by kind. Every
/// reader that takes a value checks each one given, not just the last
/// (which is the one it returns).
pub struct Args {
    verb: &'static Verb,
    /// Each flag given, filed under its row's last spelling, in order.
    given: Vec<(&'static str, Option<String>)>,
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
}

impl Args {
    fn all(&self, flag: &'static str) -> impl Iterator<Item = Option<&str>> + '_ {
        debug_assert!(
            self.verb.row(flag).is_some_and(|row| row.key() == flag),
            "{} declares no flag filed as {flag}",
            self.verb.title()
        );
        self.given.iter().filter(move |(key, _)| *key == flag).map(|(_, v)| v.as_deref())
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &'static str) -> bool {
        self.all(flag).next().is_some()
    }

    /// Every value given for `flag`, in order.
    pub fn values(&self, flag: &'static str) -> impl Iterator<Item = &str> + '_ {
        self.all(flag).flatten()
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &'static str) -> Option<&str> {
        self.values(flag).last()
    }

    /// The last value given for `flag`, as a path.
    pub fn path(&self, flag: &'static str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The last value of `flag` read by `read`; a value it refuses is a
    /// `bad --flag: ...` error.
    pub fn get<T>(
        &self,
        flag: &'static str,
        read: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.values(flag)
            .try_fold(None, |_, v| read(v).map(Some).map_err(|e| format!("bad {flag}: {e}")))
    }

    /// The last value given for `flag`, as a `T`.
    pub fn num<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(flag, |v| v.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// A number that must not be zero: a zero limit would turn away all
    /// work.
    pub fn bound<T: FromStr + Default + PartialEq>(
        &self,
        flag: &'static str,
    ) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(flag, |v| match v.parse::<T>() {
            Ok(n) if n == T::default() => Err("must be positive, not 0".to_owned()),
            n => n.map_err(|e| e.to_string()),
        })
    }

    /// A positive byte size: `512`, `256K` or `64M`.
    pub fn size<T: TryFrom<u64>>(&self, flag: &'static str) -> Result<Option<T>, String> {
        self.get(flag, |v| match parse_size(v)? {
            0 => Err("must be positive, not 0".to_owned()),
            n => T::try_from(n).map_err(|_| format!("`{v}` is too large")),
        })
    }

    /// The `--workload` preset, checked against the known names.
    pub fn workload(&self) -> Result<Option<WorkloadSpec>, String> {
        self.get("--workload", |v| {
            presets::by_name(v).ok_or_else(|| format!("unknown workload `{v}` ({WORKLOADS})"))
        })
    }

    /// The last of `--quick`/`--full` given.
    pub fn scale(&self) -> Option<RunScale> {
        self.given.iter().rev().find_map(|(key, _)| match *key {
            "--quick" => Some(RunScale::QUICK),
            "--full" => Some(RunScale::FULL),
            _ => None,
        })
    }

    /// The last of `--verbosity`, `-q` and `-v` given.
    pub fn verbosity(&self) -> Result<Option<Verbosity>, String> {
        let mut last = None;
        for (key, value) in &self.given {
            last = match (*key, value.as_deref()) {
                ("--quiet", _) => Some(Verbosity::Quiet),
                ("--verbose", _) => Some(Verbosity::Verbose),
                ("--verbosity", Some(v)) => Some(Verbosity::parse(v).ok_or_else(|| {
                    format!("bad --verbosity: `{v}` is not 0|1|2 (or quiet|normal|verbose)")
                })?),
                _ => last,
            };
        }
        Ok(last)
    }

    /// The `--chaos` plan, empty without the flag. A fault that kills
    /// the host process is refused unless points run in worker
    /// processes, which absorb it.
    pub fn chaos(&self, process_isolated: bool) -> Result<ChaosPlan, String> {
        let seed = self.num("--chaos-seed")?.unwrap_or(42);
        let plan = self.get("--chaos", |spec| {
            let plan = ChaosPlan::parse(spec, seed)?;
            ChaosPlan::check_isolation(spec, process_isolated)?;
            Ok(plan)
        })?;
        Ok(plan.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every entry point's flags as the CLI contract fixes them; a
    /// trailing `=` marks a flag that takes a value.
    const SURFACE: &[(&str, &str)] = &[
        ("", "--quick --full --threads= --out= --strict --workload= --events= --chrome-trace= --verbosity= -q --quiet -v --verbose -h --help"),
        ("run", "--system= --workload= --l1= --l1-line= --l2= --l2-line= --tlb-entries= --unified --instrs= --seed= --events= --chrome-trace= --verbosity= -q --quiet -v --verbose -h --help"),
        ("explore", "--sweep= --point-budget= --journal= --out= --events= --jobs= --check --resume= --isolation= --quick --full --chaos= --chaos-seed= --verbosity= -q --quiet -v --verbose -h --help"),
        ("serve", "--addr= --port= --jobs= --workers= --queue= --degrade-depth= --state-dir= --resume --events= --max-request-bytes= --max-trace-bytes= --conn-upload-quota= --staging-watermark= --upload-ttl-secs= --chaos= --chaos-seed= -h --help"),
        ("serve-stats", "-h --help"),
        ("watch", "--addr= --all --json -h --help"),
        ("fleet", "--spawn= --backend= --fleet-journal= --resume --evict-after= --probation-ms= --audit-rate= --join-addr= --watch-addr= --sweep= --point-budget= --journal= --out= --events= --quick --full --verbosity= -q --quiet -v --verbose -h --help"),
        ("upload", "--addr= --name= --chunk-bytes= -h --help"),
        ("trace-export", "--out= --workload= --seed= --instrs= --dinero= --max-parse-errors= -h --help"),
        ("trace-stats", "--workload= --instrs= --seed= --head= -h --help"),
        ("verify", "--journal= --spec= -h --help"),
    ];

    fn verb(name: &str) -> &'static Verb {
        VERBS.iter().find(|v| v.name == name).expect("a verb of the table")
    }

    fn parse(name: &str, words: &[&str]) -> Result<Option<Args>, String> {
        verb(name).parse(&words.iter().map(|w| (*w).to_owned()).collect::<Vec<_>>())
    }

    fn args(name: &str, words: &[&str]) -> Args {
        parse(name, words).expect("parses").expect("no --help")
    }

    /// The flags a help text lists, each with whether a value follows.
    fn listed(help: &str) -> Vec<(String, bool)> {
        let rows = help.lines().skip_while(|line| *line != "flags:").skip(1);
        let rows = rows.take_while(|line| line.starts_with("  "));
        let mut flags = Vec::new();
        for row in rows {
            let head = row.trim_start().split("  ").next().unwrap_or_default();
            let takes = head.split(' ').any(|w| !w.starts_with('-'));
            for name in head.split(' ').filter(|w| w.starts_with('-')) {
                flags.push((name.trim_end_matches(',').to_owned(), takes));
            }
        }
        flags.sort();
        flags
    }

    #[test]
    fn help_lists_exactly_the_flags_each_entry_point_accepts() {
        assert_eq!(VERBS.len(), SURFACE.len());
        for (name, surface) in SURFACE {
            let verb = verb(name);
            let help = verb.help();
            assert!(help.starts_with(&format!("usage: {} ", verb.title())), "{help}");
            let mut want: Vec<(String, bool)> = surface
                .split(' ')
                .map(|f| (f.trim_end_matches('=').to_owned(), f.ends_with('=')))
                .collect();
            want.sort();
            assert_eq!(listed(&help), want, "{}", verb.title());
            // The parser takes each listed flag, with the listed arity.
            for (flag, takes) in &want {
                match parse(name, &[flag]) {
                    Ok(None) => assert!(flag == "--help" || flag == "-h", "{flag}"),
                    Ok(Some(_)) => assert!(!takes, "{flag} should need a value"),
                    Err(e) => assert_eq!((takes, e), (&true, format!("{flag} needs a value"))),
                }
                if *takes {
                    assert!(parse(name, &[flag, "v"]).is_ok(), "{flag}");
                }
            }
            // ... and nothing else.
            let e = parse(name, &["--quiet-please"]).err().unwrap();
            let title = verb.title();
            assert_eq!(e, format!("unknown flag `--quiet-please` (try `{title} --help`)"));
        }
    }

    #[test]
    fn flags_nothing_set_are_refused_as_unknown() {
        for (name, flag) in [
            ("fleet", "--poll-ms"),
            ("fleet", "--keepalive-ms"),
            ("fleet", "--evict-window-ms"),
            ("fleet", "--hedge-ms"),
            ("serve", "--retry-after-ms"),
            ("serve", "--watch-buffer"),
            ("serve", "--checkpoint-interval"),
            ("serve", "--io-timeout-ms"),
            ("upload", "--max-retries"),
            ("upload", "--chaos"),
            ("explore", "--retries"),
            ("fleet", "--retries"),
        ] {
            let title = verb(name).title();
            let e = parse(name, &[flag, "1"]).err();
            assert_eq!(e, Some(format!("unknown flag `{flag}` (try `{title} --help`)")));
        }
    }

    #[test]
    fn the_fleet_docs_flag_table_names_exactly_the_flags_fleet_takes() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/fleet.md");
        let doc = std::fs::read_to_string(&path).expect("docs/fleet.md");
        let table = doc.split("## Flag reference").nth(1).expect("a flag reference section");
        // A row's first cell ends at its first "` |"; every backticked
        // span in it that starts with `-` is one spelling.
        let mut documented: Vec<String> = table
            .lines()
            .filter(|line| line.starts_with("| `-"))
            .flat_map(|row| {
                let cell = &row[..row.find("` |").expect("a first cell")];
                cell.split('`').skip(1).step_by(2).map(|span| span.split(' ').next().unwrap())
            })
            .map(str::to_owned)
            .collect();
        documented.sort();
        documented.dedup();
        let mut listed: Vec<String> =
            listed(&verb("fleet").help()).into_iter().map(|(flag, _)| flag).collect();
        listed.dedup();
        assert_eq!(documented, listed);
    }

    #[test]
    fn only_verbs_with_arguments_take_words_that_are_not_flags() {
        for (name, takes) in
            [("", true), ("run", false), ("serve", false), ("verify", true), ("trace-stats", true)]
        {
            assert_eq!(parse(name, &["x"]).is_ok(), takes, "{name}");
        }
        assert_eq!(args("watch", &["--all", "7"]).positional, ["7"]);
        assert!(parse("trace-export", &["out.bin"]).is_err());
    }

    #[test]
    fn repeated_flags_and_arguments_accumulate_in_order() {
        let a = args(
            "explore",
            &["b", "--sweep", "tlb.entries=64,32", "a", "--sweep", "mmu.table=hashed"],
        );
        assert_eq!(a.positional, ["b", "a"]);
        assert_eq!(
            a.values("--sweep").collect::<Vec<_>>(),
            ["tlb.entries=64,32", "mmu.table=hashed"]
        );
        let a = args("fleet", &["s", "--backend", "h:2", "--spawn", "1", "--backend", "h:1"]);
        assert_eq!(a.values("--backend").collect::<Vec<_>>(), ["h:2", "h:1"]);
        assert_eq!(args("serve-stats", &["b.jsonl", "a.jsonl"]).positional, ["b.jsonl", "a.jsonl"]);
    }

    #[test]
    fn scale_verbosity_and_single_values_are_last_wins() {
        let scale = |words: &[&str]| args("", words).scale();
        assert_eq!(scale(&[]), None);
        assert_eq!(scale(&["--quick", "--full"]), Some(RunScale::FULL));
        assert_eq!(scale(&["--full", "fig10", "--quick"]), Some(RunScale::QUICK));
        let verbosity = |words: &[&str]| args("fleet", words).verbosity();
        assert_eq!(verbosity(&[]), Ok(None));
        assert_eq!(verbosity(&["-q", "-v"]), Ok(Some(Verbosity::Verbose)));
        assert_eq!(verbosity(&["--verbose", "--verbosity", "0"]), Ok(Some(Verbosity::Quiet)));
        assert_eq!(verbosity(&["--verbosity", "2", "--quiet"]), Ok(Some(Verbosity::Quiet)));
        assert_eq!(verbosity(&["-v", "--verbosity", "normal"]), Ok(Some(Verbosity::Normal)));
        // Every value is checked, not only the one that wins.
        assert!(verbosity(&["--verbosity", "loud", "-q"]).unwrap_err().contains("--verbosity"));
        assert_eq!(args("serve", &["--jobs", "1", "--jobs", "3"]).num("--jobs"), Ok(Some(3)));
        let e = args("serve", &["--jobs", "x", "--jobs", "3"]).num::<usize>("--jobs");
        assert_eq!(e, Err("bad --jobs: invalid digit found in string".to_owned()));
        assert_eq!(
            args("upload", &["--addr", "a:1", "--addr", "b:2"]).value("--addr"),
            Some("b:2")
        );
    }

    #[test]
    fn sizes_take_k_and_m_and_refuse_zero_and_overflow() {
        assert_eq!(parse_size("512"), Ok(512));
        assert_eq!(parse_size("256K"), Ok(256 << 10));
        assert_eq!(parse_size("64M"), Ok(64 << 20));
        assert_eq!(parse_size("16k"), Ok(16 << 10));
        // 2^44 MiB is 2^64 bytes, which wrapped to 0; one more MiB wrapped
        // to 1 MiB.
        for big in ["17592186044416M", "17592186044417M"] {
            assert_eq!(parse_size(big), Err(format!("`{big}` overflows 64 bits")));
        }
        assert!(parse_size("1G").is_err());
        assert!(parse_size("K").is_err());
        let size = |v: &str| args("upload", &["--chunk-bytes", v]).size::<usize>("--chunk-bytes");
        assert_eq!(size("1M"), Ok(Some(1 << 20)));
        assert_eq!(size("0K"), Err("bad --chunk-bytes: must be positive, not 0".to_owned()));
        let e = size("17592186044417M").unwrap_err();
        assert_eq!(e, "bad --chunk-bytes: `17592186044417M` overflows 64 bits");
    }

    #[test]
    fn chaos_refuses_process_killing_faults_without_worker_processes() {
        assert!(args("serve", &[]).chaos(false).unwrap().is_empty());
        let a = args("serve", &["--chaos", "abort@1", "--chaos-seed", "7"]);
        assert!(a.chaos(false).unwrap_err().contains("process"));
        assert!(!a.chaos(true).unwrap().is_empty());
        let e = args("explore", &["--chaos", "panic@1", "--chaos-seed", "x"]).chaos(false);
        assert_eq!(e.unwrap_err(), "bad --chaos-seed: invalid digit found in string");
        assert!(args("explore", &["--chaos", "melt@1"])
            .chaos(true)
            .unwrap_err()
            .starts_with("bad --chaos: "));
    }
}
