//! `ftpcloud` — command-line front end for the *FTP: The Forgotten
//! Cloud* reproduction.
//!
//! ```text
//! ftpcloud study [--scale N] [--servers N] [--seed S] [--shards K]
//!                [--batch-size B] [--checkpoint-dir DIR] [--resume DIR]
//!                [--trace OUT.jsonl] [--metrics OUT.json] [--profile]
//!                [--journal OUT.jsonl] [--timeseries OUT.csv]
//!                [--timeseries-every MS] [--progress]
//!                                            run the full pipeline, print every table;
//!                                            --servers sizes the world by host count
//!                                            (e.g. --servers 1000000) instead of paper
//!                                            scale; --shards runs K parallel simulations
//!                                            whose merged results are byte-identical to
//!                                            K=1; --batch-size streams the study through
//!                                            B-host batches with O(batch) memory and
//!                                            prints the streamed report; --checkpoint-dir
//!                                            persists per-shard progress after every
//!                                            batch, and --resume continues from such a
//!                                            directory to a byte-identical report;
//!                                            --trace/--metrics/--profile turn on the
//!                                            observability layer (never changes results);
//!                                            --journal records a flight-recorder row per
//!                                            address that answered, retried or hit a
//!                                            fault, plus a count of the silent ones per
//!                                            shard and batch; --timeseries samples every
//!                                            metric every MS sim-milliseconds (default
//!                                            500), and --progress prints a wall-clock
//!                                            heartbeat in streamed mode — none of which
//!                                            changes results
//! ftpcloud funnel [--servers N] [--seed S] [--faults PCT] [--shards K]
//!                [--trace OUT.jsonl] [--metrics OUT.json] [--profile]
//!                [--journal OUT.jsonl] [--timeseries OUT.csv]
//!                                            quick Table I funnel on a small world;
//!                                            --faults makes PCT% (0–100) of it hostile
//! ftpcloud explain [IP] --journal J.jsonl [--top gave-up|faults]
//!                                            reconstruct a host's timeline from a journal
//!                                            written by `study --journal` (an address with
//!                                            no row was silent or not probed); without an
//!                                            IP, summarize the whole journal (funnel, top
//!                                            gave-up reasons, fault encounters)
//! ftpcloud honeypot [--days D] [--pots N]    run the §VIII experiment
//! ftpcloud certify [--servers N]             CyberUL fleet audit (§X)
//! ftpcloud notify [--servers N]              responsible-disclosure digests (§III-A)
//! ftpcloud verdicts [--servers N]            paper-vs-measured scoreboard
//! ```
//!
//! Every subcommand except `explain` also takes `--seed S`. A flag the
//! subcommand does not take, a value that does not parse, or a missing
//! value is an error (exit code 2) that names the flag. So is input that
//! would be ignored or cannot run: a zero `--servers`, `--scale`,
//! `--days`, `--shards`, `--batch-size`, `--timeseries-every` or
//! `--pots`; `--faults` above 100; `--top` with anything but `gave-up`
//! or `faults`, or with an address; `--servers` with `--scale`, or
//! `--checkpoint-dir` with `--resume`;
//! `--checkpoint-dir`, `--resume` or `--progress` without `--batch-size`,
//! or `--timeseries-every` without `--timeseries`; a `--resume`
//! directory that holds no checkpoint of the run's shards; and a
//! `--servers` or `--scale` whose world does not fit its address space.
//! A `--trace`, `--metrics`, `--journal` or `--timeseries` file that
//! cannot be opened for writing exits 1, naming the flag, also before
//! any world is built.

use ftp_study::{
    run_study, run_study_sharded, run_study_streamed, tables, Checkpoint, StreamOptions,
    StreamOutcome, StudyConfig,
};
use worldgen::PopulationSpec;

/// What a flag takes after it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Takes {
    /// A whole number (`u64`).
    Number,
    /// Any text: a path or a keyword.
    Text,
    /// Nothing: the flag is a switch.
    Nothing,
}

use Takes::{Nothing, Number, Text};

/// The observability flags `study` and `funnel` share.
const OBS_FLAGS: [(&str, Takes); 6] = [
    ("--trace", Text),
    ("--metrics", Text),
    ("--profile", Nothing),
    ("--journal", Text),
    ("--timeseries", Text),
    ("--timeseries-every", Number),
];

/// What one subcommand takes.
struct Grammar {
    /// Its flags, besides the observability ones.
    flags: &'static [(&'static str, Takes)],
    /// Whether it takes [`OBS_FLAGS`] too.
    obs: bool,
    /// Whether it takes a positional argument.
    positional: bool,
}

/// The grammar of `command`; `None` for an unknown subcommand.
fn grammar(command: &str) -> Option<Grammar> {
    let (flags, obs, positional): (&'static [(&'static str, Takes)], _, _) = match command {
        "study" => (
            &[
                ("--scale", Number),
                ("--servers", Number),
                ("--seed", Number),
                ("--shards", Number),
                ("--batch-size", Number),
                ("--checkpoint-dir", Text),
                ("--resume", Text),
                ("--progress", Nothing),
            ],
            true,
            false,
        ),
        "funnel" => (
            &[
                ("--servers", Number),
                ("--seed", Number),
                ("--faults", Number),
                ("--shards", Number),
            ],
            true,
            false,
        ),
        "explain" => (&[("--journal", Text), ("--top", Text)], false, true),
        "honeypot" => (&[("--days", Number), ("--pots", Number), ("--seed", Number)], false, false),
        "certify" | "verdicts" | "notify" => {
            (&[("--servers", Number), ("--seed", Number)], false, false)
        }
        _ => return None,
    };
    Some(Grammar { flags, obs, positional })
}

/// A subcommand's arguments, checked against what it takes.
struct Args<'a> {
    /// Flags given, with their values (`""` for switches).
    flags: Vec<(&'static str, &'a str)>,
    /// The positional argument, for the subcommand that takes one.
    positional: Option<&'a str>,
}

impl<'a> Args<'a> {
    /// Parses `rest` (everything after the subcommand name), rejecting
    /// unknown, repeated, or value-less flags, numbers that do not
    /// parse, and stray positional arguments.
    fn parse(command: &str, rest: &'a [String]) -> Result<Args<'a>, String> {
        let grammar = grammar(command).ok_or_else(|| format!("unknown subcommand `{command}`"))?;
        let obs: &[(&str, Takes)] = if grammar.obs { &OBS_FLAGS } else { &[] };
        let mut args = Args { flags: Vec::new(), positional: None };
        let mut tokens = rest.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                if !grammar.positional || args.positional.is_some() {
                    return Err(format!("unexpected argument `{token}` for `ftpcloud {command}`"));
                }
                args.positional = Some(token);
                continue;
            }
            let Some(&(name, takes)) =
                grammar.flags.iter().chain(obs).find(|&&(name, _)| name == token)
            else {
                return Err(format!("`ftpcloud {command}` does not take {token}"));
            };
            if args.flags.iter().any(|&(given, _)| given == name) {
                return Err(format!("{name} given more than once"));
            }
            let value = match takes {
                Nothing => "",
                Number | Text => match tokens.next() {
                    Some(v) if !v.starts_with("--") => v,
                    _ => return Err(format!("{name} needs a value")),
                },
            };
            if takes == Number && value.parse::<u64>().is_err() {
                return Err(format!("{name} takes a whole number, not `{value}`"));
            }
            args.flags.push((name, value));
        }
        args.check_combinations()?;
        Ok(args)
    }

    /// Refuses values and flag combinations that parse but would be
    /// ignored or cannot run: a zero count, two flags that set the same
    /// thing, or a flag without the one it only works with.
    fn check_combinations(&self) -> Result<(), String> {
        let given = |name| self.text(name).is_some();
        for name in [
            "--servers",
            "--scale",
            "--days",
            "--shards",
            "--batch-size",
            "--timeseries-every",
            "--pots",
        ] {
            if self.number(name) == Some(0) {
                return Err(format!("{name} must be at least 1"));
            }
        }
        if self.number("--faults").is_some_and(|pct| pct > 100) {
            return Err("--faults takes a percentage, at most 100".to_owned());
        }
        if let Some(raw) = self.positional {
            if raw.parse::<std::net::Ipv4Addr>().is_err() {
                return Err(format!("{raw} is not an IPv4 address"));
            }
            if given("--top") {
                return Err("--top summarizes the whole journal, not one address".to_owned());
            }
        }
        if let Some(top) = self.text("--top") {
            if top != "gave-up" && top != "faults" {
                return Err(format!("--top takes gave-up or faults, not {top}"));
            }
        }
        for (a, b) in [("--servers", "--scale"), ("--checkpoint-dir", "--resume")] {
            if given(a) && given(b) {
                return Err(format!("{a} and {b} cannot be given together"));
            }
        }
        for (flag, needs) in [
            ("--checkpoint-dir", "--batch-size"),
            ("--resume", "--batch-size"),
            ("--progress", "--batch-size"),
            ("--timeseries-every", "--timeseries"),
        ] {
            if given(flag) && !given(needs) {
                return Err(format!("{flag} needs {needs}"));
            }
        }
        Ok(())
    }

    /// `explain`'s positional address; parsing already checked it.
    fn address(&self) -> Option<std::net::Ipv4Addr> {
        self.positional.map(|raw| raw.parse().expect("the address is checked when parsed"))
    }

    fn text(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|&&(given, _)| given == name).map(|&(_, v)| v)
    }

    /// A numeric flag's value; parsing already checked it.
    fn number(&self, name: &str) -> Option<u64> {
        self.text(name).map(|v| v.parse().expect("numeric flags are checked when parsed"))
    }

    fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }
}

const USAGE: &str = "usage: ftpcloud <study|funnel|explain|honeypot|certify|notify|verdicts> [--scale N] [--seed S] [--shards K] [--servers N] [--batch-size B] [--checkpoint-dir DIR] [--resume DIR] [--faults PCT] [--days D] [--pots N] [--trace OUT.jsonl] [--metrics OUT.json] [--profile] [--journal OUT.jsonl] [--timeseries OUT.csv] [--timeseries-every MS] [--progress] [--top gave-up|faults]";

/// The observability flags shared by `study` and `funnel`: the sink
/// paths to write plus the pipeline-facing [`obs::ObsConfig`].
struct ObsCli<'a> {
    trace: Option<&'a str>,
    metrics: Option<&'a str>,
    profile: bool,
    journal: Option<&'a str>,
    timeseries: Option<&'a str>,
    cfg: obs::ObsConfig,
}

fn obs_flags<'a>(args: &Args<'a>) -> ObsCli<'a> {
    let trace = args.text("--trace");
    let metrics = args.text("--metrics");
    let profile = args.switch("--profile");
    let journal = args.text("--journal");
    let timeseries = args.text("--timeseries");
    let every_ms = args.number("--timeseries-every").unwrap_or(500);
    let cfg = obs::ObsConfig {
        // A metrics file is always worth collecting alongside a trace;
        // the snapshot rides in the same recorder for free. `--profile`
        // only needs a recorder installed: every recorder keeps span
        // statistics.
        metrics: metrics.is_some() || trace.is_some() || profile,
        trace: trace.is_some(),
        journal: journal.is_some(),
        timeseries_every_us: if timeseries.is_some() { every_ms.saturating_mul(1_000) } else { 0 },
    };
    ObsCli { trace, metrics, profile, journal, timeseries, cfg }
}

/// Exits 1, naming the flag and the path, when an artifact file cannot
/// be opened for writing, so a run does not build its world and study
/// it only to lose the file. Each file is opened for append and created
/// if missing, never truncated: a `--resume` journal keeps its lines.
fn refuse_unwritable(cli: &ObsCli) {
    let artifacts = [
        ("--trace", cli.trace),
        ("--metrics", cli.metrics),
        ("--journal", cli.journal),
        ("--timeseries", cli.timeseries),
    ];
    for (flag, path) in artifacts {
        let Some(path) = path else { continue };
        if let Err(e) = std::fs::File::options().append(true).create(true).open(path) {
            eprintln!("error: {flag} {path}: cannot open for writing: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes the requested observability sinks out of a finished study.
/// `journal` overrides [`ObsCli::journal`] — streamed runs flush their
/// journals per batch through [`StreamOptions::journal_path`] and pass
/// `None` here so the already-written file is not clobbered. A write
/// that fails is reported, the others still happen, and then the
/// process exits 1.
fn write_obs_outputs(report: Option<&obs::Report>, cli: &ObsCli, journal: Option<&str>) {
    let Some(report) = report else { return };
    let mut failed = false;
    let mut write = |flag: &str, path: &str, contents: &str, done: String| {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("error: {flag} {path}: could not write: {e}");
            failed = true;
        } else {
            eprintln!("{done}");
        }
    };
    if let Some(path) = cli.trace {
        let done = format!("trace written to {path} ({} lines)", report.trace.len());
        write("--trace", path, &report.trace_jsonl(), done);
    }
    if let Some(path) = cli.metrics {
        let done = format!("metrics snapshot written to {path}");
        write("--metrics", path, &report.metrics.render_json(), done);
    }
    if let Some(path) = journal {
        let done = format!("host journal written to {path} ({} lines)", report.journal.len());
        write("--journal", path, report.journal.as_str(), done);
    }
    if let Some(path) = cli.timeseries {
        let done = format!("timeseries written to {path} ({} samples)", report.series.len());
        write("--timeseries", path, &report.timeseries_csv(), done);
    }
    if cli.profile {
        println!("{}", report.render_profile());
    }
    if failed {
        std::process::exit(1);
    }
}

/// Exits 2, naming `flag`, when `spec`'s world cannot be planned: its
/// address space cannot hold the population `flag` asked for.
fn refuse_unplannable(spec: &PopulationSpec, flag: &str) {
    if let Err(e) = spec.check_space() {
        eprintln!("error: {flag} asks for a world that cannot be planned: {e}");
        std::process::exit(2);
    }
}

/// Exits 2, naming `--resume`, when `dir` holds no checkpoint of any of
/// the run's `shards`: there is nothing to continue, and starting over
/// would overwrite the journal. `--checkpoint-dir` starts or continues.
fn refuse_nothing_to_resume(dir: &std::path::Path, shards: u64) {
    if !(0..shards).any(|shard| dir.join(Checkpoint::file_name(shard)).exists()) {
        eprintln!(
            "error: --resume {}: no checkpoint of a {shards}-shard run to continue \
             (start one with --checkpoint-dir)",
            dir.display()
        );
        std::process::exit(2);
    }
}

/// The small-world study of `funnel`, `certify`, `verdicts` and
/// `notify`: `--servers` hosts (`default` without it), refused before
/// it is built if it cannot be planned.
fn small_world(args: &Args, seed: u64, default: u64) -> StudyConfig {
    let cfg = StudyConfig::small(seed, args.number("--servers").unwrap_or(default) as usize);
    refuse_unplannable(&cfg.population, "--servers");
    cfg
}

/// `ftpcloud explain`: reconstructs host timelines (or a whole-journal
/// summary) from a `--journal` file alone — no rerun needed.
fn explain(args: &Args) {
    let Some(path) = args.text("--journal") else {
        eprintln!("explain needs --journal FILE (written by `study --journal FILE`)");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            std::process::exit(1);
        }
    };
    let journal = obs::JournalFile::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });

    // The positional argument is the host to explain; without one the
    // whole journal is summarized.
    if let Some(ip) = args.address() {
        let matched: Vec<_> = journal.hosts.iter().filter(|j| j.ip == ip).collect();
        if matched.is_empty() {
            eprintln!(
                "no journal row for {ip} in {path}: it was silent or not probed \
                 ({} rows, {} silent addresses tallied)",
                journal.hosts.len(),
                journal.silent()
            );
            std::process::exit(1);
        }
        for j in matched {
            println!("{}", j.timeline());
        }
        return;
    }

    let s = obs::summarize(&journal);
    let top = args.text("--top");
    let gave_up_total: u64 = s.gave_up.iter().map(|&(_, n)| n).sum();
    if top.is_none() {
        println!(
            "journal: {} hosts probed, {} open, {} sessions, {} ftp, {} anonymous, \
             {} gave up, {} connect retries",
            s.hosts, s.open, s.sessions, s.ftp, s.anonymous, gave_up_total, s.retries
        );
        let funnel = analysis::Funnel {
            ips_scanned: s.hosts,
            open_port: s.open,
            ftp_servers: s.ftp,
            anonymous: s.anonymous,
            gave_up: gave_up_total,
        };
        let violations = funnel.invariant_violations();
        if violations.is_empty() {
            println!("funnel invariants: ok");
        } else {
            println!("funnel invariants: VIOLATED: {}", violations.join("; "));
        }
    }
    if matches!(top, None | Some("gave-up")) {
        println!("gave up, by reason:");
        for (reason, n) in &s.gave_up {
            println!("{n:>8}  {reason}");
        }
    }
    if matches!(top, None | Some("faults")) {
        println!("fault encounters, by kind:");
        for (kind, n) in &s.faults {
            println!("{n:>8}  {kind}");
        }
    }
}

fn main() {
    obs::diag_to_stderr();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    // Every argument is checked before any work starts.
    let args = Args::parse(command, rest).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let seed = args.number("--seed").unwrap_or(42);
    match command.as_str() {
        "study" => {
            let scale = args.number("--scale").unwrap_or(4_096);
            let shards = args.number("--shards").unwrap_or(1);
            let batch_size = args.number("--batch-size");
            let checkpoint_dir = args.text("--checkpoint-dir");
            let resume = args.text("--resume");
            let obs_cli = obs_flags(&args);
            if let Some(dir) = resume {
                refuse_nothing_to_resume(std::path::Path::new(dir), shards);
            }

            // --servers sizes the world directly (the million-host
            // entry point); --scale keeps the paper-ratio sizing.
            let spec = match args.number("--servers") {
                Some(n) => PopulationSpec::sized(seed, n as usize),
                None => PopulationSpec::study(seed, scale),
            };
            let sized_by = if args.switch("--servers") { "--servers" } else { "--scale" };
            refuse_unplannable(&spec, sized_by);
            refuse_unwritable(&obs_cli);
            eprintln!(
                "building world with {} FTP servers, seed {seed}, {shards} shard(s)…",
                spec.ftp_servers
            );
            let mut cfg = StudyConfig::new(spec);
            cfg.request_gap = netsim::SimDuration::from_millis(20);
            cfg.obs = obs_cli.cfg;

            let Some(batch_size) = batch_size else {
                let results = run_study_sharded(&cfg, shards);
                println!("{}", tables::full_report(&results));
                write_obs_outputs(results.obs.as_ref(), &obs_cli, obs_cli.journal);
                return;
            };

            // Streamed mode: bounded memory, no record vector. The
            // observability recorder rides along per shard exactly as
            // in the in-memory path; journals flush per batch.
            let opts = StreamOptions {
                shards,
                checkpoint_dir: checkpoint_dir.or(resume).map(std::path::PathBuf::from),
                journal_path: obs_cli.journal.map(std::path::PathBuf::from),
                progress: args.switch("--progress"),
                ..StreamOptions::new(batch_size as usize)
            };
            match run_study_streamed(&cfg, &opts) {
                Ok(StreamOutcome::Complete(results)) => {
                    println!("{}", tables::stream_report(&results.aggregate, &results.spec));
                    eprintln!(
                        "streamed {} shard(s) × {} batch(es) of ≤{} hosts",
                        results.shards, results.batches, batch_size
                    );
                    if let Some(path) = obs_cli.journal {
                        eprintln!("host journal written to {path}");
                    }
                    write_obs_outputs(results.obs.as_ref(), &obs_cli, None);
                }
                Ok(StreamOutcome::Interrupted { next_batches }) => {
                    eprintln!("study interrupted; per-shard resume cursors: {next_batches:?}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        "funnel" => {
            let faults = args.number("--faults").unwrap_or(0);
            let shards = args.number("--shards").unwrap_or(1);
            let obs_cli = obs_flags(&args);
            let mut cfg = small_world(&args, seed, 800).with_fault_fraction(faults as f64 / 100.0);
            refuse_unwritable(&obs_cli);
            cfg.obs = obs_cli.cfg;
            let results = run_study_sharded(&cfg, shards);
            println!("{}", tables::table01_funnel(&results.funnel()));
            write_obs_outputs(results.obs.as_ref(), &obs_cli, obs_cli.journal);
        }
        "explain" => explain(&args),
        "honeypot" => {
            let days = args.number("--days").unwrap_or(90);
            let pots = args.number("--pots").unwrap_or(8) as usize;
            let report = ftp_study::run_honeypot_experiment(seed, pots, days);
            println!("{report:#?}");
        }
        "certify" => {
            let results = run_study(&small_world(&args, seed, 800));
            let (rate, failing) = analysis::cyberul::fleet_summary(&results.records);
            println!("CyberUL pass rate: {:.1}%", rate * 100.0);
            for (check, count) in failing {
                println!("{count:>6}  {check}");
            }
        }
        "verdicts" => {
            let results = run_study(&small_world(&args, seed, 900));
            println!("{}", ftp_study::verdicts::render(&results));
            let (ok, approx, noise) = ftp_study::verdicts::scoreboard(&results);
            println!("{ok} reproduced, {approx} approximate, {noise} small-N");
        }
        "notify" => {
            let results = run_study(&small_world(&args, seed, 800));
            let digests =
                analysis::notify::build_digests(&results.records, &results.truth.registry);
            println!("{} networks require notification\n", digests.len());
            for d in digests.iter().take(10) {
                println!("{}", d.render());
            }
        }
        _ => unreachable!("Args::parse rejects unknown subcommands"),
    }
}
