//! `studybench`: the benchmark driver, and the one-study child it
//! spawns.
//!
//! ```text
//! studybench --workload NAME --seed N --seconds T --trace 0|1
//! ```
//!
//! times set-up a few times, then runs whole studies — each in a child
//! process of its own, so peak RSS is one study's — until `T` seconds
//! have passed. Every report must hash to the first report's digest
//! (and, at the default seed, to the pinned one) with no funnel
//! invariant violated. The last stdout line is the JSON result: the
//! end-to-end metrics with `--trace 0`, the per-layer rows of one
//! `studybench-trace` pass with `--trace 1`.
//!
//! ```text
//! studybench --child study|setup --workload NAME --seed N
//! ```
//!
//! runs one study (or one set-up) and prints its measurements as
//! `key=value` lines.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use studybench::format::{self, Metric};
use studybench::stats::{self, RECONCILE_TOLERANCE};
use studybench::{Workload, END_TO_END, PER_LAYER, PINNED_DIGESTS};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_RUNS: usize = 5;
/// Studies run even when the clock has already run out.
const MIN_STUDIES: usize = 3;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::Paper,
        seed: studybench::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        child: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
            }
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--child" if value == "study" || value == "setup" => out.child = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("studybench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.child.as_deref() {
        Some("study") => child_study(args.workload, args.seed),
        Some(_) => child_setup(args.workload, args.seed),
        None => drive(&args),
    }
}

/// One study, measured from inside its own process.
fn child_study(w: Workload, seed: u64) -> ExitCode {
    let cfg = w.config(seed);
    let (artifacts, wall) = studybench::run_study(w.shape(), &cfg);
    println!("wall_s={}", wall.as_secs_f64());
    println!("cpu_s={}", cpu_seconds());
    println!("peak_rss_kb={}", peak_rss_kb());
    println!("output_bytes={}", artifacts.bytes());
    println!("servers={}", cfg.population.ftp_servers);
    println!(
        "violations={}",
        artifacts.funnel.invariant_violations().len()
    );
    println!("digest={}", format::hex(artifacts.digest()));
    ExitCode::SUCCESS
}

fn child_setup(w: Workload, seed: u64) -> ExitCode {
    println!(
        "setup_s={}",
        studybench::setup(w.shape(), &w.config(seed)).as_secs_f64()
    );
    ExitCode::SUCCESS
}

/// User plus system CPU seconds this process has used.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of 64-bit Linux, and getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// The kernel's peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// Runs a child to completion and returns its `key=value` output, or
/// `None` if it failed.
fn run_child(cmd: &mut Command) -> Option<BTreeMap<String, String>> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!("studybench: child {cmd:?} failed: {}", out.status);
        return None;
    }
    Some(format::parse_pairs(&String::from_utf8_lossy(&out.stdout)))
}

fn child(exe: &Path, kind: &str, w: Workload, seed: u64) -> Option<BTreeMap<String, String>> {
    run_child(Command::new(exe).args([
        "--child",
        kind,
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
    ]))
}

fn field(pairs: &BTreeMap<String, String>, key: &str) -> Option<f64> {
    pairs.get(key)?.parse().ok()
}

/// One untraced study's measurements.
struct Study {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_kb: f64,
    output_bytes: f64,
    servers: usize,
    violations: u64,
    digest: u64,
}

impl Study {
    fn parse(pairs: &BTreeMap<String, String>) -> Option<Study> {
        Some(Study {
            wall_s: field(pairs, "wall_s")?,
            cpu_s: field(pairs, "cpu_s")?,
            peak_rss_kb: field(pairs, "peak_rss_kb")?,
            output_bytes: field(pairs, "output_bytes")?,
            servers: pairs.get("servers")?.parse().ok()?,
            violations: pairs.get("violations")?.parse().ok()?,
            digest: parse_hex(pairs.get("digest")?)?,
        })
    }
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Medians and quartiles to stderr, for whoever runs the benchmark by
/// hand.
fn describe(name: &str, xs: &[f64]) {
    let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    eprintln!(
        "  {name:<12} median {:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  n {}",
        stats::median(xs),
        xs.len()
    );
}

fn drive(args: &Args) -> ExitCode {
    let w = args.workload;
    let exe = std::env::current_exe().expect("own executable path");
    let pinned = match format::parse_digests(PINNED_DIGESTS) {
        Ok(table) => table,
        Err(e) => {
            eprintln!("studybench: digests.txt: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected = (args.seed == studybench::DEFAULT_SEED).then(|| pinned.get(w.name()).copied());
    if expected == Some(None) {
        eprintln!("studybench: no digest pinned for {}", w.name());
        return ExitCode::FAILURE;
    }

    let mut setups = Vec::with_capacity(SETUP_RUNS);
    for _ in 0..SETUP_RUNS {
        match child(&exe, "setup", w, args.seed).and_then(|p| field(&p, "setup_s")) {
            Some(s) => setups.push(s),
            None => return ExitCode::FAILURE,
        }
    }

    // Studies until the clock runs out. A study fails when its child
    // fails, when the funnel breaks an invariant, or when its report
    // differs from the run's first report (or the pinned one).
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut studies: Vec<Study> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<u64> = None;
    while studies.len() < MIN_STUDIES || start.elapsed() < budget {
        attempted += 1;
        let Some(study) = child(&exe, "study", w, args.seed).and_then(|p| Study::parse(&p)) else {
            failed += 1;
            if failed > attempted / 2 {
                break;
            }
            continue;
        };
        let first = *reference.get_or_insert(study.digest);
        let pinned_ok = expected.flatten().is_none_or(|d| d == study.digest);
        if study.violations > 0 || study.digest != first || !pinned_ok {
            eprintln!(
                "studybench: study {attempted} failed its output check: digest {} (first {}, pinned {:?}), {} funnel violations",
                format::hex(study.digest),
                format::hex(first),
                expected.flatten().map(format::hex),
                study.violations
            );
            failed += 1;
        }
        studies.push(study);
    }
    if studies.is_empty() {
        eprintln!("studybench: no study completed");
        return ExitCode::FAILURE;
    }

    let col = |f: fn(&Study) -> f64| studies.iter().map(f).collect::<Vec<f64>>();
    let hosts_per_s: Vec<f64> = studies
        .iter()
        .map(|s| stats::hosts_per_s(s.servers, s.wall_s))
        .collect();
    let wall = col(|s| s.wall_s);
    let cpu = col(|s| s.cpu_s);
    let rss_mb = col(|s| s.peak_rss_kb * 1024.0 / 1e6);
    let output_mb = col(|s| s.output_bytes / 1e6);
    eprintln!(
        "studybench: {} seed {}: {} studies, {failed} failed",
        w.name(),
        args.seed,
        attempted
    );
    describe("hosts_per_s", &hosts_per_s);
    describe("wall_s", &wall);
    describe("setup_s", &setups);
    describe("cpu_s", &cpu);
    describe("peak_rss_mb", &rss_mb);
    describe("output_mb", &output_mb);

    if !args.trace {
        let values = [
            stats::median(&hosts_per_s),
            stats::median(&setups),
            stats::median(&cpu),
            stats::median(&rss_mb),
            stats::median(&output_mb),
        ];
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
        println!(
            "{}",
            format::result_json(failed == 0, attempted, failed, &metrics)
        );
        return ExitCode::SUCCESS;
    }

    // The traced pass: one single-threaded run of the same world, whose
    // report must hash to the untraced runs' digest.
    let reference = reference.expect("a study completed");
    let Some(rows) = run_child(Command::new(exe.with_file_name("studybench-trace")).args([
        "--workload",
        w.name(),
        "--seed",
        &args.seed.to_string(),
    ])) else {
        return ExitCode::FAILURE;
    };
    let traced_digest = rows.get("digest").and_then(|d| parse_hex(d));
    let traced_ok =
        traced_digest == Some(reference) && rows.get("violations").map(String::as_str) == Some("0");
    if !traced_ok {
        eprintln!(
            "studybench: traced pass rendered digest {:?}, untraced runs {}",
            traced_digest.map(format::hex),
            format::hex(reference)
        );
    }

    // Every workload runs one shard, so the layer rows reconcile against
    // the end-to-end wall time.
    let target = stats::median(&wall);
    let layer_rows: Vec<f64> = studybench::TIME_ROWS
        .iter()
        .filter_map(|row| field(&rows, row))
        .collect();
    let unattributed = stats::unattributed_s(target, &layer_rows);
    let traced_s = field(&rows, "traced_s").unwrap_or(f64::NAN);
    let overhead_pct = 100.0 * (traced_s / target - 1.0);
    if !stats::reconciles(target, unattributed, RECONCILE_TOLERANCE) {
        eprintln!(
            "studybench: layer rows leave {unattributed:.3} s of {target:.3} s unattributed (tolerance {:.0}%)",
            RECONCILE_TOLERANCE * 100.0
        );
    }
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in &PER_LAYER {
        let value = match name {
            "bench.unattributed_s" => unattributed,
            "bench.trace_overhead_pct" => overhead_pct,
            _ => match field(&rows, name) {
                Some(v) => v,
                None => {
                    eprintln!("studybench: traced pass did not report {name}");
                    return ExitCode::FAILURE;
                }
            },
        };
        eprintln!("  {name:<34} {value:>16.6} {unit}");
        metrics.push(Metric { name, value, unit });
    }
    let failed = failed + u64::from(!traced_ok);
    println!(
        "{}",
        format::result_json(failed == 0, attempted + 1, failed, &metrics)
    );
    ExitCode::SUCCESS
}
