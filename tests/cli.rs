//! The `ftpcloud` command line is strict: a flag the subcommand does
//! not take, a value that does not parse, a missing value, or input the
//! run would ignore exits with code 2 and names the flag, before any
//! world is built. Each case runs the real binary.

use std::process::{Command, Output};

fn ftpcloud(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftpcloud")).args(args).output().expect("ftpcloud runs")
}

/// Runs `args` and checks it is refused, naming `culprit`, without
/// building a world or printing a result.
fn refused(args: &[&str], culprit: &str) {
    let out = ftpcloud(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(culprit), "{args:?}: error must name {culprit}: {stderr}");
    assert!(!stderr.contains("building world"), "{args:?} built a world: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
}

#[test]
fn values_that_do_not_parse_are_refused() {
    // Each of these used to run with the flag's default instead.
    refused(&["study", "--servers", "1e6"], "--servers");
    refused(&["study", "--timeseries", "t.csv", "--timeseries-every", "0.5"], "--timeseries-every");
    refused(&["funnel", "--faults", "12.5"], "--faults");
    refused(&["funnel", "--servers", "-5"], "--servers");
    refused(&["verdicts", "--seed", "forty-two"], "--seed");
}

#[test]
fn missing_values_are_refused() {
    refused(&["funnel", "--servers"], "--servers");
    refused(&["study", "--journal", "--profile"], "--journal");
    refused(&["explain", "--journal"], "--journal");
}

#[test]
fn flags_the_subcommand_does_not_take_are_refused() {
    refused(&["study", "--jounral", "j.jsonl"], "--jounral");
    refused(&["funnel", "--batch-size", "100"], "--batch-size");
    refused(&["funnel", "--progress"], "--progress");
    refused(&["explain", "--seed", "7", "--journal", "j.jsonl"], "--seed");
    refused(&["honeypot", "--servers", "10"], "--servers");
}

#[test]
fn repeats_and_stray_arguments_are_refused() {
    refused(&["funnel", "--seed", "1", "--seed", "2"], "--seed");
    refused(&["verdicts", "900"], "900");
    refused(&["study", "paper"], "paper");
    refused(&["frobnicate"], "frobnicate");
    refused(&[], "usage");
}

#[test]
fn input_that_would_be_ignored_is_refused() {
    // Each of these used to run, dropping part of what was asked.
    refused(&["study", "--servers", "600", "--scale", "100"], "--servers and --scale");
    refused(
        &["study", "--batch-size", "200", "--checkpoint-dir", "a", "--resume", "b"],
        "--checkpoint-dir and --resume",
    );
    refused(&["study", "--checkpoint-dir", "a"], "--checkpoint-dir needs --batch-size");
    refused(&["study", "--resume", "a"], "--resume needs --batch-size");
    refused(&["study", "--progress"], "--progress needs --batch-size");
    refused(&["study", "--timeseries-every", "100"], "--timeseries-every needs --timeseries");
    refused(&["funnel", "--timeseries-every", "100"], "--timeseries-every needs --timeseries");
    refused(&["study", "--shards", "0"], "--shards must be at least 1");
    refused(&["funnel", "--shards", "0"], "--shards must be at least 1");
    refused(
        &["funnel", "--servers", "100", "--timeseries", "ts.csv", "--timeseries-every", "0"],
        "--timeseries-every must be at least 1",
    );
    refused(&["study", "--batch-size", "0"], "--batch-size must be at least 1");
    refused(&["honeypot", "--pots", "0"], "--pots must be at least 1");
    refused(&["honeypot", "--days", "0"], "--days must be at least 1");
    refused(&["study", "--servers", "0"], "--servers must be at least 1");
    refused(&["study", "--scale", "0"], "--scale must be at least 1");
    for command in ["funnel", "certify", "verdicts", "notify"] {
        refused(&[command, "--servers", "0"], "--servers must be at least 1");
    }
    refused(&["funnel", "--faults", "150"], "--faults");
}

/// `--resume` continues a checkpointed run. A directory without a
/// checkpoint of the run's shards, missing or empty, is refused before
/// the world is built: starting over would checkpoint into it and
/// overwrite the journal, so both stay as they were.
#[test]
fn resume_without_a_checkpoint_is_refused() {
    let dir = std::env::temp_dir().join(format!("ftpcloud-cli-resume-{}", std::process::id()));
    let journal = dir.with_extension("jsonl");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::write(&journal, "kept\n").unwrap();
    let paths = (dir.to_str().expect("UTF-8"), journal.to_str().expect("UTF-8"));
    let args = ["study", "--servers", "300", "--batch-size", "100", "--journal", paths.1];
    refused(&[&args[..], &["--resume", paths.0]].concat(), "--resume");
    assert!(!dir.exists(), "a missing directory stays missing");
    std::fs::create_dir(&dir).unwrap();
    refused(&[&args[..], &["--shards", "2", "--resume", paths.0]].concat(), "--resume");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "an empty directory stays empty");
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), "kept\n", "the journal is kept");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&journal).ok();
}

/// `--top` is checked with the other flags, before the journal is
/// opened: these paths do not exist, so a late check would exit 1.
#[test]
fn explain_checks_top_before_reading_the_journal() {
    let missing = "/nonexistent/ftpcloud-journal.jsonl";
    refused(&["explain", "--journal", missing, "--top", "bogus"], "--top");
    refused(&["explain", "4.0.0.0", "--journal", missing, "--top", "faults"], "--top");
    refused(&["explain", "4.0.0", "--journal", missing], "4.0.0");
}

/// A world whose address space cannot hold its population is refused
/// before it is built; each of these used to hang or panic.
#[test]
fn worlds_that_cannot_be_planned_are_refused() {
    for scale in ["0", "1", "16", "64", "100", "128"] {
        refused(&["study", "--scale", scale], "--scale");
    }
    refused(&["study", "--servers", "300000000"], "--servers");
    for command in ["funnel", "certify", "verdicts", "notify"] {
        refused(&[command, "--servers", "40000"], "--servers");
    }
}

/// An artifact file that cannot be opened for writing stops the run
/// before its world is built, in memory and streamed alike: exit 1,
/// naming the flag and the path.
#[test]
fn unwritable_artifact_paths_fail_before_the_world_is_built() {
    let dir = std::env::temp_dir().join(format!("ftpcloud-cli-missing-{}", std::process::id()));
    let path = |name: &str| dir.join(name).to_str().expect("temp path is UTF-8").to_owned();
    let (trace, journal) = (path("t.jsonl"), path("j.jsonl"));
    for (args, flag, path) in [
        (vec!["funnel", "--servers", "100", "--trace", &trace], "--trace", &trace),
        (vec!["study", "--servers", "300", "--journal", &journal], "--journal", &journal),
        (
            vec!["study", "--servers", "300", "--journal", &journal, "--batch-size", "100"],
            "--journal",
            &journal,
        ),
    ] {
        let out = ftpcloud(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1; stderr: {stderr}");
        assert!(stderr.contains(&format!("{flag} {path}")), "{args:?}: {stderr}");
        assert!(!stderr.contains("building world"), "{args:?} built a world: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    assert!(!dir.exists());
}

/// A write that fails only at the end (the device is full) still exits
/// 1, naming its flag, after the other artifacts are written.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_final_write_exits_1_after_the_other_artifacts() {
    let trace =
        std::env::temp_dir().join(format!("ftpcloud-cli-trace-{}.jsonl", std::process::id()));
    let trace_str = trace.to_str().expect("temp path is UTF-8");
    let args = ["funnel", "--servers", "100", "--metrics", "/dev/full", "--trace", trace_str];
    let out = ftpcloud(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--metrics /dev/full"), "{stderr}");
    let written = std::fs::read_to_string(&trace).expect("the trace is written");
    assert!(written.lines().count() > 0 && written.ends_with('\n'));
    std::fs::remove_file(&trace).ok();
}

/// `--profile` alone installs a recorder (span statistics are always
/// collected) and prints the self-profile table.
#[test]
fn profile_alone_prints_the_self_profile() {
    let out = ftpcloud(&["funnel", "--servers", "100", "--profile"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-profile: spans by exclusive sim time"), "{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("stage.scan ")), "{stdout}");
}

/// `explain` keeps its positional address, before or after the flags.
#[test]
fn explain_takes_a_positional_address() {
    let ip = std::net::Ipv4Addr::new(10, 3, 7, 9);
    let mut journal = obs::HostJournal::new(ip, 0, 0);
    journal.note(1_000, &obs::JournalEvent::ProbeSent { attempt: 1 });
    journal.note(21_000, &obs::JournalEvent::ProbeReply { status: "open" });
    journal.note(21_000, &obs::JournalEvent::ProbeVerdict { verdict: "open" });
    let mut line = String::new();
    journal.render(&mut line);
    line.push('\n');
    let path = std::env::temp_dir().join(format!("ftpcloud-cli-{}.jsonl", std::process::id()));
    std::fs::write(&path, line).unwrap();
    let path = path.to_str().expect("temp path is UTF-8");

    let before = ["explain", "10.3.7.9", "--journal", path];
    let after = ["explain", "--journal", path, "10.3.7.9"];
    for args in [before, after] {
        let out = ftpcloud(&args);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("host 10.3.7.9 — journal timeline"), "{stdout}");
        assert!(stdout.contains("probe #1 sent"), "{stdout}");
    }
    refused(&["explain", "10.3.7.9", "10.3.7.10", "--journal", path], "10.3.7.10");
    refused(&["explain", "10.3.7.9", "--journal", path, "--top", "x", "--top", "y"], "--top");
    std::fs::remove_file(path).ok();
}

/// An address without a row was silent or never probed; `explain` says
/// so with the journal's silent tally, and refuses a v1 journal by
/// naming both versions. Both exit 1.
#[test]
fn explain_reports_silent_addresses_and_refuses_v1() {
    let mut journal = obs::HostJournal::new(std::net::Ipv4Addr::new(10, 3, 7, 9), 0, 0);
    journal.note(1_000, &obs::JournalEvent::ProbeVerdict { verdict: "open" });
    let mut row = String::new();
    journal.render(&mut row);
    let path = std::env::temp_dir().join(format!("ftpcloud-cli-v2-{}.jsonl", std::process::id()));
    std::fs::write(&path, format!("{row}\n{{\"v\":2,\"shard\":0,\"batch\":0,\"silent\":41}}\n"))
        .unwrap();
    let path_str = path.to_str().expect("temp path is UTF-8");

    let out = ftpcloud(&["explain", "10.3.7.10", "--journal", path_str]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("silent or not probed"), "{stderr}");
    assert!(stderr.contains("41 silent addresses"), "{stderr}");

    let out = ftpcloud(&["explain", "--journal", path_str]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.starts_with("journal: 42 hosts probed, 1 open,"), "{stdout}");

    std::fs::write(&path, row.replacen("\"v\":2", "\"v\":1", 1) + "\n").unwrap();
    let out = ftpcloud(&["explain", "--journal", path_str]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("v1") && stderr.contains("v2"), "{stderr}");
    std::fs::remove_file(&path).ok();
}
