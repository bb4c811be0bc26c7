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
