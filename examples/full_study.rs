//! The complete reproduction: every table and figure of the paper,
//! regenerated from a scaled-down simulated Internet.
//!
//! ```sh
//! cargo run --release --example full_study            # default 1:2048 scale
//! cargo run --release --example full_study -- 1024    # bigger world (slower)
//! ```
//!
//! All output is *measured* by the scanner/enumerator pipeline; the
//! header documents the population scale and the rare-phenomenon boost
//! to apply when comparing against the paper's absolute counts.

use ftp_study::{run_study, tables, StudyConfig};
use worldgen::PopulationSpec;

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_048);
    let spec = PopulationSpec::study(42, scale);
    eprintln!(
        "Building 1:{scale} world: {} FTP servers in {} (rare boost {:.0}x)…",
        spec.ftp_servers, spec.space, spec.rare_boost
    );
    let mut cfg = StudyConfig::new(spec);
    // Simulated time is free, but wall-clock isn't: a tighter request
    // gap accelerates the run without changing any measured count.
    cfg.request_gap = netsim::SimDuration::from_millis(20);
    let t0 = std::time::Instant::now();
    let results = run_study(&cfg);
    eprintln!(
        "Pipeline done in {:.1}s wall-clock ({} records).\n",
        t0.elapsed().as_secs_f64(),
        results.records.len()
    );
    println!("{}", tables::full_report(&results));
    println!("{}", ftp_study::verdicts::render(&results));
    let (ok, approx, noise) = ftp_study::verdicts::scoreboard(&results);
    println!("Scoreboard: {ok} reproduced, {approx} approximate, {noise} small-N.\n");
    // Machine-readable Figure 1 for plotting.
    let csv_path = std::env::temp_dir().join("fig01_cdf.csv");
    if std::fs::write(&csv_path, tables::fig01_cdf_csv(&tables::as_tallies(&results))).is_ok() {
        eprintln!("Figure 1 series written to {}", csv_path.display());
    }

    eprintln!("Running the §VIII honeypot experiment (8 honeypots, 90 days)…");
    let report = ftp_study::run_honeypot_experiment(42, 8, 90);
    println!("SECTION VIII. HONEYPOT RESULTS (measured)");
    println!("  observation window        {} days", report.observation_days);
    println!("  unique scanning IPs       {}", report.unique_ips);
    println!("  dominant-AS share         {:.1}%", report.henan_share * 100.0);
    println!("  IPs speaking FTP          {}", report.ftp_speakers);
    println!("  IPs traversing (CWD)      {}", report.traversers);
    println!("  IPs listing               {}", report.listers);
    println!("  credential pairs          {}", report.credential_pairs);
    println!("  AUTH fingerprinters       {}", report.auth_fingerprinters);
    println!(
        "  PORT bounce attempts      {} IPs → {} distinct target(s), {} confirmed",
        report.bounce_attempt_ips, report.bounce_targets, report.bounces_received_at_target
    );
    println!("  CVE-2015-3306 attempts    {}", report.cve_2015_3306_attempts);
    println!("  Seagate root-RAT attempts {}", report.root_login_attempts);
    println!("  HTTP GETs on port 21      {}", report.http_gets);
    println!("  WaReZ MKDs                {}", report.warez_mkdirs);
}
