//! Quickstart: generate a small simulated Internet, scan it, enumerate
//! the FTP servers, and print the Table I funnel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ftp_study::{aggregate_of, run_study, tables, StudyConfig};

fn main() {
    // A 1 000-server world with deterministic seed 42. `small` boosts
    // rare phenomena so even this tiny population shows campaign and
    // sensitive-file signal.
    let cfg = StudyConfig::small(42, 1_000);
    println!(
        "Generating {} simulated FTP servers in {} and scanning…\n",
        cfg.population.ftp_servers, cfg.population.space
    );
    let results = run_study(&cfg);

    let funnel = results.funnel();
    println!("{}", tables::table01_funnel(&funnel));
    println!("{}", tables::table02_classes(&aggregate_of(&results)));

    println!(
        "Anonymous rate: {:.2}% (paper: 8.15%) — ground truth had {} anonymous servers, the pipeline measured {}.",
        funnel.anonymous_rate() * 100.0,
        results.truth.anonymous_count(),
        funnel.anonymous,
    );
}
