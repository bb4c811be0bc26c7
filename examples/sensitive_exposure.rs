//! §V as a standalone sweep: what sensitive data do anonymous FTP
//! servers leak?
//!
//! ```sh
//! cargo run --release --example sensitive_exposure
//! ```

use analysis::exposure::{self, SensitiveClass};
use ftp_study::{aggregate_of, run_study, tables, StudyConfig};

fn main() {
    let results = run_study(&StudyConfig::small(99, 1_200));

    let aggregate = aggregate_of(&results);
    println!("{}", tables::table09_sensitive(&aggregate));
    println!("{}", tables::table08_extensions(&aggregate));
    println!("{}", tables::table10_breakout(&results));

    // Headline §V numbers.
    let anon: Vec<_> = results.records.iter().filter(|r| r.is_anonymous()).collect();
    let exposing = anon.iter().filter(|r| r.exposes_data()).count();
    let sensitive = anon.iter().filter(|r| exposure::exposes_sensitive(r)).count();
    let photos = anon.iter().filter(|r| exposure::is_photo_library(r, 50)).count();
    let os_roots = anon.iter().filter(|r| exposure::os_root_of(r).is_some()).count();
    println!("Of {} anonymous servers:", anon.len());
    println!(
        "  {} ({:.1}%) exposed some data (paper: 24%)",
        exposing,
        exposing as f64 / anon.len() as f64 * 100.0
    );
    println!(
        "  {} ({:.1}%) exposed at least one sensitive file (paper: ~5%, before boost correction)",
        sensitive,
        sensitive as f64 / anon.len() as f64 * 100.0
    );
    println!("  {photos} hosted recognizable photo libraries");
    println!("  {os_roots} exposed an operating-system root");
    println!(
        "\n(rare-phenomenon boost in this run: {:.0}x — divide before comparing absolutes)",
        results.truth.spec.rare_boost
    );
    let _ = SensitiveClass::ALL; // silence docs-only import in some builds
}
