//! Distributed host discovery: the address space split by hash across
//! several scanners, as the paper's team "spread concurrent connections
//! across a large number of widely dispersed hosts" (§III-A), and as
//! `ftpcloud study --shards K` splits its world.
//!
//! ```sh
//! cargo run --release --example sharded_scan
//! ```

use netsim::{SimDuration, Simulator};
use worldgen::PopulationSpec;
use zscan::{Blocklist, HashShard, HostDiscovery, ScanConfig};

fn main() {
    const SHARDS: u64 = 4;
    let mut sim = Simulator::new(7);
    let spec = PopulationSpec::small(7, 1_500);
    let truth = worldgen::build(&mut sim, &spec);
    println!(
        "World: {} FTP servers (+{} non-FTP responders) in {}",
        truth.hosts.len(),
        truth.non_ftp_open.len(),
        spec.space
    );

    // Four hash shards of the space: each scanner covers a disjoint
    // slice of about a quarter, together covering it exactly once.
    let mut handles = Vec::new();
    for index in 0..SHARDS {
        let mut cfg = ScanConfig::tcp21(spec.space, 99);
        cfg.blocklist = Blocklist::standard();
        cfg.hash_shard = Some(HashShard { seed: spec.seed, index, shards: SHARDS });
        let (scanner, results) = HostDiscovery::new(cfg);
        let id = sim.register_endpoint(Box::new(scanner));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        handles.push(results);
    }
    sim.run();

    let mut total_open = 0;
    let mut total_probes = 0;
    for (i, h) in handles.iter().enumerate() {
        let r = h.borrow();
        println!(
            "shard {i}: {} probes, {} open, {} closed, {} filtered",
            r.probes_sent,
            r.open.len(),
            r.closed,
            r.filtered
        );
        total_open += r.open.len();
        total_probes += r.probes_sent;
    }
    println!("\ncombined: {total_probes} probes, {total_open} open ports");
    let expected = truth.hosts.len() + truth.non_ftp_open.len();
    println!("ground truth responders: {expected}");
    assert_eq!(total_open, expected, "shards cover the space exactly once");
    println!("shards partition the address space losslessly ✓");
}
