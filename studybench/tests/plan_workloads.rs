//! Every workload's world must plan at seeds 1–40.
//!
//! `worldgen::plan_world` panics in `build_ases` ("address space … too
//! small for the population") once `PopulationSpec::sized` asks for
//! 20,000 servers or more, which is why `dense_stream` stops at 12,000
//! (README.md, "Known worldgen failure"). This keeps the workloads on
//! the side of that failure where planning works.

use studybench::Workload;

#[test]
fn every_workload_plans_at_seeds_1_to_40() {
    let mut failures = Vec::new();
    for w in Workload::ALL {
        for seed in 1..=40 {
            let spec = w.spec(seed);
            let planned =
                std::panic::catch_unwind(|| worldgen::plan_world(&spec).planned_host_count());
            match planned {
                Ok(hosts) if hosts >= spec.ftp_servers => {}
                Ok(hosts) => {
                    failures.push(format!("{} seed {seed}: {hosts} hosts planned", w.name()))
                }
                Err(_) => failures.push(format!("{} seed {seed}: plan_world panicked", w.name())),
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
