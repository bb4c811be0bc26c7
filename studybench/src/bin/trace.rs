//! `studybench-trace --workload NAME --seed N`: the traced pass.
//!
//! Drives one workload's study from outside, single-threaded, through
//! the crates' public calls — `plan_world`, `materialize` /
//! `materialize_bucket`, the `HostDiscovery`, `Enumerator` and
//! `WebProbe` simulator runs, `StreamingAggregate` folds, the report
//! renderers and the recorder's exports — in the partition geometry the
//! workload's runner uses: the whole world in memory, or every shard's
//! batches in sequence when streamed. Each call is timed on its own,
//! with `bench::CountingAlloc` counting its allocations. The pipeline's
//! counters come from a separate run of the real runner with the
//! metrics recorder on, so the timed calls run exactly as in the
//! workload. Prints one `name=value` line per layer row, plus the
//! report's digest so the driver can check that this pass rebuilt the
//! report of the untraced runs.

use enumerator::{BounceCollector, EnumConfig, Enumerator, HostRecord};
use ftp_proto::HostPort;
use ftp_study::{full_report, stream_report, HttpObservation, StudyConfig, StudyResults, WebProbe};
use netsim::{shard_of, SimDuration, Simulator};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::process::ExitCode;
use std::time::Instant;
use studybench::stats::ratio;
use studybench::{format, Artifacts, Shape, Workload};
use zscan::{Blocklist, HashBatch, HashShard, HostDiscovery, ScanConfig};

#[global_allocator]
static ALLOC: bench::CountingAlloc = bench::CountingAlloc::new();

// The study's own machines and the bounce collector's port, placed
// where the study runner places them.
const SCANNER_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 1);
const COLLECTOR_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 2);
const WEB_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 3);
const COLLECTOR_PORT: u16 = 2121;

/// Wall time, allocations and peak heap growth of the calls into one
/// layer: times and allocations summed, the peak the largest any call
/// reached.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    s: f64,
    allocs: u64,
    peak_bytes: u64,
}

/// Runs `f` as one timed call and charges it to `cost`.
fn timed<T>(cost: &mut Cost, f: impl FnOnce() -> T) -> T {
    bench::reset();
    let start = Instant::now();
    let out = f();
    cost.s += start.elapsed().as_secs_f64();
    cost.allocs += bench::snapshot().allocs;
    cost.peak_bytes = cost.peak_bytes.max(bench::peak_growth_since_reset());
    out
}

/// One simulator phase: the cost of its calls plus what the simulator
/// did during them.
#[derive(Debug, Default)]
struct Phase {
    cost: Cost,
    events: u64,
    wheel_cascaded: u64,
    sim_us: u64,
}

impl Phase {
    fn run<T>(&mut self, sim: &mut Simulator, f: impl FnOnce(&mut Simulator) -> T) -> T {
        let events = sim.events_processed();
        let cascaded = sim.wheel_stats().cascaded_entries;
        let now = sim.now();
        let out = timed(&mut self.cost, || f(sim));
        self.events += sim.events_processed() - events;
        self.wheel_cascaded += sim.wheel_stats().cascaded_entries - cascaded;
        self.sim_us += (sim.now() - now).as_micros();
        out
    }
}

/// Everything the traced pass measures.
#[derive(Debug, Default)]
struct Layers {
    plan: Cost,
    materialize: Cost,
    hosts: u64,
    scan: Phase,
    probes: u64,
    open: u64,
    enumerate: Phase,
    webprobe: Phase,
    observations: u64,
    bucket: Cost,
    order: Cost,
    reset: Cost,
    batches: u64,
    fold: Cost,
    report: Cost,
    finish: Cost,
    journal_render: Cost,
    journal_lines: u64,
    journal_bytes: u64,
}

impl Layers {
    /// Seconds spent inside the timed calls, summed.
    fn time_s(&self) -> f64 {
        [
            self.plan,
            self.materialize,
            self.scan.cost,
            self.enumerate.cost,
            self.webprobe.cost,
            self.bucket,
            self.order,
            self.reset,
            self.fold,
            self.report,
            self.finish,
            self.journal_render,
        ]
        .iter()
        .map(|c| c.s)
        .sum()
    }
}

/// What one partition's three measurement stages produced.
struct PartitionOut {
    ips_scanned: u64,
    open_port: u64,
    records: Vec<HostRecord>,
    bounce_hits: HashSet<Ipv4Addr>,
    http: HashMap<Ipv4Addr, HttpObservation>,
}

/// Discovery, enumeration and the HTTP sweep over the hosts already
/// materialized in `sim`, set up exactly as the study runner sets them
/// up, one timed phase each.
fn run_partition(
    cfg: &StudyConfig,
    sim: &mut Simulator,
    hash_shard: HashShard,
    hash_batch: Option<HashBatch>,
    scan_order: Option<Vec<u64>>,
    l: &mut Layers,
) -> PartitionOut {
    let seed = cfg.population.seed;
    let mut scan_cfg = ScanConfig::tcp21(cfg.population.space, seed ^ 0x5ca);
    scan_cfg.blocklist = Blocklist::standard();
    scan_cfg.hash_shard = Some(hash_shard);
    scan_cfg.hash_batch = hash_batch;
    scan_cfg.per_probe_events = cfg.per_probe_events;
    let (open, ips_scanned) = l.scan.run(sim, |sim| {
        let (scanner, results) = match scan_order {
            Some(order) => HostDiscovery::with_order(scan_cfg, order),
            None => HostDiscovery::new(scan_cfg),
        };
        let id = sim.register_endpoint(Box::new(scanner));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        let results = results.take();
        (results.open, results.probes_sent)
    });
    let open_port = open.len() as u64;
    l.probes += ips_scanned;
    l.open += open_port;

    let (records, bounce_hits) = l.enumerate.run(sim, |sim| {
        let (collector, bounce_hits) = BounceCollector::new();
        let cid = sim.register_endpoint(Box::new(collector));
        sim.bind(COLLECTOR_IP, COLLECTOR_PORT, cid);
        let mut enum_cfg = EnumConfig::new(SCANNER_IP)
            .with_request_cap(cfg.request_cap)
            .with_concurrency(cfg.concurrency)
            .with_request_gap(cfg.request_gap);
        enum_cfg.respect_robots = cfg.respect_robots;
        enum_cfg.strict_replies = cfg.strict_replies;
        if cfg.probe_bounce {
            enum_cfg = enum_cfg.with_bounce_probe(HostPort::new(COLLECTOR_IP, COLLECTOR_PORT));
        }
        let (enumerator, records) = Enumerator::new(enum_cfg, open);
        let eid = sim.register_endpoint(Box::new(enumerator));
        sim.schedule_timer(eid, SimDuration::ZERO, 0);
        sim.run();
        (records.take(), bounce_hits.take())
    });

    let http = if cfg.probe_http {
        l.webprobe.run(sim, |sim| {
            let ftp_ips = records
                .iter()
                .filter(|r| r.ftp_compliant)
                .map(|r| r.ip)
                .collect();
            let (probe, results) = WebProbe::new(WEB_IP, ftp_ips);
            let wid = sim.register_endpoint(Box::new(probe));
            sim.schedule_timer(wid, SimDuration::ZERO, 0);
            sim.run();
            results.take()
        })
    } else {
        HashMap::new()
    };
    l.observations += http.len() as u64;
    PartitionOut {
        ips_scanned,
        open_port,
        records,
        bounce_hits,
        http,
    }
}

/// The in-memory runner at one shard, call by call.
fn trace_in_memory(cfg: &StudyConfig, l: &mut Layers) -> Artifacts {
    let seed = cfg.population.seed;
    let plan = timed(&mut l.plan, || worldgen::plan_world(&cfg.population));
    if cfg.obs.any() {
        obs::install(Box::new(obs::CollectingRecorder::with_config(0, cfg.obs)));
    }
    let mut sim = Simulator::new(seed);
    let (mut hosts, mut non_ftp) = timed(&mut l.materialize, || {
        plan.materialize(&mut sim, |ip| shard_of(seed, ip, 1) == 0)
    });
    l.hosts += (hosts.len() + non_ftp.len()) as u64;
    let out = run_partition(
        cfg,
        &mut sim,
        HashShard {
            seed,
            index: 0,
            shards: 1,
        },
        None,
        None,
        l,
    );
    let recorded = timed(&mut l.finish, || obs::uninstall().map(|r| r.finish()));
    drop(sim);

    hosts.sort_by_key(|h| h.ip);
    non_ftp.sort_unstable();
    let mut records = out.records;
    records.sort_by_key(|r| r.ip);
    let results = StudyResults {
        truth: plan.into_truth(hosts, non_ftp),
        ips_scanned: out.ips_scanned,
        open_port: out.open_port,
        records,
        bounce_hits: out.bounce_hits,
        http: out.http,
        obs: recorded,
    };
    let report = timed(&mut l.report, || full_report(&results));
    let (journal, timeseries) = timed(&mut l.journal_render, || match &results.obs {
        Some(o) => (o.journal_jsonl(), o.timeseries_csv()),
        None => (String::new(), String::new()),
    });
    l.journal_lines += results.obs.as_ref().map_or(0, |o| o.journal.len() as u64);
    l.journal_bytes += journal.len() as u64;
    Artifacts {
        report,
        journal,
        timeseries,
        funnel: results.funnel(),
        metrics: None,
    }
}

/// The streamed runner, every shard's batches in sequence, call by
/// call. The streamed workload runs no recorder.
fn trace_streamed(cfg: &StudyConfig, batch_size: usize, shards: u64, l: &mut Layers) -> Artifacts {
    assert!(!cfg.obs.any(), "the streamed trace drives no recorder");
    let seed = cfg.population.seed;
    let space = cfg.population.space;
    let plan = timed(&mut l.plan, || worldgen::plan_world(&cfg.population));
    let batches = studybench::batch_count(&plan, batch_size);
    let mut merged = analysis::StreamingAggregate::default();
    for index in 0..shards {
        let hash_shard = HashShard {
            seed,
            index,
            shards,
        };
        let mut sim = Simulator::new(seed);
        let buckets = timed(&mut l.bucket, || {
            plan.bucket_shard((index, shards), batches)
        });
        let shard_order = timed(&mut l.order, || {
            let mut sc = ScanConfig::tcp21(space, seed ^ 0x5ca);
            sc.blocklist = Blocklist::standard();
            sc.hash_shard = Some(hash_shard);
            sc.materialize_order()
        });
        let mut aggregate = analysis::StreamingAggregate::default();
        for batch in 0..batches {
            timed(&mut l.reset, || sim.reset(seed));
            let (hosts, non_ftp) = timed(&mut l.materialize, || {
                plan.materialize_bucket(&mut sim, &buckets, batch)
            });
            l.hosts += (hosts.len() + non_ftp.len()) as u64;
            timed(&mut l.materialize, || drop((hosts, non_ftp)));
            let hash_batch = HashBatch {
                seed,
                index: batch,
                batches,
            };
            let batch_order = timed(&mut l.order, || {
                shard_order
                    .iter()
                    .copied()
                    .filter(|&ix| hash_batch.contains(space.addr_at(ix)))
                    .collect::<Vec<u64>>()
            });
            let out = run_partition(
                cfg,
                &mut sim,
                hash_shard,
                Some(hash_batch),
                Some(batch_order),
                l,
            );
            timed(&mut l.fold, || {
                aggregate.fold_scan(out.ips_scanned, out.open_port);
                for r in &out.records {
                    aggregate.fold_record(
                        r,
                        out.bounce_hits.contains(&r.ip),
                        Some(plan.registry()),
                    );
                }
                for o in out.http.values() {
                    aggregate.fold_http(o.powered_by.is_some());
                }
            });
            l.batches += 1;
        }
        timed(&mut l.fold, || merged.merge(&aggregate));
    }
    let report = timed(&mut l.report, || stream_report(&merged, &cfg.population));
    let funnel = merged.funnel();
    Artifacts {
        report,
        journal: String::new(),
        timeseries: String::new(),
        funnel,
        metrics: None,
    }
}

/// One traced pass of the workload's geometry; returns its artifacts
/// and the wall time of the whole pass.
fn trace(w: Workload, cfg: &StudyConfig, l: &mut Layers) -> (Artifacts, f64) {
    let start = Instant::now();
    let artifacts = match w.shape() {
        Shape::InMemory => trace_in_memory(cfg, l),
        Shape::Streamed { batch_size, shards } => trace_streamed(cfg, batch_size, shards, l),
    };
    (artifacts, start.elapsed().as_secs_f64())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (w, seed) = match args.as_slice() {
        [f1, name, f2, seed] if f1 == "--workload" && f2 == "--seed" => {
            match (Workload::parse(name), seed.parse::<u64>()) {
                (Some(w), Ok(seed)) => (w, seed),
                _ => {
                    eprintln!("studybench-trace: bad workload {name} or seed {seed}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => {
            eprintln!("usage: studybench-trace --workload NAME --seed N");
            return ExitCode::from(2);
        }
    };
    let cfg = w.config(seed);
    let mut l = Layers::default();
    let (artifacts, traced_s) = trace(w, &cfg, &mut l);

    // The recorder's tax: the same traced calls on the same world with
    // the recorder off. 1 where the workload records nothing.
    let tax_ratio = if cfg.obs.any() {
        let mut bare_cfg = cfg.clone();
        bare_cfg.obs = obs::ObsConfig::default();
        let mut bare = Layers::default();
        trace(w, &bare_cfg, &mut bare);
        ratio(l.time_s(), bare.time_s())
    } else {
        1.0
    };

    // Counters from the real runner with the metrics recorder on.
    let mut counted_cfg = cfg.clone();
    counted_cfg.obs.metrics = true;
    let counters = studybench::run_study(w.shape(), &counted_cfg)
        .0
        .metrics
        .expect("the metrics recorder reports counters");
    let count = |c: obs::Counter| counters.counter(c) as f64;
    let sessions = count(obs::Counter::SessionsStarted);
    let replies = count(obs::Counter::RepliesTotal);
    let completed = count(obs::Counter::SessionsFinished) - count(obs::Counter::GaveUps);
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let ns_per = |cost: Cost, n: f64| ratio(cost.s * 1e9, n);

    let mut rows: Vec<(String, f64)> = vec![
        ("worldgen.plan_s".into(), l.plan.s),
        ("worldgen.materialize_s".into(), l.materialize.s),
        (
            "worldgen.allocs".into(),
            (l.plan.allocs + l.materialize.allocs) as f64,
        ),
        (
            "worldgen.peak_mb".into(),
            mb(l.plan.peak_bytes.max(l.materialize.peak_bytes)),
        ),
        ("worldgen.hosts".into(), l.hosts as f64),
        ("worldgen.vfs_nodes".into(), count(obs::Counter::VfsNodes)),
        ("zscan.s".into(), l.scan.cost.s),
        ("zscan.allocs".into(), l.scan.cost.allocs as f64),
        ("zscan.probes".into(), l.probes as f64),
        ("zscan.open".into(), l.open as f64),
        (
            "zscan.hit_ratio".into(),
            ratio(l.open as f64, l.probes as f64),
        ),
        (
            "zscan.ns_per_probe".into(),
            ns_per(l.scan.cost, l.probes as f64),
        ),
        ("enumerator.s".into(), l.enumerate.cost.s),
        (
            "enumerator.allocs_per_host".into(),
            ratio(l.enumerate.cost.allocs as f64, sessions),
        ),
        ("enumerator.peak_mb".into(), mb(l.enumerate.cost.peak_bytes)),
        ("enumerator.sessions".into(), sessions),
        (
            "enumerator.completed_ratio".into(),
            ratio(completed, sessions),
        ),
        ("enumerator.replies".into(), replies),
        (
            "enumerator.ns_per_reply".into(),
            ns_per(l.enumerate.cost, replies),
        ),
        (
            "enumerator.listing_mb".into(),
            mb(counters.counter(obs::Counter::ListingBytes)),
        ),
        (
            "enumerator.connect_retries".into(),
            count(obs::Counter::ConnectRetries),
        ),
        (
            "enumerator.step_timeouts".into(),
            count(obs::Counter::StepTimeouts),
        ),
    ];
    for (name, phase) in [
        ("scan", &l.scan),
        ("enumerate", &l.enumerate),
        ("webprobe", &l.webprobe),
    ] {
        rows.push((format!("netsim.{name}.events"), phase.events as f64));
        rows.push((
            format!("netsim.{name}.ns_per_event"),
            ns_per(phase.cost, phase.events as f64),
        ));
        rows.push((
            format!("netsim.{name}.wheel_cascaded"),
            phase.wheel_cascaded as f64,
        ));
        rows.push((format!("netsim.{name}.sim_s"), phase.sim_us as f64 / 1e6));
    }
    rows.extend([
        ("webprobe.s".into(), l.webprobe.cost.s),
        ("webprobe.observations".into(), l.observations as f64),
        ("stream.bucket_s".into(), l.bucket.s),
        ("stream.order_s".into(), l.order.s),
        ("stream.reset_s".into(), l.reset.s),
        ("stream.batches".into(), l.batches as f64),
        ("analysis.fold_s".into(), l.fold.s),
        ("analysis.fold_allocs".into(), l.fold.allocs as f64),
        ("tables.report_s".into(), l.report.s),
        ("tables.report_allocs".into(), l.report.allocs as f64),
        ("tables.report_bytes".into(), artifacts.report.len() as f64),
        ("obs.finish_s".into(), l.finish.s),
        ("obs.journal_render_s".into(), l.journal_render.s),
        ("obs.journal_lines".into(), l.journal_lines as f64),
        ("obs.journal_mb".into(), mb(l.journal_bytes)),
        ("obs.tax_ratio".into(), tax_ratio),
    ]);

    println!("digest={}", format::hex(artifacts.digest()));
    println!(
        "violations={}",
        artifacts.funnel.invariant_violations().len()
    );
    println!("traced_s={traced_s}");
    println!("layer_sum_s={}", l.time_s());
    for (name, value) in rows {
        println!("{name}={value}");
    }
    ExitCode::SUCCESS
}
