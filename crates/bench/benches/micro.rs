//! Micro-benchmarks of the hot protocol and scanning kernels, plus the
//! ablation comparisons DESIGN.md §5 calls out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftp_proto::listing::{self, ListingFormat};
use ftp_proto::{Banner, Command, HostPort, ReplyBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use zscan::CyclicPermutation;

/// Ablation 1: cyclic-group permutation vs the alternatives ZMap
/// rejected — materialized Fisher-Yates shuffle (O(n) memory) and the
/// linear sweep (no memory, no randomness).
fn scan_order_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_scan_order");
    for &size in &[1u64 << 16, 1 << 20] {
        g.bench_with_input(BenchmarkId::new("cyclic_group", size), &size, |b, &size| {
            b.iter(|| {
                let perm = CyclicPermutation::new(size, 7);
                let mut acc = 0u64;
                for v in perm.iter() {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("fisher_yates", size), &size, |b, &size| {
            b.iter(|| {
                use rand::seq::SliceRandom;
                let mut v: Vec<u64> = (0..size).collect();
                v.shuffle(&mut StdRng::seed_from_u64(7));
                let mut acc = 0u64;
                for x in &v {
                    acc = acc.wrapping_add(*x);
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("linear_sweep", size), &size, |b, &size| {
            b.iter(|| {
                let mut acc = 0u64;
                for v in 0..size {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn listing_parse_bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut bodies = std::collections::HashMap::new();
    for (fmt, label) in [
        (ListingFormat::Unix, "unix"),
        (ListingFormat::Dos, "dos"),
        (ListingFormat::Eplf, "eplf"),
        (ListingFormat::Mlsd, "mlsd"),
    ] {
        let mut body = String::new();
        for i in 0..1_000 {
            let name = format!("file-{i:05}.dat");
            let entry = listing::ListingEntryRef {
                name: &name,
                is_dir: rng.random_bool(0.1),
                size: Some(rng.random_range(0..1_000_000_000)),
                permissions: Some(ftp_proto::listing::Permissions::public_file()),
                owner: Some("ftp"),
                mtime: Some("Jun 18  2015"),
            };
            listing::render_line_into(entry, fmt, &mut body);
            body.push_str("\r\n");
        }
        bodies.insert(label, (fmt, body));
    }
    let mut g = c.benchmark_group("listing_parse_1k_lines");
    for (label, (fmt, body)) in &bodies {
        g.bench_function(*label, |b| {
            b.iter(|| {
                let (mut entries, mut failures) = (0usize, 0usize);
                for line in black_box(body).lines() {
                    match listing::parse_line_ref(line, *fmt) {
                        Ok(Some(e)) => {
                            black_box(e);
                            entries += 1;
                        }
                        Ok(None) => {}
                        Err(_) => failures += 1,
                    }
                }
                black_box((entries, failures))
            })
        });
    }
    g.finish();
}

fn protocol_bench(c: &mut Criterion) {
    c.bench_function("command_parse", |b| {
        b.iter(|| {
            for line in
                ["USER anonymous", "PASS a@b.c", "PORT 10,0,0,1,19,137", "LIST /pub", "RETR robots.txt"]
            {
                black_box(line.parse::<Command>().unwrap());
            }
        })
    });
    c.bench_function("reply_parse", |b| {
        let mut replies = ReplyBuf::new();
        b.iter(|| {
            let line = black_box("227 Entering Passive Mode (10,0,0,5,19,137).");
            black_box(replies.push_line(line).unwrap().map(|r| r.code()))
        })
    });
    c.bench_function("pasv_extract", |b| {
        b.iter(|| {
            black_box(
                HostPort::parse_pasv_reply("Entering Passive Mode (10,0,0,5,19,137).").unwrap(),
            )
        })
    });
    let banners = [
        "ProFTPD 1.3.5 Server (Debian)",
        "(vsFTPd 3.0.2)",
        "Welcome to Pure-FTPd [privsep] [TLS]",
        "QNAP NAS FTP server ready",
        "220 RMNetwork FTP",
        "Some unknown banner text here",
    ];
    c.bench_function("banner_fingerprint", |b| {
        b.iter(|| {
            for raw in banners {
                black_box(Banner::parse(raw));
            }
        })
    });
}

/// Ablation 4 micro-view: hardened vs strict-shaped reply handling cost
/// (the tolerance is effectively free), through the enumerator's
/// assembler.
fn reply_tolerance_bench(c: &mut Criterion) {
    let clean = "230 Login successful";
    let quirky = "230Login successful"; // jammed text
    let mut g = c.benchmark_group("ablation_reply_tolerance");
    for (label, line) in [("clean_line", clean), ("quirky_line", quirky)] {
        g.bench_function(label, |b| {
            let mut replies = ReplyBuf::new();
            b.iter(|| black_box(replies.push_line(black_box(line)).unwrap().map(|r| r.code())))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(2));
    targets = scan_order_ablation, listing_parse_bench, protocol_bench, reply_tolerance_bench
}
criterion_main!(benches);
