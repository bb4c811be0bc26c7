//! Population assembly: from the paper's rates to a bound, scannable
//! simulated Internet.
//!
//! Generation is two-phase. Phase one draws a host plan per server —
//! category, device, software, AS, address, behavioral flags, content
//! archetype — honoring the joint distributions of Tables I–IX and the
//! §VI–§IX rates. Phase two materializes the plans into `ftpd` engines
//! bound inside a [`netsim::Simulator`], plus the non-FTP port-21
//! population and co-hosted HTTP services. The returned [`WorldTruth`]
//! is ground truth for validation: analyses must *measure* their numbers
//! through the scanner and enumerator, and tests compare measurement
//! against this truth.

use crate::campaigns;
use crate::catalog::{self, Daemon, DeviceKind, DeviceModel};
use crate::content::{self, ContentKind, OsKind, SensitiveKind};
use crate::rates::{self, Campaign, Category};
use ftpd::implementations;
use ftpd::misc::{HttpService, RawBannerService, SilentService};
use ftpd::profile::{AnonPolicy, ServerProfile, UploadQuirk, UserReplyStyle};
use ftpd::FtpServerEngine;
use netsim::{AsKind, AsRegistry, Asn, FaultProfile, Ipv4Net, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtls::SimCertificate;
use simvfs::Vfs;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Parameters of a generated world.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Master seed; everything is a pure function of it and the fields.
    pub seed: u64,
    /// Address space hosts are placed in.
    pub space: Ipv4Net,
    /// Number of FTP servers to generate.
    pub ftp_servers: usize,
    /// Documentation factor: paper count ≈ measured × scale.
    pub scale: u64,
    /// Multiplier applied to *rare* phenomena (world-writable servers,
    /// campaigns, Table IX sensitive classes, OS roots, Ramnit) so small
    /// populations still carry measurable signal. Proportions *between*
    /// rare phenomena are preserved; EXPERIMENTS.md divides measured
    /// counts by this boost before comparing against the paper.
    pub rare_boost: f64,
    /// Also generate open-port-21-but-not-FTP hosts (Table I's gap).
    pub include_non_ftp: bool,
    /// Bind co-hosted HTTP services (§VI-B overlap measurement).
    pub include_http: bool,
    /// Fraction of the FTP population given a hostile
    /// [`netsim::FaultProfile`] at materialization (0.0 = every host is
    /// well-behaved). Assignment hashes `(seed, ip)` against this
    /// threshold instead of drawing from the generation RNG, so raising
    /// the fraction only *adds* faulty hosts: every host that is clean
    /// at 0.5 is also clean — and behaves byte-identically — at 0.1
    /// and 0.0. The chaos suite depends on that monotonicity.
    pub fault_fraction: f64,
}

impl PopulationSpec {
    /// A small world for tests: ~`n` FTP servers in `4.0.0.0/16`.
    pub fn small(seed: u64, n: usize) -> Self {
        PopulationSpec {
            seed,
            space: Ipv4Net::new(Ipv4Addr::new(4, 0, 0, 0), 14),
            ftp_servers: n,
            scale: (rates::PAPER_FTP / n as f64) as u64,
            rare_boost: 20.0,
            include_non_ftp: true,
            include_http: true,
            fault_fraction: 0.0,
        }
    }

    /// The full-study default: paper counts divided by `scale`.
    pub fn study(seed: u64, scale: u64) -> Self {
        let n = (rates::PAPER_FTP / scale as f64).round() as usize;
        PopulationSpec {
            seed,
            space: Ipv4Net::new(Ipv4Addr::new(4, 0, 0, 0), 12),
            ftp_servers: n,
            scale,
            rare_boost: (scale as f64 / 64.0).max(1.0),
            include_non_ftp: true,
            include_http: true,
            fault_fraction: 0.0,
        }
    }

    /// A world sized by server count rather than scale factor: exactly
    /// `n` FTP servers in an address space grown to fit them.
    ///
    /// `study(seed, scale)` pins the space at a /12, which caps the
    /// population around a quarter-million hosts; streaming runs ask
    /// for the population directly (`--servers 1000000`), so this
    /// constructor picks the smallest prefix whose size is at least 16×
    /// the server count, and never smaller than a /14 — room for the
    /// non-FTP port-21 population and the AS allocator's alignment
    /// slack (at 4× the allocator runs out of room from about 17,000
    /// servers).
    pub fn sized(seed: u64, n: usize) -> Self {
        let need = (n as u64).saturating_mul(16).next_power_of_two().max(1 << 18);
        let prefix_len = 32 - need.trailing_zeros() as u8;
        PopulationSpec {
            seed,
            space: Ipv4Net::new(Ipv4Addr::new(4, 0, 0, 0), prefix_len),
            ftp_servers: n,
            scale: (rates::PAPER_FTP / n as f64).max(1.0) as u64,
            rare_boost: ((rates::PAPER_FTP / n as f64) / 64.0).max(1.0),
            include_non_ftp: true,
            include_http: true,
            fault_fraction: 0.0,
        }
    }

    /// Sets the hostile-host fraction (see
    /// [`fault_fraction`](PopulationSpec::fault_fraction)).
    pub fn with_fault_fraction(mut self, fraction: f64) -> Self {
        self.fault_fraction = fraction.clamp(0.0, 1.0);
        self
    }
}

/// Everything true about one generated FTP host (ground truth).
#[derive(Debug, Clone, PartialEq)]
pub struct HostTruth {
    /// Address.
    pub ip: Ipv4Addr,
    /// Owning AS.
    pub asn: Asn,
    /// Table II class.
    pub category: Category,
    /// Device model name for embedded hosts.
    pub device: Option<&'static str>,
    /// Device class for embedded hosts.
    pub device_kind: Option<DeviceKind>,
    /// Daemon family for generic/hosted hosts.
    pub daemon: Option<Daemon>,
    /// Anonymous access enabled.
    pub anonymous: bool,
    /// Anonymous write access enabled.
    pub writable: bool,
    /// Validates `PORT` arguments.
    pub validates_port: bool,
    /// Deployed behind NAT (leaks internal address via `PASV`).
    pub nat: bool,
    /// Supports FTPS.
    pub ftps: bool,
    /// FTPS required before login.
    pub ftps_required: bool,
    /// Certificate fingerprint when FTPS is enabled.
    pub cert_fp: Option<u64>,
    /// Malicious campaigns planted on this host.
    pub campaigns: Vec<Campaign>,
    /// Content archetype.
    pub content: ContentKind,
    /// Sensitive classes present (Table IX).
    pub sensitive: Vec<SensitiveKind>,
    /// Co-hosted HTTP service.
    pub http: bool,
    /// HTTP advertises server-side scripting.
    pub scripting: bool,
    /// Ramnit backdoor banner host.
    pub ramnit: bool,
    /// Oversized tree that cannot be traversed within the request cap.
    pub deep_tree: bool,
    /// The banner the server actually greets with (for validation).
    pub banner: String,
    /// The server publishes a deny-all robots.txt (honoring it hides the
    /// host's contents from the crawler).
    pub robots_deny_all: bool,
    /// The server closes the control channel after this many commands
    /// (0 = never) — the flaky-server population.
    pub drop_after: u32,
    /// Transport-layer fault injected at this host (`None` = clean).
    pub fault: Option<netsim::FaultKind>,
}

/// The generated world: registry, per-host truth, and the spec.
#[derive(Debug)]
pub struct WorldTruth {
    /// AS registry (frozen).
    pub registry: AsRegistry,
    /// One entry per FTP server.
    pub hosts: Vec<HostTruth>,
    /// Addresses of open-port-21-but-not-FTP hosts.
    pub non_ftp_open: Vec<Ipv4Addr>,
    /// The spec that produced this world.
    pub spec: PopulationSpec,
}

impl WorldTruth {
    /// Ground-truth count of anonymous servers.
    pub fn anonymous_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.anonymous).count()
    }

    /// Ground-truth count of world-writable servers.
    pub fn writable_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.writable).count()
    }

    /// Every FTP host address (scan targets for tests that skip zscan).
    pub fn ftp_addresses(&self) -> Vec<Ipv4Addr> {
        self.hosts.iter().map(|h| h.ip).collect()
    }

    /// Ground-truth count of hosts carrying an injected fault.
    pub fn faulted_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.fault.is_some()).count()
    }
}

struct AsSlot {
    asn: Asn,
    kind: AsKind,
    prefix: Ipv4Net,
    /// Remaining (anon, non-anon) quotas.
    quota_anon: f64,
    quota_other: f64,
    next_offset: u64,
}

/// Builds the AS registry and per-AS quotas.
fn build_ases(spec: &PopulationSpec, rng: &mut StdRng) -> (AsRegistry, Vec<AsSlot>) {
    let n = spec.ftp_servers as f64;
    let n_anon = n * rates::ANON_PER_FTP;
    let mut registry = AsRegistry::new();
    let mut slots = Vec::new();
    let mut cursor: u64 = 0;
    let space_base = u32::from(spec.space.network()) as u64;
    let space_size = spec.space.size();

    let mut alloc = |advertised: u64, min_hosts: u64| -> Ipv4Net {
        // Round up to a power of two and align; cap any single AS at a
        // sixteenth of the space, and shrink (never below what its hosts
        // need) if the space is filling up.
        let mut size = advertised
            .next_power_of_two()
            .clamp(8, (space_size / 16).max(8));
        let floor = (min_hosts * 2).next_power_of_two().max(8);
        loop {
            let aligned = cursor.div_ceil(size) * size;
            if aligned + size <= space_size {
                cursor = aligned + size;
                let prefix_len = 32 - size.trailing_zeros() as u8;
                return Ipv4Net::new(Ipv4Addr::from((space_base + aligned) as u32), prefix_len);
            }
            assert!(
                size > floor,
                "address space {} too small for the population (need {} more)",
                spec.space,
                size
            );
            size /= 2;
        }
    };

    // Named top-10 ASes (Table VI), scaled.
    for &(asn, name, kind, adv, ftp, anon) in catalog::NAMED_ASES {
        let asn = Asn(asn);
        let ftp_scaled = ftp / rates::PAPER_FTP * n;
        let anon_scaled = anon / rates::PAPER_FTP * n;
        let adv_scaled =
            ((adv / rates::PAPER_FTP * n) as u64).max((ftp_scaled * 2.0) as u64 + 8);
        registry.register(asn, name, kind);
        let prefix = alloc(adv_scaled, ftp_scaled.ceil() as u64 + 2);
        registry.announce(asn, prefix);
        slots.push(AsSlot {
            asn,
            kind,
            prefix,
            quota_anon: anon_scaled,
            quota_other: ftp_scaled - anon_scaled,
            next_offset: 0,
        });
    }
    let named_ftp: f64 = catalog::NAMED_ASES.iter().map(|a| a.4).sum::<f64>() / rates::PAPER_FTP * n;
    let named_anon: f64 =
        catalog::NAMED_ASES.iter().map(|a| a.5).sum::<f64>() / rates::PAPER_FTP * n;

    // Tail ASes: Zipf(1) FTP shares over the remainder, but a *flatter*
    // anonymous distribution — in the paper no tail AS rivals home.pl's
    // anonymous concentration (Table VI), even though big ISPs rival its
    // raw FTP count.
    let tail_count = (spec.ftp_servers / 40).max(40);
    let harmonic: f64 = (1..=tail_count).map(|i| 1.0 / i as f64).sum();
    let flat_harmonic: f64 = (1..=tail_count).map(|i| 1.0 / (i as f64 + 4.0)).sum();
    let rest_ftp = (n - named_ftp).max(0.0);
    let rest_anon = (n_anon - named_anon).max(0.0);
    for i in 1..=tail_count {
        let share = (1.0 / i as f64) / harmonic;
        let anon_share = (1.0 / (i as f64 + 4.0)) / flat_harmonic;
        let ftp_scaled = rest_ftp * share;
        let anon_scaled = rest_anon * anon_share;
        let kind = match rng.random_range(0..10) {
            0..=3 => AsKind::Hosting,
            4..=7 => AsKind::Isp,
            8 => AsKind::Academic,
            _ => AsKind::Other,
        };
        let asn = Asn(64_000 + i as u32);
        registry.register(asn, format!("Tail-AS-{i}"), kind);
        let adv = ((ftp_scaled * rng.random_range(2..12) as f64) as u64).max(16);
        let prefix = alloc(adv, ftp_scaled.ceil() as u64 + 2);
        registry.announce(asn, prefix);
        slots.push(AsSlot {
            asn,
            kind,
            prefix,
            quota_anon: anon_scaled,
            quota_other: (ftp_scaled - anon_scaled).max(0.0),
            next_offset: 0,
        });
    }
    registry.freeze();
    (registry, slots)
}

/// Affinity between AS kinds and host categories, used as a weight
/// multiplier when placing hosts (reproduces Table III's kind mix).
fn affinity(kind: AsKind, category: Category, provider_device: bool) -> f64 {
    match (kind, category) {
        (AsKind::Isp, Category::Embedded) => {
            if provider_device {
                12.0
            } else {
                4.0
            }
        }
        (AsKind::Hosting, Category::Embedded) => 0.05,
        (AsKind::Hosting, Category::Hosted) => 6.0,
        (AsKind::Isp, Category::Hosted) => 0.02,
        (AsKind::Academic, _) => 0.7,
        _ => 1.0,
    }
}

fn weighted_index(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.random_range(0..weights.len());
    }
    let mut x = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

fn draw_category(rng: &mut StdRng, anon: bool) -> Category {
    let table = if anon {
        &rates::CLASS_ANON
    } else {
        // P(cat | !anon) derived from Tables I+II.
        static DERIVED: std::sync::OnceLock<[(Category, f64); 4]> = std::sync::OnceLock::new();
        DERIVED.get_or_init(|| {
            let p = rates::ANON_PER_FTP;
            let mut out = rates::CLASS_ALL;
            for (i, (cat, all)) in rates::CLASS_ALL.iter().enumerate() {
                let anon_p = rates::CLASS_ANON
                    .iter()
                    .find(|(c, _)| c == cat)
                    .map(|&(_, v)| v)
                    .unwrap_or(0.0);
                out[i].1 = ((all - anon_p * p) / (1.0 - p)).max(0.0);
            }
            out
        })
    };
    let weights: Vec<f64> = table.iter().map(|&(_, w)| w).collect();
    table[weighted_index(rng, &weights)].0
}

fn draw_device(rng: &mut StdRng, anon: bool) -> &'static DeviceModel {
    let all: Vec<&DeviceModel> =
        catalog::CONSUMER_DEVICES.iter().chain(catalog::PROVIDER_DEVICES).collect();
    let weights: Vec<f64> = all
        .iter()
        .map(|d| if anon { d.anonymous } else { (d.total - d.anonymous).max(0.0) })
        .collect();
    all[weighted_index(rng, &weights)]
}

fn draw_software(rng: &mut StdRng) -> (Daemon, Option<&'static str>) {
    let weights: Vec<f64> = catalog::SOFTWARE_MIX.iter().map(|&(_, _, w)| w).collect();
    let (d, v, _) = catalog::SOFTWARE_MIX[weighted_index(rng, &weights)];
    (d, v)
}

/// One planned (not yet materialized) host.
struct HostPlan {
    truth: HostTruth,
    banner_multiline: bool,
    flaky: bool,
    robots_some: bool,
}

/// What a planned non-FTP port-21 responder answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NonFtpKind {
    Silent,
    SshBanner,
    HttpBanner,
}

/// The fully planned world: every decision phases 1–2 make, before any
/// host is materialized into a simulator.
///
/// Planning is sequential and covers the whole population regardless of
/// sharding, so every worker of a sharded run computes the *same* plan;
/// materialization ([`WorldPlan::materialize`]) then instantiates any
/// subset of it with per-host RNGs — which is what makes a K-way
/// sharded study byte-identical to the single-simulator run.
pub struct WorldPlan {
    registry: AsRegistry,
    plans: Vec<HostPlan>,
    non_ftp: Vec<(Ipv4Addr, NonFtpKind)>,
    spec: PopulationSpec,
}

/// One shard's plan entries bucketed by batch index (see
/// [`WorldPlan::bucket_shard`]): `plan_ix[b]` / `non_ftp_ix[b]` list, in
/// plan order, the entries that `(shard, batch b)` materializes.
pub struct ShardBatchIndex {
    plan_ix: Vec<Vec<u32>>,
    non_ftp_ix: Vec<Vec<u32>>,
}

/// Draws `k` distinct elements uniformly from `pool` with a partial
/// Fisher–Yates pass, returning them as the (reordered) prefix.
/// Replaces the old clone-the-pool-then-shuffle-everything pattern: no
/// allocation, and `k` RNG draws instead of `pool.len() - 1`.
fn draw_from<'a>(rng: &mut StdRng, pool: &'a mut [usize], k: usize) -> &'a [usize] {
    let k = k.min(pool.len());
    for i in 0..k {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    &pool[..k]
}

/// Per-host materialization RNG: a pure function of `(world seed, ip)`,
/// so a host's engine, filesystem, certificate, and quirks come out
/// identical no matter which simulator — or which shard — materializes
/// it.
fn host_rng(seed: u64, ip: Ipv4Addr) -> StdRng {
    let mut z = seed
        .wrapping_add(0x0057_0A7E_0000_0000)
        .wrapping_add(u64::from(u32::from(ip)).rotate_left(29))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Runs phases 1–2: draws every host plan plus the non-FTP population,
/// but binds nothing.
///
/// # Panics
///
/// Panics if `spec.space` is too small to hold the population.
pub fn plan_world(spec: &PopulationSpec) -> WorldPlan {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (registry, mut slots) = build_ases(spec, &mut rng);
    let n = spec.ftp_servers;
    let n_anon = (n as f64 * rates::ANON_PER_FTP).round() as usize;
    let boost = spec.rare_boost;

    // ---- phase 1: plans ----
    let mut plans: Vec<HostPlan> = Vec::with_capacity(n);
    let mut used: HashSet<Ipv4Addr> = HashSet::new();

    for i in 0..n {
        let anonymous = i < n_anon;
        let category = draw_category(&mut rng, anonymous);
        let (device, device_kind, daemon) = match category {
            Category::Embedded => {
                let d = draw_device(&mut rng, anonymous);
                (Some(d.name), Some(d.kind), None)
            }
            Category::Generic | Category::Hosted => {
                let (d, _) = draw_software(&mut rng);
                (None, None, Some(d))
            }
            Category::Unknown => (None, None, None),
        };
        // Place in an AS.
        let provider_device = device_kind == Some(DeviceKind::ProviderCpe);
        let weights: Vec<f64> = slots
            .iter()
            .map(|s| {
                let quota = if anonymous { s.quota_anon } else { s.quota_other };
                quota.max(0.0) * affinity(s.kind, category, provider_device)
            })
            .collect();
        let slot_ix = weighted_index(&mut rng, &weights);
        let slot = &mut slots[slot_ix];
        if anonymous {
            slot.quota_anon -= 1.0;
        } else {
            slot.quota_other -= 1.0;
        }
        // Sequential-with-stride placement inside the prefix.
        let ip = loop {
            let off = slot.next_offset % slot.prefix.size();
            slot.next_offset = slot.next_offset.wrapping_add(rng.random_range(1..7));
            let ip = slot.prefix.addr_at(off);
            if used.insert(ip) {
                break ip;
            }
        };
        plans.push(HostPlan {
            truth: HostTruth {
                ip,
                asn: slot.asn,
                category,
                device,
                device_kind,
                daemon,
                anonymous,
                writable: false,
                validates_port: true,
                nat: false,
                ftps: false,
                ftps_required: false,
                cert_fp: None,
                campaigns: Vec::new(),
                content: ContentKind::Empty,
                sensitive: Vec::new(),
                http: false,
                scripting: false,
                ramnit: false,
                deep_tree: false,
                banner: String::new(),
                robots_deny_all: false,
                drop_after: 0,
                fault: None,
            },
            banner_multiline: rng.random_bool(0.05),
            flaky: rng.random_bool(0.01),
            robots_some: anonymous
                && rng.random_bool((rates::ROBOTS_PER_ANON * boost.min(10.0)).min(0.3)),
        });
    }

    // ---- phase 2: correlated flags over the plan set ----
    let homepl_asn = Asn(12_824);
    // One standing index pool serves every uniform draw over the
    // anonymous population; draws reorder it but never change its
    // membership.
    let mut anon_pool: Vec<usize> = (0..n_anon).collect();

    // PORT validation: all of home.pl plus pre-fix FileZilla fail; then
    // random extras to reach the target rate among anonymous servers.
    for p in plans.iter_mut() {
        let old_filezilla = p.truth.daemon == Some(Daemon::FileZilla) && rng.random_bool(0.93);
        if p.truth.asn == homepl_asn || old_filezilla {
            p.truth.validates_port = false;
        }
    }
    let target_bounce = (n_anon as f64 * rates::BOUNCE_PER_ANON).round() as usize;
    let current: usize =
        plans[..n_anon].iter().filter(|p| !p.truth.validates_port).count();
    if current < target_bounce {
        let mut candidates: Vec<usize> =
            (0..n_anon).filter(|&i| plans[i].truth.validates_port).collect();
        for &i in draw_from(&mut rng, &mut candidates, target_bounce - current) {
            plans[i].truth.validates_port = false;
        }
    }

    // NAT: consumer-ish anonymous servers; keep the NAT∩bounce rate low
    // as §VII-B found (4.5% of NATed vs 12.7% overall).
    let target_nat = (n_anon as f64 * rates::NAT_PER_ANON).round() as usize;
    let mut nat_candidates: Vec<usize> =
        (0..n_anon).filter(|&i| plans[i].truth.category != Category::Hosted).collect();
    for &i in draw_from(&mut rng, &mut nat_candidates, target_nat) {
        plans[i].truth.nat = true;
        // home.pl stays vulnerable (its default software is the cause,
        // NAT or not); elsewhere NAT correlates with validation.
        if plans[i].truth.asn != homepl_asn
            && !plans[i].truth.validates_port
            && !rng.random_bool(rates::BOUNCE_PER_NAT)
        {
            plans[i].truth.validates_port = true;
        }
    }

    // World-writable.
    let target_writable =
        ((n_anon as f64 * rates::WRITABLE_PER_ANON * boost).round() as usize).min(n_anon);
    let mut writable_pool: Vec<usize> =
        draw_from(&mut rng, &mut anon_pool, target_writable).to_vec();
    for &i in &writable_pool {
        plans[i].truth.writable = true;
    }

    // Campaigns: draws reuse two standing pools (writable hosts,
    // non-writable anonymous hosts) instead of cloning and fully
    // reshuffling a fresh pool per campaign.
    let mut nonwritable_pool: Vec<usize> =
        (0..n_anon).filter(|&i| !plans[i].truth.writable).collect();
    for (campaign, paper_count, requires_writable) in rates::CAMPAIGNS {
        let target =
            ((rates::per_anon(paper_count) * n_anon as f64 * boost).round() as usize).max(1);
        if requires_writable {
            for &i in draw_from(&mut rng, &mut writable_pool, target) {
                plans[i].truth.campaigns.push(campaign);
            }
        } else {
            // Holy Bible: split between writable and non-writable hosts.
            let on_writable =
                (target as f64 * rates::HOLY_BIBLE_WRITABLE_SHARE).round() as usize;
            let drawn = on_writable.min(writable_pool.len());
            for &i in draw_from(&mut rng, &mut writable_pool, on_writable) {
                plans[i].truth.campaigns.push(campaign);
            }
            for &i in draw_from(&mut rng, &mut nonwritable_pool, target - drawn) {
                plans[i].truth.campaigns.push(campaign);
            }
        }
    }

    // robots deny-all split (§IV: 5.9 K of 11.3 K robots files).
    for p in plans.iter_mut() {
        if p.robots_some {
            p.truth.robots_deny_all = rng.random_bool(rates::ROBOTS_DENY_ALL);
        }
    }

    // Content archetypes for anonymous servers.
    for p in plans.iter_mut().take(n_anon) {
        let exposes = rng.random_bool(rates::ANON_EXPOSING_DATA)
            || !p.truth.campaigns.is_empty()
            || p.truth.writable;
        if !exposes {
            continue;
        }
        p.truth.content = match (p.truth.category, p.truth.device_kind) {
            (Category::Hosted, _) => ContentKind::HostingWebroot,
            (Category::Embedded, Some(DeviceKind::Printer)) => ContentKind::PrinterSpool,
            (Category::Embedded, _) => ContentKind::NasMedia,
            _ => match rng.random_range(0..10) {
                0..=3 => ContentKind::HostingWebroot,
                4..=7 => ContentKind::NasMedia,
                8 => ContentKind::OfficeBackup,
                _ => ContentKind::NasMedia,
            },
        };
    }

    // OS-root exposures (override archetype).
    for (kind, paper_count) in [
        (OsKind::Windows, rates::OS_ROOT_WINDOWS),
        (OsKind::Linux, rates::OS_ROOT_LINUX),
        (OsKind::OsX, rates::OS_ROOT_OSX),
    ] {
        let target = ((rates::per_anon(paper_count) * n_anon as f64 * boost).round() as usize)
            .max(1)
            .min(n_anon);
        for &i in draw_from(&mut rng, &mut anon_pool, target) {
            plans[i].truth.content = ContentKind::OsRoot(kind);
        }
    }

    // Sensitive classes (Table IX) on exposing anonymous hosts. The
    // exposing set is fixed by now, so one pool serves every row.
    let mut exposing_pool: Vec<usize> =
        (0..n_anon).filter(|&i| plans[i].truth.content != ContentKind::Empty).collect();
    for (row, (_, servers, files, readable, nonreadable, _unk)) in
        rates::SENSITIVE.iter().enumerate()
    {
        let kind = SensitiveKind::ALL[row];
        let target = ((rates::per_anon(*servers) * n_anon as f64 * boost).round() as usize)
            .max(1)
            .min(n_anon);
        for &i in draw_from(&mut rng, &mut exposing_pool, target) {
            plans[i].truth.sensitive.push(kind);
        }
        let _ = (files, readable, nonreadable);
    }

    // Deep trees (traversal-cap population).
    let target_deep = ((n_anon as f64 * rates::TRUNCATED_PER_ANON * boost).round() as usize)
        .max(1)
        .min(n_anon);
    for &i in draw_from(&mut rng, &mut anon_pool, target_deep) {
        plans[i].truth.deep_tree = true;
        if plans[i].truth.content == ContentKind::Empty {
            plans[i].truth.content = ContentKind::NasMedia;
        }
    }

    // FTPS + certificates.
    for p in plans.iter_mut() {
        if !rng.random_bool(rates::FTPS_PER_FTP) {
            continue;
        }
        p.truth.ftps = true;
        // FTPS-required servers refuse plaintext logins, which would
        // contradict an anonymous-allowed host (the study's enumerator —
        // like the paper's — never retries the login after upgrading).
        p.truth.ftps_required = !p.truth.anonymous && rng.random_bool(rates::FTPS_REQUIRED);
    }

    // HTTP co-hosting.
    for p in plans.iter_mut() {
        if rng.random_bool(rates::HTTP_PER_FTP) {
            p.truth.http = true;
            p.truth.scripting = rng.random_bool(rates::SCRIPTING_PER_FTP / rates::HTTP_PER_FTP);
        }
    }

    // Ramnit hosts (separate non-anonymous population).
    let ramnit_target =
        ((rates::RAMNIT_PER_FTP * n as f64 * boost).round() as usize).max(1).min(n - n_anon);
    let mut nonanon: Vec<usize> = (n_anon..n).collect();
    for &i in draw_from(&mut rng, &mut nonanon, ramnit_target) {
        plans[i].truth.ramnit = true;
    }

    // Non-FTP port-21 population (Table I's open-but-not-FTP gap):
    // addresses and personalities are planned here so they partition
    // across shards like any other host.
    let mut non_ftp = Vec::new();
    if spec.include_non_ftp {
        let extra = ((n as f64) * (1.0 / rates::FTP_PER_OPEN - 1.0)).round() as usize;
        for _ in 0..extra {
            let ip = loop {
                let off = rng.random_range(0..spec.space.size());
                let ip = spec.space.addr_at(off);
                if used.insert(ip) {
                    break ip;
                }
            };
            let kind = if rng.random_bool(0.55) {
                NonFtpKind::Silent
            } else if rng.random_bool(0.6) {
                NonFtpKind::SshBanner
            } else {
                NonFtpKind::HttpBanner
            };
            non_ftp.push((ip, kind));
        }
    }

    WorldPlan { registry, plans, non_ftp, spec: spec.clone() }
}

impl WorldPlan {
    /// The spec this plan was drawn from.
    pub fn spec(&self) -> &PopulationSpec {
        &self.spec
    }

    /// The frozen AS registry of the planned world.
    ///
    /// Streaming consumers resolve addresses to ASes per batch without
    /// ever assembling a [`WorldTruth`], so the registry has to be
    /// reachable from the plan itself.
    pub fn registry(&self) -> &AsRegistry {
        &self.registry
    }

    /// Total number of planned port-21 responders (FTP plus non-FTP).
    ///
    /// The streaming study runner derives its batch count from this:
    /// `ceil(planned_host_count / batch_size)`, identical on every
    /// shard, so checkpoints agree on the batch grid.
    pub fn planned_host_count(&self) -> usize {
        self.plans.len() + self.non_ftp.len()
    }

    /// Materializes one `(shard, batch)` grid cell: the planned hosts
    /// that [`netsim::ip::shard_of`] assigns to `shard.0` of `shard.1`
    /// *and* [`netsim::ip::batch_of`] assigns to `batch.0` of
    /// `batch.1`, under this plan's world seed.
    ///
    /// This is [`WorldPlan::materialize`] with the streaming runner's
    /// composed keep-filter: batches are hash-partitions just like
    /// shards, so the union over the grid rebuilds the full world and
    /// each cell's hosts are byte-identical to their full-build
    /// selves.
    pub fn materialize_slice(
        &self,
        sim: &mut Simulator,
        shard: (u64, u64),
        batch: (u64, u64),
    ) -> (Vec<HostTruth>, Vec<Ipv4Addr>) {
        let seed = self.spec.seed;
        self.materialize(sim, |ip| {
            netsim::ip::shard_of(seed, ip, shard.1) == shard.0
                && netsim::ip::batch_of(seed, ip, batch.1) == batch.0
        })
    }

    /// Materializes into `sim` every planned host whose address passes
    /// `keep`, returning the ground truth of that subset (in plan
    /// order) plus the retained non-FTP addresses.
    ///
    /// Each host is built with its own [`host_rng`], so the subset
    /// chosen has no effect on what any individual host looks like:
    /// materializing the full plan in one simulator and materializing a
    /// partition of it across K simulators yield identical hosts.
    pub fn materialize(
        &self,
        sim: &mut Simulator,
        keep: impl Fn(Ipv4Addr) -> bool,
    ) -> (Vec<HostTruth>, Vec<Ipv4Addr>) {
        self.materialize_indices(
            sim,
            (0..self.plans.len()).filter(|&i| keep(self.plans[i].truth.ip)),
            (0..self.non_ftp.len()).filter(|&i| keep(self.non_ftp[i].0)),
        )
    }

    /// Buckets one shard's slice of the plan by batch index: which plan
    /// and non-FTP entries each `(shard, batch)` grid cell materializes,
    /// in plan order.
    ///
    /// The streaming runner computes this once per shard and then feeds
    /// each bucket to [`WorldPlan::materialize_bucket`], replacing the
    /// per-cell full-plan filter walk of [`WorldPlan::materialize_slice`]
    /// with a single pass over the plan per shard.
    pub fn bucket_shard(&self, shard: (u64, u64), batches: u64) -> ShardBatchIndex {
        let seed = self.spec.seed;
        let mut plan_ix = vec![Vec::new(); batches as usize];
        let mut non_ftp_ix = vec![Vec::new(); batches as usize];
        for (i, p) in self.plans.iter().enumerate() {
            let ip = p.truth.ip;
            if netsim::ip::shard_of(seed, ip, shard.1) == shard.0 {
                plan_ix[netsim::ip::batch_of(seed, ip, batches) as usize].push(i as u32);
            }
        }
        for (i, &(ip, _)) in self.non_ftp.iter().enumerate() {
            if netsim::ip::shard_of(seed, ip, shard.1) == shard.0 {
                non_ftp_ix[netsim::ip::batch_of(seed, ip, batches) as usize].push(i as u32);
            }
        }
        ShardBatchIndex { plan_ix, non_ftp_ix }
    }

    /// Materializes one pre-bucketed batch (from
    /// [`WorldPlan::bucket_shard`]) — byte-identical to
    /// [`WorldPlan::materialize_slice`] over the same cell.
    pub fn materialize_bucket(
        &self,
        sim: &mut Simulator,
        index: &ShardBatchIndex,
        batch: u64,
    ) -> (Vec<HostTruth>, Vec<Ipv4Addr>) {
        let b = batch as usize;
        self.materialize_indices(
            sim,
            index.plan_ix[b].iter().map(|&i| i as usize),
            index.non_ftp_ix[b].iter().map(|&i| i as usize),
        )
    }

    fn materialize_indices(
        &self,
        sim: &mut Simulator,
        plan_ix: impl Iterator<Item = usize>,
        non_ftp_ix: impl Iterator<Item = usize>,
    ) -> (Vec<HostTruth>, Vec<Ipv4Addr>) {
        let _span = obs::span!("worldgen.materialize");
        let spec = &self.spec;
        let hosting_cert_weights: Vec<f64> =
            catalog::HOSTING_CERTS.iter().map(|&(_, w, _)| w).collect();
        // One set of path/mtime render buffers reused across every host
        // this call materializes.
        let mut scratch = content::GenScratch::default();
        let mut truths = Vec::new();
        for i in plan_ix {
            let plan = &self.plans[i];
            let mut rng = host_rng(spec.seed, plan.truth.ip);
            let profile = {
                let _s = obs::span!("worldgen.profile");
                build_profile(plan, &mut rng, &hosting_cert_weights)
            };
            let vfs = {
                let _s = obs::span!("worldgen.vfs");
                build_vfs(plan, &mut rng, &mut scratch)
            };
            let mut truth = plan.truth.clone();
            // `clone_from` reuses the just-cloned banner buffer instead
            // of dropping it for a fresh allocation.
            truth.banner.clone_from(&profile.banner);
            truth.drop_after = profile.drop_after_commands;
            if let Some(ftps) = &profile.ftps {
                truth.cert_fp = Some(ftps.cert.fingerprint());
            }
            let engine = {
                let _s = obs::span!("worldgen.engine");
                FtpServerEngine::new(truth.ip, profile, vfs)
            };
            let id = sim.register_endpoint(Box::new(engine));
            sim.bind(truth.ip, 21, id);
            if let Some(fault) = sample_fault(spec, truth.ip) {
                truth.fault = Some(fault.kind);
                sim.set_fault(truth.ip, fault);
            }
            if truth.nat {
                sim.set_internal_ip(
                    truth.ip,
                    Ipv4Addr::new(192, 168, rng.random_range(0..5), rng.random_range(2..250)),
                );
            }
            if truth.http && spec.include_http {
                let svc = if truth.scripting {
                    let engine_name =
                        if rng.random_bool(0.8) { "PHP/5.4.45" } else { "ASP.NET" };
                    HttpService::new("Apache/2.2.22 (Debian)").with_powered_by(engine_name)
                } else {
                    HttpService::new("nginx/1.2.1")
                };
                let hid = sim.register_endpoint(Box::new(svc));
                sim.bind(truth.ip, 80, hid);
            }
            truths.push(truth);
        }
        let mut non_ftp_open = Vec::new();
        for i in non_ftp_ix {
            let (ip, kind) = self.non_ftp[i];
            let svc: Box<dyn netsim::Endpoint> = match kind {
                NonFtpKind::Silent => Box::new(SilentService),
                NonFtpKind::SshBanner => {
                    Box::new(RawBannerService::new("SSH-2.0-dropbear_2012.55"))
                }
                NonFtpKind::HttpBanner => {
                    Box::new(RawBannerService::new("HTTP/1.0 400 Bad Request"))
                }
            };
            let id = sim.register_endpoint(svc);
            sim.bind(ip, 21, id);
            non_ftp_open.push(ip);
        }
        if obs::enabled() {
            obs::counter(
                obs::Counter::HostsMaterialized,
                (truths.len() + non_ftp_open.len()) as u64,
            );
            obs::event!(
                "worldgen.materialized",
                ftp_hosts = truths.len(),
                non_ftp_hosts = non_ftp_open.len(),
            );
        }
        (truths, non_ftp_open)
    }

    /// Assembles ground truth from (possibly merged) materialization
    /// output.
    pub fn into_truth(self, hosts: Vec<HostTruth>, non_ftp_open: Vec<Ipv4Addr>) -> WorldTruth {
        WorldTruth { registry: self.registry, hosts, non_ftp_open, spec: self.spec }
    }
}

/// Generates the simulated world inside `sim` and returns ground truth.
///
/// Equivalent to planning the world and materializing all of it into
/// one simulator; the sharded study runner uses the same plan with a
/// per-shard `keep` filter instead.
///
/// # Panics
///
/// Panics if `spec.space` is too small to hold the population.
pub fn build(sim: &mut Simulator, spec: &PopulationSpec) -> WorldTruth {
    let plan = plan_world(spec);
    let (hosts, non_ftp_open) = plan.materialize(sim, |_| true);
    plan.into_truth(hosts, non_ftp_open)
}

/// Decides, independently of the generation RNG, whether `ip` is
/// hostile under `spec` — and with which profile.
///
/// The per-host hash doubles as the profile seed, so a host's hostile
/// personality is a pure function of `(world seed, ip)`, and the
/// faulted set is monotone in `fault_fraction`: raising the fraction
/// adds hosts without reshuffling the ones already faulted. Because
/// nothing here touches `rng`, generation is byte-identical at every
/// fraction — the clean-host invariant the chaos suite asserts.
fn sample_fault(spec: &PopulationSpec, ip: Ipv4Addr) -> Option<FaultProfile> {
    if spec.fault_fraction <= 0.0 {
        return None;
    }
    // splitmix64 finalizer over (seed, ip).
    let mut z = spec
        .seed
        .wrapping_add(0xFA17_1A7E_0000_0000)
        .wrapping_add(u64::from(u32::from(ip)).rotate_left(23))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let h = z ^ (z >> 31);
    let uniform = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if uniform < spec.fault_fraction {
        Some(FaultProfile::sample(h))
    } else {
        None
    }
}

fn build_profile(
    plan: &HostPlan,
    rng: &mut StdRng,
    hosting_cert_weights: &[f64],
) -> ServerProfile {
    let t = &plan.truth;
    let mut profile = if t.ramnit {
        implementations::ramnit()
    } else {
        match (t.category, t.daemon, t.device) {
            (_, Some(Daemon::ProFtpd), _) => {
                implementations::proftpd(version_of(plan, rng))
            }
            (_, Some(Daemon::VsFtpd), _) => implementations::vsftpd(version_of(plan, rng)),
            (_, Some(Daemon::PureFtpd), _) => implementations::pure_ftpd(),
            (_, Some(Daemon::ServU), _) => implementations::servu(version_of(plan, rng)),
            (_, Some(Daemon::FileZilla), _) => {
                implementations::filezilla(version_of(plan, rng))
            }
            (_, Some(Daemon::Iis), _) => implementations::iis(),
            (_, Some(Daemon::WuFtpd), _) => {
                ServerProfile::new("FTP server (Version wu-2.6.2(1)) ready.")
            }
            (_, Some(Daemon::Custom), _) => {
                // Recognizable miscellaneous daemons: fingerprintable as
                // Generic, but free of CVE-table version strings.
                const MISC: &[&str] = &[
                    "glFTPd 2.01 www.glftpd.com",
                    "bftpd 3.8 ready",
                    "NcFTPd Server (licensed copy) ready",
                    "WS_FTP Server 7.5(1234) ready",
                    "Titan FTP Server 10.4 ready",
                ];
                ServerProfile::new(MISC[rng.random_range(0..MISC.len())])
            }
            (Category::Unknown, _, _) => ServerProfile::new("FTP server ready."),
            (Category::Embedded, _, Some(device)) => {
                let model = catalog::CONSUMER_DEVICES
                    .iter()
                    .chain(catalog::PROVIDER_DEVICES)
                    .find(|d| d.name == device)
                    .expect("device from catalog");
                implementations::embedded(model.banner)
            }
            _ => ServerProfile::new("FTP server ready."),
        }
    };
    if t.category == Category::Hosted {
        // Hosted deployments brand the banner with the provider.
        profile.banner = format!("{} [shared hosting]", profile.banner);
    }
    if plan.banner_multiline {
        profile.banner =
            format!("{}\nWelcome, archive mirror online.\nAll transfers are logged", profile.banner);
    }
    // Listing-dialect diversity: a sliver of the wild speaks EPLF
    // (publicfile descendants) or MLSD-style facts; the enumerator's
    // format sniffing has to cope (§III).
    if profile.listing_format == ftp_proto::listing::ListingFormat::Unix {
        let roll = rng.random::<f64>();
        if roll < 0.03 {
            profile.listing_format = ftp_proto::listing::ListingFormat::Eplf;
        } else if roll < 0.05 {
            profile.listing_format = ftp_proto::listing::ListingFormat::Mlsd;
        }
    }
    if t.anonymous && !t.ramnit {
        let policy = if t.category == Category::Embedded && rng.random_bool(0.5) {
            AnonPolicy::NoPassword
        } else {
            AnonPolicy::Allowed
        };
        profile = profile.with_anonymous(policy);
    }
    // A sprinkle of the "four meanings of 331" across non-anonymous hosts.
    if !t.anonymous && !t.ramnit {
        profile.user_reply_style = match rng.random_range(0..10) {
            0 => UserReplyStyle::VirtualHost,
            1 => UserReplyStyle::RejectAtUser,
            _ => UserReplyStyle::Standard,
        };
    }
    if t.writable {
        let dir = if t.content == ContentKind::HostingWebroot { "/www" } else { "/incoming" };
        profile = profile.with_writable(dir);
        if rng.random_bool(0.4) {
            profile = profile.with_upload_quirk(UploadQuirk::UniqueSuffix);
        }
    }
    if !t.validates_port {
        profile = profile.without_port_validation();
    } else {
        profile.validates_port = true;
    }
    if t.nat {
        profile = profile.with_nat_leak();
    }
    if t.ftps {
        let cert = make_cert(plan, rng, hosting_cert_weights);
        profile = profile.with_ftps(cert, t.ftps_required);
    }
    if plan.flaky {
        profile = profile.with_drop_after(rng.random_range(3..40));
    }
    profile
}

fn version_of(plan: &HostPlan, rng: &mut StdRng) -> &'static str {
    // Redraw from the software mix restricted to this daemon.
    let daemon = plan.truth.daemon.expect("daemon host");
    let options: Vec<(Option<&'static str>, f64)> = catalog::SOFTWARE_MIX
        .iter()
        .filter(|(d, _, _)| *d == daemon)
        .map(|&(_, v, w)| (v, w))
        .collect();
    let weights: Vec<f64> = options.iter().map(|&(_, w)| w).collect();
    options[weighted_index(rng, &weights)].0.unwrap_or("1.0")
}

fn make_cert(plan: &HostPlan, rng: &mut StdRng, hosting_weights: &[f64]) -> SimCertificate {
    let t = &plan.truth;
    // Device fleets ship identical built-in certificates.
    if let Some(device) = t.device {
        let model = catalog::CONSUMER_DEVICES
            .iter()
            .chain(catalog::PROVIDER_DEVICES)
            .find(|d| d.name == device);
        if let Some(ix) = model.and_then(|m| m.shared_cert) {
            let (_, _, cn) = catalog::DEVICE_CERTS[ix];
            return SimCertificate::self_signed(cn, 0xDE50 + ix as u64);
        }
    }
    // Hosting providers reuse wildcard certificates.
    if t.category == Category::Hosted {
        let ix = weighted_index(rng, hosting_weights);
        let (cn, _, trusted) = catalog::HOSTING_CERTS[ix];
        return if trusted {
            SimCertificate::browser_trusted(cn, "CA WildWest", 0xCA00 + ix as u64)
        } else {
            SimCertificate::self_signed(cn, 0xCA00 + ix as u64)
        };
    }
    // Everyone else: the paper found massive sharing even outside
    // hosting — installer-default certificates ("localhost",
    // "ftp.Serv-U.com") account for tens of thousands of servers each
    // (Table XII). Mix defaults with per-host certificates.
    let roll = rng.random::<f64>();
    if roll < 0.30 {
        // The ubiquitous OpenSSL-default "localhost" certificate.
        SimCertificate::self_signed("localhost", 0x10CA_1057)
    } else if roll < 0.50 {
        // Daemon installer defaults, shared by every unconfigured install.
        let cn = match t.daemon {
            Some(Daemon::ServU) => "ftp.Serv-U.com",
            Some(Daemon::ProFtpd) => "proftpd.example.default",
            Some(Daemon::FileZilla) => "filezilla-server.default",
            _ => "ftpd.default.local",
        };
        SimCertificate::self_signed(cn, 0xDEFA_0017)
    } else {
        let key = rng.random::<u64>();
        if rng.random_bool(0.3) {
            SimCertificate::self_signed(format!("host-{key:08x}.local"), key)
        } else {
            SimCertificate::browser_trusted(
                format!("ftp-{key:08x}.example.net"),
                "CA GlobalTrust",
                key,
            )
        }
    }
}

fn build_vfs(plan: &HostPlan, rng: &mut StdRng, scratch: &mut content::GenScratch) -> Vfs {
    let t = &plan.truth;
    let mut vfs = match t.content {
        ContentKind::Empty => Vfs::new(),
        ContentKind::HostingWebroot => {
            let sites = rng.random_range(1..6);
            content::hosting_webroot(rng, scratch, sites, t.scripting)
        }
        ContentKind::NasMedia => {
            let photos = if rng.random_bool(0.6) { rng.random_range(100..1_200) } else { 0 };
            let songs = if rng.random_bool(0.45) { rng.random_range(50..600) } else { 0 };
            let movies = if rng.random_bool(0.5) { rng.random_range(3..40) } else { 0 };
            let docs = if rng.random_bool(0.5) { rng.random_range(10..120) } else { 0 };
            content::nas_media(rng, scratch, photos, songs, movies, docs)
        }
        ContentKind::PrinterSpool => content::printer_spool(rng, scratch),
        ContentKind::OsRoot(kind) => content::os_root(rng, scratch, kind),
        ContentKind::OfficeBackup => content::office_backup(rng, scratch),
    };
    // Sensitive classes (Table IX): files-per-server and readability from
    // the table's ratios.
    for &kind in &t.sensitive {
        let row = rates::SENSITIVE[SensitiveKind::ALL.iter().position(|&k| k == kind).expect("known kind")];
        let (_, servers, files, readable, nonreadable, _) = row;
        let per_server = (files / servers).max(1.0);
        let count = rng.random_range(1..=(2.0 * per_server).ceil() as usize);
        let readable_fraction = if readable + nonreadable > 0.0 {
            readable / (readable + nonreadable)
        } else {
            1.0
        };
        content::inject_sensitive(&mut vfs, rng, scratch, kind, count, readable_fraction);
    }
    // Deep trees defeat the request cap. Shape them like what they
    // mostly were in the wild — enormous media collections — so they
    // feed Table VIII instead of polluting it.
    if t.deep_tree {
        // Enough distinct directories that PASV+LIST per directory
        // overruns the 500-request budget (~250+ dirs), shaped like the
        // giant photo archives the study actually hit.
        let rolls = rng.random_range(300..500);
        // Static attrs (no per-file RNG draws, matching the legacy
        // `FileMeta::public` default mtime).
        let attrs = simvfs::FileAttrs::public(2_000_000, "Jun 18  2015");
        let mut name = String::new();
        for roll in 0..rolls {
            let per_dir = rng.random_range(8..28);
            scratch.path.set("/share/photos");
            scratch.path.push_fmt(format_args!("roll-{roll:03}"));
            let dir = vfs.dir_handle(scratch.path.as_str()).ok();
            for i in 0..per_dir {
                name.clear();
                let _ = write!(name, "IMG_{i:04}.jpg");
                if let Some(d) = dir {
                    let _ = vfs.add_file_in(d, &name, attrs);
                }
            }
        }
    }
    // robots.txt (§IV rates; decided in phase 2 and recorded in truth).
    if plan.robots_some {
        let body = if t.robots_deny_all {
            "User-agent: *\nDisallow: /\n"
        } else {
            "User-agent: *\nDisallow: /private/\n"
        };
        let _ = vfs.add_file_attrs(
            "/robots.txt",
            simvfs::FileAttrs {
                content: Some(body),
                ..simvfs::FileAttrs::public(body.len() as u64, "Jun 18  2015")
            },
        );
    }
    // Ensure writable servers have their writable directory.
    if t.writable {
        let dir = if t.content == ContentKind::HostingWebroot { "/www" } else { "/incoming" };
        let _ = vfs.mkdir_p(dir);
    }
    // Campaign artifacts land last (on top of the writable dir).
    let unique_suffix = rng.random_bool(0.4);
    for &c in &t.campaigns {
        campaigns::inject(&mut vfs, rng, scratch, c, unique_suffix && t.writable);
    }
    vfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> (Simulator, WorldTruth) {
        let mut sim = Simulator::new(5);
        let spec = PopulationSpec::small(5, 600);
        let truth = build(&mut sim, &spec);
        (sim, truth)
    }

    #[test]
    fn world_builds_with_expected_counts() {
        let (sim, truth) = small_world();
        assert_eq!(truth.hosts.len(), 600);
        let anon = truth.anonymous_count();
        let expected = (600.0 * rates::ANON_PER_FTP).round() as usize;
        assert_eq!(anon, expected);
        assert!(sim.host_count() >= 600);
        assert!(!truth.non_ftp_open.is_empty());
    }

    #[test]
    fn addresses_are_unique_and_in_space() {
        let (_, truth) = small_world();
        let mut seen = HashSet::new();
        for h in &truth.hosts {
            assert!(truth.spec.space.contains(h.ip), "{}", h.ip);
            assert!(seen.insert(h.ip), "duplicate {}", h.ip);
        }
    }

    #[test]
    fn every_host_resolves_to_its_as() {
        let (_, truth) = small_world();
        for h in &truth.hosts {
            assert_eq!(truth.registry.lookup(h.ip), Some(h.asn), "{}", h.ip);
        }
    }

    #[test]
    fn writable_rate_is_boosted_target() {
        let (_, truth) = small_world();
        let anon = truth.anonymous_count() as f64;
        let expected = anon * rates::WRITABLE_PER_ANON * truth.spec.rare_boost;
        let got = truth.writable_count() as f64;
        assert!((got - expected).abs() <= expected * 0.5 + 2.0, "{got} vs {expected}");
    }

    #[test]
    fn bounce_rate_matches_target() {
        let (_, truth) = small_world();
        let anon: Vec<_> = truth.hosts.iter().filter(|h| h.anonymous).collect();
        let vulnerable = anon.iter().filter(|h| !h.validates_port).count() as f64;
        let rate = vulnerable / anon.len() as f64;
        assert!(
            (rate - rates::BOUNCE_PER_ANON).abs() < 0.05,
            "bounce rate {rate} vs {}",
            rates::BOUNCE_PER_ANON
        );
    }

    #[test]
    fn campaigns_mostly_on_writable_hosts() {
        let (_, truth) = small_world();
        for h in &truth.hosts {
            for c in &h.campaigns {
                if *c != Campaign::HolyBible {
                    assert!(h.writable, "{c:?} on non-writable host");
                }
            }
        }
        let with_campaign = truth.hosts.iter().filter(|h| !h.campaigns.is_empty()).count();
        assert!(with_campaign > 0, "boost guarantees signal");
    }

    #[test]
    fn determinism() {
        let build_once = || {
            let mut sim = Simulator::new(5);
            let spec = PopulationSpec::small(9, 300);
            let t = build(&mut sim, &spec);
            t.hosts.iter().map(|h| (h.ip, h.anonymous, h.writable)).collect::<Vec<_>>()
        };
        assert_eq!(build_once(), build_once());
    }

    #[test]
    fn fault_fraction_zero_leaves_world_clean() {
        let (_, truth) = small_world();
        assert_eq!(truth.faulted_count(), 0);
        assert!(truth.hosts.iter().all(|h| h.fault.is_none()));
    }

    #[test]
    fn fault_fraction_hits_target_rate_and_registers_in_sim() {
        let mut sim = Simulator::new(5);
        let spec = PopulationSpec::small(5, 600).with_fault_fraction(0.5);
        let truth = build(&mut sim, &spec);
        let got = truth.faulted_count() as f64;
        assert!((got - 300.0).abs() < 60.0, "~half the hosts faulted, got {got}");
        assert_eq!(sim.fault_count(), truth.faulted_count());
        for h in &truth.hosts {
            assert_eq!(h.fault, sim.fault_of(h.ip).map(|p| p.kind), "{}", h.ip);
        }
    }

    #[test]
    fn faulted_set_is_monotone_and_generation_is_fraction_invariant() {
        let build_at = |fraction: f64| {
            let mut sim = Simulator::new(5);
            let spec = PopulationSpec::small(11, 400).with_fault_fraction(fraction);
            build(&mut sim, &spec)
        };
        let clean = build_at(0.0);
        let ten = build_at(0.1);
        let fifty = build_at(0.5);
        // Fault assignment never consumes the generation RNG: everything
        // except the fault field is identical at every fraction.
        for ((a, b), c) in clean.hosts.iter().zip(&ten.hosts).zip(&fifty.hosts) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.ip, c.ip);
            assert_eq!(a.banner, b.banner);
            assert_eq!(a.banner, c.banner);
            assert_eq!(a.anonymous, c.anonymous);
            assert_eq!(a.drop_after, c.drop_after);
            // Monotone: faulted at 10% ⇒ faulted identically at 50%.
            if let Some(k) = b.fault {
                assert_eq!(c.fault, Some(k), "{} lost its fault at 0.5", b.ip);
            }
        }
        assert!(ten.faulted_count() > 0);
        assert!(ten.faulted_count() < fifty.faulted_count());
    }

    #[test]
    fn sharded_materialization_matches_full_build() {
        let spec = PopulationSpec::small(7, 300).with_fault_fraction(0.2);
        let plan = plan_world(&spec);
        let mut full_sim = Simulator::new(7);
        let (full_hosts, full_non_ftp) = plan.materialize(&mut full_sim, |_| true);

        let shards = 4u64;
        let mut merged: Vec<HostTruth> = Vec::new();
        let mut merged_non_ftp: Vec<Ipv4Addr> = Vec::new();
        for index in 0..shards {
            let mut sim = Simulator::new(7);
            let (hosts, non_ftp) =
                plan.materialize(&mut sim, |ip| netsim::ip::shard_of(7, ip, shards) == index);
            assert!(!hosts.is_empty(), "shard {index} materialized nothing");
            merged.extend(hosts);
            merged_non_ftp.extend(non_ftp);
        }
        merged.sort_by_key(|h| h.ip);
        merged_non_ftp.sort();

        let mut full_sorted = full_hosts.clone();
        full_sorted.sort_by_key(|h| h.ip);
        let mut full_non_ftp_sorted = full_non_ftp.clone();
        full_non_ftp_sorted.sort();

        assert_eq!(merged, full_sorted, "per-host materialization must be shard-blind");
        assert_eq!(merged_non_ftp, full_non_ftp_sorted);
    }

    #[test]
    fn batched_materialization_matches_full_build() {
        // The (shard, batch) grid unions back to the whole world, cell
        // by cell, with every host byte-identical to its full-build
        // self — the foundation of the streaming runner.
        let spec = PopulationSpec::small(7, 200).with_fault_fraction(0.2);
        let plan = plan_world(&spec);
        assert_eq!(plan.planned_host_count(), plan.plans.len() + plan.non_ftp.len());
        let mut full_sim = Simulator::new(7);
        let (mut full_hosts, mut full_non_ftp) = plan.materialize(&mut full_sim, |_| true);
        full_hosts.sort_by_key(|h| h.ip);
        full_non_ftp.sort();

        let (shards, batches) = (2u64, 5u64);
        let mut merged: Vec<HostTruth> = Vec::new();
        let mut merged_non_ftp: Vec<Ipv4Addr> = Vec::new();
        let mut cells_hit = 0;
        for s in 0..shards {
            for b in 0..batches {
                let mut sim = Simulator::new(7);
                let (hosts, non_ftp) =
                    plan.materialize_slice(&mut sim, (s, shards), (b, batches));
                if !hosts.is_empty() {
                    cells_hit += 1;
                }
                merged.extend(hosts);
                merged_non_ftp.extend(non_ftp);
            }
        }
        merged.sort_by_key(|h| h.ip);
        merged_non_ftp.sort();
        assert!(cells_hit > shards as usize, "batching must actually split the shards");
        assert_eq!(merged, full_hosts, "grid materialization must be cell-blind");
        assert_eq!(merged_non_ftp, full_non_ftp);
    }

    #[test]
    fn bucketed_materialization_matches_slice() {
        // The streaming runner's per-shard bucketing must materialize
        // exactly what the per-cell filter walk would have.
        let spec = PopulationSpec::small(7, 200).with_fault_fraction(0.2);
        let plan = plan_world(&spec);
        let (shards, batches) = (2u64, 5u64);
        for s in 0..shards {
            let index = plan.bucket_shard((s, shards), batches);
            for b in 0..batches {
                let mut sim_a = Simulator::new(7);
                let sliced = plan.materialize_slice(&mut sim_a, (s, shards), (b, batches));
                let mut sim_b = Simulator::new(7);
                let bucketed = plan.materialize_bucket(&mut sim_b, &index, b);
                assert_eq!(sliced, bucketed, "cell ({s}, {b})");
            }
        }
    }

    #[test]
    fn sized_spec_fits_requested_population() {
        let spec = PopulationSpec::sized(3, 300_000);
        assert_eq!(spec.ftp_servers, 300_000);
        assert!(spec.space.size() >= 16 * 300_000, "space {} too small", spec.space);
        let small = PopulationSpec::sized(3, 100);
        assert!(small.space.size() >= 1 << 18);
        // Up to 16,384 servers the floor holds: every benchmark and test
        // world sized this way is a /14.
        assert_eq!(PopulationSpec::sized(3, 16_384).space.prefix_len(), 14);
        assert_eq!(PopulationSpec::sized(3, 16_385).space.prefix_len(), 13);
    }

    /// Sized worlds past 16,384 servers plan without running out of
    /// address space (a 4× space fails for some of these seeds from
    /// 17,000 servers and for all of them at 30,000).
    #[test]
    fn sized_worlds_past_16384_servers_plan() {
        for n in [17_000, 20_000, 30_000] {
            for seed in [42, 2, 3, 4, 5] {
                let plan = plan_world(&PopulationSpec::sized(seed, n));
                assert_eq!(plan.plans.len(), n, "seed {seed}, {n} servers");
            }
        }
    }

    #[test]
    fn ramnit_hosts_are_not_anonymous() {
        let (_, truth) = small_world();
        for h in truth.hosts.iter().filter(|h| h.ramnit) {
            assert!(!h.anonymous);
        }
        assert!(truth.hosts.iter().any(|h| h.ramnit), "boost guarantees at least one");
    }

    #[test]
    fn named_ases_present_with_quotas() {
        let (_, truth) = small_world();
        let homepl = truth.registry.info(Asn(12_824)).expect("home.pl registered");
        assert_eq!(homepl.kind, AsKind::Hosting);
        // home.pl anonymous servers all fail PORT validation.
        for h in truth.hosts.iter().filter(|h| h.asn == Asn(12_824)) {
            assert!(!h.validates_port);
        }
    }

    #[test]
    fn scripting_implies_http() {
        let (_, truth) = small_world();
        for h in &truth.hosts {
            if h.scripting {
                assert!(h.http);
            }
        }
    }

    #[test]
    fn deep_trees_exist_and_are_large() {
        let (_, truth) = small_world();
        assert!(truth.hosts.iter().any(|h| h.deep_tree));
    }
}
