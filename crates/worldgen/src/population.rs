//! Population assembly: from the paper's rates to a bound, scannable
//! simulated Internet.
//!
//! Generation is two-phase. Phase one draws a host plan per server —
//! category, device, software, AS, address, behavioral flags, content
//! archetype — honoring the joint distributions of Tables I–IX and the
//! §VI–§IX rates. Phase two materializes the plans into `ftpd` engines
//! bound inside a [`netsim::Simulator`], plus the non-FTP port-21
//! population and co-hosted HTTP services: hosts are built on every
//! core, then installed by the calling thread in plan order. The
//! returned [`WorldTruth`] is ground truth for validation: analyses must
//! *measure* their numbers through the scanner and enumerator, and tests
//! compare measurement against this truth.

use crate::campaigns;
use crate::catalog::{self, Daemon, DeviceKind, DeviceModel};
use crate::content::{self, ContentKind, OsKind, SensitiveKind};
use crate::placement::{weighted_index, HostClass, Placement};
use crate::rates::{self, Campaign, Category};
use ftpd::implementations;
use ftpd::misc::{HttpService, RawBannerService, SilentService};
use ftpd::profile::{AnonPolicy, ServerProfile, UploadQuirk, UserReplyStyle};
use ftpd::FtpServerEngine;
use netsim::fasthash::FastSet;
use netsim::{AsKind, AsRegistry, Asn, FaultProfile, Ipv4Net, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtls::SimCertificate;
use simvfs::Vfs;
use std::net::Ipv4Addr;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// A small world for tests: ~`n` FTP servers in `4.0.0.0/14` (262,144
    /// addresses).
    pub fn small(seed: u64, n: usize) -> Self {
        PopulationSpec {
            seed,
            space: Ipv4Net::new(Ipv4Addr::new(4, 0, 0, 0), 14),
            ftp_servers: n,
            scale: (rates::PAPER_FTP / n as f64) as u64,
            rare_boost: 20.0,
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
    ///
    /// A population too large for any prefix gets the whole IPv4 space,
    /// and [`check_space`](PopulationSpec::check_space) refuses it.
    pub fn sized(seed: u64, n: usize) -> Self {
        let need = (n as u64).saturating_mul(16).max(1 << 18);
        let bits = (u64::BITS - (need - 1).leading_zeros()).min(32);
        let prefix_len = 32 - bits as u8;
        PopulationSpec {
            seed,
            space: Ipv4Net::new(Ipv4Addr::new(4, 0, 0, 0), prefix_len),
            ftp_servers: n,
            scale: (rates::PAPER_FTP / n as f64).max(1.0) as u64,
            rare_boost: ((rates::PAPER_FTP / n as f64) / 64.0).max(1.0),
            fault_fraction: 0.0,
        }
    }

    /// Sets the hostile-host fraction (see
    /// [`fault_fraction`](PopulationSpec::fault_fraction)).
    pub fn with_fault_fraction(mut self, fraction: f64) -> Self {
        self.fault_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Checks that [`plan_world`] can place this population in its
    /// address space, without planning it: more servers than addresses
    /// fail at once, anything else runs the AS allocation `plan_world`
    /// runs, without building the registry. The error says what did not
    /// fit.
    pub fn check_space(&self) -> Result<(), String> {
        if self.ftp_servers as u64 > self.space.size() {
            return Err(format!(
                "address space {} has {} addresses, fewer than {} FTP servers",
                self.space,
                self.space.size(),
                self.ftp_servers
            ));
        }
        lay_out_ases(self, &mut StdRng::seed_from_u64(self.seed), |_, _| {})
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

pub(crate) struct AsSlot {
    asn: Asn,
    pub(crate) kind: AsKind,
    prefix: Ipv4Net,
    /// Remaining (anon, non-anon) quotas.
    pub(crate) quota_anon: f64,
    pub(crate) quota_other: f64,
    next_offset: u64,
}

impl AsSlot {
    /// The quota hosts of a phase draw on: anonymous hosts are placed
    /// first, on `quota_anon`; the rest on `quota_other`.
    pub(crate) fn quota(&self, anonymous: bool) -> f64 {
        if anonymous {
            self.quota_anon
        } else {
            self.quota_other
        }
    }

    /// The phase's quota, to charge a placed host to.
    pub(crate) fn quota_mut(&mut self, anonymous: bool) -> &mut f64 {
        if anonymous {
            &mut self.quota_anon
        } else {
            &mut self.quota_other
        }
    }

    /// A slot of `kind` with the given quotas, for placement tests.
    #[cfg(test)]
    pub(crate) fn with_quotas(kind: AsKind, quota_anon: f64, quota_other: f64) -> Self {
        AsSlot {
            asn: Asn(64_000),
            kind,
            prefix: Ipv4Net::new(Ipv4Addr::new(4, 0, 0, 0), 24),
            quota_anon,
            quota_other,
            next_offset: 0,
        }
    }
}

/// Builds the AS registry and per-AS quotas.
///
/// # Panics
///
/// Panics if the population does not fit (see [`lay_out_ases`]).
fn build_ases(spec: &PopulationSpec, rng: &mut StdRng) -> (AsRegistry, Vec<AsSlot>) {
    let mut registry = AsRegistry::new();
    let mut slots = Vec::new();
    lay_out_ases(spec, rng, |slot, name| {
        registry.register(slot.asn, name.to_string(), slot.kind);
        registry.announce(slot.asn, slot.prefix);
        slots.push(slot);
    })
    .unwrap_or_else(|e| panic!("{e}"));
    registry.freeze();
    (registry, slots)
}

/// Draws every AS of the world in registry order, allocates its prefix,
/// and hands it to `place` with its name. Fails when a prefix does not
/// fit in what is left of the address space.
fn lay_out_ases(
    spec: &PopulationSpec,
    rng: &mut StdRng,
    mut place: impl FnMut(AsSlot, &dyn std::fmt::Display),
) -> Result<(), String> {
    let n = spec.ftp_servers as f64;
    let n_anon = n * rates::ANON_PER_FTP;
    let mut cursor: u64 = 0;
    let space_base = u32::from(spec.space.network()) as u64;
    let space_size = spec.space.size();

    let mut alloc = |advertised: u64, min_hosts: u64| -> Result<Ipv4Net, String> {
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
                return Ok(Ipv4Net::new(Ipv4Addr::from((space_base + aligned) as u32), prefix_len));
            }
            if size <= floor {
                return Err(format!(
                    "address space {} too small for the population (need {} more)",
                    spec.space, size
                ));
            }
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
        let prefix = alloc(adv_scaled, ftp_scaled.ceil() as u64 + 2)?;
        let slot = AsSlot {
            asn,
            kind,
            prefix,
            quota_anon: anon_scaled,
            quota_other: ftp_scaled - anon_scaled,
            next_offset: 0,
        };
        place(slot, &name);
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
        let adv = ((ftp_scaled * rng.random_range(2..12) as f64) as u64).max(16);
        let prefix = alloc(adv, ftp_scaled.ceil() as u64 + 2)?;
        let slot = AsSlot {
            asn: Asn(64_000 + i as u32),
            kind,
            prefix,
            quota_anon: anon_scaled,
            quota_other: (ftp_scaled - anon_scaled).max(0.0),
            next_offset: 0,
        };
        place(slot, &format_args!("Tail-AS-{i}"));
    }
    Ok(())
}

fn draw_category(rng: &mut StdRng, anon: bool) -> Category {
    const ANON: [f64; 4] = shares(rates::CLASS_ANON);
    // P(cat | !anon) derived from Tables I+II, in `CLASS_ALL` order.
    static DERIVED: OnceLock<[f64; 4]> = OnceLock::new();
    let (table, weights) = if anon {
        (&rates::CLASS_ANON, &ANON)
    } else {
        let derived = DERIVED.get_or_init(|| {
            let p = rates::ANON_PER_FTP;
            rates::CLASS_ALL.map(|(cat, all)| {
                let anon_p = rates::CLASS_ANON
                    .iter()
                    .find(|(c, _)| *c == cat)
                    .map(|&(_, v)| v)
                    .unwrap_or(0.0);
                ((all - anon_p * p) / (1.0 - p)).max(0.0)
            })
        });
        (&rates::CLASS_ALL, derived)
    };
    table[weighted_index(rng, weights)].0
}

/// The shares of a Table II row, in its order.
const fn shares(table: [(Category, f64); 4]) -> [f64; 4] {
    [table[0].1, table[1].1, table[2].1, table[3].1]
}

/// Device models drawn from: the consumer catalog, then the provider
/// catalog.
const DEVICES: usize = catalog::CONSUMER_DEVICES.len() + catalog::PROVIDER_DEVICES.len();

/// Model `i` of the [`DEVICES`] order.
const fn device_model(i: usize) -> &'static DeviceModel {
    let consumer = catalog::CONSUMER_DEVICES;
    if i < consumer.len() {
        &consumer[i]
    } else {
        &catalog::PROVIDER_DEVICES[i - consumer.len()]
    }
}

/// Device-draw weights in [`DEVICES`] order: each model's anonymous
/// count for anonymous hosts (`[0]`), the rest of its total for the
/// others (`[1]`).
const DEVICE_WEIGHTS: [[f64; DEVICES]; 2] = {
    let mut weights = [[0.0; DEVICES]; 2];
    let mut i = 0;
    while i < DEVICES {
        let d = device_model(i);
        weights[0][i] = d.anonymous;
        weights[1][i] = (d.total - d.anonymous).max(0.0);
        i += 1;
    }
    weights
};

/// `catalog::SOFTWARE_MIX`'s weights, in its order.
const SOFTWARE_WEIGHTS: [f64; catalog::SOFTWARE_MIX.len()] = {
    let mut weights = [0.0; catalog::SOFTWARE_MIX.len()];
    let mut i = 0;
    while i < weights.len() {
        weights[i] = catalog::SOFTWARE_MIX[i].2;
        i += 1;
    }
    weights
};

fn draw_device(rng: &mut StdRng, anon: bool) -> &'static DeviceModel {
    let weights = &DEVICE_WEIGHTS[usize::from(!anon)];
    device_model(weighted_index(rng, weights))
}

fn draw_software(rng: &mut StdRng) -> (Daemon, Option<&'static str>) {
    let (d, v, _) = catalog::SOFTWARE_MIX[weighted_index(rng, &SOFTWARE_WEIGHTS)];
    (d, v)
}

/// One planned (not yet materialized) host.
#[derive(Debug, Clone, PartialEq)]
struct HostPlan {
    truth: HostTruth,
    banner_multiline: bool,
    flaky: bool,
    robots_some: bool,
}

/// One FTP host built off the simulator thread, waiting to be installed.
/// The engine is boxed on the worker, so the build buffer holds a
/// pointer rather than the engine itself.
struct BuiltHost {
    truth: HostTruth,
    engine: Box<FtpServerEngine>,
    /// The internal address a NAT'd host leaks through `PASV`.
    internal_ip: Option<Ipv4Addr>,
    /// The co-hosted web server on port 80.
    http: Option<HttpService>,
}

impl BuiltHost {
    /// Installs the host into `sim` — register, bind, fault, NAT, HTTP —
    /// and returns its ground truth.
    fn install(self, spec: &PopulationSpec, sim: &mut Simulator) -> HostTruth {
        let BuiltHost { mut truth, engine, internal_ip, http } = self;
        let id = sim.register_endpoint(engine);
        sim.bind(truth.ip, 21, id);
        if let Some(fault) = sample_fault(spec, truth.ip) {
            truth.fault = Some(fault.kind);
            sim.set_fault(truth.ip, fault);
        }
        if let Some(internal) = internal_ip {
            sim.set_internal_ip(truth.ip, internal);
        }
        if let Some(svc) = http {
            let hid = sim.register_endpoint(Box::new(svc));
            sim.bind(truth.ip, 80, hid);
        }
        truth
    }
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
/// Each host's AS is drawn by a Fenwick-tree search in O(log ASes),
/// with the draws and results of a weighted pass over every AS, so
/// planning is O(n log n) in the server count.
///
/// # Panics
///
/// Panics if `spec.space` is too small to hold the population;
/// [`PopulationSpec::check_space`] tells without panicking.
pub fn plan_world(spec: &PopulationSpec) -> WorldPlan {
    plan_counting_fallbacks(spec).0
}

/// [`plan_world`], plus how many placement draws ran the sequential
/// pass because the trees could not certify their answer.
fn plan_counting_fallbacks(spec: &PopulationSpec) -> (WorldPlan, u64) {
    let mut placement = Placement::default();
    let plan = plan_world_with(spec, |rng, slots, anonymous, category, provider_device| {
        placement.draw(rng, slots, anonymous, HostClass::of(category, provider_device))
    });
    (plan, placement.fallbacks)
}

/// [`plan_world`] with its AS draw given by `place`, which picks the
/// slot of a host (anonymous or not, of a category, on a provider
/// device or not) and charges the slot's quota for it.
fn plan_world_with(
    spec: &PopulationSpec,
    mut place: impl FnMut(&mut StdRng, &mut [AsSlot], bool, Category, bool) -> usize,
) -> WorldPlan {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (registry, mut slots) = build_ases(spec, &mut rng);
    let n = spec.ftp_servers;
    let n_anon = (n as f64 * rates::ANON_PER_FTP).round() as usize;
    let boost = spec.rare_boost;

    // ---- phase 1: plans ----
    let mut plans: Vec<HostPlan> = Vec::with_capacity(n);
    // Keyed by `u32::from(ip)`, whose low bits are the host part: the
    // multiply hash's low bits, which pick the bucket, depend only on
    // the key's low bits. `Ipv4Addr`'s own `Hash` puts the network
    // octets there on little-endian machines, which piles a world's
    // addresses into a few buckets.
    let mut used: FastSet<u32> = FastSet::default();

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
        let slot_ix = place(&mut rng, &mut slots, anonymous, category, provider_device);
        let slot = &mut slots[slot_ix];
        // Sequential-with-stride placement inside the prefix.
        let ip = loop {
            let off = slot.next_offset % slot.prefix.size();
            slot.next_offset = slot.next_offset.wrapping_add(rng.random_range(1..7));
            let ip = slot.prefix.addr_at(off);
            if used.insert(u32::from(ip)) {
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
    let extra = ((n as f64) * (1.0 / rates::FTP_PER_OPEN - 1.0)).round() as usize;
    let mut non_ftp = Vec::new();
    for _ in 0..extra {
        let ip = loop {
            let off = rng.random_range(0..spec.space.size());
            let ip = spec.space.addr_at(off);
            if used.insert(u32::from(ip)) {
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

    /// Materializes into `sim` every planned host whose address passes
    /// `keep`, returning the ground truth of that subset (in plan
    /// order) plus the retained non-FTP addresses.
    ///
    /// Each host is built with its own `host_rng`, so the subset
    /// chosen has no effect on what any individual host looks like:
    /// materializing the full plan in one simulator and materializing a
    /// partition of it across K simulators yield identical hosts. The
    /// builds run on `available_parallelism()` threads, which never
    /// touch `sim`; this thread installs the results in plan order.
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
    /// in plan order. A cell holds the planned hosts that
    /// [`netsim::ip::shard_of`] assigns to `shard.0` of `shard.1` *and*
    /// [`netsim::ip::batch_of`] assigns to that batch of `batches`,
    /// under this plan's world seed.
    ///
    /// The streaming runner computes this once per shard and then feeds
    /// each bucket to [`WorldPlan::materialize_bucket`], so a shard
    /// walks the plan once rather than once per batch.
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
    /// [`WorldPlan::bucket_shard`]): [`WorldPlan::materialize`] with the
    /// cell's composed shard and batch keep-filter. Batches are
    /// hash-partitions just like shards, so the union over the grid
    /// rebuilds the full world, each host byte-identical to its
    /// full-build self.
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

    /// Builds the listed plan entries on every core, then installs them,
    /// and the listed non-FTP responders, into `sim` in plan order.
    fn materialize_indices(
        &self,
        sim: &mut Simulator,
        plan_ix: impl Iterator<Item = usize>,
        non_ftp_ix: impl Iterator<Item = usize>,
    ) -> (Vec<HostTruth>, Vec<Ipv4Addr>) {
        let _span = obs::span!("worldgen.materialize");
        let plan_ix: Vec<usize> = plan_ix.collect();
        let mut truths = Vec::with_capacity(plan_ix.len());
        for built in self.build_hosts(&plan_ix) {
            truths.push(built.install(&self.spec, sim));
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

    /// Builds the hosts of `plan_ix` on `available_parallelism()` scoped
    /// workers, which pull positions from one atomic cursor, and returns
    /// them in `plan_ix` order. Each host is a pure function of its plan
    /// and its own [`host_rng`], so which worker builds it changes
    /// nothing.
    ///
    /// Recorders are per-thread: when the caller has one, each worker
    /// collects its counters (the `vfs_*` family) on a metrics-only
    /// recorder, and they are added to the caller's before this returns.
    fn build_hosts(&self, plan_ix: &[usize]) -> Vec<BuiltHost> {
        let hosting_cert_weights: Vec<f64> =
            catalog::HOSTING_CERTS.iter().map(|&(_, w, _)| w).collect();
        let slots: Vec<OnceLock<BuiltHost>> = plan_ix.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let record = obs::enabled();
        let workers =
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get).min(plan_ix.len());
        let worker_metrics: Vec<Option<obs::Report>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        if record {
                            obs::install(Box::new(obs::CollectingRecorder::new(0, false)));
                        }
                        // One set of path/mtime render buffers per worker,
                        // reused across every host it builds.
                        let mut scratch = content::GenScratch::default();
                        loop {
                            // Relaxed: the cursor only hands out positions;
                            // built hosts reach the caller through their
                            // `OnceLock` slots and the scope's join.
                            let at = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = plan_ix.get(at) else { break };
                            let plan = &self.plans[i];
                            let mut rng = host_rng(self.spec.seed, plan.truth.ip);
                            let built = self.build_host(
                                plan,
                                &mut rng,
                                &hosting_cert_weights,
                                &mut scratch,
                            );
                            let _ = slots[at].set(built);
                        }
                        obs::uninstall().map(|r| r.finish())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("world-building worker panicked")).collect()
        });
        for report in worker_metrics.into_iter().flatten() {
            for c in obs::Counter::ALL {
                let n = report.metrics.counter(c);
                if n > 0 {
                    obs::counter(c, n);
                }
            }
        }
        slots.into_iter().map(|s| s.into_inner().expect("every position built")).collect()
    }

    /// Builds one host from its own [`host_rng`] stream: profile,
    /// filesystem, engine, NAT address, and HTTP service, drawn in that
    /// order.
    ///
    /// The engine gets its tree now and a recipe that rebuilds it after
    /// a release: the plan and the stream as they stood before
    /// [`build_vfs`], replayed through it.
    fn build_host(
        &self,
        plan: &HostPlan,
        rng: &mut StdRng,
        hosting_cert_weights: &[f64],
        scratch: &mut content::GenScratch,
    ) -> BuiltHost {
        let profile = build_profile(plan, rng, hosting_cert_weights);
        let recipe = (plan.clone(), rng.clone());
        let vfs = build_vfs(plan, rng, scratch);
        let mut truth = plan.truth.clone();
        // `clone_from` reuses the just-cloned banner buffer instead of
        // dropping it for a fresh allocation.
        truth.banner.clone_from(&profile.banner);
        truth.drop_after = profile.drop_after_commands;
        if let Some(ftps) = &profile.ftps {
            truth.cert_fp = Some(ftps.cert.fingerprint());
        }
        let rebuild = move || {
            let (plan, rng) = &recipe;
            build_vfs(plan, &mut rng.clone(), &mut content::GenScratch::default())
        };
        let engine = Box::new(FtpServerEngine::new(truth.ip, profile, vfs).with_rebuild(rebuild));
        let internal_ip = truth
            .nat
            .then(|| Ipv4Addr::new(192, 168, rng.random_range(0..5), rng.random_range(2..250)));
        let http = truth.http.then(|| {
            if truth.scripting {
                let engine_name = if rng.random_bool(0.8) { "PHP/5.4.45" } else { "ASP.NET" };
                HttpService::new("Apache/2.2.22 (Debian)").with_powered_by(engine_name)
            } else {
                HttpService::new("nginx/1.2.1")
            }
        });
        BuiltHost { truth, engine, internal_ip, http }
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
        let rolls: u16 = rng.random_range(300..500);
        // Static attrs: no per-file RNG draws, and the default mtime.
        let attrs = simvfs::FileAttrs::public(2_000_000);
        // `roll-{roll:03}` and `IMG_{i:04}.jpg`, rendered by hand: rolls
        // stay below 1,000 and files per roll below 100.
        let mut roll_name = *b"roll-000";
        let mut name = *b"IMG_0000.jpg";
        for roll in 0..rolls {
            let per_dir: u8 = rng.random_range(8..28);
            roll_name[5..].copy_from_slice(&[
                b'0' + (roll / 100) as u8,
                b'0' + (roll / 10 % 10) as u8,
                b'0' + (roll % 10) as u8,
            ]);
            scratch.path.set("/share/photos");
            scratch.path.push(std::str::from_utf8(&roll_name).expect("ASCII digits"));
            let dir = vfs.dir_handle(scratch.path.as_str()).ok();
            for i in 0..per_dir {
                name[6] = b'0' + i / 10;
                name[7] = b'0' + i % 10;
                if let Some(d) = dir {
                    let name = std::str::from_utf8(&name).expect("ASCII digits");
                    let _ = vfs.add_file_in(d, name, attrs);
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
        let _ = vfs.add_file("/robots.txt", simvfs::FileAttrs::public(0).with_content(body));
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
    use std::collections::HashSet;

    fn small_world() -> (Simulator, WorldTruth) {
        let mut sim = Simulator::new(5);
        let spec = PopulationSpec::small(5, 600);
        let truth = build(&mut sim, &spec);
        (sim, truth)
    }

    /// Probes port 21 of every address it holds when its timer fires,
    /// and keeps the addresses that answer open.
    struct Prober {
        targets: Vec<Ipv4Addr>,
        open: std::rc::Rc<std::cell::RefCell<Vec<Ipv4Addr>>>,
    }

    impl netsim::Endpoint for Prober {
        fn on_timer(&mut self, ctx: &mut netsim::Ctx<'_>, _token: u64) {
            ctx.probe_batch(&self.targets, 21);
        }
        fn on_probe(
            &mut self,
            _ctx: &mut netsim::Ctx<'_>,
            target: Ipv4Addr,
            _port: u16,
            status: netsim::ProbeStatus,
        ) {
            if status == netsim::ProbeStatus::Open {
                self.open.borrow_mut().push(target);
            }
        }
    }

    #[test]
    fn world_builds_with_expected_counts() {
        let (mut sim, truth) = small_world();
        assert_eq!(truth.hosts.len(), 600);
        let anon = truth.anonymous_count();
        let expected = (600.0 * rates::ANON_PER_FTP).round() as usize;
        assert_eq!(anon, expected);
        assert!(!truth.non_ftp_open.is_empty());
        // Every FTP host and every non-FTP responder is in the
        // simulator, listening on port 21.
        let mut targets = truth.ftp_addresses();
        targets.extend(&truth.non_ftp_open);
        let open = std::rc::Rc::default();
        let prober = Prober { targets: targets.clone(), open: std::rc::Rc::clone(&open) };
        let id = sim.register_endpoint(Box::new(prober));
        sim.schedule_timer(id, netsim::SimDuration::ZERO, 0);
        sim.run();
        let mut open = open.take();
        open.sort();
        targets.sort();
        assert_eq!(open, targets);
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

    /// What a host shows one client that dials its port 21 and its
    /// (unbound) port 20 and reads the first bytes of the greeting.
    #[derive(Debug, Default)]
    struct Greeting {
        control: Option<Result<(), netsim::ConnectError>>,
        other_port: Option<Result<(), netsim::ConnectError>>,
        first_bytes: Option<Vec<u8>>,
    }

    impl Greeting {
        /// The fault this greeting shows: the four kinds that act before
        /// or on the banner, and `None` for a clean greeting (which
        /// mid-session resets and truncated transfers also give).
        fn visible_fault(&self) -> Option<&'static str> {
            use netsim::ConnectError::Timeout;
            match (&self.control, &self.other_port, &self.first_bytes) {
                (Some(Err(Timeout)), _, _) => Some("syn_blackhole"),
                (_, Some(Err(Timeout)), _) => Some("data_channel_broken"),
                (_, _, Some(b)) if b.len() == 1 => Some("tarpit"),
                (_, _, Some(b)) if !b.starts_with(b"220") => Some("garbage_replies"),
                _ => None,
            }
        }
    }

    /// Dials every host of its list on ports 21 and 20 when its timer
    /// fires, recording each host's [`Greeting`].
    struct Greeter {
        hosts: Vec<Ipv4Addr>,
        seen: std::rc::Rc<std::cell::RefCell<Vec<Greeting>>>,
        control: std::collections::HashMap<netsim::ConnId, usize>,
    }

    impl netsim::Endpoint for Greeter {
        fn on_timer(&mut self, ctx: &mut netsim::Ctx<'_>, _token: u64) {
            let me = Ipv4Addr::new(198, 51, 100, 1);
            for (i, &ip) in self.hosts.iter().enumerate() {
                ctx.connect(me, ip, 21, 2 * i as u64);
                ctx.connect(me, ip, 20, 2 * i as u64 + 1);
            }
        }
        fn on_outbound(
            &mut self,
            _ctx: &mut netsim::Ctx<'_>,
            token: u64,
            result: Result<netsim::ConnId, netsim::ConnectError>,
        ) {
            let (i, control) = ((token / 2) as usize, token.is_multiple_of(2));
            let host = &mut self.seen.borrow_mut()[i];
            let outcome = result.map(|conn| {
                if control {
                    self.control.insert(conn, i);
                }
            });
            if control {
                host.control = Some(outcome);
            } else {
                host.other_port = Some(outcome);
            }
        }
        fn on_data(&mut self, _ctx: &mut netsim::Ctx<'_>, conn: netsim::ConnId, data: &[u8]) {
            if let Some(&i) = self.control.get(&conn) {
                self.seen.borrow_mut()[i].first_bytes.get_or_insert_with(|| data.to_vec());
            }
        }
    }

    #[test]
    fn fault_fraction_hits_target_rate_and_registers_in_sim() {
        let mut sim = Simulator::new(5);
        let spec = PopulationSpec::small(5, 600).with_fault_fraction(0.5);
        let truth = build(&mut sim, &spec);
        let got = truth.faulted_count() as f64;
        assert!((got - 300.0).abs() < 60.0, "~half the hosts faulted, got {got}");
        // Every host shows the simulator exactly the fault its truth
        // names, as far as a greeting can tell.
        let hosts = truth.ftp_addresses();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(
            hosts.iter().map(|_| Greeting::default()).collect::<Vec<_>>(),
        ));
        let greeter = Greeter { hosts, seen: seen.clone(), control: Default::default() };
        let id = sim.register_endpoint(Box::new(greeter));
        sim.schedule_timer(id, netsim::SimDuration::ZERO, 0);
        sim.run();
        let mut shown = HashSet::new();
        for (h, greeting) in truth.hosts.iter().zip(seen.borrow().iter()) {
            let named = match h.fault {
                None
                | Some(netsim::FaultKind::MidSessionRst { .. })
                | Some(netsim::FaultKind::TruncateData { .. }) => None,
                Some(kind) => Some(kind.label()),
            };
            assert_eq!(greeting.visible_fault(), named, "{}: {greeting:?}", h.ip);
            shown.insert(named);
        }
        assert_eq!(shown.len(), 5, "every visible kind and clean hosts: {shown:?}");
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
            let index = plan.bucket_shard((s, shards), batches);
            for b in 0..batches {
                let mut sim = Simulator::new(7);
                let (hosts, non_ftp) = plan.materialize_bucket(&mut sim, &index, b);
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
    fn bucketed_materialization_matches_filtered_build() {
        // The streaming runner's per-shard bucketing must materialize
        // exactly what `materialize` keeps under the cell's shard and
        // batch filter.
        let spec = PopulationSpec::small(7, 200).with_fault_fraction(0.2);
        let plan = plan_world(&spec);
        let (shards, batches) = (2u64, 5u64);
        for s in 0..shards {
            let index = plan.bucket_shard((s, shards), batches);
            for b in 0..batches {
                let mut sim_a = Simulator::new(7);
                let filtered = plan.materialize(&mut sim_a, |ip| {
                    netsim::ip::shard_of(7, ip, shards) == s
                        && netsim::ip::batch_of(7, ip, batches) == b
                });
                let mut sim_b = Simulator::new(7);
                let bucketed = plan.materialize_bucket(&mut sim_b, &index, b);
                assert_eq!(filtered, bucketed, "cell ({s}, {b})");
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
        // Past 2^28 servers no prefix gives 16× room: the whole space.
        assert_eq!(PopulationSpec::sized(3, 1 << 28).space.prefix_len(), 0);
        assert_eq!(PopulationSpec::sized(3, 300_000_000).space.prefix_len(), 0);
        assert_eq!(PopulationSpec::sized(3, usize::MAX).space.prefix_len(), 0);
    }

    /// `check_space` refuses exactly the worlds `plan_world` cannot
    /// place, without planning them.
    #[test]
    fn check_space_agrees_with_plan_world() {
        let fits = PopulationSpec::small(42, 600);
        assert_eq!(fits.check_space(), Ok(()));
        assert!(plan_world(&fits).planned_host_count() >= 600);

        let crowded = PopulationSpec::small(42, 40_000);
        let err = crowded.check_space().expect_err("40,000 servers overflow a /14");
        assert!(err.contains("too small for the population"), "{err}");
        let planned = std::panic::catch_unwind(|| plan_world(&crowded).planned_host_count());
        let panic = planned.expect_err("plan_world panics");
        assert_eq!(panic.downcast_ref::<String>(), Some(&err), "the same allocator decides");

        let err = PopulationSpec::study(42, 0).check_space().expect_err("scale 0 overflows");
        assert!(err.contains("fewer than 18446744073709551615 FTP servers"), "{err}");
        assert!(PopulationSpec::sized(42, 300_000_000).check_space().is_err());
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

    /// Word-at-a-time hash for the world pins below (fast enough in
    /// debug builds to hash a few million nodes).
    struct Fingerprint(u64);

    impl Fingerprint {
        fn new() -> Self {
            Fingerprint(0xcbf2_9ce4_8422_2325)
        }

        fn u64(&mut self, v: u64) {
            self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            self.0 ^= self.0 >> 29;
        }

        fn bytes(&mut self, b: &[u8]) {
            let mut words = b.chunks_exact(8);
            for w in &mut words {
                self.u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
            }
            let mut tail = [0u8; 8];
            tail[..words.remainder().len()].copy_from_slice(words.remainder());
            self.u64(u64::from_le_bytes(tail));
        }

        fn str(&mut self, s: &str) {
            self.u64(s.len() as u64);
            self.bytes(s.as_bytes());
        }

        fn node(&mut self, path: &str, node: simvfs::NodeRef<'_>) {
            use simvfs::{NodeRef, Owner};
            let owner = |o: Owner| match o {
                Owner::Root => 0,
                Owner::Ftp => 1,
                Owner::Anonymous => 2,
                Owner::User(n) => 3 + u64::from(n),
            };
            self.str(path);
            match node {
                NodeRef::File(f) => {
                    self.u64(0);
                    self.u64(f.size);
                    self.u64(f.perms.mode().into());
                    self.u64(owner(f.owner));
                    self.str(f.mtime);
                    match f.content {
                        Some(c) => self.str(c),
                        None => self.u64(u64::MAX),
                    }
                }
                NodeRef::Dir(d) => {
                    self.u64(1);
                    self.u64(d.perms.mode().into());
                    self.u64(owner(d.owner));
                    self.str(d.mtime);
                    self.u64(d.len as u64);
                }
            }
        }
    }

    impl std::fmt::Write for Fingerprint {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.bytes(s.as_bytes());
            Ok(())
        }
    }

    /// Fingerprints every planned host of `spec` — banner, NAT address,
    /// HTTP service, arena sizes, every `walk` entry with its fields, and
    /// the next `host_rng` draw after the build — and, separately, the
    /// ground truth `materialize` returns.
    fn world_fingerprint(spec: &PopulationSpec) -> (u64, u64) {
        use std::fmt::Write as _;
        let plan = plan_world(spec);
        let weights: Vec<f64> = catalog::HOSTING_CERTS.iter().map(|&(_, w, _)| w).collect();
        let mut scratch = content::GenScratch::default();
        let mut hosts = Fingerprint::new();
        for p in &plan.plans {
            let mut rng = host_rng(spec.seed, p.truth.ip);
            let built = plan.build_host(p, &mut rng, &weights, &mut scratch);
            let _ =
                write!(hosts, "{}|{:?}|{:?}|", built.truth.banner, built.internal_ip, built.http);
            let vfs = built.engine.vfs().expect("built with its tree");
            hosts.u64(vfs.node_count() as u64);
            hosts.u64(vfs.interned_bytes() as u64);
            hosts.u64(rng.random::<u64>());
            vfs.walk(|path, node| hosts.node(path, node));
            hosts.u64(0xff);
        }
        let mut sim = Simulator::new(spec.seed);
        let (truths, non_ftp) = plan.materialize(&mut sim, |_| true);
        let mut truth = Fingerprint::new();
        let _ = write!(truth, "{truths:?}|{non_ftp:?}");
        (hosts.0, truth.0)
    }

    /// Generated worlds, pinned absolutely. Report digests only see what
    /// the enumerator lists, and most of a deep tree never reaches a
    /// report; these pins see every node of every host. A deliberate
    /// change to what worlds contain updates them, with the reason.
    #[test]
    fn small_world_is_pinned() {
        let pins = world_fingerprint(&PopulationSpec::small(1_234, 900));
        assert_eq!(pins, (0xe965_fa74_2b81_9064, 0x7af6_09f3_9bad_7471), "{pins:#018x?}");
    }

    #[test]
    fn sized_hostile_world_is_pinned() {
        let spec = PopulationSpec::sized(7, 3_000).with_fault_fraction(0.5);
        let pins = world_fingerprint(&spec);
        assert_eq!(pins, (0x44f6_aa80_6ef4_bfec, 0x0eef_3484_0f15_017a), "{pins:#018x?}");
    }

    /// Fingerprints a plan: every host plan's truth and flags, in plan
    /// order, then the non-FTP responders.
    fn plan_fingerprint(plan: &WorldPlan) -> u64 {
        use std::fmt::Write as _;
        let mut f = Fingerprint::new();
        for p in &plan.plans {
            let _ = write!(f, "{:?}|{}{}{}|", p.truth, p.banner_multiline, p.flaky, p.robots_some);
        }
        let _ = write!(f, "{:?}", plan.non_ftp);
        f.0
    }

    /// A plan at a size the sequential placement made slow (8.7 s in a
    /// release build), pinned with the value that placement produced.
    #[test]
    fn sized_200k_plan_is_pinned() {
        let (plan, fallbacks) = plan_counting_fallbacks(&PopulationSpec::sized(42, 200_000));
        assert_eq!(plan.plans.len(), 200_000);
        let pin = plan_fingerprint(&plan);
        assert_eq!(pin, 0x595d_f02e_cd7d_2085, "{pin:#018x}, {fallbacks} fallbacks");
    }

    /// `plan_world` plans exactly the world the sequential placement
    /// plans, across seeds and sizes.
    #[test]
    fn plan_world_matches_the_sequential_placement() {
        for (n, seeds) in
            [(1_000, 1..6), (3_000, 6..9), (7_000, 9..11), (12_000, 42..43), (20_000, 7..8)]
        {
            for seed in seeds {
                let spec = PopulationSpec::sized(seed, n);
                let tree = plan_world(&spec);
                let scan = plan_world_with(&spec, crate::placement::tests::place_by_scan);
                let first = tree.plans.iter().zip(&scan.plans).position(|(a, b)| a != b);
                assert_eq!(first, None, "seed {seed}, {n} servers: first differing host");
                assert_eq!(tree.plans.len(), scan.plans.len());
                assert!(tree.non_ftp == scan.non_ftp, "seed {seed}, {n} servers: non-FTP hosts");
            }
        }
    }

    /// `plan_world`'s wall time (the best of three runs) and fallback
    /// count at 12k, 200k and 1M servers. Asserts nothing about time;
    /// run it in release:
    /// `cargo test --release -p worldgen -- --ignored --nocapture`.
    #[test]
    #[ignore]
    #[allow(clippy::print_stdout)]
    fn plan_scaling() {
        for n in [12_000, 200_000, 1_000_000] {
            let spec = PopulationSpec::sized(42, n);
            let mut best = std::time::Duration::MAX;
            let mut fallbacks = 0;
            for _ in 0..if n < 100_000 { 10 } else { 3 } {
                let start = std::time::Instant::now();
                let (plan, count) = plan_counting_fallbacks(&spec);
                best = best.min(start.elapsed());
                assert_eq!(plan.plans.len(), n);
                fallbacks = count;
            }
            println!("plan_world, {n} servers: {best:.3?}, {fallbacks} fallbacks");
        }
    }

    /// Prints what the trees of `ftpcloud study`'s default world (the
    /// benchmark's `paper`) hold, by structure, and the wall time to drop
    /// them all. Asserts nothing about memory; run with `cargo test
    /// --release -- --ignored --nocapture memory_breakdown` (the records
    /// half is in `ftp-study`).
    #[test]
    #[ignore]
    #[allow(clippy::print_stdout)]
    fn memory_breakdown() {
        let spec = PopulationSpec::study(42, 4_096);
        let plan = plan_world(&spec);
        let weights: Vec<f64> = catalog::HOSTING_CERTS.iter().map(|&(_, w, _)| w).collect();
        let mut scratch = content::GenScratch::default();
        let trees: Vec<Vfs> = plan
            .plans
            .iter()
            .map(|p| {
                let mut rng = host_rng(spec.seed, p.truth.ip);
                build_profile(p, &mut rng, &weights);
                build_vfs(p, &mut rng, &mut scratch)
            })
            .collect();
        let mb = |bytes: usize| bytes as f64 / 1e6;
        let nodes: usize = trees.iter().map(Vfs::node_count).sum();
        let dirs: usize = trees.iter().map(|t| t.dir_count() + 1).sum();
        let mut total = simvfs::Footprint::default();
        for t in &trees {
            let f = t.footprint();
            total.slab += f.slab;
            total.children += f.children;
            total.interner += f.interner;
        }
        println!("{} trees, {nodes} nodes at {} B each", trees.len(), total.slab / nodes);
        println!("  slab      {:8.1} MB", mb(total.slab));
        println!("  children  {:8.1} MB ({dirs} directories)", mb(total.children));
        println!("  interner  {:8.1} MB", mb(total.interner));
        let start = std::time::Instant::now();
        drop(trees);
        println!("dropping every tree: {:.1?}", start.elapsed());
    }

    /// Shares an engine with the test while a simulator drives its
    /// control sessions.
    struct Shared(std::rc::Rc<std::cell::RefCell<FtpServerEngine>>);

    impl netsim::Endpoint for Shared {
        fn on_inbound(&mut self, ctx: &mut netsim::Ctx<'_>, conn: netsim::ConnId, port: u16) {
            self.0.borrow_mut().on_inbound(ctx, conn, port);
        }
        fn on_data(&mut self, ctx: &mut netsim::Ctx<'_>, conn: netsim::ConnId, data: &[u8]) {
            self.0.borrow_mut().on_data(ctx, conn, data);
        }
        fn on_close(&mut self, ctx: &mut netsim::Ctx<'_>, conn: netsim::ConnId) {
            self.0.borrow_mut().on_close(ctx, conn);
        }
    }

    /// Opens a control connection to port 21 of its address per timer,
    /// and closes it once it is up when the timer's token is
    /// [`Dialer::CLOSE`]; any other token holds it open.
    struct Dialer(Ipv4Addr);

    impl Dialer {
        const CLOSE: u64 = 1;
    }

    impl netsim::Endpoint for Dialer {
        fn on_timer(&mut self, ctx: &mut netsim::Ctx<'_>, token: u64) {
            ctx.connect(Ipv4Addr::new(198, 51, 100, 1), self.0, 21, token);
        }
        fn on_outbound(
            &mut self,
            ctx: &mut netsim::Ctx<'_>,
            token: u64,
            result: Result<netsim::ConnId, netsim::ConnectError>,
        ) {
            if let (Dialer::CLOSE, Ok(conn)) = (token, result) {
                ctx.close(conn);
            }
        }
    }

    fn tree_fingerprint(vfs: &Vfs) -> u64 {
        let mut f = Fingerprint::new();
        f.u64(vfs.node_count() as u64);
        f.u64(vfs.interned_bytes() as u64);
        vfs.walk(|path, node| f.node(path, node));
        f.0
    }

    /// Every host's engine releases its tree when its session closes and
    /// rebuilds it for the next session from the recipe `build_host`
    /// attached. The study opens one session per host, so it never
    /// rebuilds a tree; this test is what pins the recipe, on both
    /// pinned worlds, NAT and scripting-HTTP hosts (which draw from
    /// their RNG after `build_vfs`) included.
    #[test]
    fn rebuilt_trees_match_eager_builds() {
        let weights: Vec<f64> = catalog::HOSTING_CERTS.iter().map(|&(_, w, _)| w).collect();
        let mut scratch = content::GenScratch::default();
        for spec in [
            PopulationSpec::small(1_234, 900),
            PopulationSpec::sized(7, 3_000).with_fault_fraction(0.5),
        ] {
            let plan = plan_world(&spec);
            let mut sim = Simulator::new(spec.seed);
            let (mut nat, mut scripting) = (0, 0);
            for p in &plan.plans {
                let ip = p.truth.ip;
                let mut rng = host_rng(spec.seed, ip);
                let built = plan.build_host(p, &mut rng, &weights, &mut scratch);
                let eager = tree_fingerprint(built.engine.vfs().expect("built with its tree"));
                nat += usize::from(built.internal_ip.is_some());
                scripting += usize::from(built.truth.scripting && built.http.is_some());
                sim.reset(spec.seed);
                let engine = std::rc::Rc::new(std::cell::RefCell::new(*built.engine));
                let id = sim.register_endpoint(Box::new(Shared(engine.clone())));
                sim.bind(ip, 21, id);
                let dialer = sim.register_endpoint(Box::new(Dialer(ip)));
                sim.schedule_timer(dialer, netsim::SimDuration::ZERO, Dialer::CLOSE);
                sim.run();
                assert!(engine.borrow().vfs().is_none(), "{ip}: tree kept after its session");
                sim.schedule_timer(dialer, netsim::SimDuration::ZERO, 0);
                sim.run();
                let engine = engine.borrow();
                let rebuilt = engine.vfs().expect("rebuilt for the open session");
                assert_eq!(tree_fingerprint(rebuilt), eager, "{ip}: rebuilt tree differs");
            }
            assert!(nat > 0 && scripting > 0, "nat {nat}, scripting {scripting}");
        }
    }
}
