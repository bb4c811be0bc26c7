//! Bounded-memory study aggregation for the streaming runner.
//!
//! The in-memory runner keeps every [`HostRecord`] and hands the full
//! vector to each analysis module. That is O(world) RSS and caps
//! study size. [`StreamingAggregate`] is the constant-size alternative:
//! each record is folded exactly once (per-batch, as the streaming
//! driver produces it) into plain counters, fixed-order arrays, and
//! small deterministic maps, and per-batch/per-shard aggregates are
//! combined with [`StreamingAggregate::merge`].
//!
//! Two laws make checkpoint/resume and sharding exact rather than
//! approximate, and the test suite enforces both:
//!
//! 1. **Fold/summarize agreement** — folding records one at a time
//!    produces the same numbers as the batch analysis modules
//!    ([`fingerprint`], [`campaigns`], [`bounce`], [`exposure`],
//!    [`writable`], [`ftps`](crate::ftps), [`cve`]) computed over the
//!    whole record set. Every per-record predicate here is a
//!    transcription of the corresponding module's loop body; hosts are
//!    unique per record, so set-cardinality statistics degrade to
//!    counts.
//! 2. **Merge is commutative, associative, and order-insensitive** —
//!    all state is integer sums, `BTreeMap`/`BTreeSet` unions of summed
//!    values, and fixed-order arrays; there is no floating-point
//!    accumulation anywhere. Ratios are computed only at render time.
//!
//! Statistics that are inherently unbounded in the number of *distinct*
//! hosts — unique certificate fingerprints (Table XII), per-AS host
//! tallies (Tables III/VI, Figure 1), and notification digests — are
//! deliberately excluded; the streamed report documents the omission.
//! The maps kept here (device names, file extensions, CVE ids) are
//! bounded by the fingerprint catalog, the generator's file-name
//! vocabulary, and the Table XI rule set, not by world size.

use crate::bounce::{self, BounceSummary};
use crate::campaigns::{self, CampaignClass};
use crate::cve;
use crate::exposure::{self, SensitiveClass, SensitiveRow};
use crate::fingerprint::{self, Classification, DeviceClass};
use crate::funnel::Funnel;
use crate::writable;
use enumerator::{HostRecord, RunSummary};
use ftp_proto::SoftwareFamily;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Table II classification order (render and storage order).
pub const CLASS_ORDER: [Classification; 4] = [
    Classification::Generic,
    Classification::Hosted,
    Classification::Embedded,
    Classification::Unknown,
];

/// Table IV device-class order (render and storage order).
pub const DEVICE_CLASS_ORDER: [DeviceClass; 5] = [
    DeviceClass::Nas,
    DeviceClass::Router,
    DeviceClass::Printer,
    DeviceClass::ProviderCpe,
    DeviceClass::Other,
];

/// §VI campaign order (render and storage order).
pub const CAMPAIGN_ORDER: [CampaignClass; 7] = [
    CampaignClass::Ftpchk3,
    CampaignClass::Rat,
    CampaignClass::Ddos,
    CampaignClass::HolyBible,
    CampaignClass::KeygenFlier,
    CampaignClass::Warez,
    CampaignClass::Ramnit,
];

/// Number of log₂ buckets in the request-count histogram.
pub const REQUEST_BUCKETS: usize = 16;

/// One fingerprinted device's footprint: `(total, anonymous,
/// provider-deployed)`.
pub type DeviceCounts = (u64, u64, bool);

/// Constant-size aggregate of a study, built by folding each host record
/// exactly once. See the module docs for the merge laws.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingAggregate {
    /// Batches folded into this aggregate (bookkeeping only).
    pub batches: u64,
    /// Addresses probed (space minus blocklist), summed over batches.
    pub ips_scanned: u64,
    /// Hosts answering SYN-ACK on TCP/21.
    pub open_port: u64,
    /// Operational enumeration telemetry (all plain sums).
    pub summary: RunSummary,
    /// Table II rows in [`CLASS_ORDER`]: `(all FTP, anonymous)`.
    pub classes: [(u64, u64); 4],
    /// Table IV rows in [`DEVICE_CLASS_ORDER`] (consumer devices only):
    /// `(total, anonymous)`.
    pub device_classes: [(u64, u64); 5],
    /// Tables V and VII: device name → counts. Key space is the
    /// fingerprint catalog, so the map is bounded.
    pub devices: BTreeMap<String, DeviceCounts>,
    /// §VI infected-server counts in [`CAMPAIGN_ORDER`].
    pub campaigns: [u64; 7],
    /// Holy Bible servers seen (denominator of the writable share).
    pub hb_total: u64,
    /// Holy Bible servers that also carry reference-set files.
    pub hb_writable: u64,
    /// §VII-B PORT-validation counters (integer fields only).
    pub bounce: BounceSummary,
    /// §IX: servers accepting `AUTH TLS`.
    pub ftps_supported: u64,
    /// §IX: servers refusing plaintext login pending TLS.
    pub ftps_required: u64,
    /// §IX: certificates collected (not deduplicated — uniqueness is a
    /// whole-world statistic the stream cannot afford).
    pub certs_seen: u64,
    /// §IX: self-signed certificates among those collected.
    pub certs_self_signed: u64,
    /// §VI: FTP hosts that also answered HTTP.
    pub http_both: u64,
    /// §VI: of those, hosts with server-side scripting indicators.
    pub http_scripting: u64,
    /// §VI-A: anonymous servers with reference-set writable evidence.
    pub writable_servers: u64,
    /// §VI-A: distinct origin ASes of those servers (bounded by the
    /// topology's AS count, not by world size).
    pub writable_asns: BTreeSet<u32>,
    /// Table VIII denominator: hosts fingerprinted as SOHO devices.
    pub soho_servers: u64,
    /// Table VIII: extension → `(files, servers)` over SOHO devices.
    /// Key space is the generator's file-name vocabulary.
    pub extensions: BTreeMap<String, (u64, u64)>,
    /// Table IX rows in [`SensitiveClass::ALL`] order.
    pub sensitive: [SensitiveRow; 9],
    /// Table XI: CVE id → vulnerable hosts. Key space is the fixed rule
    /// set.
    pub cves: BTreeMap<String, u64>,
    /// log₂ histogram of control-channel requests per host: bucket 0 is
    /// zero requests, bucket `i` covers `[2^(i-1), 2^i)`, the last
    /// bucket is open-ended.
    pub requests_hist: [u64; REQUEST_BUCKETS],
}

impl StreamingAggregate {
    /// Folds one batch's scan counters.
    pub fn fold_scan(&mut self, ips_scanned: u64, open_port: u64) {
        self.ips_scanned += ips_scanned;
        self.open_port += open_port;
        self.batches += 1;
    }

    /// Folds one enumeration record. `collector_hit` says whether the
    /// bounce collector observed a connection from this host's address
    /// (it counts only for [`bounce::accepted_third_party`] hosts; a
    /// caller that learns it later folds `false` and adds those hits to
    /// `bounce.confirmed` itself); `registry`, when available, resolves
    /// the host's AS for the writable-AS count (mirroring
    /// [`writable::detect`]).
    pub fn fold_record(
        &mut self,
        r: &HostRecord,
        collector_hit: bool,
        registry: Option<&netsim::AsRegistry>,
    ) {
        self.summary.fold(r);
        let anon = r.is_anonymous();

        // §VI-A (writable.rs): anonymous + reference-set evidence.
        let writable_evidence = writable::appears_writable(r);
        if anon && writable_evidence {
            self.writable_servers += 1;
            if let Some(reg) = registry {
                if let Some(asn) = reg.lookup(r.ip) {
                    self.writable_asns.insert(asn.0);
                }
            }
        }

        // §VI-B/C (campaigns.rs): hosts are unique, so per-record
        // increments equal the per-campaign address-set sizes.
        let found = campaigns::campaigns_of(r);
        for (i, c) in CAMPAIGN_ORDER.iter().enumerate() {
            if found.contains(c) {
                self.campaigns[i] += 1;
            }
        }
        if found.contains(&CampaignClass::HolyBible) {
            self.hb_total += 1;
            if writable_evidence {
                self.hb_writable += 1;
            }
        }

        // Request-count histogram.
        let requests = u64::from(r.requests_used);
        let bucket = if requests == 0 { 0 } else { (64 - requests.leading_zeros()) as usize };
        self.requests_hist[bucket.min(REQUEST_BUCKETS - 1)] += 1;

        // Table VIII (exposure.rs): SOHO extension histogram.
        if exposure::is_soho(r) {
            self.soho_servers += 1;
            // Extensions are borrowed straight from the record's file
            // table; only a first-ever-seen extension allocates a key.
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for f in r.files.iter().filter(|f| !f.is_dir) {
                if let Some(ext) = f.extension() {
                    let new_server = seen.insert(ext);
                    match self.extensions.get_mut(ext) {
                        Some(e) => {
                            e.0 += 1;
                            if new_server {
                                e.1 += 1;
                            }
                        }
                        None => {
                            self.extensions.insert(ext.to_owned(), (1, 1));
                        }
                    }
                }
            }
        }

        // Table IX (exposure.rs): sensitive exposure over anonymous hosts.
        if anon {
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for f in r.files.iter().filter(|f| !f.is_dir) {
                if let Some(class) = SensitiveClass::of(f) {
                    let idx = SensitiveClass::ALL
                        .iter()
                        .position(|c| *c == class)
                        .expect("class is in ALL");
                    let row = &mut self.sensitive[idx];
                    row.files += 1;
                    match f.readability {
                        ftp_proto::listing::Readability::Readable => row.readable += 1,
                        ftp_proto::listing::Readability::NonReadable => row.non_readable += 1,
                        ftp_proto::listing::Readability::Unknown => row.unk_readable += 1,
                    }
                    if seen.insert(idx) {
                        row.servers += 1;
                    }
                }
            }
        }

        // §VII-B (bounce.rs): the confirmation join.
        if collector_hit && bounce::accepted_third_party(r) {
            self.bounce.confirmed += 1;
        }

        // Everything below replicates loops that filter on FTP
        // compliance.
        if !r.ftp_compliant {
            return;
        }

        // Table II (fingerprint.rs).
        let class = fingerprint::classify(r);
        let ci = CLASS_ORDER.iter().position(|c| *c == class).expect("class in order");
        self.classes[ci].0 += 1;
        if anon {
            self.classes[ci].1 += 1;
        }

        // Tables IV, V, VII (fingerprint.rs).
        if let Some(fp) = fingerprint::device_of(r) {
            let e = self
                .devices
                .entry(fp.name.to_owned())
                .or_insert((0, 0, fp.provider_deployed));
            e.0 += 1;
            if anon {
                e.1 += 1;
            }
            if !fp.provider_deployed {
                let di = DEVICE_CLASS_ORDER
                    .iter()
                    .position(|c| *c == fp.class)
                    .expect("class in order");
                self.device_classes[di].0 += 1;
                if anon {
                    self.device_classes[di].1 += 1;
                }
            }
        }

        // §VII-B (bounce.rs).
        if r.banner.as_deref().map(|b| {
            ftp_proto::Banner::parse(b).software().family == SoftwareFamily::FileZilla
        }) == Some(true)
        {
            self.bounce.filezilla_total += 1;
        }
        let nated = bounce::is_nated(r);
        if nated {
            self.bounce.nat += 1;
        }
        match r.port_accepts_third_party {
            Some(true) => {
                self.bounce.probed += 1;
                self.bounce.accepted += 1;
                if nated {
                    self.bounce.nat_and_vulnerable += 1;
                }
                if anon && writable_evidence {
                    self.bounce.writable_and_vulnerable += 1;
                }
            }
            Some(false) => self.bounce.probed += 1,
            None => {}
        }

        // §IX (ftps.rs), minus the whole-world uniqueness statistic.
        if r.ftps.supported {
            self.ftps_supported += 1;
        }
        if r.ftps.required_before_login {
            self.ftps_required += 1;
        }
        if let Some(cert) = &r.ftps.cert {
            self.certs_seen += 1;
            if cert.is_self_signed() {
                self.certs_self_signed += 1;
            }
        }

        // Table XI (cve.rs).
        if let Some(b) = &r.banner {
            for id in cve::cves_of_banner(b) {
                *self.cves.entry(id.to_owned()).or_default() += 1;
            }
        }
    }

    /// Folds one HTTP co-service observation (§VI). `scripting` is the
    /// server-side-scripting indicator (`X-Powered-By` present).
    pub fn fold_http(&mut self, scripting: bool) {
        self.http_both += 1;
        if scripting {
            self.http_scripting += 1;
        }
    }

    /// Adds `other` into `self`. Commutative and associative: merging
    /// per-batch or per-shard aggregates in any order or grouping equals
    /// a single fold over all records.
    pub fn merge(&mut self, other: &StreamingAggregate) {
        self.batches += other.batches;
        self.ips_scanned += other.ips_scanned;
        self.open_port += other.open_port;
        self.summary.absorb(&other.summary);
        for (a, b) in self.classes.iter_mut().zip(other.classes.iter()) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in self.device_classes.iter_mut().zip(other.device_classes.iter()) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (name, &(total, anon, provider)) in &other.devices {
            let e = self.devices.entry(name.clone()).or_insert((0, 0, provider));
            e.0 += total;
            e.1 += anon;
        }
        for (a, b) in self.campaigns.iter_mut().zip(other.campaigns.iter()) {
            *a += b;
        }
        self.hb_total += other.hb_total;
        self.hb_writable += other.hb_writable;
        self.bounce.probed += other.bounce.probed;
        self.bounce.accepted += other.bounce.accepted;
        self.bounce.confirmed += other.bounce.confirmed;
        self.bounce.nat += other.bounce.nat;
        self.bounce.nat_and_vulnerable += other.bounce.nat_and_vulnerable;
        self.bounce.writable_and_vulnerable += other.bounce.writable_and_vulnerable;
        self.bounce.filezilla_total += other.bounce.filezilla_total;
        self.ftps_supported += other.ftps_supported;
        self.ftps_required += other.ftps_required;
        self.certs_seen += other.certs_seen;
        self.certs_self_signed += other.certs_self_signed;
        self.http_both += other.http_both;
        self.http_scripting += other.http_scripting;
        self.writable_servers += other.writable_servers;
        self.writable_asns.extend(other.writable_asns.iter().copied());
        self.soho_servers += other.soho_servers;
        for (ext, &(files, servers)) in &other.extensions {
            let e = self.extensions.entry(ext.clone()).or_default();
            e.0 += files;
            e.1 += servers;
        }
        for (mine, theirs) in self.sensitive.iter_mut().zip(other.sensitive.iter()) {
            mine.servers += theirs.servers;
            mine.files += theirs.files;
            mine.readable += theirs.readable;
            mine.non_readable += theirs.non_readable;
            mine.unk_readable += theirs.unk_readable;
        }
        for (id, &n) in &other.cves {
            *self.cves.entry(id.clone()).or_default() += n;
        }
        for (a, b) in self.requests_hist.iter_mut().zip(other.requests_hist.iter()) {
            *a += b;
        }
    }

    /// Table I, derived. FTP/anonymous/give-up counts come from the
    /// enumeration telemetry sums.
    pub fn funnel(&self) -> Funnel {
        Funnel {
            ips_scanned: self.ips_scanned,
            open_port: self.open_port,
            ftp_servers: self.summary.ftp,
            anonymous: self.summary.anonymous,
            gave_up: self.summary.gave_up,
        }
    }

    /// Total FTP servers in Table II (each compliant host lands in
    /// exactly one class).
    pub fn class_total(&self) -> u64 {
        self.classes.iter().map(|&(all, _)| all).sum()
    }

    /// Anonymous FTP servers in Table II.
    pub fn class_total_anon(&self) -> u64 {
        self.classes.iter().map(|&(_, anon)| anon).sum()
    }

    /// Serializes to the versioned line format checkpoints embed. The
    /// output is deterministic (maps iterate sorted) and round-trips
    /// through [`StreamingAggregate::decode`] exactly.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let join = |ns: &[u64]| {
            ns.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(" ")
        };
        out.push_str("agg v1\n");
        out.push_str(&format!("batches {}\n", self.batches));
        out.push_str(&format!("scan {} {}\n", self.ips_scanned, self.open_port));
        let s = &self.summary;
        out.push_str(&format!(
            "summary {}\n",
            join(&[
                s.hosts,
                s.ftp,
                s.anonymous,
                s.server_terminated,
                s.truncated,
                s.aborted,
                s.total_requests,
                s.total_entries,
                s.unparsed_lines,
                s.gave_up,
                s.connect_retries,
                s.step_timeouts,
                s.data_conn_failures,
                s.garbage_lines,
            ])
        ));
        let pairs: Vec<u64> = self.classes.iter().flat_map(|&(a, b)| [a, b]).collect();
        out.push_str(&format!("classes {}\n", join(&pairs)));
        let pairs: Vec<u64> = self.device_classes.iter().flat_map(|&(a, b)| [a, b]).collect();
        out.push_str(&format!("device_classes {}\n", join(&pairs)));
        out.push_str(&format!("campaigns {}\n", join(&self.campaigns)));
        out.push_str(&format!("holy_bible {} {}\n", self.hb_total, self.hb_writable));
        let b = &self.bounce;
        out.push_str(&format!(
            "bounce {}\n",
            join(&[
                b.probed,
                b.accepted,
                b.confirmed,
                b.nat,
                b.nat_and_vulnerable,
                b.writable_and_vulnerable,
                b.filezilla_total,
            ])
        ));
        out.push_str(&format!(
            "ftps {} {} {} {}\n",
            self.ftps_supported, self.ftps_required, self.certs_seen, self.certs_self_signed
        ));
        out.push_str(&format!("http {} {}\n", self.http_both, self.http_scripting));
        out.push_str(&format!("writable {}\n", self.writable_servers));
        let asns: Vec<u64> = self.writable_asns.iter().map(|&a| u64::from(a)).collect();
        out.push_str("writable_asns");
        for a in &asns {
            out.push_str(&format!(" {a}"));
        }
        out.push('\n');
        out.push_str(&format!("soho {}\n", self.soho_servers));
        out.push_str(&format!("requests_hist {}\n", join(&self.requests_hist)));
        let flat: Vec<u64> = self
            .sensitive
            .iter()
            .flat_map(|r| [r.servers, r.files, r.readable, r.non_readable, r.unk_readable])
            .collect();
        out.push_str(&format!("sensitive {}\n", join(&flat)));
        for (name, &(total, anon, provider)) in &self.devices {
            out.push_str(&format!(
                "device {} {} {} {}\n",
                escape(name),
                total,
                anon,
                u64::from(provider)
            ));
        }
        for (ext, &(files, servers)) in &self.extensions {
            out.push_str(&format!("ext {} {} {}\n", escape(ext), files, servers));
        }
        for (id, &n) in &self.cves {
            out.push_str(&format!("cve {} {}\n", escape(id), n));
        }
        out.push_str("end\n");
        out
    }

    /// Parses the [`StreamingAggregate::encode`] format. Errors describe
    /// the offending line; they never panic, so corrupt checkpoints
    /// surface as clean diagnostics.
    pub fn decode(text: &str) -> Result<StreamingAggregate, String> {
        let mut lines = text.lines();
        let mut next = |key: &str| -> Result<Vec<String>, String> {
            let line = lines.next().ok_or_else(|| format!("missing `{key}` line"))?;
            let mut parts = line.split_whitespace();
            let head = parts.next().unwrap_or("");
            if head != key {
                return Err(format!("expected `{key}` line, found `{head}`"));
            }
            Ok(parts.map(str::to_owned).collect())
        };
        let nums = |fields: &[String], key: &str, n: usize| -> Result<Vec<u64>, String> {
            if fields.len() != n {
                return Err(format!("`{key}` needs {n} fields, found {}", fields.len()));
            }
            fields
                .iter()
                .map(|f| f.parse::<u64>().map_err(|_| format!("bad number `{f}` in `{key}`")))
                .collect()
        };

        let version = next("agg")?;
        if version != ["v1"] {
            return Err(format!("unsupported aggregate version {version:?}"));
        }
        let batches = nums(&next("batches")?, "batches", 1)?[0];
        let scan = nums(&next("scan")?, "scan", 2)?;
        let s = nums(&next("summary")?, "summary", 14)?;
        let summary = RunSummary {
            hosts: s[0],
            ftp: s[1],
            anonymous: s[2],
            server_terminated: s[3],
            truncated: s[4],
            aborted: s[5],
            total_requests: s[6],
            total_entries: s[7],
            unparsed_lines: s[8],
            gave_up: s[9],
            connect_retries: s[10],
            step_timeouts: s[11],
            data_conn_failures: s[12],
            garbage_lines: s[13],
        };
        let c = nums(&next("classes")?, "classes", 8)?;
        let mut classes = [(0u64, 0u64); 4];
        for (i, pair) in classes.iter_mut().enumerate() {
            *pair = (c[2 * i], c[2 * i + 1]);
        }
        let d = nums(&next("device_classes")?, "device_classes", 10)?;
        let mut device_classes = [(0u64, 0u64); 5];
        for (i, pair) in device_classes.iter_mut().enumerate() {
            *pair = (d[2 * i], d[2 * i + 1]);
        }
        let camp = nums(&next("campaigns")?, "campaigns", 7)?;
        let mut campaigns = [0u64; 7];
        campaigns.copy_from_slice(&camp);
        let hb = nums(&next("holy_bible")?, "holy_bible", 2)?;
        let b = nums(&next("bounce")?, "bounce", 7)?;
        let bounce = BounceSummary {
            probed: b[0],
            accepted: b[1],
            confirmed: b[2],
            nat: b[3],
            nat_and_vulnerable: b[4],
            writable_and_vulnerable: b[5],
            filezilla_total: b[6],
        };
        let f = nums(&next("ftps")?, "ftps", 4)?;
        let h = nums(&next("http")?, "http", 2)?;
        let writable_servers = nums(&next("writable")?, "writable", 1)?[0];
        let mut writable_asns = BTreeSet::new();
        for field in &next("writable_asns")? {
            let asn: u32 = field
                .parse()
                .map_err(|_| format!("bad ASN `{field}` in `writable_asns`"))?;
            writable_asns.insert(asn);
        }
        let soho_servers = nums(&next("soho")?, "soho", 1)?[0];
        let hist = nums(&next("requests_hist")?, "requests_hist", REQUEST_BUCKETS)?;
        let mut requests_hist = [0u64; REQUEST_BUCKETS];
        requests_hist.copy_from_slice(&hist);
        let sens = nums(&next("sensitive")?, "sensitive", 45)?;
        let mut sensitive: [SensitiveRow; 9] = Default::default();
        for (i, row) in sensitive.iter_mut().enumerate() {
            *row = SensitiveRow {
                servers: sens[5 * i],
                files: sens[5 * i + 1],
                readable: sens[5 * i + 2],
                non_readable: sens[5 * i + 3],
                unk_readable: sens[5 * i + 4],
            };
        }
        let mut agg = StreamingAggregate {
            batches,
            ips_scanned: scan[0],
            open_port: scan[1],
            summary,
            classes,
            device_classes,
            devices: BTreeMap::new(),
            campaigns,
            hb_total: hb[0],
            hb_writable: hb[1],
            bounce,
            ftps_supported: f[0],
            ftps_required: f[1],
            certs_seen: f[2],
            certs_self_signed: f[3],
            http_both: h[0],
            http_scripting: h[1],
            writable_servers,
            writable_asns,
            soho_servers,
            extensions: BTreeMap::new(),
            sensitive,
            cves: BTreeMap::new(),
            requests_hist,
        };
        for line in lines {
            let mut parts = line.split_whitespace();
            let head = parts.next().unwrap_or("");
            let fields: Vec<String> = parts.map(str::to_owned).collect();
            let keyed = |n: usize| -> Result<(String, Vec<u64>), String> {
                if fields.is_empty() {
                    return Err(format!("`{head}` line is missing its key"));
                }
                Ok((unescape(&fields[0])?, nums(&fields[1..], head, n)?))
            };
            match head {
                "device" => {
                    let (name, n) = keyed(3)?;
                    agg.devices.insert(name, (n[0], n[1], n[2] != 0));
                }
                "ext" => {
                    let (name, n) = keyed(2)?;
                    agg.extensions.insert(name, (n[0], n[1]));
                }
                "cve" => {
                    let (id, n) = keyed(1)?;
                    agg.cves.insert(id, n[0]);
                }
                "end" => return Ok(agg),
                other => return Err(format!("unexpected line `{other}`")),
            }
        }
        Err("missing `end` line".to_owned())
    }
}

/// Percent-escapes everything outside `[A-Za-z0-9._-]` so map keys
/// survive the whitespace-delimited line format.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in `{s}`"))?;
            let b = u8::from_str_radix(hex, 16)
                .map_err(|_| format!("bad escape `%{hex}` in `{s}`"))?;
            out.push(b);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escaped key `{s}` is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::files;
    use enumerator::LoginOutcome;
    use ftp_proto::listing::Readability;
    use ftp_proto::HostPort;
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    /// A varied record set exercising every fold branch: devices,
    /// generic daemons with CVEs, hosting, campaigns, writable evidence,
    /// NAT, bounce, FTPS, sensitive files, photo extensions, give-ups.
    fn corpus() -> Vec<HostRecord> {
        let mut records = Vec::new();

        // Anonymous QNAP NAS (SOHO): photos, shadow file, writable
        // reference set, RAT, PORT-accepting, NATed.
        let mut nas = HostRecord::new(Ipv4Addr::new(9, 0, 0, 1));
        nas.ftp_compliant = true;
        nas.login = LoginOutcome::Anonymous;
        nas.banner = Some("QNAP NAS FTP server ready".into());
        nas.requests_used = 37;
        nas.files = files([
            ("/p/DSC_0001.JPG", false, Readability::Readable),
            ("/p/DSC_0002.JPG", false, Readability::Readable),
            ("/etc/shadow", false, Readability::NonReadable),
            ("/up/sjutd.txt", false, Readability::Readable),
            ("/up/shell.php", false, Readability::Readable),
            ("/incoming/150618094301p", true, Readability::Readable),
        ]);
        nas.pasv_addr = Some(HostPort::new(Ipv4Addr::new(192, 168, 0, 9), 50_000));
        nas.port_accepts_third_party = Some(true);
        records.push(nas);

        // Generic ProFTPD 1.3.5 (CVE-2015-3306), FTPS with self-signed
        // cert, probed but refusing PORT.
        let mut generic = HostRecord::new(Ipv4Addr::new(9, 0, 0, 2));
        generic.ftp_compliant = true;
        generic.login = LoginOutcome::Anonymous;
        generic.banner = Some("ProFTPD 1.3.5 Server (Debian)".into());
        generic.requests_used = 5;
        generic.ftps.supported = true;
        generic.ftps.required_before_login = true;
        generic.ftps.cert = Some(simtls::SimCertificate::self_signed("localhost", 7));
        generic.port_accepts_third_party = Some(false);
        generic.files = files([("/w/Holy-Bible.html", false, Readability::Readable)]);
        records.push(generic);

        // FileZilla host, hosting cert, not anonymous.
        let mut hosted = HostRecord::new(Ipv4Addr::new(9, 0, 0, 3));
        hosted.ftp_compliant = true;
        hosted.banner = Some("FileZilla Server version 0.9.41 beta".into());
        hosted.requests_used = 3;
        hosted.ftps.cert = Some(simtls::SimCertificate::browser_trusted(
            "*.home.pl",
            "CA WildWest",
            1,
        ));
        records.push(hosted);

        // Open port but not FTP; the enumerator gave up.
        let mut dead = HostRecord::new(Ipv4Addr::new(9, 0, 0, 4));
        dead.gave_up = Some(enumerator::GaveUpReason::ConnectFailed);
        dead.requests_used = 0;
        records.push(dead);

        records
    }

    fn fold_all(records: &[HostRecord], hits: &HashSet<Ipv4Addr>) -> StreamingAggregate {
        let mut agg = StreamingAggregate::default();
        agg.fold_scan(1000, records.len() as u64);
        for r in records {
            agg.fold_record(r, hits.contains(&r.ip), None);
        }
        agg
    }

    #[test]
    fn fold_matches_batch_analysis_modules() {
        let records = corpus();
        let hits: HashSet<Ipv4Addr> = [Ipv4Addr::new(9, 0, 0, 1)].into_iter().collect();
        let agg = fold_all(&records, &hits);

        // Table I / RunSummary.
        assert_eq!(agg.summary, RunSummary::from_records(&records));
        assert_eq!(
            agg.funnel(),
            Funnel::from_results(1000, records.len() as u64, &records)
        );

        // Table II.
        let cb = fingerprint::class_breakdown(&records);
        for (i, (name, all, anon)) in cb.rows.iter().enumerate() {
            assert_eq!(CLASS_ORDER[i].to_string(), *name);
            assert_eq!(agg.classes[i], (*all, *anon), "{name}");
        }
        assert_eq!(agg.class_total(), cb.total);
        assert_eq!(agg.class_total_anon(), cb.total_anon);

        // Tables V/VII.
        for provider in [false, true] {
            for (name, total, anon) in fingerprint::device_breakdown(&records, provider) {
                assert_eq!(agg.devices[&name], (total, anon, provider), "{name}");
            }
        }

        // §VI campaigns.
        let cs = campaigns::detect(&records);
        for (i, c) in CAMPAIGN_ORDER.iter().enumerate() {
            let expected = cs.servers.get(c).map(|s| s.len() as u64).unwrap_or(0);
            assert_eq!(agg.campaigns[i], expected, "{c:?}");
        }
        assert_eq!(agg.hb_total, 1);
        assert_eq!(agg.hb_writable, 0);

        // §VI-A writable.
        let wr = writable::detect(&records, None);
        assert_eq!(agg.writable_servers, wr.servers.len() as u64);

        // §VII-B bounce.
        assert_eq!(agg.bounce, bounce::summarize(&records, &hits));

        // §IX FTPS (minus uniqueness).
        let fs = crate::ftps::summarize(&records);
        assert_eq!(agg.ftps_supported, fs.ftps_supported);
        assert_eq!(agg.ftps_required, fs.required_before_login);
        assert_eq!(agg.certs_seen, fs.certs_seen);
        assert_eq!(agg.certs_self_signed, 1);

        // Table VIII.
        let rows = exposure::extension_histogram(&records, exposure::is_soho);
        for row in &rows {
            assert_eq!(
                agg.extensions[&row.extension],
                (row.files, row.servers),
                "{}",
                row.extension
            );
        }
        assert_eq!(agg.extensions.len(), rows.len());
        assert_eq!(agg.soho_servers, 1);

        // Table IX.
        let sens = exposure::sensitive_exposure(&records);
        for (i, class) in SensitiveClass::ALL.iter().enumerate() {
            let expected = sens.get(class).cloned().unwrap_or_default();
            assert_eq!(agg.sensitive[i], expected, "{class:?}");
        }

        // Table XI.
        for (rule, n) in cve::table(&records) {
            assert_eq!(agg.cves.get(rule.id).copied().unwrap_or(0), n, "{}", rule.id);
        }

        // Histogram: 37 requests → bucket 6, 5 → 3, 3 → 2, 0 → 0.
        assert_eq!(agg.requests_hist[6], 1);
        assert_eq!(agg.requests_hist[3], 1);
        assert_eq!(agg.requests_hist[2], 1);
        assert_eq!(agg.requests_hist[0], 1);
    }

    #[test]
    fn merge_of_partitions_equals_whole_in_any_order() {
        let records = corpus();
        let hits: HashSet<Ipv4Addr> = [Ipv4Addr::new(9, 0, 0, 1)].into_iter().collect();
        let whole = fold_all(&records, &hits);

        let parts: Vec<StreamingAggregate> = records
            .chunks(1)
            .map(|chunk| {
                let mut a = StreamingAggregate::default();
                a.fold_scan(250, chunk.len() as u64);
                for r in chunk {
                    a.fold_record(r, hits.contains(&r.ip), None);
                }
                a
            })
            .collect();

        // Forward order.
        let mut fwd = StreamingAggregate::default();
        for p in &parts {
            fwd.merge(p);
        }
        // Reverse order, grouped differently.
        let mut pair_a = StreamingAggregate::default();
        pair_a.merge(&parts[3]);
        pair_a.merge(&parts[2]);
        let mut pair_b = StreamingAggregate::default();
        pair_b.merge(&parts[1]);
        pair_b.merge(&parts[0]);
        let mut rev = StreamingAggregate::default();
        rev.merge(&pair_a);
        rev.merge(&pair_b);

        // `batches` is bookkeeping: the whole fold saw one scan batch,
        // the partitioned folds saw four. Everything measured must agree.
        assert_eq!(fwd.batches, 4);
        assert_eq!(fwd, rev);
        fwd.batches = whole.batches;
        assert_eq!(fwd, whole);
    }

    #[test]
    fn encode_decode_round_trips() {
        let records = corpus();
        let hits: HashSet<Ipv4Addr> = [Ipv4Addr::new(9, 0, 0, 1)].into_iter().collect();
        let mut agg = fold_all(&records, &hits);
        agg.fold_http(true);
        agg.fold_http(false);
        agg.writable_asns.insert(64501);
        agg.writable_asns.insert(64500);

        let text = agg.encode();
        let back = StreamingAggregate::decode(&text).expect("round trip");
        assert_eq!(back, agg);
        // Device names contain spaces and survive escaping.
        assert!(back.devices.contains_key("QNAP Turbo NAS"));
        // Deterministic: re-encoding is byte-identical.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn decode_rejects_corruption_without_panicking() {
        let agg = fold_all(&corpus(), &HashSet::new());
        let text = agg.encode();

        assert!(StreamingAggregate::decode("").is_err());
        assert!(StreamingAggregate::decode("agg v99\n").is_err());
        // Truncate mid-stream: drop the trailing `end` line.
        let truncated = text.trim_end_matches("end\n");
        assert!(StreamingAggregate::decode(truncated).is_err());
        // Corrupt a number.
        let corrupt = text.replacen("scan 1000", "scan banana", 1);
        let err = StreamingAggregate::decode(&corrupt).unwrap_err();
        assert!(err.contains("banana"), "{err}");
        // Unknown trailing line.
        let extra = text.replace("end\n", "mystery 1\nend\n");
        assert!(StreamingAggregate::decode(&extra).is_err());
    }

    #[test]
    fn escape_round_trips_awkward_keys() {
        for key in ["QNAP Turbo NAS", "a%b c", "\"priv\" .pem files", "plain"] {
            assert_eq!(unescape(&escape(key)).unwrap(), key);
            assert!(!escape(key).contains(' '));
        }
        assert!(unescape("bad%zz").is_err());
        assert!(unescape("trunc%4").is_err());
    }
}
