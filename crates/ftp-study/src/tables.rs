//! Renders every table and figure of the paper from measured results.
//!
//! Each section has exactly one renderer. The sections both reports
//! print — Tables I, II, IV, V, VII, VIII, IX and XI, §VI, §VII-B and
//! §IX — render from a [`StreamingAggregate`] (Table I from its
//! [`Funnel`]). [`full_report`] folds its records once with
//! [`aggregate_of`] and calls the same functions [`stream_report`]
//! calls. The sections that need whole-world state (Tables III, VI, X,
//! XII and XIII, Figure 1, §X and §III-A) read the records and print
//! only in the in-memory report.

use crate::stream::aggregate_of;
use crate::study::StudyResults;
use analysis::ases::{self, AsTally};
use analysis::report::{pct, thousands, Table};
use analysis::stream::{CAMPAIGN_ORDER, CLASS_ORDER, DEVICE_CLASS_ORDER, REQUEST_BUCKETS};
use analysis::{campaigns, cve, exposure, ftps, writable, Funnel, StreamingAggregate};
use netsim::{AsKind, AsRegistry, Asn};
use std::collections::HashMap;
use worldgen::PopulationSpec;

/// Table I: the discovery funnel.
pub fn table01_funnel(f: &Funnel) -> String {
    let mut t = Table::new("TABLE I. GENERAL METRICS FROM FTP ENUMERATION");
    t.row(["IPs scanned", &thousands(f.ips_scanned), ""]);
    t.row(["Open port 21", &thousands(f.open_port), &pct(f.open_port, f.ips_scanned)]);
    t.row(["FTP servers", &thousands(f.ftp_servers), &pct(f.ftp_servers, f.open_port)]);
    t.row([
        "Anonymous FTP servers",
        &thousands(f.anonymous),
        &pct(f.anonymous, f.ftp_servers),
    ]);
    t.row(["Gave up (hostile/dead)", &thousands(f.gave_up), &pct(f.gave_up, f.open_port)]);
    t.row(["Funnel invariants", &funnel_invariants_cell(f), ""]);
    t.render()
}

/// Renders the funnel's monotonicity self-check for Table I: "ok" when
/// every stage is consistent, else the violated invariants.
fn funnel_invariants_cell(f: &Funnel) -> String {
    let violations = f.invariant_violations();
    if violations.is_empty() {
        "ok".to_owned()
    } else {
        format!("VIOLATED: {}", violations.join("; "))
    }
}

/// Table II: server classification.
pub fn table02_classes(agg: &StreamingAggregate) -> String {
    let total = agg.class_total();
    let total_anon = agg.class_total_anon();
    let mut t = Table::new("TABLE II. BREAKOUT OF SERVERS IN EACH CATEGORY")
        .headers(["Server Classification", "All FTP Servers", "Anonymous FTP Servers"]);
    for (class, &(all, anon)) in CLASS_ORDER.iter().zip(agg.classes.iter()) {
        t.row([
            class.to_string(),
            format!("{} {}", thousands(all), pct(all, total)),
            format!("{} {}", thousands(anon), pct(anon, total_anon)),
        ]);
    }
    t.render()
}

/// Per-AS tallies behind Tables III and VI and Figure 1, with the
/// writable column filled from one reference-set detection.
pub fn as_tallies(r: &StudyResults) -> HashMap<Asn, AsTally> {
    let writable = writable::detect(&r.records, None);
    ases::tally_by_as(&r.records, &r.truth.registry, &writable.servers)
}

/// Table III: ASes accounting for 50% of each FTP type.
pub fn table03_as50(tallies: &HashMap<Asn, AsTally>, registry: &AsRegistry) -> String {
    let mut t = Table::new("TABLE III. ASES ACCOUNTING FOR 50% OF ALL FTP TYPES")
        .headers(["AS Type", "All FTP", "Anonymous FTP"]);
    let all_mix = ases::kind_mix_of_top(tallies, registry, |t| t.ftp);
    let anon_mix = ases::kind_mix_of_top(tallies, registry, |t| t.anonymous);
    for kind in [AsKind::Hosting, AsKind::Isp, AsKind::Academic, AsKind::Other] {
        t.row([
            kind.to_string(),
            all_mix.get(&kind).copied().unwrap_or(0).to_string(),
            anon_mix.get(&kind).copied().unwrap_or(0).to_string(),
        ]);
    }
    let n_all = ases::ases_covering(tallies, |t| t.ftp, 0.5);
    let n_anon = ases::ases_covering(tallies, |t| t.anonymous, 0.5);
    t.row(["(total ASes at 50%)", &n_all.to_string(), &n_anon.to_string()]);
    t.render()
}

/// Sorts `(name, total, anonymous)` device rows by total descending,
/// then name ascending, with zero rows dropped.
fn device_rows(rows: Vec<(String, u64, u64)>) -> Vec<(String, u64, u64)> {
    let mut rows: Vec<_> = rows.into_iter().filter(|&(_, total, _)| total > 0).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// Table IV: classes of embedded devices.
pub fn table04_device_classes(agg: &StreamingAggregate) -> String {
    let rows = device_rows(
        DEVICE_CLASS_ORDER
            .iter()
            .zip(agg.device_classes.iter())
            .map(|(class, &(total, anon))| (class.to_string(), total, anon))
            .collect(),
    );
    let mut t = Table::new("TABLE IV. CLASSES OF EMBEDDED DEVICES")
        .headers(["Device Type", "All FTP", "Anonymous FTP"]);
    for (class, total, anon) in rows {
        t.row([class, thousands(total), thousands(anon)]);
    }
    t.render()
}

/// Tables V and VII: the provider-deployed or the standalone devices.
fn devices_table(agg: &StreamingAggregate, provider: bool, caption: &str) -> String {
    let rows = device_rows(
        agg.devices
            .iter()
            .filter(|&(_, &(_, _, p))| p == provider)
            .map(|(name, &(total, anon, _))| (name.clone(), total, anon))
            .collect(),
    );
    let mut t = Table::new(caption).headers(["Device", "# Found", "# Anonymous"]);
    for (name, found, anon) in rows {
        t.row([name, thousands(found), format!("{} {}", thousands(anon), pct(anon, found))]);
    }
    t.render()
}

/// Table V: provider-deployed devices.
pub fn table05_provider_devices(agg: &StreamingAggregate) -> String {
    devices_table(agg, true, "TABLE V. COMMON PROVIDER DEPLOYED DEVICES")
}

/// Table VI: top ASes by anonymous-server count.
pub fn table06_top_ases(tallies: &HashMap<Asn, AsTally>, registry: &AsRegistry) -> String {
    let mut t = Table::new("TABLE VI. TOP 10 ASES BY NUMBER OF ANONYMOUS FTP SERVERS")
        .headers(["AS", "IPs advertised", "FTP servers", "Anonymous FTP servers"]);
    for row in ases::top_ases_by_anonymous(tallies, registry, 10) {
        t.row([
            format!("AS{} {}", row.asn, row.name),
            format!("{} ", thousands(row.advertised)),
            format!("{} {}", thousands(row.ftp), pct(row.ftp, row.advertised)),
            format!("{} {}", thousands(row.anonymous), pct(row.anonymous, row.ftp)),
        ]);
    }
    t.render()
}

/// Table VII: standalone embedded devices.
pub fn table07_consumer_devices(agg: &StreamingAggregate) -> String {
    devices_table(
        agg,
        false,
        "TABLE VII. SAMPLE OF EMBEDDED SERVER DEVICES THAT ARE DEPLOYED AS STANDALONE",
    )
}

/// Table VIII: most common file extensions across SOHO devices.
pub fn table08_extensions(agg: &StreamingAggregate) -> String {
    let mut rows: Vec<(&String, u64, u64)> =
        agg.extensions.iter().map(|(e, &(files, servers))| (e, files, servers)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut t = Table::new("TABLE VIII. MOST COMMON FILE EXTENSIONS ACROSS KNOWN SOHO DEVICES")
        .headers(["Extension", "# Files", "# Servers"]);
    for (ext, files, servers) in rows.into_iter().take(10) {
        t.row([
            format!(".{ext}"),
            thousands(files),
            format!("{} {}", thousands(servers), pct(servers, agg.soho_servers)),
        ]);
    }
    t.render()
}

/// Table IX: sensitive exposure with readability splits.
pub fn table09_sensitive(agg: &StreamingAggregate) -> String {
    let mut t = Table::new("TABLE IX. EXAMPLES OF SENSITIVE EXPOSURE VIA ANONYMOUS FTP").headers([
        "File",
        "# Servers",
        "# Files",
        "# Readable",
        "# Non-readable",
        "# Unk-readable",
    ]);
    for (class, row) in exposure::SensitiveClass::ALL.iter().zip(agg.sensitive.iter()) {
        t.row([
            class.label().to_owned(),
            thousands(row.servers),
            thousands(row.files),
            thousands(row.readable),
            thousands(row.non_readable),
            thousands(row.unk_readable),
        ]);
    }
    t.render()
}

/// Table X: device breakout for each exposure class.
pub fn table10_breakout(r: &StudyResults) -> String {
    let out = exposure::device_breakout(&r.records);
    let buckets =
        ["Embedded NAS", "Embedded Router", "Embedded Other", "Generic", "Hosting", "Unknown"];
    let mut t = Table::new("TABLE X. BREAKOUT OF DEVICES EXPOSING USER INFORMATION").headers(
        std::iter::once("Type of Exposure".to_owned())
            .chain(buckets.iter().map(|b| b.to_string())),
    );
    for (class, label) in [
        (exposure::ExposureClass::SensitiveDocuments, "Sensitive Documents"),
        (exposure::ExposureClass::PhotoLibrary, "Photo Libraries"),
        (exposure::ExposureClass::RootFilesystem, "Root File Systems"),
        (exposure::ExposureClass::ScriptingSource, "Scripting Source"),
    ] {
        let counts = out.get(&class);
        let total: u64 = counts.map(|m| m.values().sum()).unwrap_or(0);
        let mut cells = vec![label.to_owned()];
        for b in buckets {
            let n = counts.and_then(|m| m.get(b)).copied().unwrap_or(0);
            cells.push(pct(n, total));
        }
        t.row(cells);
    }
    t.render()
}

/// Table XI: CVE exposure from banner versions.
pub fn table11_cves(agg: &StreamingAggregate) -> String {
    let mut t = Table::new("TABLE XI. NUMBER OF SERVERS VULNERABLE TO CVES").headers([
        "Implementation",
        "Vulnerability",
        "CVSS Score",
        "Number IPs",
    ]);
    for (rule, _, _) in cve::rules() {
        let count = agg.cves.get(rule.id).copied().unwrap_or(0);
        t.row([
            rule.family_name.to_owned(),
            rule.id.to_owned(),
            format!("{:.1}", rule.cvss),
            thousands(count),
        ]);
    }
    t.render()
}

/// Table XII: most common FTPS certificates.
pub fn table12_certs(r: &StudyResults) -> String {
    let mut t = Table::new("TABLE XII. TOP 10 MOST COMMON FTPS CERTIFICATES").headers([
        "Certificate CN",
        "# Servers",
        "Browser-trusted?",
    ]);
    for row in ftps::top_certs(&r.records, 10) {
        t.row([
            row.subject_cn,
            thousands(row.servers),
            if row.trusted { "Yes".to_owned() } else { "No – self-signed".to_owned() },
        ]);
    }
    t.render()
}

/// Table XIII: devices sharing built-in FTPS certificates.
pub fn table13_device_certs(r: &StudyResults) -> String {
    let mut t = Table::new("TABLE XIII. DEVICES THAT SHARE FTPS CERTIFICATES")
        .headers(["Device", "# Found"]);
    for (name, count) in ftps::shared_device_certs(&r.records, 2) {
        t.row([name, thousands(count)]);
    }
    t.render()
}

/// Figure 1's CDF series: all, anonymous and writable FTP servers.
fn fig01_series(tallies: &HashMap<Asn, AsTally>) -> [Vec<(usize, f64)>; 3] {
    [
        ases::cdf_series(tallies, |t| t.ftp),
        ases::cdf_series(tallies, |t| t.anonymous),
        ases::cdf_series(tallies, |t| t.writable),
    ]
}

/// The share of servers the largest `n` ASes hold in one CDF series
/// (1 past the series' end).
fn cdf_at(series: &[(usize, f64)], n: usize) -> f64 {
    series.iter().take_while(|&&(i, _)| i <= n).last().map(|&(_, f)| f).unwrap_or(1.0)
}

/// Figure 1 as CSV (`ases,all,anonymous,writable` series) for plotting.
pub fn fig01_cdf_csv(tallies: &HashMap<Asn, AsTally>) -> String {
    let series = fig01_series(tallies);
    let max_n = series.iter().map(Vec::len).max().unwrap_or(0).max(1);
    let mut out = String::from("ases,all_ftp,anonymous_ftp,writable_ftp\n");
    for n in 1..=max_n {
        let [all, anon, writable] = series.each_ref().map(|s| cdf_at(s, n));
        out.push_str(&format!("{n},{all:.6},{anon:.6},{writable:.6}\n"));
    }
    out
}

/// Figure 1: the AS CDF, as a text table of sample points.
pub fn fig01_cdf(tallies: &HashMap<Asn, AsTally>) -> String {
    let series = fig01_series(tallies);
    let mut t = Table::new("FIGURE 1. CDF OF FTP SERVERS BY AS (sampled points)").headers([
        "# ASes",
        "All FTP",
        "Anonymous FTP",
        "Writable FTP",
    ]);
    for n in [1usize, 2, 5, 10, 20, 50, 100, 200, 500] {
        let [all, anon, writable] = series.each_ref().map(|s| format!("{:.3}", cdf_at(s, n)));
        t.row([n.to_string(), all, anon, writable]);
    }
    t.render()
}

/// §VI summaries: writability, campaigns, and the HTTP overlap.
pub fn section6_malice(agg: &StreamingAggregate) -> String {
    let mut t = Table::new("SECTION VI. MALICIOUS USE (measured)").headers(["Metric", "Value"]);
    t.row([
        "World-writable servers (reference set)".to_owned(),
        format!("{} in {} ASes", thousands(agg.writable_servers), agg.writable_asns.len()),
    ]);
    for (class, &count) in CAMPAIGN_ORDER.iter().zip(agg.campaigns.iter()) {
        let label = match class {
            campaigns::CampaignClass::Ftpchk3 => "ftpchk3 campaign servers",
            campaigns::CampaignClass::Rat => "RAT servers (reference-set sourced)",
            campaigns::CampaignClass::Ddos => "UDP DDoS script servers",
            campaigns::CampaignClass::HolyBible => "Holy Bible SEO servers",
            campaigns::CampaignClass::KeygenFlier => "Keygen-flier servers",
            campaigns::CampaignClass::Warez => "WaReZ transport servers",
            campaigns::CampaignClass::Ramnit => "Ramnit-banner servers",
        };
        let value = if *class == campaigns::CampaignClass::HolyBible {
            let share = if agg.hb_total == 0 {
                0.0
            } else {
                agg.hb_writable as f64 / agg.hb_total as f64
            };
            format!("{} ({:.2}% also writable)", thousands(count), share * 100.0)
        } else {
            thousands(count)
        };
        t.row([label.to_owned(), value]);
    }
    let ftp_total = agg.summary.ftp;
    t.row([
        "FTP hosts also serving HTTP".to_owned(),
        format!("{} {}", thousands(agg.http_both), pct(agg.http_both, ftp_total)),
    ]);
    t.row([
        "FTP hosts with server-side scripting".to_owned(),
        format!("{} {}", thousands(agg.http_scripting), pct(agg.http_scripting, ftp_total)),
    ]);
    t.render()
}

/// §VII-B: PORT validation summary.
pub fn section7_bounce(agg: &StreamingAggregate) -> String {
    let s = &agg.bounce;
    let mut t = Table::new("SECTION VII-B. PORT BOUNCING (measured)").headers(["Metric", "Value"]);
    t.row([
        "Anonymous servers failing PORT validation".to_owned(),
        format!("{} ({:.2}% of probed)", thousands(s.accepted), s.acceptance_rate() * 100.0),
    ]);
    t.row(["…confirmed at collector".to_owned(), thousands(s.confirmed)]);
    t.row(["Servers behind NAT".to_owned(), thousands(s.nat)]);
    t.row(["NAT + invalid PORT".to_owned(), thousands(s.nat_and_vulnerable)]);
    t.row(["Writable + invalid PORT".to_owned(), thousands(s.writable_and_vulnerable)]);
    t.row(["FileZilla servers observed".to_owned(), thousands(s.filezilla_total)]);
    t.render()
}

/// §IX: FTPS summary. `unique_certs` is the number of distinct
/// certificates collected, a whole-world statistic only the in-memory
/// run has; without it the row reports the collected count alone.
pub fn section9_ftps(agg: &StreamingAggregate, unique_certs: Option<u64>) -> String {
    let mut t = Table::new("SECTION IX. FTPS IMPACT (measured)").headers(["Metric", "Value"]);
    t.row([
        "FTP servers supporting FTPS".to_owned(),
        format!("{} {}", thousands(agg.ftps_supported), pct(agg.ftps_supported, agg.summary.ftp)),
    ]);
    t.row(["FTPS required before login".to_owned(), thousands(agg.ftps_required)]);
    t.row(match unique_certs {
        Some(unique) => [
            "Unique certificates".to_owned(),
            format!("{} of {} collected", thousands(unique), thousands(agg.certs_seen)),
        ],
        None => [
            "Certificates collected".to_owned(),
            format!("{} (uniqueness not tracked in streamed mode)", thousands(agg.certs_seen)),
        ],
    });
    let self_signed_share = if agg.certs_seen == 0 {
        0.0
    } else {
        agg.certs_self_signed as f64 / agg.certs_seen as f64
    };
    t.row([
        "Self-signed certificates".to_owned(),
        format!("{:.1}%", self_signed_share * 100.0),
    ]);
    t.render()
}

/// §X's proposed CyberUL certification, run fleet-wide.
pub fn section10_cyberul(r: &StudyResults) -> String {
    let (rate, failing) = analysis::cyberul::fleet_summary(&r.records);
    let mut t = Table::new("SECTION X. CYBERUL CERTIFICATION (proposed remedy, measured)")
        .headers(["Metric", "Value"]);
    t.row(["Fleet certification pass rate".to_owned(), format!("{:.1}%", rate * 100.0)]);
    for (check, count) in failing.into_iter().take(6) {
        t.row([format!("blocking finding: {check}"), thousands(count)]);
    }
    t.render()
}

/// §III-A's notification queue, summarized.
pub fn section3_notifications(r: &StudyResults) -> String {
    let digests = analysis::notify::build_digests(&r.records, &r.truth.registry);
    let mut t = Table::new("SECTION III-A. RESPONSIBLE-DISCLOSURE QUEUE (measured)")
        .headers(["Network", "Findings"]);
    for d in digests.iter().take(10) {
        t.row([
            format!("AS{} {}", d.asn, d.organization),
            thousands(d.total_findings()),
        ]);
    }
    t.row(["(total networks to notify)".to_owned(), thousands(digests.len() as u64)]);
    t.render()
}

/// Label for one log₂ request-histogram bucket.
fn hist_label(i: usize) -> String {
    match i {
        0 => "0".to_owned(),
        1 => "1".to_owned(),
        i if i == REQUEST_BUCKETS - 1 => format!("{}+", 1u64 << (i - 1)),
        i => format!("{}–{}", 1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// The request-depth histogram the streamed report prints.
fn requests_histogram(agg: &StreamingAggregate) -> String {
    let mut t = Table::new("ENUMERATION REQUESTS PER HOST (log2 buckets)")
        .headers(["Requests", "# Hosts"]);
    for (i, &n) in agg.requests_hist.iter().enumerate() {
        if n > 0 {
            t.row([hist_label(i), thousands(n)]);
        }
    }
    t.render()
}

/// The operational telemetry the streamed report prints.
fn telemetry(agg: &StreamingAggregate) -> String {
    let sm = &agg.summary;
    let mut t = Table::new("ENUMERATION TELEMETRY (measured)").headers(["Metric", "Value"]);
    t.row(["Hosts contacted".to_owned(), thousands(sm.hosts)]);
    t.row(["Sessions aborted".to_owned(), thousands(sm.aborted)]);
    t.row(["Server-terminated sessions".to_owned(), thousands(sm.server_terminated)]);
    t.row(["Request-cap truncations".to_owned(), thousands(sm.truncated)]);
    t.row(["Connect retries".to_owned(), thousands(sm.connect_retries)]);
    t.row(["Step timeouts".to_owned(), thousands(sm.step_timeouts)]);
    t.row(["Data-channel failures".to_owned(), thousands(sm.data_conn_failures)]);
    t.row(["Garbage control lines".to_owned(), thousands(sm.garbage_lines)]);
    t.row(["Mean requests per host".to_owned(), format!("{:.2}", sm.mean_requests())]);
    t.render()
}

/// A report: the title and the scale/boost header, then every section
/// followed by a blank line.
fn render_report(
    title: &str,
    spec: &PopulationSpec,
    sections: impl IntoIterator<Item = String>,
) -> String {
    let scale = spec.scale;
    let boost = spec.rare_boost;
    let mut out = format!(
        "{title}\n\
         population scale 1:{scale} (multiply counts by {scale} for paper scale);\n\
         rare-phenomenon boost {boost:.0}x (divide rare counts by {boost:.0} first)\n\n"
    );
    for section in sections {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

/// The complete paper reproduction report.
pub fn full_report(r: &StudyResults) -> String {
    let agg = aggregate_of(r);
    let tallies = as_tallies(r);
    let registry = &r.truth.registry;
    let unique_certs = ftps::summarize(&r.records).unique_certs;
    render_report(
        "FTP: THE FORGOTTEN CLOUD — reproduction run",
        &r.truth.spec,
        [
            // Equal to `agg.funnel()`, and also reports a broken funnel
            // on the diagnostics channel.
            table01_funnel(&r.funnel()),
            table02_classes(&agg),
            table03_as50(&tallies, registry),
            table04_device_classes(&agg),
            table05_provider_devices(&agg),
            table06_top_ases(&tallies, registry),
            table07_consumer_devices(&agg),
            table08_extensions(&agg),
            table09_sensitive(&agg),
            table10_breakout(r),
            table11_cves(&agg),
            table12_certs(r),
            table13_device_certs(r),
            fig01_cdf(&tallies),
            section6_malice(&agg),
            section7_bounce(&agg),
            section9_ftps(&agg, Some(unique_certs)),
            section10_cyberul(r),
            section3_notifications(r),
        ],
    )
}

/// The streamed-mode study report, rendered purely from the
/// bounded-memory [`StreamingAggregate`] (plus the population spec for
/// the scale/boost header).
///
/// Deliberately a function of the aggregate's *measured* fields only —
/// never of the shard/batch geometry or the `batches` bookkeeping
/// counter — so a streamed run, a resumed run, and an in-memory run
/// folded through [`aggregate_of`] all render byte-identical text.
/// Sections that need whole-world state are listed as omitted at the
/// end.
pub fn stream_report(agg: &StreamingAggregate, spec: &PopulationSpec) -> String {
    let mut out = render_report(
        "FTP: THE FORGOTTEN CLOUD — reproduction run (streamed)",
        spec,
        [
            table01_funnel(&agg.funnel()),
            table02_classes(agg),
            table04_device_classes(agg),
            table05_provider_devices(agg),
            table07_consumer_devices(agg),
            table08_extensions(agg),
            table09_sensitive(agg),
            table11_cves(agg),
            requests_histogram(agg),
            section6_malice(agg),
            section7_bounce(agg),
            section9_ftps(agg, None),
            telemetry(agg),
        ],
    );
    out.push_str(
        "Omitted in streamed mode (state unbounded in world size): Table III and Table VI \
         (per-AS tallies), Figure 1 (AS CDF), Table X (exposure × device cross-product), \
         Table XII and Table XIII (certificate deduplication), §X CyberUL fleet audit, \
         §III-A notification queue. Run without --batch-size for the full report.\n",
    );
    out
}
