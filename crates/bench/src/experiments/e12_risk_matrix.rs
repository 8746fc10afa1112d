//! E12 — the headline comparison (§1/§7): overt vs stealthy measurement
//! risk under identical surveillance.
//!
//! For each method, run its natural censorship scenario and report both
//! axes: accuracy (verdict vs ground truth) and risk (alerts, attribution,
//! pursuit, anonymity set). The expected shape: the overt baseline detects
//! censorship *and* gets attributed; every §3/§4 technique detects the
//! same censorship while evading.
//!
//! Each row is one campaign cell — a thin `CampaignSpec` (method ×
//! policy) driven by the campaign engine, which owns the warm-up phases,
//! spoofed cover, and risk scoring that used to be hand-wired here.
//!
//! A final ablation shows the paper's admitted limitation (§3.2.1): a
//! surveillance operator willing to write bespoke fingerprinting rules and
//! spend pre-MVR analysis can re-identify the scanning measurement.

use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy, TrialResult};
use underradar_censor::CensorPolicy;
use underradar_core::methods::scan::SynScanProbe;
use underradar_core::ports::top_ports;
use underradar_core::probe::Probe;
use underradar_core::risk::RiskReport;
use underradar_core::testbed::{TargetSite, Testbed, TestbedConfig};
use underradar_netsim::addr::Cidr;
use underradar_netsim::time::SimTime;
use underradar_protocols::dns::DnsName;

use crate::experiments::campaign::run_campaign;
use crate::experiments::{Claims, Outcome};
use crate::table::{heading, mark, Table};

struct Row {
    method: &'static str,
    scenario: &'static str,
    trial: TrialResult,
}

fn blocked(domain: &str) -> CensorPolicy {
    CensorPolicy::new().block_domain(&DnsName::parse(domain).expect("n"))
}

/// Run a one-cell campaign and return the trial at `pick`.
fn cell(tel: &underradar_telemetry::Telemetry, spec: CampaignSpec, pick: usize) -> TrialResult {
    run_campaign(&spec, 1, tel).1.swap_remove(pick)
}

fn overt_row(tel: &underradar_telemetry::Telemetry) -> Row {
    let spec = CampaignSpec::new("e12-overt", 1)
        .target("twitter.com")
        .method(MethodKind::Overt)
        .policy(NamedPolicy::new("dns-block", blocked("twitter.com")))
        .run_secs(20);
    Row {
        method: "overt (OONI-style baseline)",
        scenario: "dns-block",
        trial: cell(tel, spec, 0),
    }
}

fn scan_row(tel: &underradar_telemetry::Telemetry) -> Row {
    let target = TargetSite::numbered("twitter.com", 0).web_ip;
    let spec = CampaignSpec::new("e12-scan", 1)
        .target("twitter.com")
        .method(MethodKind::Scan)
        .policy(NamedPolicy::new(
            "ip-blackhole",
            CensorPolicy::new().block_ip(Cidr::host(target)),
        ))
        .run_secs(30);
    Row {
        method: "scan (Method #1)",
        scenario: "ip-blackhole",
        trial: cell(tel, spec, 0),
    }
}

fn spam_row(tel: &underradar_telemetry::Telemetry) -> Row {
    // Extra targets exist so the engine's warm-up phase can earn the
    // spammer label against them; the measured cell is twitter (index 0).
    let spec = CampaignSpec::new("e12-spam", 1)
        .targets(["twitter.com", "bbc.com", "example.org", "youtube.com"])
        .method(MethodKind::Spam)
        .policy(NamedPolicy::new("dns-block", blocked("twitter.com")))
        .run_secs(40);
    Row {
        method: "spam campaign (Method #2)",
        scenario: "dns-block",
        trial: cell(tel, spec, 0),
    }
}

fn ddos_row(tel: &underradar_telemetry::Telemetry) -> Row {
    let spec = CampaignSpec::new("e12-ddos", 1)
        .target("youtube.com")
        .method(MethodKind::Ddos)
        .policy(
            NamedPolicy::new("keyword-rst", CensorPolicy::new().block_keyword("falun"))
                .with_probe_path("/falun-clip"),
        )
        .run_secs(180);
    Row {
        method: "ddos burst (Method #3)",
        scenario: "keyword-rst",
        trial: cell(tel, spec, 0),
    }
}

fn stateless_row(tel: &underradar_telemetry::Telemetry) -> Row {
    let spec = CampaignSpec::new("e12-stateless", 1)
        .target("twitter.com")
        .method(MethodKind::StatelessDns)
        .policy(NamedPolicy::new("dns-block", blocked("twitter.com")))
        .cover_hosts(8)
        .spoofed_cover(16)
        .run_secs(10);
    Row {
        method: "stateless mimicry (Fig 3a)",
        scenario: "dns-block",
        trial: cell(tel, spec, 0),
    }
}

fn stateful_row(tel: &underradar_telemetry::Telemetry) -> Row {
    let spec = CampaignSpec::new("e12-stateful", 12)
        .target("twitter.com")
        .method(MethodKind::Stateful)
        .policy(
            NamedPolicy::new("keyword-rst", CensorPolicy::new().block_keyword("falun"))
                .with_probe_path("/falun"),
        )
        .run_secs(10);
    Row {
        method: "stateful mimicry (Fig 3b)",
        scenario: "keyword-rst",
        trial: cell(tel, spec, 0),
    }
}

/// Run E12 and render its report, recording per-method telemetry into
/// `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E12",
        "headline result (§1/§7)",
        "stealthy techniques match the overt baseline's accuracy without its risk",
    );
    let rows = vec![
        overt_row(tel),
        scan_row(tel),
        spam_row(tel),
        ddos_row(tel),
        stateless_row(tel),
        stateful_row(tel),
    ];
    let mut table = Table::new(&[
        "method",
        "scenario",
        "correct",
        "evades",
        "attributed",
        "pursued",
        "anon set",
    ]);
    let mut claims = Claims::default();
    for row in &rows {
        let t = &row.trial;
        table.row(&[
            row.method.to_string(),
            row.scenario.to_string(),
            mark(t.verdict_correct).to_string(),
            mark(t.evaded).to_string(),
            mark(t.attributed).to_string(),
            mark(t.pursued).to_string(),
            t.anonymity_set.map_or("-".to_string(), |n| n.to_string()),
        ]);
        claims.check("accuracy: every verdict is correct", t.verdict_correct);
        if row.method.starts_with("overt") {
            claims.check("overt: caught", !t.evaded);
            claims.check("overt: attributed", t.attributed);
        } else if row.method.starts_with("stateless") {
            // Cover traffic trades zero-alerts for a large anonymity set.
            let anonymity = t.anonymity_set.unwrap_or(0);
            claims.check("stateless: anonymity set ≥ 17", anonymity >= 17);
            claims.check("stateless: not attributed", !t.attributed);
        } else {
            claims.check("stealthy: evades", t.evaded);
            claims.check("stealthy: not attributed", !t.attributed);
        }
    }
    out.push_str(&table.render());

    // Ablation: bespoke fingerprinting + pre-MVR analysis re-identifies
    // the scan (the paper's §3.2.1 caveat). Stays hand-wired: it needs
    // the alert-before-MVR surveillance mode the spec doesn't expose.
    let target = TargetSite::numbered("twitter.com", 0).web_ip;
    let mut tb = Testbed::build(TestbedConfig {
        policy: CensorPolicy::new().block_ip(Cidr::host(target)),
        surveillance_alert_first: true,
        ..TestbedConfig::default()
    });
    let scope = tel.scope();
    tb.set_telemetry(scope.clone());
    let idx = tb.spawn_on_client(
        SimTime::ZERO,
        Box::new(SynScanProbe::new(target, top_ports(120), vec![80])),
    );
    tb.run_secs(60);
    let verdict = tb.client_task::<SynScanProbe>(idx).expect("p").verdict();
    let ablation = RiskReport::evaluate(&tb, &verdict);
    tb.export_telemetry(&scope);
    tel.absorb(&scope);
    out.push_str(&format!(
        "\nablation (§3.2.1 caveat): alert-before-MVR surveillance with a generic SYN-fanout\n\
         rule re-identifies the 120-port scan: evades={} alerts={}\n",
        mark(ablation.evades()),
        ablation.alerts_on_client
    ));
    claims.check("alert-first catches the scan", !ablation.evades());
    claims.conclude(
        out,
        "headline comparison reproduced (stealthy wins on risk, ties on accuracy)",
    )
}
