//! E1 — Figure 1 / §3.2.1: validate the reference censorship system.
//!
//! "To demonstrate accuracy, we created Snort rules to mimic known
//! censorship mechanisms and validated that we detected these mechanisms."
//!
//! For every blocking mechanism the censor implements, run an overt probe
//! and check (a) the censor actually acted (ground truth from its action
//! log), and (b) the client-side measurement detected it with the right
//! mechanism label.

use underradar_censor::CensorPolicy;
use underradar_core::methods::overt::OvertProbe;
use underradar_core::probe::Probe;
use underradar_core::testbed::{TargetSite, Testbed, TestbedConfig};
use underradar_core::verdict::Mechanism;
use underradar_netsim::addr::Cidr;
use underradar_netsim::time::SimTime;
use underradar_protocols::dns::DnsName;

use crate::experiments::{Claims, Outcome};
use crate::table::{heading, mark, Table};

struct Case {
    /// The mechanism, and the name of E1's claim that the censor
    /// reproduces it and the client detects it.
    name: &'static str,
    policy: CensorPolicy,
    domain: &'static str,
    path: &'static str,
    expect_mechanism: Option<Mechanism>,
}

fn cases() -> Vec<Case> {
    let twitter = DnsName::parse("twitter.com").expect("name");
    let twitter_web = TargetSite::numbered("twitter.com", 0).web_ip;
    vec![
        Case {
            name: "no censorship (control)",
            policy: CensorPolicy::new(),
            domain: "twitter.com",
            path: "/",
            expect_mechanism: None,
        },
        Case {
            name: "GFC keyword RST injection",
            policy: CensorPolicy::new().block_keyword("falun"),
            domain: "twitter.com",
            path: "/falun",
            expect_mechanism: Some(Mechanism::RstInjection),
        },
        Case {
            name: "GFC DNS injection (A)",
            policy: CensorPolicy::new().block_domain(&twitter),
            domain: "twitter.com",
            path: "/",
            expect_mechanism: Some(Mechanism::DnsPoison),
        },
        Case {
            name: "DNS injection (NXDOMAIN style)",
            policy: CensorPolicy::new()
                .block_domain(&twitter)
                .with_dns_nxdomain(),
            domain: "twitter.com",
            path: "/",
            expect_mechanism: Some(Mechanism::DnsPoison),
        },
        Case {
            name: "IP blackhole",
            policy: CensorPolicy::new().block_ip(Cidr::host(twitter_web)),
            domain: "twitter.com",
            path: "/",
            expect_mechanism: Some(Mechanism::Blackhole),
        },
        Case {
            name: "HTTP URL filter",
            policy: CensorPolicy::new().block_url("/banned"),
            domain: "twitter.com",
            path: "/banned-page",
            expect_mechanism: Some(Mechanism::RstInjection),
        },
    ]
}

/// Run E1 and render its report, recording per-case telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E1",
        "Figure 1 + §3.2.1 (reference systems)",
        "Snort-rule censor reproduces known mechanisms; client detects each",
    );
    let mut table = Table::new(&[
        "mechanism",
        "censor acted",
        "client verdict",
        "expected",
        "pass",
    ]);
    let mut claims = Claims::default();
    for case in cases() {
        let mut tb = Testbed::build(TestbedConfig {
            policy: case.policy,
            ..TestbedConfig::default()
        });
        let scope = tel.scope();
        tb.set_telemetry(scope.clone());
        let domain = DnsName::parse(case.domain).expect("domain");
        let probe = OvertProbe::new(&domain, tb.resolver_ip, tb.collector_ip, case.path);
        let idx = tb.spawn_on_client(SimTime::ZERO, Box::new(probe));
        tb.run_secs(20);
        let probe = tb.client_task::<OvertProbe>(idx).expect("probe state");
        let verdict = probe.verdict();
        let acted = tb.censor_acted();
        tb.export_telemetry(&scope);
        tel.absorb(&scope);
        let pass = claims.check(
            case.name,
            match case.expect_mechanism {
                Some(m) => acted && verdict.mechanism() == Some(m),
                None => !acted && verdict.is_reachable(),
            },
        );
        table.row(&[
            case.name.to_string(),
            mark(acted).to_string(),
            verdict.to_string(),
            case.expect_mechanism
                .map(|m| m.to_string())
                .unwrap_or_else(|| "reachable".to_string()),
            mark(pass).to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nresult: reference censor validation {}\n\n",
        match claims.verdict() {
            "PASSED" => "PASSED (matches §3.2.1)",
            failed => failed,
        }
    ));
    claims.finish(out)
}
