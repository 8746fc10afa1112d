//! E4 — §3.2.3 spam-method accuracy: GFC DNS injection for A *and* MX.
//!
//! "We validated accuracy by sending MX queries from a PlanetLab node in
//! China. We verified that the Great Firewall of China (GFC) injected bad
//! A DNS responses for both A and MX requests for twitter.com and
//! youtube.com."
//!
//! The PlanetLab vantage is replaced by the testbed client behind the
//! DNS-injecting tap censor; the table reports both query types for both
//! domains.

use underradar_censor::CensorPolicy;
use underradar_core::methods::stateless::StatelessDnsMimicry;
use underradar_core::probe::Probe;
use underradar_core::testbed::{Testbed, TestbedConfig};
use underradar_netsim::time::SimTime;
use underradar_protocols::dns::{DnsName, QType};

use crate::table::{heading, mark, Table};

/// Run E4 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> String {
    let mut out = heading(
        "E4",
        "§3.2.3 (spam accuracy: GFC DNS injection)",
        "bad A responses injected for both A and MX queries, twitter.com & youtube.com",
    );
    let mut table = Table::new(&["domain", "qtype", "bad A injected", "probe verdict", "pass"]);
    let mut all_pass = true;
    for domain in ["twitter.com", "youtube.com"] {
        for qtype in [QType::A, QType::Mx] {
            let name = DnsName::parse(domain).expect("domain");
            let policy = CensorPolicy::new()
                .block_domain(&DnsName::parse("twitter.com").expect("n"))
                .block_domain(&DnsName::parse("youtube.com").expect("n"));
            let poison = policy.dns_poison_ip;
            let mut tb = Testbed::build(TestbedConfig {
                policy,
                ..TestbedConfig::default()
            });
            let scope = crate::telemetry::instrument_testbed(&mut tb, tel);
            // Use a bare mimicry lookup (no cover) to capture the raw DNS
            // behaviour for this qtype.
            let probe = StatelessDnsMimicry::new(&name, qtype, tb.resolver_ip, vec![]);
            let idx = tb.spawn_on_client(SimTime::ZERO, Box::new(probe));
            tb.run_secs(10);
            let probe = tb.client_task::<StatelessDnsMimicry>(idx).expect("probe");
            let bad_a = probe
                .answers
                .iter()
                .any(|answers| answers.contains(&poison))
                || probe.a_for_mx;
            let verdict = probe.verdict();
            crate::telemetry::finish_testbed(&tb, &scope, tel);
            let pass = bad_a && verdict.is_censored();
            all_pass &= pass;
            table.row(&[
                domain.to_string(),
                format!("{qtype}"),
                mark(bad_a).to_string(),
                verdict.to_string(),
                mark(pass).to_string(),
            ]);
        }
    }
    out.push_str(&table.render());

    // The full spam pipeline sees the same thing end to end — one
    // campaign cell (method=spam, policy=dns-injection).
    let spec = underradar_campaign::CampaignSpec::new("e04-spam-pipeline", 4)
        .target("twitter.com")
        .method(underradar_campaign::MethodKind::Spam)
        .policy(underradar_campaign::NamedPolicy::new(
            "gfc-dns",
            CensorPolicy::new().block_domain(&DnsName::parse("twitter.com").expect("n")),
        ))
        .run_secs(30);
    let (_, trials) = crate::experiments::campaign::run_campaign(&spec, 1, tel);
    let trial = &trials[0];
    let a_for_mx = crate::experiments::campaign::evidence(trial, "a_for_mx") == "true";
    out.push_str(&format!(
        "\nfull spam pipeline on twitter.com (campaign cell): A-for-MX tell observed = {}, verdict = {}\n",
        mark(a_for_mx),
        trial.verdict
    ));
    all_pass &= a_for_mx && trial.verdict.is_censored();
    out.push_str(&format!(
        "\nresult: §3.2.3 DNS-injection validation: {}\n\n",
        if all_pass { "PASSED" } else { "FAILED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_passes() {
        let report = super::run_with(&underradar_telemetry::Telemetry::disabled());
        assert!(report.contains("PASSED"), "{report}");
    }
}
