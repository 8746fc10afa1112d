//! E6 — **Figure 3a**: stateless mimicry with spoofed cover traffic.
//!
//! "The measurement client can send traffic directly to any DNS server
//! with the spoofed IP of another device in the AS ... All users in an AS
//! generate traffic with the same properties, so an IDS that triggers on a
//! particular measurement behavior may generate false positives for large
//! numbers of users."
//!
//! Sweep the number of cover sources and measure the anonymity set the
//! surveillance system faces; each sweep point is a one-trial campaign
//! with `spoofed_cover` set (spoofed *addresses* may outnumber the real
//! cover hosts — stateless protocols need no machine behind a source).

use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
use underradar_censor::CensorPolicy;
use underradar_protocols::dns::DnsName;

use crate::experiments::campaign::run_campaign;
use crate::table::{heading, mark, Table};

/// Run E6 and render its report. Each sweep point runs through the
/// run service, which folds per-trial registries into `tel` in trial
/// order (scheduling-independent).
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> String {
    let mut out = heading(
        "E6",
        "Figure 3a (§4.1 stateless mimicry)",
        "spoofed cover queries make probes appear to come from many hosts",
    );
    let mut table = Table::new(&[
        "cover sources",
        "verdict",
        "correct",
        "anon set (per-IP)",
        "attribution odds",
    ]);
    let mut all_pass = true;
    for cover_count in [0usize, 1, 4, 16, 64] {
        let policy = CensorPolicy::new().block_domain(&DnsName::parse("twitter.com").expect("n"));
        let spec = CampaignSpec::new("e06-stateless", 5)
            .target("twitter.com")
            .method(MethodKind::StatelessDns)
            .policy(NamedPolicy::new("dns-block", policy))
            .cover_hosts(cover_count.min(8)) // hosts that physically exist
            .spoofed_cover(cover_count)
            .run_secs(10);
        let (_, trials) = run_campaign(&spec, 1, tel);
        let trial = &trials[0];
        let per_ip = trial.anonymity_set.unwrap_or(0);
        let pass = trial.verdict_correct && per_ip == cover_count + 1;
        all_pass &= pass;
        table.row(&[
            cover_count.to_string(),
            trial.verdict.to_string(),
            mark(trial.verdict_correct).to_string(),
            per_ip.to_string(),
            format!("1/{per_ip}"),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nnote: with zero cover the client is the lone suspect (odds 1/1, the overt\n\
         situation); each spoofed source multiplies the suspect pool exactly as Fig 3a\n\
         intends.\n",
    );
    out.push_str(&format!(
        "\nresult: anonymity set grows as cover+1 with accuracy intact: {}\n\n",
        if all_pass { "PASSED" } else { "FAILED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_passes() {
        let report = super::run_with(&underradar_telemetry::Telemetry::disabled());
        assert!(report.contains("PASSED"), "{report}");
    }
}
