//! E11 — §6: the ethics load comparison.
//!
//! "Schomp et al. found 32 million open forwarders and 60–70k recursive
//! DNS servers used by open DNS forwarders. In contrast, if we conducted a
//! single DNS measurement from every IP in an ASN's /16, we would send
//! roughly 65k queries. Finally, we increase load on network operators by
//! creating more spurious alerts ... but our campus network shows that the
//! increased number of alerts will be dwarfed by those from normal
//! operational traffic."
//!
//! Two comparisons: (a) query volume of a full-/16 cover measurement vs
//! the accepted open-resolver measurement practice; (b) extra IDS alerts
//! caused by one cover campaign vs the baseline alert volume from
//! population traffic.

use underradar_netsim::addr::Cidr;
use underradar_netsim::packet::Packet;
use underradar_netsim::rng::SimRng;
use underradar_netsim::time::SimTime;
use underradar_protocols::dns::{DnsMessage, DnsName, QType};
use underradar_surveil::system::{
    default_surveillance_rules, SurveillanceConfig, SurveillanceSystem,
};
use underradar_workloads::population::{PopulationConfig, PopulationTraffic};

use crate::experiments::{Claims, Outcome};
use crate::table::{heading, Table};

/// Run E11 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E11",
        "§6 (ethics: load and alert impact)",
        "a /16 cover sweep ≈ 65k queries, small next to accepted practice;\n\
         extra alerts dwarfed by operational noise",
    );

    let slash16 = Cidr::slash16(std::net::Ipv4Addr::new(10, 20, 0, 0));
    let mut volume = Table::new(&["measurement practice", "endpoints involved"]);
    volume.row(&[
        "open DNS forwarders (Schomp et al., accepted)".to_string(),
        "32,000,000".to_string(),
    ]);
    volume.row(&[
        "open recursive resolvers behind them".to_string(),
        "60,000-70,000".to_string(),
    ]);
    volume.row(&[
        "one spoofed query per IP of a /16 (this paper)".to_string(),
        format!("{}", slash16.size()),
    ]);
    out.push_str(&volume.render());
    let ratio = 32_000_000f64 / slash16.size() as f64;
    out.push_str(&format!(
        "\nthe accepted practice touches {ratio:.0}x more endpoints than a full /16 sweep\n"
    ));

    // Alert-volume comparison on the surveillance system.
    let home = Cidr::new(std::net::Ipv4Addr::new(10, 0, 0, 0), 8);
    let watched = vec![DnsName::parse("twitter.com").expect("n")];
    let keywords = vec!["falun".to_string()];

    // Baseline: population traffic only.
    let rules = default_surveillance_rules(home, &watched, &keywords, None);
    let mut baseline = SurveillanceSystem::new(SurveillanceConfig::with_rules(rules));
    let mut rng = SimRng::seed_from_u64(611);
    let population = PopulationTraffic::generate(
        &PopulationConfig {
            client_prefix: Cidr::slash16(std::net::Ipv4Addr::new(10, 0, 0, 0)),
            ..PopulationConfig::default()
        },
        &mut rng,
    );
    for tp in &population {
        baseline.process(tp.time, &tp.packet);
    }
    let base_alerts = baseline.stats().alerts;

    // Same population plus a 256-source cover campaign (one /24).
    let rules = default_surveillance_rules(home, &watched, &keywords, None);
    let mut with_cover = SurveillanceSystem::new(SurveillanceConfig::with_rules(rules));
    for tp in &population {
        with_cover.process(tp.time, &tp.packet);
    }
    let resolver = std::net::Ipv4Addr::new(10, 0, 0, 53);
    let cover_net = Cidr::slash24(std::net::Ipv4Addr::new(10, 0, 1, 0));
    let mut cover_queries = 0u64;
    for i in 0..cover_net.size() {
        let src = cover_net.nth(i);
        let q = DnsMessage::query(
            i as u16,
            DnsName::parse("twitter.com").expect("n"),
            QType::A,
        );
        let pkt = Packet::udp(src, resolver, 5353, 53, q.encode());
        with_cover.process(SimTime::from_nanos(30_000_000_000 + i * 1000), &pkt);
        cover_queries += 1;
    }
    let cover_alerts = with_cover.stats().alerts - base_alerts;
    // Export the full scenario (population + cover campaign); the
    // baseline-only system is a control, not the modelled deployment.
    PopulationTraffic::export_telemetry(&population, tel);
    with_cover.export_telemetry(tel);
    tel.set_counter("workloads.cover.queries", cover_queries);
    tel.set_counter("surveil.cover_campaign.alerts", cover_alerts as u64);

    let mut alerts = Table::new(&["source of alerts", "alerts", "of total"]);
    let total = with_cover.stats().alerts.max(1);
    alerts.row(&[
        "normal operational traffic (60s window)".to_string(),
        base_alerts.to_string(),
        format!("{:.0}%", 100.0 * base_alerts as f64 / total as f64),
    ]);
    alerts.row(&[
        format!("one /24 cover campaign ({cover_queries} spoofed queries)"),
        cover_alerts.to_string(),
        format!("{:.0}%", 100.0 * cover_alerts as f64 / total as f64),
    ]);
    out.push('\n');
    out.push_str(&alerts.render());
    out.push_str(
        "\nnote: every cover query hits the censored-lookup rule by design — the point\n\
         is that the absolute count stays modest next to day-scale operational volume,\n\
         and the alerts spread across 256 sources rather than implicating one user.\n",
    );

    let mut claims = Claims::default();
    claims.check("practice touches >400x a /16 sweep", ratio > 400.0);
    claims.check("one cover query per /24 address", cover_queries == 256);
    claims.conclude(out, "load comparison matches §6's argument")
}
