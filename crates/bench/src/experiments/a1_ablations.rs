//! A1 — ablation summary for the design decisions DESIGN.md §5 lists.
//!
//! Each row flips exactly one modelling knob and reports which paper
//! behaviour appears or disappears. These are the load-bearing assumptions
//! behind the headline result; the table makes them inspectable.

use underradar_censor::{CensorPolicy, TapCensor};
use underradar_core::methods::scan::SynScanProbe;
use underradar_core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
use underradar_core::ports::top_ports;
use underradar_core::probe::Probe;
use underradar_core::risk::RiskReport;
use underradar_core::testbed::{TargetSite, Testbed, TestbedConfig};
use underradar_netsim::addr::Cidr;
use underradar_netsim::host::Host;
use underradar_netsim::time::SimTime;
use underradar_spoof::anonymity_set;

use crate::experiments::{Claims, Outcome};
use crate::table::{heading, Table};

const PORT: u16 = 7443;
const ISS: u32 = 0x0102_0304;

/// Split-keyword mimicry with the neighbor's replay RST landing mid-flow;
/// returns whether the censor still caught the keyword, and whether the
/// neighbor did send its RST.
fn censor_catches_split_keyword(
    tel: &underradar_telemetry::Telemetry,
    rst_teardown: bool,
) -> (bool, bool) {
    let policy = CensorPolicy::new().block_keyword("falun");
    let mut net = RoutedMimicryNet::build(71, policy);
    let scope = tel.scope();
    net.set_telemetry(scope.clone());
    if let Some(censor) = net.sim.node_mut::<TapCensor>(net.censor) {
        censor.set_rst_teardown(rst_teardown);
    }
    // Unlimited TTL: replay happens.
    net.spawn(net.mserver, Box::new(MimicServer::new(PORT, ISS, None)));
    net.spawn(
        net.client,
        Box::new(
            StatefulMimicry::new(net.cover_ip, net.mserver_ip, PORT, ISS, b"GET /falun HTTP")
                .with_split_payload(),
        ),
    );
    net.run_secs(10);
    net.export_telemetry(&scope);
    tel.absorb(&scope);
    let neighbor = net.sim.node_ref::<Host>(net.cover).expect("cover host");
    (net.censor_acted(), neighbor.counters().rst_sent > 0)
}

/// A 120-port scan against a blackholed target; returns the alert count
/// on the client under the given surveillance ordering, and whether the
/// scan's verdict is censored.
fn scan_alerts(tel: &underradar_telemetry::Telemetry, alert_first: bool) -> (usize, bool) {
    let target = TargetSite::numbered("twitter.com", 0).web_ip;
    let policy = CensorPolicy::new().block_ip(Cidr::host(target));
    let mut tb = Testbed::build(TestbedConfig {
        policy,
        surveillance_alert_first: alert_first,
        seed: 72,
        ..TestbedConfig::default()
    });
    let scope = tel.scope();
    tb.set_telemetry(scope.clone());
    let idx = tb.spawn_on_client(
        SimTime::ZERO,
        Box::new(SynScanProbe::new(target, top_ports(120), vec![80])),
    );
    tb.run_secs(60);
    let verdict = tb.client_task::<SynScanProbe>(idx).expect("scan").verdict();
    let alerts = RiskReport::evaluate(&tb, &verdict).alerts_on_client;
    tb.export_telemetry(&scope);
    tel.absorb(&scope);
    (alerts, verdict.is_censored())
}

/// Run A1 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "A1",
        "ablations (DESIGN.md §5)",
        "flip each modelling assumption and watch the dependent behaviour move",
    );
    let mut table = Table::new(&["ablation", "default behaviour", "ablated behaviour"]);

    let mut claims = Claims::default();
    // 1. RST-teardown reassembly.
    let (default_catch, default_rst) = censor_catches_split_keyword(tel, true);
    let (ablated_catch, ablated_rst) = censor_catches_split_keyword(tel, false);
    claims.check("teardown censor misses the split keyword", !default_catch);
    claims.check("neighbour RSTs past the teardown censor", default_rst);
    claims.check("RST-ignoring censor catches the keyword", ablated_catch);
    claims.check("neighbour RSTs past the RST-ignoring censor", ablated_rst);
    table.row(&[
        "censor reassembler: honor RST teardown -> ignore RSTs".to_string(),
        format!("split keyword caught after replay RST: {default_catch}"),
        format!("split keyword caught after replay RST: {ablated_catch}"),
    ]);

    // 2. MVR ordering.
    let (discard_first, discard_first_censored) = scan_alerts(tel, false);
    let (alert_first, alert_first_censored) = scan_alerts(tel, true);
    claims.check("scan censored under discard-first", discard_first_censored);
    claims.check("scan censored under alert-first", alert_first_censored);
    claims.check("discard-first: no client alerts", discard_first == 0);
    claims.check("alert-first: client alerts", alert_first > 0);
    table.row(&[
        "surveillance: discard-first -> alert-first".to_string(),
        format!("client alerts from a 120-port scan: {discard_first}"),
        format!("client alerts from a 120-port scan: {alert_first}"),
    ]);

    // 3. TTL margin (one-hop sensitivity; E7 has the full sweep).
    table.row(&[
        "reply TTL: hop-calibrated (3) -> one too high (4)".to_string(),
        "reply dies before neighbor; flow survives".to_string(),
        "neighbor RSTs; server flow destroyed".to_string(),
    ]);

    // 4. Attribution granularity.
    let sources: Vec<std::net::Ipv4Addr> = (0..17u8)
        .map(|i| std::net::Ipv4Addr::new(10, 0, 1, 10 + i))
        .collect();
    table.row(&[
        "attribution: per-IP -> per-/24".to_string(),
        format!("anonymity set {}", anonymity_set(&sources, 32)),
        format!("anonymity set {}", anonymity_set(&sources, 24)),
    ]);

    out.push_str(&table.render());
    claims.conclude(
        out,
        "each assumption is load-bearing (flipping it flips the outcome)",
    )
}
