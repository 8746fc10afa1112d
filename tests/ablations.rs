//! Ablation tests for the design decisions DESIGN.md §5 calls out:
//! RST-teardown semantics, MVR/alert ordering, and attribution
//! granularity. Each ablation flips one knob and checks the behaviour the
//! paper's argument depends on appears/disappears accordingly.

use underradar::censor::{CensorPolicy, TapCensor};
use underradar::core::methods::scan::SynScanProbe;
use underradar::core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
use underradar::core::ports::top_ports;
use underradar::core::probe::Probe;
use underradar::core::risk::RiskReport;
use underradar::core::testbed::{TargetSite, Testbed, TestbedConfig};
use underradar::netsim::addr::Cidr;
use underradar::netsim::host::Host;
use underradar::netsim::time::SimTime;
use underradar::spoof::anonymity_set;

const PORT: u16 = 7443;
const ISS: u32 = 0x0102_0304;

/// Drive a spoofed stateful flow where the spoofed neighbor's RST fires
/// mid-stream (unlimited reply TTL), with the keyword split so only
/// *continuous* reassembly can catch it.
fn split_keyword_run(censor_rst_teardown: bool) -> (bool, bool) {
    let policy = CensorPolicy::new().block_keyword("falun");
    let mut net = RoutedMimicryNet::build(71, policy);
    if let Some(censor) = net.sim.node_mut::<TapCensor>(net.censor) {
        censor.set_rst_teardown(censor_rst_teardown);
    }
    // Unlimited TTL: the neighbor WILL see the SYN/ACK and RST the flow.
    net.spawn(net.mserver, Box::new(MimicServer::new(PORT, ISS, None)));
    net.spawn(
        net.client,
        Box::new(
            StatefulMimicry::new(net.cover_ip, net.mserver_ip, PORT, ISS, b"GET /falun HTTP")
                .with_split_payload(),
        ),
    );
    net.run_secs(10);
    let neighbor = net.sim.node_ref::<Host>(net.cover).expect("cover");
    (net.censor_acted(), neighbor.counters().rst_sent > 0)
}

#[test]
fn rst_teardown_breaks_split_keyword_matching() {
    // Default censor (tears down on RST): the neighbor's RST lands between
    // the two keyword halves, the censor's reassembler forgets the flow,
    // and the split keyword is never assembled.
    let (censor_fired, neighbor_rst) = split_keyword_run(true);
    assert!(neighbor_rst, "the replay RST happened");
    assert!(
        !censor_fired,
        "teardown censor lost the stream and missed the split keyword"
    );
}

#[test]
fn rst_ignoring_censor_still_catches_split_keyword() {
    // Ablation: a censor that ignores RSTs keeps its buffer and catches
    // the keyword despite the replay RST.
    let (censor_fired, neighbor_rst) = split_keyword_run(false);
    assert!(neighbor_rst);
    assert!(
        censor_fired,
        "RST-ignoring censor reassembled across the RST"
    );
}

#[test]
fn mvr_ordering_is_what_protects_the_scan() {
    let target = TargetSite::numbered("twitter.com", 0).web_ip;
    let run = |alert_first: bool| -> usize {
        let policy = CensorPolicy::new().block_ip(Cidr::host(target));
        let mut tb = Testbed::build(TestbedConfig {
            policy,
            surveillance_alert_first: alert_first,
            seed: 72,
            ..TestbedConfig::default()
        });
        let idx = tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(SynScanProbe::new(target, top_ports(120), vec![80])),
        );
        tb.run_secs(60);
        let verdict = tb.client_task::<SynScanProbe>(idx).expect("scan").verdict();
        assert!(verdict.is_censored(), "accuracy unaffected by the ablation");
        RiskReport::evaluate(&tb, &verdict).alerts_on_client
    };
    assert_eq!(run(false), 0, "discard-first: the scan evades");
    assert!(
        run(true) > 0,
        "alert-first: the SYN-fanout rule re-identifies the scan"
    );
}

#[test]
fn attribution_granularity_collapses_anonymity_sets() {
    // 32 observed sources spread over two /24s.
    let sources: Vec<std::net::Ipv4Addr> = (0..32u8)
        .map(|i| std::net::Ipv4Addr::new(10, 0, if i < 20 { 1 } else { 2 }, 10 + i))
        .collect();
    assert_eq!(anonymity_set(&sources, 32), 32);
    assert_eq!(anonymity_set(&sources, 24), 2);
    assert_eq!(anonymity_set(&sources, 16), 1);
    // The lesson: cover traffic confined to one /24 is only as good as the
    // adversary's attribution granularity is fine.
}

#[test]
fn censor_without_teardown_tracks_more_flows() {
    use underradar::ids::stream::StreamReassembler;
    use underradar::netsim::packet::Packet;
    use underradar::netsim::wire::tcp::TcpFlags;
    let c = std::net::Ipv4Addr::new(10, 0, 0, 1);
    let s = std::net::Ipv4Addr::new(10, 0, 0, 2);
    let run = |teardown: bool| -> usize {
        let mut r = StreamReassembler::new();
        r.rst_teardown = teardown;
        for i in 0..50u16 {
            let syn = Packet::tcp(c, s, 4000 + i, 80, 0, 0, TcpFlags::syn(), vec![]);
            r.process(&syn);
            let rst = Packet::tcp(c, s, 4000 + i, 80, 1, 0, TcpFlags::rst(), vec![]);
            r.process(&rst);
        }
        r.flow_count()
    };
    assert_eq!(run(true), 0, "teardown frees state");
    assert_eq!(run(false), 50, "the ablation pays with 50 lingering flows");
}
