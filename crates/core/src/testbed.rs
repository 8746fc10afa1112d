//! The reference testbed (paper Figure 1, generalized).
//!
//! ```text
//!                      censor (tap)   surveillance/MVR (tap)
//!                            \          /
//!   client ---+               \        /
//!   cover-1 --+--- sw1 ======= inline censor ======= sw2 --- web servers
//!   cover-N --+    |                                  |  --- MX servers
//!   resolver ------+                                  |  --- collector
//!                                                     |  --- measurement server
//! ```
//!
//! * `sw1` is the client-side switch; the **off-path censor** and the
//!   **surveillance system** both observe it through tap ports (the paper
//!   ran two Snort instances on the Open vSwitch node).
//! * The **inline censor** models blackholing mechanisms an off-path
//!   device cannot implement; with an empty policy it is a wire.
//! * Target sites each get a web server and a mail exchanger; the
//!   resolver's zone knows them all. The **collector** stands in for an
//!   OONI-style report server (what the overt baseline talks to), and the
//!   **measurement server** is the §4.1 controlled endpoint.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use underradar_censor::{
    CensorAction, CensorActionKind, CensorPolicy, CompiledPolicy, InlineCensor, TapCensor,
};
use underradar_ids::engine::CompiledRuleset;
use underradar_ids::rule::Rule;
use underradar_ids::stream::ReassemblyConfig;
use underradar_netsim::addr::Cidr;
use underradar_netsim::host::{Host, HostTask};
use underradar_netsim::link::LinkConfig;
use underradar_netsim::node::{IfaceId, NodeId};
use underradar_netsim::sim::Simulator;
use underradar_netsim::switch::Switch;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::topology::TopologyBuilder;
use underradar_protocols::dns::{DnsError, DnsName, DnsServer, DnsZone, Record, ZoneBuilder};
use underradar_protocols::email::EmailMessage;
use underradar_protocols::http::{HttpResponse, HttpServer};
use underradar_protocols::smtp::SmtpServerService;
use underradar_surveil::system::{
    default_surveillance_rules, SurveillanceConfig, SurveillanceNode,
};

use crate::methods::stateful::RoutedMimicryNet;
use crate::monitors::MonitorSet;

/// The most target sites one testbed can address: [`TargetSite::numbered`]
/// puts site `i` at `93.184.0.(10 + i)`.
pub const MAX_TARGET_SITES: usize = 256 - 10;

/// The most cover hosts one testbed can address: cover host `i` sits at
/// `10.0.1.(10 + i)`.
pub const MAX_COVER_HOSTS: usize = 256 - 10;

/// A measurable target site.
#[derive(Debug, Clone)]
pub struct TargetSite {
    /// The site's domain.
    pub domain: DnsName,
    /// Web server address (port 80 open).
    pub web_ip: Ipv4Addr,
    /// Mail exchanger host name.
    pub mx_name: DnsName,
    /// Mail exchanger address (port 25 open).
    pub mx_ip: Ipv4Addr,
}

impl TargetSite {
    /// Build the `i`-th target for `domain`, or say why no testbed can
    /// name it: `domain` must parse, and so must its mail exchanger
    /// `mx1.<domain>`. `i` must stay below [`MAX_TARGET_SITES`]. Callers
    /// taking domains from outside check each one here before building.
    pub fn try_numbered(domain: &str, i: u8) -> Result<TargetSite, DnsError> {
        let domain = DnsName::parse(domain)?;
        let mx_name = domain.prepend("mx1")?;
        Ok(TargetSite {
            domain,
            web_ip: Ipv4Addr::new(93, 184, 0, 10 + i),
            mx_name,
            mx_ip: Ipv4Addr::new(93, 184, 1, 10 + i),
        })
    }

    /// [`TargetSite::try_numbered`] for a domain known to be valid.
    pub fn numbered(domain: &str, i: u8) -> TargetSite {
        TargetSite::try_numbered(domain, i).expect("a checked target domain")
    }

    /// Whether a censor action concerned this site: a forged answer for a
    /// name in its zone, or a drop, reset or URL block on traffic to or
    /// from its web server or mail exchanger.
    pub fn concerns(&self, action: &CensorAction) -> bool {
        let ours = |ip: Ipv4Addr| ip == self.web_ip || ip == self.mx_ip;
        match &action.kind {
            CensorActionKind::DnsInjection { name, .. } => name.is_subdomain_of(&self.domain),
            CensorActionKind::IpDrop { dst }
            | CensorActionKind::PortDrop { dst, .. }
            | CensorActionKind::KeywordRst { dst, .. }
            | CensorActionKind::UrlBlock { dst, .. } => ours(*dst) || ours(action.client),
        }
    }
}

/// Testbed construction parameters.
#[derive(Clone)]
pub struct TestbedConfig {
    /// RNG seed (everything downstream is deterministic in it).
    pub seed: u64,
    /// The censorship policy (drives both censors).
    pub policy: CensorPolicy,
    /// Target sites (defaults: twitter.com, youtube.com blocked-ish;
    /// bbc.com, example.org as controls — blocking is decided by the
    /// policy, not the list).
    pub targets: Vec<TargetSite>,
    /// Number of cover-client hosts on the access network (at most
    /// [`MAX_COVER_HOSTS`]).
    pub cover_hosts: usize,
    /// Surveillance ablation: run signatures before MVR discard.
    pub surveillance_alert_first: bool,
    /// Censor ablation: disable RST-teardown in the censor's reassembler.
    pub censor_rst_teardown: bool,
    /// Record every packet on every link.
    pub capture: bool,
    /// Packet-loss probability on the client's access link (failure
    /// injection; measurements must degrade gracefully, not lie). Like
    /// the other `client_link_*` knobs, it shapes the flat testbed only:
    /// the routed chain ([`TestbedTemplate::instantiate_routed`]) wires
    /// its client on a clean link.
    pub client_link_loss: f64,
    /// Reorder probability on the client's access link: selected packets
    /// are displaced by up to 2 ms and may arrive after later packets.
    pub client_link_reorder: f64,
    /// Duplication probability on the client's access link.
    pub client_link_duplicate: f64,
    /// Single-byte corruption probability on the client's access link.
    pub client_link_corrupt: f64,
    /// Reassembly limits shared by every monitor (both censors and the
    /// surveillance engine): flow-table capacity and per-direction
    /// buffering caps. Population-scale experiments sweep these to bound
    /// per-flow monitor memory.
    pub monitor_reassembly: ReassemblyConfig,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 1,
            policy: CensorPolicy::new(),
            targets: vec![
                TargetSite::numbered("twitter.com", 0),
                TargetSite::numbered("youtube.com", 1),
                TargetSite::numbered("bbc.com", 10),
                TargetSite::numbered("example.org", 11),
            ],
            cover_hosts: 4,
            surveillance_alert_first: false,
            censor_rst_teardown: true,
            capture: false,
            client_link_loss: 0.0,
            client_link_reorder: 0.0,
            client_link_duplicate: 0.0,
            client_link_corrupt: 0.0,
            monitor_reassembly: ReassemblyConfig::default(),
        }
    }
}

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const RESOLVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 53);
const COLLECTOR_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 99);
const MSERVER_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 200);

/// A complete HTTP response's wire bytes, shared by every server that
/// answers with it.
type Page = Arc<[u8]>;

/// The seed-independent parts of a policy column's worlds: the resolver
/// zone and the parsed surveillance ruleset, and — compiled on first use —
/// the monitors' immutable parts. The tap censor's keyword DFA
/// ([`CompiledPolicy`]) is compiled once and shared by both topologies the
/// template builds: the flat testbed ([`TestbedTemplate::instantiate`])
/// and the routed TTL chain ([`TestbedTemplate::instantiate_routed`]).
/// Each topology compiles its own surveillance ruleset: the chain's omits
/// the collector rule (it has no collector), which shifts every later SID.
/// The web servers' and the collector's HTTP responses are rendered on
/// first use too. Every world instantiated from the template shares those
/// parts by `Arc` and builds only its own mutable state (simulator, hosts,
/// reassemblers, logs), so per-trial construction does no page rendering,
/// rule parsing, DFA building or zone indexing.
///
/// A campaign prepares one template per censor policy and instantiates a
/// world per trial seed from it, or resets one it built earlier
/// ([`TestbedTemplate::reset`]). Preparing stays as cheap as
/// deriving the zone and parsing the flat rules: compilation happens on
/// first use, so parts a run never reaches cost nothing. The template
/// holds no simulator state, so it is `Send + Sync` and shards can share
/// it by reference.
pub struct TestbedTemplate {
    config: TestbedConfig,
    zone: Vec<Record>,
    rules: Vec<Rule>,
    /// The tap censor's keyword DFA, shared by both topologies.
    censor: OnceLock<Arc<CompiledPolicy>>,
    /// The flat testbed's indexed zone and surveillance ruleset.
    flat: OnceLock<(Arc<DnsZone>, Arc<CompiledRuleset>)>,
    /// The flat testbed's HTTP responses, rendered once: each target's
    /// page, in target order, and the collector's acknowledgement.
    pages: OnceLock<(Vec<Page>, Page)>,
    /// The routed chain's surveillance ruleset.
    chain: OnceLock<Arc<CompiledRuleset>>,
}

impl TestbedTemplate {
    /// Derive the policy-dependent parts once.
    pub fn prepare(config: TestbedConfig) -> TestbedTemplate {
        let mut zone = ZoneBuilder::new();
        for t in &config.targets {
            zone = zone
                .a(&t.domain, t.web_ip)
                .mx(&t.domain, 10, &t.mx_name)
                .a(&t.mx_name, t.mx_ip);
        }
        let rules = default_surveillance_rules(
            Testbed::home_net(),
            &config.policy.dns_blocked,
            &config.policy.keywords,
            Some(COLLECTOR_IP),
        );
        TestbedTemplate {
            config,
            zone: zone.build(),
            rules,
            censor: OnceLock::new(),
            flat: OnceLock::new(),
            pages: OnceLock::new(),
            chain: OnceLock::new(),
        }
    }

    /// The column's compiled tap-censor policy, compiled on first use.
    fn censor(&self) -> &Arc<CompiledPolicy> {
        self.censor
            .get_or_init(|| Arc::new(CompiledPolicy::new(self.config.policy.clone())))
    }

    /// The configuration the template was prepared from.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// Assemble the routed TTL chain ([`RoutedMimicryNet`]) for `seed` from
    /// the shared parts. Its surveillance rules are the flat ones less the
    /// collector rule: the chain has no collector.
    pub fn instantiate_routed(&self, seed: u64) -> RoutedMimicryNet {
        let ruleset = self.chain.get_or_init(|| {
            let policy = &self.config.policy;
            let home = Testbed::home_net();
            let rules =
                default_surveillance_rules(home, &policy.dns_blocked, &policy.keywords, None);
            Arc::new(CompiledRuleset::new(rules))
        });
        wire_chain(seed, &self.config, self.censor(), ruleset)
    }

    /// Make `tb`, a flat testbed this template instantiated, ready for
    /// another trial as if [`TestbedTemplate::instantiate`] had just built
    /// it for `seed`: the simulator and every node reset in place
    /// ([`Simulator::reset`]) and the SMTP inboxes emptied. Hosts, wiring,
    /// routes and the shared compiled parts stay, so no page, rule or zone
    /// is rebuilt and the world's storage is reused.
    pub fn reset(&self, tb: &mut Testbed, seed: u64) {
        tb.sim.reset(seed);
        for inbox in tb.inboxes.values() {
            inbox.borrow_mut().clear();
        }
    }

    /// [`TestbedTemplate::reset`] for the routed chain this template
    /// built with [`TestbedTemplate::instantiate_routed`].
    pub fn reset_routed(&self, net: &mut RoutedMimicryNet, seed: u64) {
        net.sim.reset(seed);
    }

    /// Assemble a flat testbed from the prepared parts, with `seed`
    /// replacing the config's seed (each trial gets its own).
    pub fn instantiate(&self, seed: u64) -> Testbed {
        let config = &self.config;
        let (zone, ruleset) = self.flat.get_or_init(|| {
            (
                Arc::new(DnsZone::new(self.zone.clone())),
                Arc::new(CompiledRuleset::new(self.rules.clone())),
            )
        });
        let (web_pages, collector_page) = self.pages.get_or_init(|| {
            let page = |t: &TargetSite| {
                let domain = &t.domain;
                HttpResponse::render_ok(&format!(
                    "<html><head><title>{domain}</title></head><body>content of {domain}</body></html>"
                ))
                .into()
            };
            let ack = HttpResponse::render_ok("{\"status\":\"ok\"}").into();
            (config.targets.iter().map(page).collect(), ack)
        });
        let client_ip = CLIENT_IP;
        let resolver_ip = RESOLVER_IP;
        let collector_ip = COLLECTOR_IP;
        let mserver_ip = MSERVER_IP;

        let mut topo = TopologyBuilder::new(seed);
        if config.capture {
            topo.enable_capture();
        }

        // --- client side ---
        let client = topo.add_host(Host::new("client", client_ip));
        let mut cover = Vec::new();
        let mut cover_ips = Vec::new();
        for i in 0..config.cover_hosts {
            let ip = Ipv4Addr::new(10, 0, 1, 10 + i as u8);
            cover.push(topo.add_host(Host::new(&format!("cover{i}"), ip)));
            cover_ips.push(ip);
        }

        // Resolver serving the pre-built zone.
        let mut resolver_host = Host::new("resolver", resolver_ip);
        resolver_host.add_udp_service(53, Box::new(DnsServer::with_zone(zone.clone())));
        let resolver = topo.add_host(resolver_host);

        let (censor, surveillance) = add_monitors(&mut topo, config, self.censor(), ruleset);

        // --- switches and inline censor ---
        let sw1 = topo.add_switch(Switch::new("sw1"));
        let sw2 = topo.add_switch(Switch::new("sw2"));
        let inline_censor = topo.add_node(Box::new(InlineCensor::with_reassembly(
            "inline",
            config.policy.clone(),
            config.monitor_reassembly,
        )));

        topo.attach_host(
            client,
            client_ip,
            sw1,
            LinkConfig::default()
                .with_loss(config.client_link_loss)
                .with_reorder(config.client_link_reorder, SimDuration::from_millis(2))
                .with_duplicate(config.client_link_duplicate)
                .with_corrupt(config.client_link_corrupt),
        )
        .expect("client attach");
        for (node, ip) in cover.iter().zip(cover_ips.iter()) {
            topo.attach_host(*node, *ip, sw1, LinkConfig::default())
                .expect("cover attach");
        }
        topo.attach_host(resolver, resolver_ip, sw1, LinkConfig::default())
            .expect("resolver attach");
        // Taps observe the client-side switch; ideal links so injected
        // packets win races against real responses.
        topo.attach_tap(censor, sw1, LinkConfig::ideal())
            .expect("censor tap");
        topo.attach_tap(surveillance, sw1, LinkConfig::ideal())
            .expect("mvr tap");

        // --- world side ---
        let mut inboxes = HashMap::new();
        for (t, page) in config.targets.iter().zip(web_pages) {
            let mut web = Host::new(&format!("web-{}", t.domain), t.web_ip);
            let page = page.clone();
            web.add_tcp_listener(80, move || Box::new(HttpServer::new(page.clone())));
            let web_id = topo.add_host(web);
            topo.attach_host(web_id, t.web_ip, sw2, LinkConfig::default())
                .expect("web attach");

            let sink: Rc<RefCell<Vec<EmailMessage>>> = Rc::new(RefCell::new(Vec::new()));
            inboxes.insert(t.domain.to_string(), sink.clone());
            let mut mx = Host::new(&format!("mx-{}", t.domain), t.mx_ip);
            mx.add_tcp_listener(25, move || {
                Box::new(SmtpServerService::with_sink(sink.clone()))
            });
            let mx_id = topo.add_host(mx);
            topo.attach_host(mx_id, t.mx_ip, sw2, LinkConfig::default())
                .expect("mx attach");
        }
        let mut collector_host = Host::new("collector", collector_ip);
        let ack = collector_page.clone();
        collector_host.add_tcp_listener(443, move || Box::new(HttpServer::new(ack.clone())));
        let collector = topo.add_host(collector_host);
        topo.attach_host(collector, collector_ip, sw2, LinkConfig::default())
            .expect("collector attach");

        let mserver = topo.add_host(Host::new("mserver", mserver_ip));
        topo.attach_host(mserver, mserver_ip, sw2, LinkConfig::default())
            .expect("mserver attach");

        // --- trunk through the inline censor ---
        // sw1 <-> inline(0); inline(1) <-> sw2.
        let p1 = topo
            .attach_iface(sw1, inline_censor, IfaceId(0), LinkConfig::default())
            .expect("sw1-inline");
        let p2 = topo
            .attach_iface(sw2, inline_censor, IfaceId(1), LinkConfig::default())
            .expect("sw2-inline");
        // Routes: world-bound prefixes leave sw1 via the inline censor; the
        // home prefix returns via sw2's inline port.
        topo.route(sw1, Cidr::new(Ipv4Addr::new(93, 184, 0, 0), 16), p1);
        topo.route(sw1, Cidr::new(Ipv4Addr::new(198, 51, 100, 0), 24), p1);
        topo.route(sw2, Testbed::home_net(), p2);

        let sim = topo.finish();
        Testbed {
            sim,
            client,
            cover,
            resolver,
            censor,
            inline_censor,
            surveillance,
            targets: config.targets.clone(),
            inboxes,
            client_ip,
            cover_ips,
            resolver_ip,
            collector_ip,
            mserver,
            mserver_ip,
        }
    }
}

/// Add the tap censor, then the surveillance node, with the config's
/// monitor knobs (reassembly limits, RST teardown, alert-first).
fn add_monitors(
    topo: &mut TopologyBuilder,
    config: &TestbedConfig,
    censor: &Arc<CompiledPolicy>,
    ruleset: &Arc<CompiledRuleset>,
) -> (NodeId, NodeId) {
    let mut tap = TapCensor::from_compiled("censor", censor.clone(), config.monitor_reassembly);
    tap.set_rst_teardown(config.censor_rst_teardown);
    let tap = topo.add_node(Box::new(tap));
    let mut surv_config = SurveillanceConfig::with_compiled(ruleset.clone());
    surv_config.alert_first = config.surveillance_alert_first;
    surv_config.reassembly = config.monitor_reassembly;
    let surveillance = topo.add_node(Box::new(SurveillanceNode::new("mvr", surv_config)));
    (tap, surveillance)
}

/// Wire the routed TTL chain of [`RoutedMimicryNet`] around the given
/// compiled monitors. It reads the config's monitor knobs and capture
/// flag only: the chain has no targets or cover population, and its links
/// are clean, so access-link impairment stays a flat-testbed knob.
pub(crate) fn wire_chain(
    seed: u64,
    config: &TestbedConfig,
    censor: &Arc<CompiledPolicy>,
    ruleset: &Arc<CompiledRuleset>,
) -> RoutedMimicryNet {
    let client_ip = CLIENT_IP;
    let cover_ip = Ipv4Addr::new(10, 0, 1, 77);
    let mserver_ip = MSERVER_IP;
    let home = Testbed::home_net();
    let world = Cidr::new(Ipv4Addr::new(198, 51, 100, 0), 24);

    let mut topo = TopologyBuilder::new(seed);
    if config.capture {
        topo.enable_capture();
    }
    let client = topo.add_host(Host::new("client", client_ip));
    let cover = topo.add_host(Host::new("neighbor-y", cover_ip));
    let mut mserver_host = Host::new("mserver", mserver_ip);
    // The mimic server task consumes everything addressed to its port;
    // anything else would draw kernel RSTs that confuse the traces.
    mserver_host.set_respond_rst(false);
    let mserver = topo.add_host(mserver_host);
    let (censor, surveillance) = add_monitors(&mut topo, config, censor, ruleset);

    let sw1 = topo.add_switch(Switch::new("sw1"));
    let r1 = topo.add_switch(Switch::router("r1", Ipv4Addr::new(192, 0, 2, 1)));
    let r2 = topo.add_switch(Switch::router("r2", Ipv4Addr::new(192, 0, 2, 2)));
    let r3 = topo.add_switch(Switch::router("r3", Ipv4Addr::new(192, 0, 2, 3)));
    let sw2 = topo.add_switch(Switch::new("sw2"));

    topo.attach_host(client, client_ip, sw1, LinkConfig::default())
        .expect("client");
    topo.attach_host(cover, cover_ip, sw1, LinkConfig::default())
        .expect("cover");
    topo.attach_host(mserver, mserver_ip, sw2, LinkConfig::default())
        .expect("mserver");
    topo.attach_tap(censor, r2, LinkConfig::ideal())
        .expect("censor tap");
    topo.attach_tap(surveillance, r2, LinkConfig::ideal())
        .expect("mvr tap");

    // Each hop forwards world-bound traffic up the chain and home-bound
    // traffic down it.
    for hop in [sw1, r1, r2, r3, sw2].windows(2) {
        let (up, down) = topo
            .trunk(hop[0], hop[1], LinkConfig::default())
            .expect("trunk");
        topo.route(hop[0], world, up);
        topo.route(hop[1], home, down);
    }

    RoutedMimicryNet {
        sim: topo.finish(),
        client,
        cover,
        censor,
        surveillance,
        mserver,
        client_ip,
        cover_ip,
        mserver_ip,
    }
}

/// The assembled testbed.
pub struct Testbed {
    /// The simulator (run it, then inspect).
    pub sim: Simulator,
    /// The measurement client host.
    pub client: NodeId,
    /// Cover hosts on the same access network.
    pub cover: Vec<NodeId>,
    /// The resolver host.
    pub resolver: NodeId,
    /// The off-path censor node.
    pub censor: NodeId,
    /// The inline censor node.
    pub inline_censor: NodeId,
    /// The surveillance node.
    pub surveillance: NodeId,
    /// Target sites.
    pub targets: Vec<TargetSite>,
    /// Per-target inboxes of mail delivered to the MX.
    pub inboxes: HashMap<String, Rc<RefCell<Vec<EmailMessage>>>>,
    /// The measurement client's address.
    pub client_ip: Ipv4Addr,
    /// Cover host addresses.
    pub cover_ips: Vec<Ipv4Addr>,
    /// The resolver's address.
    pub resolver_ip: Ipv4Addr,
    /// OONI-style collector address.
    pub collector_ip: Ipv4Addr,
    /// The measurer-controlled server (for stateful mimicry).
    pub mserver: NodeId,
    /// Its address.
    pub mserver_ip: Ipv4Addr,
}

impl Testbed {
    /// The access-network prefix clients live in.
    pub fn home_net() -> Cidr {
        Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)
    }

    /// Assemble the testbed. One-shot path; campaigns that build many
    /// testbeds for the same policy should [`TestbedTemplate::prepare`]
    /// once and [`TestbedTemplate::instantiate`] per seed instead.
    pub fn build(config: TestbedConfig) -> Testbed {
        let seed = config.seed;
        TestbedTemplate::prepare(config).instantiate(seed)
    }

    /// Spawn a task on the measurement client at `at`
    /// ([`Simulator::spawn_task`]: works before and between runs).
    pub fn spawn_on_client(&mut self, at: SimTime, task: Box<dyn HostTask>) -> usize {
        self.sim
            .spawn_task(self.client, at, task)
            .expect("client is a host")
    }

    /// A typed view of a client task after the run.
    pub fn client_task<T: HostTask>(&self, idx: usize) -> Option<&T> {
        self.sim.node_ref::<Host>(self.client)?.task_ref::<T>(idx)
    }

    /// The world's monitors: tap censor, inline censor, surveillance.
    pub fn monitors(&self) -> MonitorSet {
        MonitorSet {
            tap: self.censor,
            inline: Some(self.inline_censor),
            surveillance: self.surveillance,
        }
    }

    /// A target by domain string.
    pub fn target(&self, domain: &str) -> Option<&TargetSite> {
        self.targets.iter().find(|t| t.domain.to_string() == domain)
    }

    /// Mail delivered to a target's MX during the run.
    pub fn inbox(&self, domain: &str) -> Vec<EmailMessage> {
        self.inboxes
            .get(domain)
            .map(|rc| rc.borrow().clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_netsim::{ConnId, HostApi, TcpEvent};

    /// Fetches `path` from `target:80`, recording the response status and
    /// whether the flow was reset.
    struct Get {
        target: Ipv4Addr,
        path: &'static str,
        buf: Vec<u8>,
        status: Option<u16>,
        reset: bool,
    }

    impl Get {
        fn boxed(target: Ipv4Addr, path: &'static str) -> Box<Get> {
            Box::new(Get {
                target,
                path,
                buf: Vec::new(),
                status: None,
                reset: false,
            })
        }
    }

    impl HostTask for Get {
        fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
            api.tcp_connect(self.target, 80);
        }
        fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
            match ev {
                TcpEvent::Connected => {
                    let request = format!("GET {} HTTP/1.0\r\nHost: x\r\n\r\n", self.path);
                    api.tcp_send(conn, request.as_bytes())
                }
                TcpEvent::Data(d) => {
                    self.buf.extend_from_slice(&d);
                    if let Ok(r) = underradar_protocols::http::HttpResponse::parse(&self.buf) {
                        self.status = Some(r.status);
                    }
                }
                TcpEvent::Reset => self.reset = true,
                _ => {}
            }
        }
    }

    #[test]
    fn a_censor_action_concerns_the_site_it_names_or_addresses() {
        let twitter = TargetSite::numbered("twitter.com", 0);
        let bbc = TargetSite::numbered("bbc.com", 1);
        let action = |kind| CensorAction {
            time: SimTime::ZERO,
            kind,
            client: CLIENT_IP,
        };
        let forged = action(CensorActionKind::DnsInjection {
            name: twitter.mx_name.clone(),
            qtype: 1,
        });
        let reset = action(CensorActionKind::KeywordRst {
            keyword: "falun".into(),
            dst: bbc.web_ip,
        });
        assert!(twitter.concerns(&forged) && !bbc.concerns(&forged));
        assert!(bbc.concerns(&reset) && !twitter.concerns(&reset));
    }

    #[test]
    fn default_testbed_builds_and_routes_web_traffic() {
        let mut tb = Testbed::build(TestbedConfig::default());
        let bbc = tb.target("bbc.com").expect("bbc target").web_ip;
        tb.spawn_on_client(SimTime::ZERO, Get::boxed(bbc, "/"));
        tb.run_secs(10);
        let task = tb.client_task::<Get>(0).expect("task");
        assert_eq!(
            task.status,
            Some(200),
            "client can browse an uncensored site end-to-end"
        );
        assert!(!tb.censor_acted());
    }

    #[test]
    fn dns_resolution_works_through_the_testbed() {
        use underradar_protocols::dns::{DnsMessage, QType};
        struct Lookup {
            resolver: Ipv4Addr,
            answers: Vec<Ipv4Addr>,
        }
        impl HostTask for Lookup {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                let port = api.udp_bind(0).expect("bind");
                let q = DnsMessage::query(9, DnsName::parse("bbc.com").expect("n"), QType::A);
                api.udp_send(port, self.resolver, 53, q.encode());
            }
            fn on_udp(
                &mut self,
                _api: &mut HostApi<'_, '_>,
                _l: u16,
                _s: Ipv4Addr,
                _p: u16,
                payload: &[u8],
            ) {
                if let Ok(m) = DnsMessage::decode(payload) {
                    self.answers = m.a_records();
                }
            }
        }
        let mut tb = Testbed::build(TestbedConfig::default());
        let resolver = tb.resolver_ip;
        let expect = tb.target("bbc.com").expect("t").web_ip;
        tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(Lookup {
                resolver,
                answers: vec![],
            }),
        );
        tb.run_secs(5);
        assert_eq!(
            tb.client_task::<Lookup>(0).expect("t").answers,
            vec![expect]
        );
    }

    #[test]
    fn censored_keyword_triggers_censor_in_testbed() {
        let config = TestbedConfig {
            policy: CensorPolicy::new().block_keyword("falun"),
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(config);
        let web = tb.target("bbc.com").expect("t").web_ip;
        tb.spawn_on_client(SimTime::ZERO, Get::boxed(web, "/falun"));
        tb.run_secs(10);
        assert!(tb.client_task::<Get>(0).expect("t").reset);
        assert!(tb.censor_acted());
    }

    #[test]
    fn surveillance_observes_client_traffic() {
        let mut tb = Testbed::build(TestbedConfig::default());
        let web = tb.target("example.org").expect("t").web_ip;
        tb.spawn_on_client(SimTime::ZERO, Get::boxed(web, "/"));
        tb.run_secs(5);
        assert!(tb.surveillance().stats().observed > 0);
    }

    #[test]
    fn telemetry_covers_scheduler_censor_and_surveillance() {
        use underradar_netsim::telemetry::Telemetry;
        let config = TestbedConfig {
            policy: CensorPolicy::new().block_keyword("falun"),
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(config);
        let tel = Telemetry::enabled();
        tb.set_telemetry(tel.clone());
        let web = tb.target("bbc.com").expect("t").web_ip;
        tb.spawn_on_client(SimTime::ZERO, Get::boxed(web, "/falun"));
        tb.run_secs(10);
        tb.export_telemetry(&tel);
        let snap = tel.snapshot();
        assert!(snap.counter("netsim.events_processed") > 0);
        assert!(snap.counter("netsim.link.transmits") > 0);
        assert!(snap.counter("censor.tap.rst_injections") > 0);
        assert!(snap.counter("surveil.observed") > 0);
        assert!(
            snap.events.iter().any(|e| e.kind == "censor.tap.action"),
            "censor actions surface as structured events"
        );
        // Re-export only appends more events; counters stay identical.
        let before = snap.counters.clone();
        tb.export_telemetry(&tel);
        assert_eq!(tel.snapshot().counters, before);
    }

    #[test]
    fn every_event_samples_the_queue_depth_including_same_instant_deliveries() {
        use underradar_netsim::telemetry::Telemetry;
        let mut tb = Testbed::build(TestbedConfig::default());
        let tel = Telemetry::enabled();
        tb.set_telemetry(tel.clone());
        // Two packets reach the surveillance tap at one instant: each is
        // its own delivery event and its own queue-depth sample.
        let at = SimTime::ZERO + SimDuration::from_millis(5);
        for ident in [1, 2] {
            let pkt = underradar_netsim::packet::Packet::udp(
                tb.client_ip,
                tb.resolver_ip,
                4000,
                53,
                vec![],
            )
            .with_ident(ident);
            tb.sim
                .inject_at(tb.surveillance, IfaceId(0), pkt, at)
                .expect("surveillance node exists");
        }
        tb.run_secs(1);
        tb.export_telemetry(&tel);
        let snap = tel.snapshot();
        assert_eq!(tb.surveillance().stats().observed, 2);
        let events = snap.counter("netsim.events_processed");
        assert!(events >= 2);
        let depth = snap
            .histogram("netsim.queue.depth")
            .expect("queue depth sampled");
        assert_eq!(depth.count(), events);
    }

    #[test]
    fn monitor_reassembly_knob_reaches_every_monitor() {
        use underradar_ids::stream::ReassemblyConfig;
        use underradar_netsim::telemetry::Telemetry;
        let config = TestbedConfig {
            monitor_reassembly: ReassemblyConfig {
                max_flows: 1,
                ..ReassemblyConfig::default()
            },
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(config);
        let webs: Vec<Ipv4Addr> = ["bbc.com", "example.org", "twitter.com"]
            .iter()
            .map(|d| tb.target(d).expect("target").web_ip)
            .collect();
        for (i, web) in webs.into_iter().enumerate() {
            tb.spawn_on_client(
                SimTime::ZERO + SimDuration::from_secs(i as u64),
                Get::boxed(web, "/"),
            );
        }
        tb.run_secs(10);
        let tel = Telemetry::enabled();
        tb.export_telemetry(&tel);
        let snap = tel.snapshot();
        // Three concurrent-ish web flows through a capacity-1 table must
        // evict in each monitor's reassembler.
        for counter in [
            "censor.tap.flows.evicted",
            "censor.inline.flows.evicted",
            "ids.engine.flows.evicted",
        ] {
            assert!(snap.counter(counter) > 0, "{counter} saw no evictions");
        }
    }

    #[test]
    fn instantiations_share_the_compiled_monitors() {
        let template = TestbedTemplate::prepare(TestbedConfig {
            policy: CensorPolicy::new().block_keyword("falun"),
            ..TestbedConfig::default()
        });
        let compiled = || {
            let t = &template;
            (
                t.censor.get().is_some(),
                t.flat.get().is_some(),
                t.pages.get().is_some(),
                t.chain.get().is_some(),
            )
        };
        assert_eq!(
            compiled(),
            (false, false, false, false),
            "prepare compiles nothing"
        );
        let flat = (template.instantiate(1), template.instantiate(2));
        assert_eq!(compiled(), (true, true, true, false), "no routed world yet");
        let routed = template.instantiate_routed(3);
        let censor = template.censor.get().expect("compiled on first use");
        let (zone, ruleset) = template.flat.get().expect("compiled on first use");
        let (web_pages, collector_page) = template.pages.get().expect("rendered on first use");
        let chain = template.chain.get().expect("compiled on first use");
        // The template's handle plus one per live world: every world holds
        // the column's single compiled copy, and the tap censor's keyword
        // DFA is one copy across both topologies.
        assert_eq!(Arc::strong_count(censor), 4);
        assert_eq!(Arc::strong_count(ruleset), 3);
        assert_eq!(Arc::strong_count(zone), 3);
        assert_eq!(Arc::strong_count(chain), 2, "the chain's own ruleset");
        // Each flat world's listeners share the rendered responses.
        assert_eq!(Arc::strong_count(collector_page), 3);
        assert!(web_pages.iter().all(|page| Arc::strong_count(page) == 3));
        drop((flat, routed));
        assert_eq!(Arc::strong_count(censor), 1);
        assert_eq!(Arc::strong_count(ruleset), 1);
    }

    #[test]
    fn template_is_shareable_and_matches_direct_build() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TestbedTemplate>();

        let config = || TestbedConfig {
            policy: CensorPolicy::new().block_keyword("falun"),
            seed: 77,
            ..TestbedConfig::default()
        };
        let template = TestbedTemplate::prepare(config());
        let run = |mut tb: Testbed| {
            let web = tb.target("bbc.com").expect("t").web_ip;
            tb.spawn_on_client(SimTime::ZERO, Get::boxed(web, "/falun"));
            tb.run_secs(10);
            (
                tb.client_task::<Get>(0).expect("t").reset,
                tb.censor_actions().len(),
                tb.surveillance().stats().observed,
            )
        };
        assert_eq!(
            run(template.instantiate(77)),
            run(Testbed::build(config())),
            "template path reproduces the direct-build path exactly"
        );
    }

    #[test]
    fn smtp_delivery_reaches_inbox() {
        use underradar_protocols::smtp::SmtpClientMachine;
        struct Send {
            mx: Ipv4Addr,
            machine: SmtpClientMachine,
        }
        impl HostTask for Send {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.mx, 25);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                if let TcpEvent::Data(d) = ev {
                    let out = self.machine.on_data(&d);
                    if !out.is_empty() {
                        api.tcp_send(conn, &out);
                    }
                    if self.machine.is_done() {
                        api.tcp_close(conn);
                    }
                }
            }
        }
        let mut tb = Testbed::build(TestbedConfig::default());
        let mx = tb.target("twitter.com").expect("t").mx_ip;
        let msg = EmailMessage::new("a@b.c", "user@twitter.com", "hello", "body");
        tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(Send {
                mx,
                machine: SmtpClientMachine::new("probe", msg),
            }),
        );
        tb.run_secs(10);
        let inbox = tb.inbox("twitter.com");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].subject, "hello");
    }
}
