//! §4.1's fronting remark: "The use of specially crafted Web requests and
//! the use of domain fronting may also make it possible to create a wide
//! range of stateful mimicry traffic."
//!
//! Model: the censor filters HTTP by the domain appearing in the request
//! (Host header / URL). A fronted request reaches the measurement endpoint
//! through a shared cloud IP while its visible Host header names an
//! innocuous domain — the censor's string matching finds nothing.

use std::net::Ipv4Addr;

use underradar::censor::CensorPolicy;
use underradar::core::testbed::{Testbed, TestbedConfig};
use underradar::netsim::time::SimTime;
use underradar::netsim::{ConnId, HostApi, HostTask, TcpEvent};
use underradar::protocols::http::{HttpRequest, HttpResponse};

/// Fetch `path` from `target` with an arbitrary Host header.
struct FrontedFetch {
    target: Ipv4Addr,
    host_header: String,
    path: String,
    status: Option<u16>,
    reset: bool,
    buf: Vec<u8>,
}

impl FrontedFetch {
    fn new(target: Ipv4Addr, host_header: &str, path: &str) -> Self {
        FrontedFetch {
            target,
            host_header: host_header.to_string(),
            path: path.to_string(),
            status: None,
            reset: false,
            buf: Vec::new(),
        }
    }
}

impl HostTask for FrontedFetch {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.tcp_connect(self.target, 443);
    }
    fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
        match ev {
            TcpEvent::Connected => {
                let req = HttpRequest::render_get(&self.host_header, &self.path, &[]);
                api.tcp_send(conn, &req);
            }
            TcpEvent::Data(d) => {
                self.buf.extend_from_slice(&d);
                if let Ok(resp) = HttpResponse::parse(&self.buf) {
                    self.status = Some(resp.status);
                }
            }
            TcpEvent::Reset => self.reset = true,
            _ => {}
        }
    }
}

fn run_fetch(policy: CensorPolicy, host_header: &str) -> (Option<u16>, bool) {
    let mut tb = Testbed::build(TestbedConfig {
        policy,
        seed: 400,
        ..TestbedConfig::default()
    });
    // The collector host doubles as the shared cloud frontend (port 443
    // serves content regardless of Host header, like a CDN edge).
    let edge = tb.collector_ip;
    let idx = tb.spawn_on_client(
        SimTime::ZERO,
        Box::new(FrontedFetch::new(edge, host_header, "/")),
    );
    tb.run_secs(20);
    let host = tb
        .sim
        .node_ref::<underradar::netsim::Host>(tb.client)
        .expect("client");
    let task = host.task_ref::<FrontedFetch>(idx).expect("task");
    (task.status, task.reset)
}

#[test]
fn naming_the_blocked_domain_gets_the_flow_killed() {
    // The censor string-matches the blocked domain anywhere in TCP payload.
    let policy = CensorPolicy::new().block_keyword("blocked-news.example");
    let (status, reset) = run_fetch(policy, "blocked-news.example");
    assert!(reset, "overt Host header draws the RST");
    assert_eq!(status, None);
}

#[test]
fn fronted_request_to_the_same_edge_passes() {
    let policy = CensorPolicy::new().block_keyword("blocked-news.example");
    let (status, reset) = run_fetch(policy, "cdn-assets.example");
    assert!(!reset, "innocuous front evades the string matcher");
    assert_eq!(
        status,
        Some(200),
        "same edge IP, same content, no interference"
    );
}

#[test]
fn fronting_defeats_url_filtering_too() {
    let policy = CensorPolicy::new().block_url("/banned-report");
    // The fronted request hides the real resource behind an innocuous path
    // (the mapping happens at the edge, out of the censor's sight).
    let (status, reset) = run_fetch(policy, "cdn-assets.example");
    assert!(!reset);
    assert_eq!(status, Some(200));
}
