//! E7 — **Figure 3b**: stateful mimicry with TTL-limited replies.
//!
//! "the measurement client spoofs a SYN from another client in the AS, the
//! measurement server responds to the spoofed client with a TTL limited
//! query which dies in the network, and the measurement client sends an
//! ACK."
//!
//! Sweep the server's reply TTL across the routed topology
//! (`server - R3 - R2[taps] - R1 - switch - Y`) and record, per TTL:
//! whether the monitors at R2 saw the reply, whether the spoofed neighbor
//! Y received it (the replay hazard), whether Y RST the flow, and whether
//! the keyword measurement still detected censorship.

use underradar_censor::CensorPolicy;
use underradar_core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
use underradar_netsim::host::Host;

use crate::experiments::{Claims, Outcome};
use crate::table::{heading, mark, Table};

const PORT: u16 = 7443;
const ISS: u32 = 0x5151_aaaa;

struct TtlOutcome {
    tap_saw_reply: bool,
    neighbor_got_reply: bool,
    neighbor_rst: bool,
    server_got_data: bool,
    censor_detected: bool,
    flow_reset: bool,
}

fn run_ttl(
    tel: &underradar_telemetry::Telemetry,
    reply_ttl: Option<u8>,
    keyword_blocked: bool,
) -> TtlOutcome {
    let policy = if keyword_blocked {
        CensorPolicy::new().block_keyword("falun")
    } else {
        CensorPolicy::new()
    };
    let mut net = RoutedMimicryNet::build(17, policy);
    net.sim.enable_capture();
    let scope = tel.scope();
    net.set_telemetry(scope.clone());
    net.spawn(
        net.mserver,
        Box::new(MimicServer::new(PORT, ISS, reply_ttl)),
    );
    let payload: &[u8] = if keyword_blocked {
        b"GET /falun HTTP/1.0\r\n\r\n"
    } else {
        b"GET /weather HTTP/1.0\r\n\r\n"
    };
    net.spawn(
        net.client,
        Box::new(StatefulMimicry::new(
            net.cover_ip,
            net.mserver_ip,
            PORT,
            ISS,
            payload,
        )),
    );
    net.run_secs(10);

    let cap = net.sim.capture().expect("capture enabled");
    let tap_saw_reply = cap.records().iter().any(|r| {
        r.to_node == net.surveillance
            && r.packet.src == net.mserver_ip
            && r.packet
                .as_tcp()
                .map(|t| t.flags.has_syn() && t.flags.has_ack())
                .unwrap_or(false)
    });
    let cover_host = net.sim.node_ref::<Host>(net.cover).expect("cover");
    let server = net.mserver_task::<MimicServer>(0).expect("server task");
    net.export_telemetry(&scope);
    tel.absorb(&scope);
    TtlOutcome {
        tap_saw_reply,
        neighbor_got_reply: cover_host.counters().tcp_in > 0,
        neighbor_rst: cover_host.counters().rst_sent > 0,
        server_got_data: !server.received.is_empty(),
        censor_detected: net.censor_acted(),
        flow_reset: server.was_reset(),
    }
}

/// Run E7 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E7",
        "Figure 3b (§4.1 stateful mimicry, TTL-limited replies)",
        "replies die after the surveillance tap but before the spoofed client",
    );
    out.push_str(&format!(
        "topology: server -R3- R2[taps] -R1- switch - neighbor Y  \
         (tap at {} hops, Y at {} hops)\n\n",
        RoutedMimicryNet::HOPS_TO_TAP,
        RoutedMimicryNet::HOPS_TO_COVER
    ));

    out.push_str("reply-TTL sweep (no censorship):\n");
    let mut sweep = Table::new(&[
        "reply TTL",
        "tap sees reply",
        "Y receives reply",
        "Y sends RST (replay!)",
        "flow survives",
    ]);
    let mut claims = Claims::default();
    for ttl in 1u8..=5 {
        let o = run_ttl(tel, Some(ttl), false);
        if ttl == RoutedMimicryNet::HOPS_TO_COVER {
            claims.check("calibrated TTL: the tap sees the reply", o.tap_saw_reply);
            claims.check("calibrated TTL: no reply reaches Y", !o.neighbor_got_reply);
            claims.check("calibrated TTL: the flow survives", !o.flow_reset);
        }
        sweep.row(&[
            ttl.to_string(),
            mark(o.tap_saw_reply).to_string(),
            mark(o.neighbor_got_reply).to_string(),
            mark(o.neighbor_rst).to_string(),
            mark(o.server_got_data && !o.flow_reset).to_string(),
        ]);
    }
    let unlimited = run_ttl(tel, None, false);
    sweep.row(&[
        "64 (unlimited)".to_string(),
        mark(unlimited.tap_saw_reply).to_string(),
        mark(unlimited.neighbor_got_reply).to_string(),
        mark(unlimited.neighbor_rst).to_string(),
        mark(unlimited.server_got_data && !unlimited.flow_reset).to_string(),
    ]);
    out.push_str(&sweep.render());

    out.push_str("\nkeyword measurement at the sweet-spot TTL vs unlimited TTL:\n");
    let mut acc = Table::new(&[
        "reply TTL",
        "censor injected RST",
        "server-side verdict correct",
    ]);
    // The sweet-spot run is one campaign cell: the engine's stateful
    // driver always replies at the calibrated TTL, so a keyword policy
    // plus a keyword-bearing probe path reproduces this row.
    let spec = underradar_campaign::CampaignSpec::new("e07-stateful", 17)
        .target("twitter.com")
        .method(underradar_campaign::MethodKind::Stateful)
        .policy(
            underradar_campaign::NamedPolicy::new(
                "keyword-rst",
                CensorPolicy::new().block_keyword("falun"),
            )
            .with_probe_path("/falun"),
        )
        .run_secs(10);
    let (_, trials) = crate::experiments::campaign::run_campaign(&spec, 1, tel);
    let sweet = &trials[0];
    let sweet_reset = crate::experiments::campaign::evidence(sweet, "was_reset") == "true";
    acc.row(&[
        RoutedMimicryNet::HOPS_TO_COVER.to_string(),
        mark(sweet_reset).to_string(),
        mark(sweet.verdict_correct).to_string(),
    ]);
    let replay = run_ttl(tel, None, true);
    acc.row(&[
        "64 (unlimited)".to_string(),
        mark(replay.censor_detected).to_string(),
        // With replay, Y's RST also resets the flow, so the server cannot
        // distinguish censorship from the replay artifact.
        format!("{} (confounded by Y's RST)", mark(false)),
    ]);
    out.push_str(&acc.render());

    claims.check("censor resets the keyword flow", sweet_reset);
    claims.check("calibrated-TTL verdict is correct", sweet.verdict_correct);
    claims.check("unlimited TTL: Y replays a RST", unlimited.neighbor_rst);
    claims.conclude(
        out,
        "TTL window exists and enables censorship measurement without replay",
    )
}
