//! Calibrating the reply TTL for stateful mimicry (Figure 3b).
//!
//! Before running spoofed stateful measurements, the controlled server
//! must pick a reply TTL that crosses the surveillance/censorship taps but
//! dies before the spoofed neighbor ("Scanning the network from the server
//! could yield the number of hops ... making it possible to set reply TTLs
//! so they are dropped after they pass through the surveillance system but
//! before they reach the client", §4.1).
//!
//! This example performs that calibration empirically in the routed
//! topology: sweep TTLs, observe which ones leak to the neighbor (drawing
//! the fatal RST) and which never even reach the censor's vantage.
//!
//! ```sh
//! cargo run --example ttl_calibration
//! ```

use underradar::censor::CensorPolicy;
use underradar::core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
use underradar::netsim::host::Host;

const PORT: u16 = 7443;
const ISS: u32 = 0x0badcafe;

fn main() {
    println!("reply-TTL calibration for stateful mimicry");
    println!("topology: server -R3- R2[taps] -R1- switch - neighbor");
    println!();
    println!("ttl   tap sees reply   neighbor leak   neighbor RST   flow completed   usable");
    println!("--------------------------------------------------------------------------------");

    let mut best = None;
    for ttl in 1u8..=6 {
        let mut net = RoutedMimicryNet::build(42, CensorPolicy::new());
        net.sim.enable_capture();
        net.spawn(
            net.mserver,
            Box::new(MimicServer::new(PORT, ISS, Some(ttl))),
        );
        net.spawn(
            net.client,
            Box::new(StatefulMimicry::new(
                net.cover_ip,
                net.mserver_ip,
                PORT,
                ISS,
                b"calibration payload",
            )),
        );
        net.run_secs(10);

        let cap = net.sim.capture().expect("capture enabled");
        let tap_sees = cap.records().iter().any(|r| {
            r.to_node == net.censor
                && r.packet.src == net.mserver_ip
                && r.packet
                    .as_tcp()
                    .map(|t| t.flags.has_syn() && t.flags.has_ack())
                    .unwrap_or(false)
        });
        let cover = net.sim.node_ref::<Host>(net.cover).expect("cover host");
        let leak = cover.counters().tcp_in > 0;
        let rst = cover.counters().rst_sent > 0;
        let server = net.mserver_task::<MimicServer>(0).expect("server task");
        let completed = !server.received.is_empty() && !server.was_reset();
        let usable = tap_sees && !leak && completed;
        if usable && best.is_none() {
            best = Some(ttl);
        }
        println!(
            "{ttl:<5} {:<16} {:<15} {:<14} {:<16} {}",
            tap_sees,
            leak,
            rst,
            completed,
            if usable { "<= USE THIS" } else { "" }
        );
    }

    match best {
        Some(ttl) => println!(
            "\ncalibrated reply TTL: {ttl} (observed by monitors at R2, dead before the neighbor)"
        ),
        None => println!("\nno usable TTL found — check the topology's hop counts"),
    }
}
