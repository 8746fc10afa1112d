//! E14 — population-scale monitor core.
//!
//! The paper's evasion story (§2–§3) is a population-scale phenomenon: a
//! handful of measurement clients hide inside the ordinary traffic of
//! thousands of monitored hosts. This experiment drives the redesigned
//! hot path end to end: one detection engine carries 100k+ concurrent
//! flows through the generational arena flow table, with the batched
//! packet API, and the report asserts
//!
//! 1. **scale** — every flow stays resident (no evictions) under an
//!    explicit per-flow memory budget;
//! 2. **batch equivalence** — `process_batch` produces byte-identical
//!    verdicts to per-packet `process`;
//! 3. **shard identity** — partitioning flows across 4 independent
//!    engines and merging their alerts reproduces the 1-engine output
//!    byte for byte (per-flow state makes flow-partitioning exact);
//! 4. **hiding** — only the measurement clients draw alerts; the
//!    population contributes bulk, not noise.
//!
//! Wall-clock packets/sec goes to stderr so stdout stays deterministic.

use std::net::Ipv4Addr;

use underradar_ids::alert::Alert;
use underradar_ids::engine::DetectionEngine;
use underradar_ids::parser::{parse_ruleset, VarTable};
use underradar_ids::rule::Rule;
use underradar_ids::stream::ReassemblyConfig;
use underradar_netsim::addr::Cidr;
use underradar_netsim::flow::FlowTuple;
use underradar_netsim::packet::Packet;
use underradar_netsim::rng::SimRng;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::wire::tcp::TcpFlags;
use underradar_workloads::population::{PopulationConfig, PopulationTraffic};

use crate::experiments::{Claims, Outcome};
use crate::table::{heading, Table};

/// Concurrent-flow target (the ≥100k acceptance bar plus slack).
const FLOWS: usize = 120_000;
/// Per-flow memory budget in bytes (arena slot + dir buffers + engine
/// match state, amortized over live flows).
const PER_FLOW_BUDGET: usize = 1024;
/// Measurement hosts hiding in the population.
const MEASUREMENT_HOSTS: usize = 4;
/// Probe flows per measurement host.
const PROBES_PER_HOST: usize = 2;
/// Shards for the partition-identity check.
const SHARDS: usize = 4;

fn ruleset() -> Vec<Rule> {
    parse_ruleset(
        r#"alert tcp any any -> any 80 (msg:"censored keyword"; content:"falun"; nocase; sid:1400;)
alert tcp any any -> any 80 (msg:"censored keyword (stream)"; flow:established,to_server; content:"falun"; sid:1401;)"#,
        &VarTable::default(),
    )
    .expect("e14 ruleset parses")
}

/// One packet of the generated load with its delivery instant.
struct Timed {
    time: SimTime,
    packet: Packet,
}

struct ScaleLoad {
    /// Time-sorted stream (stable order; equal instants form one batch).
    stream: Vec<Timed>,
    hosts: usize,
    measurement_ips: Vec<Ipv4Addr>,
}

/// Build the load: [`FLOWS`] concurrent client flows (SYN / SYN-ACK / ACK /
/// one data segment, round-major so every flow is open at once), a
/// handful of measurement probes requesting the censored path, and the
/// default population mix on a neighbouring prefix.
fn generate() -> ScaleLoad {
    let prefix = Cidr::slash16(Ipv4Addr::new(10, 30, 0, 0));
    let hosts = (FLOWS / 64).clamp(64, 60_000);
    let probes = MEASUREMENT_HOSTS * PROBES_PER_HOST;
    let measurement_ips: Vec<Ipv4Addr> = (0..MEASUREMENT_HOSTS)
        .map(|m| prefix.nth((hosts + 1 + m) as u64))
        .collect();

    let mut stream = Vec::with_capacity(FLOWS * 4 + 4096);
    // Round r of the handshake script for every flow shares one instant:
    // the engine sees FLOWS same-time packets per round, one maximal
    // run for `DetectionEngine::process_batch`.
    for round in 0..4u64 {
        let t = SimTime::from_nanos(round * 1_000_000_000);
        for i in 0..FLOWS {
            let probe = i >= FLOWS - probes;
            let (src, sport) = if probe {
                let m = i - (FLOWS - probes);
                (
                    measurement_ips[m % MEASUREMENT_HOSTS],
                    40_000 + (m / MEASUREMENT_HOSTS) as u16,
                )
            } else {
                (
                    prefix.nth((1 + i % hosts) as u64),
                    10_000 + (i / hosts) as u16,
                )
            };
            let dst = PopulationTraffic::domain_ip(i % 500);
            let packet = match round {
                0 => Packet::tcp(src, dst, sport, 80, 0, 0, TcpFlags::syn(), vec![]),
                1 => Packet::tcp(dst, src, 80, sport, 0, 1, TcpFlags::syn_ack(), vec![]),
                2 => Packet::tcp(src, dst, sport, 80, 1, 1, TcpFlags::ack(), vec![]),
                _ => {
                    let path = if probe {
                        "/falun".to_string()
                    } else {
                        format!("/page{i}")
                    };
                    Packet::tcp(
                        src,
                        dst,
                        sport,
                        80,
                        1,
                        1,
                        TcpFlags::psh_ack(),
                        format!("GET {path} HTTP/1.0\r\n\r\n").into_bytes(),
                    )
                }
            };
            stream.push(Timed { time: t, packet });
        }
    }

    // Ambient population on a neighbouring /16 — bulk the monitors chew
    // through while the probe flows stay resident.
    let mut rng = SimRng::seed_from_u64(1400);
    let population = PopulationTraffic::generate(
        &PopulationConfig {
            clients: 2000,
            client_prefix: Cidr::slash16(Ipv4Addr::new(10, 31, 0, 0)),
            duration: SimDuration::from_secs(30),
            ..PopulationConfig::default()
        },
        &mut rng,
    );
    stream.extend(population.into_iter().map(|tp| Timed {
        time: tp.time,
        packet: tp.packet,
    }));
    // Stable: equal instants keep generation order, so every processing
    // mode walks the identical sequence.
    stream.sort_by_key(|t| t.time);

    ScaleLoad {
        stream,
        hosts: hosts + MEASUREMENT_HOSTS,
        measurement_ips,
    }
}

fn scale_engine(flows: usize) -> DetectionEngine {
    DetectionEngine::with_reassembly(
        ruleset(),
        ReassemblyConfig {
            // Headroom over the synthetic flows for the population's own
            // TCP flows; the run asserts zero evictions.
            max_flows: flows + 64_000,
            ..ReassemblyConfig::default()
        },
    )
}

/// Feed the whole stream through `engine`, handing each maximal
/// equal-time run to `DetectionEngine::process_batch` in one call.
fn run_batched(engine: &mut DetectionEngine, stream: &[Timed], out: &mut Vec<Alert>) {
    let mut i = 0;
    let mut batch: Vec<Packet> = Vec::new();
    while i < stream.len() {
        let t = stream[i].time;
        let mut j = i;
        while j < stream.len() && stream[j].time == t {
            j += 1;
        }
        batch.clear();
        batch.extend(stream[i..j].iter().map(|p| p.packet.clone()));
        engine.process_batch(t, &batch, out);
        i = j;
    }
}

/// Canonical flow-partition index: both directions of a flow land on the
/// same shard, so flow-scoped engine state never splits.
fn shard_of(packet: &Packet, shards: usize) -> usize {
    let key = FlowTuple::of_packet(packet).canonical();
    let mut h = u64::from(u32::from(key.lo.0)) ^ (u64::from(u32::from(key.hi.0)) << 20);
    h ^= (u64::from(key.lo.1) << 44) ^ (u64::from(key.hi.1) << 8);
    // splitmix64 finisher — spreads adjacent addresses across shards.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    (h ^ (h >> 31)) as usize % shards
}

fn alert_line(a: &Alert) -> String {
    format!(
        "t={} sid={} src={} sport={}",
        a.time.as_nanos(),
        a.sid,
        a.src,
        a.src_port.map(i64::from).unwrap_or(-1),
    )
}

/// Merged, order-canonical rendering of an alert set (sharding changes
/// arrival interleaving, never the set).
fn canonical_render(alerts: &[Alert]) -> String {
    let mut lines: Vec<String> = alerts.iter().map(alert_line).collect();
    lines.sort();
    lines.join("\n")
}

/// Run E14 at 120,000 concurrent flows and render its report,
/// recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E14",
        "population-scale monitor core (arena flows, batched packets)",
        "one engine holds every concurrent flow in bounded memory; batch,\n\
         per-packet, and flow-sharded processing agree byte for byte",
    );
    let load = generate();
    let packets = load.stream.len();

    // --- 1: scale through the batched path ---
    let mut engine = scale_engine(FLOWS);
    let mut batched_alerts = Vec::new();
    let wall = std::time::Instant::now();
    run_batched(&mut engine, &load.stream, &mut batched_alerts);
    let elapsed = wall.elapsed();
    // Wall-clock throughput is machine-dependent: stderr only.
    eprintln!(
        "e14_scale: {} packets in {:.3}s ({:.0} pkts/sec)",
        packets,
        elapsed.as_secs_f64(),
        packets as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    let held = engine.live_flows();
    let evicted = engine.reassembly_stats().evicted;
    let per_flow = engine.flow_memory_bytes() / held.max(1);
    let mut claims = Claims::default();
    claims.check("scale: every flow stays resident", held >= FLOWS);
    claims.check("scale: no flow is evicted", evicted == 0);
    claims.check("scale: memory in budget", per_flow <= PER_FLOW_BUDGET);

    let mut t = Table::new(&["population-scale run", "value"]);
    t.row(&["monitored hosts".to_string(), load.hosts.to_string()]);
    t.row(&["concurrent client flows".to_string(), FLOWS.to_string()]);
    t.row(&["packets processed".to_string(), packets.to_string()]);
    t.row(&["flows resident at end".to_string(), held.to_string()]);
    t.row(&["flows evicted".to_string(), evicted.to_string()]);
    t.row(&[
        format!("per-flow memory (budget {PER_FLOW_BUDGET} B)"),
        format!("{per_flow} B"),
    ]);
    out.push_str(&t.render());

    // --- 2: batch vs per-packet verdict identity ---
    let mut per_packet = scale_engine(FLOWS);
    let mut pp_alerts = Vec::new();
    for p in &load.stream {
        pp_alerts.extend(per_packet.process(p.time, &p.packet));
    }
    let batch_ok = batched_alerts
        .iter()
        .map(alert_line)
        .eq(pp_alerts.iter().map(alert_line))
        && engine.stats().alerts == per_packet.stats().alerts
        && engine.stats().packets == per_packet.stats().packets;
    claims.check("batched vs per-packet verdicts: identical", batch_ok);
    out.push_str(&format!(
        "\nbatched vs per-packet verdicts: {} ({} alerts)\n",
        if batch_ok { "identical" } else { "DIVERGED" },
        batched_alerts.len(),
    ));

    // --- 3: 1-vs-N-shard byte identity ---
    let mut shards: Vec<DetectionEngine> =
        (0..SHARDS).map(|_| scale_engine(FLOWS / SHARDS)).collect();
    let mut shard_alerts: Vec<Alert> = Vec::new();
    for p in &load.stream {
        let s = shard_of(&p.packet, SHARDS);
        shard_alerts.extend(shards[s].process(p.time, &p.packet));
    }
    let one = canonical_render(&batched_alerts);
    let many = canonical_render(&shard_alerts);
    let shard_ok = claims.check("1-vs-4-shard output: byte-identical", one == many);
    out.push_str(&format!(
        "1-shard vs {SHARDS}-shard merged output: {}\n",
        if shard_ok {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    ));

    // --- 4: the measurement clients hide in the population ---
    let mut alert_srcs: Vec<Ipv4Addr> = batched_alerts.iter().map(|a| a.src).collect();
    alert_srcs.sort();
    alert_srcs.dedup();
    let mut expected = load.measurement_ips.clone();
    expected.sort();
    let hiding_ok = alert_srcs == expected;
    claims.check("hiding: only measurement clients alert", hiding_ok);
    out.push_str(&format!(
        "\nalerting hosts: {} of {} ({} measurement clients, {} probe flows, {:.4}% of flows)\n",
        alert_srcs.len(),
        load.hosts,
        MEASUREMENT_HOSTS,
        MEASUREMENT_HOSTS * PROBES_PER_HOST,
        100.0 * (MEASUREMENT_HOSTS * PROBES_PER_HOST) as f64 / FLOWS as f64,
    ));
    out.push_str("population traffic drew zero alerts; every alert names a measurement client\n");

    tel.set_counter("e14.scale.hosts", load.hosts as u64);
    tel.set_counter("e14.scale.flows", FLOWS as u64);
    tel.set_counter("e14.scale.packets", packets as u64);
    tel.set_gauge("e14.scale.per_flow_bytes", per_flow as i64);
    tel.set_counter("e14.scale.alerts", batched_alerts.len() as u64);
    engine.export_telemetry(tel, "e14.engine");

    claims.conclude(
        out,
        &format!("population-scale core holds {} flows in budget", FLOWS),
    )
}
