//! The four workloads, generated from the seed. The program under test
//! receives only what these functions build: a `CampaignSpec` for the
//! campaign workloads, time-batched packets for the monitor.

use std::net::Ipv4Addr;

use underradar_bench::experiments::campaign::paper_campaign;
use underradar_campaign::{CampaignSpec, MethodKind};
use underradar_ids::engine::DetectionEngine;
use underradar_ids::parser::{parse_ruleset, VarTable};
use underradar_ids::stream::ReassemblyConfig;
use underradar_netsim::addr::Cidr;
use underradar_netsim::packet::Packet;
use underradar_netsim::rng::SimRng;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::wire::tcp::TcpFlags;
use underradar_workloads::population::{PopulationConfig, PopulationTraffic};

pub const NAMES: [&str; 4] = [
    "paper_mix",
    "stealth_journal",
    "audit_telemetry",
    "monitor_population",
];

/// Worker threads for the untraced runs: the machine this benchmark was
/// defined on has 2 cores, and the closed loop needs no more.
pub const WORKERS: usize = 2;

/// Full size, or the toy size the tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

/// What a campaign workload turns on around `run_service`.
pub struct CampaignLoad {
    pub name: &'static str,
    pub spec: CampaignSpec,
    /// Checkpoint journal plus a JSONL row file (stealth_journal).
    pub durable: bool,
    /// Telemetry on, registry rendered, safety audit built (audit_telemetry).
    pub audit: bool,
}

/// The §4 methods, whose trials are the cheapest.
const STEALTH_METHODS: [MethodKind; 4] = [
    MethodKind::StatelessDns,
    MethodKind::StatelessSyn,
    MethodKind::Hops,
    MethodKind::Stateful,
];

/// The campaign workload `name`, or `None` when `name` is not one.
pub fn campaign(name: &str, seed: u64, size: Size) -> Option<CampaignLoad> {
    let toy = size == Size::Toy;
    let (mut spec, durable, audit) = match name {
        // 8 methods × 4 policies × 4 targets × 160 seeds = 20,480 trials.
        "paper_mix" => (paper_campaign(if toy { 1 } else { 160 }), false, false),
        // 4 methods × 2 policies × 4 targets × 2,500 seeds = 80,000 trials.
        "stealth_journal" => {
            let mut spec = paper_campaign(if toy { 2 } else { 2500 });
            spec.methods = STEALTH_METHODS.to_vec();
            spec.policies
                .retain(|p| p.name == "control" || p.name == "keyword-rst");
            (spec, true, false)
        }
        // The paper matrix at 96 seeds = 12,288 trials, telemetry on.
        "audit_telemetry" => (paper_campaign(if toy { 1 } else { 96 }), false, true),
        _ => return None,
    };
    if toy && spec.methods.len() == MethodKind::ALL.len() {
        // 8 methods × 4 policies × 2 targets = 64 trials.
        spec.targets.truncate(2);
    }
    spec.name = name.to_string();
    spec.master_seed = seed;
    Some(CampaignLoad {
        name: NAMES.iter().copied().find(|n| *n == name)?,
        spec,
        durable,
        audit,
    })
}

/// Which part of the population replay a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClass {
    /// SYN, SYN-ACK or ACK of every synthetic flow at one instant.
    Handshake,
    /// The one GET of every synthetic flow.
    Data,
    /// Ambient population traffic between the rounds.
    Population,
}

pub struct Batch {
    pub time: SimTime,
    pub class: BatchClass,
    pub packets: Vec<Packet>,
}

/// The monitor workload: E14's shape, regenerated from the seed.
pub struct MonitorLoad {
    pub batches: Vec<Batch>,
    pub packets: usize,
    pub flows: usize,
    pub measurement_ips: Vec<Ipv4Addr>,
}

const MEASUREMENT_HOSTS: usize = 4;
const PROBES_PER_HOST: usize = 2;

const MONITOR_RULES: &str = r#"alert tcp any any -> any 80 (msg:"censored keyword"; content:"falun"; nocase; sid:1400;)
alert tcp any any -> any 80 (msg:"censored keyword (stream)"; flow:established,to_server; content:"falun"; sid:1401;)"#;

/// Parse the monitor's rules and build a fresh engine with room for every
/// flow of the load: the monitor's set-up.
pub fn monitor_engine(flows: usize) -> DetectionEngine {
    let rules = parse_ruleset(MONITOR_RULES, &VarTable::default()).expect("monitor rules parse");
    DetectionEngine::with_reassembly(
        rules,
        ReassemblyConfig {
            // Headroom over the synthetic flows for the population's own
            // TCP flows; every pass checks that nothing was evicted.
            max_flows: flows + 64_000,
            ..ReassemblyConfig::default()
        },
    )
}

/// 120,000 concurrent flows (SYN, SYN-ACK, ACK, one GET; round-major so
/// every flow is open at once), 8 of them keyword probes from 4
/// measurement hosts, plus 30 s of ambient traffic from 2,000 clients.
/// The seed draws the prefixes, which flows are probes and each flow's
/// server.
pub fn monitor(seed: u64, size: Size) -> MonitorLoad {
    let (flows, clients, secs) = match size {
        Size::Full => (120_000, 2000, 30),
        Size::Toy => (2_000, 100, 5),
    };
    let mut rng = SimRng::seed_from_u64(seed);
    let prefix = Cidr::slash16(Ipv4Addr::new(10, 30 + rng.index(40) as u8, 0, 0));
    let population_prefix = Cidr::slash16(Ipv4Addr::new(10, 80 + rng.index(40) as u8, 0, 0));
    let hosts = (flows / 64).clamp(64, 60_000);
    let measurement_ips: Vec<Ipv4Addr> = (0..MEASUREMENT_HOSTS)
        .map(|m| prefix.nth((hosts + 1 + m) as u64))
        .collect();
    let mut probe_of = vec![None; flows];
    let mut placed = 0;
    while placed < MEASUREMENT_HOSTS * PROBES_PER_HOST {
        let i = rng.index(flows);
        if probe_of[i].is_none() {
            probe_of[i] = Some(placed);
            placed += 1;
        }
    }
    let servers: Vec<Ipv4Addr> = (0..flows)
        .map(|_| PopulationTraffic::domain_ip(rng.index(500)))
        .collect();

    let mut batches = Vec::new();
    for round in 0..4u64 {
        let mut packets = Vec::with_capacity(flows);
        for i in 0..flows {
            let (src, sport) = match probe_of[i] {
                Some(m) => (
                    measurement_ips[m % MEASUREMENT_HOSTS],
                    40_000 + (m / MEASUREMENT_HOSTS) as u16,
                ),
                None => (
                    prefix.nth((1 + i % hosts) as u64),
                    10_000 + (i / hosts) as u16,
                ),
            };
            let dst = servers[i];
            packets.push(match round {
                0 => Packet::tcp(src, dst, sport, 80, 0, 0, TcpFlags::syn(), vec![]),
                1 => Packet::tcp(dst, src, 80, sport, 0, 1, TcpFlags::syn_ack(), vec![]),
                2 => Packet::tcp(src, dst, sport, 80, 1, 1, TcpFlags::ack(), vec![]),
                _ => {
                    let path = match probe_of[i] {
                        Some(_) => "/falun".to_string(),
                        None => format!("/page{i}"),
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
            });
        }
        batches.push(Batch {
            time: SimTime::from_nanos(round * 1_000_000_000),
            class: if round < 3 {
                BatchClass::Handshake
            } else {
                BatchClass::Data
            },
            packets,
        });
    }

    let mut population_rng = rng.fork();
    let population = PopulationTraffic::generate(
        &PopulationConfig {
            clients,
            client_prefix: population_prefix,
            duration: SimDuration::from_secs(secs),
            ..PopulationConfig::default()
        },
        &mut population_rng,
    );
    let rounds = batches.len();
    for tp in population {
        // Equal instants form one batch, the shape the simulator's
        // `drain_batch` hands a node; a population packet that lands on a
        // round's instant joins that round's batch. The population comes
        // sorted by time, so its own batches only ever grow at the end.
        if let Some(b) = batches[..rounds].iter_mut().find(|b| b.time == tp.time) {
            b.packets.push(tp.packet);
            continue;
        }
        match batches.last_mut() {
            Some(b) if b.class == BatchClass::Population && b.time == tp.time => {
                b.packets.push(tp.packet)
            }
            _ => batches.push(Batch {
                time: tp.time,
                class: BatchClass::Population,
                packets: vec![tp.packet],
            }),
        }
    }
    // Stable: the rounds keep their place among equal instants.
    batches.sort_by_key(|b| b.time);
    let packets = batches.iter().map(|b| b.packets.len()).sum();
    MonitorLoad {
        batches,
        packets,
        flows,
        measurement_ips,
    }
}
