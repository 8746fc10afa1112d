//! The engine's method table is the one place that maps a `MethodKind` to
//! the probe it spawns and reads back. These tests pin that mapping from
//! the outside: every row must come from a probe whose `Probe::label`
//! is the row's method label, and a task spawned into a routed world
//! that has already run must still start.

use std::net::Ipv4Addr;

use underradar_campaign::engine::{self, ScopeConfig};
use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
use underradar_censor::CensorPolicy;
use underradar_core::methods::ddos::DdosProbe;
use underradar_core::methods::hops::HopProbe;
use underradar_core::methods::overt::OvertProbe;
use underradar_core::methods::scan::SynScanProbe;
use underradar_core::methods::spam::SpamProbe;
use underradar_core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
use underradar_core::methods::stateless::{StatelessDnsMimicry, StatelessSynMimicry};
use underradar_core::probe::Probe;
use underradar_protocols::dns::{DnsName, QType};
use underradar_telemetry::Telemetry;

/// The evidence keys a probe reports, which are fixed per probe type and
/// so identify the probe that produced a row.
fn keys(evidence: &[(&'static str, String)]) -> Vec<&'static str> {
    evidence.iter().map(|(k, _)| *k).collect()
}

#[test]
fn every_row_comes_from_a_probe_with_its_methods_label() {
    let ip = Ipv4Addr::new(192, 0, 2, 1);
    let name = DnsName::parse("example.org").expect("name");
    let probes: Vec<Box<dyn Probe>> = vec![
        Box::new(OvertProbe::new(&name, ip, ip, "/")),
        Box::new(SynScanProbe::new(ip, vec![80], vec![80])),
        Box::new(SpamProbe::new(&name, ip, 0)),
        Box::new(DdosProbe::new(ip, "example.org", "/", 3)),
        Box::new(HopProbe::new(ip, 80, 4)),
        Box::new(StatelessDnsMimicry::new(&name, QType::A, ip, vec![])),
        Box::new(StatelessSynMimicry::new(ip, 80, vec![])),
        Box::new(StatefulMimicry::new(ip, ip, 443, 1, b"x")),
        Box::new(MimicServer::new(443, 1, None)),
    ];
    let spec = CampaignSpec::new("method-table", 11)
        .target("twitter.com")
        .methods(MethodKind::ALL)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .run_secs(20);
    let preps = engine::prepare(&spec);
    let cfg = ScopeConfig::of(&Telemetry::disabled());
    let trials = spec.expand();
    assert_eq!(trials.len(), MethodKind::ALL.len());
    for trial in &trials {
        let (row, _) = engine::run_trial(&spec, &preps[trial.policy_idx], trial, cfg);
        let row_keys = keys(&row.evidence);
        let producers: Vec<&str> = probes
            .iter()
            .filter(|p| keys(&p.evidence()) == row_keys)
            .map(|p| p.label())
            .collect();
        assert_eq!(
            producers,
            vec![trial.method.label()],
            "{:?}: row evidence {row_keys:?}",
            trial.method
        );
    }
}

#[test]
fn a_task_spawned_into_an_already_run_routed_world_starts() {
    let mut net = RoutedMimicryNet::build(5, CensorPolicy::new());
    net.run_secs(1);
    net.spawn(net.mserver, Box::new(HopProbe::new(net.cover_ip, 33434, 6)));
    net.run_secs(10);
    let probe = net.mserver_task::<HopProbe>(0).expect("hop probe");
    assert!(probe.is_finished(), "the late task never started");
    assert_eq!(probe.hops_to_target(), Some(4));
}
