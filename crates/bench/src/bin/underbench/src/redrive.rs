//! Re-drive one trial attempt through the layers' public calls, one span
//! per layer: the same steps `campaign::engine::run_trial_attempt` takes,
//! written out here so the benchmark can time each call from its own
//! files. The traced run asserts that the re-driven row and registry
//! equal the engine's on every attempt, so this copy cannot drift from
//! the engine unnoticed.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use underradar_campaign::seed;
use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy, Trial, TrialResult};
use underradar_censor::{CensorAction, CensorActionKind, TapCensor};
use underradar_core::methods::ddos::DdosProbe;
use underradar_core::methods::hops::HopProbe;
use underradar_core::methods::overt::OvertProbe;
use underradar_core::methods::scan::SynScanProbe;
use underradar_core::methods::spam::SpamProbe;
use underradar_core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
use underradar_core::methods::stateless::{StatelessDnsMimicry, StatelessSynMimicry};
use underradar_core::ports::top_ports;
use underradar_core::probe::Probe;
use underradar_core::risk::RiskReport;
use underradar_core::testbed::{TargetSite, Testbed, TestbedConfig, TestbedTemplate};
use underradar_core::verdict::Verdict;
use underradar_ids::rule::Rule;
use underradar_netsim::host::Host;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_protocols::dns::QType;
use underradar_surveil::exposure::{ExposureEventKind, ExposureLedger};
use underradar_surveil::system::{
    default_surveillance_rules, SurveillanceNode, SurveillanceSystem,
};
use underradar_telemetry::{Registry, Telemetry};

use crate::trace::Spans;

// The engine's per-method constants.
const HOP_PORT: u16 = 33434;
const HOP_MAX_TTL: u8 = 6;
const MIMIC_PORT: u16 = 7443;
const SCAN_PORTS: usize = 60;
const DDOS_SAMPLES: usize = 20;

/// The benchmark's own copy of a policy column's prepared parts (the
/// engine's `PolicyPrep` keeps its fields private).
pub struct Prep {
    named: NamedPolicy,
    template: TestbedTemplate,
    routed_rules: Vec<Rule>,
}

/// One [`Prep`] per policy column, built as `engine::prepare` builds them.
pub fn prepare(spec: &CampaignSpec) -> Vec<Prep> {
    let targets: Vec<TargetSite> = spec
        .targets
        .iter()
        .enumerate()
        .map(|(i, domain)| TargetSite::numbered(domain, i as u8))
        .collect();
    spec.policies
        .iter()
        .map(|named| Prep {
            named: named.clone(),
            template: TestbedTemplate::prepare(TestbedConfig {
                seed: 0,
                policy: named.policy.clone(),
                targets: targets.clone(),
                cover_hosts: spec.cover_hosts,
                surveillance_alert_first: false,
                censor_rst_teardown: true,
                capture: false,
                client_link_loss: spec.client_link_loss,
                client_link_reorder: spec.client_link_reorder,
                client_link_duplicate: spec.client_link_duplicate,
                client_link_corrupt: spec.client_link_corrupt,
                monitor_reassembly: spec.monitor_reassembly,
            }),
            routed_rules: default_surveillance_rules(
                Testbed::home_net(),
                &named.policy.dns_blocked,
                &named.policy.keywords,
                None,
            ),
        })
        .collect()
}

/// Re-drive attempt `attempt` of `trial`, folding its telemetry into `acc`
/// as the engine does. Returns the final result, or `None` when the
/// engine would retry. Campaign workloads never run the flight recorder,
/// so no trace markers are written.
pub fn attempt(
    spec: &CampaignSpec,
    prep: &Prep,
    trial: &Trial,
    attempt: u32,
    acc: &mut Registry,
    telemetry: bool,
    spans: &mut Spans,
) -> Option<TrialResult> {
    let attempt_seed = seed::attempt_seed(trial.seed, attempt);
    let horizon = spec.run_secs + spec.retry.backoff_secs * attempt as u64;
    let scope = if telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut result = match trial.method {
        MethodKind::Hops | MethodKind::Stateful => {
            routed(prep, trial, attempt_seed, horizon, &scope, spans)
        }
        _ => flat(spec, prep, trial, attempt_seed, horizon, &scope, spans),
    };
    let t = spans.mark();
    acc.merge(&scope.snapshot());
    spans.push("telemetry.scope_merge", t);

    let t = spans.mark();
    let inconclusive = matches!(result.verdict, Verdict::Inconclusive(_));
    if inconclusive && attempt < spec.retry.max_retries {
        spans.push("campaign.bookkeeping", t);
        return None;
    }
    result.retries = attempt;
    let label = trial.method.label();
    bump(acc, "campaign.trials", 1);
    bump(acc, "campaign.retries", attempt as u64);
    bump(acc, &format!("campaign.method.{label}.trials"), 1);
    bump(
        acc,
        &format!("campaign.method.{label}.retries"),
        attempt as u64,
    );
    if inconclusive {
        bump(acc, "campaign.inconclusive_final", 1);
    }
    spans.push("campaign.bookkeeping", t);
    Some(result)
}

fn bump(registry: &mut Registry, name: &str, n: u64) {
    if n > 0 {
        *registry.counters.entry(name.to_string()).or_insert(0) += n;
    }
}

fn flat(
    spec: &CampaignSpec,
    prep: &Prep,
    trial: &Trial,
    seed: u64,
    horizon_secs: u64,
    scope: &Telemetry,
    spans: &mut Spans,
) -> TrialResult {
    let t = spans.mark();
    let mut tb = prep.template.instantiate(seed);
    tb.set_telemetry(scope.clone());
    spans.push("core.instantiate", t);

    let t = spans.mark();
    let site = tb.targets[trial.target_idx].clone();
    let domain = site.domain.clone();
    let resolver = tb.resolver_ip;
    let collector = tb.collector_ip;
    let cover = if spec.spoofed_cover > 0 {
        (0..spec.spoofed_cover)
            .map(|i| Ipv4Addr::new(10, 0, 1, 30 + i as u8))
            .collect()
    } else {
        tb.cover_ips.clone()
    };
    if spec.warmup {
        match trial.method {
            MethodKind::Spam => {
                let others: Vec<_> = tb
                    .targets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != trial.target_idx)
                    .map(|(_, t)| t.domain.clone())
                    .take(3)
                    .collect();
                for (i, warm) in others.into_iter().enumerate() {
                    tb.spawn_on_client(
                        SimTime::ZERO + SimDuration::from_secs(i as u64),
                        Box::new(SpamProbe::new(
                            &warm,
                            resolver,
                            seed.wrapping_add(1 + i as u64),
                        )),
                    );
                }
            }
            MethodKind::Ddos => {
                tb.spawn_on_client(
                    SimTime::ZERO,
                    Box::new(DdosProbe::new(
                        site.web_ip,
                        &domain.to_string(),
                        "/",
                        3 * DDOS_SAMPLES,
                    )),
                );
            }
            _ => {}
        }
    }
    let warm_start = |secs| {
        if spec.warmup {
            SimTime::ZERO + SimDuration::from_secs(secs)
        } else {
            SimTime::ZERO
        }
    };
    let path = &prep.named.probe_path;
    let idx = match trial.method {
        MethodKind::Overt => tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(OvertProbe::new(&domain, resolver, collector, path)),
        ),
        MethodKind::Scan => tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(SynScanProbe::new(
                site.web_ip,
                top_ports(SCAN_PORTS),
                vec![80],
            )),
        ),
        MethodKind::Spam => tb.spawn_on_client(
            warm_start(10),
            Box::new(SpamProbe::new(&domain, resolver, seed)),
        ),
        MethodKind::Ddos => tb.spawn_on_client(
            warm_start(5),
            Box::new(DdosProbe::new(
                site.web_ip,
                &domain.to_string(),
                path,
                DDOS_SAMPLES,
            )),
        ),
        MethodKind::StatelessDns => tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(StatelessDnsMimicry::new(&domain, QType::A, resolver, cover)),
        ),
        MethodKind::StatelessSyn => tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(StatelessSynMimicry::new(site.web_ip, 80, cover)),
        ),
        MethodKind::Hops | MethodKind::Stateful => unreachable!("routed methods"),
    };
    spans.push("probe.spawn", t);

    let t = spans.mark();
    tb.run_secs(horizon_secs);
    spans.push("netsim.run", t);

    let t = spans.mark();
    let probe: &dyn Probe = match trial.method {
        MethodKind::Overt => tb.client_task::<OvertProbe>(idx).expect("probe state"),
        MethodKind::Scan => tb.client_task::<SynScanProbe>(idx).expect("probe state"),
        MethodKind::Spam => tb.client_task::<SpamProbe>(idx).expect("probe state"),
        MethodKind::Ddos => tb.client_task::<DdosProbe>(idx).expect("probe state"),
        MethodKind::StatelessDns => tb
            .client_task::<StatelessDnsMimicry>(idx)
            .expect("probe state"),
        MethodKind::StatelessSyn => tb
            .client_task::<StatelessSynMimicry>(idx)
            .expect("probe state"),
        MethodKind::Hops | MethodKind::Stateful => unreachable!("routed methods"),
    };
    let verdict = probe.verdict();
    let evidence = probe.evidence();
    let risk = RiskReport::evaluate(&tb, &verdict);
    let result = TrialResult {
        index: trial.index,
        method: trial.method,
        policy: prep.named.name.clone(),
        target: domain.to_string(),
        seed: trial.seed,
        verdict,
        verdict_correct: risk.verdict_correct,
        evaded: risk.evades(),
        alerts_on_client: risk.alerts_on_client,
        attributed: risk.attributed,
        pursued: risk.pursued,
        anonymity_set: risk.anonymity_set,
        retries: 0,
        evidence,
    };
    spans.push("core.score", t);

    let t = spans.mark();
    tb.export_telemetry(scope);
    export_exposure(
        scope,
        trial.method.label(),
        &prep.named.name,
        &tb.censor_actions(),
        tb.surveillance(),
    );
    spans.push("telemetry.export", t);

    let t = spans.mark();
    drop(tb);
    spans.push("core.teardown", t);
    result
}

fn routed(
    prep: &Prep,
    trial: &Trial,
    seed: u64,
    horizon_secs: u64,
    scope: &Telemetry,
    spans: &mut Spans,
) -> TrialResult {
    let t = spans.mark();
    let mut net = RoutedMimicryNet::build_with_rules(
        seed,
        prep.named.policy.clone(),
        prep.routed_rules.clone(),
    );
    net.sim.set_telemetry(scope.clone());
    spans.push("core.instantiate", t);

    let t = spans.mark();
    match trial.method {
        MethodKind::Hops => {
            let probe = HopProbe::new(net.cover_ip, HOP_PORT, HOP_MAX_TTL);
            net.sim
                .node_mut::<Host>(net.mserver)
                .expect("mserver host")
                .spawn_task_at(SimTime::ZERO, Box::new(probe));
        }
        MethodKind::Stateful => {
            let agreed_iss = (seed as u32) | 1;
            let server = MimicServer::new(
                MIMIC_PORT,
                agreed_iss,
                Some(RoutedMimicryNet::HOPS_TO_COVER),
            );
            net.sim
                .node_mut::<Host>(net.mserver)
                .expect("mserver host")
                .spawn_task_at(SimTime::ZERO, Box::new(server));
            let payload = format!("GET {} HTTP/1.0\r\n\r\n", prep.named.probe_path);
            let client = StatefulMimicry::new(
                net.cover_ip,
                net.mserver_ip,
                MIMIC_PORT,
                agreed_iss,
                payload.as_bytes(),
            );
            net.sim
                .node_mut::<Host>(net.client)
                .expect("client host")
                .spawn_task_at(SimTime::ZERO, Box::new(client));
        }
        _ => unreachable!("flat methods"),
    }
    spans.push("probe.spawn", t);

    let t = spans.mark();
    net.sim
        .run_for(SimDuration::from_secs(horizon_secs))
        .expect("sim run");
    spans.push("netsim.run", t);

    let t = spans.mark();
    let mserver = net.sim.node_ref::<Host>(net.mserver).expect("mserver host");
    let probe: &dyn Probe = match trial.method {
        MethodKind::Hops => mserver.task_ref::<HopProbe>(0).expect("probe state"),
        MethodKind::Stateful => mserver.task_ref::<MimicServer>(0).expect("server state"),
        _ => unreachable!("flat methods"),
    };
    let verdict = probe.verdict();
    let evidence = probe.evidence();
    let censor_acted = net
        .sim
        .node_ref::<TapCensor>(net.censor)
        .map(|tap| !tap.actions().is_empty())
        .unwrap_or(false);
    let system = net
        .sim
        .node_ref::<SurveillanceNode>(net.surveillance)
        .expect("surveillance node")
        .system();
    let result = TrialResult {
        index: trial.index,
        method: trial.method,
        policy: prep.named.name.clone(),
        target: prep
            .template
            .config()
            .targets
            .get(trial.target_idx)
            .map(|t| t.domain.to_string())
            .unwrap_or_default(),
        seed: trial.seed,
        verdict_correct: verdict.correct_against(censor_acted),
        evaded: system.alerts_for(net.client_ip) == 0,
        alerts_on_client: system.alerts_for(net.client_ip),
        attributed: system.is_attributed(net.client_ip),
        pursued: system.is_pursued(net.client_ip),
        anonymity_set: None,
        retries: 0,
        evidence,
        verdict,
    };
    spans.push("core.score", t);

    let t = spans.mark();
    if scope.is_enabled() {
        net.sim.export_telemetry(scope);
        if let Some(tap) = net.sim.node_ref::<TapCensor>(net.censor) {
            tap.export_telemetry(scope);
        }
        system.export_telemetry(scope);
        let tap_actions = net
            .sim
            .node_ref::<TapCensor>(net.censor)
            .map(|tap| tap.actions().to_vec())
            .unwrap_or_default();
        export_exposure(
            scope,
            trial.method.label(),
            &prep.named.name,
            &tap_actions,
            system,
        );
    }
    spans.push("telemetry.export", t);

    let t = spans.mark();
    drop(net);
    spans.push("core.teardown", t);
    result
}

/// The engine's adversary-side exposure export for one trial.
fn export_exposure(
    scope: &Telemetry,
    method_label: &str,
    policy_name: &str,
    actions: &[CensorAction],
    system: &SurveillanceSystem,
) {
    if !scope.is_enabled() {
        return;
    }
    let cell = format!("{method_label}/{policy_name}");
    let mut ledger = ExposureLedger::new();
    for action in actions {
        let kind = match action.kind {
            CensorActionKind::KeywordRst { .. } | CensorActionKind::DnsInjection { .. } => {
                ExposureEventKind::Injection
            }
            _ => ExposureEventKind::Drop,
        };
        ledger.record(
            &cell,
            &action.client.to_string(),
            kind,
            action.time.as_nanos(),
        );
    }
    type FlowTuple = (Option<u16>, u32, Option<u16>);
    let mut flows: BTreeMap<Ipv4Addr, BTreeSet<FlowTuple>> = BTreeMap::new();
    for alert in system.engine().log().all() {
        ledger.record(
            &cell,
            &alert.src.to_string(),
            ExposureEventKind::Alert,
            alert.time.as_nanos(),
        );
        flows.entry(alert.src).or_default().insert((
            alert.src_port,
            u32::from(alert.dst),
            alert.dst_port,
        ));
    }
    for (src, set) in &flows {
        ledger.add_sensitive_flows(&cell, &src.to_string(), set.len() as u64);
    }
    let mut retained: BTreeMap<Ipv4Addr, u64> = BTreeMap::new();
    for (_, rec) in system.stores().content.iter() {
        *retained.entry(rec.src).or_insert(0) += rec.bytes as u64;
    }
    for (src, bytes) in &retained {
        ledger.add_retained(&cell, &src.to_string(), *bytes);
    }
    ledger.export(scope);
}
