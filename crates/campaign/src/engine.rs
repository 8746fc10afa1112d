//! The campaign engine: expands a [`CampaignSpec`] into trials, caches one
//! [`TestbedTemplate`] per policy ([`prepare`]), and runs one trial at a
//! time ([`run_trial`]) down one path — the method table picks the world
//! and spawns the probe, the run and the scoring are shared — retrying
//! `Inconclusive` verdicts with backoff in *simulated* time. Each trial
//! returns its own telemetry registry; scheduling trials across workers
//! and merging their registries is the run service's job
//! (`underradar-runner`).
//!
//! The retry loop is split at attempt boundaries ([`run_trial_attempt`])
//! so the run service can journal a retry decision — with the registry
//! accumulated so far — and resume the trial at the exact attempt it was
//! about to run.
//!
//! An attempt runs in a world from a [`Worlds`] pool. [`run_trial_attempt`]
//! gives each attempt an empty pool, so it builds a fresh world and drops
//! it; the run service's workers keep one pool each and call
//! [`run_trial_attempt_in`], which resets the world the previous attempt
//! left when it has the same column and topology. Both produce the same
//! bytes.
//!
//! [`run_trial_attempt_in`] accumulates a trial's telemetry into an
//! id-keyed [`Delta`], which the run service hands to its committer as
//! it is; [`run_trial`] and [`run_trial_attempt`] build the named
//! [`Registry`] from it at their boundary.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

use underradar_censor::{CensorAction, CensorActionKind};
use underradar_core::methods::ddos::DdosProbe;
use underradar_core::methods::hops::HopProbe;
use underradar_core::methods::overt::OvertProbe;
use underradar_core::methods::scan::SynScanProbe;
use underradar_core::methods::spam::SpamProbe;
use underradar_core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
use underradar_core::methods::stateless::{StatelessDnsMimicry, StatelessSynMimicry};
use underradar_core::monitors::MonitorSet;
use underradar_core::ports::top_ports;
use underradar_core::probe::ProbeHandle;
use underradar_core::risk::RiskReport;
use underradar_core::testbed::{TargetSite, Testbed, TestbedConfig, TestbedTemplate};
use underradar_core::verdict::Verdict;
use underradar_netsim::sim::Simulator;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_protocols::dns::QType;
use underradar_surveil::exposure::{ExposureEventKind, ExposureLedger, HostExposure};
use underradar_surveil::system::SurveillanceSystem;
use underradar_telemetry::{Delta, FieldValue, NameId, Registry, Telemetry, TraceRecord};

use crate::report::TrialResult;
use crate::seed;
use crate::spec::{CampaignSpec, MethodKind, NamedPolicy, SpecError, Trial};

/// UDP port hop probes aim at (classic traceroute base port).
const HOP_PORT: u16 = 33434;
/// TTL budget for hop sweeps in the routed topology (path is 3–4 hops).
const HOP_MAX_TTL: u8 = 6;
/// Server port for stateful mimicry flows.
const MIMIC_PORT: u16 = 7443;
/// Ports scanned per SYN-scan trial (top-N, port 80 expected open).
const SCAN_PORTS: usize = 60;
/// Request samples per DDoS-style trial.
const DDOS_SAMPLES: usize = 20;
/// Spoofed cover address `i` is `10.0.1.(SPOOFED_COVER_BASE + i)`.
const SPOOFED_COVER_BASE: u8 = 30;
/// The most spoofed cover addresses a stateless-mimicry trial can
/// address ([`CampaignSpec::spoofed_cover`]'s limit).
pub const MAX_SPOOFED_COVER: usize = 256 - SPOOFED_COVER_BASE as usize;

/// Everything shareable across a policy column's trials: one template
/// that builds either topology. It derives the zone and rules here and
/// compiles the monitors' immutable parts — the tap censor's keyword DFA
/// (one copy for both topologies), each topology's surveillance ruleset
/// and prefilter DFA, the indexed zone — once, on first use; every later
/// trial shares them and builds only its own world. All fields are
/// `Send + Sync`, so worker threads borrow one prep.
pub struct PolicyPrep<'a> {
    named: &'a NamedPolicy,
    template: TestbedTemplate,
}

/// Build one [`PolicyPrep`] per policy column, in spec order, once the
/// spec passes [`CampaignSpec::check_address_plan`] and
/// [`CampaignSpec::check_targets`]. The vector is indexed by
/// [`Trial::policy_idx`]; external drivers (the runner service) call this
/// once and borrow the preps across worker threads.
pub fn try_prepare(spec: &CampaignSpec) -> Result<Vec<PolicyPrep<'_>>, SpecError> {
    spec.check_address_plan().map_err(SpecError::AddressPlan)?;
    spec.check_targets().map_err(SpecError::InvalidTarget)?;
    let targets: Vec<TargetSite> = spec
        .targets
        .iter()
        .enumerate()
        .map(|(i, domain)| TargetSite::numbered(domain, i as u8))
        .collect();
    Ok(spec
        .policies
        .iter()
        .map(|named| {
            let template = TestbedTemplate::prepare(TestbedConfig {
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
            });
            PolicyPrep { named, template }
        })
        .collect())
}

/// [`try_prepare`] for a spec known to pass its checks.
///
/// # Panics
///
/// On a spec [`try_prepare`] rejects: a count past the address plan, or
/// a target no testbed can name.
pub fn prepare(spec: &CampaignSpec) -> Vec<PolicyPrep<'_>> {
    try_prepare(spec).expect("a campaign spec that passes its checks")
}

/// What kind of telemetry scope each worker should build. `Telemetry` is
/// an `Rc` handle and cannot cross threads, so workers rebuild per-trial
/// scopes from this `Copy` snapshot of the caller's handle.
#[derive(Clone, Copy)]
pub struct ScopeConfig {
    enabled: bool,
    trace: Option<usize>,
}

impl ScopeConfig {
    /// Snapshot the caller's telemetry handle into a `Send + Copy` config.
    pub fn of(tel: &Telemetry) -> ScopeConfig {
        ScopeConfig {
            enabled: tel.is_enabled(),
            trace: tel.trace_capacity(),
        }
    }

    /// Override the flight-recorder ring capacity when tracing is active.
    /// A `None` or a non-tracing config is unchanged — the capacity knob
    /// tunes the ring, it never turns tracing on.
    pub fn with_trace_capacity(mut self, capacity: Option<usize>) -> ScopeConfig {
        if let (Some(_), Some(c)) = (self.trace, capacity) {
            self.trace = Some(c);
        }
        self
    }

    /// Build a fresh per-trial scope matching the snapshotted handle.
    pub fn scope(self) -> Telemetry {
        match self.trace {
            Some(capacity) => Telemetry::with_trace(capacity),
            None if self.enabled => Telemetry::enabled(),
            None => Telemetry::disabled(),
        }
    }

    /// Whether per-trial scopes carry a flight-recorder trace ring.
    pub fn tracing(self) -> bool {
        self.trace.is_some()
    }
}

/// What one attempt of a trial decided: a final result, or a retry with
/// the attempt number to run next.
pub enum AttemptOutcome {
    /// The verdict is final (conclusive, or the retry budget is spent).
    Done(Box<TrialResult>),
    /// The verdict was `Inconclusive` with budget remaining; re-run with
    /// `next_attempt`. The accumulated registry passed to
    /// [`run_trial_attempt`] already holds this attempt's telemetry and
    /// must travel with the trial (the runner journals it so resumed runs
    /// keep byte-identical merged telemetry).
    Retry {
        /// Attempt number for the next call to [`run_trial_attempt`].
        next_attempt: u32,
    },
}

/// One trial with retries: re-instantiate the world from a derived seed
/// whenever the verdict is `Inconclusive`, granting `backoff_secs` extra
/// simulated seconds per attempt, up to `max_retries`.
pub fn run_trial(
    spec: &CampaignSpec,
    prep: &PolicyPrep<'_>,
    trial: &Trial,
    cfg: ScopeConfig,
) -> (TrialResult, Registry) {
    let mut acc = Delta::new();
    let mut attempt = 0u32;
    loop {
        match run_trial_attempt_in(
            &mut Worlds::new(),
            spec,
            prep,
            trial,
            attempt,
            &mut acc,
            cfg,
        ) {
            AttemptOutcome::Done(result) => return (*result, acc.into_registry()),
            AttemptOutcome::Retry { next_attempt } => attempt = next_attempt,
        }
    }
}

/// Run exactly one attempt of a trial, accumulating its telemetry (and
/// trace markers) into `acc`. Attempt 0 pushes the trial-start marker;
/// callers resuming a journaled retry pass the journaled `acc` and the
/// journaled attempt number, which reproduces the uninterrupted stream.
/// The attempt builds its own world and drops it.
pub fn run_trial_attempt(
    spec: &CampaignSpec,
    prep: &PolicyPrep<'_>,
    trial: &Trial,
    attempt: u32,
    acc: &mut Registry,
    cfg: ScopeConfig,
) -> AttemptOutcome {
    let mut delta = Delta::new();
    let outcome = run_trial_attempt_in(
        &mut Worlds::new(),
        spec,
        prep,
        trial,
        attempt,
        &mut delta,
        cfg,
    );
    acc.accumulate(delta.into_registry());
    outcome
}

/// [`run_trial_attempt`] in a world from `worlds`, accumulating into an
/// id-keyed delta: the pooled world when it was built from this column
/// for this trial's topology, reset in place for the attempt's seed;
/// otherwise a new one, which stays in the pool. `acc.into_registry()`
/// is byte-identical to what [`run_trial_attempt`] accumulates.
pub fn run_trial_attempt_in<'p>(
    worlds: &mut Worlds<'p>,
    spec: &CampaignSpec,
    prep: &'p PolicyPrep<'p>,
    trial: &Trial,
    attempt: u32,
    acc: &mut Delta,
    cfg: ScopeConfig,
) -> AttemptOutcome {
    if attempt == 0 && cfg.tracing() {
        // A trial-start marker first, so the merged trace splits into
        // contiguous per-trial segments (the explainer keys off these).
        acc.trace.push(campaign_record(
            0,
            "trial_start",
            vec![
                ("trial", (trial.index as u64).into()),
                ("method", trial.method.label().to_string().into()),
                ("policy", prep.named.name.clone().into()),
                ("target", trial_target(prep, trial).into()),
            ],
        ));
    }
    let attempt_seed = seed::attempt_seed(trial.seed, attempt);
    let horizon = spec.run_secs + spec.retry.backoff_secs * attempt as u64;
    let horizon_ns = horizon.saturating_mul(1_000_000_000);
    let scope = cfg.scope();
    let stage = Stage {
        spec,
        prep,
        trial,
        seed: attempt_seed,
        scope: &scope,
    };
    let mut result = execute(&stage, worlds, horizon);
    // The world holds no handle to the scope any more, so its values
    // move out whole.
    debug_assert!(scope.is_unshared(), "the world detached its telemetry");
    acc.accumulate(scope.into_delta());
    let inconclusive = matches!(result.verdict, Verdict::Inconclusive(_));
    if !inconclusive || attempt >= spec.retry.max_retries {
        result.retries = attempt;
        let names = CampaignNames::get();
        let (method_trials, method_retries) = names.method(trial.method);
        bump(acc, names.trials, 1);
        bump(acc, names.retries, attempt as u64);
        bump(acc, method_trials, 1);
        bump(acc, method_retries, attempt as u64);
        if inconclusive {
            bump(acc, names.inconclusive_final, 1);
        }
        if cfg.tracing() {
            acc.trace.push(campaign_record(
                horizon_ns,
                "verdict",
                vec![
                    ("verdict", result.verdict.to_string().into()),
                    ("retries", u64::from(attempt).into()),
                ],
            ));
        }
        return AttemptOutcome::Done(Box::new(result));
    }
    if cfg.tracing() {
        // The retry decision itself is a trace-worthy event: it changes
        // the seed and grants backoff horizon, so a verdict that flips
        // across attempts is explained by this record.
        acc.trace.push(campaign_record(
            horizon_ns,
            "retry",
            vec![
                ("attempt", u64::from(attempt + 1).into()),
                ("backoff_secs", spec.retry.backoff_secs.into()),
            ],
        ));
    }
    AttemptOutcome::Retry {
        next_attempt: attempt + 1,
    }
}

fn trial_target(prep: &PolicyPrep<'_>, trial: &Trial) -> String {
    prep.template
        .config()
        .targets
        .get(trial.target_idx)
        .map(|t| t.domain.to_string())
        .unwrap_or_default()
}

fn campaign_record(
    t_ns: u64,
    kind: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) -> TraceRecord {
    TraceRecord {
        t_ns,
        seq: 0,
        stage: "campaign",
        kind,
        flow: None,
        fields,
    }
}

/// Add `n > 0` to counter `name`; a zero leaves no key.
fn bump(acc: &mut Delta, name: NameId, n: u64) {
    if n > 0 {
        acc.count(name, n);
    }
}

/// The `campaign.*` counters a trial's final attempt bumps, interned once
/// per process.
struct CampaignNames {
    trials: NameId,
    retries: NameId,
    inconclusive_final: NameId,
    /// `campaign.method.<label>.{trials, retries}`, in
    /// [`MethodKind::ALL`] order.
    methods: Vec<(NameId, NameId)>,
}

impl CampaignNames {
    fn get() -> &'static CampaignNames {
        static NAMES: OnceLock<CampaignNames> = OnceLock::new();
        NAMES.get_or_init(|| CampaignNames {
            trials: NameId::of("campaign.trials"),
            retries: NameId::of("campaign.retries"),
            inconclusive_final: NameId::of("campaign.inconclusive_final"),
            methods: MethodKind::ALL
                .iter()
                .map(|m| {
                    let label = m.label();
                    (
                        NameId::of(&format!("campaign.method.{label}.trials")),
                        NameId::of(&format!("campaign.method.{label}.retries")),
                    )
                })
                .collect(),
        })
    }

    fn method(&self, method: MethodKind) -> (NameId, NameId) {
        let at = MethodKind::ALL.iter().position(|m| *m == method);
        self.methods[at.unwrap_or_default()]
    }
}

/// Fold this trial's adversary-side observations into the per-trial scope
/// as `exposure.*` registry entries (see `underradar_surveil::exposure`).
/// Everything here is read from records the adversary actually holds —
/// censor action log, IDS alert log, retention stores — never from ground
/// truth, so the resulting ledger is the adversary's view of the campaign.
/// Events aggregate per address first, so each host's dotted name is
/// rendered once per trial.
fn export_exposure<'a>(
    scope: &Telemetry,
    method_label: &str,
    policy_name: &str,
    actions: impl Iterator<Item = &'a CensorAction>,
    system: &SurveillanceSystem,
) {
    let mut hosts: BTreeMap<Ipv4Addr, HostExposure> = BTreeMap::new();
    for action in actions {
        let kind = match action.kind {
            CensorActionKind::KeywordRst { .. } | CensorActionKind::DnsInjection { .. } => {
                ExposureEventKind::Injection
            }
            _ => ExposureEventKind::Drop,
        };
        hosts
            .entry(action.client)
            .or_default()
            .record(kind, action.time.as_nanos());
    }
    // Distinct sensitive flows per source: the alert log's flow tuples.
    type FlowTuple = (Option<u16>, u32, Option<u16>);
    let mut flows: BTreeMap<Ipv4Addr, BTreeSet<FlowTuple>> = BTreeMap::new();
    for alert in system.engine().log().all() {
        hosts
            .entry(alert.src)
            .or_default()
            .record(ExposureEventKind::Alert, alert.time.as_nanos());
        flows.entry(alert.src).or_default().insert((
            alert.src_port,
            u32::from(alert.dst),
            alert.dst_port,
        ));
    }
    for (src, set) in &flows {
        hosts.entry(*src).or_default().sensitive_flows += set.len() as u64;
    }
    // Bytes of each host's traffic sitting in the content retention store
    // (trial horizons are far shorter than retention windows, so nothing
    // has evicted by scoring time).
    for (_, rec) in system.stores().content.iter() {
        hosts.entry(rec.src).or_default().retained_bytes += rec.bytes as u64;
    }
    let cell = format!("{method_label}/{policy_name}");
    let mut ledger = ExposureLedger::new();
    for (host, exposure) in &hosts {
        ledger.add_host(&cell, &host.to_string(), exposure);
    }
    ledger.export(scope);
}

/// One worker's world pool: the world its last attempt ran in, kept for
/// the next attempt to reset instead of building its own. The slot holds
/// at most one world, of either topology, keyed by the column template
/// that built it; a hit is an attempt of the same column and topology,
/// a miss drops the pooled world before building the new one. Trials
/// expand policy-major, then method-major, so a worker that takes them
/// in index order misses only at column and topology boundaries.
///
/// Worlds hold `Rc`s and are not `Send`: a pool lives on its worker's
/// thread and serves one run, borrowing that run's templates.
#[derive(Default)]
pub struct Worlds<'p> {
    flat: Option<(&'p TestbedTemplate, Testbed)>,
    routed: Option<(&'p TestbedTemplate, RoutedMimicryNet)>,
}

impl<'p> Worlds<'p> {
    /// An empty pool: its first attempt builds a world.
    pub fn new() -> Worlds<'p> {
        Worlds::default()
    }

    /// The column's flat testbed, ready for `seed`.
    fn flat(&mut self, template: &'p TestbedTemplate, seed: u64) -> &mut Testbed {
        self.routed = None;
        reuse(
            &mut self.flat,
            template,
            || template.instantiate(seed),
            |tb| template.reset(tb, seed),
        )
    }

    /// The column's routed chain, ready for `seed`.
    fn routed(&mut self, template: &'p TestbedTemplate, seed: u64) -> &mut RoutedMimicryNet {
        self.flat = None;
        reuse(
            &mut self.routed,
            template,
            || template.instantiate_routed(seed),
            |net| template.reset_routed(net, seed),
        )
    }
}

/// The slot's world, reset, when `template` built it; else a new world,
/// built once the old one is dropped.
fn reuse<'s, 'p, W>(
    slot: &'s mut Option<(&'p TestbedTemplate, W)>,
    template: &'p TestbedTemplate,
    build: impl FnOnce() -> W,
    reset: impl FnOnce(&mut W),
) -> &'s mut W {
    let world = match slot.take() {
        Some((built_by, mut world)) if std::ptr::eq(built_by, template) => {
            reset(&mut world);
            world
        }
        old => {
            drop(old);
            build()
        }
    };
    &mut slot.insert((template, world)).1
}

/// What the trial path needs of a world, whichever topology the column's
/// template built: its simulator, its monitors and the client it scores.
struct World<'w> {
    sim: &'w mut Simulator,
    monitors: MonitorSet,
    client: Ipv4Addr,
    /// Whether the world has a cover population to measure the anonymity
    /// set over: the flat testbed does; the routed chain does not, so its
    /// rows keep `anonymity_set: None`.
    cover_population: bool,
}

/// One attempt's inputs, for the method table.
struct Stage<'s, 'p> {
    spec: &'s CampaignSpec,
    prep: &'p PolicyPrep<'p>,
    trial: &'s Trial,
    seed: u64,
    scope: &'s Telemetry,
}

impl<'p> Stage<'_, 'p> {
    /// Ready the column's flat testbed from `worlds` and let `spawn`
    /// start the method's tasks on it, given the trial's target site.
    fn flat<'w>(
        &self,
        worlds: &'w mut Worlds<'p>,
        spawn: impl FnOnce(&mut Testbed, &TargetSite) -> ProbeHandle,
    ) -> (World<'w>, ProbeHandle) {
        let tb = worlds.flat(&self.prep.template, self.seed);
        tb.set_telemetry(self.scope.clone());
        let site = tb.targets[self.trial.target_idx].clone();
        let probe = spawn(tb, &site);
        let world = World {
            monitors: tb.monitors(),
            client: tb.client_ip,
            cover_population: true,
            sim: &mut tb.sim,
        };
        (world, probe)
    }

    /// Ready the column's routed chain from `worlds` and let `spawn`
    /// start the method's tasks on it.
    fn routed<'w>(
        &self,
        worlds: &'w mut Worlds<'p>,
        spawn: impl FnOnce(&mut RoutedMimicryNet) -> ProbeHandle,
    ) -> (World<'w>, ProbeHandle) {
        let net = worlds.routed(&self.prep.template, self.seed);
        net.set_telemetry(self.scope.clone());
        let probe = spawn(net);
        let world = World {
            monitors: net.monitors(),
            client: net.client_ip,
            cover_population: false,
            sim: &mut net.sim,
        };
        (world, probe)
    }

    /// The sources stateless mimicry hides among: the spec's spoofed cover
    /// addresses, or else the testbed's cover hosts.
    fn cover(&self, tb: &Testbed) -> Vec<Ipv4Addr> {
        match self.spec.spoofed_cover {
            0 => tb.cover_ips.clone(),
            n => (0..n)
                .map(|i| Ipv4Addr::new(10, 0, 1, SPOOFED_COVER_BASE + i as u8))
                .collect(),
        }
    }
}

/// The method table: the one place each [`MethodKind`] is named. Each arm
/// picks the method's world, spawns its tasks — warm-ups first — and
/// returns the handle of the probe whose verdict the row reports.
///
/// Spam and ddos trials optionally run their paper-faithful warm-up
/// phase first (§3.2.2: a spam campaign earns the spammer label before
/// the measured lookup; a flood is already MVR-classified as DDoS by the
/// time the measured samples fire), so campaign cells reproduce the
/// per-experiment setups without bespoke wiring.
fn spawn_method<'w, 'p>(
    stage: &Stage<'_, 'p>,
    worlds: &'w mut Worlds<'p>,
) -> (World<'w>, ProbeHandle) {
    let (spec, named, seed) = (stage.spec, stage.prep.named, stage.seed);
    let t0 = SimTime::ZERO;
    match stage.trial.method {
        MethodKind::Overt => stage.flat(worlds, |tb, site| {
            let probe = OvertProbe::new(
                &site.domain,
                tb.resolver_ip,
                tb.collector_ip,
                &named.probe_path,
            );
            ProbeHandle::spawn(&mut tb.sim, tb.client, t0, probe)
        }),
        MethodKind::Scan => stage.flat(worlds, |tb, site| {
            let probe = SynScanProbe::new(site.web_ip, top_ports(SCAN_PORTS), vec![80]);
            ProbeHandle::spawn(&mut tb.sim, tb.client, t0, probe)
        }),
        MethodKind::Spam => stage.flat(worlds, |tb, site| {
            let mut at = t0;
            if spec.warmup {
                // Reputation warm-up: spam probes toward the other zone
                // targets stagger in first, earning the spammer label.
                let others: Vec<_> = tb
                    .targets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != stage.trial.target_idx)
                    .map(|(_, t)| t.domain.clone())
                    .take(3)
                    .collect();
                for (i, warm) in others.iter().enumerate() {
                    let warm =
                        SpamProbe::new(warm, tb.resolver_ip, seed.wrapping_add(1 + i as u64));
                    tb.spawn_on_client(t0 + SimDuration::from_secs(i as u64), Box::new(warm));
                }
                at = t0 + SimDuration::from_secs(10);
            }
            let probe = SpamProbe::new(&site.domain, tb.resolver_ip, seed);
            ProbeHandle::spawn(&mut tb.sim, tb.client, at, probe)
        }),
        MethodKind::Ddos => stage.flat(worlds, |tb, site| {
            let (domain, mut at) = (site.domain.to_string(), t0);
            if spec.warmup {
                // Front-page flood: the source is already in the discarded
                // DDoS class when the measured samples ride along.
                let flood = DdosProbe::new(site.web_ip, &domain, "/", 3 * DDOS_SAMPLES);
                tb.spawn_on_client(t0, Box::new(flood));
                at = t0 + SimDuration::from_secs(5);
            }
            let probe = DdosProbe::new(site.web_ip, &domain, &named.probe_path, DDOS_SAMPLES);
            ProbeHandle::spawn(&mut tb.sim, tb.client, at, probe)
        }),
        MethodKind::StatelessDns => stage.flat(worlds, |tb, site| {
            let cover = stage.cover(tb);
            let probe = StatelessDnsMimicry::new(&site.domain, QType::A, tb.resolver_ip, cover);
            ProbeHandle::spawn(&mut tb.sim, tb.client, t0, probe)
        }),
        MethodKind::StatelessSyn => stage.flat(worlds, |tb, site| {
            let probe = StatelessSynMimicry::new(site.web_ip, 80, stage.cover(tb));
            ProbeHandle::spawn(&mut tb.sim, tb.client, t0, probe)
        }),
        MethodKind::Hops => stage.routed(worlds, |net| {
            let probe = HopProbe::new(net.cover_ip, HOP_PORT, HOP_MAX_TTL);
            ProbeHandle::spawn(&mut net.sim, net.mserver, t0, probe)
        }),
        MethodKind::Stateful => stage.routed(worlds, |net| {
            // The verdict is read at the server the measurer controls; the
            // client half spoofs the flow blind.
            let agreed_iss = (seed as u32) | 1;
            let hops = Some(RoutedMimicryNet::HOPS_TO_COVER);
            let server = MimicServer::new(MIMIC_PORT, agreed_iss, hops);
            let server = ProbeHandle::spawn(&mut net.sim, net.mserver, t0, server);
            let payload = format!("GET {} HTTP/1.0\r\n\r\n", named.probe_path);
            let client = StatefulMimicry::new(
                net.cover_ip,
                net.mserver_ip,
                MIMIC_PORT,
                agreed_iss,
                payload.as_bytes(),
            );
            net.spawn(net.client, Box::new(client));
            server
        }),
    }
}

/// Run one attempt in a world from `worlds`: spawn through the method
/// table, run to the horizon, read the probe's verdict and evidence back
/// through its handle, score the verdict, export the world's monitors and
/// the adversary's exposure into the scope (only when it records), detach
/// the world from the scope, and build the row.
fn execute<'p>(stage: &Stage<'_, 'p>, worlds: &mut Worlds<'p>, horizon_secs: u64) -> TrialResult {
    let (prep, trial, scope) = (stage.prep, stage.trial, stage.scope);
    let (world, handle) = spawn_method(stage, worlds);
    world
        .sim
        .run_for(SimDuration::from_secs(horizon_secs))
        .expect("simulation within event budget");
    let (sim, monitors) = (&*world.sim, world.monitors);
    let probe = handle.read(sim);
    let verdict = probe.verdict();
    let mut risk = RiskReport::score(sim, monitors, world.client, &verdict);
    if world.cover_population {
        risk = risk.with_anonymity_set(monitors.surveillance(sim));
    }
    if scope.is_enabled() {
        monitors.export_telemetry(sim, scope);
        export_exposure(
            scope,
            trial.method.label(),
            &prep.named.name,
            monitors.censor_actions(sim),
            monitors.surveillance(sim),
        );
    }
    let result = TrialResult {
        index: trial.index,
        method: trial.method,
        policy: prep.named.name.clone(),
        target: trial_target(prep, trial),
        seed: trial.seed,
        verdict,
        verdict_correct: risk.verdict_correct,
        evaded: risk.evades(),
        alerts_on_client: risk.alerts_on_client,
        attributed: risk.attributed,
        pursued: risk.pursued,
        anonymity_set: risk.anonymity_set,
        retries: 0,
        evidence: probe.evidence(),
    };
    // The pooled world outlives the attempt: it must hold no handle to
    // the scope, so the scope's registry can leave by move.
    monitors.set_telemetry(world.sim, Telemetry::disabled());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RetryPolicy;
    use underradar_censor::CensorPolicy;
    use underradar_netsim::addr::Cidr;
    use underradar_netsim::host::Host;
    use underradar_netsim::node::NodeId;
    use underradar_netsim::switch::Switch;
    use underradar_netsim::testprop;
    use underradar_protocols::dns::DnsName;

    /// Every trial in index order on this thread, merging each trial's
    /// registry into `tel`.
    fn run_in_order(spec: &CampaignSpec, tel: &Telemetry) -> Vec<TrialResult> {
        let preps = prepare(spec);
        let cfg = ScopeConfig::of(tel);
        spec.expand()
            .iter()
            .map(|trial| {
                let (result, registry) = run_trial(spec, &preps[trial.policy_idx], trial, cfg);
                tel.merge_registry(&registry);
                result
            })
            .collect()
    }

    #[test]
    fn try_prepare_rejects_what_no_testbed_can_build() {
        let spec = |targets: Vec<String>| {
            CampaignSpec::new("bad", 1)
                .targets(targets.iter().map(String::as_str))
                .method(MethodKind::Scan)
                .policy(NamedPolicy::new("control", CensorPolicy::new()))
        };
        let unnamed = spec(vec!["a..b".to_string()]);
        assert!(matches!(
            try_prepare(&unnamed),
            Err(SpecError::InvalidTarget(t)) if t.domain == "a..b"
        ));
        // One past the address plan: target 247's address octet would wrap.
        let crowded = spec((0..247).map(|i| format!("t{i}.com")).collect());
        assert!(matches!(
            try_prepare(&crowded),
            Err(SpecError::AddressPlan(o)) if o.field == "targets" && o.got == 247
        ));
        assert_eq!(
            try_prepare(&spec(vec!["bbc.com".to_string()])).map(|p| p.len()),
            Ok(1)
        );
    }

    #[test]
    fn routed_methods_run_through_the_same_entry_point() {
        let spec = CampaignSpec::new("routed", 9)
            .target("twitter.com")
            .methods([MethodKind::Hops, MethodKind::Stateful])
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .run_secs(20);
        let trials = run_in_order(&spec, &Telemetry::disabled());
        assert_eq!(trials.len(), 2);
        let hops = &trials[0];
        assert_eq!(hops.method, MethodKind::Hops);
        assert!(hops.verdict.is_reachable(), "{:?}", hops.verdict);
        let stateful = &trials[1];
        assert!(stateful.verdict.is_reachable(), "{:?}", stateful.verdict);
        assert!(stateful.evaded);
    }

    #[test]
    fn campaign_counters_reach_the_parent_registry() {
        let spec = CampaignSpec::new("tel", 3)
            .target("twitter.com")
            .method(MethodKind::Scan)
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .run_secs(20);
        let tel = Telemetry::enabled();
        assert_eq!(run_in_order(&spec, &tel).len(), 1);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("campaign.trials"), 1);
        assert_eq!(snap.counter("campaign.method.scan.trials"), 1);
        assert!(
            snap.counters.len() > 2,
            "simulator/censor/surveillance exports merged in: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }

    /// The columns the pooled-world property draws from: every censor
    /// policy kind, clean and impaired access links, spoofed cover,
    /// warm-ups on and off, and a horizon that cuts trials off mid-flight,
    /// leaving connections and timers behind for a reset to clear. Each
    /// spec's policies are columns.
    fn columns() -> Vec<CampaignSpec> {
        let targets = ["twitter.com", "bbc.com"];
        let twitter_web = TargetSite::numbered("twitter.com", 0).web_ip;
        let keyword = NamedPolicy::new("keyword-rst", CensorPolicy::new().block_keyword("falun"))
            .with_probe_path("/falun-page");
        let dns = CensorPolicy::new().block_domain(&DnsName::parse("twitter.com").expect("name"));
        vec![
            CampaignSpec::new("clean", 1)
                .targets(targets)
                .policy(NamedPolicy::new("control", CensorPolicy::new()))
                .policy(keyword.clone())
                .policy(NamedPolicy::new("dns-injection", dns))
                .run_secs(60),
            CampaignSpec::new("impaired", 2)
                .targets(targets)
                .policy(NamedPolicy::new(
                    "ip-blackhole",
                    CensorPolicy::new().block_ip(Cidr::host(twitter_web)),
                ))
                .policy(keyword.clone())
                .client_link_loss(0.2)
                .client_link_reorder(0.2)
                .client_link_duplicate(0.1)
                .client_link_corrupt(0.05)
                .run_secs(40),
            CampaignSpec::new("spoofed", 3)
                .targets(targets)
                .policy(keyword.clone())
                .spoofed_cover(3)
                .warmup(false)
                .run_secs(30),
            CampaignSpec::new("cut-off", 4)
                .targets(targets)
                .policy(keyword)
                .retry(RetryPolicy {
                    max_retries: 2,
                    backoff_secs: 0,
                })
                .run_secs(1),
        ]
    }

    /// What a world holds after an attempt, read through its public
    /// surface: the clock and event count, every host's counters, open
    /// connections and pending timers, every switch's counters, the
    /// inboxes, the censors' actions and the surveillance system's
    /// counters, alert log and stores.
    fn world_state(worlds: &Worlds<'_>) -> String {
        let (sim, monitors, mut inboxes) = match (&worlds.flat, &worlds.routed) {
            (Some((_, tb)), None) => {
                let inboxes: Vec<String> = tb
                    .inboxes
                    .iter()
                    .map(|(domain, inbox)| format!("{domain}:{}", inbox.borrow().len()))
                    .collect();
                (&tb.sim, tb.monitors(), inboxes)
            }
            (None, Some((_, net))) => (&net.sim, net.monitors(), Vec::new()),
            _ => panic!("a pool holds exactly one world after an attempt"),
        };
        inboxes.sort();
        let hosts: Vec<String> = (0..sim.node_names().len())
            .filter_map(|i| sim.node_ref::<Host>(NodeId(i)))
            .map(|h| {
                let open = (h.open_connections(), h.pending_timers());
                format!("{:?} {open:?}", h.counters())
            })
            .collect();
        let switches: Vec<_> = (0..sim.node_names().len())
            .filter_map(|i| sim.node_ref::<Switch>(NodeId(i)))
            .map(Switch::stats)
            .collect();
        let actions: Vec<_> = monitors.censor_actions(sim).collect();
        let surv = monitors.surveillance(sim);
        let stores = surv.stores();
        format!(
            "{:?} {}\n{hosts:?}\n{switches:?}\n{inboxes:?}\n{actions:?}\n{:?}\n{:?}\n{:?}",
            sim.now(),
            sim.events_processed(),
            surv.stats(),
            surv.engine().log().all(),
            (
                stores.content.len(),
                stores.metadata.len(),
                stores.alerts.len()
            ),
        )
    }

    /// Everything an attempt produced: its outcome, its registry delta
    /// (trace records and exposure rows included) and its world's state.
    fn attempt_output(outcome: &AttemptOutcome, acc: &Registry, worlds: &Worlds<'_>) -> String {
        let outcome = match outcome {
            AttemptOutcome::Done(result) => format!("{result:?}"),
            AttemptOutcome::Retry { next_attempt } => format!("retry {next_attempt}"),
        };
        let exposure = ExposureLedger::from_registry(acc);
        format!(
            "{outcome}\n{}\n{}\n{:?}\n{}",
            acc.to_json(),
            acc.trace_jsonl(),
            exposure.iter().collect::<Vec<_>>(),
            world_state(worlds)
        )
    }

    /// The pooled-world property: random sequences of attempts — column,
    /// method, target, seed, attempt number, access-link impairment,
    /// telemetry off, on or traced — run through one pool produce, attempt
    /// by attempt, exactly what a fresh world produces. Consecutive draws
    /// favour the previous column and method, so most attempts reset the
    /// pooled world rather than build one.
    #[test]
    fn pooled_worlds_match_fresh_worlds_attempt_by_attempt() {
        let specs = columns();
        let preps: Vec<Vec<PolicyPrep<'_>>> = specs.iter().map(prepare).collect();
        let cases = if cfg!(debug_assertions) { 40 } else { 400 };
        let (mut resets, mut attempts) = (0, 0);
        testprop::cases(cases, 0x900_1ED, |g| {
            let mut worlds = Worlds::new();
            let (mut spec_idx, mut policy_idx, mut method) = (0, 0, MethodKind::Scan);
            for step in 0..g.usize_in(2, 7) {
                if step == 0 || g.usize_in(0, 3) == 0 {
                    spec_idx = g.usize_in(0, specs.len());
                    policy_idx = g.usize_in(0, specs[spec_idx].policies.len());
                }
                if step == 0 || g.bool() {
                    method = *g.choose(&MethodKind::ALL);
                }
                let spec = &specs[spec_idx];
                let prep = &preps[spec_idx][policy_idx];
                let trial = Trial {
                    index: step,
                    policy_idx,
                    method,
                    target_idx: g.usize_in(0, spec.targets.len()),
                    repeat: 0,
                    seed: g.u64(),
                };
                let attempt = g.u32_in(0, 3);
                let cfg = match g.usize_in(0, 3) {
                    0 => ScopeConfig::of(&Telemetry::disabled()),
                    1 => ScopeConfig::of(&Telemetry::enabled()),
                    _ => ScopeConfig::of(&Telemetry::with_trace(g.usize_in(16, 4096))),
                };
                let pooled_before = worlds.flat.is_some() || worlds.routed.is_some();
                let mut acc = Delta::new();
                let outcome =
                    run_trial_attempt_in(&mut worlds, spec, prep, &trial, attempt, &mut acc, cfg);
                let pooled = attempt_output(&outcome, &acc.to_registry(), &worlds);
                let mut fresh_worlds = Worlds::new();
                let mut acc = Delta::new();
                let outcome = run_trial_attempt_in(
                    &mut fresh_worlds,
                    spec,
                    prep,
                    &trial,
                    attempt,
                    &mut acc,
                    cfg,
                );
                let fresh = attempt_output(&outcome, &acc.to_registry(), &fresh_worlds);
                assert_eq!(
                    pooled, fresh,
                    "step {step}: {method:?} on {}",
                    prep.named.name
                );
                attempts += 1;
                resets += usize::from(pooled_before);
            }
        });
        assert!(
            resets * 2 > attempts,
            "most attempts reuse a pooled world ({resets} of {attempts})"
        );
    }

    /// A pooled world keeps no handle to the attempt's scope once the
    /// attempt ends, so the hand-off moves the scope's registry and trace
    /// ring out rather than copying them.
    #[test]
    fn a_pooled_world_lets_the_scope_move_out() {
        let spec = &columns()[0];
        let preps = prepare(spec);
        let mut worlds = Worlds::new();
        for (method, seed) in [
            (MethodKind::Overt, 1),
            (MethodKind::Overt, 2),
            (MethodKind::Hops, 3),
        ] {
            let scope = Telemetry::with_trace(1024);
            let trial = Trial {
                index: 0,
                policy_idx: 1,
                method,
                target_idx: 0,
                repeat: 0,
                seed,
            };
            let stage = Stage {
                spec,
                prep: &preps[1],
                trial: &trial,
                seed,
                scope: &scope,
            };
            execute(&stage, &mut worlds, spec.run_secs);
            assert!(worlds.flat.is_some() || worlds.routed.is_some());
            assert!(
                scope.is_unshared(),
                "{method:?}: the world let go of the scope"
            );
            assert!(!scope.into_registry().trace.is_empty());
        }
    }
}
