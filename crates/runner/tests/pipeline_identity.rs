//! Randomized whole-pipeline identity: random small campaigns run through
//! the run service — whose workers reset pooled worlds between trials —
//! must produce the bytes of a sequential reference that builds a fresh
//! world for every attempt (`engine::run_trial` per index), however the
//! service is run: at 1 and 3 workers, with and without a checkpoint
//! journal, and resumed from a journal cut at a random record boundary.
//! Compared: the report text, the rows, the merged registry's JSON, the
//! trace and the safety audit.

use std::path::PathBuf;

use underradar_campaign::engine::{self, ScopeConfig};
use underradar_campaign::{
    CampaignSpec, MethodKind, NamedPolicy, RetryPolicy, StreamReport, TrialResult,
};
use underradar_censor::CensorPolicy;
use underradar_core::TargetSite;
use underradar_netsim::addr::Cidr;
use underradar_netsim::testprop::{self, Gen};
use underradar_protocols::dns::DnsName;
use underradar_runner::journal::HEADER_LEN;
use underradar_runner::{run_service, RunConfig, VecSink};
use underradar_surveil::exposure::{DeclaredCell, ExposureLedger, SafetyAudit};
use underradar_telemetry::Telemetry;

const DOMAINS: [&str; 3] = ["twitter.com", "bbc.com", "youtube.com"];

/// A random small campaign: 1–2 targets, 1–3 methods, 1–2 policy
/// columns, 1–2 trials per cell, with random access-link impairment,
/// spoofed cover, warm-up, retry budget, horizon and trace capacity.
fn random_spec(g: &mut Gen, case: u64) -> CampaignSpec {
    let targets = &DOMAINS[..g.usize_in(1, 3)];
    let mut methods = Vec::new();
    for _ in 0..g.usize_in(1, 4) {
        let m = *g.choose(&MethodKind::ALL);
        if !methods.contains(&m) {
            methods.push(m);
        }
    }
    let twitter = DnsName::parse("twitter.com").expect("name");
    let twitter_web = TargetSite::numbered("twitter.com", 0).web_ip;
    let mut policies = vec![
        NamedPolicy::new("control", CensorPolicy::new()),
        NamedPolicy::new("dns-injection", CensorPolicy::new().block_domain(&twitter)),
        NamedPolicy::new(
            "ip-blackhole",
            CensorPolicy::new().block_ip(Cidr::host(twitter_web)),
        ),
        NamedPolicy::new("keyword-rst", CensorPolicy::new().block_keyword("falun"))
            .with_probe_path("/falun-page"),
    ];
    let mut spec = CampaignSpec::new(&format!("identity-{case}"), g.u64())
        .targets(targets.iter().copied())
        .methods(methods)
        .trials_per_cell(g.usize_in(1, 3))
        .spoofed_cover(if g.bool() { 0 } else { g.usize_in(1, 5) })
        .warmup(g.bool())
        .retry(RetryPolicy {
            max_retries: g.u32_in(0, 3),
            backoff_secs: *g.choose(&[0, 10, 30]),
        })
        .run_secs(*g.choose(&[2, 20, 60]));
    for _ in 0..g.usize_in(1, 3) {
        let policy = policies.remove(g.usize_in(0, policies.len()));
        spec = spec.policy(policy);
    }
    if g.bool() {
        spec = spec
            .client_link_loss(*g.choose(&[0.0, 0.1, 0.3]))
            .client_link_reorder(*g.choose(&[0.0, 0.2]))
            .client_link_duplicate(*g.choose(&[0.0, 0.1]))
            .client_link_corrupt(*g.choose(&[0.0, 0.05]));
    }
    if g.bool() {
        spec = spec.trace_capacity(Some(g.usize_in(8, 512)));
    }
    spec
}

/// Telemetry off, on, or on with the flight recorder.
fn random_telemetry(g: &mut Gen) -> fn() -> Telemetry {
    *g.choose(&[
        Telemetry::disabled as fn() -> Telemetry,
        Telemetry::enabled,
        || Telemetry::with_trace(4096),
    ])
}

/// Everything the determinism contract covers, as comparable strings.
#[derive(Debug, PartialEq)]
struct Output {
    report: String,
    rows: Vec<String>,
    registry: String,
    trace: String,
    audit: String,
}

impl Output {
    fn of(report: &StreamReport, mut rows: Vec<TrialResult>, tel: &Telemetry) -> Output {
        rows.sort_by_key(|t| t.index);
        let registry = tel.snapshot();
        let declared: Vec<DeclaredCell> = report
            .cells()
            .iter()
            .map(|c| DeclaredCell {
                cell: format!("{}/{}", c.method, c.policy),
                trials: c.trials as u64,
                evaded: c.evaded as u64,
            })
            .collect();
        let audit = SafetyAudit::build(&ExposureLedger::from_registry(&registry), &declared);
        Output {
            report: report.render_text(),
            rows: rows.iter().map(TrialResult::to_json_row).collect(),
            registry: registry.to_json(),
            trace: registry.trace_jsonl(),
            audit: audit.render_text(),
        }
    }
}

/// The reference: every trial in index order on this thread, each
/// attempt in a freshly built world.
fn reference(spec: &CampaignSpec, tel: Telemetry) -> Output {
    let preps = engine::prepare(spec);
    let cfg = ScopeConfig::of(&tel).with_trace_capacity(spec.trace_capacity);
    let mut report = StreamReport::new(&spec.name);
    let mut rows = Vec::new();
    for trial in spec.expand() {
        let (result, registry) = engine::run_trial(spec, &preps[trial.policy_idx], &trial, cfg);
        tel.merge_registry(&registry);
        report.absorb(&result);
        rows.push(result);
    }
    Output::of(&report, rows, &tel)
}

fn service(spec: &CampaignSpec, cfg: &RunConfig, tel: Telemetry) -> Output {
    let mut sink = VecSink::new();
    let outcome = run_service(spec, cfg, &tel, &mut sink).expect("service run");
    Output::of(&outcome.report, sink.trials, &tel)
}

fn journal_path(case: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "underradar-pipeline-identity-{case}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The journal's record boundaries: after the header and after each
/// length-prefixed frame.
fn record_boundaries(journal: &[u8]) -> Vec<usize> {
    let mut pos = HEADER_LEN as usize;
    let mut boundaries = vec![pos];
    while pos + 8 <= journal.len() {
        let len = u32::from_le_bytes([
            journal[pos],
            journal[pos + 1],
            journal[pos + 2],
            journal[pos + 3],
        ]) as usize;
        pos += 8 + len;
        boundaries.push(pos);
    }
    assert_eq!(pos, journal.len(), "frames tile the journal");
    boundaries
}

#[test]
fn random_campaigns_match_the_fresh_world_reference_however_run() {
    let cases = if cfg!(debug_assertions) { 16 } else { 64 };
    let mut case = 0u64;
    testprop::cases(cases, 0x1D_E417, |g| {
        case += 1;
        let spec = random_spec(g, case);
        let telemetry = random_telemetry(g);
        let expected = reference(&spec, telemetry());
        let path = journal_path(case);
        for workers in [1, 3] {
            let plain = service(&spec, &RunConfig::new(workers), telemetry());
            assert_eq!(plain, expected, "{workers} workers, no journal");
            let _ = std::fs::remove_file(&path);
            let cfg = RunConfig::new(workers)
                .checkpoint(path.clone())
                .fsync_every(1);
            assert_eq!(
                service(&spec, &cfg, telemetry()),
                expected,
                "{workers} workers, journaled"
            );
        }
        // The journal of the last run is complete; cut it at a random
        // record boundary and resume from there.
        let full = std::fs::read(&path).expect("journal bytes");
        let boundaries = record_boundaries(&full);
        let cut = *g.choose(&boundaries);
        std::fs::write(&path, &full[..cut]).expect("truncate the journal");
        let cfg = RunConfig::new(*g.choose(&[1, 3])).checkpoint(path.clone());
        assert_eq!(
            service(&spec, &cfg, telemetry()),
            expected,
            "resumed from byte {cut} of {}",
            full.len()
        );
        let _ = std::fs::remove_file(&path);
    });
}
