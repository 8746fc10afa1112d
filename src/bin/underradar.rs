//! The `underradar` command-line tool, the workspace's only binary: run
//! the paper's experiments and campaign, and ad-hoc surveys against the
//! simulated testbed.
//!
//! ```text
//! underradar experiments <id|all> [--json|--jsonl|--telemetry|--trace|--trace-capacity N]
//!                                          regenerate paper tables/figures
//! underradar campaign [flags]              the paper-scale campaign (see `cli::campaign`)
//! underradar survey --domains a,b,c [--block d]... [--keyword k]...
//!                                          run a stealthy survey
//! underradar pcap <out.pcap>               write a sample capture for Wireshark
//! underradar calibrate                     find the Fig-3b reply-TTL window
//! ```
//!
//! Every subcommand parses its arguments with `underradar_bench::cli`'s
//! one total parser: a malformed value, a missing value or an unknown
//! flag prints one line naming it on stderr and exits with status 2,
//! before anything runs.

use std::net::Ipv4Addr;
use std::process::ExitCode;

use underradar::censor::CensorPolicy;
use underradar::core::methods::hops::HopProbe;
use underradar::core::methods::spam::SpamProbe;
use underradar::core::methods::stateful::RoutedMimicryNet;
use underradar::core::probe::Probe;
use underradar::core::risk::RiskReport;
use underradar::core::testbed::{TargetSite, Testbed, TestbedConfig};
use underradar::netsim::host::Host;
use underradar::netsim::time::{SimDuration, SimTime};
use underradar::protocols::dns::DnsName;
use underradar_bench::cli::{self, Arg, ArgParser};
use underradar_bench::experiments;

/// The most domains one survey can hold: `TargetSite::numbered` puts
/// site `i` at `93.184.0.(10 + i)`.
const MAX_SURVEY_DOMAINS: usize = 256 - 10;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  underradar experiments <{}> \
         [--json|--jsonl|--telemetry|--trace|--trace-capacity N]\n  \
         underradar campaign [--shards N] [--json|--jsonl|--telemetry|--trace|--audit] ...\n  \
         underradar survey --domains a,b,c [--block domain]... [--keyword kw]...\n  \
         underradar pcap <out.pcap>\n  underradar calibrate",
        experiments::id_list()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let outcome = match command.as_str() {
        "experiments" => cli::experiments(rest),
        "campaign" => cli::campaign(rest),
        "survey" => survey(rest),
        "pcap" => pcap(rest),
        "calibrate" => calibrate(rest),
        other => {
            eprintln!(
                "underradar: unknown command '{other}' \
                 (expected experiments|campaign|survey|pcap|calibrate)"
            );
            return ExitCode::from(2);
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("underradar {command}: {e}");
        ExitCode::from(2)
    })
}

/// The positional arguments of a subcommand that takes no flags and at
/// most `allowed` positionals; anything else is an `Err` naming it.
fn positionals(argv: &[String], allowed: usize) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    for arg in ArgParser::new(argv) {
        match arg {
            Arg::Flag(flag) => return Err(flag.unknown()),
            Arg::Positional(v) if out.len() < allowed => out.push(v),
            Arg::Positional(v) => return Err(format!("unexpected argument '{v}'")),
        }
    }
    Ok(out)
}

/// Parse one survey domain, naming `flag` in the error.
fn domain(flag: &str, raw: &str) -> Result<DnsName, String> {
    match DnsName::parse(raw) {
        Ok(d) if d.label_count() > 0 => Ok(d),
        Ok(_) => Err(format!("{flag}: empty domain name")),
        Err(e) => Err(format!("{flag}: invalid domain '{raw}': {e}")),
    }
}

fn survey(argv: &[String]) -> Result<ExitCode, String> {
    let mut domains: Vec<(&str, DnsName)> = Vec::new();
    let mut policy = CensorPolicy::new();
    let mut args = ArgParser::new(argv);
    while let Some(arg) = args.next() {
        let flag = match arg {
            Arg::Flag(flag) => flag,
            Arg::Positional(v) => return Err(format!("unexpected argument '{v}'")),
        };
        match flag.name {
            "--domains" => {
                for raw in args.value(&flag)?.split(',') {
                    domains.push((raw, domain(flag.name, raw)?));
                }
            }
            "--block" => policy = policy.block_domain(&domain(flag.name, args.value(&flag)?)?),
            "--keyword" => policy = policy.block_keyword(args.value(&flag)?),
            _ => return Err(flag.unknown()),
        }
    }
    if domains.is_empty() {
        return Err("needs --domains a,b,c".to_string());
    }
    if domains.len() > MAX_SURVEY_DOMAINS {
        return Err(format!(
            "--domains: at most {MAX_SURVEY_DOMAINS} domains, got {}",
            domains.len()
        ));
    }

    // Build targets for every surveyed domain so the resolver knows them.
    let targets: Vec<TargetSite> = domains
        .iter()
        .enumerate()
        .map(|(i, (raw, _))| TargetSite::numbered(raw, i as u8))
        .collect();
    let mut tb = Testbed::build(TestbedConfig {
        policy,
        targets,
        ..TestbedConfig::default()
    });
    let resolver = tb.resolver_ip;
    let mut idxs = Vec::new();
    for (i, (raw, d)) in domains.iter().enumerate() {
        let idx = tb.spawn_on_client(
            SimTime::ZERO + SimDuration::from_secs(2 * i as u64),
            Box::new(SpamProbe::new(d, resolver, i as u64)),
        );
        idxs.push((raw, idx));
    }
    tb.run_secs(20 + 3 * domains.len() as u64);

    println!("spam-cloaked survey results");
    println!("---------------------------");
    let mut last_verdict = None;
    for (domain, idx) in &idxs {
        let probe = tb.client_task::<SpamProbe>(*idx).expect("probe state");
        println!("{domain:<24} {}", probe.verdict());
        last_verdict = Some(probe.verdict());
    }
    if let Some(v) = last_verdict {
        let report = RiskReport::evaluate(&tb, &v);
        println!("\nrisk: {}", report.summary());
    }
    Ok(ExitCode::SUCCESS)
}

fn pcap(argv: &[String]) -> Result<ExitCode, String> {
    match positionals(argv, 1)?[..] {
        [path] => Ok(pcap_demo(path)),
        _ => Err("needs an output path: pcap <out.pcap>".to_string()),
    }
}

fn pcap_demo(path: &str) -> ExitCode {
    // A short censored exchange, captured and written as pcap.
    let policy = CensorPolicy::new().block_keyword("falun");
    let mut tb = Testbed::build(TestbedConfig {
        policy,
        capture: true,
        ..TestbedConfig::default()
    });
    let web = tb.target("bbc.com").expect("bbc target").web_ip;
    tb.spawn_on_client(
        SimTime::ZERO,
        Box::new(underradar::core::methods::ddos::DdosProbe::new(
            web, "bbc.com", "/falun", 2,
        )),
    );
    tb.run_secs(30);
    let cap = tb.sim.capture().expect("capture enabled");
    let bytes = underradar::netsim::pcap::to_pcap(cap);
    match std::fs::write(path, &bytes) {
        Ok(()) => {
            println!(
                "wrote {} packets ({} bytes) to {path}",
                cap.len(),
                bytes.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("write failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn calibrate(argv: &[String]) -> Result<ExitCode, String> {
    positionals(argv, 0)?;
    // Hop discovery from the measurement server, then the recommended TTL.
    let mut net = RoutedMimicryNet::build(7, CensorPolicy::new());
    let cover: Ipv4Addr = net.cover_ip;
    net.sim
        .node_mut::<Host>(net.mserver)
        .expect("mserver host")
        .spawn_task_at(SimTime::ZERO, Box::new(HopProbe::new(cover, 33434, 8)));
    net.sim.run_for(SimDuration::from_secs(10)).expect("run");
    let probe = net
        .sim
        .node_ref::<Host>(net.mserver)
        .expect("mserver host")
        .task_ref::<HopProbe>(0)
        .expect("probe state");
    println!("path from measurement server toward {cover}:");
    for (ttl, router) in probe.path() {
        println!("  hop {ttl}: {router}");
    }
    match (probe.hops_to_target(), probe.calibrated_reply_ttl()) {
        (Some(h), Some(t)) => {
            println!("target reached at TTL {h}; calibrated reply TTL = {t}");
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            eprintln!("calibration failed: target not reached within the sweep");
            Ok(ExitCode::FAILURE)
        }
    }
}
