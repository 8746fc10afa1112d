//! The `underradar` command line is total: every malformed, missing or
//! unknown argument to every subcommand exits with status 2 and one
//! stderr line naming the offending flag or value — no panic, nothing on
//! stdout, and never a fall-through default run. Experiment ids resolve
//! through the one experiment table.

use std::process::{Command, Output};

fn underradar(args: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_underradar"))
        .args(args)
        .output()
        .expect("spawn underradar")
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// `n` distinct valid domains, comma-separated.
fn domains(n: usize) -> String {
    (0..n)
        .map(|i| format!("site{i}.example"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Every malformed invocation, and the flag or value its error must name.
fn malformed() -> Vec<(Vec<String>, &'static str)> {
    let table: &[(&[&str], &str)] = &[
        // experiments
        (&["experiments", "e2", "--bogus"], "--bogus"),
        (&["experiments", "e2", "--json=1"], "--json"),
        (
            &["experiments", "e2", "--trace-capacity", "abc"],
            "--trace-capacity",
        ),
        (
            &["experiments", "e2", "--trace-capacity", "0"],
            "--trace-capacity",
        ),
        (
            &["experiments", "e2", "--trace-capacity"],
            "--trace-capacity",
        ),
        (&["experiments", "e99"], "e99"),
        (&["experiments", "e2", "e3"], "e3"),
        // campaign: malformed numbers
        (&["campaign", "--shards", "abc"], "--shards"),
        (&["campaign", "--shards=-1"], "--shards"),
        (&["campaign", "--synthetic", "abc"], "--synthetic"),
        (&["campaign", "--progress=abc"], "--progress"),
        (&["campaign", "--trace-capacity", "0"], "--trace-capacity"),
        // campaign: missing values
        (&["campaign", "--shards"], "--shards"),
        (&["campaign", "--trace-diff", "3"], "--trace-diff"),
        (&["campaign", "--checkpoint"], "--checkpoint"),
        (&["campaign", "--checkpoint", "--json"], "--checkpoint"),
        (&["campaign", "--profile-json"], "--profile-json"),
        (&["campaign", "--profile"], "--profile"),
        // campaign: unknown flags and values
        (&["campaign", "--shard", "4"], "--shard"),
        (&["campaign", "--audit=yaml"], "--audit"),
        (&["campaign", "--json=1"], "--json"),
        (&["campaign", "extra"], "extra"),
        // survey
        (&["survey"], "--domains"),
        (&["survey", "--domains"], "--domains"),
        (&["survey", "--domains", "a.com,bad..name"], "bad..name"),
        (&["survey", "--domains", "a.com,"], "--domains"),
        (&["survey", "--domains", "a.com", "--block"], "--block"),
        (&["survey", "--domains", "a.com", "--block", "x..y"], "x..y"),
        (&["survey", "--domains", "a.com", "--keyword"], "--keyword"),
        (&["survey", "--domains", "a.com", "--bogus"], "--bogus"),
        // pcap and calibrate
        (&["pcap"], "pcap"),
        (&["pcap", "a.pcap", "b.pcap"], "b.pcap"),
        (&["pcap", "--force", "a.pcap"], "--force"),
        (&["calibrate", "--fast"], "--fast"),
        (&["bogus"], "bogus"),
        (&["--json"], "--json"),
    ];
    let mut cases: Vec<(Vec<String>, &str)> = table
        .iter()
        .map(|&(args, name)| (strings(args), name))
        .collect();
    // Survey addresses are 93.184.0.(10 + i): index 246 would wrap and
    // index 256 would alias index 0.
    for n in [247, 256, 300] {
        cases.push((strings(&["survey", "--domains", &domains(n)]), "--domains"));
    }
    cases
}

#[test]
fn malformed_invocations_exit_2_with_one_line_naming_the_flag() {
    for (args, name) in malformed() {
        let out = underradar(&args);
        let shown = args.join(" ");
        let shown = &shown[..shown.len().min(80)];
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{shown}: stderr {stderr}");
        assert!(out.stdout.is_empty(), "{shown}: printed to stdout");
        assert!(!stderr.contains("panicked"), "{shown}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{shown}: {stderr}");
        assert!(
            stderr.contains(name),
            "{shown}: error must name {name}: {stderr}"
        );
    }
}

#[test]
fn every_table_id_is_accepted() {
    for id in ["e14", "e02_scan", "E2"] {
        let out = underradar(&strings(&["experiments", id]));
        assert_eq!(out.status.code(), Some(0), "experiments {id}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("PASSED"), "experiments {id}: {stdout}");
    }
}

#[test]
fn output_flags_reach_the_experiment() {
    let out = underradar(&strings(&["experiments", "e2", "--json"]));
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"experiment\":\"e02_scan\",\"report\":"),
        "{stdout}"
    );
}

/// The flags are the only input: environment variables named like the
/// output flags change no output byte.
#[test]
fn environment_variables_change_no_output() {
    let plain = underradar(&strings(&["experiments", "e2"]));
    let with_env = Command::new(env!("CARGO_BIN_EXE_underradar"))
        .args(["experiments", "e2"])
        .env("UNDERRADAR_TELEMETRY", "1")
        .env("UNDERRADAR_TRACE", "1")
        .output()
        .expect("spawn underradar");
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(with_env.status.code(), Some(0));
    assert_eq!(plain.stdout, with_env.stdout);
}

#[test]
fn well_formed_survey_reports_the_blocked_domain() {
    let out = underradar(&strings(&[
        "survey",
        "--domains",
        "twitter.com,bbc.com",
        "--block",
        "twitter.com",
    ]));
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("twitter.com              CENSORED"),
        "{stdout}"
    );
}

/// The risk line scores every domain's verdict against the censor's
/// actions on that domain, so listing the blocked domain first or last
/// reads the same.
#[test]
fn survey_risk_scores_every_domain_in_either_order() {
    for domains in ["twitter.com,bbc.com", "bbc.com,twitter.com"] {
        let out = underradar(&strings(&[
            "survey",
            "--domains",
            domains,
            "--block",
            "twitter.com",
        ]));
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("twitter.com              CENSORED"),
            "{stdout}"
        );
        assert!(
            stdout.contains("bbc.com                  reachable"),
            "{stdout}"
        );
        assert!(
            stdout.contains("risk: censor=true correct=true "),
            "{domains}: {stdout}"
        );
    }
}

#[test]
fn survey_accepts_the_largest_addressable_domain_list() {
    let out = underradar(&strings(&["survey", "--domains", &domains(246)]));
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("site245.example"), "{stdout}");
}

/// The longest domain a DNS name holds (252 characters) leaves no room
/// for its mail exchanger `mx1.<domain>`, so no testbed can survey it:
/// the survey refuses it up front instead of reporting an uncensored
/// site as inconclusive.
#[test]
fn survey_refuses_a_domain_its_mail_server_name_cannot_extend() {
    let longest = [63, 63, 63, 60].map(|n| "a".repeat(n)).join(".");
    let out = underradar(&strings(&["survey", "--domains", &longest]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr}");
    assert!(out.stdout.is_empty(), "printed to stdout");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--domains"), "{stderr}");
    assert!(stderr.contains("name too long"), "{stderr}");
}
