//! `exp_campaign` flag parsing is total: every malformed, missing or
//! unknown flag exits with status 2 and a one-line error naming the flag
//! on stderr — no panic, no stdout, and never a fall-through default run.

use std::process::Command;

fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_campaign"))
        .args(args)
        .output()
        .expect("spawn exp_campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: printed to stdout");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.contains(flag),
        "{args:?}: error must name {flag}: {stderr}"
    );
}

#[test]
fn malformed_numbers_exit_2() {
    assert_rejected(&["--shards", "abc"], "--shards");
    assert_rejected(&["--shards=-1"], "--shards");
    assert_rejected(&["--synthetic", "abc"], "--synthetic");
    assert_rejected(&["--progress=abc"], "--progress");
    assert_rejected(&["--trace-capacity", "0"], "--trace-capacity");
}

#[test]
fn missing_values_exit_2() {
    assert_rejected(&["--shards"], "--shards");
    assert_rejected(&["--trace-diff", "3"], "--trace-diff");
    assert_rejected(&["--checkpoint"], "--checkpoint");
    assert_rejected(&["--checkpoint", "--json"], "--checkpoint");
    assert_rejected(&["--profile-json"], "--profile-json");
}

#[test]
fn unknown_flags_and_values_exit_2() {
    assert_rejected(&["--shard", "4"], "--shard");
    assert_rejected(&["--audit=yaml"], "--audit");
    assert_rejected(&["--json=1"], "--json");
}
