//! `cargo bench --bench experiments` regenerates every paper table and
//! figure in one run (E1–E12). Not a timing benchmark — a reproduction
//! harness (harness = false).
//!
//! Alongside the stdout report it writes `BENCH_telemetry.json`: every
//! experiment's telemetry registry (netsim scheduler, censor, ids,
//! surveillance, workload metrics) plus a merged view. The experiments
//! shard across worker threads but each records into its own registry, so
//! the file is byte-identical to a sequential run of the same seed.

fn main() {
    // Respect `cargo bench -- --list`-style probing by ignoring args.
    let (results, footer) =
        underradar_bench::experiments::collect_profiled(&underradar_bench::experiments::ALL);
    for (_, report, _) in &results {
        print!("{report}");
    }
    // Wall-clock stage profile — stderr, so the stdout report stays
    // deterministic.
    eprint!("{footer}");
    let json = underradar_bench::experiments::telemetry_json(&results);
    // cargo runs benches with cwd = the package dir; anchor the artifact
    // at the workspace root so it lands next to the other reports.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("telemetry registry written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
