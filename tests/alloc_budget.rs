//! Allocation budgets for the paper-scale campaign, counted exactly.
//!
//! A counting global allocator makes these gates deterministic: the same
//! trials make the same allocations on every run, so unlike a timing
//! gate they cannot flake. This file holds a single test so that no other
//! test's allocations land in its counts.
//!
//! * The paper matrix (`paper_campaign(1)`, 128 trials, one worker, through
//!   the run service) must average at most 470 allocations per trial.
//! * The stealthy matrix (its four §4 methods, stateless DNS and SYN
//!   mimicry, hop sweeps and stateful mimicry, under the control and
//!   keyword-rst columns: 256 trials at 8 per cell, one worker, through
//!   the run service) must average at most 100 allocations per trial. Its
//!   trials are the cheapest, so the world build that the run service's
//!   pooled worlds skip was most of their allocations.
//! * The paper matrix with telemetry on (every trial exports its monitors
//!   and its exposure ledger, and the run service merges the deltas) must
//!   average at most 540 allocations per trial. It runs first, so the
//!   process-wide name pool starts empty and every name's one allocation
//!   lands in its count.
//! * The matrix's DDoS trials, its costliest (80 HTTP request samples
//!   each), must average at most 2,000. They are counted one by one
//!   through the engine, after a first pass over the matrix has compiled
//!   every policy column's shared parts, so no one-off compilation lands
//!   in their counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use underradar::prelude::*;
use underradar_bench::experiments::campaign::paper_campaign;
use underradar_campaign::engine::ScopeConfig;
use underradar_runner::NullSink;
use underradar_telemetry::Telemetry;

/// Counts `alloc` and `realloc` calls; frees do not count.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made while `f` runs.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocations per trial of `spec` through the run service on one worker.
fn service_allocs_per_trial(spec: &CampaignSpec, tel: &Telemetry) -> f64 {
    let total = allocs_in(|| {
        run_service(spec, &RunConfig::new(1), tel, &mut NullSink).expect("in-memory run");
    });
    total as f64 / spec.trial_count() as f64
}

#[test]
fn paper_matrix_and_ddos_trials_stay_within_their_allocation_budgets() {
    let spec = paper_campaign(1);
    let per_telemetry = service_allocs_per_trial(&spec, &Telemetry::enabled());
    let tel = Telemetry::disabled();

    let mut stealthy = paper_campaign(8);
    stealthy.methods = vec![
        MethodKind::StatelessDns,
        MethodKind::StatelessSyn,
        MethodKind::Hops,
        MethodKind::Stateful,
    ];
    stealthy
        .policies
        .retain(|p| p.name == "control" || p.name == "keyword-rst");
    let per_stealthy = service_allocs_per_trial(&stealthy, &tel);

    let trials = spec.expand();
    let per_trial = service_allocs_per_trial(&spec, &tel);

    let preps = campaign_engine::prepare(&spec);
    let cfg = ScopeConfig::of(&tel);
    for trial in &trials {
        campaign_engine::run_trial(&spec, &preps[trial.policy_idx], trial, cfg);
    }
    let ddos: Vec<u64> = trials
        .iter()
        .filter(|t| t.method == MethodKind::Ddos)
        .map(|t| {
            allocs_in(|| {
                campaign_engine::run_trial(&spec, &preps[t.policy_idx], t, cfg);
            })
        })
        .collect();
    let per_ddos = ddos.iter().sum::<u64>() as f64 / ddos.len() as f64;
    println!(
        "paper matrix: {per_trial:.0} allocs/trial over {} trials \
         ({per_telemetry:.0} with telemetry on); stealthy matrix: {per_stealthy:.0} allocs/trial over {} trials; \
         DDoS: {per_ddos:.0} allocs/trial over {} trials {ddos:?}",
        trials.len(),
        stealthy.trial_count(),
        ddos.len()
    );

    assert!(
        per_trial <= 470.0,
        "a paper-matrix trial must average at most 470 allocations (got {per_trial:.0})"
    );
    assert!(
        per_telemetry <= 540.0,
        "a paper-matrix trial with telemetry on must average at most 540 allocations \
         (got {per_telemetry:.0})"
    );
    assert!(
        per_stealthy <= 100.0,
        "a stealthy trial must average at most 100 allocations (got {per_stealthy:.0})"
    );
    assert!(
        per_ddos <= 2_000.0,
        "a DDoS trial must average at most 2,000 allocations (got {per_ddos:.0})"
    );
}
