//! Per-experiment telemetry plumbing.
//!
//! Experiments often build several independent testbeds (scenario loops,
//! parameter sweeps). Subsystem exports write *absolute totals*
//! ([`Telemetry::set_counter`]-style), so two testbeds exporting into the
//! same registry would overwrite each other instead of accumulating. The
//! pattern here gives every testbed its own **scope** (a fresh
//! sub-registry, [`Telemetry::scope`]) and folds finished scopes into the
//! experiment's registry ([`Telemetry::absorb`]) with merge semantics — counters and histogram buckets add, so the
//! experiment-level numbers are sums over its scenarios, exactly like a
//! sharded run merging its shards.
//!
//! Everything is a no-op when the parent handle is disabled; the only
//! cost on the disabled path is the `is_enabled` branch.

use underradar_censor::TapCensor;
use underradar_core::methods::stateful::RoutedMimicryNet;
use underradar_core::testbed::Testbed;
use underradar_surveil::system::SurveillanceNode;
use underradar_telemetry::Telemetry;

/// Attach a fresh scope to a testbed's scheduler so live counters record
/// while it runs. Returns the scope; finish with [`finish_testbed`].
pub fn instrument_testbed(tb: &mut Testbed, parent: &Telemetry) -> Telemetry {
    let sub = parent.scope();
    if sub.is_enabled() {
        tb.set_telemetry(sub.clone());
    }
    sub
}

/// Export a finished testbed into its scope and fold the scope into
/// `parent`.
pub fn finish_testbed(tb: &Testbed, sub: &Telemetry, parent: &Telemetry) {
    tb.export_telemetry(sub);
    parent.absorb(sub);
}

/// Attach a fresh scope to a routed-mimicry net's scheduler (and, when
/// the scope carries a flight-recorder trace, to the net's censor and
/// surveillance stages). Finish with [`finish_routed`].
pub fn instrument_routed(net: &mut RoutedMimicryNet, parent: &Telemetry) -> Telemetry {
    let sub = parent.scope();
    if sub.is_enabled() {
        let tracer = sub.tracer();
        net.sim.set_telemetry(sub.clone());
        if tracer.is_live() {
            if let Some(tap) = net.sim.node_mut::<TapCensor>(net.censor) {
                tap.set_tracer(tracer.clone());
            }
            if let Some(surv) = net.sim.node_mut::<SurveillanceNode>(net.surveillance) {
                surv.set_tracer(tracer);
            }
        }
    }
    sub
}

/// Export a finished routed-mimicry net (scheduler, tap censor,
/// surveillance pipeline) into its scope and fold into `parent`.
pub fn finish_routed(net: &RoutedMimicryNet, sub: &Telemetry, parent: &Telemetry) {
    if sub.is_enabled() {
        net.sim.export_telemetry(sub);
        if let Some(tap) = net.sim.node_ref::<TapCensor>(net.censor) {
            tap.export_telemetry(sub);
        }
        if let Some(surv) = net.sim.node_ref::<SurveillanceNode>(net.surveillance) {
            surv.system().export_telemetry(sub);
        }
    }
    parent.absorb(sub);
}
