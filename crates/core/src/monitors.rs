//! The monitors a world is judged against (§3.2, §4.2): a tap censor, an
//! optional inline censor and the surveillance node (the MVR and its IDS).
//!
//! A policy column's one [`crate::testbed::TestbedTemplate`] builds both
//! worlds: the flat testbed ([`crate::testbed::Testbed`]) has all three
//! monitors; the routed TTL chain
//! ([`crate::methods::stateful::RoutedMimicryNet`]) has no inline censor,
//! shares the column's compiled tap-censor policy, and keeps its own
//! surveillance ruleset (it has no collector, so no collector rule). Both
//! delegate to one [`MonitorSet`], and the surface they share — running,
//! attaching telemetry and a tracer, exporting, reading the censors'
//! actions — is written once, here.

use underradar_censor::{CensorAction, InlineCensor, TapCensor};
use underradar_netsim::node::NodeId;
use underradar_netsim::sim::Simulator;
use underradar_netsim::telemetry::Telemetry;
use underradar_surveil::system::{SurveillanceNode, SurveillanceSystem};

/// A world's monitor nodes, by id in its simulator.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSet {
    /// The off-path censor.
    pub(crate) tap: NodeId,
    /// The inline censor, if the world has one.
    pub(crate) inline: Option<NodeId>,
    /// The surveillance node.
    pub(crate) surveillance: NodeId,
}

impl MonitorSet {
    /// Attach `tel` to the simulator, which then samples its queue depth
    /// for [`MonitorSet::export_telemetry`] to write with its per-kind
    /// counts. The only handle anything keeps is the tracer: `tel`'s
    /// tracer (disabled unless it carries a flight-recorder trace) goes to
    /// the simulator and to every monitor, so one trace holds the full
    /// causal chain. A disabled `tel` detaches the world: it then holds no
    /// handle to any registry or trace ring.
    pub fn set_telemetry(&self, sim: &mut Simulator, tel: Telemetry) {
        let tracer = tel.tracer();
        sim.set_telemetry(tel);
        if let Some(tap) = sim.node_mut::<TapCensor>(self.tap) {
            tap.set_tracer(tracer.clone());
        }
        if let Some(inline) = self.inline.and_then(|id| sim.node_mut::<InlineCensor>(id)) {
            inline.set_tracer(tracer.clone());
        }
        if let Some(surv) = sim.node_mut::<SurveillanceNode>(self.surveillance) {
            surv.set_tracer(tracer);
        }
    }

    /// Mirror the world into `tel`: scheduler totals, then the tap censor,
    /// the inline censor and the surveillance pipeline. Counters and
    /// gauges are idempotent; censor-action events append, so call once
    /// per run.
    pub fn export_telemetry(&self, sim: &Simulator, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        sim.export_telemetry(tel);
        if let Some(tap) = sim.node_ref::<TapCensor>(self.tap) {
            tap.export_telemetry(tel);
        }
        if let Some(inline) = self.inline.and_then(|id| sim.node_ref::<InlineCensor>(id)) {
            inline.export_telemetry(tel);
        }
        self.surveillance(sim).export_telemetry(tel);
    }

    /// Ground truth, borrowed: the tap censor's logged actions, then the
    /// inline censor's.
    pub fn censor_actions<'s>(&self, sim: &'s Simulator) -> impl Iterator<Item = &'s CensorAction> {
        let tap = sim
            .node_ref::<TapCensor>(self.tap)
            .map_or(&[][..], TapCensor::actions);
        let inline = self
            .inline
            .and_then(|id| sim.node_ref::<InlineCensor>(id))
            .map_or(&[][..], InlineCensor::actions);
        tap.iter().chain(inline)
    }

    /// Whether any censor acted during the run.
    pub fn censor_acted(&self, sim: &Simulator) -> bool {
        self.censor_actions(sim).next().is_some()
    }

    /// The surveillance system, for evasion and attribution queries.
    pub fn surveillance<'s>(&self, sim: &'s Simulator) -> &'s SurveillanceSystem {
        sim.node_ref::<SurveillanceNode>(self.surveillance)
            .expect("surveillance node exists")
            .system()
    }
}

/// Give a world type — one with a `sim` field and a `monitors()` method —
/// the surface both world types share: running, and wiring and reading
/// its monitors through [`MonitorSet`]. Written once here until the two
/// types merge into one.
macro_rules! world_surface {
    ($world:ty) => {
        impl $world {
            /// Run the simulation for `secs` simulated seconds.
            pub fn run_secs(&mut self, secs: u64) {
                self.sim
                    .run_for(underradar_netsim::time::SimDuration::from_secs(secs))
                    .expect("simulation within event budget");
            }

            /// Ground truth: the censors' logged actions, tap first.
            pub fn censor_actions(&self) -> Vec<CensorAction> {
                self.monitors().censor_actions(&self.sim).cloned().collect()
            }

            /// Whether any censor acted during the run.
            pub fn censor_acted(&self) -> bool {
                self.monitors().censor_acted(&self.sim)
            }

            /// The surveillance system, for evasion and attribution queries.
            pub fn surveillance(&self) -> &SurveillanceSystem {
                self.monitors().surveillance(&self.sim)
            }

            /// Attach a telemetry handle to the simulator, and its tracer
            /// to every monitor ([`MonitorSet::set_telemetry`]).
            pub fn set_telemetry(&mut self, tel: Telemetry) {
                self.monitors().set_telemetry(&mut self.sim, tel);
            }

            /// Mirror the world's state into `tel`
            /// ([`MonitorSet::export_telemetry`]); call once per run.
            pub fn export_telemetry(&self, tel: &Telemetry) {
                self.monitors().export_telemetry(&self.sim, tel);
            }
        }
    };
}

world_surface!(crate::testbed::Testbed);
world_surface!(crate::methods::stateful::RoutedMimicryNet);
