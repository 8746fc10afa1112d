//! The unified probe API.
//!
//! [`Probe`] is the public entry point for reading a measurement's
//! outcome: one trait-object surface an engine — the campaign runner, the
//! experiment harnesses, user code — drives every technique through:
//!
//! * [`Probe::label`] — stable method name for tables and telemetry keys;
//! * [`Probe::is_finished`] — did the measurement run to completion, or
//!   was the simulation horizon too short?
//! * [`Probe::verdict`] — the censorship conclusion;
//! * [`Probe::evidence`] — deterministic key/value pairs describing what
//!   was observed (sample tallies, DNS answers, hop counts), for reports
//!   and structured output.
//!
//! A probe *runs* as a [`underradar_netsim::host::HostTask`] inside the
//! simulator. [`ProbeHandle::spawn`] starts it by the simulator's one
//! task-start rule ([`Simulator::spawn_task`]) and returns a handle typed
//! when the probe is spawned, so reading it back after the run is one
//! generic call ([`ProbeHandle::read`]) with no downcast at the reader.
//! The campaign engine's method table spawns every method this way, into
//! either world a [`crate::testbed::TestbedTemplate`] builds: the flat
//! testbed or the routed TTL chain.
//!
//! Implemented by [`crate::methods::scan::SynScanProbe`],
//! [`crate::methods::spam::SpamProbe`], [`crate::methods::ddos::DdosProbe`],
//! [`crate::methods::overt::OvertProbe`], [`crate::methods::hops::HopProbe`],
//! [`crate::methods::stateless::StatelessDnsMimicry`],
//! [`crate::methods::stateless::StatelessSynMimicry`],
//! [`crate::methods::stateful::StatefulMimicry`] (the blind client half)
//! and [`crate::methods::stateful::MimicServer`] (where the stateful
//! verdict is actually read).

use underradar_netsim::host::{Host, HostTask};
use underradar_netsim::node::NodeId;
use underradar_netsim::sim::Simulator;
use underradar_netsim::time::SimTime;

use crate::verdict::Verdict;

/// Deterministic evidence pairs: stable key, rendered value. Keys are
/// fixed per method; values are integers/booleans rendered to strings, so
/// the same run always yields byte-identical evidence.
pub type Evidence = Vec<(&'static str, String)>;

/// The common post-run surface of every measurement method.
pub trait Probe {
    /// Short, stable method label (`"scan"`, `"spam"`, ...) used in
    /// report tables and telemetry key prefixes.
    fn label(&self) -> &'static str;

    /// Whether the probe considers its measurement complete. A `false`
    /// after a run means the simulation horizon was too short — engines
    /// treat the verdict as retryable.
    fn is_finished(&self) -> bool;

    /// The measurement's conclusion.
    fn verdict(&self) -> Verdict;

    /// What the probe observed, as deterministic key/value pairs.
    fn evidence(&self) -> Evidence;
}

/// A spawned probe: its host, its task index, and a reader typed for the
/// probe's own type when it was spawned.
#[derive(Clone, Copy)]
pub struct ProbeHandle {
    host: NodeId,
    idx: usize,
    read: fn(&Host, usize) -> Option<&dyn Probe>,
}

impl ProbeHandle {
    /// Start `probe` on `host` at `at` ([`Simulator::spawn_task`]) and
    /// return the handle that reads it back. `host` must be a host node.
    pub fn spawn<P: Probe + HostTask>(
        sim: &mut Simulator,
        host: NodeId,
        at: SimTime,
        probe: P,
    ) -> ProbeHandle {
        let idx = sim
            .spawn_task(host, at, Box::new(probe))
            .expect("probes are spawned on host nodes");
        ProbeHandle {
            host,
            idx,
            read: read_as::<P>,
        }
    }

    /// The probe, read from `sim`, the simulator it was spawned into.
    pub fn read<'s>(&self, sim: &'s Simulator) -> &'s dyn Probe {
        sim.node_ref::<Host>(self.host)
            .and_then(|host| (self.read)(host, self.idx))
            .expect("a spawned probe stays on its host")
    }
}

fn read_as<P: Probe + HostTask>(host: &Host, idx: usize) -> Option<&dyn Probe> {
    host.task_ref::<P>(idx).map(|p| p as &dyn Probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::ddos::DdosProbe;
    use crate::methods::hops::HopProbe;
    use crate::methods::overt::OvertProbe;
    use crate::methods::scan::SynScanProbe;
    use crate::methods::spam::SpamProbe;
    use crate::methods::stateful::{MimicServer, StatefulMimicry};
    use crate::methods::stateless::{StatelessDnsMimicry, StatelessSynMimicry};
    use std::net::Ipv4Addr;
    use underradar_protocols::dns::{DnsName, QType};

    fn ip() -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, 1)
    }

    /// Every method is reachable through one `&dyn Probe` surface; fresh
    /// (never-run) probes all read unfinished with an inconclusive or
    /// pending verdict, and evidence keys are non-empty and stable.
    #[test]
    fn all_methods_drive_through_one_trait_object() {
        let d = DnsName::parse("example.org").expect("name");
        let probes: Vec<Box<dyn Probe>> = vec![
            Box::new(SynScanProbe::new(ip(), vec![80], vec![80])),
            Box::new(SpamProbe::new(&d, ip(), 0)),
            Box::new(DdosProbe::new(ip(), "example.org", "/", 3)),
            Box::new(OvertProbe::new(&d, ip(), ip(), "/")),
            Box::new(HopProbe::new(ip(), 80, 4)),
            Box::new(StatelessDnsMimicry::new(&d, QType::A, ip(), vec![])),
            Box::new(StatelessSynMimicry::new(ip(), 80, vec![])),
            Box::new(StatefulMimicry::new(ip(), ip(), 443, 1, b"x")),
        ];
        let labels: Vec<&str> = probes.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec![
                "scan",
                "spam",
                "ddos",
                "overt",
                "hops",
                "stateless-dns",
                "stateless-syn",
                "stateful",
            ]
        );
        for p in &probes {
            assert!(
                !p.is_finished(),
                "{}: fresh probe must not be finished",
                p.label()
            );
            assert!(
                !p.evidence().is_empty(),
                "{}: evidence keys exist",
                p.label()
            );
        }
    }

    #[test]
    fn mimic_server_reads_the_stateful_verdict() {
        let server = MimicServer::new(443, 7, None);
        let p: &dyn Probe = &server;
        assert_eq!(p.label(), "stateful");
        // A fresh server saw no SYN: from the server's post-run point of
        // view that is the blackhole conclusion.
        assert!(p.verdict().is_censored());
        assert!(p.is_finished());
    }
}
