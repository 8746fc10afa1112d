//! Declarative campaign specifications and their expansion into a
//! deterministic trial matrix.

use underradar_censor::CensorPolicy;
use underradar_core::testbed::{TargetSite, MAX_COVER_HOSTS, MAX_TARGET_SITES};
use underradar_ids::stream::{OverlapPolicy, ReassemblyConfig};
use underradar_protocols::dns::DnsError;

use crate::engine::MAX_SPOOFED_COVER;
use crate::seed;

/// One of the paper's measurement methods, selectable in a campaign.
///
/// The variant labels match [`underradar_core::probe::Probe::label`] for
/// the probe that drives each method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MethodKind {
    /// §2: overt DNS + HTTP fetch from the client (the risky baseline).
    Overt,
    /// §3.2.2 Method #1: SYN scanning the target's top ports.
    Scan,
    /// §3.2.2 Method #2: spam-folder delivery probing.
    Spam,
    /// §3.2.2 Method #3: low-rate DDoS-style request sampling.
    Ddos,
    /// §3.2.3: TTL-calibrating hop enumeration from the measurement server.
    Hops,
    /// §3.2.3 Fig 3a: stateless spoofed DNS mimicry.
    StatelessDns,
    /// §3.2.3 Fig 3a: stateless spoofed SYN mimicry.
    StatelessSyn,
    /// §3.2.3 Fig 3b: stateful TTL-limited mimicry (routed topology).
    Stateful,
}

impl MethodKind {
    /// Every method, in canonical (declaration) order.
    pub const ALL: [MethodKind; 8] = [
        MethodKind::Overt,
        MethodKind::Scan,
        MethodKind::Spam,
        MethodKind::Ddos,
        MethodKind::Hops,
        MethodKind::StatelessDns,
        MethodKind::StatelessSyn,
        MethodKind::Stateful,
    ];

    /// The probe label this method drives (matches `Probe::label`).
    pub fn label(self) -> &'static str {
        match self {
            MethodKind::Overt => "overt",
            MethodKind::Scan => "scan",
            MethodKind::Spam => "spam",
            MethodKind::Ddos => "ddos",
            MethodKind::Hops => "hops",
            MethodKind::StatelessDns => "stateless-dns",
            MethodKind::StatelessSyn => "stateless-syn",
            MethodKind::Stateful => "stateful",
        }
    }
}

/// A censor policy with a display name and the HTTP path probes request.
#[derive(Debug, Clone)]
pub struct NamedPolicy {
    /// Display name used in report cells ("control", "keyword", ...).
    pub name: String,
    /// The censor/surveillance policy active for this column.
    pub policy: CensorPolicy,
    /// HTTP path requested by path-carrying probes (overt, ddos, stateful).
    pub probe_path: String,
}

impl NamedPolicy {
    /// A named policy probing the innocuous root path.
    pub fn new(name: &str, policy: CensorPolicy) -> NamedPolicy {
        NamedPolicy {
            name: name.to_string(),
            policy,
            probe_path: "/".to_string(),
        }
    }

    /// Override the HTTP path (e.g. a keyword-bearing path to trip DPI).
    pub fn with_probe_path(mut self, path: &str) -> NamedPolicy {
        self.probe_path = path.to_string();
        self
    }
}

/// Bounded retry of `Inconclusive` trials, with backoff in *simulated*
/// time: each retry re-instantiates the world from a derived seed and
/// extends the simulated horizon by `backoff_secs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Extra simulated seconds granted per retry attempt.
    pub backoff_secs: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_secs: 30,
        }
    }
}

/// A [`CampaignSpec`] count that overruns the testbed's address plan
/// (see [`CampaignSpec::check_address_plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressPlanOverrun {
    /// The overrunning field: `targets`, `cover_hosts` or `spoofed_cover`.
    pub field: &'static str,
    /// Its count in the spec.
    pub got: usize,
    /// The most the address plan holds.
    pub max: usize,
}

impl std::fmt::Display for AddressPlanOverrun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign spec overruns the address plan: {} = {}, at most {}",
            self.field, self.got, self.max
        )
    }
}

/// A [`CampaignSpec`] target no testbed can name (see
/// [`CampaignSpec::check_targets`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidTarget {
    /// The target as the spec gives it.
    pub domain: String,
    /// Why it cannot be a target site.
    pub error: DnsError,
}

impl std::fmt::Display for InvalidTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid campaign target '{}': {}",
            self.domain, self.error
        )
    }
}

/// Why no world can be built for a [`CampaignSpec`]: the checks
/// [`crate::engine::try_prepare`] runs before it prepares any column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A count overruns the address plan
    /// ([`CampaignSpec::check_address_plan`]).
    AddressPlan(AddressPlanOverrun),
    /// A target cannot be a target site ([`CampaignSpec::check_targets`]).
    InvalidTarget(InvalidTarget),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::AddressPlan(overrun) => write!(f, "{overrun}"),
            SpecError::InvalidTarget(target) => write!(f, "{target}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A declarative measurement campaign: the full cross product of
/// policies × methods × targets × trial repeats.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name, echoed in reports.
    pub name: String,
    /// Master seed; every trial seed derives from it and the trial index.
    pub master_seed: u64,
    /// Target domains (mapped to numbered [`underradar_core::testbed::TargetSite`]s).
    pub targets: Vec<String>,
    /// Methods to run per cell.
    pub methods: Vec<MethodKind>,
    /// Censor-policy columns.
    pub policies: Vec<NamedPolicy>,
    /// Repeats per (policy, method, target) cell with distinct seeds.
    pub trials_per_cell: usize,
    /// Retry policy for `Inconclusive` verdicts.
    pub retry: RetryPolicy,
    /// Cover hosts sharing the client's home network.
    pub cover_hosts: usize,
    /// Spoofed cover *addresses* for stateless mimicry (0 = use the
    /// testbed's real cover hosts). Spoofed sources need no machines
    /// behind them, so this may exceed `cover_hosts` (Fig 3a's sweep).
    pub spoofed_cover: usize,
    /// Drive spam/ddos trials with their paper-faithful warm-up phases
    /// (reputation-earning probes / an initial flood) before the
    /// measured probe.
    pub warmup: bool,
    /// Packet-loss fraction on the client access link (0.0 = ideal).
    /// Like the other `client_link_*` knobs, it reaches flat-testbed
    /// trials only: `Hops` and `Stateful` trials run on the routed chain,
    /// whose links stay clean whatever these are set to.
    pub client_link_loss: f64,
    /// Reorder probability on the client access link (bounded 2 ms
    /// displacement; 0.0 = strict per-direction FIFO).
    pub client_link_reorder: f64,
    /// Duplication probability on the client access link.
    pub client_link_duplicate: f64,
    /// Single-byte corruption probability on the client access link.
    pub client_link_corrupt: f64,
    /// Simulated seconds per attempt (before retry backoff extensions).
    pub run_secs: u64,
    /// Monitor reassembly limits (flow-table capacity, per-direction
    /// window/hold-back caps) shared by the censors and the surveillance
    /// engine. Shapes which flows monitors still track, so it is part of
    /// the fingerprint.
    pub monitor_reassembly: ReassemblyConfig,
    /// Flight-recorder ring capacity override (`None` = the telemetry
    /// handle's own capacity, normally `DEFAULT_TRACE_CAPACITY`). Shapes
    /// which trace records survive eviction — and therefore journaled
    /// trace bytes — so it is part of the fingerprint.
    pub trace_capacity: Option<usize>,
}

impl CampaignSpec {
    /// A new spec with an empty matrix and paper-scale defaults.
    pub fn new(name: &str, master_seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            master_seed,
            targets: Vec::new(),
            methods: Vec::new(),
            policies: Vec::new(),
            trials_per_cell: 1,
            retry: RetryPolicy::default(),
            cover_hosts: 4,
            spoofed_cover: 0,
            warmup: true,
            client_link_loss: 0.0,
            client_link_reorder: 0.0,
            client_link_duplicate: 0.0,
            client_link_corrupt: 0.0,
            run_secs: 60,
            monitor_reassembly: ReassemblyConfig::default(),
            trace_capacity: None,
        }
    }

    /// Add one target domain.
    pub fn target(mut self, domain: &str) -> CampaignSpec {
        self.targets.push(domain.to_string());
        self
    }

    /// Add many target domains.
    pub fn targets<'a>(mut self, domains: impl IntoIterator<Item = &'a str>) -> CampaignSpec {
        self.targets.extend(domains.into_iter().map(str::to_string));
        self
    }

    /// Add one method.
    pub fn method(mut self, method: MethodKind) -> CampaignSpec {
        self.methods.push(method);
        self
    }

    /// Add many methods.
    pub fn methods(mut self, methods: impl IntoIterator<Item = MethodKind>) -> CampaignSpec {
        self.methods.extend(methods);
        self
    }

    /// Add one policy column.
    pub fn policy(mut self, policy: NamedPolicy) -> CampaignSpec {
        self.policies.push(policy);
        self
    }

    /// Set repeats per cell.
    pub fn trials_per_cell(mut self, n: usize) -> CampaignSpec {
        self.trials_per_cell = n;
        self
    }

    /// Set the retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> CampaignSpec {
        self.retry = retry;
        self
    }

    /// Set the cover-host count.
    pub fn cover_hosts(mut self, n: usize) -> CampaignSpec {
        self.cover_hosts = n;
        self
    }

    /// Set the spoofed cover-address count for stateless mimicry.
    pub fn spoofed_cover(mut self, n: usize) -> CampaignSpec {
        self.spoofed_cover = n;
        self
    }

    /// Enable or disable spam/ddos warm-up phases.
    pub fn warmup(mut self, on: bool) -> CampaignSpec {
        self.warmup = on;
        self
    }

    /// Set the client access-link loss fraction (flat-testbed trials only;
    /// `Hops` and `Stateful` ignore it).
    pub fn client_link_loss(mut self, loss: f64) -> CampaignSpec {
        self.client_link_loss = loss;
        self
    }

    /// Set the client access-link reorder probability (flat-testbed trials only;
    /// `Hops` and `Stateful` ignore it).
    pub fn client_link_reorder(mut self, reorder: f64) -> CampaignSpec {
        self.client_link_reorder = reorder;
        self
    }

    /// Set the client access-link duplication probability (flat-testbed trials only;
    /// `Hops` and `Stateful` ignore it).
    pub fn client_link_duplicate(mut self, duplicate: f64) -> CampaignSpec {
        self.client_link_duplicate = duplicate;
        self
    }

    /// Set the client access-link corruption probability (flat-testbed trials only;
    /// `Hops` and `Stateful` ignore it).
    pub fn client_link_corrupt(mut self, corrupt: f64) -> CampaignSpec {
        self.client_link_corrupt = corrupt;
        self
    }

    /// Set the simulated horizon per attempt.
    pub fn run_secs(mut self, secs: u64) -> CampaignSpec {
        self.run_secs = secs;
        self
    }

    /// Set the monitor reassembly limits.
    pub fn monitor_reassembly(mut self, cfg: ReassemblyConfig) -> CampaignSpec {
        self.monitor_reassembly = cfg;
        self
    }

    /// Override the flight-recorder ring capacity for traced runs.
    pub fn trace_capacity(mut self, capacity: Option<usize>) -> CampaignSpec {
        self.trace_capacity = capacity;
        self
    }

    /// Check every addressed count against the testbed's address plan:
    /// at most [`MAX_TARGET_SITES`] targets, [`MAX_COVER_HOSTS`] cover
    /// hosts and [`MAX_SPOOFED_COVER`] spoofed cover addresses. Past these
    /// the last address octet wraps and worlds collide, so a spec must be
    /// rejected before any world is built.
    pub fn check_address_plan(&self) -> Result<(), AddressPlanOverrun> {
        let limits = [
            ("targets", self.targets.len(), MAX_TARGET_SITES),
            ("cover_hosts", self.cover_hosts, MAX_COVER_HOSTS),
            ("spoofed_cover", self.spoofed_cover, MAX_SPOOFED_COVER),
        ];
        match limits.into_iter().find(|&(_, got, max)| got > max) {
            Some((field, got, max)) => Err(AddressPlanOverrun { field, got, max }),
            None => Ok(()),
        }
    }

    /// Check that every target can be a target site
    /// ([`TargetSite::try_numbered`]): it parses as a domain, and so does
    /// its mail exchanger's name. A spec must pass this before any world
    /// is built.
    pub fn check_targets(&self) -> Result<(), InvalidTarget> {
        for domain in &self.targets {
            TargetSite::try_numbered(domain, 0).map_err(|error| InvalidTarget {
                domain: domain.clone(),
                error,
            })?;
        }
        Ok(())
    }

    /// Total trials the matrix expands to.
    pub fn trial_count(&self) -> usize {
        self.policies.len() * self.methods.len() * self.targets.len() * self.trials_per_cell
    }

    /// Structural fingerprint of everything that shapes trial outcomes:
    /// seed, matrix axes, retry budget, link impairments, and each policy
    /// column's censor configuration. A checkpoint journal records this in
    /// its header so a resume against an edited spec is rejected instead
    /// of silently mixing incompatible trial streams.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: &mut u64, v: u64) {
            *h = seed::splitmix64(*h ^ seed::splitmix64(v));
        }
        fn mix_str(h: &mut u64, s: &str) {
            mix(h, s.len() as u64);
            for chunk in s.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                mix(h, u64::from_le_bytes(word));
            }
        }
        let mut h = seed::splitmix64(0xF1_4C_E5_0E);
        mix(&mut h, self.master_seed);
        mix(&mut h, self.targets.len() as u64);
        for t in &self.targets {
            mix_str(&mut h, t);
        }
        mix(&mut h, self.methods.len() as u64);
        for m in &self.methods {
            mix_str(&mut h, m.label());
        }
        mix(&mut h, self.policies.len() as u64);
        for p in &self.policies {
            mix_str(&mut h, &p.name);
            mix_str(&mut h, &p.probe_path);
            mix_str(&mut h, &p.policy.keywords.join("\n"));
            for d in &p.policy.dns_blocked {
                mix_str(&mut h, &d.to_string());
            }
            mix(&mut h, u64::from(u32::from(p.policy.dns_poison_ip)));
            mix(&mut h, p.policy.dns_nxdomain as u64);
            mix(&mut h, p.policy.ip_blocked.len() as u64);
            mix(&mut h, p.policy.port_blocked.len() as u64);
            mix_str(&mut h, &p.policy.url_blocked.join("\n"));
        }
        mix(&mut h, self.trials_per_cell as u64);
        mix(&mut h, u64::from(self.retry.max_retries));
        mix(&mut h, self.retry.backoff_secs);
        mix(&mut h, self.cover_hosts as u64);
        mix(&mut h, self.spoofed_cover as u64);
        mix(&mut h, self.warmup as u64);
        mix(&mut h, self.client_link_loss.to_bits());
        mix(&mut h, self.client_link_reorder.to_bits());
        mix(&mut h, self.client_link_duplicate.to_bits());
        mix(&mut h, self.client_link_corrupt.to_bits());
        mix(&mut h, self.run_secs);
        mix(&mut h, self.monitor_reassembly.max_flows as u64);
        mix(&mut h, self.monitor_reassembly.limits.window as u64);
        mix(&mut h, self.monitor_reassembly.limits.holdback as u64);
        mix(
            &mut h,
            match self.monitor_reassembly.overlap {
                OverlapPolicy::KeepFirst => 0,
                OverlapPolicy::KeepLast => 1,
            },
        );
        mix(&mut h, self.trace_capacity.is_some() as u64);
        mix(&mut h, self.trace_capacity.unwrap_or(0) as u64);
        h
    }

    /// Expand into the full trial matrix in canonical order:
    /// policy → method → target → repeat. Seeds depend only on
    /// `(master_seed, index)`, never on execution order.
    pub fn expand(&self) -> Vec<Trial> {
        let mut trials = Vec::with_capacity(self.trial_count());
        let mut index = 0usize;
        for (policy_idx, _) in self.policies.iter().enumerate() {
            for &method in &self.methods {
                for (target_idx, _) in self.targets.iter().enumerate() {
                    for repeat in 0..self.trials_per_cell {
                        trials.push(Trial {
                            index,
                            policy_idx,
                            method,
                            target_idx,
                            repeat,
                            seed: seed::trial_seed(self.master_seed, index),
                        });
                        index += 1;
                    }
                }
            }
        }
        trials
    }
}

/// One expanded unit of work: a single probe run under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Position in the expanded matrix (also the result order).
    pub index: usize,
    /// Index into [`CampaignSpec::policies`].
    pub policy_idx: usize,
    /// The method to drive.
    pub method: MethodKind,
    /// Index into [`CampaignSpec::targets`].
    pub target_idx: usize,
    /// Repeat number within the cell.
    pub repeat: usize,
    /// Derived trial seed (attempt 0; retries derive from it).
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec::new("t", 11)
            .targets(["a.com", "b.com", "c.com"])
            .methods([MethodKind::Scan, MethodKind::Spam])
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .policy(NamedPolicy::new(
                "kw",
                CensorPolicy::new().block_keyword("x"),
            ))
            .trials_per_cell(2)
    }

    #[test]
    fn expansion_covers_the_cross_product_in_order() {
        let s = spec();
        let trials = s.expand();
        assert_eq!(trials.len(), s.trial_count());
        assert_eq!(trials.len(), 2 * 2 * 3 * 2);
        // Canonical order: policy-major, then method, target, repeat.
        assert_eq!(trials[0].policy_idx, 0);
        assert_eq!(trials[0].method, MethodKind::Scan);
        assert_eq!(trials[0].target_idx, 0);
        assert_eq!(trials[1].repeat, 1);
        assert_eq!(trials.last().map(|t| t.policy_idx), Some(1));
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.seed, seed::trial_seed(11, i));
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive_to_every_axis() {
        let base = spec();
        assert_eq!(base.fingerprint(), spec().fingerprint(), "stable");
        let variants = [
            CampaignSpec::new("t", 12)
                .targets(["a.com", "b.com", "c.com"])
                .methods([MethodKind::Scan, MethodKind::Spam])
                .policy(NamedPolicy::new("control", CensorPolicy::new()))
                .policy(NamedPolicy::new(
                    "kw",
                    CensorPolicy::new().block_keyword("x"),
                ))
                .trials_per_cell(2),
            spec().target("d.com"),
            spec().method(MethodKind::Overt),
            spec().trials_per_cell(3),
            spec().run_secs(999),
            spec().client_link_loss(0.01),
            spec().retry(RetryPolicy {
                max_retries: 5,
                backoff_secs: 30,
            }),
            spec().monitor_reassembly(ReassemblyConfig {
                max_flows: 7,
                ..ReassemblyConfig::default()
            }),
            spec().monitor_reassembly(ReassemblyConfig {
                overlap: OverlapPolicy::KeepLast,
                ..ReassemblyConfig::default()
            }),
            spec().trace_capacity(Some(4096)),
            spec().trace_capacity(Some(128)),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base.fingerprint(), v.fingerprint(), "variant {i}");
        }
        // Policy *content* matters, not just the name.
        let kw_swap = CampaignSpec::new("t", 11)
            .targets(["a.com", "b.com", "c.com"])
            .methods([MethodKind::Scan, MethodKind::Spam])
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .policy(NamedPolicy::new(
                "kw",
                CensorPolicy::new().block_keyword("y"),
            ))
            .trials_per_cell(2);
        assert_ne!(base.fingerprint(), kw_swap.fingerprint());
    }

    #[test]
    fn labels_cover_all_methods() {
        let labels: Vec<&str> = MethodKind::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            [
                "overt",
                "scan",
                "spam",
                "ddos",
                "hops",
                "stateless-dns",
                "stateless-syn",
                "stateful"
            ]
        );
    }
}
