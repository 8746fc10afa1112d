//! Adversary-eye exposure accounting.
//!
//! The paper's safety question — *what can the adversary attribute to each
//! participating host?* — answered from the adversary's own observations
//! rather than a method's declared risk constants. An [`ExposureLedger`]
//! accumulates per-`(campaign cell, host)` attributable events: IDS alerts
//! raised on the host's traffic, censor responses the host was shown
//! (injected DNS answers, forged RSTs), censor drops of the host's packets,
//! distinct sensitive flows, and bytes of the host's traffic sitting in
//! retention stores — together with first/last exposure sim-time.
//!
//! Every quantity folds commutatively (counters add, first-times min,
//! last-times max), so a ledger assembled from per-trial exports merges to
//! the same bytes regardless of shard count or worker interleaving — the
//! same obligation [`crate::system::SurveillanceSystem`] telemetry already
//! meets. The transport *is* the telemetry registry: [`ExposureLedger::export`]
//! writes `exposure.<cell>.<host>.<metric>` entries into a per-trial scope,
//! and [`ExposureLedger::from_registry`] reconstructs the campaign-wide
//! ledger from the merged registry, so the ledger rides the existing
//! journal codec and `StreamMerger` unchanged.
//!
//! [`SafetyAudit`] folds a ledger against the campaign's *declared* risk
//! (per-cell evasion counts from the trial verdicts) and reports, per host,
//! an **attributability score**; a cell that declared itself fully evaded
//! while the ledger holds attributable events is surfaced as a divergence
//! finding — the paper's point that declared safety and observed exposure
//! are different measurements.

use std::collections::BTreeMap;

use underradar_telemetry::json::escape;
use underradar_telemetry::{Registry, Telemetry};

/// Registry key prefix for exported exposure entries.
pub const EXPOSURE_PREFIX: &str = "exposure.";

/// An adversary-side event attributable to a single client host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExposureEventKind {
    /// An IDS/signature alert raised on the host's traffic.
    Alert,
    /// A censor response injected toward the host (DNS answer, forged RST).
    Injection,
    /// A censor drop of the host's packet (blackhole, port drop, URL block).
    Drop,
}

/// Per-host exposure within one campaign cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostExposure {
    /// IDS alerts attributed to this host.
    pub alerts: u64,
    /// Injected censor responses the host was shown.
    pub injections: u64,
    /// Censor drops of the host's packets.
    pub drops: u64,
    /// Distinct sensitive (alert-bearing) flows from this host.
    pub sensitive_flows: u64,
    /// Bytes of the host's traffic held in adversary retention stores.
    pub retained_bytes: u64,
    /// Earliest attributable event, sim-nanoseconds (None: no timed event).
    pub first_ns: Option<u64>,
    /// Latest attributable event, sim-nanoseconds.
    pub last_ns: Option<u64>,
}

impl HostExposure {
    /// Events that directly name this host in the adversary's records.
    pub fn attributable_events(&self) -> u64 {
        self.alerts + self.injections + self.drops
    }

    /// The attributability score.
    ///
    /// Weights order the event kinds by how directly they identify the
    /// host to an analyst (an alert names the host; an injected response
    /// or drop proves the censor matched its traffic; a sensitive flow is
    /// corroboration). Retained bytes only count once at least one
    /// attributable event exists — passive retention of innocuous cover
    /// traffic alone scores zero:
    ///
    /// ```text
    /// score = 1000·alerts + 400·injections + 400·drops
    ///       + 50·sensitive_flows + [attributable > 0]·retained_bytes/64
    /// ```
    pub fn score(&self) -> u64 {
        let byte_term = if self.attributable_events() > 0 {
            self.retained_bytes / 64
        } else {
            0
        };
        1000 * self.alerts
            + 400 * self.injections
            + 400 * self.drops
            + 50 * self.sensitive_flows
            + byte_term
    }

    /// Fold `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &HostExposure) {
        self.alerts += other.alerts;
        self.injections += other.injections;
        self.drops += other.drops;
        self.sensitive_flows += other.sensitive_flows;
        self.retained_bytes += other.retained_bytes;
        self.first_ns = match (self.first_ns, other.first_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_ns = self.last_ns.max(other.last_ns);
    }

    fn is_empty(&self) -> bool {
        *self == HostExposure::default()
    }
}

/// A deterministic per-`(cell, host)` exposure ledger.
///
/// Keys are `(campaign cell, host)` where a cell is conventionally
/// `"<method>/<policy>"` and a host is its dotted IPv4 string. `BTreeMap`
/// keying makes every iteration order — and therefore every rendering —
/// independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExposureLedger {
    hosts: BTreeMap<(String, String), HostExposure>,
}

impl ExposureLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        ExposureLedger::default()
    }

    fn entry(&mut self, cell: &str, host: &str) -> &mut HostExposure {
        self.hosts
            .entry((cell.to_string(), host.to_string()))
            .or_default()
    }

    /// Record one attributable event against `host` in `cell` at `t_ns`.
    pub fn record(&mut self, cell: &str, host: &str, kind: ExposureEventKind, t_ns: u64) {
        let e = self.entry(cell, host);
        match kind {
            ExposureEventKind::Alert => e.alerts += 1,
            ExposureEventKind::Injection => e.injections += 1,
            ExposureEventKind::Drop => e.drops += 1,
        }
        e.first_ns = Some(e.first_ns.map_or(t_ns, |f| f.min(t_ns)));
        e.last_ns = Some(e.last_ns.map_or(t_ns, |l| l.max(t_ns)));
    }

    /// Count `n` distinct sensitive flows for `host` in `cell` (no-op at 0,
    /// so empty entries are never created).
    pub fn add_sensitive_flows(&mut self, cell: &str, host: &str, n: u64) {
        if n > 0 {
            self.entry(cell, host).sensitive_flows += n;
        }
    }

    /// Account `bytes` of `host` traffic held in retention stores (no-op
    /// at 0).
    pub fn add_retained(&mut self, cell: &str, host: &str, bytes: u64) {
        if bytes > 0 {
            self.entry(cell, host).retained_bytes += bytes;
        }
    }

    /// Fold `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &ExposureLedger) {
        for (key, e) in &other.hosts {
            self.hosts.entry(key.clone()).or_default().merge(e);
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Iterate `((cell, host), exposure)` in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), &HostExposure)> {
        self.hosts.iter()
    }

    /// Export into a telemetry handle as `exposure.<cell>.<host>.<metric>`
    /// counters (zero values skipped) plus a `t_ns` histogram observing
    /// first and last event times; merged-histogram min/max then recover
    /// the campaign-wide first/last exposure commutatively. Host dots are
    /// encoded as `_` so the host occupies exactly one dotted key segment.
    pub fn export(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        for ((cell, host), e) in &self.hosts {
            let base = format!("{EXPOSURE_PREFIX}{cell}.{}", host.replace('.', "_"));
            let counters = [
                ("alerts", e.alerts),
                ("injections", e.injections),
                ("drops", e.drops),
                ("sensitive_flows", e.sensitive_flows),
                ("retained_bytes", e.retained_bytes),
            ];
            for (metric, v) in counters {
                if v > 0 {
                    tel.counter(&format!("{base}.{metric}")).add(v);
                }
            }
            if let (Some(first), Some(last)) = (e.first_ns, e.last_ns) {
                tel.observe(&format!("{base}.t_ns"), first);
                if last != first {
                    tel.observe(&format!("{base}.t_ns"), last);
                }
            }
        }
    }

    /// Reconstruct the campaign-wide ledger from a merged registry.
    ///
    /// Inverse of [`ExposureLedger::export`] up to intra-trial event times
    /// (only per-entry first/last survive the histogram, which is all the
    /// ledger stores anyway). Non-exposure entries are ignored.
    pub fn from_registry(reg: &Registry) -> ExposureLedger {
        fn parse(rest: &str) -> Option<(&str, String, &str)> {
            let mut it = rest.rsplitn(3, '.');
            let metric = it.next()?;
            let host = it.next()?.replace('_', ".");
            let cell = it.next()?;
            Some((cell, host, metric))
        }
        let mut ledger = ExposureLedger::new();
        for (name, &v) in &reg.counters {
            let Some(rest) = name.strip_prefix(EXPOSURE_PREFIX) else {
                continue;
            };
            let Some((cell, host, metric)) = parse(rest) else {
                continue;
            };
            let e = ledger.entry(cell, &host);
            match metric {
                "alerts" => e.alerts += v,
                "injections" => e.injections += v,
                "drops" => e.drops += v,
                "sensitive_flows" => e.sensitive_flows += v,
                "retained_bytes" => e.retained_bytes += v,
                _ => {}
            }
        }
        for (name, h) in &reg.histograms {
            let Some(rest) = name.strip_prefix(EXPOSURE_PREFIX) else {
                continue;
            };
            let Some((cell, host, "t_ns")) = parse(rest) else {
                continue;
            };
            if h.count() == 0 {
                continue;
            }
            let e = ledger.entry(cell, &host);
            e.first_ns = Some(e.first_ns.map_or(h.min(), |f| f.min(h.min())));
            e.last_ns = Some(e.last_ns.map_or(h.max(), |l| l.max(h.max())));
        }
        ledger.hosts.retain(|_, e| !e.is_empty());
        ledger
    }
}

/// The declared outcome of one campaign cell, from trial verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeclaredCell {
    /// Cell key, conventionally `"<method>/<policy>"`.
    pub cell: String,
    /// Trials run in this cell.
    pub trials: u64,
    /// Trials whose `RiskReport` declared the measurement evaded.
    pub evaded: u64,
}

#[derive(Debug, Clone)]
struct AuditCell {
    declared: Option<(u64, u64)>,
    hosts: BTreeMap<String, HostExposure>,
}

impl AuditCell {
    fn attributable_events(&self) -> u64 {
        self.hosts.values().map(|e| e.attributable_events()).sum()
    }

    fn max_score(&self) -> u64 {
        self.hosts.values().map(|e| e.score()).max().unwrap_or(0)
    }

    /// A divergence: the cell's verdicts declared every trial evaded, yet
    /// the adversary's own records hold events attributable to a host.
    fn divergent(&self) -> bool {
        matches!(self.declared, Some((trials, evaded)) if trials > 0 && evaded == trials)
            && self.attributable_events() > 0
    }
}

/// A campaign safety audit: ledger-observed exposure folded against the
/// declared per-cell risk, rendered as deterministic text or sorted-key
/// JSON (byte-identical for equal inputs on every platform).
#[derive(Debug, Clone)]
pub struct SafetyAudit {
    cells: BTreeMap<String, AuditCell>,
}

impl SafetyAudit {
    /// Build an audit from a merged ledger and the declared cell outcomes.
    /// Declared cells with no observed exposure still appear (their silence
    /// is the finding "declared risk confirmed absent"), as do ledger cells
    /// nothing declared.
    pub fn build(ledger: &ExposureLedger, declared: &[DeclaredCell]) -> SafetyAudit {
        let mut cells: BTreeMap<String, AuditCell> = BTreeMap::new();
        for d in declared {
            cells
                .entry(d.cell.clone())
                .or_insert_with(|| AuditCell {
                    declared: None,
                    hosts: BTreeMap::new(),
                })
                .declared = Some((d.trials, d.evaded));
        }
        for ((cell, host), e) in ledger.iter() {
            cells
                .entry(cell.clone())
                .or_insert_with(|| AuditCell {
                    declared: None,
                    hosts: BTreeMap::new(),
                })
                .hosts
                .insert(host.clone(), e.clone());
        }
        SafetyAudit { cells }
    }

    /// Number of cells whose declared outcome diverges from observation.
    pub fn divergent_cells(&self) -> usize {
        self.cells.values().filter(|c| c.divergent()).count()
    }

    /// Number of distinct `(cell, host)` entries with non-zero score.
    pub fn exposed_hosts(&self) -> usize {
        self.cells
            .values()
            .flat_map(|c| c.hosts.values())
            .filter(|e| e.score() > 0)
            .count()
    }

    /// Deterministic text rendering: one summary line, one line per cell,
    /// one indented line per host, divergence findings last.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "safety audit: cells={} exposed_hosts={} divergent_cells={}\n",
            self.cells.len(),
            self.exposed_hosts(),
            self.divergent_cells()
        ));
        for (cell, c) in &self.cells {
            let declared = match c.declared {
                Some((trials, evaded)) => format!("{evaded}/{trials} evaded"),
                None => "undeclared".to_string(),
            };
            out.push_str(&format!(
                "cell {cell}: declared {declared}, hosts={} attributable_events={} max_score={}\n",
                c.hosts.len(),
                c.attributable_events(),
                c.max_score()
            ));
            for (host, e) in &c.hosts {
                out.push_str(&format!(
                    "  host {host}: score={} alerts={} injections={} drops={} \
                     sensitive_flows={} retained_bytes={} first_ns={} last_ns={}\n",
                    e.score(),
                    e.alerts,
                    e.injections,
                    e.drops,
                    e.sensitive_flows,
                    e.retained_bytes,
                    e.first_ns.unwrap_or(0),
                    e.last_ns.unwrap_or(0)
                ));
            }
        }
        for (cell, c) in &self.cells {
            if c.divergent() {
                out.push_str(&format!(
                    "divergence: cell {cell} declared fully evaded but the adversary \
                     holds {} attributable events (max_score={})\n",
                    c.attributable_events(),
                    c.max_score()
                ));
            }
        }
        out
    }

    /// Deterministic sorted-key single-line JSON rendering.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"cells\":{");
        for (i, (cell, c)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (trials, evaded) = c.declared.unwrap_or((0, 0));
            out.push_str(&format!(
                "\"{}\":{{\"attributable_events\":{},\"declared_evaded\":{},\
                 \"declared_trials\":{},\"divergent\":{},\"hosts\":{{",
                escape(cell),
                c.attributable_events(),
                evaded,
                trials,
                u64::from(c.divergent())
            ));
            for (j, (host, e)) in c.hosts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{{\"alerts\":{},\"drops\":{},\"first_ns\":{},\
                     \"injections\":{},\"last_ns\":{},\"retained_bytes\":{},\
                     \"score\":{},\"sensitive_flows\":{}}}",
                    escape(host),
                    e.alerts,
                    e.drops,
                    e.first_ns.unwrap_or(0),
                    e.injections,
                    e.last_ns.unwrap_or(0),
                    e.retained_bytes,
                    e.score(),
                    e.sensitive_flows
                ));
            }
            out.push_str("}}");
        }
        out.push_str(&format!(
            "}},\"divergent_cells\":{},\"exposed_hosts\":{}}}",
            self.divergent_cells(),
            self.exposed_hosts()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExposureLedger {
        let mut l = ExposureLedger::new();
        l.record("scan/control", "10.0.1.2", ExposureEventKind::Alert, 500);
        l.record("scan/control", "10.0.1.2", ExposureEventKind::Alert, 1500);
        l.record(
            "ddos/keyword-rst",
            "10.0.1.2",
            ExposureEventKind::Injection,
            2_000,
        );
        l.record("scan/ip-blackhole", "10.0.9.9", ExposureEventKind::Drop, 77);
        l.add_sensitive_flows("scan/control", "10.0.1.2", 3);
        l.add_retained("scan/control", "10.0.1.2", 6400);
        l.add_retained("scan/control", "10.0.200.1", 1280);
        l
    }

    #[test]
    fn score_gates_retained_bytes_on_attributable_events() {
        let passive = HostExposure {
            retained_bytes: 1_000_000,
            ..HostExposure::default()
        };
        assert_eq!(passive.score(), 0, "retention alone is not attribution");
        let active = HostExposure {
            drops: 1,
            ..passive.clone()
        };
        assert_eq!(active.score(), 400 + 1_000_000 / 64);
        let alerted = HostExposure {
            alerts: 2,
            sensitive_flows: 3,
            retained_bytes: 128,
            ..HostExposure::default()
        };
        assert_eq!(alerted.score(), 2000 + 150 + 2);
    }

    #[test]
    fn export_round_trips_through_a_registry() {
        let ledger = sample();
        let tel = Telemetry::enabled();
        ledger.export(&tel);
        let back = ExposureLedger::from_registry(&tel.snapshot());
        assert_eq!(back, ledger);
    }

    #[test]
    fn sharded_export_merges_to_the_same_ledger() {
        // Whole ledger exported once vs the same events split across two
        // scopes merged in either order: identical reconstruction.
        let whole = sample();
        let tel_a = Telemetry::enabled();
        let tel_b = Telemetry::enabled();
        let mut part_a = ExposureLedger::new();
        part_a.record("scan/control", "10.0.1.2", ExposureEventKind::Alert, 1500);
        part_a.record("scan/ip-blackhole", "10.0.9.9", ExposureEventKind::Drop, 77);
        part_a.add_retained("scan/control", "10.0.1.2", 6400);
        let mut part_b = ExposureLedger::new();
        part_b.record("scan/control", "10.0.1.2", ExposureEventKind::Alert, 500);
        part_b.record(
            "ddos/keyword-rst",
            "10.0.1.2",
            ExposureEventKind::Injection,
            2_000,
        );
        part_b.add_sensitive_flows("scan/control", "10.0.1.2", 3);
        part_b.add_retained("scan/control", "10.0.200.1", 1280);
        part_a.export(&tel_a);
        part_b.export(&tel_b);
        let mut ab = tel_a.snapshot();
        ab.merge(&tel_b.snapshot());
        let mut ba = tel_b.snapshot();
        ba.merge(&tel_a.snapshot());
        assert_eq!(ExposureLedger::from_registry(&ab), whole);
        assert_eq!(ExposureLedger::from_registry(&ba), whole);
        let mut merged = part_a.clone();
        merged.merge(&part_b);
        assert_eq!(merged, whole, "ledger merge agrees with registry merge");
    }

    #[test]
    fn first_and_last_times_survive_the_histogram() {
        let ledger = sample();
        let tel = Telemetry::enabled();
        ledger.export(&tel);
        let back = ExposureLedger::from_registry(&tel.snapshot());
        let key = ("scan/control".to_string(), "10.0.1.2".to_string());
        let e = &back.hosts[&key];
        assert_eq!(e.first_ns, Some(500));
        assert_eq!(e.last_ns, Some(1500));
    }

    #[test]
    fn audit_surfaces_divergence_and_renders_deterministically() {
        let ledger = sample();
        let declared = vec![
            DeclaredCell {
                cell: "scan/control".to_string(),
                trials: 4,
                evaded: 2,
            },
            DeclaredCell {
                cell: "ddos/keyword-rst".to_string(),
                trials: 4,
                evaded: 4,
            },
            DeclaredCell {
                cell: "web/control".to_string(),
                trials: 4,
                evaded: 4,
            },
        ];
        let audit = SafetyAudit::build(&ledger, &declared);
        // keyword-rst declared fully evaded yet holds an injection;
        // web/control declared fully evaded and the ledger agrees;
        // scan/ip-blackhole was never declared at all.
        assert_eq!(audit.divergent_cells(), 1);
        let text = audit.render_text();
        assert!(
            text.contains("divergence: cell ddos/keyword-rst declared fully evaded"),
            "{text}"
        );
        assert!(text.contains("cell web/control: declared 4/4 evaded, hosts=0"));
        assert!(text.contains("cell scan/ip-blackhole: declared undeclared"));
        let json = audit.render_json();
        assert!(json.contains("\"divergent\":1"), "{json}");
        assert!(json.ends_with(&format!(
            "\"divergent_cells\":1,\"exposed_hosts\":{}}}",
            audit.exposed_hosts()
        )));
        // Renders are pure functions of the audit.
        assert_eq!(text, SafetyAudit::build(&ledger, &declared).render_text());
        assert_eq!(json, SafetyAudit::build(&ledger, &declared).render_json());
    }

    #[test]
    fn zero_count_additions_create_no_entries() {
        let mut l = ExposureLedger::new();
        l.add_sensitive_flows("c", "10.0.0.1", 0);
        l.add_retained("c", "10.0.0.1", 0);
        assert!(l.is_empty());
        let tel = Telemetry::enabled();
        l.export(&tel);
        assert!(ExposureLedger::from_registry(&tel.snapshot()).is_empty());
    }
}
