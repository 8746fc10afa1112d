//! E8 — §2.2: the Syria-log infeasibility argument.
//!
//! "An analysis of two days of leaked censorship log files from Syria
//! shows that 1.57% of the population accessed at least one censored
//! site, far too many people for the surveillance system to pursue."
//!
//! Generate the calibrated synthetic log, reproduce the 1.57% statistic,
//! then run the analyst capacity model over the flagged users to show how
//! small a fraction could actually be pursued.

use underradar_ids::alert::Alert;
use underradar_ids::rule::RuleAction;
use underradar_netsim::rng::SimRng;
use underradar_surveil::analyst::{Analyst, AnalystConfig};
use underradar_workloads::syria::{SyriaLog, SyriaLogConfig};

use crate::table::{heading, Table};

/// Population size for the synthetic log.
pub const USERS: u32 = 30_000;

/// Run E8 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> String {
    let mut out = heading(
        "E8",
        "§2.2 (Syria censorship logs)",
        "≈1.57% of users touch censored content — too many to pursue",
    );
    let config = SyriaLogConfig::paper_calibrated(USERS);
    let mut rng = SimRng::seed_from_u64(1507);
    let log = SyriaLog::generate(&config, &mut rng);

    log.export_telemetry(tel);
    let frac = log.fraction_users_censored();
    let flagged = log.users_with_censored_access();
    let mut table = Table::new(&["metric", "paper", "measured"]);
    table.row(&[
        "users with ≥1 censored access".to_string(),
        "1.57%".to_string(),
        format!("{:.2}% ({flagged} of {USERS})", frac * 100.0),
    ]);
    table.row(&[
        "total requests (2 days)".to_string(),
        "(not reported)".to_string(),
        log.total_requests().to_string(),
    ]);
    table.row(&[
        "censored requests".to_string(),
        "(not reported)".to_string(),
        log.censored_requests().to_string(),
    ]);
    out.push_str(&table.render());

    // Alert-on-every-censored-access: feed the flagged users into the
    // analyst model at several capacities.
    let alerts: Vec<Alert> = log
        .entries
        .iter()
        .filter(|e| e.censored)
        .map(|e| Alert {
            time: e.time,
            sid: 9_100_000,
            msg: format!("censored access to {}", e.domain),
            action: RuleAction::Alert,
            src: std::net::Ipv4Addr::from(0x0a00_0000u32 | e.user),
            src_port: None,
            dst: std::net::Ipv4Addr::new(203, 0, 113, 113),
            dst_port: Some(80),
            classtype: Some("censored-lookup".to_string()),
        })
        .collect();

    out.push_str("\nanalyst pursuit capacity vs flagged users (min 1 alert to queue):\n");
    let mut cap_table = Table::new(&[
        "capacity/day",
        "queued users",
        "pursued",
        "% of flagged pursued",
    ]);
    for capacity in [10usize, 50, 200] {
        let analyst = Analyst::new(AnalystConfig {
            pursuit_capacity: capacity,
            min_alerts: 1,
        });
        let triage = analyst.triage(&alerts);
        let pursued = triage.iter().filter(|i| i.pursued).count();
        tel.set_counter(
            &format!("surveil.analyst.cap{capacity}.pursued"),
            pursued as u64,
        );
        tel.set_counter(
            &format!("surveil.analyst.cap{capacity}.queued"),
            triage.len() as u64,
        );
        cap_table.row(&[
            capacity.to_string(),
            triage.len().to_string(),
            pursued.to_string(),
            format!(
                "{:.1}%",
                100.0 * pursued as f64 / triage.len().max(1) as f64
            ),
        ]);
    }
    out.push_str(&cap_table.render());

    let pass = (frac - 0.0157).abs() < 0.004 && flagged > 200;
    out.push_str(&format!(
        "\nresult: the 1.57% statistic reproduced; even 200 pursuits/day covers <50%\n\
         of flagged users — alarming on all censored queries is infeasible: {}\n\n",
        if pass { "PASSED" } else { "FAILED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_passes() {
        let report = super::run_with(&underradar_telemetry::Telemetry::disabled());
        assert!(report.contains("PASSED"), "{report}");
    }
}
