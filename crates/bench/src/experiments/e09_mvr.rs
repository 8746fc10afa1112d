//! E9 — §2.1: storage constraints and Massive Volume Reduction.
//!
//! "the NSA could only store 7.5% of the traffic they received ... engages
//! in what we call Massive Volume Reduction (MVR) to reduce the volume of
//! captured traffic by roughly 30%, in part by throwing away all
//! peer-to-peer traffic."
//!
//! Feed a realistic population mix (plus measurement traffic) through the
//! surveillance pipeline and report the per-class retention table, the
//! achieved volume reduction, and the retention-store windows.

use underradar_netsim::rng::SimRng;
use underradar_surveil::system::{SurveillanceConfig, SurveillanceSystem};
use underradar_surveil::TrafficClass;
use underradar_workloads::population::{PopulationConfig, PopulationTraffic};

use crate::experiments::{Claims, Outcome};
use crate::table::{heading, mark, Table};

/// Run E9 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E9",
        "§2.1 (surveillance storage constraints / MVR)",
        "whole classes discarded; retention bounded; metadata kept for all",
    );
    let mut system = SurveillanceSystem::new(SurveillanceConfig::with_rules(vec![]));
    let mut rng = SimRng::seed_from_u64(2009);
    let config = PopulationConfig {
        // Heavier P2P share, like a real access network.
        p2p_pps: 60.0,
        scan_pps: 20.0,
        ..PopulationConfig::default()
    };
    let stream = PopulationTraffic::generate(&config, &mut rng);
    for tp in &stream {
        system.process(tp.time, &tp.packet);
    }
    PopulationTraffic::export_telemetry(&stream, tel);
    system.export_telemetry(tel);

    let mvr = system.mvr();
    let mut table = Table::new(&["class", "packets", "bytes", "retained bytes", "discarded"]);
    let mut discarded_bytes = 0u64;
    for (class, vol) in mvr.volumes() {
        if vol.packets == 0 {
            continue;
        }
        let discarded = vol.bytes - vol.retained_bytes;
        discarded_bytes += discarded;
        table.row(&[
            class.to_string(),
            vol.packets.to_string(),
            vol.bytes.to_string(),
            vol.retained_bytes.to_string(),
            mark(vol.retained_bytes == 0).to_string(),
        ]);
    }
    out.push_str(&table.render());

    let total = mvr.total_bytes();
    let reduction = discarded_bytes as f64 / total.max(1) as f64;
    out.push_str(&format!(
        "\nvolume reduction by class-discard: {:.1}% (paper: MVR reduces ~30%, incl. all P2P)\n",
        reduction * 100.0
    ));
    out.push_str(&format!(
        "effective retention: {:.1}% of observed bytes (budget model: 7.5%)\n",
        mvr.retention_rate() * 100.0
    ));
    let p2p_gone = mvr
        .volumes()
        .iter()
        .find(|(c, _)| *c == TrafficClass::P2p)
        .map(|(_, v)| v.retained_bytes == 0)
        .unwrap_or(false);

    // Retention windows (the three stores from §2.1).
    let stores = system.stores();
    out.push_str(&format!(
        "\nretention windows: content {}d, metadata {}d, alerts {}d (paper: 3d / 30d / 1y)\n",
        stores.content.window().as_nanos() / 86_400_000_000_000,
        stores.metadata.window().as_nanos() / 86_400_000_000_000,
        stores.alerts.window().as_nanos() / 86_400_000_000_000,
    ));
    out.push_str(&format!(
        "metadata records: {} (one per packet — kept regardless of MVR)\n",
        stores.metadata.total_inserted()
    ));
    out.push_str(&format!(
        "content records:  {} (retained packets only)\n",
        stores.content.total_inserted()
    ));

    let meta_all = stores.metadata.total_inserted() == stream.len() as u64;
    let content_fewer = stores.content.total_inserted() < stores.metadata.total_inserted();
    let mut claims = Claims::default();
    claims.check("class-discard cuts volume ≥30%", reduction >= 0.30);
    claims.check("P2P is fully discarded", p2p_gone);
    claims.check("metadata for every packet", meta_all);
    claims.check("fewer content than metadata records", content_fewer);
    claims.conclude(
        out,
        "≥30% volume reduction with P2P fully discarded, metadata for all",
    )
}
