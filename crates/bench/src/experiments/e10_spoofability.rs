//! E10 — §4.2: spoofing feasibility (Beverly et al.).
//!
//! "Beverly et al. determined that 77% of clients can spoof other
//! addresses within their own /24, and 11% can spoof addresses within
//! their own /16 ... Because so many clients can spoof adjacent IPs, our
//! approach should work in practice on many networks."
//!
//! Sample a large client population under the measured filter deployment,
//! report the spoofability fractions, and measure the cover each class of
//! client can actually raise.

use underradar_netsim::addr::Cidr;
use underradar_netsim::rng::SimRng;
use underradar_spoof::{cover_sources, BeverlyFractions, FilterGranularity, SpoofPopulation};

use crate::experiments::{Claims, Outcome};
use crate::table::{heading, Table};

/// Population size for the sample.
pub const CLIENTS: usize = 20_000;

/// Run E10 and render its report, recording telemetry into `tel`.
pub fn run_with(tel: &underradar_telemetry::Telemetry) -> Outcome {
    let mut out = heading(
        "E10",
        "§4.2 (spoofing feasibility, Beverly et al.)",
        "77% of clients can spoof within their /24; 11% within their /16",
    );
    let mut rng = SimRng::seed_from_u64(409);
    let population = SpoofPopulation::sample(
        Cidr::slash16(std::net::Ipv4Addr::new(10, 20, 0, 0)),
        CLIENTS,
        BeverlyFractions::default(),
        &mut rng,
    );

    population.export_telemetry(tel);
    let mut table = Table::new(&["capability", "paper", "measured"]);
    table.row(&[
        "can spoof within /24".to_string(),
        "77%".to_string(),
        format!("{:.1}%", population.fraction_spoof_24() * 100.0),
    ]);
    table.row(&[
        "can spoof within /16".to_string(),
        "11%".to_string(),
        format!("{:.1}%", population.fraction_spoof_16() * 100.0),
    ]);
    table.row(&[
        "fully filtered (no spoofing)".to_string(),
        "23%".to_string(),
        format!("{:.1}%", population.fraction_filtered() * 100.0),
    ]);
    out.push_str(&table.render());

    // Cover capacity per capability class.
    out.push_str("\ncover sources obtainable per client class (request k=100):\n");
    let mut cover_table = Table::new(&[
        "filter class",
        "clients",
        "avg cover sources",
        "max anonymity",
    ]);
    for (label, granularity, max_anon) in [
        ("/24-spoofable", FilterGranularity::Slash24, 256u64),
        ("/16-spoofable", FilterGranularity::Slash16, 65_536),
        ("filtered", FilterGranularity::Exact, 1),
    ] {
        let members: Vec<_> = population
            .clients
            .iter()
            .filter(|c| c.capability == granularity)
            .take(50)
            .collect();
        let mut total = 0usize;
        for c in &members {
            total += cover_sources(c, 100, &mut rng).len();
        }
        let avg = if members.is_empty() {
            0.0
        } else {
            total as f64 / members.len() as f64
        };
        cover_table.row(&[
            label.to_string(),
            members.len().to_string(),
            format!("{avg:.0}"),
            max_anon.to_string(),
        ]);
    }
    out.push_str(&cover_table.render());

    let f24 = population.fraction_spoof_24();
    let f16 = population.fraction_spoof_16();
    let mut claims = Claims::default();
    claims.check("/24-spoofable fraction is 77%", (f24 - 0.77).abs() < 0.02);
    claims.check("/16-spoofable fraction is 11%", (f16 - 0.11).abs() < 0.02);
    claims.conclude(
        out,
        "deployment fractions match Beverly within sampling error",
    )
}
