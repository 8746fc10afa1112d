//! DNS: wire format, names, and a simulated server.
//!
//! The subset implemented is what censorship measurement exercises: A, NS,
//! CNAME, MX and TXT records, queries/responses with compression, and the
//! response codes that matter for verdicts (NOERROR, NXDOMAIN, SERVFAIL,
//! REFUSED).

pub mod message;
pub mod name;
pub mod server;

pub use message::{DnsClass, DnsError, DnsMessage, QType, Question, Rcode, Record, RecordData};
pub use name::DnsName;
pub use server::{DnsServer, DnsZone, ZoneBuilder};
