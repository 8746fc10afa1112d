//! Alerts and the alert log.

use std::fmt;
use std::net::Ipv4Addr;

use underradar_netsim::time::SimTime;

use crate::rule::RuleAction;

/// One rule firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// When the rule fired.
    pub time: SimTime,
    /// Rule id.
    pub sid: u32,
    /// Rule message.
    pub msg: String,
    /// Rule action.
    pub action: RuleAction,
    /// Packet source address.
    pub src: Ipv4Addr,
    /// Packet source port, if any.
    pub src_port: Option<u16>,
    /// Packet destination address.
    pub dst: Ipv4Addr,
    /// Packet destination port, if any.
    pub dst_port: Option<u16>,
    /// Rule classtype, if declared.
    pub classtype: Option<String>,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] sid={} \"{}\" {}:{} -> {}:{}",
            self.time,
            self.sid,
            self.msg,
            self.src,
            self.src_port.map_or("-".to_string(), |p| p.to_string()),
            self.dst,
            self.dst_port.map_or("-".to_string(), |p| p.to_string()),
        )
    }
}

/// An append-only alert log with query helpers.
#[derive(Debug, Default)]
pub struct AlertLog {
    alerts: Vec<Alert>,
}

impl AlertLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an alert.
    pub fn push(&mut self, alert: Alert) {
        self.alerts.push(alert);
    }

    /// All alerts, in time order.
    pub fn all(&self) -> &[Alert] {
        &self.alerts
    }

    /// Number of alerts.
    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Alerts attributable to one source address — the surveillance
    /// system's user-attribution query.
    pub fn by_src(&self, src: Ipv4Addr) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().filter(move |a| a.src == src)
    }

    /// Drop all alerts.
    pub fn clear(&mut self) {
        self.alerts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(sid: u32, src: [u8; 4]) -> Alert {
        Alert {
            time: SimTime::ZERO,
            sid,
            msg: format!("rule {sid}"),
            action: RuleAction::Alert,
            src: src.into(),
            src_port: Some(1234),
            dst: [10, 0, 0, 1].into(),
            dst_port: Some(80),
            classtype: None,
        }
    }

    #[test]
    fn queries() {
        let mut log = AlertLog::new();
        log.push(alert(1, [1, 1, 1, 1]));
        log.push(alert(2, [1, 1, 1, 1]));
        log.push(alert(1, [2, 2, 2, 2]));
        assert_eq!(log.len(), 3);
        assert_eq!(log.by_src([1, 1, 1, 1].into()).count(), 2);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn display_includes_ids() {
        let a = alert(42, [9, 9, 9, 9]);
        let s = a.to_string();
        assert!(s.contains("sid=42"));
        assert!(s.contains("9.9.9.9:1234"));
    }
}
