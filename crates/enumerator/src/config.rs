//! Enumerator configuration.

use crate::backoff::RetrySchedule;
use ftp_proto::HostPort;
use netsim::SimDuration;
use std::net::Ipv4Addr;

/// Directory-traversal strategy (DESIGN.md §5 ablation 2).
///
/// The paper's enumerator traverses breadth-first, which bounds the
/// depth bias when the request cap truncates a walk; depth-first spends
/// the whole budget down one subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraversalOrder {
    /// Breadth-first (the paper's choice).
    #[default]
    BreadthFirst,
    /// Depth-first (the ablation).
    DepthFirst,
}

/// Give up on a host outright when its whole session exceeds this
/// wall-clock bound — the backstop that makes a run over a hostile
/// population finish no matter what individual hosts do.
pub(crate) const SESSION_DEADLINE: SimDuration = SimDuration::from_secs(900);

/// Backoff schedule for failed control-connection attempts: two retries
/// at 1 s and 2 s — cheap enough to run against every silent host,
/// persistent enough to ride out a single lost SYN.
pub(crate) const CONNECT_RETRY: RetrySchedule = RetrySchedule {
    base: SimDuration::from_secs(1),
    cap: SimDuration::from_secs(8),
    max_retries: 2,
};

/// Maximum traversal depth.
pub(crate) const MAX_DEPTH: usize = 16;

/// Tunables for an enumeration run. Defaults mirror the paper's stated
/// methodology: 500-request cap, two requests per second, robots.txt
/// respected, abuse-contact password.
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// Source address for all enumerator connections.
    pub source_ip: Ipv4Addr,
    /// Hosts enumerated concurrently ("spread across widely dispersed
    /// hosts" in the paper; one source with bounded concurrency here).
    pub max_concurrent: usize,
    /// Maximum control-channel commands per host (paper: 500).
    pub request_cap: u32,
    /// Delay between consecutive commands to one host (paper: 2 req/s).
    pub request_gap: SimDuration,
    /// Abort a step when no reply arrives within this window.
    pub step_timeout: SimDuration,
    /// Address we control for the `PORT`-validation probe; `None`
    /// disables the probe.
    pub bounce_collector: Option<HostPort>,
    /// User-agent for robots.txt group matching.
    pub user_agent: String,
    /// Anonymous-login password (the team's abuse contact, per RFC 1635).
    pub password: String,
    /// Honor robots.txt (ablation switch; the real study always did).
    pub respect_robots: bool,
    /// Strict RFC 959 reply interpretation (ablation: disables the
    /// hardened quirk tolerance and treats any unexpected reply as
    /// failure).
    pub strict_replies: bool,
    /// Traversal strategy under the request cap.
    pub traversal: TraversalOrder,
}

impl EnumConfig {
    /// Paper-faithful defaults from the given source address.
    pub fn new(source_ip: Ipv4Addr) -> Self {
        EnumConfig {
            source_ip,
            max_concurrent: 128,
            request_cap: 500,
            request_gap: SimDuration::from_millis(500),
            step_timeout: SimDuration::from_secs(30),
            bounce_collector: None,
            user_agent: "ftp-enumerator".to_owned(),
            password: "abuse@scan-research.example.org".to_owned(),
            respect_robots: true,
            strict_replies: false,
            traversal: TraversalOrder::BreadthFirst,
        }
    }

    /// Builder: choose the traversal strategy.
    pub fn with_traversal(mut self, order: TraversalOrder) -> Self {
        self.traversal = order;
        self
    }

    /// Builder: enable the `PORT` bounce probe toward `collector`.
    pub fn with_bounce_probe(mut self, collector: HostPort) -> Self {
        self.bounce_collector = Some(collector);
        self
    }

    /// Builder: set the per-host request cap.
    pub fn with_request_cap(mut self, cap: u32) -> Self {
        self.request_cap = cap;
        self
    }

    /// Builder: set concurrency.
    pub fn with_concurrency(mut self, n: usize) -> Self {
        self.max_concurrent = n.max(1);
        self
    }

    /// Builder: set the inter-command gap (rate limit).
    pub fn with_request_gap(mut self, gap: SimDuration) -> Self {
        self.request_gap = gap;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EnumConfig::new(Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(c.request_cap, 500);
        assert_eq!(c.request_gap, SimDuration::from_millis(500)); // 2 req/s
        assert!(c.respect_robots);
        assert!(c.password.contains('@'), "RFC 1635: email as password");
        assert!(c.bounce_collector.is_none());
    }

    #[test]
    fn builders() {
        let hp = HostPort::new(Ipv4Addr::new(9, 9, 9, 9), 1025);
        let c = EnumConfig::new(Ipv4Addr::new(1, 1, 1, 1))
            .with_bounce_probe(hp)
            .with_request_cap(50)
            .with_concurrency(0);
        assert_eq!(c.bounce_collector, Some(hp));
        assert_eq!(c.request_cap, 50);
        assert_eq!(c.max_concurrent, 1, "clamped to at least one");
    }

    #[test]
    fn default_retry_budget_fits_inside_session_deadline() {
        // A host that times out on every connect must exhaust its retry
        // schedule well before the session deadline would fire, so the
        // GaveUp reason is attributed to the connect path, not the
        // backstop.
        let c = EnumConfig::new(Ipv4Addr::new(1, 1, 1, 1));
        let attempts = u64::from(CONNECT_RETRY.max_attempts());
        let worst = CONNECT_RETRY.worst_case_total() + c.step_timeout.saturating_mul(attempts);
        assert!(worst < SESSION_DEADLINE, "{worst:?} vs {SESSION_DEADLINE:?}");
    }
}
