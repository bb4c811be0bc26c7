//! `robots.txt` parsing and matching, per Google's specification.
//!
//! The paper's enumerator fetched each host's `robots.txt` and followed
//! it per Google's specification (§III-A); 5.9 K of 11.3 K servers with a
//! robots file excluded the entire filesystem, and the crawler adhered.
//! This implementation covers the parts of the spec the study exercised:
//! user-agent group selection, `Allow`/`Disallow` longest-match
//! precedence (with `Allow` winning ties), `*` wildcards, and `$`
//! end-anchors.

use serde::{Deserialize, Serialize};

/// A single Allow/Disallow rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Rule {
    allow: bool,
    pattern: String,
}

/// A parsed `robots.txt` policy for a particular user-agent.
///
/// # Example
///
/// ```
/// use ftp_proto::Robots;
///
/// let robots = Robots::parse(
///     "User-agent: *\nDisallow: /private/\nAllow: /private/pub\n",
///     "ftp-enumerator",
/// );
/// assert!(robots.is_allowed("/public/file.txt"));
/// assert!(!robots.is_allowed("/private/secret.txt"));
/// assert!(robots.is_allowed("/private/pub/ok.txt"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Robots {
    rules: Vec<Rule>,
}

impl Robots {
    /// A policy with no rules: everything allowed (equivalent to a
    /// missing or empty `robots.txt`).
    pub fn allow_all() -> Self {
        Robots::default()
    }

    /// Parses a robots.txt body, selecting the group that best matches
    /// `user_agent` (most-specific name match; `*` as fallback), per the
    /// Google specification.
    pub fn parse(body: &str, user_agent: &str) -> Self {
        let ua_lower = user_agent.to_ascii_lowercase();
        // Group records: consecutive user-agent lines share the following
        // rule block.
        #[derive(Default)]
        struct Group {
            agents: Vec<String>,
            rules: Vec<Rule>,
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut current: Option<Group> = None;
        let mut last_was_agent = false;
        for raw_line in body.lines() {
            let line = match raw_line.find('#') {
                Some(ix) => &raw_line[..ix],
                None => raw_line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once(':') else { continue };
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            match key.as_str() {
                "user-agent" => {
                    if last_was_agent {
                        if let Some(g) = current.as_mut() {
                            g.agents.push(value.to_ascii_lowercase());
                        }
                    } else {
                        if let Some(g) = current.take() {
                            groups.push(g);
                        }
                        current = Some(Group {
                            agents: vec![value.to_ascii_lowercase()],
                            rules: Vec::new(),
                        });
                    }
                    last_was_agent = true;
                }
                "allow" | "disallow" => {
                    last_was_agent = false;
                    if let Some(g) = current.as_mut() {
                        // Empty Disallow means "allow everything" (no rule).
                        if !value.is_empty() {
                            g.rules.push(Rule {
                                allow: key == "allow",
                                pattern: value.to_owned(),
                            });
                        }
                    }
                }
                _ => {
                    last_was_agent = false;
                }
            }
        }
        if let Some(g) = current.take() {
            groups.push(g);
        }
        // Select best group: longest agent-name substring match; '*' is
        // length 0.
        let mut best: Option<(usize, &Group)> = None;
        for g in &groups {
            for agent in &g.agents {
                let score = if agent == "*" {
                    Some(0)
                } else if ua_lower.contains(agent.as_str()) {
                    Some(agent.len())
                } else {
                    None
                };
                if let Some(s) = score {
                    let better = match best {
                        None => true,
                        Some((bs, _)) => s > bs,
                    };
                    if better {
                        best = Some((s, g));
                    }
                }
            }
        }
        match best {
            Some((_, g)) => Robots { rules: g.rules.clone() },
            None => Robots::allow_all(),
        }
    }

    /// True if the policy permits fetching `path`.
    ///
    /// Longest-pattern-match wins; on equal lengths, `Allow` wins.
    pub fn is_allowed(&self, path: &str) -> bool {
        self.verdict(path, "")
    }

    /// True if the policy permits entering directory `path`, evaluated
    /// as if a trailing `/` were appended — equivalent to
    /// `is_allowed(&format!("{path}/"))` without the allocation. The
    /// enumerator probes every directory this way before queueing it.
    pub fn is_allowed_dir(&self, path: &str) -> bool {
        self.verdict(path, "/")
    }

    /// Longest-match verdict over the virtual concatenation
    /// `path ⧺ tail`.
    fn verdict(&self, path: &str, tail: &str) -> bool {
        let mut verdict = true;
        let mut best_len = 0usize;
        let mut best_allow = true;
        let mut matched = false;
        for rule in &self.rules {
            if pattern_matches_concat(&rule.pattern, path, tail) {
                let len = rule.pattern.len();
                if !matched || len > best_len || (len == best_len && rule.allow && !best_allow) {
                    best_len = len;
                    best_allow = rule.allow;
                    matched = true;
                }
            }
        }
        if matched {
            verdict = best_allow;
        }
        verdict
    }

    /// True if the policy denies the filesystem root (and hence, in the
    /// absence of Allow overrides, everything) — used by the enumerator to
    /// short-circuit traversal, matching the paper's "excluded the entire
    /// filesystem" statistic.
    pub fn denies_everything(&self) -> bool {
        !self.is_allowed("/")
    }
}

/// Google-style pattern match: literal prefix with `*` wildcards and an
/// optional `$` end anchor.
#[cfg(test)]
fn pattern_matches(pattern: &str, path: &str) -> bool {
    pattern_matches_concat(pattern, path, "")
}

/// [`pattern_matches`] evaluated against the virtual concatenation
/// `path ⧺ tail` without materializing it (and without the per-call
/// `split('*').collect()` the old matcher paid). Both inputs are valid
/// UTF-8, so byte-wise substring search agrees with `str::find`.
fn pattern_matches_concat(pattern: &str, path: &str, tail: &str) -> bool {
    let (pattern, anchored) = match pattern.strip_suffix('$') {
        Some(p) => (p, true),
        None => (pattern, false),
    };
    let total = path.len() + tail.len();
    let mut pos = 0usize;
    let mut at_start = true;
    for part in pattern.split('*') {
        if part.is_empty() {
            at_start = false;
            continue;
        }
        if at_start {
            if !concat_starts_at(path, tail, 0, part.as_bytes()) {
                return false;
            }
            pos = part.len();
            at_start = false;
        } else {
            match concat_find(path, tail, pos, part.as_bytes()) {
                Some(found) => pos = found + part.len(),
                None => return false,
            }
        }
    }
    if anchored {
        // The last literal part must reach the end of the path (or the
        // pattern ends with '*', which can always consume the tail).
        pattern.ends_with('*') || pos == total
    } else {
        true
    }
}

/// Byte `i` of the virtual concatenation `path ⧺ tail`.
fn concat_byte(path: &[u8], tail: &[u8], i: usize) -> u8 {
    if i < path.len() { path[i] } else { tail[i - path.len()] }
}

/// Whether `needle` occurs at offset `at` of `path ⧺ tail`.
fn concat_starts_at(path: &str, tail: &str, at: usize, needle: &[u8]) -> bool {
    let (path, tail) = (path.as_bytes(), tail.as_bytes());
    if at + needle.len() > path.len() + tail.len() {
        return false;
    }
    needle.iter().enumerate().all(|(j, &b)| concat_byte(path, tail, at + j) == b)
}

/// First occurrence of `needle` in `path ⧺ tail` at or after `from`.
fn concat_find(path: &str, tail: &str, from: usize, needle: &[u8]) -> Option<usize> {
    let total = path.len() + tail.len();
    if from + needle.len() > total {
        return None;
    }
    (from..=total - needle.len()).find(|&i| concat_starts_at(path, tail, i, needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_robots_allows_everything() {
        let r = Robots::allow_all();
        assert!(r.is_allowed("/anything/at/all"));
        assert!(!r.denies_everything());
    }

    #[test]
    fn basic_disallow_prefix() {
        let r = Robots::parse("User-agent: *\nDisallow: /secret/\n", "bot");
        assert!(!r.is_allowed("/secret/file"));
        assert!(r.is_allowed("/public/file"));
        assert!(r.is_allowed("/secret")); // prefix requires the slash
    }

    #[test]
    fn allow_overrides_longer_match() {
        let r = Robots::parse("User-agent: *\nDisallow: /a/\nAllow: /a/b/\n", "bot");
        assert!(!r.is_allowed("/a/x"));
        assert!(r.is_allowed("/a/b/x"));
    }

    #[test]
    fn allow_wins_ties() {
        let r = Robots::parse("User-agent: *\nDisallow: /p\nAllow: /p\n", "bot");
        assert!(r.is_allowed("/page"));
    }

    #[test]
    fn wildcard_and_anchor() {
        let r = Robots::parse("User-agent: *\nDisallow: /*.zip$\n", "bot");
        assert!(!r.is_allowed("/backups/all.zip"));
        assert!(r.is_allowed("/backups/all.zip.txt"));
        assert!(r.is_allowed("/zipinfo"));
    }

    #[test]
    fn specific_agent_group_selected() {
        let body = "User-agent: googlebot\nDisallow: /g/\n\nUser-agent: *\nDisallow: /all/\n";
        let g = Robots::parse(body, "Googlebot/2.1");
        assert!(!g.is_allowed("/g/x"));
        assert!(g.is_allowed("/all/x"));
        let other = Robots::parse(body, "ftp-enumerator");
        assert!(other.is_allowed("/g/x"));
        assert!(!other.is_allowed("/all/x"));
    }

    #[test]
    fn stacked_user_agents_share_rules() {
        let body = "User-agent: a\nUser-agent: b\nDisallow: /x/\n";
        assert!(!Robots::parse(body, "a").is_allowed("/x/1"));
        assert!(!Robots::parse(body, "b").is_allowed("/x/1"));
        assert!(Robots::parse(body, "c").is_allowed("/x/1"));
    }

    #[test]
    fn comments_and_junk_ignored() {
        let body = "# hello\nUser-agent: * # everyone\nDisallow: /p # private\nCrawl-delay: 10\nnonsense line\n";
        let r = Robots::parse(body, "bot");
        assert!(!r.is_allowed("/p/x"));
    }

    #[test]
    fn empty_disallow_means_allow() {
        let r = Robots::parse("User-agent: *\nDisallow:\n", "bot");
        assert!(r.is_allowed("/anything"));
    }

    #[test]
    fn full_exclusion_detected() {
        let r = Robots::parse("User-agent: *\nDisallow: /\n", "ftp-enumerator");
        assert!(r.denies_everything());
    }

    #[test]
    fn pattern_star_in_middle() {
        assert!(pattern_matches("/a/*/c", "/a/b/c"));
        assert!(pattern_matches("/a/*/c", "/a/bbb/cc")); // prefix semantics
        assert!(!pattern_matches("/a/*/c", "/a/b/d"));
    }

    #[test]
    fn is_allowed_dir_equals_allocated_probe() {
        let bodies = [
            "User-agent: *\nDisallow: /secret/\n",
            "User-agent: *\nDisallow: /a/\nAllow: /a/b/\n",
            "User-agent: *\nDisallow: /*.d/$\n",
            "User-agent: *\nDisallow: /pub*js/\n",
            "User-agent: *\nDisallow: /\n",
        ];
        let dirs = ["/", "/secret", "/secret/", "/a", "/a/b", "/pub/extjs", "/x.d", "/x.d/y"];
        for body in bodies {
            let r = Robots::parse(body, "ftp-enumerator");
            for dir in dirs {
                assert_eq!(
                    r.is_allowed_dir(dir),
                    r.is_allowed(&format!("{dir}/")),
                    "divergence for {body:?} on {dir:?}"
                );
            }
        }
    }

    #[test]
    fn concat_matcher_spans_the_boundary() {
        // The literal part straddles the path/tail seam.
        let r = Robots::parse("User-agent: *\nDisallow: /data/\n", "bot");
        assert!(!r.is_allowed_dir("/data"));
        assert!(r.is_allowed("/data"));
        // Anchored pattern must reach the end of the virtual path.
        let a = Robots::parse("User-agent: *\nDisallow: /tmp/$\n", "bot");
        assert!(!a.is_allowed_dir("/tmp"));
        assert!(a.is_allowed_dir("/tmp/x"));
    }
}
