//! Deterministic per-host fault injection.
//!
//! The paper's enumerator survived the open Internet, where a large
//! minority of "FTP servers" are broken, hostile, or glacially slow
//! (§III). This module grows the simulator from a polite network into a
//! fault-realistic one: a [`FaultProfile`] attached to a host rewrites
//! that host's observable behavior at the transport layer — connects
//! that never answer, sessions reset midway, replies replaced with
//! garbage, transfers truncated, and tarpits that drip one byte at a
//! time before going silent.
//!
//! # Determinism
//!
//! Fault behavior never draws from the simulator's shared RNG. Every
//! random-looking choice (garbage bytes, sampled profile parameters) is
//! derived by hashing a per-host `seed` with stable counters (connection
//! id, reply ordinal). Two consequences the chaos suite relies on:
//!
//! 1. the same world seed reproduces the same faulty behavior, byte for
//!    byte, across runs;
//! 2. attaching faults to *some* hosts cannot perturb the RNG stream —
//!    and therefore the records — of the *clean* hosts.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// What kind of hostile behavior a faulty host exhibits.
///
/// Each variant models a failure class the paper's enumerator met at
/// Internet scale; `DESIGN.md` ("Fault model") maps them to §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// SYNs to every port are silently dropped at connect time, while
    /// stateless SYN probes still see the port as open (the host's SYN
    /// proxy answers, the service behind it never completes). Scanners
    /// find the host; enumerators time out — the LZR-style
    /// "unexpected service" gap.
    SynBlackhole,
    /// The session works, then the host resets it after `after_sends`
    /// server replies (mid-session RST).
    MidSessionRst {
        /// Server sends delivered before the reset.
        after_sends: u32,
    },
    /// A tarpit: server output drips one byte every `drip`, and after
    /// `max_bytes` total the host goes silent forever (the classic
    /// "banner never finishes" hang).
    Tarpit {
        /// Delay between successive dripped bytes.
        drip: SimDuration,
        /// Bytes dripped before the host stops sending entirely.
        max_bytes: u64,
    },
    /// The control channel works but SYNs to any *other* port on the
    /// host are blackholed — PASV data connections hang until the
    /// client's connect timeout.
    DataChannelBroken,
    /// Data-channel transfers are cut off after `after_bytes` bytes and
    /// the data connection is closed, mimicking mid-transfer drops.
    /// The control channel is untouched.
    TruncateData {
        /// Data bytes delivered per connection before the cut.
        after_bytes: u64,
    },
    /// Every control-channel reply is replaced with deterministic
    /// garbage. With `overlong` set, some "replies" are unterminated
    /// runs longer than any sane line limit, exercising the client's
    /// overlong-line defense.
    GarbageReplies {
        /// Emit unterminated multi-KB lines as well as printable junk.
        overlong: bool,
    },
}

impl FaultKind {
    /// Stable snake_case label used in host journals and summaries.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::SynBlackhole => "syn_blackhole",
            FaultKind::MidSessionRst { .. } => "mid_session_rst",
            FaultKind::Tarpit { .. } => "tarpit",
            FaultKind::DataChannelBroken => "data_channel_broken",
            FaultKind::TruncateData { .. } => "truncate_data",
            FaultKind::GarbageReplies { .. } => "garbage_replies",
        }
    }
}

/// A host's complete fault configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// The failure class this host exhibits.
    pub kind: FaultKind,
    /// Port treated as the control channel (faults distinguish control
    /// from data traffic). FTP's 21 unless overridden.
    pub control_port: u16,
    /// Per-host seed for deterministic garbage generation. Independent
    /// of the simulator's shared RNG by design.
    pub seed: u64,
}

impl FaultProfile {
    /// A profile with the default control port (21) and a seed of 0.
    pub fn new(kind: FaultKind) -> Self {
        FaultProfile { kind, control_port: 21, seed: 0 }
    }

    /// Sets the per-host garbage seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Samples a profile from `seed` alone — the worldgen path. The
    /// kind and its parameters are all splitmix-derived so a host's
    /// hostile personality is a pure function of its identity, not of
    /// how many other hosts were generated before it.
    pub fn sample(seed: u64) -> Self {
        let mut x = seed;
        let kind = match mix(&mut x) % 6 {
            0 => FaultKind::SynBlackhole,
            1 => FaultKind::MidSessionRst { after_sends: 1 + (mix(&mut x) % 6) as u32 },
            2 => FaultKind::Tarpit {
                drip: SimDuration::from_millis(200 + mix(&mut x) % 1_800),
                max_bytes: 8 + mix(&mut x) % 56,
            },
            3 => FaultKind::DataChannelBroken,
            4 => FaultKind::TruncateData { after_bytes: mix(&mut x) % 256 },
            _ => FaultKind::GarbageReplies { overlong: mix(&mut x).is_multiple_of(3) },
        };
        FaultProfile { kind, control_port: 21, seed: mix(&mut x) }
    }
}

/// splitmix64 step — the same finalizer `SimCore::latency` uses.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic garbage for one control-channel reply, appended to
/// `out` (a pooled, cleared buffer on the simulator's data path — the
/// fault layer must not be the one spot that still allocates per send).
///
/// Keyed by `(profile seed, connection id, reply ordinal)`. Three
/// styles rotate: printable junk lines, binary junk with a terminator,
/// and (when `overlong`) an unterminated 10 KB run that overflows any
/// line buffer.
pub(crate) fn garbage_reply_into(
    seed: u64,
    conn_id: u64,
    ordinal: u32,
    overlong: bool,
    out: &mut Vec<u8>,
) {
    let mut x = seed ^ conn_id.rotate_left(17) ^ u64::from(ordinal).rotate_left(43);
    let style = mix(&mut x) % if overlong { 3 } else { 2 };
    match style {
        0 => {
            // Printable junk that is not an FTP reply: no leading digits.
            let len = 5 + (mix(&mut x) % 60) as usize;
            // '#'..='\\' and beyond: printable.
            out.extend((0..len).map(|_| b'#' + (mix(&mut x) % 58) as u8));
            out.extend_from_slice(b"\r\n");
        }
        1 => {
            // Binary junk (protocol confusion: TLS record / HTTP body).
            let len = 8 + (mix(&mut x) % 100) as usize;
            out.extend((0..len).map(|_| (mix(&mut x) & 0xff) as u8));
            out.push(b'\n');
        }
        _ => {
            // Unterminated overlong run: > MAX_LINE with no newline.
            let len = 10_240;
            out.extend((0..len).map(|_| b'A' + (mix(&mut x) % 26) as u8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_deterministic_and_varied() {
        for seed in 0..200u64 {
            assert_eq!(FaultProfile::sample(seed), FaultProfile::sample(seed));
        }
        let kinds: std::collections::HashSet<u64> =
            (0..200u64).map(|s| FaultProfile::sample(s).kind_ordinal()).collect();
        assert_eq!(kinds.len(), 6, "all six fault kinds appear in 200 samples");
    }

    impl FaultProfile {
        fn kind_ordinal(&self) -> u64 {
            match self.kind {
                FaultKind::SynBlackhole => 0,
                FaultKind::MidSessionRst { .. } => 1,
                FaultKind::Tarpit { .. } => 2,
                FaultKind::DataChannelBroken => 3,
                FaultKind::TruncateData { .. } => 4,
                FaultKind::GarbageReplies { .. } => 5,
            }
        }
    }

    fn garbage_reply(seed: u64, conn_id: u64, ordinal: u32, overlong: bool) -> Vec<u8> {
        let mut out = Vec::new();
        garbage_reply_into(seed, conn_id, ordinal, overlong, &mut out);
        out
    }

    #[test]
    fn garbage_is_deterministic_per_key() {
        let a = garbage_reply(7, 3, 1, true);
        let b = garbage_reply(7, 3, 1, true);
        assert_eq!(a, b);
        let c = garbage_reply(7, 3, 2, true);
        assert_ne!(a, c, "ordinal changes the garbage");
    }

    #[test]
    fn garbage_into_appends_after_existing_bytes() {
        // A recycled pool buffer arrives cleared; make sure the writer
        // appends rather than assuming an offset.
        let mut out = b"xy".to_vec();
        garbage_reply_into(7, 3, 1, false, &mut out);
        let fresh = garbage_reply(7, 3, 1, false);
        assert_eq!(&out[..2], b"xy");
        assert_eq!(&out[2..], &fresh[..]);
    }

    #[test]
    fn overlong_style_reachable_and_huge() {
        let mut saw_overlong = false;
        for ordinal in 0..64 {
            let g = garbage_reply(1, 1, ordinal, true);
            if g.len() > 8_192 {
                assert!(!g.contains(&b'\n'), "overlong run must be unterminated");
                saw_overlong = true;
            }
        }
        assert!(saw_overlong, "overlong style appears within 64 ordinals");
    }

    #[test]
    fn tarpit_parameters_bounded() {
        for seed in 0..500u64 {
            if let FaultKind::Tarpit { drip, max_bytes } = FaultProfile::sample(seed).kind {
                assert!(drip.as_micros() >= 200_000 && drip.as_micros() < 2_000_000);
                assert!((8..64).contains(&max_bytes));
            }
        }
    }
}
