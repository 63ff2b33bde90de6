//! Control-message overhead accounting.
//!
//! §2 of the paper: "The dating service will need some overhead
//! communication but these will be only small messages — typically one IP
//! address in each message. If we use the dating service to organize rumor
//! spreading in which we broadcast a long file, say a movie, this overhead
//! does not matter at all." This module quantifies the claim: per round,
//! the service exchanges `Bout + Bin` tiny request messages, an answer for
//! each, and one payload message per arranged date.

use crate::bandwidth::Platform;

/// Wire size of a control message: one IPv4 address plus port, as in the
/// paper's "one IP address in each message".
pub const ADDRESS_BYTES: usize = 6;

/// Control bytes as a fraction of all bytes on the wire: 1.0 when no
/// payload moved (an all-control round), 0.0 when nothing moved at all.
pub fn control_fraction(control_bytes: u64, payload_bytes: u64) -> f64 {
    let total = control_bytes + payload_bytes;
    if total == 0 {
        return 0.0;
    }
    control_bytes as f64 / total as f64
}

/// The theoretical per-round control message count for a platform:
/// `2(Bout + Bin)` (requests and their answers).
pub fn control_msgs_per_round(platform: &Platform) -> u64 {
    2 * (platform.total_out() + platform.total_in())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Control bytes of a unit round at `n = 1000`: `4n` addresses.
    const CONTROL: u64 = 4_000 * ADDRESS_BYTES as u64;
    /// Dates of that round (≈ 0.476 m).
    const DATES: u64 = 476;

    #[test]
    fn control_msgs_per_round_counts_requests_and_answers() {
        assert_eq!(control_msgs_per_round(&Platform::unit(200)), 800);
        // 30 nodes of bandwidth 5 and 270 of bandwidth 1, both ways.
        let p = Platform::bimodal(300, 0.1, 1, 5);
        assert_eq!(control_msgs_per_round(&p), 2 * (420 + 420));
    }

    #[test]
    fn large_payload_dwarfs_control() {
        // The paper's "movie" scenario: control must be negligible.
        let f = control_fraction(CONTROL, DATES << 20);
        assert!(f < 1e-4, "{f}");
    }

    #[test]
    fn unit_payload_control_dominates() {
        let f = control_fraction(CONTROL, DATES);
        assert!(f > 0.9, "{f}");
        assert_eq!(control_fraction(3, 1), 0.75);
    }

    #[test]
    fn no_traffic_edge_cases() {
        assert_eq!(control_fraction(0, 0), 0.0);
        assert_eq!(control_fraction(120, 0), 1.0);
    }
}
