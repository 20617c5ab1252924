//! Distributed intrusion-detection substrate.
//!
//! Implements both IDS layers the paper analyzes:
//!
//! * **Host-based IDS** ([`host`]): every node pre-installs a local
//!   detector abstracted by two probabilities — false negative `p1` and
//!   false positive `p2` (misuse detection trends to high `p1`/low `p2`,
//!   anomaly detection the opposite).
//! * **Voting-based IDS** ([`voting`]): a target node is periodically
//!   judged by `m` randomly selected vote participants; a majority
//!   (`⌈m/2⌉`) of *evict* votes expels it via rekeying. Compromised voters
//!   collude — they vote to evict good targets and to keep bad ones. The
//!   module provides both an executable voting round for the simulator and
//!   the exact analytic `Pfp`/`Pfn` (a reconstruction of the paper's
//!   Equation 1) as hypergeometric–binomial tail sums.
//! * **Attacker / detection rate functions** ([`functions`]): logarithmic,
//!   linear, and polynomial shapes normalized to the base rate at the
//!   initial state.
//! * **Adaptive control** ([`adaptive`]): classifies the attacker shape
//!   from observed compromise times and selects the matching detection
//!   function and optimal base interval — the paper's proposed dynamic
//!   defense.

pub mod adaptive;
pub mod functions;
pub mod host;
pub mod voting;

pub use adaptive::{AdaptiveController, AttackerEstimate, AttackerEstimator};
pub use functions::{AttackerProfile, DetectionProfile, RateShape};
pub use host::HostIds;
pub use voting::{p_false_negative, p_false_positive, VoteOutcome, VotingConfig};
