//! GDH.2 contributory group key agreement (Steiner, Tsudik, Waidner,
//! CCS '96) over a 61-bit prime field.
//!
//! The paper uses GDH for distributed rekeying because MANETs have no
//! trusted key server. GDH.2 runs in `n` stages for a group of `n` members
//! `M₁ … Mₙ`:
//!
//! * **Upflow** (stages 1 … n−1): `Mᵢ` sends `Mᵢ₊₁` a message with `i`
//!   field elements — the intermediate values
//!   `g^{x₁⋯xᵢ / xⱼ}` for `j ≤ i` and the cardinal value `g^{x₁⋯xᵢ}`.
//! * **Broadcast** (stage n): `Mₙ` raises every intermediate value to its
//!   secret and broadcasts `n−1` elements `g^{x₁⋯xₙ / xⱼ}`; member `Mⱼ`
//!   recovers the shared key `K = (g^{x₁⋯xₙ/xⱼ})^{xⱼ}`.
//!
//! We execute the protocol with real modular exponentiation (u128
//! arithmetic, Mersenne prime `p = 2⁶¹ − 1`) so the secrecy-relevant
//! behaviours (identical keys, key change on membership change) are
//! testable, and we account every message/element so the cost model can
//! charge the exact traffic. The 61-bit field is a *scale model* of the
//! 1024+-bit production field; [`RekeyCost`] therefore takes the wire
//! element size as a parameter, so the cost model charges production-size
//! elements while the arithmetic stays in the small field.

use crate::membership::NodeId;
use rand::Rng;

/// The Mersenne prime 2⁶¹ − 1.
pub const PRIME: u64 = (1u64 << 61) - 1;
/// Generator of a large subgroup of `Z_p*`.
pub const GENERATOR: u64 = 3;

/// `(a * b) mod PRIME` without overflow.
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `base^exp mod m` by square-and-multiply.
pub fn powmod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m > 1, "modulus must exceed 1");
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Per-rekey communication accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RekeyCost {
    /// Unicast upflow messages (n − 1).
    pub unicast_messages: u32,
    /// Broadcast messages (1 for n ≥ 2, 0 for a singleton group).
    pub broadcast_messages: u32,
    /// Total field elements sent across all messages.
    pub total_elements: u64,
    /// Protocol rounds (sequential stages) — determines latency.
    pub rounds: u32,
}

impl RekeyCost {
    /// Analytic GDH.2 cost for a group of `n` members: upflow stage `i`
    /// (for `i = 1 … n−1`) carries `i` intermediate values plus one
    /// cardinal value (`i + 1` field elements), and the final broadcast
    /// carries `n − 1` elements.
    pub fn for_group_size(n: usize) -> Self {
        if n <= 1 {
            return Self {
                unicast_messages: 0,
                broadcast_messages: 0,
                total_elements: 0,
                rounds: 0,
            };
        }
        let n64 = n as u64;
        let upflow_elements: u64 = (1..n64).map(|i| i + 1).sum(); // Σ (i+1), i = 1..n-1
        Self {
            unicast_messages: (n - 1) as u32,
            broadcast_messages: 1,
            total_elements: upflow_elements + (n64 - 1),
            rounds: n as u32,
        }
    }

    /// Total bits on the wire with `element_bits`-bit field elements (e.g.
    /// 1024 for the deployment-grade group).
    pub fn total_bits(&self, element_bits: u64) -> u64 {
        self.total_elements * element_bits
    }

    /// Rekey completion time `Tcm` over a channel of `bandwidth_bps`,
    /// with unicasts crossing `hops` hops on average and the final
    /// broadcast flooded to `flood_transmissions` relays.
    ///
    /// # Panics
    /// Panics if `bandwidth_bps <= 0`.
    pub fn completion_time(
        &self,
        element_bits: u64,
        bandwidth_bps: f64,
        hops: f64,
        flood_transmissions: f64,
    ) -> f64 {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        let unicast_bits = (self.total_elements - self.broadcast_elements()) * element_bits;
        let bcast_bits = self.broadcast_elements() * element_bits;
        (unicast_bits as f64 * hops + bcast_bits as f64 * flood_transmissions) / bandwidth_bps
    }

    fn broadcast_elements(&self) -> u64 {
        if self.broadcast_messages == 0 {
            0
        } else {
            // final stage carries n−1 elements = unicast_messages
            self.unicast_messages as u64
        }
    }
}

/// One member's protocol state.
#[derive(Debug, Clone)]
struct Member {
    id: NodeId,
    secret: u64,
    key: Option<u64>,
}

/// An executable GDH.2 session over an ordered member list.
#[derive(Debug, Clone)]
pub struct GdhSession {
    members: Vec<Member>,
    /// Measured cost of the last `run` (messages/elements actually sent).
    cost: RekeyCost,
}

impl GdhSession {
    /// Create a session; each member draws a fresh secret exponent.
    ///
    /// # Panics
    /// Panics on an empty member list.
    pub fn new<R: Rng + ?Sized>(member_ids: &[NodeId], rng: &mut R) -> Self {
        assert!(!member_ids.is_empty(), "GDH needs at least one member");
        let members = member_ids
            .iter()
            .map(|&id| Member {
                id,
                secret: rng.gen_range(2..PRIME - 1),
                key: None,
            })
            .collect();
        Self {
            members,
            cost: RekeyCost {
                unicast_messages: 0,
                broadcast_messages: 0,
                total_elements: 0,
                rounds: 0,
            },
        }
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Execute the full protocol; every member ends up with the shared key.
    /// Returns the common key.
    pub fn run(&mut self) -> u64 {
        let n = self.members.len();
        let mut unicast = 0u32;
        let mut elements = 0u64;

        if n == 1 {
            // Degenerate group: key is g^{x₁}.
            let k = powmod(GENERATOR, self.members[0].secret, PRIME);
            self.members[0].key = Some(k);
            self.cost = RekeyCost {
                unicast_messages: 0,
                broadcast_messages: 0,
                total_elements: 0,
                rounds: 0,
            };
            return k;
        }

        // Upflow: message after member i's stage holds the intermediates
        // (one per previous member, value g^{∏x/xⱼ}) and the cardinal
        // g^{∏x}.
        let mut intermediates: Vec<u64> = Vec::with_capacity(n);
        let mut cardinal = GENERATOR; // g^{} before any exponent
        for i in 0..n - 1 {
            let xi = self.members[i].secret;
            // raise all existing intermediates by xi
            for v in intermediates.iter_mut() {
                *v = powmod(*v, xi, PRIME);
            }
            // previous cardinal (missing xi) becomes member i's intermediate
            intermediates.push(cardinal);
            cardinal = powmod(cardinal, xi, PRIME);
            // send to member i+1: intermediates + cardinal
            unicast += 1;
            elements += intermediates.len() as u64 + 1;
        }

        // Final member n−1 computes the key and broadcasts raised
        // intermediates.
        let xn = self.members[n - 1].secret;
        let key = powmod(cardinal, xn, PRIME);
        let broadcast: Vec<u64> = intermediates
            .iter()
            .map(|&v| powmod(v, xn, PRIME))
            .collect();
        elements += broadcast.len() as u64;
        self.members[n - 1].key = Some(key);
        for (j, member) in self.members[..n - 1].iter_mut().enumerate() {
            // Mⱼ raises its broadcast slot by its own secret.
            member.key = Some(powmod(broadcast[j], member.secret, PRIME));
        }

        self.cost = RekeyCost {
            unicast_messages: unicast,
            broadcast_messages: 1,
            total_elements: elements,
            rounds: n as u32,
        };
        key
    }

    /// The key member `id` derived, if the protocol ran.
    pub fn key_of(&self, id: NodeId) -> Option<u64> {
        self.members.iter().find(|m| m.id == id).and_then(|m| m.key)
    }

    /// Measured communication cost of the last run.
    pub fn measured_cost(&self) -> RekeyCost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn powmod_reference_values() {
        assert_eq!(powmod(2, 10, 1_000_000_007), 1024);
        assert_eq!(powmod(5, 0, 97), 1);
        assert_eq!(powmod(7, 96, 97), 1); // Fermat
        assert_eq!(powmod(GENERATOR, PRIME - 1, PRIME), 1); // Fermat on the field
    }

    #[test]
    fn mulmod_no_overflow_at_large_operands() {
        let a = PRIME - 2;
        let b = PRIME - 3;
        // (p-2)(p-3) mod p = 6 mod p
        assert_eq!(mulmod(a, b, PRIME), 6);
    }

    #[test]
    fn all_members_derive_same_key() {
        for n in 1..=12usize {
            let ids: Vec<NodeId> = (0..n as u32).collect();
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut s = GdhSession::new(&ids, &mut rng);
            let key = s.run();
            for &id in &ids {
                assert_eq!(s.key_of(id), Some(key), "member {id} of group size {n}");
            }
        }
    }

    #[test]
    fn keys_differ_across_sessions() {
        let ids: Vec<NodeId> = (0..5).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = GdhSession::new(&ids, &mut rng);
        let mut b = GdhSession::new(&ids, &mut rng);
        assert_ne!(a.run(), b.run());
    }

    #[test]
    fn eviction_rekey_changes_key_forward_secrecy() {
        let ids: Vec<NodeId> = (0..6).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let mut before = GdhSession::new(&ids, &mut rng);
        let old_key = before.run();
        // node 3 evicted → fresh session over the remaining 5
        let remaining: Vec<NodeId> = ids.iter().copied().filter(|&i| i != 3).collect();
        let mut after = GdhSession::new(&remaining, &mut rng);
        let new_key = after.run();
        assert_ne!(old_key, new_key);
        assert_eq!(after.key_of(3), None);
    }

    #[test]
    fn measured_cost_matches_analytic() {
        for n in 1..=15usize {
            let ids: Vec<NodeId> = (0..n as u32).collect();
            let mut rng = StdRng::seed_from_u64(n as u64 + 77);
            let mut s = GdhSession::new(&ids, &mut rng);
            s.run();
            assert_eq!(s.measured_cost(), RekeyCost::for_group_size(n), "n = {n}");
        }
    }

    #[test]
    fn analytic_cost_values() {
        let c = RekeyCost::for_group_size(4);
        // upflow: 2+3+4 = 9 elements over 3 unicasts; broadcast: 3 elements
        assert_eq!(c.unicast_messages, 3);
        assert_eq!(c.broadcast_messages, 1);
        assert_eq!(c.total_elements, 12);
        assert_eq!(c.rounds, 4);
        assert_eq!(c.total_bits(1024), 12 * 1024);

        let c1 = RekeyCost::for_group_size(1);
        assert_eq!(c1.total_elements, 0);
        assert_eq!(c1.rounds, 0);

        let c2 = RekeyCost::for_group_size(2);
        assert_eq!(c2.unicast_messages, 1);
        assert_eq!(c2.total_elements, 3); // upflow (1 intermediate + cardinal) + broadcast 1
    }

    #[test]
    fn completion_time_scales_with_bandwidth() {
        let c = RekeyCost::for_group_size(8);
        let t1 = c.completion_time(1024, 1e6, 3.0, 8.0);
        let t2 = c.completion_time(1024, 2e6, 3.0, 8.0);
        assert!((t1 / t2 - 2.0).abs() < 1e-12);
        assert!(t1 > 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_group_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        GdhSession::new(&[], &mut rng);
    }

    #[test]
    fn cost_grows_quadratically() {
        let c10 = RekeyCost::for_group_size(10).total_elements as f64;
        let c20 = RekeyCost::for_group_size(20).total_elements as f64;
        // Σ elements ≈ n²/2 → quadrupling expected when n doubles
        let ratio = c20 / c10;
        assert!(ratio > 3.4 && ratio < 4.4, "{ratio}");
    }
}
