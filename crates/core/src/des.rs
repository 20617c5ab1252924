//! Protocol-level discrete-event simulation, and the protocol layer it
//! shares with [`crate::des_mobility`].
//!
//! Where the SPN abstracts the voting IDS into the analytic `Pfn`/`Pfp`,
//! this simulator *executes the protocols*: host-IDS verdicts are sampled
//! per voter, vote participants are drawn without replacement from the
//! target's actual group, colluding voters follow the paper's strategy,
//! rekey traffic is charged from the exact GDH accounting, and groups
//! split/merge as a birth–death process with the mobility-calibrated
//! rates. Agreement between this simulator and the analytic model
//! (pinned in `tests/tests/cross_validation.rs`) validates the Equation-1
//! reconstruction and the SPN structure.
//!
//! Event classes (exponential race, rates refreshed after every event):
//! compromise (`A(mc)`), per-node IDS evaluation (`(T+U)·D(md)`), data
//! request by a compromised node (`λq·U`, leaks with probability `p1` —
//! condition C1), group partition/merge, and join/leave rekey events
//! (population-neutral, matching the SPN). Failure is
//! declared on C1 or when any single group crosses the C2 Byzantine ratio.
//!
//! The scenario axes of the [`scenario`] crate are mirrored as additional
//! race entries using the same closed-form modulations as the SPN
//! (`crate::scenario_model`): burst phase switching, quarantine
//! release/confirmation, throttled rekey service and the stale-key leak.
//! With the baseline scenario every added rate is zero and the event
//! stream is bit-identical to the pre-scenario simulator.
//!
//! # The shared protocol layer
//!
//! Both simulators play one protocol over different group memberships:
//! calibrated birth–death groups here, live radio components in
//! [`crate::des_mobility`]. Everything above the group layout is defined
//! once, in this module: the outcome ([`DesOutcome`]) and its counters,
//! the node statuses, the attacker's scenario-modulated capture rate, the
//! voting round with its collusion choice and conviction accounting, and
//! the uniform pick of a node by status. The two time-advance loops stay
//! separate — an exact exponential race here, a race thinned within fixed
//! mobility steps there — because merging them would change every random
//! draw, and with it every reference number.

use crate::config::SystemConfig;
use crate::cost::gdh_rekey_hop_bits;
use crate::model::c2_holds;
use crate::scenario_model::scenario_system;
use ids::host::HostIds;
use ids::voting::{run_vote_with_collusion, CollusionModel, VotingConfig};
use numerics::dist::sample_exponential;
use numerics::replicate::Replicate;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scenario::{
    burst_capture_multiplier, targeted_capture_multiplier, targeted_effective_collusion,
    AttackerStrategy, ResponsePolicy, ScenarioConfig,
};

/// How a replication ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// C1: data leaked to a compromised, undetected member.
    DataLeak,
    /// C2: some group exceeded the 1/3 Byzantine ratio undetected.
    ByzantineCapture,
    /// Everyone was evicted (attrition) — not a paper failure mode, tracked
    /// separately.
    Attrition,
    /// The time horizon expired first.
    Censored,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// The system under test.
    pub system: SystemConfig,
    /// Censoring horizon (s).
    pub max_time: f64,
    /// Adversary strategy and response policy (baseline reproduces the
    /// paper's behavior exactly).
    pub scenario: ScenarioConfig,
}

impl DesConfig {
    /// Defaults: paper system, one-year horizon, baseline scenario.
    pub fn new(system: SystemConfig) -> Self {
        Self {
            system,
            max_time: 3.15e7,
            scenario: ScenarioConfig::baseline(),
        }
    }
}

/// Outcome of one replication of either protocol simulator.
#[derive(Debug, Clone)]
pub struct DesOutcome {
    /// Time of failure (or censoring).
    pub time: f64,
    /// Why the run ended.
    pub cause: FailureCause,
    /// Accumulated traffic (hop·bits).
    pub hop_bits: f64,
    /// Nodes compromised by the attacker.
    pub compromises: u64,
    /// Compromised nodes caught by the voting IDS.
    pub true_evictions: u64,
    /// Healthy nodes falsely evicted.
    pub false_evictions: u64,
    /// Voting rounds executed.
    pub votes: u64,
    /// Group partition events (components gained, under mobility).
    pub partitions: u64,
    /// Group merge events (components lost, under mobility).
    pub merges: u64,
    /// Time of the first compromise (`None` if none happened).
    pub first_compromise: Option<f64>,
    /// Time of the first true detection — the first conviction of a
    /// compromised node (`None` if none happened).
    pub first_true_detection: Option<f64>,
}

/// A node's protocol status (the mobility simulator never quarantines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeStatus {
    Trusted,
    Compromised,
    Evicted,
    /// Convicted good node held in quarantine (quarantine-rejoin policy).
    QuarantinedGood,
    /// Convicted compromised node held in quarantine.
    QuarantinedBad,
}

impl NodeStatus {
    /// A group member: trusted, or compromised and undetected.
    pub(crate) fn is_live(self) -> bool {
        matches!(self, Self::Trusted | Self::Compromised)
    }
}

/// Nodes with status `s`.
pub(crate) fn count(status: &[NodeStatus], s: NodeStatus) -> u32 {
    status.iter().filter(|&&x| x == s).count() as u32
}

/// A uniformly random node whose status satisfies `want`: one `choose`
/// draw over the matching node indices, in index order.
///
/// # Panics
/// If no node matches (the caller's event rate is zero then).
pub(crate) fn pick_node<R: Rng + ?Sized>(
    status: &[NodeStatus],
    want: impl Fn(NodeStatus) -> bool,
    rng: &mut R,
) -> usize {
    let nodes: Vec<usize> = (0..status.len()).filter(|&n| want(status[n])).collect();
    *nodes
        .choose(rng)
        .expect("a node with the wanted status exists")
}

/// The attacker captures a uniformly random trusted node at `t`.
pub(crate) fn compromise<R: Rng + ?Sized>(
    status: &mut [NodeStatus],
    t: f64,
    k: &mut Counters,
    rng: &mut R,
) {
    let victim = pick_node(status, |s| s == NodeStatus::Trusted, rng);
    status[victim] = NodeStatus::Compromised;
    k.compromises += 1;
    k.first_compromise.get_or_insert(t);
}

/// Per-replication counters threaded to every [`DesOutcome`] return site.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    compromises: u64,
    true_evictions: u64,
    false_evictions: u64,
    votes: u64,
    pub(crate) partitions: u64,
    pub(crate) merges: u64,
    first_compromise: Option<f64>,
    first_true_detection: Option<f64>,
}

impl Counters {
    /// The outcome of a replication that ended at `t`.
    pub(crate) fn finish(&self, t: f64, cause: FailureCause, hop_bits: f64) -> DesOutcome {
        DesOutcome {
            time: t,
            cause,
            hop_bits,
            compromises: self.compromises,
            true_evictions: self.true_evictions,
            false_evictions: self.false_evictions,
            votes: self.votes,
            partitions: self.partitions,
            merges: self.merges,
            first_compromise: self.first_compromise,
            first_true_detection: self.first_true_detection,
        }
    }
}

/// The scenario-resolved protocol both simulators play: the system after
/// the stealth transform, the voting configuration, and the attacker's
/// targeted focus and burst phase parameters.
pub(crate) struct Protocol {
    pub(crate) sys: SystemConfig,
    vote: VotingConfig,
    focus: f64,
    /// `(on_rate, off_rate, multiplier)` of a burst attacker.
    burst: Option<(f64, f64, f64)>,
}

impl Protocol {
    pub(crate) fn new(system: &SystemConfig, scenario: &ScenarioConfig) -> Self {
        // Stealth is a pure parameter transform, applied up front exactly as
        // in the SPN backend; burst/targeted modulate rates in the loops.
        let sys = scenario_system(system, scenario);
        let burst = match scenario.attacker {
            AttackerStrategy::Burst {
                on_rate,
                off_rate,
                multiplier,
            } => Some((on_rate, off_rate, multiplier)),
            _ => None,
        };
        Self {
            vote: VotingConfig {
                participants: sys.vote_participants,
                host: HostIds::new(sys.p1_host_false_negative, sys.p2_host_false_positive),
            },
            focus: scenario.attacker.focus(),
            burst,
            sys,
        }
    }

    /// Rate at which a burst attacker leaves its current phase (`None` for
    /// every other attacker).
    pub(crate) fn burst_toggle_rate(&self, active: bool) -> Option<f64> {
        self.burst.map(|(on, off, _)| if active { off } else { on })
    }

    /// Capture rate with `trusted`/`undetected` nodes: the attacker's rate,
    /// concentrated by a targeted focus and multiplied in a burst's hot
    /// phase. Zero once no trusted node is left.
    pub(crate) fn compromise_rate(&self, trusted: u32, undetected: u32, burst_active: bool) -> f64 {
        if trusted == 0 {
            return 0.0;
        }
        let mut r = self.sys.attacker.rate(trusted, undetected);
        if self.focus > 0.0 {
            r *= targeted_capture_multiplier(self.focus, trusted, undetected);
        }
        if let Some((_, _, mult)) = self.burst {
            r *= burst_capture_multiplier(mult, burst_active);
        }
        r
    }

    /// One voting round at `t` on a target (compromised iff `target_bad`)
    /// by its group `peers` (`true` = compromised), with
    /// `(trusted, undetected)` live nodes. Counts the round and its
    /// conviction, and returns whether the target was convicted plus the
    /// round's traffic: every vote floods the target's group (Byzantine
    /// accountability).
    pub(crate) fn vote<R: Rng + ?Sized>(
        &self,
        target_bad: bool,
        peers: &[bool],
        (trusted, undetected): (u32, u32),
        t: f64,
        k: &mut Counters,
        rng: &mut R,
    ) -> (bool, f64) {
        // Targeted attackers press their numeric advantage inside the vote
        // too — same effective collusion as the SPN's Pfn/Pfp.
        let collusion = if self.focus > 0.0 {
            CollusionModel::Probabilistic(targeted_effective_collusion(
                self.sys.collusion.malice_probability(),
                self.focus,
                trusted,
                undetected,
            ))
        } else {
            self.sys.collusion
        };
        let o = run_vote_with_collusion(&self.vote, target_bad, peers, collusion, rng);
        k.votes += 1;
        if o.evicted {
            if target_bad {
                k.true_evictions += 1;
                k.first_true_detection.get_or_insert(t);
            } else {
                k.false_evictions += 1;
            }
        }
        let group_size = (peers.len() + 1) as f64;
        (
            o.evicted,
            o.votes as f64 * self.sys.vote_packet_bits as f64 * group_size,
        )
    }
}

struct World<'a> {
    sys: &'a SystemConfig,
    status: Vec<NodeStatus>,
    groups: Vec<Vec<usize>>,
}

impl<'a> World<'a> {
    fn new(sys: &'a SystemConfig) -> Self {
        let n = sys.node_count as usize;
        Self {
            sys,
            status: vec![NodeStatus::Trusted; n],
            groups: vec![(0..n).collect()],
        }
    }

    fn group_of(&self, node: usize) -> usize {
        self.groups
            .iter()
            .position(|g| g.contains(&node))
            .expect("every live node belongs to a group")
    }

    /// C2 check on actual per-group composition (convicted nodes have
    /// left their group).
    fn any_group_byzantine(&self) -> bool {
        self.groups.iter().any(|g| {
            let count = |s| g.iter().filter(|&&n| self.status[n] == s).count() as u32;
            c2_holds(count(NodeStatus::Trusted), count(NodeStatus::Compromised))
        })
    }

    /// Background traffic rate over the actual group layout (hop·bits/s):
    /// data dissemination + status + beacons. Vote and rekey traffic is
    /// charged per event.
    fn background_rate(&self) -> f64 {
        let cfg = self.sys;
        let mut rate = 0.0;
        for g in &self.groups {
            let live: u32 = g
                .iter()
                .filter(|&&n| self.status[n] != NodeStatus::Evicted)
                .count() as u32;
            let nf = live as f64;
            rate += cfg.group_comm_rate * nf * cfg.data_packet_bits as f64 * nf;
            rate += nf * cfg.status_packet_bits as f64 * nf / cfg.status_period;
            rate += nf * cfg.beacon_bits as f64 / cfg.beacon_period;
        }
        rate
    }

    /// Remove a node from its group (no status change); returns the
    /// remaining group size.
    fn remove_from_group(&mut self, node: usize) -> u32 {
        let gi = self.group_of(node);
        self.groups[gi].retain(|&n| n != node);
        let size = self.groups[gi].len() as u32;
        if self.groups[gi].is_empty() {
            self.groups.remove(gi);
        }
        size
    }

    /// Remove an evicted node from its group.
    fn evict(&mut self, node: usize) -> f64 {
        let size = self.remove_from_group(node);
        self.status[node] = NodeStatus::Evicted;
        gdh_rekey_hop_bits(self.sys, size.max(1))
    }

    /// Re-admit a released node into a random group (quarantine-rejoin),
    /// charging the rejoin rekey of the receiving group.
    fn rejoin<R: Rng + ?Sized>(&mut self, node: usize, rng: &mut R) -> f64 {
        if self.groups.is_empty() {
            self.groups.push(vec![node]);
            return 0.0; // a singleton group needs no rekey
        }
        let gi = rng.gen_range(0..self.groups.len());
        self.groups[gi].push(node);
        gdh_rekey_hop_bits(self.sys, self.groups[gi].len() as u32)
    }

    /// Rekey a random group (join/leave and served throttled rekeys);
    /// nothing to rekey once every member is held in quarantine.
    fn rekey_random_group<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        let gi = rng.gen_range(0..self.groups.len());
        gdh_rekey_hop_bits(self.sys, self.groups[gi].len() as u32)
    }
}

/// Event indices of the exponential race in [`run_des`], in rate order.
/// The join/leave rekey event is the (unlisted) final slot, so it also
/// absorbs floating-point residue in [`sample_event_index`]; every
/// scenario-specific rate is zero under the baseline scenario, keeping the
/// baseline event stream bit-identical to the pre-scenario simulator.
const EVENT_COMPROMISE: usize = 0;
const EVENT_EVALUATE: usize = 1;
const EVENT_LEAK: usize = 2;
const EVENT_PARTITION: usize = 3;
const EVENT_MERGE: usize = 4;
const EVENT_BURST_TOGGLE: usize = 5;
const EVENT_RELEASE_GOOD: usize = 6;
const EVENT_RELEASE_BAD: usize = 7;
const EVENT_CONFIRM_BAD: usize = 8;
const EVENT_REKEY_SERVE: usize = 9;
const EVENT_STALE_LEAK: usize = 10;

/// Winner of an exponential race: the first slot whose cumulative rate mass
/// exceeds `pick` (the final slot absorbs floating-point residue).
fn sample_event_index(mut pick: f64, rates: &[f64]) -> usize {
    for (i, &r) in rates.iter().enumerate() {
        if pick < r {
            return i;
        }
        pick -= r;
    }
    rates.len() - 1
}

/// Run one replication.
pub fn run_des(cfg: &DesConfig, seed: u64) -> DesOutcome {
    let p = Protocol::new(&cfg.system, &cfg.scenario);
    let sys = &p.sys;
    let quarantine = match cfg.scenario.response {
        ResponsePolicy::QuarantineRejoin {
            release_rate,
            false_release_prob,
        } => Some((release_rate, false_release_prob)),
        _ => None,
    };
    let throttle = match cfg.scenario.response {
        ResponsePolicy::RekeyThrottle { max_rate } => Some(max_rate),
        _ => None,
    };

    // detlint::allow(D003): leaf constructor — `seed` is a child_seed from the replicate grid, passed down by the executor
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::new(sys);

    let mut t = 0.0f64;
    let mut hop_bits = 0.0f64;
    let mut k = Counters::default();
    let mut burst_active = false;
    let mut pending_rekeys = 0u32;

    loop {
        let trusted = count(&world.status, NodeStatus::Trusted);
        let undetected = count(&world.status, NodeStatus::Compromised);
        let live = trusted + undetected;
        let qg = count(&world.status, NodeStatus::QuarantinedGood) as f64;
        let qb = count(&world.status, NodeStatus::QuarantinedBad) as f64;
        // Attrition requires the quarantine to be empty too: a held node may
        // still be released back into the system (matches `scenario_failed`).
        if live == 0 && qg + qb == 0.0 {
            return k.finish(t, FailureCause::Attrition, hop_bits);
        }
        let g = world.groups.len() as f64;

        // --- event rates ---------------------------------------------------
        let r_compromise = p.compromise_rate(trusted, undetected, burst_active);
        let r_evaluate = live as f64 * sys.detection.rate(sys.node_count, trusted, undetected);
        let r_leak = sys.group_comm_rate * undetected as f64;
        let can_partition = world.groups.iter().any(|grp| grp.len() >= 2)
            && (world.groups.len() as u32) < sys.max_groups;
        let r_partition = if can_partition {
            sys.partition_rate_per_group * g
        } else {
            0.0
        };
        let r_merge = if world.groups.len() >= 2 {
            sys.merge_rate_per_group * (g - 1.0)
        } else {
            0.0
        };
        let r_burst_toggle = p.burst_toggle_rate(burst_active).unwrap_or(0.0);
        let (r_rel_good, r_rel_bad, r_conf_bad) = match quarantine {
            Some((rel, fr)) => (rel * qg, rel * fr * qb, rel * (1.0 - fr) * qb),
            None => (0.0, 0.0, 0.0),
        };
        let (r_serve, r_stale) = match throttle {
            Some(max_rate) if pending_rekeys > 0 => (
                max_rate,
                sys.p1_host_false_negative * sys.group_comm_rate * pending_rekeys as f64,
            ),
            _ => (0.0, 0.0),
        };
        // join/leave stays the last entry: it absorbs fp residue in
        // `sample_event_index` (and needs a non-empty group to charge).
        let r_joinleave = if world.groups.is_empty() {
            0.0
        } else {
            sys.join_rate * (sys.node_count - live) as f64 + sys.leave_rate * live as f64
        };
        let rates = [
            r_compromise,
            r_evaluate,
            r_leak,
            r_partition,
            r_merge,
            r_burst_toggle,
            r_rel_good,
            r_rel_bad,
            r_conf_bad,
            r_serve,
            r_stale,
            r_joinleave,
        ];
        let total: f64 = rates.iter().sum();
        if total <= 0.0 {
            return k.finish(
                cfg.max_time,
                FailureCause::Censored,
                hop_bits + world.background_rate() * (cfg.max_time - t),
            );
        }

        let dt = sample_exponential(&mut rng, total);
        let step = dt.min(cfg.max_time - t);
        hop_bits += world.background_rate() * step;
        if t + dt >= cfg.max_time {
            return k.finish(cfg.max_time, FailureCause::Censored, hop_bits);
        }
        t += dt;

        // --- pick the event (winner of the exponential race) -----------------
        match sample_event_index(rng.gen::<f64>() * total, &rates) {
            EVENT_COMPROMISE => compromise(&mut world.status, t, &mut k, &mut rng),
            EVENT_EVALUATE => {
                // evaluate a random live node with an actual voting round
                let target = pick_node(&world.status, NodeStatus::is_live, &mut rng);
                let gi = world.group_of(target);
                let peers: Vec<bool> = world.groups[gi]
                    .iter()
                    .filter(|&&n| n != target)
                    .map(|&n| world.status[n] == NodeStatus::Compromised)
                    .collect();
                let target_bad = world.status[target] == NodeStatus::Compromised;
                let (convicted, traffic) = p.vote(
                    target_bad,
                    &peers,
                    (trusted, undetected),
                    t,
                    &mut k,
                    &mut rng,
                );
                hop_bits += traffic;
                if convicted {
                    if quarantine.is_some() {
                        // conviction quarantines instead of evicting; the
                        // shrunken group still rekeys
                        let size = world.remove_from_group(target);
                        world.status[target] = if target_bad {
                            NodeStatus::QuarantinedBad
                        } else {
                            NodeStatus::QuarantinedGood
                        };
                        hop_bits += gdh_rekey_hop_bits(sys, size.max(1));
                    } else if throttle.is_some() {
                        // conviction evicts but the rekey is queued, not
                        // charged — the old key stays live until served
                        world.remove_from_group(target);
                        world.status[target] = NodeStatus::Evicted;
                        pending_rekeys += 1;
                    } else {
                        hop_bits += world.evict(target);
                    }
                }
            }
            EVENT_LEAK => {
                // a compromised node requests data; the responder leaks iff its
                // host IDS misses the requester
                hop_bits += sys.data_packet_bits as f64 * sys.mean_hops;
                if rng.gen::<f64>() < sys.p1_host_false_negative {
                    return k.finish(t, FailureCause::DataLeak, hop_bits);
                }
            }
            EVENT_PARTITION => {
                // split a random group (≥ 2 members) in half
                let candidates: Vec<usize> = (0..world.groups.len())
                    .filter(|&i| world.groups[i].len() >= 2)
                    .collect();
                let &gi = candidates
                    .choose(&mut rng)
                    .expect("partitionable group exists");
                let mut members = std::mem::take(&mut world.groups[gi]);
                members.shuffle(&mut rng);
                let half = members.len() / 2;
                let other = members.split_off(half);
                hop_bits += gdh_rekey_hop_bits(sys, members.len() as u32)
                    + gdh_rekey_hop_bits(sys, other.len() as u32);
                world.groups[gi] = members;
                world.groups.push(other);
                k.partitions += 1;
            }
            EVENT_MERGE => {
                // merge two random groups
                let a = rng.gen_range(0..world.groups.len());
                let mut b = rng.gen_range(0..world.groups.len() - 1);
                if b >= a {
                    b += 1;
                }
                let moved = std::mem::take(&mut world.groups[b]);
                world.groups[a].extend(moved);
                hop_bits += gdh_rekey_hop_bits(sys, world.groups[a].len() as u32);
                world.groups.remove(b);
                k.merges += 1;
            }
            EVENT_BURST_TOGGLE => burst_active = !burst_active,
            EVENT_RELEASE_GOOD => {
                // quarantine review clears a good node; it rejoins a group
                let node = pick_node(
                    &world.status,
                    |s| s == NodeStatus::QuarantinedGood,
                    &mut rng,
                );
                world.status[node] = NodeStatus::Trusted;
                hop_bits += world.rejoin(node, &mut rng);
            }
            EVENT_RELEASE_BAD => {
                // quarantine review wrongly clears a compromised node
                let node = pick_node(&world.status, |s| s == NodeStatus::QuarantinedBad, &mut rng);
                world.status[node] = NodeStatus::Compromised;
                hop_bits += world.rejoin(node, &mut rng);
            }
            EVENT_CONFIRM_BAD => {
                // quarantine review confirms the conviction: permanent
                // eviction, no further rekey (the group already rekeyed)
                let node = pick_node(&world.status, |s| s == NodeStatus::QuarantinedBad, &mut rng);
                world.status[node] = NodeStatus::Evicted;
            }
            EVENT_REKEY_SERVE => {
                // the throttled rekey service completes one pending rekey
                pending_rekeys -= 1;
                hop_bits += world.rekey_random_group(&mut rng);
            }
            EVENT_STALE_LEAK => {
                // a stale group key (rekey still pending) lets an evicted
                // compromised node read traffic — condition C1
                hop_bits += sys.data_packet_bits as f64 * sys.mean_hops;
                return k.finish(t, FailureCause::DataLeak, hop_bits);
            }
            // join/leave rekey event (population-neutral; SPN-equivalent).
            // The last slot also absorbs fp residue, which can land here
            // with every member quarantined — then there is nothing to rekey.
            _ => hop_bits += world.rekey_random_group(&mut rng),
        }

        // --- failure check ---------------------------------------------------
        if world.any_group_byzantine() {
            return k.finish(t, FailureCause::ByzantineCapture, hop_bits);
        }
    }
}

impl Replicate for DesConfig {
    type Outcome = DesOutcome;

    fn run_one(&self, seed: u64) -> DesOutcome {
        run_des(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accelerated system so replications end quickly.
    fn hot_system(n: u32) -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = n;
        c.vote_participants = 3;
        c.attacker.base_rate = 1.0 / 600.0; // one compromise per 10 min
        c.detection = c.detection.with_interval(120.0);
        c
    }

    #[test]
    fn replication_terminates_with_failure() {
        let cfg = DesConfig::new(hot_system(16));
        let o = run_des(&cfg, 42);
        assert!(matches!(
            o.cause,
            FailureCause::DataLeak | FailureCause::ByzantineCapture | FailureCause::Attrition
        ));
        assert!(o.time > 0.0);
        assert!(o.hop_bits > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DesConfig::new(hot_system(12));
        let a = run_des(&cfg, 7);
        let b = run_des(&cfg, 7);
        assert_eq!(a.time, b.time);
        assert_eq!(a.compromises, b.compromises);
        assert_eq!(a.hop_bits, b.hop_bits);
    }

    #[test]
    fn censoring_respected() {
        let mut cfg = DesConfig::new(hot_system(12));
        cfg.max_time = 1.0; // far below any failure time
        let o = run_des(&cfg, 3);
        assert_eq!(o.cause, FailureCause::Censored);
        assert_eq!(o.time, 1.0);
    }

    #[test]
    fn votes_and_evictions_happen() {
        let cfg = DesConfig::new(hot_system(20));
        let stats: Vec<DesOutcome> = (0..10).map(|s| run_des(&cfg, s)).collect();
        let votes: u64 = stats.iter().map(|o| o.votes).sum();
        let evictions: u64 = stats
            .iter()
            .map(|o| o.true_evictions + o.false_evictions)
            .sum();
        assert!(votes > 0);
        assert!(evictions > 0);
    }

    #[test]
    fn scenario_deterministic_per_seed() {
        let mut cfg = DesConfig::new(hot_system(12));
        cfg.scenario.attacker = AttackerStrategy::Burst {
            on_rate: 1.0 / 2_000.0,
            off_rate: 1.0 / 1_000.0,
            multiplier: 4.0,
        };
        cfg.scenario.response = ResponsePolicy::QuarantineRejoin {
            release_rate: 1.0 / 500.0,
            false_release_prob: 0.2,
        };
        let a = run_des(&cfg, 13);
        let b = run_des(&cfg, 13);
        assert_eq!(a.time, b.time);
        assert_eq!(a.hop_bits, b.hop_bits);
        assert_eq!(a.first_compromise, b.first_compromise);
    }

    #[test]
    fn first_event_times_ordered_and_recorded() {
        let cfg = DesConfig::new(hot_system(16));
        let mut saw_both = false;
        for seed in 0..20 {
            let o = run_des(&cfg, seed);
            if let Some(fc) = o.first_compromise {
                assert!(fc > 0.0 && fc <= o.time);
                if let Some(fd) = o.first_true_detection {
                    assert!(fd >= fc, "cannot detect a compromise before it happens");
                    saw_both = true;
                }
            } else {
                assert_eq!(o.first_true_detection, None);
            }
        }
        assert!(saw_both, "expected at least one detected compromise");
    }

    #[test]
    fn quarantine_runs_terminate_and_conserve_nodes() {
        let mut cfg = DesConfig::new(hot_system(14));
        cfg.scenario.response = ResponsePolicy::QuarantineRejoin {
            release_rate: 1.0 / 400.0,
            false_release_prob: 0.3,
        };
        for seed in 0..10 {
            let o = run_des(&cfg, seed);
            assert!(o.time > 0.0);
            assert!(matches!(
                o.cause,
                FailureCause::DataLeak
                    | FailureCause::ByzantineCapture
                    | FailureCause::Attrition
                    | FailureCause::Censored
            ));
        }
    }

    #[test]
    fn baseline_scenario_is_bit_identical_to_default_config() {
        // The scenario race entries are all zero-rate under the baseline
        // scenario, so the event stream (and every outcome field) must be
        // unchanged from a config that never mentions scenarios.
        let plain = DesConfig::new(hot_system(12));
        let mut explicit = DesConfig::new(hot_system(12));
        explicit.scenario = ScenarioConfig::baseline();
        for seed in 0..8 {
            let a = run_des(&plain, seed);
            let b = run_des(&explicit, seed);
            assert_eq!(a.time, b.time);
            assert_eq!(a.hop_bits, b.hop_bits);
            assert_eq!(a.votes, b.votes);
        }
    }
}
