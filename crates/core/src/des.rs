//! Protocol-level discrete-event simulation.
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

use crate::config::SystemConfig;
use crate::cost::gdh_rekey_hop_bits;
use crate::scenario_model::scenario_system;
use ids::adaptive::AdaptiveController;
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
    /// Enable the adaptive controller (re-selects the detection shape from
    /// observed compromise pacing; oracle observations — see module docs).
    pub adaptive: bool,
    /// Adversary strategy and response policy (baseline reproduces the
    /// paper's behavior exactly).
    pub scenario: ScenarioConfig,
}

impl DesConfig {
    /// Defaults: paper system, one-year horizon, no adaptation, baseline
    /// scenario.
    pub fn new(system: SystemConfig) -> Self {
        Self {
            system,
            max_time: 3.15e7,
            adaptive: false,
            scenario: ScenarioConfig::baseline(),
        }
    }
}

/// Outcome of one replication.
#[derive(Debug, Clone)]
pub struct DesOutcome {
    /// Time of failure (or censoring).
    pub time: f64,
    /// Why the run ended.
    pub cause: FailureCause,
    /// Accumulated traffic (hop·bits).
    pub hop_bits: f64,
    /// Time-averaged cost rate (hop·bits/s).
    pub mean_cost_rate: f64,
    /// Nodes compromised by the attacker.
    pub compromises: u64,
    /// Compromised nodes caught by the voting IDS.
    pub true_evictions: u64,
    /// Healthy nodes falsely evicted.
    pub false_evictions: u64,
    /// Voting rounds executed.
    pub votes: u64,
    /// Time of the first compromise (`None` if none happened).
    pub first_compromise: Option<f64>,
    /// Time of the first true detection — the first conviction of a
    /// compromised node (`None` if none happened).
    pub first_true_detection: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeStatus {
    Trusted,
    Compromised,
    Evicted,
    /// Convicted good node held in quarantine (quarantine-rejoin policy).
    QuarantinedGood,
    /// Convicted compromised node held in quarantine.
    QuarantinedBad,
}

struct World {
    cfg: SystemConfig,
    status: Vec<NodeStatus>,
    groups: Vec<Vec<u32>>,
    host: HostIds,
}

impl World {
    fn new(cfg: &SystemConfig) -> Self {
        let n = cfg.node_count as usize;
        Self {
            cfg: cfg.clone(),
            status: vec![NodeStatus::Trusted; n],
            groups: vec![(0..n as u32).collect()],
            host: HostIds::new(cfg.p1_host_false_negative, cfg.p2_host_false_positive),
        }
    }

    fn count(&self, s: NodeStatus) -> u32 {
        self.status.iter().filter(|&&x| x == s).count() as u32
    }

    fn trusted(&self) -> u32 {
        self.count(NodeStatus::Trusted)
    }

    fn undetected(&self) -> u32 {
        self.count(NodeStatus::Compromised)
    }

    fn group_of(&self, node: u32) -> usize {
        self.groups
            .iter()
            .position(|g| g.contains(&node))
            .expect("every live node belongs to a group")
    }

    /// C2 check on actual per-group composition.
    fn any_group_byzantine(&self) -> bool {
        self.groups.iter().any(|g| {
            let (mut t, mut u) = (0u32, 0u32);
            for &n in g {
                match self.status[n as usize] {
                    NodeStatus::Trusted => t += 1,
                    NodeStatus::Compromised => u += 1,
                    // evicted/quarantined nodes have left their group
                    _ => {}
                }
            }
            2 * u > t && (t + u) > 0
        })
    }

    /// Background traffic rate over the actual group layout (hop·bits/s):
    /// data dissemination + status + beacons. Vote and rekey traffic is
    /// charged per event.
    fn background_rate(&self) -> f64 {
        let cfg = &self.cfg;
        let mut rate = 0.0;
        for g in &self.groups {
            let live: u32 = g
                .iter()
                .filter(|&&n| self.status[n as usize] != NodeStatus::Evicted)
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
    fn remove_from_group(&mut self, node: u32) -> u32 {
        let gi = self.group_of(node);
        self.groups[gi].retain(|&n| n != node);
        let size = self.groups[gi].len() as u32;
        if self.groups[gi].is_empty() {
            self.groups.remove(gi);
        }
        size
    }

    /// Remove an evicted node from its group.
    fn evict(&mut self, node: u32) -> f64 {
        let size = self.remove_from_group(node);
        self.status[node as usize] = NodeStatus::Evicted;
        gdh_rekey_hop_bits(&self.cfg, size.max(1))
    }

    /// Re-admit a released node into a random group (quarantine-rejoin),
    /// charging the rejoin rekey of the receiving group.
    fn rejoin<R: Rng + ?Sized>(&mut self, node: u32, rng: &mut R) -> f64 {
        if self.groups.is_empty() {
            self.groups.push(vec![node]);
            return 0.0; // a singleton group needs no rekey
        }
        let gi = rng.gen_range(0..self.groups.len());
        self.groups[gi].push(node);
        gdh_rekey_hop_bits(&self.cfg, self.groups[gi].len() as u32)
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
const EVENT_BURST_ON: usize = 5;
const EVENT_BURST_OFF: usize = 6;
const EVENT_RELEASE_GOOD: usize = 7;
const EVENT_RELEASE_BAD: usize = 8;
const EVENT_CONFIRM_BAD: usize = 9;
const EVENT_REKEY_SERVE: usize = 10;
const EVENT_STALE_LEAK: usize = 11;

/// Per-replication counters threaded to every [`DesOutcome`] return site.
#[derive(Debug, Clone, Copy, Default)]
struct DesCounters {
    compromises: u64,
    true_evictions: u64,
    false_evictions: u64,
    votes: u64,
    first_compromise: Option<f64>,
    first_true_detection: Option<f64>,
}

fn finish(t: f64, cause: FailureCause, hop_bits: f64, k: &DesCounters) -> DesOutcome {
    DesOutcome {
        time: t,
        cause,
        hop_bits,
        mean_cost_rate: if t > 0.0 { hop_bits / t } else { 0.0 },
        compromises: k.compromises,
        true_evictions: k.true_evictions,
        false_evictions: k.false_evictions,
        votes: k.votes,
        first_compromise: k.first_compromise,
        first_true_detection: k.first_true_detection,
    }
}

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
    // Stealth is a pure parameter transform, applied up front exactly as in
    // the SPN backend.
    let sys_owned = scenario_system(&cfg.system, &cfg.scenario);
    let sys = &sys_owned;
    let focus = cfg.scenario.attacker.focus();
    let burst = match cfg.scenario.attacker {
        AttackerStrategy::Burst {
            on_rate,
            off_rate,
            multiplier,
        } => Some((on_rate, off_rate, multiplier)),
        _ => None,
    };
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
    let mut detection = sys.detection;
    let mut controller = AdaptiveController::new(sys.attacker.exponent, detection.base_interval);
    let mut last_compromise_at = 0.0f64;

    let mut t = 0.0f64;
    let mut hop_bits = 0.0f64;
    let mut k = DesCounters::default();
    let mut burst_active = false;
    let mut pending_rekeys = 0u32;

    loop {
        let trusted = world.trusted();
        let undetected = world.undetected();
        let live = trusted + undetected;
        let qg = world.count(NodeStatus::QuarantinedGood) as f64;
        let qb = world.count(NodeStatus::QuarantinedBad) as f64;
        // Attrition requires the quarantine to be empty too: a held node may
        // still be released back into the system (matches `scenario_failed`).
        if live == 0 && qg + qb == 0.0 {
            return finish(t, FailureCause::Attrition, hop_bits, &k);
        }
        let g = world.groups.len() as f64;

        // --- event rates ---------------------------------------------------
        let r_compromise = if trusted > 0 {
            let mut r = sys.attacker.rate(trusted, undetected);
            if focus > 0.0 {
                r *= targeted_capture_multiplier(focus, trusted, undetected);
            }
            if let Some((_, _, mult)) = burst {
                r *= burst_capture_multiplier(mult, burst_active);
            }
            r
        } else {
            0.0
        };
        let r_evaluate = live as f64 * detection.rate(sys.node_count, trusted, undetected);
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
        let (r_burst_on, r_burst_off) = match burst {
            Some((on, off, _)) => {
                if burst_active {
                    (0.0, off)
                } else {
                    (on, 0.0)
                }
            }
            None => (0.0, 0.0),
        };
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
        let total = r_compromise
            + r_evaluate
            + r_leak
            + r_partition
            + r_merge
            + r_burst_on
            + r_burst_off
            + r_rel_good
            + r_rel_bad
            + r_conf_bad
            + r_serve
            + r_stale
            + r_joinleave;
        if total <= 0.0 {
            return finish(
                cfg.max_time,
                FailureCause::Censored,
                hop_bits + world.background_rate() * (cfg.max_time - t),
                &k,
            );
        }

        let dt = sample_exponential(&mut rng, total);
        let step = dt.min(cfg.max_time - t);
        hop_bits += world.background_rate() * step;
        if t + dt >= cfg.max_time {
            return finish(cfg.max_time, FailureCause::Censored, hop_bits, &k);
        }
        t += dt;

        // --- pick the event (winner of the exponential race) -----------------
        let rates = [
            r_compromise,
            r_evaluate,
            r_leak,
            r_partition,
            r_merge,
            r_burst_on,
            r_burst_off,
            r_rel_good,
            r_rel_bad,
            r_conf_bad,
            r_serve,
            r_stale,
            r_joinleave,
        ];
        match sample_event_index(rng.gen::<f64>() * total, &rates) {
            EVENT_COMPROMISE => {
                // attacker compromises a random trusted node
                let victims: Vec<u32> = (0..world.status.len() as u32)
                    .filter(|&n| world.status[n as usize] == NodeStatus::Trusted)
                    .collect();
                let &victim = victims.choose(&mut rng).expect("trusted node exists");
                world.status[victim as usize] = NodeStatus::Compromised;
                k.compromises += 1;
                if k.first_compromise.is_none() {
                    k.first_compromise = Some(t);
                }
                if cfg.adaptive {
                    let dt_c = (t - last_compromise_at).max(1e-9);
                    last_compromise_at = t;
                    let mc = ids::functions::AttackerProfile::mc(
                        world.trusted().max(1),
                        world.undetected(),
                    );
                    controller.observe(dt_c, mc);
                    detection = detection.with_interval(detection.base_interval);
                    detection.shape = controller.matching_shape();
                }
            }
            EVENT_EVALUATE => {
                // evaluate a random live node with an actual voting round
                let live_nodes: Vec<u32> = (0..world.status.len() as u32)
                    .filter(|&n| {
                        matches!(
                            world.status[n as usize],
                            NodeStatus::Trusted | NodeStatus::Compromised
                        )
                    })
                    .collect();
                let &target = live_nodes.choose(&mut rng).expect("live node exists");
                let gi = world.group_of(target);
                let peers: Vec<bool> = world.groups[gi]
                    .iter()
                    .filter(|&&n| n != target)
                    .map(|&n| world.status[n as usize] == NodeStatus::Compromised)
                    .collect();
                let vote_cfg = VotingConfig {
                    participants: sys.vote_participants,
                    host: world.host,
                };
                let target_bad = world.status[target as usize] == NodeStatus::Compromised;
                // Targeted attackers press their numeric advantage inside the
                // vote too — same effective collusion as the SPN's Pfn/Pfp.
                let collusion = if focus > 0.0 {
                    CollusionModel::Probabilistic(targeted_effective_collusion(
                        sys.collusion.malice_probability(),
                        focus,
                        trusted,
                        undetected,
                    ))
                } else {
                    sys.collusion
                };
                let o = run_vote_with_collusion(&vote_cfg, target_bad, &peers, collusion, &mut rng);
                k.votes += 1;
                // votes flood the target's group (Byzantine accountability)
                let group_live = world.groups[gi].len() as f64;
                hop_bits += o.votes as f64 * sys.vote_packet_bits as f64 * group_live;
                if o.evicted {
                    if target_bad {
                        k.true_evictions += 1;
                        if k.first_true_detection.is_none() {
                            k.first_true_detection = Some(t);
                        }
                    } else {
                        k.false_evictions += 1;
                    }
                    if quarantine.is_some() {
                        // conviction quarantines instead of evicting; the
                        // shrunken group still rekeys
                        let size = world.remove_from_group(target);
                        world.status[target as usize] = if target_bad {
                            NodeStatus::QuarantinedBad
                        } else {
                            NodeStatus::QuarantinedGood
                        };
                        hop_bits += gdh_rekey_hop_bits(sys, size.max(1));
                    } else if throttle.is_some() {
                        // conviction evicts but the rekey is queued, not
                        // charged — the old key stays live until served
                        world.remove_from_group(target);
                        world.status[target as usize] = NodeStatus::Evicted;
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
                    return finish(t, FailureCause::DataLeak, hop_bits, &k);
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
            }
            EVENT_BURST_ON => burst_active = true,
            EVENT_BURST_OFF => burst_active = false,
            EVENT_RELEASE_GOOD => {
                // quarantine review clears a good node; it rejoins a group
                let held: Vec<u32> = (0..world.status.len() as u32)
                    .filter(|&n| world.status[n as usize] == NodeStatus::QuarantinedGood)
                    .collect();
                let &node = held.choose(&mut rng).expect("quarantined good node exists");
                world.status[node as usize] = NodeStatus::Trusted;
                hop_bits += world.rejoin(node, &mut rng);
            }
            EVENT_RELEASE_BAD => {
                // quarantine review wrongly clears a compromised node
                let held: Vec<u32> = (0..world.status.len() as u32)
                    .filter(|&n| world.status[n as usize] == NodeStatus::QuarantinedBad)
                    .collect();
                let &node = held.choose(&mut rng).expect("quarantined bad node exists");
                world.status[node as usize] = NodeStatus::Compromised;
                hop_bits += world.rejoin(node, &mut rng);
            }
            EVENT_CONFIRM_BAD => {
                // quarantine review confirms the conviction: permanent
                // eviction, no further rekey (the group already rekeyed)
                let held: Vec<u32> = (0..world.status.len() as u32)
                    .filter(|&n| world.status[n as usize] == NodeStatus::QuarantinedBad)
                    .collect();
                let &node = held.choose(&mut rng).expect("quarantined bad node exists");
                world.status[node as usize] = NodeStatus::Evicted;
            }
            EVENT_REKEY_SERVE => {
                // the throttled rekey service completes one pending rekey
                pending_rekeys -= 1;
                if !world.groups.is_empty() {
                    let gi = rng.gen_range(0..world.groups.len());
                    hop_bits += gdh_rekey_hop_bits(sys, world.groups[gi].len() as u32);
                }
            }
            EVENT_STALE_LEAK => {
                // a stale group key (rekey still pending) lets an evicted
                // compromised node read traffic — condition C1
                hop_bits += sys.data_packet_bits as f64 * sys.mean_hops;
                return finish(t, FailureCause::DataLeak, hop_bits, &k);
            }
            _ => {
                // join/leave rekey event (population-neutral; SPN-equivalent).
                // The last slot also absorbs fp residue, which can land here
                // with every member quarantined — then there is nothing to
                // rekey.
                if !world.groups.is_empty() {
                    let gi = rng.gen_range(0..world.groups.len());
                    hop_bits += gdh_rekey_hop_bits(sys, world.groups[gi].len() as u32);
                }
            }
        }

        // --- failure check ---------------------------------------------------
        if world.any_group_byzantine() {
            return finish(t, FailureCause::ByzantineCapture, hop_bits, &k);
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
        assert!(o.mean_cost_rate > 0.0);
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
    fn adaptive_mode_runs() {
        let mut cfg = DesConfig::new(hot_system(16));
        cfg.adaptive = true;
        let o = run_des(&cfg, 11);
        assert!(o.time > 0.0);
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
