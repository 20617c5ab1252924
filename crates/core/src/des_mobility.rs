//! Mobility-coupled discrete-event simulation: the fully integrated system.
//!
//! Where [`crate::des`] drives group partition/merge from the *calibrated
//! birth–death rates* (matching the SPN abstraction), this simulator closes
//! the final gap to the real system: nodes move under random waypoint, and
//! the mobile groups **are** the connected components of the unit-disc
//! graph at every instant. Stochastic protocol events (compromise, voting,
//! data requests, join/leave rekeys) are superimposed on the evolving
//! connectivity with a hybrid scheme: mobility advances in fixed `dt`
//! steps (the last one shortened to end at the horizon), and within each
//! step protocol events fire by thinning the exponential race.
//!
//! The protocol itself — outcome and counters, node statuses, the
//! attacker's capture rate, the voting round — is the layer shared with
//! [`crate::des`]; only the group layout and the time advance are this
//! module's own. The thinned fixed-step loop stays separate from the
//! exact race of [`crate::des::run_des`] because merging the two would
//! change every random draw, and with it every reference number.
//!
//! This is the most expensive validator in the repository (every step
//! rebuilds connectivity), so it is used with accelerated parameters by
//! tests and runs in the cross-backend validation harness only on request
//! (`runner --mobility`; see `engine::crossval`). It serves as the
//! ground-truth check that the birth–death abstraction in the SPN/DES does
//! not distort MTTSF.

use crate::config::SystemConfig;
use crate::cost::gdh_rekey_hop_bits;
use crate::des::{
    compromise, count, pick_node, Counters, DesOutcome, FailureCause, NodeStatus, Protocol,
};
use crate::model::c2_holds;
use manet::{ConnectivityGraph, MobilityConfig, RandomWaypoint};
use numerics::replicate::Replicate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::ScenarioConfig;

/// Parameters of the mobility-coupled simulation. Nodes move under the
/// default random-waypoint model, with the system's node count.
#[derive(Debug, Clone)]
pub struct MobilityDesConfig {
    /// The protocol/attacker configuration.
    pub system: SystemConfig,
    /// Radio range (m) defining the unit-disc groups.
    pub radio_range: f64,
    /// Mobility step (s).
    pub dt: f64,
    /// Censoring horizon (s).
    pub max_time: f64,
    /// Adversary scenario. Only the *attacker* axis is modeled here (burst,
    /// stealth, targeted); response policies other than eviction are not
    /// meaningful on live connectivity components and are rejected upstream
    /// by `engine` spec validation.
    pub scenario: ScenarioConfig,
}

impl MobilityDesConfig {
    /// Defaults: the system's node count in the paper's 500 m disc with
    /// 250 m range, 1 s steps, one-year horizon.
    pub fn new(system: SystemConfig) -> Self {
        Self {
            system,
            radio_range: 250.0,
            dt: 1.0,
            max_time: 3.15e7,
            scenario: ScenarioConfig::baseline(),
        }
    }
}

/// Run one mobility-coupled replication.
pub fn run_mobility_des(cfg: &MobilityDesConfig, seed: u64) -> DesOutcome {
    let p = Protocol::new(&cfg.system, &cfg.scenario);
    let sys = &p.sys;
    // detlint::allow(D003): leaf constructor — `seed` is a child_seed from the replicate grid, passed down by the executor
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mobility = RandomWaypoint::new(
        MobilityConfig {
            node_count: sys.node_count as usize,
            ..Default::default()
        },
        &mut rng,
    );
    let mut status = vec![NodeStatus::Trusted; sys.node_count as usize];

    let mut t = 0.0f64;
    let mut hop_bits = 0.0f64;
    let mut k = Counters::default();
    let mut burst_active = false;

    let positions = mobility.positions();
    let mut graph = ConnectivityGraph::build(&positions, cfg.radio_range);
    let mut prev_components = graph.component_count();

    while t < cfg.max_time {
        // --- mobility step and group bookkeeping ---------------------------
        // A final partial step ends exactly at the horizon, so no event is
        // ever reported past it.
        let step = if t + cfg.dt <= cfg.max_time {
            cfg.dt
        } else {
            cfg.max_time - t
        };
        mobility.step(step, &mut rng);
        t = (t + cfg.dt).min(cfg.max_time);
        let positions = mobility.positions();
        graph = ConnectivityGraph::build(&positions, cfg.radio_range);
        let components = graph.component_count();
        // Count topology events and charge their rekeys (evicted nodes keep
        // moving but are cryptographically outside every group).
        if components > prev_components {
            k.partitions += (components - prev_components) as u64;
            hop_bits += gdh_rekey_hop_bits(sys, mean_live_group_size(&graph, &status));
        } else if components < prev_components {
            k.merges += (prev_components - components) as u64;
            hop_bits += gdh_rekey_hop_bits(sys, mean_live_group_size(&graph, &status));
        }
        prev_components = components;

        // --- live population -------------------------------------------------
        let trusted = count(&status, NodeStatus::Trusted);
        let undetected = count(&status, NodeStatus::Compromised);
        let live = trusted + undetected;
        if live == 0 {
            return k.finish(t, FailureCause::Attrition, hop_bits);
        }

        // --- background traffic over actual components ----------------------
        hop_bits += background_rate(sys, &graph, &status) * step;

        // --- scenario phase (burst attackers only; no draw otherwise) --------
        if let Some(toggle_rate) = p.burst_toggle_rate(burst_active) {
            if rng.gen::<f64>() < 1.0 - (-toggle_rate * step).exp() {
                burst_active = !burst_active;
            }
        }

        // --- protocol events within the step (thinned Poisson) --------------
        let r_compromise = p.compromise_rate(trusted, undetected, burst_active);
        if trusted > 0 && rng.gen::<f64>() < 1.0 - (-r_compromise * step).exp() {
            compromise(&mut status, t, &mut k, &mut rng);
        }

        let d_rate = sys.detection.rate(sys.node_count, trusted, undetected);
        let p_eval = 1.0 - (-(live as f64) * d_rate * step).exp();
        if rng.gen::<f64>() < p_eval {
            // evaluate one random live node within its actual component
            let target = pick_node(&status, NodeStatus::is_live, &mut rng);
            let comp = graph.component_of(target);
            let peers: Vec<bool> = (0..status.len())
                .filter(|&n| n != target && status[n].is_live() && graph.component_of(n) == comp)
                .map(|n| status[n] == NodeStatus::Compromised)
                .collect();
            let target_bad = status[target] == NodeStatus::Compromised;
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
                status[target] = NodeStatus::Evicted;
                hop_bits += gdh_rekey_hop_bits(sys, peers.len() as u32);
            }
        }

        let r_leak = sys.group_comm_rate * undetected as f64;
        if undetected > 0 && rng.gen::<f64>() < 1.0 - (-r_leak * step).exp() {
            hop_bits += sys.data_packet_bits as f64 * sys.mean_hops;
            if rng.gen::<f64>() < sys.p1_host_false_negative {
                return k.finish(t, FailureCause::DataLeak, hop_bits);
            }
        }

        // join/leave rekey traffic (population-neutral, as in `des`)
        let r_jl = sys.join_rate * (sys.node_count - live) as f64 + sys.leave_rate * live as f64;
        if rng.gen::<f64>() < 1.0 - (-r_jl * step).exp() {
            hop_bits += gdh_rekey_hop_bits(sys, mean_live_group_size(&graph, &status));
        }

        // --- C2 check on real components ------------------------------------
        if any_component_byzantine(&graph, &status) {
            return k.finish(t, FailureCause::ByzantineCapture, hop_bits);
        }
    }
    k.finish(cfg.max_time, FailureCause::Censored, hop_bits)
}

fn mean_live_group_size(graph: &ConnectivityGraph, status: &[NodeStatus]) -> u32 {
    let live: u32 = status.iter().filter(|s| s.is_live()).count() as u32;
    let comps = graph.component_count().max(1) as u32;
    (live / comps).max(1)
}

fn background_rate(sys: &SystemConfig, graph: &ConnectivityGraph, status: &[NodeStatus]) -> f64 {
    // live members per component
    let mut live_per_comp = vec![0u32; graph.component_count()];
    for (i, s) in status.iter().enumerate() {
        if s.is_live() {
            live_per_comp[graph.component_of(i) as usize] += 1;
        }
    }
    live_per_comp
        .iter()
        .map(|&n| {
            let nf = n as f64;
            sys.group_comm_rate * nf * sys.data_packet_bits as f64 * nf
                + nf * sys.status_packet_bits as f64 * nf / sys.status_period
                + nf * sys.beacon_bits as f64 / sys.beacon_period
        })
        .sum()
}

fn any_component_byzantine(graph: &ConnectivityGraph, status: &[NodeStatus]) -> bool {
    let comps = graph.component_count();
    let mut trusted = vec![0u32; comps];
    let mut bad = vec![0u32; comps];
    for (i, &s) in status.iter().enumerate() {
        match s {
            NodeStatus::Trusted => trusted[graph.component_of(i) as usize] += 1,
            NodeStatus::Compromised => bad[graph.component_of(i) as usize] += 1,
            _ => {}
        }
    }
    trusted.iter().zip(&bad).any(|(&t, &u)| c2_holds(t, u))
}

impl Replicate for MobilityDesConfig {
    type Outcome = DesOutcome;

    fn run_one(&self, seed: u64) -> DesOutcome {
        run_mobility_des(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::AttackerStrategy;

    /// Small, fast-failing configuration.
    fn hot() -> MobilityDesConfig {
        let mut sys = SystemConfig::paper_default();
        sys.node_count = 16;
        sys.vote_participants = 3;
        sys.attacker.base_rate = 1.0 / 300.0;
        sys.detection = sys.detection.with_interval(60.0);
        let mut c = MobilityDesConfig::new(sys);
        c.dt = 2.0;
        c.max_time = 50_000.0;
        c
    }

    #[test]
    fn replication_terminates() {
        let o = run_mobility_des(&hot(), 5);
        assert!(o.time > 0.0);
        assert!(o.hop_bits > 0.0);
        assert!(matches!(
            o.cause,
            FailureCause::DataLeak | FailureCause::ByzantineCapture | FailureCause::Censored
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_mobility_des(&hot(), 9);
        let b = run_mobility_des(&hot(), 9);
        assert_eq!(a.time, b.time);
        assert_eq!(a.compromises, b.compromises);
        assert_eq!(a.hop_bits, b.hop_bits);
    }

    #[test]
    fn censoring_respected() {
        let mut cfg = hot();
        cfg.system.attacker.base_rate = 1e-12;
        cfg.max_time = 50.0;
        let o = run_mobility_des(&cfg, 3);
        assert_eq!(o.cause, FailureCause::Censored);
        assert_eq!(o.time, 50.0);
        // a horizon that is not a multiple of the step censors at it too
        cfg.max_time = 51.0;
        let o = run_mobility_des(&cfg, 3);
        assert_eq!(o.cause, FailureCause::Censored);
        assert_eq!(o.time, 51.0);
    }

    #[test]
    fn no_outcome_past_the_horizon() {
        // Steps of 7 s against a 10 s horizon: the second step is cut to
        // 3 s, so a failure in it happens at the horizon, not at 14 s.
        let mut cfg = hot();
        cfg.system.attacker.base_rate = 0.5;
        cfg.dt = 7.0;
        cfg.max_time = 10.0;
        let mut failed_in_last_step = 0;
        for seed in 0..400 {
            let o = run_mobility_des(&cfg, seed);
            assert!(o.time <= cfg.max_time, "seed {seed}: {o:?}");
            if o.cause != FailureCause::Censored && o.time > cfg.dt {
                failed_in_last_step += 1;
            }
        }
        assert!(failed_in_last_step > 0, "the cut step must see failures");
    }

    #[test]
    fn scenario_deterministic_and_burst_changes_outcome() {
        let mut cfg = hot();
        cfg.scenario.attacker = AttackerStrategy::Burst {
            on_rate: 1.0 / 200.0,
            off_rate: 1.0 / 100.0,
            multiplier: 6.0,
        };
        let a = run_mobility_des(&cfg, 17);
        let b = run_mobility_des(&cfg, 17);
        assert_eq!(a.time, b.time);
        assert_eq!(a.hop_bits, b.hop_bits);
        assert_eq!(a.first_compromise, b.first_compromise);
        // the burst phase draws perturb the event stream vs baseline
        let base = run_mobility_des(&hot(), 17);
        assert!(a.time != base.time || a.hop_bits != base.hop_bits);
    }

    #[test]
    fn eviction_split_sums_to_total() {
        // every eviction is the conviction of one voting round
        let o = run_mobility_des(&hot(), 29);
        assert!(o.votes > 0);
        assert!(o.true_evictions + o.false_evictions <= o.votes);
        if let (Some(fc), Some(fd)) = (o.first_compromise, o.first_true_detection) {
            assert!(fd >= fc);
        }
    }

    #[test]
    fn sparse_network_sees_partitions() {
        let mut cfg = hot();
        cfg.radio_range = 120.0; // sparse → frequent partitions
        cfg.max_time = 3_000.0;
        cfg.system.attacker.base_rate = 1e-12; // isolate topology dynamics
        let o = run_mobility_des(&cfg, 21);
        assert!(o.partitions > 0, "expected partitions in sparse network");
        assert!(o.merges > 0);
    }
}
