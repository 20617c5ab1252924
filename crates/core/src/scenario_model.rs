//! Scenario-modulated SPN construction and exact evaluation.
//!
//! This module widens the paper's Figure-1 net along the two scenario axes
//! of the [`scenario`] crate while leaving [`crate::model::build_model`]
//! (and its pinned structure) untouched:
//!
//! - **Attacker strategies.** `stealth` is a pure configuration transform
//!   ([`scenario_system`]) — reduced capture intensity, raised effective
//!   host false-negative probability — so it needs no structural change.
//!   `targeted` modulates the `T_CP` rate and the voting collusion
//!   probability with the adversary's foothold `U/(T+U)` via the shared
//!   closed forms in [`scenario`]. `burst` adds an attacker-mode place
//!   `AM` with an on/off exponential race (`T_BURST_ON`/`T_BURST_OFF`)
//!   multiplying the capture rate while active.
//! - **Response policies.** `quarantine-and-rejoin` adds places
//!   `QGm`/`QBm` holding convicted good/compromised nodes, with release
//!   transitions `T_REL_G` (good node rejoins), `T_REL_B` (compromised
//!   node falsely released back into the group), and `T_CONF_B`
//!   (compromised node confirmed and permanently evicted).
//!   `rekey-throttle` adds a pending-rekey queue `PRm`: convictions still
//!   remove the node but the excluding rekey is served one at a time by
//!   `T_RKSRV` at the configured maximum rate, and while pending the stale
//!   key leaks group data via `T_SLK` (a C1 failure path).
//!
//! With both axes at baseline the constructed net is the paper's net
//! (same places, transitions, rates); a test pins MTTSF equality against
//! [`crate::metrics::evaluate`].

use crate::config::SystemConfig;
use crate::cost::CostBreakdown;
use crate::metrics::{evaluate_with_ctmc, gf_split, population_cost, rekey_impulses, Evaluation};
use crate::model::{c2_holds, pfn_for, pfp_for, population, Places, Population};
use ids::voting::{
    p_false_negative_with_collusion, p_false_positive_with_collusion, CollusionModel,
};
use scenario::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
use spn::ctmc::Ctmc;
use spn::error::SpnError;
use spn::model::{Marking, PlaceId, Spn, SpnBuilder, TransitionDef};
use spn::reach::ReachabilityGraph;
use spn::reward::ImpulseReward;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Place handles of a scenario net: the paper's five places plus the
/// scenario-specific extras (absent for axes at baseline).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioPlaces {
    /// The paper's `Tm`/`UCm`/`DCm`/`GF`/`NG` block.
    pub base: Places,
    /// Burst attacker phase (`AM`, 1 = active).
    pub attack_mode: Option<PlaceId>,
    /// Quarantined good nodes (`QGm`).
    pub quarantine_good: Option<PlaceId>,
    /// Quarantined compromised nodes (`QBm`).
    pub quarantine_bad: Option<PlaceId>,
    /// Queued eviction rekeys (`PRm`).
    pub pending_rekeys: Option<PlaceId>,
}

impl ScenarioPlaces {
    /// Total quarantined population in `m` (0 when the policy has no
    /// quarantine).
    pub fn quarantined(&self, m: &Marking) -> u32 {
        self.quarantine_good.map_or(0, |p| m.tokens(p))
            + self.quarantine_bad.map_or(0, |p| m.tokens(p))
    }
}

/// A scenario-modulated model: net, place handles, the **effective**
/// configuration (stealth transform applied), and the scenario it encodes.
pub struct ScenarioModel {
    /// The stochastic Petri net.
    pub net: Spn,
    /// Place handles.
    pub places: ScenarioPlaces,
    /// Effective configuration (see [`scenario_system`]).
    pub config: SystemConfig,
    /// Scenario snapshot.
    pub scenario: ScenarioConfig,
}

/// The stationary part of a scenario applied to the configuration: a
/// stealth attacker captures at `rate_factor` of the baseline intensity
/// and raises the effective host false-negative probability to
/// `p1 + (1 − p1)·evasion`. Every backend (exact, SPN-sim, both DES) runs
/// on this transformed configuration, so the stealth axis is consistent
/// across them by construction.
pub fn scenario_system(cfg: &SystemConfig, sc: &ScenarioConfig) -> SystemConfig {
    let mut out = cfg.clone();
    if let AttackerStrategy::Stealth {
        rate_factor,
        evasion,
    } = sc.attacker
    {
        out.attacker.base_rate *= rate_factor;
        out.p1_host_false_negative =
            scenario::stealth_effective_p1(out.p1_host_false_negative, evasion);
    }
    out
}

/// The scenario failure predicate: C1 (`GF` token), C2 (Byzantine
/// capture), or attrition — where attrition additionally requires an empty
/// quarantine, since quarantined nodes can still rejoin.
pub fn scenario_failed(p: &ScenarioPlaces, m: &Marking) -> bool {
    let t = m.tokens(p.base.tm);
    let u = m.tokens(p.base.ucm);
    m.tokens(p.base.gf) > 0 || c2_holds(t, u) || (t + u == 0 && p.quarantined(m) == 0)
}

/// Voting false-negative probability under a targeted attacker: the
/// colluders' effective malice probability grows with the foothold.
fn pfn_targeted(cfg: &SystemConfig, pop: &Population, focus: f64) -> f64 {
    if pop.undetected == 0 {
        return 0.0;
    }
    let (good, bad) = pop.per_group_for_bad_target();
    let q = scenario::targeted_effective_collusion(
        cfg.collusion.malice_probability(),
        focus,
        pop.trusted,
        pop.undetected,
    );
    p_false_negative_with_collusion(
        good,
        bad,
        cfg.vote_participants,
        cfg.p1_host_false_negative,
        CollusionModel::Probabilistic(q),
    )
}

/// Voting false-positive probability under a targeted attacker.
fn pfp_targeted(cfg: &SystemConfig, pop: &Population, focus: f64) -> f64 {
    if pop.trusted == 0 {
        return 0.0;
    }
    let (good, bad) = pop.per_group_for_good_target();
    let q = scenario::targeted_effective_collusion(
        cfg.collusion.malice_probability(),
        focus,
        pop.trusted,
        pop.undetected,
    );
    p_false_positive_with_collusion(
        good,
        bad,
        cfg.vote_participants,
        cfg.p2_host_false_positive,
        CollusionModel::Probabilistic(q),
    )
}

/// Build the scenario-modulated SPN for a configuration.
///
/// # Panics
/// Panics if the configuration or scenario fails validation — call
/// `validate()` on both first for a recoverable error.
pub fn build_scenario_model(cfg: &SystemConfig, sc: &ScenarioConfig) -> ScenarioModel {
    cfg.validate()
        // detlint::allow(R001): documented contract — every service-path caller validates the spec first; this guards direct library misuse
        .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
    sc.validate()
        // detlint::allow(R001): documented contract — every service-path caller validates the scenario first; this guards direct library misuse
        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    let cfg = scenario_system(cfg, sc);

    let mut b = SpnBuilder::new();
    let tm = b.add_place("Tm", cfg.node_count);
    let ucm = b.add_place("UCm", 0);
    let dcm = b.add_place("DCm", 0);
    let gf = b.add_place("GF", 0);
    let ng = b.add_place("NG", 1);
    let base = Places {
        tm,
        ucm,
        dcm,
        gf,
        ng,
    };
    let attack_mode = match sc.attacker {
        AttackerStrategy::Burst { .. } => Some(b.add_place("AM", 0)),
        _ => None,
    };
    let (quarantine_good, quarantine_bad) = match sc.response {
        ResponsePolicy::QuarantineRejoin { .. } => {
            (Some(b.add_place("QGm", 0)), Some(b.add_place("QBm", 0)))
        }
        _ => (None, None),
    };
    let pending_rekeys = match sc.response {
        ResponsePolicy::RekeyThrottle { .. } => Some(b.add_place("PRm", 0)),
        _ => None,
    };
    let places = ScenarioPlaces {
        base,
        attack_mode,
        quarantine_good,
        quarantine_bad,
        pending_rekeys,
    };

    let focus = sc.attacker.focus();

    // T_CP: capture at the attacker rate, modulated by the targeted
    // foothold multiplier and the burst phase.
    {
        let attacker = cfg.attacker;
        let burst = match sc.attacker {
            AttackerStrategy::Burst { multiplier, .. } => attack_mode.map(|am| (am, multiplier)),
            _ => None,
        };
        b.add_transition(
            TransitionDef::timed("T_CP", move |m| {
                let t = m.tokens(tm);
                let u = m.tokens(ucm);
                let mut r = attacker.rate(t, u);
                if focus > 0.0 {
                    r *= scenario::targeted_capture_multiplier(focus, t, u);
                }
                if let Some((am, mult)) = burst {
                    r *= scenario::burst_capture_multiplier(mult, m.tokens(am) >= 1);
                }
                r
            })
            .input(tm, 1)
            .output(ucm, 1),
        );
    }

    // T_IDS: conviction of a compromised node. The non-targeted voting
    // probabilities depend only on the target group's (good, bad) split and
    // are memoized as in the baseline net; the targeted ones also depend on
    // the global foothold, so they are computed directly. The convicted
    // node's destination is the response policy's: `DCm` for evict (with a
    // queued rekey for throttle), `QBm` for quarantine.
    {
        let cfg_c = cfg.clone();
        let n_init = cfg.node_count;
        let cache: Mutex<HashMap<(u32, u32), f64>> = Mutex::new(HashMap::new());
        let def = TransitionDef::timed("T_IDS", move |m| {
            let pop = population(&base, m);
            if pop.undetected == 0 {
                return 0.0;
            }
            let d = cfg_c.detection.rate(n_init, pop.trusted, pop.undetected);
            let pfn = if focus > 0.0 {
                pfn_targeted(&cfg_c, &pop, focus)
            } else {
                let (good, bad) = pop.per_group_for_bad_target();
                *cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry((good, bad))
                    .or_insert_with(|| pfn_for(&cfg_c, &pop))
            };
            pop.undetected as f64 * d * (1.0 - pfn)
        })
        .input(ucm, 1);
        let def = match (quarantine_bad, pending_rekeys) {
            (Some(qb), _) => def.output(qb, 1),
            (None, Some(pr)) => def.output(dcm, 1).output(pr, 1),
            (None, None) => def.output(dcm, 1),
        };
        b.add_transition(def);
    }

    // T_FA: false conviction of a trusted node (same routing).
    {
        let cfg_c = cfg.clone();
        let n_init = cfg.node_count;
        let cache: Mutex<HashMap<(u32, u32), f64>> = Mutex::new(HashMap::new());
        let def = TransitionDef::timed("T_FA", move |m| {
            let pop = population(&base, m);
            if pop.trusted == 0 {
                return 0.0;
            }
            let d = cfg_c.detection.rate(n_init, pop.trusted, pop.undetected);
            let pfp = if focus > 0.0 {
                pfp_targeted(&cfg_c, &pop, focus)
            } else {
                let (good, bad) = pop.per_group_for_good_target();
                *cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry((good, bad))
                    .or_insert_with(|| pfp_for(&cfg_c, &pop))
            };
            pop.trusted as f64 * d * pfp
        })
        .input(tm, 1);
        let def = match (quarantine_good, pending_rekeys) {
            (Some(qg), _) => def.output(qg, 1),
            (None, Some(pr)) => def.output(dcm, 1).output(pr, 1),
            (None, None) => def.output(dcm, 1),
        };
        b.add_transition(def);
    }

    // T_DRQ: data leak through an undetected compromised member (C1).
    {
        let p1 = cfg.p1_host_false_negative;
        let lambda_q = cfg.group_comm_rate;
        b.add_transition(
            TransitionDef::timed("T_DRQ", move |m| p1 * lambda_q * m.tokens(ucm) as f64)
                .input(ucm, 1)
                .output(ucm, 1)
                .output(gf, 1),
        );
    }

    // T_PAR / T_MER: group birth–death, exactly as in the baseline net.
    {
        let nu_p = cfg.partition_rate_per_group;
        let max_groups = cfg.max_groups;
        b.add_transition(
            TransitionDef::timed("T_PAR", move |m| nu_p * m.tokens(ng) as f64)
                .output(ng, 1)
                .guard(move |m| {
                    let g = m.tokens(ng);
                    g < max_groups && m.tokens(tm) + m.tokens(ucm) > g
                }),
        );
        let nu_m = cfg.merge_rate_per_group;
        b.add_transition(
            TransitionDef::timed("T_MER", move |m| {
                nu_m * (m.tokens(ng).saturating_sub(1)) as f64
            })
            .input(ng, 1)
            .guard(move |m| m.tokens(ng) >= 2),
        );
    }

    // T_RK: join/leave rekeying (cost-only), as in the baseline net.
    {
        let lambda = cfg.join_rate;
        let mu = cfg.leave_rate;
        let n_init = cfg.node_count;
        b.add_transition(TransitionDef::timed("T_RK", move |m| {
            let live = m.tokens(tm) + m.tokens(ucm);
            lambda * (n_init - live.min(n_init)) as f64 + mu * live as f64
        }));
    }

    // Burst phase race.
    if let (
        Some(am),
        AttackerStrategy::Burst {
            on_rate, off_rate, ..
        },
    ) = (attack_mode, sc.attacker)
    {
        b.add_transition(
            TransitionDef::timed_const("T_BURST_ON", on_rate)
                .output(am, 1)
                .guard(move |m| m.tokens(am) == 0),
        );
        b.add_transition(TransitionDef::timed_const("T_BURST_OFF", off_rate).input(am, 1));
    }

    // Quarantine review outcomes.
    if let (
        Some(qg),
        Some(qb),
        ResponsePolicy::QuarantineRejoin {
            release_rate,
            false_release_prob,
        },
    ) = (quarantine_good, quarantine_bad, sc.response)
    {
        b.add_transition(
            TransitionDef::timed("T_REL_G", move |m| release_rate * m.tokens(qg) as f64)
                .input(qg, 1)
                .output(tm, 1),
        );
        b.add_transition(
            TransitionDef::timed("T_REL_B", move |m| {
                release_rate * false_release_prob * m.tokens(qb) as f64
            })
            .input(qb, 1)
            .output(ucm, 1),
        );
        b.add_transition(
            TransitionDef::timed("T_CONF_B", move |m| {
                release_rate * (1.0 - false_release_prob) * m.tokens(qb) as f64
            })
            .input(qb, 1)
            .output(dcm, 1),
        );
    }

    // Throttled rekey service and the stale-key leak window.
    if let (Some(pr), ResponsePolicy::RekeyThrottle { max_rate }) = (pending_rekeys, sc.response) {
        b.add_transition(TransitionDef::timed_const("T_RKSRV", max_rate).input(pr, 1));
        let p1 = cfg.p1_host_false_negative;
        let lambda_q = cfg.group_comm_rate;
        b.add_transition(
            TransitionDef::timed("T_SLK", move |m| p1 * lambda_q * m.tokens(pr) as f64)
                .input(pr, 1)
                .output(pr, 1)
                .output(gf, 1),
        );
    }

    b.absorbing_when(move |m| scenario_failed(&places, m));

    let net = b
        .build()
        // detlint::allow(R001): structural invariant — the builder input is generated above from validated config, never from spec data
        .expect("scenario model construction is internally consistent");
    ScenarioModel {
        net,
        places,
        config: cfg,
        scenario: *sc,
    }
}

impl ScenarioModel {
    /// The scenario model's per-state cost rule: the paper block's
    /// population cost (quarantined nodes are cryptographically outside
    /// every group and accrue no traffic). The exact core and the SPN
    /// simulation both charge it.
    pub fn state_cost(&self) -> impl Fn(&Marking) -> CostBreakdown + Send + Sync + 'static {
        population_cost(&self.config, self.places.base)
    }

    /// The response policy's rekey action costs as impulse rewards: evict
    /// charges one GDH rekey per conviction; quarantine additionally
    /// charges the rejoin rekeys of released nodes (`T_REL_G`, `T_REL_B` —
    /// a confirmed eviction `T_CONF_B` needs none, the node is already
    /// keyed out); throttle charges one rekey per *served* queue entry
    /// (`T_RKSRV`) and nothing at conviction time.
    ///
    /// # Errors
    /// Returns [`SpnError::InvalidModel`] if the net is missing one of
    /// the policy's transitions.
    pub fn rekey_impulses(&self) -> Result<Vec<ImpulseReward>, SpnError> {
        let names: &[&str] = match self.scenario.response {
            ResponsePolicy::Evict => &["T_IDS", "T_FA"],
            ResponsePolicy::QuarantineRejoin { .. } => &["T_IDS", "T_FA", "T_REL_G", "T_REL_B"],
            ResponsePolicy::RekeyThrottle { .. } => &["T_RKSRV"],
        };
        let base = self.places.base;
        rekey_impulses(&self.net, &self.config, names.iter().map(|&n| (n, base)))
    }
}

/// Expected transition-firing totals over one absorption run of the exact
/// chain: `E[#T_CP]` (compromises), `E[#T_IDS]` (true detections),
/// `E[#T_FA]` (false alarms), each `Σᵢ sojournᵢ · rateᵢ` over the CTMC
/// edges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectionTotals {
    /// Expected compromises until failure.
    pub compromises: f64,
    /// Expected true detections (convictions of compromised nodes).
    pub detections: f64,
    /// Expected false alarms (convictions of trusted nodes).
    pub false_alarms: f64,
}

/// Evaluate a scenario model on an already-explored graph: the scenario
/// counterpart of [`crate::metrics::evaluate_graph`], with the response
/// policy's action costs charged as impulses and the detection-quality
/// firing totals read off the sojourn vector.
///
/// # Errors
/// Propagates solver failures.
pub fn evaluate_scenario_graph(
    model: &ScenarioModel,
    graph: &ReachabilityGraph,
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>, DetectionTotals), SpnError> {
    let ctmc = Ctmc::from_graph(graph)?;
    let gf = model.places.base.gf;
    let solved = evaluate_with_ctmc(
        &model.net,
        graph,
        &ctmc,
        model.state_cost(),
        &model.rekey_impulses()?,
        |a| gf_split(graph, a, gf),
        mission_times,
    )?;

    // Detection-quality totals: expected firing counts from the sojourn
    // vector and the explored edge rates (only enabled transitions appear
    // as edges, so disabled-state rates contribute nothing).
    let lookup = |name: &str| {
        model
            .net
            .transition_by_name(name)
            .ok_or_else(|| SpnError::InvalidModel(format!("missing transition {name}")))
    };
    let t_cp = lookup("T_CP")?;
    let t_ids = lookup("T_IDS")?;
    let t_fa = lookup("T_FA")?;
    let mut detection = DetectionTotals::default();
    for (i, edges) in graph.edges.iter().enumerate() {
        let s = solved.sojourn[i];
        if s <= 0.0 {
            continue;
        }
        for e in edges {
            if e.transition == t_cp {
                detection.compromises += s * e.rate;
            } else if e.transition == t_ids {
                detection.detections += s * e.rate;
            } else if e.transition == t_fa {
                detection.false_alarms += s * e.rate;
            }
        }
    }

    Ok((solved.evaluation, solved.survival, detection))
}

/// One-shot scenario evaluation: build, explore, evaluate.
///
/// # Errors
/// Propagates configuration/scenario validation failures (as
/// [`SpnError::InvalidModel`]) and solver errors.
pub fn evaluate_scenario(
    cfg: &SystemConfig,
    sc: &ScenarioConfig,
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>, DetectionTotals), SpnError> {
    cfg.validate().map_err(SpnError::InvalidModel)?;
    sc.validate().map_err(SpnError::InvalidModel)?;
    let model = build_scenario_model(cfg, sc);
    let graph = spn::reach::explore(&model.net, &spn::reach::ExploreOptions::default())?;
    evaluate_scenario_graph(&model, &graph, mission_times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;

    fn small(n: u32) -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = n;
        c.vote_participants = 3;
        c.detection = c.detection.with_interval(120.0);
        c
    }

    fn sc(attacker: AttackerStrategy, response: ResponsePolicy) -> ScenarioConfig {
        ScenarioConfig { attacker, response }
    }

    #[test]
    fn baseline_scenario_matches_paper_net() {
        let cfg = small(12);
        let m = build_scenario_model(&cfg, &ScenarioConfig::baseline());
        assert_eq!(m.net.place_count(), 5);
        assert_eq!(m.net.transition_count(), 7);
        let (e, _, det) = evaluate_scenario(&cfg, &ScenarioConfig::baseline(), &[]).unwrap();
        let base = evaluate(&cfg).unwrap();
        assert!((e.mttsf_seconds - base.mttsf_seconds).abs() < 1e-9 * base.mttsf_seconds);
        assert!(
            (e.c_total_hop_bits_per_sec - base.c_total_hop_bits_per_sec).abs()
                < 1e-9 * base.c_total_hop_bits_per_sec
        );
        assert_eq!(e.state_count, base.state_count);
        assert!(det.compromises > 0.0 && det.detections > 0.0 && det.false_alarms > 0.0);
    }

    #[test]
    fn stealth_transform_applies_factor_and_evasion() {
        let cfg = small(12);
        let s = sc(
            AttackerStrategy::Stealth {
                rate_factor: 0.5,
                evasion: 0.3,
            },
            ResponsePolicy::Evict,
        );
        let eff = scenario_system(&cfg, &s);
        assert!((eff.attacker.base_rate - cfg.attacker.base_rate * 0.5).abs() < 1e-15);
        let expect = 0.01 + 0.99 * 0.3;
        assert!((eff.p1_host_false_negative - expect).abs() < 1e-12);
    }

    #[test]
    fn burst_adds_mode_place_and_phase_race() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Burst {
                on_rate: 1.0 / 3600.0,
                off_rate: 1.0 / 1800.0,
                multiplier: 4.0,
            },
            ResponsePolicy::Evict,
        );
        let m = build_scenario_model(&cfg, &s);
        assert_eq!(m.net.place_count(), 6);
        assert!(m.net.transition_by_name("T_BURST_ON").is_some());
        assert!(m.net.transition_by_name("T_BURST_OFF").is_some());
        // A bursting attacker fails the system faster than baseline.
        let (burst, _, _) = evaluate_scenario(&cfg, &s, &[]).unwrap();
        let base = evaluate(&cfg).unwrap();
        assert!(burst.mttsf_seconds < base.mttsf_seconds);
    }

    #[test]
    fn targeted_attacker_lowers_mttsf() {
        let cfg = small(12);
        let s = sc(
            AttackerStrategy::Targeted { focus: 0.8 },
            ResponsePolicy::Evict,
        );
        let (e, _, _) = evaluate_scenario(&cfg, &s, &[]).unwrap();
        let base = evaluate(&cfg).unwrap();
        assert!(e.mttsf_seconds < base.mttsf_seconds);
        // focus = 0 is exactly baseline
        let z = sc(
            AttackerStrategy::Targeted { focus: 0.0 },
            ResponsePolicy::Evict,
        );
        let (e0, _, _) = evaluate_scenario(&cfg, &z, &[]).unwrap();
        assert!((e0.mttsf_seconds - base.mttsf_seconds).abs() < 1e-9 * base.mttsf_seconds);
    }

    #[test]
    fn quarantine_conserves_population_and_can_rejoin() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Baseline,
            ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.1,
            },
        );
        let m = build_scenario_model(&cfg, &s);
        assert_eq!(m.net.place_count(), 7);
        for t in ["T_REL_G", "T_REL_B", "T_CONF_B"] {
            assert!(m.net.transition_by_name(t).is_some(), "missing {t}");
        }
        let g = spn::reach::explore(&m.net, &spn::reach::ExploreOptions::default()).unwrap();
        let qg = m.places.quarantine_good.unwrap();
        let qb = m.places.quarantine_bad.unwrap();
        let mut saw_quarantined = false;
        for st in &g.states {
            let total = st.tokens(m.places.base.tm)
                + st.tokens(m.places.base.ucm)
                + st.tokens(m.places.base.dcm)
                + st.tokens(qg)
                + st.tokens(qb);
            assert_eq!(total, 10);
            saw_quarantined |= st.tokens(qg) + st.tokens(qb) > 0;
        }
        assert!(saw_quarantined);
    }

    #[test]
    fn throttle_queue_is_bounded_and_leaks() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Baseline,
            ResponsePolicy::RekeyThrottle {
                max_rate: 1.0 / 300.0,
            },
        );
        let m = build_scenario_model(&cfg, &s);
        assert!(m.net.transition_by_name("T_RKSRV").is_some());
        assert!(m.net.transition_by_name("T_SLK").is_some());
        let g = spn::reach::explore(&m.net, &spn::reach::ExploreOptions::default()).unwrap();
        let pr = m.places.pending_rekeys.unwrap();
        for st in &g.states {
            assert!(st.tokens(pr) <= 10);
        }
        // The stale-key window adds a C1 path: C1 share grows vs baseline.
        let (e, _, _) = evaluate_scenario(&cfg, &s, &[]).unwrap();
        let base = evaluate(&cfg).unwrap();
        assert!(e.p_failure_c1 > base.p_failure_c1);
    }

    #[test]
    fn quarantine_with_high_false_release_is_weaker() {
        let cfg = small(10);
        let lo = sc(
            AttackerStrategy::Baseline,
            ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.0,
            },
        );
        let hi = sc(
            AttackerStrategy::Baseline,
            ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.8,
            },
        );
        let (e_lo, _, _) = evaluate_scenario(&cfg, &lo, &[]).unwrap();
        let (e_hi, _, _) = evaluate_scenario(&cfg, &hi, &[]).unwrap();
        assert!(e_hi.mttsf_seconds < e_lo.mttsf_seconds);
    }

    #[test]
    fn scenario_survival_curve_is_monotone() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Targeted { focus: 0.5 },
            ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.1,
            },
        );
        let (e, surv, _) = evaluate_scenario(&cfg, &s, &[0.0, 1.0e4, 1.0e5, 1.0e6]).unwrap();
        let surv = surv.unwrap();
        assert!((surv[0] - 1.0).abs() < 1e-9);
        for w in surv.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        assert!(e.mttsf_seconds > 0.0);
    }

    #[test]
    fn detection_totals_track_ids_quality() {
        // With detection nearly off, expected detections until failure drop.
        let cfg = small(12);
        let slow = {
            let mut c = cfg.clone();
            c.detection = c.detection.with_interval(1.0e6);
            c
        };
        let (_, _, fast_det) = evaluate_scenario(&cfg, &ScenarioConfig::baseline(), &[]).unwrap();
        let (_, _, slow_det) = evaluate_scenario(&slow, &ScenarioConfig::baseline(), &[]).unwrap();
        assert!(slow_det.detections < fast_det.detections);
    }

    #[test]
    fn invalid_scenario_is_reported() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Targeted { focus: 2.0 },
            ResponsePolicy::Evict,
        );
        assert!(matches!(
            evaluate_scenario(&cfg, &s, &[]),
            Err(SpnError::InvalidModel(_))
        ));
    }
}
