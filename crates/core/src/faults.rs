//! Deterministic fault injection: serde-described chaos for the serving
//! path and the finite-system engines.
//!
//! The paper's premise is dispatching under *degraded information*
//! (sampled, delayed observations); a [`FaultPlan`] extends that to
//! degraded *infrastructure*: servers that crash and recover, stragglers
//! that run slow, observation syncs that silently miss, and arrival
//! bursts that exceed capacity. Plans are plain data (validated like
//! `Scenario`), and every random ingredient is drawn from the same
//! SplitMix64 counter-stream scheme the sharded graph engine and the
//! event engine use — keyed `(epoch_base, salt, index)` — so a faulted
//! run is **bit-identical at a fixed seed** regardless of heap
//! internals, shard partitions or worker counts, and regardless of the
//! order fault windows were inserted into the plan.
//!
//! # Fault-plan JSON schema
//!
//! Every field of the top-level object is optional; an absent field
//! injects nothing. `{}` is the empty plan and is contractually a
//! behavioural no-op: engines consult no fault stream when the plan is
//! empty, so every pinned RNG regression constant is preserved.
//!
//! | JSON | fault | constraints |
//! |---|---|---|
//! | `"crashes": {"mttf": f, "mttr": r}` | per-queue crash/recovery: each queue alternates Up/Down sojourns, exponential with means `f` (time to failure) and `r` (time to repair) | `f, r` > 0, finite |
//! | `"stragglers": [{"start": a, "end": b, "factor": c, "queues": [..]}]` | service-rate multiplier `c` on `[a, b)`; `queues` restricts the window to listed queue indices (absent = all queues) | `0 ≤ a < b` finite, `c ≥ 0` finite, windows must not overlap in time |
//! | `"observation": {"drop_prob": p}` | each sync-snapshot refresh is independently *dropped* with probability `p`, so routing keeps using the previous (extra-stale) snapshot | `p ∈ [0, 1]` |
//! | `"overloads": [{"start": a, "end": b, "factor": c}]` | arrival-rate multiplier `c` on `[a, b)` (synthetic streams only — a replayed trace already fixes its arrivals) | `0 ≤ a < b` finite, `c ≥ 0` finite, windows must not overlap |
//!
//! # Semantics
//!
//! Faults are applied at **decision-epoch granularity**. At the start of
//! each sync interval `[t, t + Δt)` an engine asks the plan for three
//! things, the first two in one [`FaultPlan::open_interval`] call:
//!
//! * one *effective service-rate multiplier per queue*
//!   (`FaultPlan::service_multiplier`): the fraction of the interval
//!   the queue's server is Up under the crash renewal process, times the
//!   overlap-weighted straggler factor. Jobs whose service *starts*
//!   during the interval are served at `α · multiplier`; a multiplier of
//!   zero pauses new service starts entirely until the server recovers.
//! * one *arrival-rate multiplier* ([`FaultPlan::arrival_factor`]),
//!   overlap-weighted over the overload windows;
//! * whether this interval's observation refresh is dropped
//!   ([`FaultPlan::refresh_dropped`]).
//!
//! The crash process carries its Up/Down phase across epochs in one
//! flag per queue; because sojourns are exponential (memoryless), the
//! within-epoch renewal is re-keyed per epoch from
//! `(epoch_base, SALT, queue)` without changing the law.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Derives the RNG for one logical entity of one epoch.
///
/// SplitMix64 scramble of `(epoch_base ^ salt) + idx · φ64` — the same
/// construction (and the same bits) as the sharded graph engine's and
/// event engine's per-entity streams, shared here so fault streams, job
/// streams and service streams stay on disjoint salts of one scheme.
pub fn stream_rng(epoch_base: u64, salt: u64, idx: u64) -> StdRng {
    let mut z = (epoch_base ^ salt).wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Stream salt of the per-queue crash/recovery renewal draws.
const SALT_CRASH: u64 = 0xA76B_9E45_3D0C_8F21;
/// Stream salt of the per-epoch observation-refresh drop draw.
const SALT_OBS: u64 = 0x1F83_D9AB_FB41_BD6B;

/// Per-queue crash/recovery as an alternating renewal process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashFaults {
    /// Mean time to failure: mean of the exponential Up sojourn.
    pub mttf: f64,
    /// Mean time to repair: mean of the exponential Down sojourn.
    pub mttr: f64,
}

/// A service-rate multiplier window (slow — or overclocked — servers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StragglerWindow {
    /// Window start time (inclusive).
    pub start: f64,
    /// Window end time (exclusive).
    pub end: f64,
    /// Service-rate multiplier inside the window (`0` = fully stalled).
    pub factor: f64,
    /// Queue indices the window applies to; `None` = every queue.
    #[serde(default)]
    pub queues: Option<Vec<usize>>,
}

/// Observation-channel faults: dropped (hence extra-stale) sync snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationFaults {
    /// Probability that one interval's snapshot refresh is dropped.
    pub drop_prob: f64,
}

/// An arrival-rate multiplier window (overload burst).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadWindow {
    /// Window start time (inclusive).
    pub start: f64,
    /// Window end time (exclusive).
    pub end: f64,
    /// Arrival-rate multiplier inside the window.
    pub factor: f64,
}

/// A deterministic chaos schedule for one run. See the
/// [module docs](self) for the JSON schema and epoch semantics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-queue crash/recovery renewal process (`None` = servers never
    /// fail).
    #[serde(default)]
    pub crashes: Option<CrashFaults>,
    /// Straggler windows; validated pairwise non-overlapping in time.
    #[serde(default)]
    pub stragglers: Vec<StragglerWindow>,
    /// Observation-channel faults (`None` = every sync refresh lands).
    #[serde(default)]
    pub observation: Option<ObservationFaults>,
    /// Overload bursts; validated pairwise non-overlapping in time.
    #[serde(default)]
    pub overloads: Vec<OverloadWindow>,
}

/// Checks a time window's endpoints; `what` names it in complaints.
fn check_window(start: f64, end: f64, factor: f64, what: &str) -> Result<(), String> {
    if !(start.is_finite() && start >= 0.0) {
        return Err(format!("{what} start must be finite and ≥ 0, got {start}"));
    }
    if !(end.is_finite() && end > start) {
        return Err(format!("{what} needs start < end < ∞, got [{start}, {end})"));
    }
    if !(factor.is_finite() && factor >= 0.0) {
        return Err(format!("{what} factor must be finite and ≥ 0, got {factor}"));
    }
    Ok(())
}

/// Rejects pairwise time-overlap among `windows` (given as `[start, end)`
/// pairs); overlap would make the combined multiplier depend on plan
/// insertion order.
fn check_disjoint(windows: &[(f64, f64)], what: &str) -> Result<(), String> {
    let mut sorted: Vec<(f64, f64)> = windows.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    for pair in sorted.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b.0 < a.1 {
            return Err(format!(
                "{what} windows overlap: [{}, {}) and [{}, {})",
                a.0, a.1, b.0, b.1
            ));
        }
    }
    Ok(())
}

/// Overlap length of `[t0, t0 + dt)` with `[start, end)`.
fn overlap(t0: f64, dt: f64, start: f64, end: f64) -> f64 {
    (end.min(t0 + dt) - start.max(t0)).max(0.0)
}

/// Overlap-weighted multiplier of non-overlapping windows over
/// `[t0, t0 + dt)`: `1 + Σ_w (overlap_w / dt) · (factor_w − 1)`.
///
/// Windows are folded in ascending `start` order (a total order, since
/// validation rejects overlap), so the result is **bit-identical under
/// any insertion order** of the windows into the plan.
fn window_factor(windows: &[(f64, f64, f64)], t0: f64, dt: f64) -> f64 {
    match windows.len() {
        0 => 1.0,
        1 => {
            let (s, e, f) = windows[0];
            1.0 + overlap(t0, dt, s, e) / dt * (f - 1.0)
        }
        _ => {
            let mut hit: Vec<(f64, f64, f64)> =
                windows.iter().copied().filter(|&(s, e, _)| overlap(t0, dt, s, e) > 0.0).collect();
            hit.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut factor = 1.0;
            for (s, e, f) in hit {
                factor += overlap(t0, dt, s, e) / dt * (f - 1.0);
            }
            factor
        }
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, consumes no randomness.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_none()
            && self.stragglers.is_empty()
            && self.observation.is_none()
            && self.overloads.is_empty()
    }

    /// Whether any fault can change per-queue service (crashes or
    /// straggler windows).
    pub fn has_service_faults(&self) -> bool {
        self.crashes.is_some() || !self.stragglers.is_empty()
    }

    /// Checks every parameter; returns a human-readable complaint, like
    /// `Scenario::validate`.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(c) = &self.crashes {
            for (v, what) in [(c.mttf, "crash mttf"), (c.mttr, "crash mttr")] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{what} must be positive and finite, got {v}"));
                }
            }
        }
        for w in &self.stragglers {
            check_window(w.start, w.end, w.factor, "straggler window")?;
            if let Some(queues) = &w.queues {
                if queues.is_empty() {
                    return Err(
                        "straggler window lists no queues; omit `queues` to hit all".to_string()
                    );
                }
            }
        }
        check_disjoint(
            &self.stragglers.iter().map(|w| (w.start, w.end)).collect::<Vec<_>>(),
            "straggler",
        )?;
        if let Some(o) = &self.observation {
            if !(o.drop_prob.is_finite() && (0.0..=1.0).contains(&o.drop_prob)) {
                return Err(format!(
                    "observation drop_prob must lie in [0, 1], got {}",
                    o.drop_prob
                ));
            }
        }
        for w in &self.overloads {
            check_window(w.start, w.end, w.factor, "overload window")?;
        }
        check_disjoint(
            &self.overloads.iter().map(|w| (w.start, w.end)).collect::<Vec<_>>(),
            "overload",
        )
    }

    /// [`FaultPlan::validate`] plus bounds checks against a concrete
    /// system of `num_queues` queues.
    pub fn validate_for(&self, num_queues: usize) -> Result<(), String> {
        self.validate()?;
        for w in &self.stragglers {
            if let Some(queues) = &w.queues {
                if let Some(&j) = queues.iter().find(|&&j| j >= num_queues) {
                    return Err(format!(
                        "straggler window names queue {j}, but the system has {num_queues} queues"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Arrival-rate multiplier for the interval `[t0, t0 + dt)`:
    /// overlap-weighted over the overload windows. `1.0` when no window
    /// intersects the interval.
    pub fn arrival_factor(&self, t0: f64, dt: f64) -> f64 {
        if self.overloads.is_empty() {
            return 1.0;
        }
        let windows: Vec<(f64, f64, f64)> =
            self.overloads.iter().map(|w| (w.start, w.end, w.factor)).collect();
        window_factor(&windows, t0, dt)
    }

    /// Straggler multiplier for queue `j` over `[t0, t0 + dt)` —
    /// overlap-weighted over the straggler windows covering `j`.
    pub fn straggler_factor(&self, j: usize, t0: f64, dt: f64) -> f64 {
        if self.stragglers.is_empty() {
            return 1.0;
        }
        let windows: Vec<(f64, f64, f64)> = self
            .stragglers
            .iter()
            .filter(|w| w.queues.as_ref().is_none_or(|qs| qs.contains(&j)))
            .map(|w| (w.start, w.end, w.factor))
            .collect();
        window_factor(&windows, t0, dt)
    }

    /// Whether this interval's snapshot refresh is dropped. Draws one
    /// uniform from the `(epoch_base, SALT_OBS, 0)` stream — and nothing
    /// at all when no observation fault is configured.
    pub fn refresh_dropped(&self, epoch_base: u64) -> bool {
        match &self.observation {
            None => false,
            Some(o) if o.drop_prob <= 0.0 => false,
            Some(o) => stream_rng(epoch_base, SALT_OBS, 0).gen::<f64>() < o.drop_prob,
        }
    }

    /// Effective service-rate multiplier of queue `j` for the interval
    /// `[t0, t0 + dt)`: the fraction of the interval the server is Up
    /// under the crash renewal (advancing `*up` across the interval from
    /// the `(epoch_base, SALT_CRASH, j)` stream), times the straggler
    /// factor. Consumes no randomness when crashes are not configured.
    pub(crate) fn service_multiplier(
        &self,
        up: &mut bool,
        epoch_base: u64,
        j: usize,
        t0: f64,
        dt: f64,
    ) -> f64 {
        let mut frac = 1.0;
        if let Some(c) = &self.crashes {
            let mut rng = stream_rng(epoch_base, SALT_CRASH, j as u64);
            let mut t = 0.0;
            let mut up_time = 0.0;
            loop {
                let mean = if *up { c.mttf } else { c.mttr };
                let sojourn = -mean * (1.0 - rng.gen::<f64>()).ln();
                if t + sojourn >= dt {
                    if *up {
                        up_time += dt - t;
                    }
                    break;
                }
                if *up {
                    up_time += sojourn;
                }
                t += sojourn;
                *up = !*up;
            }
            frac = up_time / dt;
        }
        frac * self.straggler_factor(j, t0, dt)
    }

    /// Opens the interval `[t0, t0 + dt)` for a finite-system engine:
    /// fills `mult[j]` with queue `j`'s `service_multiplier`
    /// (advancing its crash phase `up[j]`) and returns the
    /// [`FaultPlan::arrival_factor`]. Without service faults `mult` is left
    /// as it is (engines keep it at all ones) and no randomness is drawn.
    pub fn open_interval(
        &self,
        epoch_base: u64,
        t0: f64,
        dt: f64,
        up: &mut [bool],
        mult: &mut [f64],
    ) -> f64 {
        if self.has_service_faults() {
            for (j, (up, mult)) in up.iter_mut().zip(mult.iter_mut()).enumerate() {
                *mult = self.service_multiplier(up, epoch_base, j, t0, dt);
            }
        }
        self.arrival_factor(t0, dt)
    }

    /// Serializes the plan as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault plan serialization cannot fail")
    }

    /// Parses and validates a plan from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let plan: FaultPlan =
            serde_json::from_str(json).map_err(|e| format!("fault plan parse error: {e}"))?;
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashy() -> FaultPlan {
        FaultPlan {
            crashes: Some(CrashFaults { mttf: 20.0, mttr: 5.0 }),
            stragglers: vec![StragglerWindow { start: 10.0, end: 20.0, factor: 0.5, queues: None }],
            observation: Some(ObservationFaults { drop_prob: 0.3 }),
            overloads: vec![OverloadWindow { start: 30.0, end: 40.0, factor: 2.0 }],
        }
    }

    #[test]
    fn empty_plan_is_empty_and_neutral() {
        let p = FaultPlan::empty();
        assert!(p.is_empty() && !p.has_service_faults());
        assert!(p.validate().is_ok());
        assert_eq!(p.arrival_factor(0.0, 5.0), 1.0);
        assert_eq!(p.straggler_factor(3, 0.0, 5.0), 1.0);
        assert!(!p.refresh_dropped(42));
        let mut up = true;
        assert_eq!(p.service_multiplier(&mut up, 42, 0, 0.0, 5.0), 1.0);
        assert!(up);
    }

    #[test]
    fn validation_accepts_good_and_rejects_bad_plans() {
        assert!(crashy().validate().is_ok());
        let reject = |mutate: fn(&mut FaultPlan), needle: &str| {
            let mut p = crashy();
            mutate(&mut p);
            let err = p.validate().expect_err(needle);
            assert!(err.contains(needle), "{err:?} should mention {needle}");
        };
        reject(|p| p.crashes = Some(CrashFaults { mttf: 20.0, mttr: -1.0 }), "mttr");
        reject(|p| p.crashes = Some(CrashFaults { mttf: f64::NAN, mttr: 1.0 }), "mttf");
        reject(
            |p| {
                p.stragglers.push(StragglerWindow {
                    start: 15.0,
                    end: 25.0,
                    factor: 0.1,
                    queues: None,
                })
            },
            "overlap",
        );
        reject(
            |p| p.overloads.push(OverloadWindow { start: 35.0, end: 45.0, factor: 3.0 }),
            "overlap",
        );
        reject(
            |p| {
                p.stragglers[0] =
                    StragglerWindow { start: 5.0, end: 5.0, factor: 1.0, queues: None }
            },
            "start < end",
        );
        reject(
            |p| {
                p.stragglers[0] =
                    StragglerWindow { start: 0.0, end: f64::INFINITY, factor: 1.0, queues: None }
            },
            "start < end",
        );
        reject(|p| p.observation = Some(ObservationFaults { drop_prob: 1.5 }), "drop_prob");
        reject(|p| p.overloads[0].factor = f64::NAN, "factor");
        reject(|p| p.stragglers[0].queues = Some(vec![]), "no queues");
        // Bounds against a concrete system.
        let mut p = crashy();
        p.stragglers[0].queues = Some(vec![0, 99]);
        assert!(p.validate_for(100).is_ok());
        let err = p.validate_for(50).unwrap_err();
        assert!(err.contains("queue 99"), "{err}");
    }

    #[test]
    fn window_factors_are_overlap_weighted() {
        let p = crashy();
        // Interval fully inside the straggler window.
        assert!((p.straggler_factor(0, 12.0, 4.0) - 0.5).abs() < 1e-12);
        // Half the interval overlaps: multiplier (1 + 0.5)/2 = 0.75.
        assert!((p.straggler_factor(0, 5.0, 10.0) - 0.75).abs() < 1e-12);
        // Disjoint interval.
        assert_eq!(p.straggler_factor(0, 50.0, 5.0), 1.0);
        // Overload burst doubles arrivals inside its window.
        assert!((p.arrival_factor(30.0, 10.0) - 2.0).abs() < 1e-12);
        assert!((p.arrival_factor(25.0, 10.0) - 1.5).abs() < 1e-12);
        // Per-queue restriction.
        let mut q = crashy();
        q.stragglers[0].queues = Some(vec![7]);
        assert!((q.straggler_factor(7, 12.0, 4.0) - 0.5).abs() < 1e-12);
        assert_eq!(q.straggler_factor(8, 12.0, 4.0), 1.0);
    }

    #[test]
    fn window_factor_is_insertion_order_independent() {
        let a = StragglerWindow { start: 0.0, end: 10.0, factor: 0.25, queues: None };
        let b = StragglerWindow { start: 15.0, end: 30.0, factor: 0.5, queues: None };
        let c = StragglerWindow { start: 40.0, end: 55.0, factor: 0.75, queues: None };
        let orders: Vec<Vec<StragglerWindow>> = vec![
            vec![a.clone(), b.clone(), c.clone()],
            vec![c.clone(), a.clone(), b.clone()],
            vec![b, c, a],
        ];
        let factors: Vec<u64> = orders
            .into_iter()
            .map(|stragglers| {
                let p = FaultPlan { stragglers, ..FaultPlan::empty() };
                assert!(p.validate().is_ok());
                // One long interval spanning all three windows.
                p.straggler_factor(0, 0.0, 60.0).to_bits()
            })
            .collect();
        assert_eq!(factors[0], factors[1]);
        assert_eq!(factors[0], factors[2]);
    }

    #[test]
    fn service_multiplier_is_a_pure_function_of_its_stream() {
        // Severe crash process: failures inside every interval are near
        // certain, so the up fraction is a continuous random variable.
        let p =
            FaultPlan { crashes: Some(CrashFaults { mttf: 1.0, mttr: 1.0 }), ..FaultPlan::empty() };
        let (mut up_a, mut up_b) = (true, true);
        let a = p.service_multiplier(&mut up_a, 0xDEAD, 3, 0.0, 5.0);
        let b = p.service_multiplier(&mut up_b, 0xDEAD, 3, 0.0, 5.0);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(up_a, up_b);
        assert!((0.0..=1.0).contains(&a));
        // Different queues get independent streams.
        let mut up_c = true;
        let c = p.service_multiplier(&mut up_c, 0xDEAD, 4, 0.0, 5.0);
        assert_ne!(a.to_bits(), c.to_bits());
        // The straggler factor multiplies on top of the crash fraction.
        let capped = FaultPlan {
            stragglers: vec![StragglerWindow { start: 0.0, end: 5.0, factor: 0.5, queues: None }],
            ..p.clone()
        };
        let mut up_d = true;
        let d = capped.service_multiplier(&mut up_d, 0xDEAD, 3, 0.0, 5.0);
        assert_eq!(d.to_bits(), (a * 0.5).to_bits());
    }

    #[test]
    fn crash_renewal_tracks_stationary_availability() {
        let p =
            FaultPlan { crashes: Some(CrashFaults { mttf: 8.0, mttr: 2.0 }), ..FaultPlan::empty() };
        let mut up = true;
        let mut total = 0.0;
        let epochs = 4000;
        for e in 0..epochs {
            total += p.service_multiplier(&mut up, e, 0, 0.0, 5.0);
        }
        let avail = total / epochs as f64;
        assert!((avail - 0.8).abs() < 0.02, "empirical availability {avail} vs 0.8");
    }

    #[test]
    fn refresh_drops_match_the_configured_probability() {
        let p = crashy();
        let drops = (0..10_000u64).filter(|&e| p.refresh_dropped(e)).count();
        let frac = drops as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "drop fraction {frac} vs 0.3");
        // Deterministic per epoch base.
        assert_eq!(p.refresh_dropped(77), p.refresh_dropped(77));
    }

    #[test]
    fn plans_round_trip_through_serde_and_reject_malformed_json() {
        let p = crashy();
        let back = FaultPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
        // `{}` is the empty plan.
        assert!(FaultPlan::from_json("{}").unwrap().is_empty());
        // from_json validates: negative MTTR parses but is rejected.
        let err = FaultPlan::from_json(r#"{"crashes": {"mttf": 5.0, "mttr": -1.0}}"#).unwrap_err();
        assert!(err.contains("mttr"), "{err}");
        let err = FaultPlan::from_json("not json").unwrap_err();
        assert!(err.contains("parse error"), "{err}");
    }
}
