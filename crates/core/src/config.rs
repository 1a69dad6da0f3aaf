//! System configuration (Table 1 of the paper).

use mflb_queue::mmpp::ArrivalProcess;
use serde::{Deserialize, Serialize};

/// Full description of a delayed-information load-balancing system.
///
/// `SystemConfig::paper()` reproduces Table 1; builder-style setters derive
/// variants for sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Synchronization delay Δt — the decision-epoch length (Table 1: 1–10).
    pub dt: f64,
    /// Service rate α of every queue (Table 1: 1).
    pub service_rate: f64,
    /// Markov-modulated arrival process for λ_t (Table 1: (0.9, 0.6) with
    /// the Eq. 32–33 kernel).
    pub arrivals: ArrivalProcess,
    /// Number of clients N (finite system only).
    pub num_clients: u64,
    /// Number of queues M (finite system only).
    pub num_queues: usize,
    /// Number of sampled accessible queues d (Table 1: 2).
    pub d: usize,
    /// Queue buffer size B (Table 1: 5).
    pub buffer: usize,
    /// Initial queue-state distribution ν₀ (Table 1: all queues empty).
    pub initial_dist: Vec<f64>,
    /// Discount factor γ for the control objective (Table 2: 0.99).
    pub gamma: f64,
    /// Training episode length T in decision epochs (Table 1: 500).
    pub train_episode_len: usize,
    /// Evaluation horizon in *time units*; the evaluation episode length is
    /// `round(eval_time / dt)` epochs (Table 1: ≈500 time units, so
    /// T_e ∈ 50–500).
    pub eval_time: f64,
    /// Holding cost per job per time unit added to the objective
    /// (`reward = −drops − holding_cost·E[queue length]·Δt`). The paper's
    /// objective is pure drops (`0`); a positive value activates the §5
    /// infinite-buffer-style extension where queueing delay itself is
    /// penalized (essential when `B` is large and drops vanish).
    #[serde(default)]
    pub holding_cost: f64,
}

impl SystemConfig {
    /// The paper's Table-1 configuration at a given synchronization delay
    /// and system size (N, M).
    pub fn paper() -> Self {
        Self {
            dt: 5.0,
            service_rate: 1.0,
            arrivals: ArrivalProcess::paper_default(),
            num_clients: 1_000_000,
            num_queues: 1_000,
            d: 2,
            buffer: 5,
            initial_dist: {
                let mut v = vec![0.0; 6];
                v[0] = 1.0;
                v
            },
            gamma: 0.99,
            train_episode_len: 500,
            eval_time: 500.0,
            holding_cost: 0.0,
        }
    }

    /// Activates the holding-cost objective extension.
    pub fn with_holding_cost(mut self, cost_per_job_time: f64) -> Self {
        assert!(cost_per_job_time >= 0.0 && cost_per_job_time.is_finite());
        self.holding_cost = cost_per_job_time;
        self
    }

    /// Sets the synchronization delay Δt.
    pub fn with_dt(mut self, dt: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite());
        self.dt = dt;
        self
    }

    /// Sets the system size; the paper's sweeps use `N = M²`.
    pub fn with_size(mut self, num_clients: u64, num_queues: usize) -> Self {
        assert!(num_clients >= 1 && num_queues >= 1);
        self.num_clients = num_clients;
        self.num_queues = num_queues;
        self
    }

    /// Sets `M` and derives `N = M²` (the paper's Fig. 4–5 scaling).
    pub fn with_m_squared(self, m: usize) -> Self {
        let n = (m as u64) * (m as u64);
        self.with_size(n, m)
    }

    /// Sets the buffer size B (resizes ν₀ to "all empty" accordingly).
    pub fn with_buffer(mut self, buffer: usize) -> Self {
        assert!(buffer >= 1);
        self.buffer = buffer;
        let mut v = vec![0.0; buffer + 1];
        v[0] = 1.0;
        self.initial_dist = v;
        self
    }

    /// Sets the number of sampled queues d.
    pub fn with_d(mut self, d: usize) -> Self {
        assert!(d >= 1);
        self.d = d;
        self
    }

    /// Sets the arrival process.
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Number of queue states `|Z| = B + 1`.
    pub fn num_states(&self) -> usize {
        self.buffer + 1
    }

    /// Number of agent observation tuples `|Z|^d`.
    pub fn num_obs_tuples(&self) -> usize {
        self.num_states().pow(self.d as u32)
    }

    /// Evaluation episode length in epochs: the integer nearest to
    /// `eval_time / Δt` (the paper's `T_e ≈ 500/Δt`).
    pub fn eval_episode_len(&self) -> usize {
        ((self.eval_time / self.dt).round() as usize).max(1)
    }

    /// Validates internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_dist.len() != self.num_states() {
            return Err(format!(
                "initial_dist has {} entries, expected {}",
                self.initial_dist.len(),
                self.num_states()
            ));
        }
        let mass: f64 = self.initial_dist.iter().sum();
        if (mass - 1.0).abs() > 1e-9 || self.initial_dist.iter().any(|&p| p < 0.0) {
            return Err("initial_dist is not a probability distribution".into());
        }
        if !(self.gamma > 0.0 && self.gamma < 1.0) {
            return Err("gamma must lie in (0,1)".into());
        }
        // Queues are sampled WITH replacement (the paper allows repeated
        // selections), so d may exceed M; only d = 0 is meaningless.
        if self.d == 0 {
            return Err("d must be at least 1".into());
        }
        check_rule_table(self.num_states(), self.d)?;
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(format!("dt must be positive and finite, got {}", self.dt));
        }
        if !(self.service_rate > 0.0 && self.service_rate.is_finite()) {
            return Err(format!(
                "service_rate must be positive and finite, got {}",
                self.service_rate
            ));
        }
        let rate = self.service_rate.max(self.arrivals.max_rate());
        if self.dt * rate > MAX_EPOCH_EVENTS {
            return Err(format!(
                "dt = {} at rate {rate} means {} expected events per queue per epoch, \
                 more than the cap of {MAX_EPOCH_EVENTS}",
                self.dt,
                self.dt * rate
            ));
        }
        if !(self.holding_cost >= 0.0 && self.holding_cost.is_finite()) {
            return Err(format!(
                "holding_cost must be non-negative and finite, got {}",
                self.holding_cost
            ));
        }
        if self.num_queues == 0 {
            return Err("num_queues must be at least 1".into());
        }
        if self.num_clients == 0 {
            return Err("num_clients must be at least 1".into());
        }
        if self.buffer == 0 {
            return Err("buffer must be at least 1".into());
        }
        if self.train_episode_len == 0 {
            return Err("train_episode_len must be at least 1".into());
        }
        if !(self.eval_time > 0.0 && self.eval_time.is_finite()) {
            return Err(format!("eval_time must be positive and finite, got {}", self.eval_time));
        }
        if self.eval_time / self.dt > MAX_EVAL_EPOCHS as f64 {
            return Err(format!(
                "eval_time = {:e} at dt = {} means {:e} evaluation epochs, more than the \
                 cap of {MAX_EVAL_EPOCHS}",
                self.eval_time,
                self.dt,
                self.eval_time / self.dt
            ));
        }
        Ok(())
    }
}

/// Largest `dt × max(service_rate, top arrival level)` — the expected
/// number of events per queue in one epoch — a configuration may imply.
/// The epoch kernel's cost grows linearly in it (one uniformization
/// substep per 500 expected events), and `tests/epoch_kernel.rs` in
/// `mflb-linalg` bounds its error up to this edge; the largest epoch any
/// shipped experiment uses is 60.
pub const MAX_EPOCH_EVENTS: f64 = 1e4;

/// Largest evaluation horizon `eval_time / dt`, in epochs, a
/// configuration may imply. The paper's longest is 500 (`Δt = 1`); the
/// cap keeps every `simulate`, `eval` and `serve` run finite.
pub const MAX_EVAL_EPOCHS: usize = 1_000_000;

/// Largest decision-rule table, in entries `|Z|^d·d`, a configuration may
/// imply. Every rule, policy and training env materializes the full table.
const MAX_RULE_ENTRIES: usize = 1 << 24;

/// Checks that a decision rule over `rule_states` states with `d` samples
/// has at most 2^24 entries, the cap every rule table is held to.
pub fn check_rule_table(rule_states: usize, d: usize) -> Result<(), String> {
    let entries = u32::try_from(d)
        .ok()
        .and_then(|e| rule_states.checked_pow(e))
        .and_then(|n| n.checked_mul(d));
    match entries {
        Some(n) if n <= MAX_RULE_ENTRIES => Ok(()),
        _ => Err(format!(
            "a decision rule over {rule_states} states with d = {d} needs \
             {rule_states}^{d}·{d} entries, more than the cap of 2^24"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_table1() {
        let c = SystemConfig::paper();
        c.validate().unwrap();
        assert_eq!(c.service_rate, 1.0);
        assert_eq!(c.d, 2);
        assert_eq!(c.buffer, 5);
        assert_eq!(c.num_states(), 6);
        assert_eq!(c.num_obs_tuples(), 36);
        assert_eq!(c.train_episode_len, 500);
        assert_eq!(c.arrivals.level_rate(0), 0.9);
    }

    #[test]
    fn eval_len_rounds_to_nearest() {
        let c = SystemConfig::paper();
        assert_eq!(c.clone().with_dt(5.0).eval_episode_len(), 100);
        assert_eq!(c.clone().with_dt(1.0).eval_episode_len(), 500);
        assert_eq!(c.clone().with_dt(10.0).eval_episode_len(), 50);
        assert_eq!(c.clone().with_dt(3.0).eval_episode_len(), 167);
    }

    #[test]
    fn m_squared_scaling() {
        let c = SystemConfig::paper().with_m_squared(400);
        assert_eq!(c.num_queues, 400);
        assert_eq!(c.num_clients, 160_000);
    }

    #[test]
    fn with_buffer_resizes_initial_dist() {
        let c = SystemConfig::paper().with_buffer(9);
        assert_eq!(c.num_states(), 10);
        assert_eq!(c.initial_dist.len(), 10);
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_initial_dist() {
        let mut c = SystemConfig::paper();
        c.initial_dist = vec![0.5; 6];
        assert!(c.validate().is_err());
    }

    fn rejection(edit: impl FnOnce(&mut SystemConfig)) -> String {
        let mut c = SystemConfig::paper();
        edit(&mut c);
        c.validate().expect_err("config must be rejected")
    }

    #[test]
    fn validate_rejects_zero_train_episode_len() {
        assert!(rejection(|c| c.train_episode_len = 0).contains("train_episode_len"));
    }

    #[test]
    fn validate_rejects_non_positive_service_rate() {
        assert!(rejection(|c| c.service_rate = -1.0).contains("service_rate"));
        assert!(rejection(|c| c.service_rate = 0.0).contains("service_rate"));
        assert!(rejection(|c| c.service_rate = f64::INFINITY).contains("service_rate"));
    }

    #[test]
    fn validate_rejects_bad_dt() {
        assert!(rejection(|c| c.dt = 0.0).contains("dt"));
        assert!(rejection(|c| c.dt = -5.0).contains("dt"));
        assert!(rejection(|c| c.dt = f64::NAN).contains("dt"));
        assert!(rejection(|c| c.dt = f64::INFINITY).contains("dt"));
    }

    #[test]
    fn validate_caps_the_events_per_epoch() {
        // 1e20 used to panic inside the epoch's matrix exponential, 1e18
        // reported more drops than jobs can arrive.
        assert!(rejection(|c| c.dt = 1e20).contains("events per queue per epoch"));
        assert!(rejection(|c| c.dt = 1e18).contains("events per queue per epoch"));
        // The bound applies to the faster of service and the top arrival
        // level, and the cap itself is admitted.
        assert!(rejection(|c| c.service_rate = 2.0 * MAX_EPOCH_EVENTS).contains("events"));
        SystemConfig::paper().with_dt(MAX_EPOCH_EVENTS).validate().unwrap();
        SystemConfig::paper().with_dt(60.0).validate().unwrap();
    }

    #[test]
    fn validate_bounds_the_eval_horizon() {
        assert!(rejection(|c| c.eval_time = -1.0).contains("eval_time"));
        assert!(rejection(|c| c.eval_time = 0.0).contains("eval_time"));
        assert!(rejection(|c| c.eval_time = f64::NAN).contains("eval_time"));
        assert!(rejection(|c| c.eval_time = f64::INFINITY).contains("eval_time"));
        // 1e300 used to saturate the episode length to usize::MAX.
        assert!(rejection(|c| c.eval_time = 1e300).contains("evaluation epochs"));
        // The cap itself is admitted, and one epoch past it is not.
        let at_cap = |dt: f64| {
            let mut c = SystemConfig::paper().with_dt(dt);
            c.eval_time = MAX_EVAL_EPOCHS as f64 * dt;
            c
        };
        at_cap(0.5).validate().unwrap();
        assert_eq!(at_cap(0.5).eval_episode_len(), MAX_EVAL_EPOCHS);
        let mut over = at_cap(0.5);
        over.eval_time += 0.5;
        assert!(over.validate().unwrap_err().contains("evaluation epochs"));
    }

    #[test]
    fn validate_rejects_zero_queues() {
        assert!(rejection(|c| c.num_queues = 0).contains("num_queues"));
    }

    #[test]
    fn validate_rejects_negative_holding_cost() {
        assert!(rejection(|c| c.holding_cost = -0.1).contains("holding_cost"));
        assert!(rejection(|c| c.holding_cost = f64::NAN).contains("holding_cost"));
    }

    #[test]
    fn validate_rejects_oversized_rule_tables() {
        // d = 40 overflows usize; 6^10·10 ≈ 6·10^8 fits but exceeds the cap.
        assert!(rejection(|c| c.d = 40).contains("2^24"));
        assert!(rejection(|c| c.d = 10).contains("2^24"));
        // The largest table in use (B = 300, d = 2: 181,202 entries) passes.
        SystemConfig::paper().with_buffer(300).validate().unwrap();
        assert!(check_rule_table(2896, 2).is_ok());
        assert!(check_rule_table(2897, 2).is_err());
        assert!(check_rule_table(usize::MAX, 2).is_err());
    }
}
