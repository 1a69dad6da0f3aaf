//! Cross-entropy method (CEM) over policy parameters — the
//! derivative-free baseline of the learner ablation.
//!
//! CEM maintains a diagonal Gaussian over the *parameter vector* of a
//! deterministic policy network. Each generation samples a population,
//! scores every candidate by Monte-Carlo episode returns (all candidates
//! share the same episode seeds — common random numbers — so ranking
//! noise cancels), refits the Gaussian to the elite fraction, and adds a
//! decaying exploration floor to the standard deviations.
//!
//! Strengths for the MFC MDP: no gradient plumbing, immune to the
//! credit-assignment horizon, embarrassingly parallel (candidates are
//! evaluated on crossbeam worker threads). Weakness: sample complexity
//! grows with the parameter count — which is exactly the trade-off the
//! `ablation_learners` experiment quantifies against PPO/REINFORCE.

use crate::env::Env;
use mflb_nn::{standard_normal, Activation, Mlp};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// CEM hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CemConfig {
    /// Candidates per generation.
    pub population: usize,
    /// Fraction of the population refit as elites.
    pub elite_frac: f64,
    /// Initial parameter standard deviation.
    pub init_std: f64,
    /// Additive exploration noise at generation `g`:
    /// `extra_noise / (g + 1)` is added to every refit std.
    pub extra_noise: f64,
    /// Lower bound on every std (keeps exploration alive).
    pub min_std: f64,
    /// Episodes averaged per candidate evaluation.
    pub episodes_per_eval: usize,
    /// Hidden layer widths of the policy network.
    pub hidden: Vec<usize>,
    /// Evaluation worker threads (0 → available parallelism).
    pub threads: usize,
}

impl Default for CemConfig {
    fn default() -> Self {
        Self {
            population: 32,
            elite_frac: 0.25,
            init_std: 0.5,
            extra_noise: 0.1,
            min_std: 1e-3,
            episodes_per_eval: 2,
            hidden: vec![32, 32],
            threads: 0,
        }
    }
}

/// Per-generation statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CemStats {
    /// Generation counter (1-based).
    pub generation: u64,
    /// Cumulative environment steps.
    pub total_steps: u64,
    /// Best candidate return this generation.
    pub best_return: f64,
    /// Mean return of the elite set.
    pub elite_mean_return: f64,
    /// Return of the current distribution mean (evaluated once).
    pub mean_candidate_return: f64,
    /// Average parameter standard deviation (exploration level).
    pub mean_std: f64,
}

/// The CEM trainer.
pub struct CemTrainer {
    cfg: CemConfig,
    template: Mlp,
    mean: Vec<f64>,
    std: Vec<f64>,
    env: Box<dyn Env>,
    total_steps: u64,
    generation: u64,
    seed: u64,
}

impl CemTrainer {
    /// Creates a trainer for environments shaped like `prototype`.
    pub fn new(prototype: &dyn Env, cfg: CemConfig, seed: u64) -> Self {
        assert!(cfg.population >= 2);
        assert!((0.0..=1.0).contains(&cfg.elite_frac) && cfg.elite_frac > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sizes = vec![prototype.obs_dim()];
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(prototype.act_dim());
        let template = Mlp::new(&sizes, Activation::Tanh, &mut rng);
        let mean = template.params_vec();
        let std = vec![cfg.init_std; mean.len()];
        Self {
            cfg,
            template,
            mean,
            std,
            env: prototype.boxed_clone(),
            total_steps: 0,
            generation: 0,
            seed,
        }
    }

    /// Number of searched parameters.
    pub fn num_params(&self) -> usize {
        self.mean.len()
    }

    /// Cumulative environment steps.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// The current mean policy as a network.
    pub fn policy_net(&self) -> Mlp {
        let mut net = self.template.clone();
        net.read_params(&self.mean);
        net
    }

    /// Deterministic action of the current mean policy.
    pub fn deterministic_action(&self, obs: &[f64]) -> Vec<f64> {
        self.policy_net().forward_one(obs)
    }

    /// Scores one parameter vector: mean return over
    /// `episodes_per_eval` episodes with the given per-generation seeds.
    fn evaluate(
        env: &mut dyn Env,
        template: &Mlp,
        params: &[f64],
        episode_seeds: &[u64],
    ) -> (f64, u64) {
        let mut net = template.clone();
        net.read_params(params);
        let mut total = 0.0;
        let mut steps = 0u64;
        for &ep_seed in episode_seeds {
            let mut rng = StdRng::seed_from_u64(ep_seed);
            let mut obs = env.reset(&mut rng);
            loop {
                let action = net.forward_one(&obs);
                let r = env.step(&action, &mut rng);
                total += r.reward;
                steps += 1;
                obs = r.obs;
                if r.done {
                    break;
                }
            }
        }
        (total / episode_seeds.len() as f64, steps)
    }

    /// Runs one CEM generation.
    pub fn train_iteration(&mut self, rng: &mut StdRng) -> CemStats {
        self.generation += 1;
        let pop = self.cfg.population;
        let dim = self.mean.len();

        // Common random numbers: every candidate sees the same episodes.
        let episode_seeds: Vec<u64> = (0..self.cfg.episodes_per_eval)
            .map(|e| self.seed ^ (self.generation * 1000 + e as u64))
            .collect();

        // Sample the population (mean itself is evaluated as candidate 0,
        // elitism for free and a progress probe).
        let mut candidates: Vec<Vec<f64>> = Vec::with_capacity(pop);
        candidates.push(self.mean.clone());
        for _ in 1..pop {
            let mut theta = vec![0.0; dim];
            for k in 0..dim {
                theta[k] = self.mean[k] + self.std[k] * standard_normal(rng);
            }
            candidates.push(theta);
        }

        // Parallel evaluation; results slotted by candidate index so the
        // outcome is independent of scheduling.
        let threads = mflb_core::worker_count(self.cfg.threads).min(pop);
        let scores: Mutex<Vec<(f64, u64)>> = Mutex::new(vec![(f64::NAN, 0); pop]);
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let template = &self.template;
        let seeds = &episode_seeds;
        let cands = &candidates;
        // Env is Send but not Sync: clone per worker on this thread, then
        // move each clone into its worker.
        let worker_envs: Vec<Box<dyn Env>> = (0..threads).map(|_| self.env.boxed_clone()).collect();
        crossbeam::scope(|scope| {
            for mut env in worker_envs {
                let counter = &counter;
                let scores = &scores;
                scope.spawn(move |_| loop {
                    let i = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= pop {
                        break;
                    }
                    let result = Self::evaluate(env.as_mut(), template, &cands[i], seeds);
                    scores.lock()[i] = result;
                });
            }
        })
        .expect("CEM evaluation worker panicked");
        let scores = scores.into_inner();
        self.total_steps += scores.iter().map(|&(_, s)| s).sum::<u64>();

        // Elite refit.
        let n_elite = ((pop as f64 * self.cfg.elite_frac).round() as usize).clamp(1, pop);
        let mut order: Vec<usize> = (0..pop).collect();
        order.sort_by(|&a, &b| scores[b].0.partial_cmp(&scores[a].0).unwrap());
        let elites = &order[..n_elite];
        let extra = self.cfg.extra_noise / self.generation as f64;
        for k in 0..dim {
            let m: f64 = elites.iter().map(|&i| candidates[i][k]).sum::<f64>() / n_elite as f64;
            let v: f64 = elites
                .iter()
                .map(|&i| (candidates[i][k] - m) * (candidates[i][k] - m))
                .sum::<f64>()
                / n_elite as f64;
            self.mean[k] = m;
            self.std[k] = (v.sqrt() + extra).max(self.cfg.min_std);
        }

        CemStats {
            generation: self.generation,
            total_steps: self.total_steps,
            best_return: scores[order[0]].0,
            elite_mean_return: elites.iter().map(|&i| scores[i].0).sum::<f64>() / n_elite as f64,
            mean_candidate_return: scores[0].0,
            mean_std: self.std.iter().sum::<f64>() / dim as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ToyControlEnv;

    #[test]
    fn cem_improves_on_toy_control() {
        let env = ToyControlEnv::new(10);
        let cfg = CemConfig {
            population: 24,
            episodes_per_eval: 2,
            hidden: vec![8],
            ..CemConfig::default()
        };
        let mut trainer = CemTrainer::new(&env, cfg, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut first = f64::NAN;
        let mut last = f64::NAN;
        for g in 0..25 {
            let stats = trainer.train_iteration(&mut rng);
            if g == 0 {
                first = stats.mean_candidate_return;
            }
            last = stats.mean_candidate_return;
        }
        // Losses shrink towards 0 (optimal return for this task is ≈ 0).
        assert!(last > first && last > -0.05, "CEM failed to improve: {first} -> {last}");
        let a_pos = trainer.deterministic_action(&[1.0])[0];
        let a_neg = trainer.deterministic_action(&[-1.0])[0];
        assert!(a_pos < -0.2, "action at x=1 should be negative, got {a_pos}");
        assert!(a_neg > 0.2, "action at x=-1 should be positive, got {a_neg}");
    }

    #[test]
    fn exploration_std_decays_but_respects_floor() {
        let env = ToyControlEnv::new(5);
        let cfg =
            CemConfig { population: 16, min_std: 0.05, hidden: vec![4], ..CemConfig::default() };
        let mut trainer = CemTrainer::new(&env, cfg, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let s1 = trainer.train_iteration(&mut rng);
        let mut last = s1.mean_std;
        for _ in 0..10 {
            last = trainer.train_iteration(&mut rng).mean_std;
        }
        assert!(last < s1.mean_std, "std should shrink: {} -> {last}", s1.mean_std);
        assert!(trainer.std.iter().all(|&s| s >= 0.05 - 1e-12), "floor violated");
    }

    #[test]
    fn thread_count_does_not_change_the_search() {
        let env = ToyControlEnv::new(5);
        let run = |threads: usize| {
            let cfg =
                CemConfig { population: 12, hidden: vec![4], threads, ..CemConfig::default() };
            let mut t = CemTrainer::new(&env, cfg, 7);
            let mut rng = StdRng::seed_from_u64(8);
            let mut v = Vec::new();
            for _ in 0..3 {
                let s = t.train_iteration(&mut rng);
                v.push((s.best_return, s.elite_mean_return));
            }
            v
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn elite_mean_is_at_least_population_best_bound() {
        let env = ToyControlEnv::new(5);
        let cfg = CemConfig { population: 10, hidden: vec![4], ..CemConfig::default() };
        let mut trainer = CemTrainer::new(&env, cfg, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let s = trainer.train_iteration(&mut rng);
        assert!(s.best_return >= s.elite_mean_return);
        assert!(s.total_steps > 0);
        assert_eq!(s.generation, 1);
    }
}
