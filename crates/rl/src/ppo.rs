//! Proximal Policy Optimization (Schulman et al. 2017), hand-rolled.
//!
//! Matches the paper's RLlib setup (Table 2): clipped surrogate objective
//! *plus* an adaptive KL penalty, GAE(λ) advantages, tanh MLPs for policy
//! and value, diagonal Gaussian actions with state-independent log-stds,
//! minibatch Adam. Rollouts are collected by parallel workers (crossbeam
//! scoped threads), mirroring the paper's 20-core training.
//!
//! # Rollout determinism
//!
//! Rollout collection is **episode-indexed**: every episode `e` (a global,
//! monotonically increasing counter) draws all of its randomness from an RNG
//! seeded by `(training seed, e)`, workers pull episode indices from a shared
//! atomic counter, and the collected episodes are merged back **in episode
//! order**. The content of a rollout batch therefore depends only on the
//! seed and the networks — *not* on [`PpoConfig::rollout_threads`] or on OS
//! scheduling — so training with 1 worker and with `k` workers produces
//! bit-identical networks (verified by `tests/training_determinism.rs`).
//!
//! # The update's two heads
//!
//! [`PpoTrainer::update`] trains two heads that share nothing but the
//! batch and the minibatch sample orders: the policy head (network plus
//! Gaussian `log_std`, one Adam) and the value head (value network, its own
//! Adam). The orders, the update's only use of its RNG, are drawn for all
//! epochs before either head starts. With `rollout_threads ≥ 2` the value
//! head then runs on a scoped thread, with its own gather buffer and
//! workspace, while the calling thread runs the policy head; with one
//! thread both run inline. Each head performs the same arithmetic in the
//! same order either way, so the trained networks do not depend on the
//! thread count. Inside the policy head the Gaussian's exponentials
//! ([`LogStdExps`]) are computed once per minibatch, since `log_std` only
//! moves at the Adam step that ends one.
//!
//! Loss per minibatch sample `i` with ratio `r_i = exp(lnπ(a|s) − lnπ_old)`:
//!
//! ```text
//! L_i = −min(r_i·Â_i, clip(r_i, 1±ε)·Â_i) + c_KL·KL(π_old‖π) − c_H·H(π)
//! ```
//!
//! with `c_KL` adapted towards a KL target as in RLlib.

use crate::buffer::RolloutBuffer;
use crate::env::Env;
use mflb_nn::{clip_grad_norm, Activation, Adam, DiagGaussian, LogStdExps, Mlp, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// PPO hyper-parameters. [`PpoConfig::paper`] reproduces Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub gae_lambda: f64,
    /// Clip parameter ε.
    pub clip: f64,
    /// Initial KL penalty coefficient β.
    pub kl_coeff: f64,
    /// KL target for the adaptive coefficient (RLlib default 0.01).
    pub kl_target: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Environment steps collected per iteration.
    pub train_batch_size: usize,
    /// SGD minibatch size.
    pub minibatch_size: usize,
    /// SGD epochs per iteration.
    pub num_epochs: usize,
    /// Entropy bonus coefficient (RLlib default 0).
    pub entropy_coeff: f64,
    /// Global gradient-norm clip.
    pub grad_clip: f64,
    /// Initial `log σ` of the Gaussian head.
    pub initial_log_std: f64,
    /// Hidden layer widths of both networks.
    pub hidden: Vec<usize>,
    /// Number of parallel rollout worker threads. Purely a throughput
    /// knob: collected batches are identical for every value (see the
    /// module docs on rollout determinism).
    pub rollout_threads: usize,
}

impl PpoConfig {
    /// Table 2 of the paper: γ=0.99, λ_RL=1, KL coeff 0.2, clip 0.3,
    /// lr 5·10⁻⁵, batch 4000, minibatch 128, 30 epochs; 2×256 tanh nets.
    pub fn paper() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 1.0,
            clip: 0.3,
            kl_coeff: 0.2,
            kl_target: 0.01,
            lr: 5e-5,
            train_batch_size: 4000,
            minibatch_size: 128,
            num_epochs: 30,
            entropy_coeff: 0.0,
            grad_clip: 10.0,
            initial_log_std: 0.0,
            hidden: vec![256, 256],
            rollout_threads: 1,
        }
    }

    /// A reduced configuration for CI-scale smoke training: smaller nets,
    /// batches and epoch counts, higher learning rate.
    pub fn quick() -> Self {
        Self {
            lr: 3e-4,
            train_batch_size: 1024,
            minibatch_size: 128,
            num_epochs: 8,
            hidden: vec![64, 64],
            ..Self::paper()
        }
    }
}

/// Per-iteration training statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration counter (1-based after the first call).
    pub iteration: u64,
    /// Cumulative environment steps.
    pub total_steps: u64,
    /// Episodes completed during this iteration's rollouts.
    pub episodes_completed: usize,
    /// Mean return of those episodes (NaN if none completed).
    pub mean_episode_return: f64,
    /// Mean surrogate policy loss over the last epoch.
    pub policy_loss: f64,
    /// Mean value loss over the last epoch.
    pub value_loss: f64,
    /// Mean KL(π_old‖π) over the last epoch.
    pub mean_kl: f64,
    /// Mean policy entropy.
    pub entropy: f64,
    /// Current (post-adaptation) KL coefficient.
    pub kl_coeff: f64,
}

/// Statistics of one rollout-collection phase ([`PpoTrainer::collect_batch`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectStats {
    /// Episodes that terminated inside the collected steps.
    pub episodes_completed: usize,
    /// Mean return of those episodes (NaN if none completed).
    pub mean_episode_return: f64,
}

/// Statistics of one minibatch-SGD phase ([`PpoTrainer::update`]): the
/// last epoch's per-minibatch means.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Mean surrogate policy loss.
    pub policy_loss: f64,
    /// Mean value loss.
    pub value_loss: f64,
    /// Mean KL(π_old‖π).
    pub mean_kl: f64,
    /// Mean policy entropy.
    pub entropy: f64,
}

/// Per-worker inference scratch: the policy and value [`Workspace`]s a
/// rollout worker reuses for every step of every episode it collects.
#[derive(Default)]
struct RolloutScratch {
    policy: Workspace,
    value: Workspace,
}

/// The policy head: network, Gaussian `log_std`, their joint Adam state
/// and the long-lived scratch of its minibatch loop. All buffers reshape in
/// place, so a warmed-up [`PpoTrainer::update`] performs O(1) heap
/// allocations (verified by `tests/update_allocations.rs`).
struct PolicyHead {
    net: Mlp,
    log_std: Vec<f64>,
    /// Adam over `[network params ‖ log_std]`.
    opt: Adam,
    /// Minibatch observation gather.
    obs: Tensor,
    /// Activations/gradients/flat-grad, whose tail holds the `log_std`
    /// gradients for joint norm clipping.
    ws: Workspace,
    /// `∂L/∂μ` per minibatch row.
    grad_mean: Tensor,
    /// `∂L/∂log_std` accumulator.
    grad_log_std: Vec<f64>,
    /// Exponentials of `log_std`, refreshed once per minibatch.
    exps: LogStdExps,
    /// Exponentials of the batch's behaviour `log_std`.
    behaviour: LogStdExps,
}

/// The value head: network, its Adam state and its own minibatch scratch,
/// so it can train on another thread while the policy head trains.
struct ValueHead {
    net: Mlp,
    opt: Adam,
    /// Minibatch observation gather.
    obs: Tensor,
    /// Activations/gradients/flat-grad.
    ws: Workspace,
    /// Output gradient.
    vgrad: Tensor,
}

/// The policy head's last-epoch means (see [`UpdateStats`]).
struct PolicyStats {
    loss: f64,
    kl: f64,
    entropy: f64,
}

/// Copies the observations of the `chunk` rows into `obs`.
fn gather(obs: &mut Tensor, buffer: &RolloutBuffer, chunk: &[usize]) {
    let obs_dim = buffer.obs.first().map_or(0, Vec::len);
    obs.reset(chunk.len(), obs_dim);
    for (row, &idx) in chunk.iter().enumerate() {
        obs.row_mut(row).copy_from_slice(&buffer.obs[idx]);
    }
}

/// Draws every epoch's sample order up front into `orders` (`epochs`
/// slices of length `n`): epoch `e` is a Fisher–Yates shuffle of epoch
/// `e − 1`'s order (of `0..n` for the first), so the draws and the orders
/// are those of one index vector reshuffled at the start of each epoch.
fn draw_orders(orders: &mut Vec<usize>, n: usize, epochs: usize, rng: &mut StdRng) {
    orders.clear();
    for e in 0..epochs {
        if e == 0 {
            orders.extend(0..n);
        } else {
            orders.extend_from_within((e - 1) * n..e * n);
        }
        let order = &mut orders[e * n..];
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
    }
}

/// The per-epoch slices of orders drawn by [`draw_orders`].
fn epoch_orders(orders: &[usize], epochs: usize) -> impl Iterator<Item = &[usize]> {
    let n = orders.len() / epochs.max(1);
    (0..epochs).map(move |e| &orders[e * n..(e + 1) * n])
}

impl PolicyHead {
    /// Runs every epoch of clipped-surrogate + KL-penalty minibatch SGD on
    /// the policy network and `log_std`, over the epoch `orders`.
    fn fit(
        &mut self,
        cfg: &PpoConfig,
        kl_coeff: f64,
        buffer: &RolloutBuffer,
        orders: &[usize],
    ) -> PolicyStats {
        let act_dim = self.log_std.len();
        let Self { net, log_std, opt, obs, ws, grad_mean, grad_log_std, exps, behaviour } = self;
        behaviour.set(&buffer.behaviour_log_std);
        grad_log_std.clear();
        grad_log_std.resize(act_dim, 0.0);
        let mut last = PolicyStats { loss: 0.0, kl: 0.0, entropy: 0.0 };

        for order in epoch_orders(orders, cfg.num_epochs) {
            let mut epoch = PolicyStats { loss: 0.0, kl: 0.0, entropy: 0.0 };
            let mut minibatches = 0usize;
            for chunk in order.chunks(cfg.minibatch_size) {
                let b = chunk.len();
                gather(obs, buffer, chunk);
                // Forward through the workspace (activations stay alive
                // for the backward pass below).
                net.forward_into(obs, ws);

                grad_mean.reset(b, act_dim);
                grad_mean.fill(0.0);
                for g in grad_log_std.iter_mut() {
                    *g = 0.0;
                }
                // `log_std` only changes at the Adam step that ends the
                // minibatch, so its exponentials are shared by every row.
                exps.set(log_std);
                let mut policy_loss = 0.0;
                let mut kl_sum = 0.0;
                // Entropy is mean-independent for a diagonal Gaussian, so
                // it comes straight from the exploration head.
                let entropy = DiagGaussian::entropy_from_log_std(log_std);
                let inv_b = 1.0 / b as f64;

                let means = ws.output();
                for (row, &idx) in chunk.iter().enumerate() {
                    let mean_new = means.row(row);
                    let action = &buffer.actions[idx];
                    let new_logp = exps.log_prob(mean_new, action);
                    let ratio = (new_logp - buffer.log_probs[idx]).exp();
                    let adv = buffer.advantages[idx];

                    // Clipped surrogate.
                    let unclipped = ratio * adv;
                    let clipped = ratio.clamp(1.0 - cfg.clip, 1.0 + cfg.clip) * adv;
                    let surrogate = unclipped.min(clipped);
                    policy_loss -= surrogate * inv_b;
                    // d(−surrogate)/d new_logp = −ratio·adv when the
                    // unclipped branch is active (min picks it), else 0.
                    let surr_coeff = if unclipped <= clipped { -ratio * adv * inv_b } else { 0.0 };

                    // Exact diagonal-Gaussian KL(old‖new) and its
                    // gradients, accumulated into the row slice.
                    let mean_old = &buffer.means[idx];
                    let gm_row = grad_mean.row_mut(row);
                    let mut kl = 0.0;
                    for k in 0..act_dim {
                        let ls_old = behaviour.log_std()[k];
                        let ls_new = log_std[k];
                        let var_old = behaviour.var()[k];
                        let inv_var_new = exps.inv_var()[k];
                        let dmean = mean_new[k] - mean_old[k];
                        kl += ls_new - ls_old + 0.5 * (var_old + dmean * dmean) * inv_var_new - 0.5;
                        // Gradients of the KL penalty term (coefficient
                        // applied below).
                        let kl_grad_mean = dmean * inv_var_new;
                        let kl_grad_ls = 1.0 - (var_old + dmean * dmean) * inv_var_new;
                        let c = kl_coeff * inv_b;
                        gm_row[k] += c * kl_grad_mean;
                        grad_log_std[k] += c * kl_grad_ls;
                    }
                    kl_sum += kl;

                    // Surrogate gradients through log-prob.
                    if surr_coeff != 0.0 {
                        for k in 0..act_dim {
                            let diff = action[k] - mean_new[k];
                            gm_row[k] += surr_coeff * exps.grad_mean(k, diff);
                            grad_log_std[k] += surr_coeff * exps.grad_log_std(k, diff);
                        }
                    }
                }

                // Entropy bonus (state-independent for a Gaussian with
                // fixed log-std): dH/d log_std_k = 1.
                if cfg.entropy_coeff != 0.0 {
                    for g in grad_log_std.iter_mut() {
                        *g -= cfg.entropy_coeff;
                    }
                }

                // Backprop into the workspace's flat buffer (whose tail
                // holds the log_std gradients for joint clipping), then
                // step Adam in place over the split parameter slices
                // [network params ‖ log_std].
                let np = net.num_params();
                let flat = net.backward_into(ws, grad_mean);
                flat[np..].copy_from_slice(grad_log_std);
                clip_grad_norm(flat, cfg.grad_clip);
                opt.step_segments(
                    net.params_mut().chain(std::iter::once(log_std.as_mut_slice())),
                    flat,
                );
                // Keep exploration noise in a sane band (RLlib clamps too).
                for ls in log_std.iter_mut() {
                    *ls = ls.clamp(-5.0, 2.0);
                }

                epoch.loss += policy_loss;
                epoch.kl += kl_sum * inv_b;
                epoch.entropy += entropy;
                minibatches += 1;
            }
            let mb = minibatches.max(1) as f64;
            last = PolicyStats {
                loss: epoch.loss / mb,
                kl: epoch.kl / mb,
                entropy: epoch.entropy / mb,
            };
        }
        last
    }
}

impl ValueHead {
    /// Runs every epoch of minibatch regression of the value network on
    /// the returns, over the epoch `orders`; returns the last epoch's mean
    /// loss.
    fn fit(&mut self, cfg: &PpoConfig, buffer: &RolloutBuffer, orders: &[usize]) -> f64 {
        let Self { net, opt, obs, ws, vgrad } = self;
        let mut last_loss = 0.0;
        for order in epoch_orders(orders, cfg.num_epochs) {
            let mut epoch_loss = 0.0;
            let mut minibatches = 0usize;
            for chunk in order.chunks(cfg.minibatch_size) {
                let b = chunk.len();
                gather(obs, buffer, chunk);
                net.forward_into(obs, ws);
                vgrad.reset(b, 1);
                let inv_b = 1.0 / b as f64;
                let mut loss = 0.0;
                let out = ws.output();
                for (row, &idx) in chunk.iter().enumerate() {
                    let err = out.get(row, 0) - buffer.returns[idx];
                    loss += err * err * inv_b;
                    vgrad.row_mut(row)[0] = 2.0 * err * inv_b;
                }
                let flat = net.backward_into(ws, vgrad);
                clip_grad_norm(flat, cfg.grad_clip);
                opt.step_segments(net.params_mut(), flat);
                epoch_loss += loss;
                minibatches += 1;
            }
            last_loss = epoch_loss / minibatches.max(1) as f64;
        }
        last_loss
    }
}

/// One collected episode, tagged with its global index so shards can be
/// merged deterministically regardless of which worker produced them.
struct EpisodeShard {
    index: u64,
    buf: RolloutBuffer,
    /// The episode terminated inside the collected steps (as opposed to
    /// hitting the per-episode step cap).
    done: bool,
    episode_return: f64,
}

/// Derives the pinned RNG for episode `index` — the same SplitMix64
/// construction (and code) as `mflb_sim`'s per-run Monte-Carlo seeds.
fn episode_rng(seed: u64, index: u64) -> StdRng {
    mflb_sim::run_rng(seed, index)
}

/// The PPO trainer: owns policy network, Gaussian head, value network,
/// optimizers and the rollout-environment prototype.
pub struct PpoTrainer {
    cfg: PpoConfig,
    policy: PolicyHead,
    value: ValueHead,
    kl_coeff: f64,
    proto: Box<dyn Env>,
    seed: u64,
    /// Global episode counter: episode `e` always uses [`episode_rng`]
    /// stream `(seed, e)`, across iterations.
    episodes_started: u64,
    total_steps: u64,
    iteration: u64,
    /// Every epoch's minibatch sample order of the running update (see
    /// [`draw_orders`]), kept to reuse its allocation.
    orders: Vec<usize>,
}

impl PpoTrainer {
    /// Creates a trainer for environments shaped like `prototype`.
    pub fn new(prototype: &dyn Env, cfg: PpoConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let obs_dim = prototype.obs_dim();
        let act_dim = prototype.act_dim();

        let mut policy_sizes = vec![obs_dim];
        policy_sizes.extend_from_slice(&cfg.hidden);
        policy_sizes.push(act_dim);
        let mut policy = Mlp::new(&policy_sizes, Activation::Tanh, &mut rng);
        // Near-uniform initial policy (standard PPO practice; also what the
        // softmax decision-rule decoding wants at iteration 0).
        {
            let mut p = policy.params_vec();
            let n_last = policy_sizes[policy_sizes.len() - 2] * act_dim + act_dim;
            let start = p.len() - n_last;
            for v in &mut p[start..] {
                *v *= 0.01;
            }
            policy.read_params(&p);
        }

        let mut value_sizes = vec![obs_dim];
        value_sizes.extend_from_slice(&cfg.hidden);
        value_sizes.push(1);
        let value = Mlp::new(&value_sizes, Activation::Tanh, &mut rng);

        let log_std = vec![cfg.initial_log_std; act_dim];
        let opt_policy = Adam::new(policy.num_params() + act_dim, cfg.lr);
        let opt_value = Adam::new(value.num_params(), cfg.lr);

        Self {
            kl_coeff: cfg.kl_coeff,
            policy: PolicyHead {
                net: policy,
                log_std,
                opt: opt_policy,
                obs: Tensor::default(),
                ws: Workspace::new().with_grad_tail(act_dim),
                grad_mean: Tensor::default(),
                grad_log_std: Vec::new(),
                exps: LogStdExps::default(),
                behaviour: LogStdExps::default(),
            },
            value: ValueHead {
                net: value,
                opt: opt_value,
                obs: Tensor::default(),
                ws: Workspace::new(),
                vgrad: Tensor::default(),
            },
            cfg,
            proto: prototype.boxed_clone(),
            seed,
            episodes_started: 0,
            total_steps: 0,
            iteration: 0,
            orders: Vec::new(),
        }
    }

    /// The policy network (deterministic head = decision-rule logits).
    pub fn policy_net(&self) -> &Mlp {
        &self.policy.net
    }

    /// Warm-starts the policy network from an existing one (same shape),
    /// e.g. a previously saved checkpoint. The Adam moments are reset; the
    /// value network keeps its fresh initialization and re-fits within the
    /// first few iterations.
    pub fn load_policy_net(&mut self, net: &Mlp) {
        let policy = &mut self.policy;
        assert_eq!(net.input_dim(), policy.net.input_dim(), "input dim mismatch");
        assert_eq!(net.output_dim(), policy.net.output_dim(), "output dim mismatch");
        assert_eq!(net.num_params(), policy.net.num_params(), "hidden shape mismatch");
        policy.net = net.clone();
        policy.opt = Adam::new(net.num_params() + policy.log_std.len(), self.cfg.lr);
    }

    /// The value network.
    pub fn value_net(&self) -> &Mlp {
        &self.value.net
    }

    /// Current Gaussian log-stds.
    pub fn log_std(&self) -> &[f64] {
        &self.policy.log_std
    }

    /// Cumulative environment steps.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Deterministic (mean) action for an observation.
    pub fn deterministic_action(&self, obs: &[f64]) -> Vec<f64> {
        self.policy.net.forward_one(obs)
    }

    /// Runs one complete episode with the pinned per-episode RNG, stopping
    /// early after `cap` steps (the bootstrap value then covers the tail).
    /// All network evaluations go through the worker's reusable `scratch`
    /// (the batch-1 `gemv` fast path) — bit-identical to the allocating
    /// `forward_one` they replace.
    // The worker protocol is clearest with the shared state spelled out
    // per argument; a params struct would only rename the list.
    #[allow(clippy::too_many_arguments)]
    fn collect_episode(
        policy: &Mlp,
        value: &Mlp,
        exps: &LogStdExps,
        env: &mut dyn Env,
        scratch: &mut RolloutScratch,
        seed: u64,
        index: u64,
        cap: usize,
    ) -> EpisodeShard {
        let mut rng = episode_rng(seed, index);
        let mut obs = env.reset(&mut rng);
        let mut buf = RolloutBuffer::new();
        let mut episode_return = 0.0;
        let mut done = false;
        while !done && buf.len() < cap {
            let mean = policy.forward_one_into(&obs, &mut scratch.policy).to_vec();
            let action = exps.sample(&mean, &mut rng);
            let log_prob = exps.log_prob(&mean, &action);
            let v = value.forward_one_into(&obs, &mut scratch.value)[0];
            let result = env.step(&action, &mut rng);
            episode_return += result.reward;
            done = result.done;
            buf.push(
                std::mem::replace(&mut obs, result.obs),
                action,
                log_prob,
                mean,
                result.reward,
                v,
                result.done,
            );
        }
        // Bootstrap value for a cap-truncated episode; terminated ones end
        // with value 0 by definition.
        buf.last_value =
            if done { 0.0 } else { value.forward_one_into(&obs, &mut scratch.value)[0] };
        buf.behaviour_log_std = exps.log_std().to_vec();
        EpisodeShard { index, buf, done, episode_return }
    }

    /// Collects at least `train_batch_size` steps as whole episodes,
    /// parallel over `rollout_threads` workers, and returns the shards
    /// sorted by episode index. The episode *content* depends only on the
    /// networks and the pinned per-episode RNG streams, never on the worker
    /// count.
    fn collect_shards(&self) -> Vec<EpisodeShard> {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        let batch = self.cfg.train_batch_size;
        let n_workers = self.cfg.rollout_threads.max(1);
        let policy = &self.policy.net;
        let value = &self.value.net;
        // `log_std` is fixed for the whole batch.
        let exps = LogStdExps::new(&self.policy.log_std);
        let seed = self.seed;
        let start = self.episodes_started;

        // With a fixed-horizon environment the exact episode demand is
        // known up front; otherwise workers keep pulling indices until the
        // shared step counter crosses the batch size (the deterministic
        // prefix taken in `train_iteration` discards any overshoot).
        let fixed_demand = self.proto.horizon_hint().map(|h| batch.div_ceil(h.min(batch)) as u64);

        let next_index = AtomicU64::new(start);
        let steps_collected = AtomicU64::new(0);
        let full = AtomicBool::new(false);
        let shards: parking_lot::Mutex<Vec<EpisodeShard>> = parking_lot::Mutex::new(Vec::new());

        let worker_loop = |env: &mut dyn Env, scratch: &mut RolloutScratch| loop {
            // In the dynamic scheme the stop check must happen BEFORE an
            // index is claimed: a claimed index is always collected, so the
            // contiguous index range reaching the batch size is present in
            // full regardless of worker scheduling.
            if fixed_demand.is_none() && full.load(Ordering::Relaxed) {
                break;
            }
            let e = next_index.fetch_add(1, Ordering::Relaxed);
            if let Some(demand) = fixed_demand {
                if e >= start + demand {
                    break;
                }
            }
            let shard =
                Self::collect_episode(policy, value, &exps, env, scratch, seed, e, batch.max(1));
            let got = steps_collected.fetch_add(shard.buf.len() as u64, Ordering::Relaxed)
                + shard.buf.len() as u64;
            shards.lock().push(shard);
            if got >= batch as u64 {
                full.store(true, Ordering::Relaxed);
            }
        };

        if n_workers == 1 {
            let mut env = self.proto.boxed_clone();
            let mut scratch = RolloutScratch::default();
            worker_loop(env.as_mut(), &mut scratch);
        } else {
            crossbeam::scope(|scope| {
                for _ in 0..n_workers {
                    let mut env = self.proto.boxed_clone();
                    let work = &worker_loop;
                    scope.spawn(move |_| {
                        let mut scratch = RolloutScratch::default();
                        work(env.as_mut(), &mut scratch)
                    });
                }
            })
            .expect("rollout scope failed");
        }

        let mut shards = shards.into_inner();
        shards.sort_by_key(|s| s.index);
        shards
    }

    /// Collects exactly `train_batch_size` steps as whole (or
    /// tail-truncated) episodes with GAE targets and normalized advantages
    /// already computed — the rollout phase of one PPO iteration, exposed
    /// separately so the perf harness can time collection and
    /// [`PpoTrainer::update`] independently.
    pub fn collect_batch(&mut self) -> (RolloutBuffer, CollectStats) {
        // --- Rollout collection (parallel, episode-indexed). ---
        let shards = self.collect_shards();

        // Deterministic prefix: take episodes in index order until the
        // batch is exactly full, truncating the last one if necessary.
        // Overshoot episodes (possible with data-dependent horizons and
        // several workers) are discarded and their indices reused next
        // iteration, so the consumed stream is worker-count-invariant.
        let batch = self.cfg.train_batch_size;
        let mut buffer = RolloutBuffer::new();
        let mut completed_returns = Vec::new();
        let mut consumed = 0u64;
        for mut shard in shards {
            let remaining = batch - buffer.len();
            if remaining == 0 {
                break;
            }
            consumed += 1;
            if shard.buf.len() > remaining {
                let bootstrap_obs = shard.buf.obs[remaining].clone();
                shard.buf.truncate(remaining);
                shard.buf.last_value = if *shard.buf.dones.last().unwrap_or(&true) {
                    0.0
                } else {
                    self.value.net.forward_one_into(&bootstrap_obs, &mut self.value.ws)[0]
                };
                shard.done = false;
            }
            if shard.done {
                completed_returns.push(shard.episode_return);
            }
            shard.buf.compute_gae(self.cfg.gamma, self.cfg.gae_lambda);
            buffer.merge(shard.buf);
        }
        self.episodes_started += consumed;
        buffer.normalize_advantages();
        self.total_steps += buffer.len() as u64;
        let stats = CollectStats {
            episodes_completed: completed_returns.len(),
            mean_episode_return: if completed_returns.is_empty() {
                f64::NAN
            } else {
                completed_returns.iter().sum::<f64>() / completed_returns.len() as f64
            },
        };
        (buffer, stats)
    }

    /// Runs `num_epochs` of minibatch SGD over a collected batch and
    /// adapts the KL coefficient — the optimization phase of one PPO
    /// iteration.
    ///
    /// The minibatch orders of all epochs are drawn from `rng` first (the
    /// same running Fisher–Yates shuffle, draw for draw, as reshuffling
    /// at the start of each epoch). The policy head and the value head then
    /// train over them independently: with `rollout_threads ≥ 2` the value
    /// head runs on a scoped thread beside the policy head, joined once
    /// per call; otherwise both run inline. Neither head reads the other's
    /// state, and each runs its minibatches in the same order on either
    /// path, so the result is bit-identical for every thread count.
    ///
    /// All per-minibatch buffers (each head's observation gather, network
    /// activations, gradients, flat-gradient vectors) live in the heads'
    /// long-lived workspaces; after the first call an update performs O(1)
    /// heap allocations (the thread spawn included), and the arithmetic is
    /// bit-identical to the historical allocating implementation.
    pub fn update(&mut self, buffer: &RolloutBuffer, rng: &mut StdRng) -> UpdateStats {
        let Self { cfg, policy, value, kl_coeff, orders, .. } = self;
        let cfg = &*cfg;
        draw_orders(orders, buffer.len(), cfg.num_epochs, rng);
        let orders = orders.as_slice();
        let (policy_stats, value_loss) = if cfg.rollout_threads <= 1 {
            (policy.fit(cfg, *kl_coeff, buffer, orders), value.fit(cfg, buffer, orders))
        } else {
            std::thread::scope(|scope| {
                let value_head = scope.spawn(|| value.fit(cfg, buffer, orders));
                let policy_stats = policy.fit(cfg, *kl_coeff, buffer, orders);
                let value_loss =
                    value_head.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (policy_stats, value_loss)
            })
        };
        let last_kl = policy_stats.kl;

        // Adaptive KL coefficient (RLlib rule).
        if last_kl > 2.0 * cfg.kl_target {
            *kl_coeff *= 1.5;
        } else if last_kl < 0.5 * cfg.kl_target {
            *kl_coeff *= 0.5;
        }

        UpdateStats {
            policy_loss: policy_stats.loss,
            value_loss,
            mean_kl: last_kl,
            entropy: policy_stats.entropy,
        }
    }

    /// Runs one PPO iteration: collect `train_batch_size` steps
    /// ([`PpoTrainer::collect_batch`]), compute GAE, run `num_epochs` of
    /// minibatch updates and adapt the KL coefficient
    /// ([`PpoTrainer::update`]).
    pub fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        self.iteration += 1;
        let (buffer, collect) = self.collect_batch();
        let update = self.update(&buffer, rng);
        IterationStats {
            iteration: self.iteration,
            total_steps: self.total_steps,
            episodes_completed: collect.episodes_completed,
            mean_episode_return: collect.mean_episode_return,
            policy_loss: update.policy_loss,
            value_loss: update.value_loss,
            mean_kl: update.mean_kl,
            entropy: update.entropy,
            kl_coeff: self.kl_coeff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ToyControlEnv;

    #[test]
    fn paper_config_matches_table2() {
        let c = PpoConfig::paper();
        assert_eq!(c.gamma, 0.99);
        assert_eq!(c.gae_lambda, 1.0);
        assert_eq!(c.kl_coeff, 0.2);
        assert_eq!(c.clip, 0.3);
        assert_eq!(c.lr, 5e-5);
        assert_eq!(c.train_batch_size, 4000);
        assert_eq!(c.minibatch_size, 128);
        assert_eq!(c.num_epochs, 30);
        assert_eq!(c.hidden, vec![256, 256]);
    }

    #[test]
    fn ppo_improves_on_toy_control() {
        let env = ToyControlEnv::new(10);
        let cfg = PpoConfig {
            lr: 3e-3,
            train_batch_size: 512,
            minibatch_size: 64,
            num_epochs: 6,
            hidden: vec![16, 16],
            initial_log_std: -0.5,
            ..PpoConfig::paper()
        };
        let mut trainer = PpoTrainer::new(&env, cfg, 7);
        let mut rng = StdRng::seed_from_u64(11);
        let mut first = f64::NAN;
        let mut last = f64::NAN;
        for it in 0..25 {
            let stats = trainer.train_iteration(&mut rng);
            if it == 0 {
                first = stats.mean_episode_return;
            }
            last = stats.mean_episode_return;
        }
        assert!(last > first + 0.3, "PPO failed to improve: first {first}, last {last}");
        // The learned deterministic policy must push x towards 0:
        // action(x=1) should be clearly negative, action(x=-1) positive.
        let a_pos = trainer.deterministic_action(&[1.0])[0];
        let a_neg = trainer.deterministic_action(&[-1.0])[0];
        assert!(a_pos < -0.2, "action at x=1 should be negative, got {a_pos}");
        assert!(a_neg > 0.2, "action at x=-1 should be positive, got {a_neg}");
    }

    #[test]
    fn iteration_bookkeeping() {
        let env = ToyControlEnv::new(5);
        let cfg = PpoConfig {
            train_batch_size: 64,
            minibatch_size: 32,
            num_epochs: 2,
            hidden: vec![8],
            ..PpoConfig::paper()
        };
        let mut trainer = PpoTrainer::new(&env, cfg, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let s1 = trainer.train_iteration(&mut rng);
        let s2 = trainer.train_iteration(&mut rng);
        assert_eq!(s1.iteration, 1);
        assert_eq!(s2.iteration, 2);
        assert_eq!(s1.total_steps, 64);
        assert_eq!(s2.total_steps, 128);
        assert!(s1.episodes_completed > 0);
        assert!(s1.mean_kl >= 0.0 || s1.mean_kl.is_nan());
    }

    #[test]
    fn parallel_rollouts_run() {
        let env = ToyControlEnv::new(5);
        let cfg = PpoConfig {
            train_batch_size: 128,
            minibatch_size: 32,
            num_epochs: 2,
            hidden: vec![8],
            rollout_threads: 4,
            ..PpoConfig::paper()
        };
        let mut trainer = PpoTrainer::new(&env, cfg, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let stats = trainer.train_iteration(&mut rng);
        assert_eq!(stats.total_steps, 128);
        assert!(stats.episodes_completed >= 4);
    }
}
