//! Load-balancing policies for the delayed-information system.
//!
//! * [`rules`] — classical decision rules: JSQ(d) (Eq. 34), RND (Eq. 35),
//!   SED(d) over composite heterogeneous states;
//! * [`softmin`] — the softmin(β) family interpolating RND ↔ JSQ with a
//!   deterministic β optimizer in the mean-field MDP (ablation + learned-
//!   policy stand-in);
//! * [`upper`] — the neural upper-level policy π̃ (Fig. 2); its networks
//!   travel in `mflb_rl`'s versioned `TrainingCheckpoint`.
//!
//! All policies implement [`mflb_core::mdp::UpperPolicy`] and therefore run
//! unchanged in the mean-field MDP *and* in the finite `N,M` simulator
//! (`mflb-sim`), exactly as in the paper's evaluation.
//!
//! ### Locality
//!
//! Every rule here is a table over the *observed states of the `d`
//! sampled queues*, not over queue identities — so the same JSQ(d), RND
//! and softmin(β) tables are automatically **neighborhood-restricted**
//! when deployed on a graph-constrained engine
//! (`mflb_sim::GraphEngine`): the engine draws the `d` samples from each
//! dispatcher's closed neighborhood, and the rule only ever ranks what
//! was sampled. JSQ(d) on a ring is "join the shortest *observed
//! neighbor*", with the usual stale-information caveats on top. See
//! [`rules`] for details.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod rules;
pub mod softmin;
pub mod upper;

pub use rules::{
    composite_index, jsq_rule, lift_to_composite, rnd_rule, rule_l1_weighted, sed_rule,
};
pub use softmin::{optimize_beta, softmin_rule, BetaSearchResult, SoftminPolicy};
pub use upper::{
    action_dim, encode_observation, observation_dim, InferenceConfig, NeuralUpperPolicy,
};
// The inference-tier switch travels with [`InferenceConfig`]; re-exported
// so CLI layers need not depend on `mflb-nn` directly.
pub use mflb_nn::TanhMode;
