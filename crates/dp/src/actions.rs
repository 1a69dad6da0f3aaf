//! Finite action libraries for the discretized MFC MDP.
//!
//! The true action space `H = {h : Z^d → P(U)}` is continuous; exact DP
//! needs a finite subset. The default library is the softmin(β) family on
//! a log-spaced β grid — it contains MF-RND (`β = 0`), is effectively
//! MF-JSQ(d) at the top of the grid (`exp(−64) ≈ 0` for queue-length gaps
//! ≥ 1), and spans the interpolation regime the learned policies live in.
//! DP over this library answers: *how much of the achievable value needs
//! state feedback on `ν_t` (which DP has, through the grid) versus rule
//! interpolation alone?*

use mflb_core::DecisionRule;
use mflb_policy::softmin_rule;

/// A named finite library of decision rules.
#[derive(Debug, Clone)]
pub struct ActionLibrary {
    names: Vec<String>,
    rules: Vec<DecisionRule>,
}

impl ActionLibrary {
    /// Builds a library from explicit `(name, rule)` pairs.
    ///
    /// # Panics
    /// Panics if the library is empty or the rules disagree on shape.
    pub fn new(entries: Vec<(String, DecisionRule)>) -> Self {
        assert!(!entries.is_empty(), "need at least one action");
        let (num_states, d) = (entries[0].1.num_states(), entries[0].1.d());
        for (name, rule) in &entries {
            assert_eq!(rule.num_states(), num_states, "shape mismatch in '{name}'");
            assert_eq!(rule.d(), d, "d mismatch in '{name}'");
        }
        let (names, rules) = entries.into_iter().unzip();
        Self { names, rules }
    }

    /// The default softmin(β) library over a log-spaced β grid,
    /// `β ∈ {0} ∪ {2^{−2}, …, 2^6}`: 10 rules from MF-RND to (numerically)
    /// MF-JSQ(d).
    pub fn softmin_default(num_states: usize, d: usize) -> Self {
        let mut entries = vec![("softmin(0)=RND".to_string(), softmin_rule(num_states, d, 0.0))];
        let mut beta = 0.25;
        while beta <= 64.0 {
            entries.push((format!("softmin({beta})"), softmin_rule(num_states, d, beta)));
            beta *= 2.0;
        }
        Self::new(entries)
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the library is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule at an action index.
    pub fn rule(&self, a: usize) -> &DecisionRule {
        &self.rules[a]
    }

    /// The display name of an action.
    pub fn name(&self, a: usize) -> &str {
        &self.names[a]
    }

    /// All rules.
    pub fn rules(&self) -> &[DecisionRule] {
        &self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflb_policy::{jsq_rule, rnd_rule};

    #[test]
    fn default_library_brackets_rnd_and_jsq() {
        let lib = ActionLibrary::softmin_default(6, 2);
        assert_eq!(lib.len(), 10);
        assert!(lib.rule(0).max_abs_diff(&rnd_rule(6, 2)) < 1e-12);
        assert!(lib.rule(lib.len() - 1).max_abs_diff(&jsq_rule(6, 2)) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn rejects_empty_library() {
        ActionLibrary::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_mixed_shapes() {
        ActionLibrary::new(vec![("a".into(), rnd_rule(6, 2)), ("b".into(), rnd_rule(5, 2))]);
    }
}
