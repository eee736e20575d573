//! Advantage Actor-Critic (synchronous A2C).
//!
//! The paper remarks that "in addition to the PPO algorithm, other
//! reinforcement learning algorithms can also be conveniently applied to
//! the proposed framework". This module makes that concrete: a second
//! agent with the same action interface as [`PpoAgent`](crate::PpoAgent)
//! but a vanilla policy-gradient update — no ratio clipping, a single
//! pass over the rollout:
//!
//! `L = −mean(logπ(a|s) · Â) + c_v·mean((V(s) − R)²) − c_e·mean(H(π))`.
//!
//! Used by the `repro_ablation_rl` bench to quantify what PPO's clipped
//! surrogate buys GraphRARE.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_telemetry as telemetry;
use graphrare_tensor::optim::{Adam, Optimizer};
use graphrare_tensor::param::{clip_grad_norm, zero_grads, Param};
use graphrare_tensor::{Matrix, Tape};

use crate::buffer::{gae, normalize, RolloutBuffer};
use crate::policy::{Policy, ValueNet, ACTION_ARITY};
use crate::snapshot::AgentState;

/// A2C hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct A2cConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ (A2C conventionally uses λ = 1, i.e. Monte-Carlo advantages;
    /// the GAE form is kept for comparability with PPO).
    pub gae_lambda: f32,
    /// Learning rate.
    pub lr: f32,
    /// Value-loss coefficient.
    pub vf_coef: f32,
    /// Entropy-bonus coefficient.
    pub ent_coef: f32,
    /// Gradient-norm clip.
    pub max_grad_norm: f32,
    /// Action-sampling seed.
    pub seed: u64,
}

impl Default for A2cConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 1.0,
            lr: 7e-4,
            vf_coef: 0.5,
            ent_coef: 0.01,
            max_grad_norm: 0.5,
            seed: 0,
        }
    }
}

/// Diagnostics of one [`A2cAgent::update`].
#[derive(Clone, Copy, Debug, Default)]
pub struct A2cStats {
    /// Policy-gradient loss.
    pub policy_loss: f32,
    /// Value loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
}

/// A synchronous advantage actor-critic agent.
pub struct A2cAgent<P: Policy> {
    policy: P,
    value: ValueNet,
    cfg: A2cConfig,
    opt: Adam,
    rng: StdRng,
    params: Vec<Param>,
}

impl<P: Policy> A2cAgent<P> {
    /// Creates an agent from a policy, critic and config.
    pub fn new(policy: P, value: ValueNet, cfg: A2cConfig) -> Self {
        let mut params = policy.params();
        params.extend(value.params());
        Self {
            opt: Adam::new(cfg.lr, 0.0),
            rng: StdRng::seed_from_u64(cfg.seed),
            policy,
            value,
            cfg,
            params,
        }
    }

    /// Exports the complete mutable state of the agent for checkpointing
    /// (see [`AgentState`]).
    pub fn export_state(&self) -> AgentState {
        AgentState {
            params: self.params.iter().map(Param::value).collect(),
            adam: self.opt.export_state(&self.params),
            rng: self.rng.state(),
        }
    }

    /// Restores state captured by [`A2cAgent::export_state`] onto an agent
    /// built from the same configuration.
    ///
    /// # Panics
    /// Panics on parameter count/shape mismatch — checkpoints are
    /// validated by the store layer before they reach an agent.
    pub fn import_state(&mut self, state: &AgentState) {
        assert_eq!(state.params.len(), self.params.len(), "agent import: param count mismatch");
        for (p, m) in self.params.iter().zip(&state.params) {
            p.set_value(m.clone());
        }
        self.opt.import_state(&self.params, &state.adam);
        self.rng = StdRng::from_state(state.rng);
    }

    /// Samples an action; returns `(actions, joint log-prob, value)`.
    pub fn act(&mut self, state: &[f32]) -> (Vec<u8>, f32, f32) {
        let mut tape = Tape::new();
        let s = tape.constant(Matrix::row_vector(state));
        let l = self.policy.logits(&mut tape, s);
        let v = self.value.forward(&mut tape, s);
        let value = tape.value(v).scalar_value();

        let mut actions = Vec::with_capacity(self.policy.heads());
        let mut log_prob = 0.0f32;
        for row in tape.value(l).row(0).chunks_exact(ACTION_ARITY) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: [f32; ACTION_ARITY] = std::array::from_fn(|a| (row[a] - max).exp());
            let sum: f32 = exps.iter().sum();
            let x: f32 = self.rng.gen();
            let mut acc = 0.0;
            let mut chosen = ACTION_ARITY - 1;
            for (a, &e) in exps.iter().enumerate() {
                acc += e / sum;
                if x < acc {
                    chosen = a;
                    break;
                }
            }
            actions.push(chosen as u8);
            log_prob += (exps[chosen] / sum).max(1e-12).ln();
        }
        (actions, log_prob, value)
    }

    /// Critic value of a state.
    pub fn value_of(&self, state: &[f32]) -> f32 {
        let mut tape = Tape::new();
        let s = tape.constant(Matrix::row_vector(state));
        let v = self.value.forward(&mut tape, s);
        tape.value(v).scalar_value()
    }

    /// One synchronous update over the whole rollout, in the same
    /// `rl.update` → `rl.forward`/`rl.backward`/`rl.optim` spans as
    /// [`PpoAgent::update`](crate::PpoAgent::update).
    pub fn update(&mut self, buffer: &RolloutBuffer, last_value: f32) -> A2cStats {
        assert!(!buffer.is_empty(), "update: empty rollout buffer");
        let _span = telemetry::span("rl.update");
        let n = buffer.len();
        let (mut advantages, returns) = gae(
            &buffer.rewards,
            &buffer.values,
            &buffer.dones,
            last_value,
            self.cfg.gamma,
            self.cfg.gae_lambda,
        );
        normalize(&mut advantages);

        let heads = self.policy.heads();
        let state_dim = self.policy.state_dim();
        let mut states = Matrix::zeros(n, state_dim);
        let mut actions = Vec::with_capacity(n * heads);
        let mut adv = Matrix::zeros(n, 1);
        let mut neg_ret = Matrix::zeros(n, 1);
        for i in 0..n {
            states.row_mut(i).copy_from_slice(&buffer.states[i]);
            actions.extend_from_slice(&buffer.actions[i]);
            adv.set(i, 0, advantages[i]);
            neg_ret.set(i, 0, -returns[i]);
        }

        let mut tape = Tape::new();
        let (policy_loss, value_loss, mean_entropy, total) = {
            let _span = telemetry::span("rl.forward");
            let s = tape.constant(states);
            let logits = self.policy.logits(&mut tape, s);
            let logp = tape.multi_discrete_log_prob(logits, ACTION_ARITY, Rc::new(actions));
            let weighted = tape.mul_const(logp, Rc::new(adv));
            let mean_obj = tape.mean_all(weighted);
            let policy_loss = tape.neg(mean_obj);

            let value = self.value.forward(&mut tape, s);
            let verr = tape.add_const(value, Rc::new(neg_ret));
            let vsq = tape.square(verr);
            let value_loss = tape.mean_all(vsq);

            let entropy = tape.multi_discrete_entropy(logits, ACTION_ARITY);
            let mean_entropy = tape.mean_all(entropy);

            let scaled_v = tape.scale(value_loss, self.cfg.vf_coef);
            let scaled_e = tape.scale(mean_entropy, -self.cfg.ent_coef);
            let partial = tape.add(policy_loss, scaled_v);
            let total = tape.add(partial, scaled_e);
            (policy_loss, value_loss, mean_entropy, total)
        };
        {
            let _span = telemetry::span("rl.backward");
            zero_grads(&self.params);
            tape.backward(total);
        }
        let stats = A2cStats {
            policy_loss: tape.value(policy_loss).scalar_value(),
            value_loss: tape.value(value_loss).scalar_value(),
            entropy: tape.value(mean_entropy).scalar_value(),
        };
        // Dropped before the step: the tape shares the parameter values,
        // so a live tape would make the step copy them.
        drop(tape);
        {
            let _span = telemetry::span("rl.optim");
            clip_grad_norm(&self.params, self.cfg.max_grad_norm);
            self.opt.step(&self.params);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GlobalPolicy;

    fn make_agent(state_dim: usize, heads: usize, seed: u64) -> A2cAgent<GlobalPolicy> {
        let policy = GlobalPolicy::new(state_dim, 32, heads, seed);
        let value = ValueNet::new(state_dim, 32, seed + 1);
        A2cAgent::new(policy, value, A2cConfig { seed, ..Default::default() })
    }

    #[test]
    fn act_shape_and_logprob() {
        let mut agent = make_agent(4, 3, 0);
        let (actions, logp, _) = agent.act(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(actions.len(), 3);
        assert!(actions.iter().all(|&a| (a as usize) < ACTION_ARITY));
        assert!(logp < 0.0);
    }

    #[test]
    fn a2c_solves_multi_discrete_bandit() {
        let heads = 3;
        let mut agent = make_agent(2, heads, 5);
        let state = vec![1.0f32, -1.0];
        let mut final_mean = 0.0;
        for _ in 0..150 {
            let mut buffer = RolloutBuffer::new();
            for _ in 0..32 {
                let (actions, logp, value) = agent.act(&state);
                let reward = actions.iter().filter(|&&a| a == 2).count() as f32 / heads as f32;
                buffer.push(state.clone(), actions, logp, value, reward, true);
            }
            final_mean = buffer.mean_reward();
            agent.update(&buffer, 0.0);
        }
        assert!(final_mean > 0.8, "bandit mean reward only reached {final_mean}");
    }

    #[test]
    fn update_stats_finite() {
        let mut agent = make_agent(3, 2, 1);
        let mut buffer = RolloutBuffer::new();
        for t in 0..6 {
            let (actions, logp, value) = agent.act(&[0.1 * t as f32, 0.0, 0.5]);
            buffer.push(vec![0.1 * t as f32, 0.0, 0.5], actions, logp, value, 0.1, t == 5);
        }
        let stats = agent.update(&buffer, 0.0);
        assert!(stats.policy_loss.is_finite());
        assert!(stats.value_loss.is_finite());
        assert!(stats.entropy > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty rollout buffer")]
    fn rejects_empty_buffer() {
        let mut agent = make_agent(2, 1, 0);
        let _ = agent.update(&RolloutBuffer::new(), 0.0);
    }
}
