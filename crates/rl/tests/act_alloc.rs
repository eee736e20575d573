//! Allocation regression for the per-step action path: binding the
//! policy and critic onto the forward tape shares their weights instead
//! of copying them, so one `PpoAgent::act` allocates less than a single
//! copy of the policy's weights.
//!
//! The counting allocator's counters are process-wide, so this file
//! holds exactly one `#[test]`.

graphrare_telemetry::install_counting_allocator!();

use graphrare_rl::{GlobalPolicy, Policy, PpoAgent, PpoConfig, ValueNet};
use graphrare_telemetry::alloc;

#[test]
fn act_allocates_less_than_one_copy_of_the_policy_weights() {
    assert!(alloc::active(), "counting allocator must be installed in this binary");
    // One thread: a spawned kernel worker would allocate its own handles.
    graphrare_tensor::parallel::set_threads(1);

    // The driver's shape for a 300-node graph: a 600-dim [k, d] state,
    // one head per state component, 64 hidden units.
    let (state_dim, hidden) = (600, 64);
    let policy = GlobalPolicy::new(state_dim, hidden, state_dim, 1);
    let weight_bytes: usize =
        policy.params().iter().map(|p| p.len() * std::mem::size_of::<f32>()).sum();
    let value = ValueNet::new(state_dim, hidden, 18);
    let mut agent = PpoAgent::new(policy, value, PpoConfig::default());
    let state: Vec<f32> = (0..state_dim).map(|i| (i % 7) as f32 / 7.0).collect();

    let _ = agent.act(&state);
    let before = alloc::snapshot();
    let (actions, _, _) = agent.act(&state);
    let bytes = alloc::snapshot().bytes - before.bytes;
    assert_eq!(actions.len(), state_dim);
    assert!(
        (bytes as usize) < weight_bytes,
        "act allocated {bytes} bytes, at least one copy of the {weight_bytes}-byte policy"
    );
}
