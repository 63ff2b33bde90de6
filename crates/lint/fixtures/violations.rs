//! lint: deterministic
//!
//! Self-test fixture: a deliberately seeded violation of every
//! (allowable) rule family. `rendez-lint --fixture-violations` must
//! exit non-zero with exactly the findings the self-test expects.

pub fn nondeterministic_collection() -> usize {
    let m: HashMap<u32, u32> = HashMap::new();
    m.len()
}

pub fn wall_clock() -> Instant {
    Instant::now()
}

pub fn os_entropy() -> u64 {
    thread_rng().gen()
}

pub fn order_sensitive_sum(v: &[f64]) -> f64 {
    v.iter().sum::<f64>()
}

pub fn truncated_seed(seed: u64) -> u32 {
    seed as u32
}

pub fn uncovered_unsafe(p: *const u8) -> u8 {
    unsafe { *p }
}

// lint: allow(det-clock)
pub fn allow_without_reason() -> Instant {
    Instant::now()
}

// lint: allow(det-entropy) — stale: nothing below draws entropy.
pub fn stale_allow() -> u32 {
    7
}
