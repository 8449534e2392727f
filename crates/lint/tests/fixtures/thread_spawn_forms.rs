// Thread-spawn forms beyond `std::thread::spawn`: a scoped spawn
// (`std::thread::scope` with `Scope::spawn`) and a configured spawn
// (`std::thread::Builder::…spawn`), each written as a full path and
// through an import, each reaching its own plan-affecting sink. Threads
// finish in the OS scheduler's order, so either form makes a plan
// nondeterministic.

//@ file: crates/core/src/allocation/milp.rs
pub fn solve_allocation(parts: &[u32]) -> u32 {
    std::thread::scope(|s| {
        let handles: Vec<_> = parts.iter().map(|p| s.spawn(move || *p)).collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    })
}

//@ file: crates/core/src/allocation/greedy.rs
pub fn allocate(n: u32) -> u32 {
    let worker = std::thread::Builder::new()
        .name("greedy".into())
        .spawn(move || n + 1);
    worker.map_or(0, |h| h.join().unwrap_or(0))
}

//@ file: crates/core/src/batching/policy.rs
use std::thread;

impl ScopedPolicy {
    pub fn decide(&mut self, queue: &[u32]) -> u32 {
        thread::scope(|s| s.spawn(|| queue.len() as u32).join().unwrap_or(0))
    }
}

//@ file: crates/core/src/router.rs
use std::thread::Builder;

impl Router {
    pub fn route(&mut self, n: u32) -> u32 {
        Builder::new()
            .stack_size(1 << 20)
            .spawn(move || n)
            .map_or(0, |h| h.join().unwrap_or(0))
    }
}
