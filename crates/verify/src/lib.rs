//! Correctness tooling for the SPB simulator: executable reference
//! oracles, a differential test driver, and a coherence interleaving
//! fuzzer.
//!
//! The paper's headline claims (SPB ≈ ideal-RFO performance at a
//! fraction of the traffic) are only as trustworthy as the MESI/OoO
//! substrate they run on. This crate attacks that substrate from three
//! directions:
//!
//! 1. **Executable oracles** ([`oracle`]): a magic-memory in-order CPU
//!    model and a flat atomic-memory model replay the *same*
//!    deterministic workloads as the simulator and predict — exactly
//!    where the microarchitecture cannot change the answer, as bounds
//!    where it can — the committed µop mix, per-block store counts,
//!    per-block writers, and a cycle lower bound.
//! 2. **A differential driver** ([`differential`]): runs an application
//!    under the real simulator with an event collector attached and
//!    diffs the run (committed counts, store-performed event stream,
//!    final memory image) against the oracles.
//! 3. **An interleaving fuzzer** ([`fuzz`]): a seeded scheduler drives
//!    `spb_mem::MemorySystem` directly with randomly interleaved loads,
//!    store drains, RFO prefetches, page bursts, and time advances —
//!    optionally under a bounded fault plan — running the coherence
//!    invariant checker after every step. Failing seeds are minimized
//!    and replayable via `spbsim verify fuzz --seed N`.
//! 4. **A speculative-leak oracle** ([`leak`]): a squash-aware flat
//!    model replays the wrong-path episode plan and pins the exact
//!    wasted-RFO / leaked-M-state accounting of per-store speculation,
//!    plus a page-span leak bound for the SPB burst policies.
//!
//! The key contract the oracles rest on (pinned by a unit test in
//! `spb-cpu`): commit is in order and wrong-path µops are synthesized,
//! so each core's committed µop stream is *exactly* a prefix of its
//! trace, and [`spb_sim::CoreWindow`] records precisely how long that
//! prefix is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod fuzz;
pub mod leak;
pub mod oracle;

pub use differential::{check_app, DiffFailure, DiffOutcome};
pub use fuzz::{minimize, run_one, run_seeds, FuzzConfig, FuzzFailure, FuzzStats};
pub use leak::{check_run, LeakFailure, LeakPrediction, LeakReport};
pub use oracle::{CorePrediction, KindCounts, OraclePrediction};
