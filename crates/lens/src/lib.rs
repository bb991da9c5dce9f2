//! jle-lens: deterministic slot-level replay and trace validation.
//!
//! The debugging half of the workspace's observability story (the other
//! half — distributed span recording — lives in `jle-telemetry` and is
//! threaded through `jle-sweepd`). Everything here exploits one fact:
//! trials are pure functions of `(spec, seed)`, and the convention
//! `seed = base_seed + trial_index` is workspace-wide. So a flight
//! artifact, or a `(fingerprint, trial)` pair resolved against a result
//! store, is enough to re-derive any recorded run *bit-exactly* — with
//! arbitrarily heavier instrumentation attached than the original run
//! paid for.
//!
//! * [`spec`] — the replayable run description ([`LensSpec`]): parses
//!   both the `jle-sweepd` cache tree (`cohort_election`) and the lens's
//!   extended `election_run` shape, and dispatches onto the exact,
//!   fast-exact, faulty/churn, cohort, and multi-hop backends.
//! * [`replay`](mod@replay) — the capture layer ([`ReplayObserver`]), bit-exact
//!   [`divergence`] checking against [`jle_telemetry::FlightRecord`]
//!   artifacts, and backend-vs-backend [`diff`]ing that pinpoints the
//!   first diverging slot.
//! * [`tracecheck`] — structural validation of exported Chrome traces
//!   (one trace id end-to-end, unique span ids, children nested in
//!   parents).
//!
//! The `jle-lens` binary fronts all three: `record`, `replay`
//! (`--diff`), and `trace-check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod spec;
pub mod tracecheck;

pub use replay::{
    diff, divergence, record, replay, DiffReport, Divergence, ReplayObserver, ReplayOutcome,
    Transition, MAX_CAPTURE, MAX_TRANSITIONS,
};
pub use spec::{parse_topology, EngineKind, LensSpec, ProtoSpec, SpecError};
pub use tracecheck::{check_chrome_trace, TraceReport};
