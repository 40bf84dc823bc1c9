//! # rackfabric-cmd
//!
//! The **command execution layer**: one deterministic instruction set —
//! [`Command`] — for every externally reachable operation (run a scenario,
//! expand a matrix, execute a sweep cell, regenerate a figure, gc the
//! store, emit a report, export/import a bundle), and one [`Executor`]
//! through which the sweep CLI, the bench figure campaigns and the test
//! harnesses all invoke the engine.
//!
//! On top of the executor sits the **campaign journal** ([`journal`]): an
//! append-only log of length-prefixed, CRC-checksummed, canonical-JSON
//! command records, written **ahead** of each mutation and rotated across
//! segments with temp+rename. Because every mutation flows through
//! [`Command`] and lands in the journal first, three operations become
//! first-class:
//!
//! * [`Executor::recover`] — replay a truncated or interrupted campaign to
//!   completion, executing **zero** jobs that are already journaled and
//!   stored. A journaled spec decodes through the same codec that wrote
//!   it, [`rackfabric_scenario::codec`] (re-exported here as
//!   [`decode_spec`]);
//! * [`diff`] — render two campaign logs command-by-command, making
//!   "editing one axis re-executes only its cells" auditable instead of
//!   implicit;
//! * [`bundle`] — export/import a store + journal + reports directory as
//!   one self-contained, checksummed artifact that round-trips
//!   byte-for-byte.
//!
//! Routing through the command layer never moves an export byte: the
//! executor's [`EngineBoundary`] implementation journals each store-miss
//! batch and then delegates to the exact execute+persist path the sweep
//! orchestrator used before this crate existed.
//!
//! [`EngineBoundary`]: rackfabric_sweep::campaign::EngineBoundary

pub mod bundle;
pub mod command;
pub mod diff;
pub mod executor;
pub mod journal;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::bundle::{export_bundle, import_bundle, BundleStats};
    pub use crate::command::Command;
    pub use crate::diff::{diff_journal_dirs, render_diff};
    pub use crate::executor::{CampaignResolver, Executor, NoCampaigns, RecoveryStats};
    pub use crate::journal::{Journal, LogRecord, LogTail};
    pub use rackfabric_scenario::codec::decode_spec;
}

pub use bundle::{export_bundle, import_bundle, BundleStats};
pub use command::Command;
pub use diff::{diff_journal_dirs, render_diff};
pub use executor::{CampaignResolver, Executor, NoCampaigns, RecoveryStats};
pub use journal::{Journal, LogRecord, LogTail};
pub use rackfabric_scenario::codec::decode_spec;
