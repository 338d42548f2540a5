//! # pcp-obs
//!
//! The unified observability layer: one registry, one histogram, one
//! trace format for every crate in the workspace. The full metrics
//! contract — every name, unit, type, and emitter — is documented in
//! `OBSERVABILITY.md` at the repository root; this crate provides the
//! mechanism.
//!
//! Design constraints, in order:
//!
//! 1. **Lock-cheap on the hot path.** Recording into a component's own
//!    atomic or a [`Histogram`] is a relaxed atomic operation; the
//!    registry's `parking_lot` mutex is taken only on registration and on
//!    scrape (both rare). Nothing on the write path, read path, or inside
//!    a compaction stage ever blocks on observability.
//! 2. **Adoptable by existing structs.** Components that already keep
//!    their own atomics ([`pcp_lsm::Metrics`], `DeviceStats`, the
//!    [`CompactionProfile`] step accumulators) export them through
//!    closure-backed collectors ([`Registry::register_fn_counter`] /
//!    [`Registry::register_fn_gauge`]) instead of being rewritten onto
//!    registry-owned storage.
//! 3. **Two export formats from one snapshot.** A [`MetricsSnapshot`] is
//!    plain data; [`MetricsSnapshot::render_prometheus`] produces the
//!    text exposition format served by the KV service's `METRICS` wire
//!    op, and [`MetricsSnapshot::to_json`] produces the machine-readable
//!    `BENCH_obs.json`-style output the bench harnesses emit.
//! 4. **Consumable from below the engine.** This crate depends on nothing
//!    in the workspace, so even interface crates can accept a
//!    [`Registry`]: the executor trait's `register_metrics` hook is how
//!    the adaptive executor exports its `pcp_sched_executor_choice_total`
//!    counters and the sharded engine exports the rest of the
//!    `pcp_sched_*` scheduler family (see `OBSERVABILITY.md` §2.2).
//!
//! [`pcp_lsm::Metrics`]: https://docs.rs/pcp-lsm
//! [`CompactionProfile`]: https://docs.rs/pcp-core

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod expo;
pub mod histogram;
pub mod registry;
pub mod trace;

pub use expo::{validate_exposition, ExpoError};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{MetricsSnapshot, Registry, Sample, SampleValue};
pub use trace::{TraceEvent, TraceLog};
