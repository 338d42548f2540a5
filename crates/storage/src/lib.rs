//! # pcp-storage
//!
//! The I/O substrate of the pipelined-compaction LSM-tree. Compaction steps
//! S1 (READ) and S7 (WRITE) spend their time here.
//!
//! The paper's experiments ran on real 7200 RPM SATA disks and an Intel
//! X25-M SSD. To make the reproduction deterministic and host-independent,
//! this crate provides *simulated* block devices whose service times follow
//! published device characteristics. A device books each request on its
//! timeline and the caller sleeps to the booked completion with no lock
//! held — so a thread doing simulated I/O genuinely leaves the CPU free for
//! the compute stage, which is exactly the overlap PCP exploits.
//!
//! Layers, bottom to top:
//!
//! * [`model`] — [`LatencyModel`]s: [`HddModel`] (seek + rotation + media
//!   rate + write buffer), [`SsdModel`] (access latency, internal-channel
//!   parallelism, erase-penalty writes), [`NullModel`] (no latency).
//! * [`device`] — [`BlockDevice`] trait (a non-blocking `submit_read` /
//!   `submit_write` pair that returns each request's completion instant,
//!   and the `read_at` / `write_at` that sleep to it) and [`SimDevice`], an
//!   in-memory sparse backing store with one timeline (one "disk arm").
//! * [`raid`] — [`Raid0`], striping across k devices whose timelines serve
//!   their shares in parallel, as the paper builds with the Linux `md`
//!   driver for S-PPCP.
//! * [`trace`] — [`TraceDevice`], a wrapper that records every request.
//! * [`env`](mod@env) + [`sim_env`] / [`std_env`] — the filesystem abstraction the
//!   LSM engine programs against (create/append/read/rename/delete), with a
//!   simulated implementation backed by a [`BlockDevice`] plus extent
//!   allocator, and a real `std::fs` implementation.
//! * [`span_reader`] — [`SpanReader`], the one front-to-back reader: a
//!   range read in doubling spans, the next booked while the caller decodes
//!   the current one (table scans, log replay, the integrity check).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod alloc;
pub mod blocking;
pub mod device;
pub mod env;
pub mod fault_env;
pub mod model;
pub mod raid;
pub mod retry;
pub mod sim_env;
pub mod span_reader;
pub mod stats;
pub mod std_env;
pub mod trace;

pub use device::{BlockDevice, SimDevice};
pub use env::{Env, RandomReadFile, ReadClass, WritableFile};
pub use fault_env::{FaultEnv, FaultKind, FaultOp, FaultStats};
pub use model::{HddModel, IoKind, LatencyModel, NullModel, SsdModel};
pub use raid::Raid0;
pub use retry::{is_transient, with_retry, RetryPolicy};
pub use sim_env::SimEnv;
pub use span_reader::{SpanEnds, SpanReader};
pub use stats::{register_device_metrics, DeviceStats};
pub use std_env::StdFsEnv;
pub use trace::{TraceDevice, TraceRecord};

use std::sync::Arc;

/// Shared handle to a block device.
pub type DeviceRef = Arc<dyn BlockDevice>;

/// Shared handle to a filesystem environment.
pub type EnvRef = Arc<dyn Env>;
