//! # pcp-workload
//!
//! Workload generation for the paper's experiments (§IV-A): insert-only
//! loads of fifty million 16-byte keys with 100-byte values, scaled down
//! by a configurable factor. Key order (sequential, uniform random) and
//! value compressibility are configurable; the paper's figures use uniform
//! random keys with snappy-compressible values. Everything else the engine
//! is measured with lives in `benchmark/`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod backend;
pub mod driver;
pub mod keys;
pub mod values;

pub use backend::KvStore;
pub use driver::{run_inserts, InsertReport, WorkloadConfig};
pub use keys::{KeyGen, KeyOrder};
pub use values::ValueGen;
