//! Which I/O errors are worth retrying.
//!
//! The engine retries only whole attempts that write fresh files — a
//! flush's table write, a merge, and `repair`'s per-table open and scan —
//! and only on an error this module calls transient; the attempt that
//! failed has been swept, so the next one starts clean. A single WAL or
//! MANIFEST call is never retried: a retried append can write its bytes
//! twice, and a retried `fsync` can report success over pages the kernel
//! already dropped. A file whose write failed is abandoned instead
//! (DESIGN.md §7).

use std::io;

/// True for errors where retrying the same op can plausibly succeed.
///
/// `Interrupted` is the classic case (EINTR, and what
/// [`crate::FaultEnv`] uses for injected transient faults);
/// `WouldBlock`/`TimedOut` cover overloaded devices.
pub fn is_transient(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
