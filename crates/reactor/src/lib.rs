//! afpr-reactor: minimal vendored epoll readiness reactor.
//!
//! The serving tier (afpr-serve, afpr-cluster) was thread-per-
//! connection blocking I/O — a dead end for C10K-scale traffic against
//! the AFPR-CIM macros. This crate supplies the event-driven
//! substrate those tiers build on, with no async runtime and no
//! external dependency (consistent with the air-gapped vendoring
//! policy): hand-rolled epoll FFI, a safe level-triggered [`Poller`],
//! a cross-thread [`Waker`], a generation-tagged [`Slab`] for
//! connection tokens, [`FrameConn`] for incremental
//! length-prefixed frame assembly with buffered, backpressure-aware
//! writes, and [`AcceptWait`], which parks the blocking transports'
//! acceptor threads on listener readiness.
//!
//! This is the only workspace crate that contains `unsafe`; all of it
//! is confined to `sys.rs` behind safe wrappers. `afpr-serve` and
//! `afpr-cluster` stay `#![forbid(unsafe_code)]` and consume only the
//! safe surface re-exported here. Off Linux, [`Poller::new`] returns
//! `Unsupported` and callers fall back to their blocking transports.

#[cfg(target_os = "linux")]
mod sys;

mod accept;
mod conn;
mod poller;
mod slab;
mod waker;

pub use accept::AcceptWait;
pub use conn::{FrameConn, FrameTooLarge};
pub use poller::{reactor_supported, Event, Events, Interest, Poller};
pub use slab::{Slab, SENTINEL_BASE};
pub use waker::{waker_pair, Waker, WakerSource};

/// Best-effort raise of this process's open-file soft limit toward its
/// hard limit; returns the soft limit now in effect. On non-Linux
/// hosts this is a no-op reporting a conservative default.
pub fn raise_nofile_limit() -> std::io::Result<u64> {
    #[cfg(target_os = "linux")]
    {
        sys::raise_nofile_limit()
    }
    #[cfg(not(target_os = "linux"))]
    {
        Ok(1024)
    }
}
