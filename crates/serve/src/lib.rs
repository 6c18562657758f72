//! `pytfhe-serve` — the multi-tenant FHE serving front.
//!
//! The paper's pipeline ends with a cloud executor that evaluates one
//! tenant's program at a time. This crate adds the layer in front of
//! it: many concurrent client sessions, each owning its own server
//! key, stream programs and ciphertexts over a length-delimited
//! [`pytfhe_wire`] frame protocol, and one *cross-session batching
//! scheduler* captures every job into a plan and merges the tenants'
//! next waves into shared rounds, one
//! [`run_wave`](pytfhe_backend::graph::run_wave) dispatch each.
//!
//! The pieces:
//!
//! - [`transport`]: the byte-stream abstraction plus an in-memory
//!   duplex pipe with socket semantics for tests and benches.
//! - [`frame`]: the wire protocol — install-key / submit / fetch /
//!   close / reply frames of plain sections, with a server key copied
//!   once on each side.
//! - [`keycache`]: fingerprint-keyed decoded-server-key cache with LRU
//!   eviction and transparent [`DiskStore`](pytfhe_backend::DiskStore)
//!   rehydration — decoding a key once per tenant instead of once per
//!   request is the serving layer's dominant saving on small programs.
//! - [`scheduler`]: per-tenant queues of captured plans, fair
//!   round-robin rounds, one launch per picked job per round.
//! - [`server`] / [`client`]: the session front (admission control,
//!   handler threads) and the blocking client.
//!
//! ```no_run
//! use pytfhe_serve::{duplex, ServeClient, ServeConfig, ServeHandle};
//!
//! let front = ServeHandle::start(ServeConfig::default(), None);
//! let (near, far) = duplex();
//! front.attach(far).unwrap();
//! let mut client = ServeClient::new(near);
//! // client.install_key(..), client.run(..), client.close()
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod frame;
pub mod keycache;
pub mod scheduler;
pub mod server;
pub mod transport;

pub use client::ServeClient;
pub use error::ServeError;
pub use frame::Status;
pub use keycache::KeyCache;
pub use scheduler::Scheduler;
pub use server::{ServeConfig, ServeHandle};
pub use transport::{duplex, PipeEnd, Transport};
