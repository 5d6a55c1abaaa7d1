//! `gradest-serve` — the crowd-scale gradient-map ingestion service.
//!
//! The paper's deployment story is crowdsourced: many phones estimate
//! gradients on the roads they drive and a cloud service fuses the
//! uploads into one gradient map (PAPER.md; DESIGN.md §14). This crate
//! is that service, built on std and the vendored shims only: a
//! hand-rolled length-prefixed binary protocol over
//! `std::net::TcpListener`, a bounded accept queue feeding a small
//! worker pool, and the same warm-path discipline as the in-process
//! fleet engine — each worker decodes into reused scratch, runs
//! `estimate_into` with zero warm allocations, and fuses into a shared
//! [`CloudAggregator`].
//!
//! Four pieces:
//!
//! - [`protocol`]: the wire grammar (UPLOAD / TILE_QUERY / METRICS /
//!   STATUS requests; ACK / TILE / METRICS / BUSY / ERR / STATUS
//!   replies), total decoding with typed [`protocol::DecodeError`]s,
//!   and the [`protocol::TileWriter`] both the server and the
//!   soak-test reference path use, so "bit-identical tiles" compares
//!   fusion output rather than formatting.
//! - [`server`]: accept/worker threads, explicit backpressure (BUSY
//!   frames at both the accept queue and the drain gate), per-frame
//!   observability spans/counters/events, a live windowed time-series
//!   ring feeding SLO burn rates and gradient-quality drift monitors
//!   (served by the STATUS frame — DESIGN.md §15), and a
//!   drain-on-shutdown that provably abandons no upload.
//! - [`drain`]: the two-word stop/in-flight gate behind that proof,
//!   loom-model-checked under `--cfg loom`.
//! - [`client`]: a small blocking client used by the soak bench, the
//!   CI smoke, the `gradest-top` example, and external callers.
//!
//! # Quickstart
//!
//! ```
//! use gradest_serve::client::{Client, ServerReply};
//! use gradest_serve::server::{start, ServeConfig};
//! use gradest_geo::generate::straight_road;
//! use gradest_geo::RoadNetwork;
//! use gradest_obs::NoopRecorder;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let road = straight_road(300.0, 0.5);
//! let mut net = RoadNetwork::new();
//! let a = net.add_node(road.point_at(0.0));
//! let b = net.add_node(road.point_at(road.length()));
//! net.add_edge(a, b, road).unwrap();
//! let server =
//!     start(&ServeConfig::default(), "127.0.0.1:0", &net, Arc::new(NoopRecorder)).unwrap();
//! let mut client = Client::connect(server.addr(), Duration::from_secs(2)).unwrap();
//! match client.metrics().unwrap() {
//!     ServerReply::Metrics(text) => assert!(text.contains("gradest_service_connections_total")),
//!     other => panic!("unexpected reply: {other:?}"),
//! }
//! drop(client);
//! let report = server.shutdown();
//! assert!(report.is_clean());
//! ```
//!
//! [`CloudAggregator`]: gradest_core::cloud::CloudAggregator

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod drain;
pub mod protocol;
pub mod server;
pub mod sync;

pub use client::{Client, ClientError, ServerReply};
pub use drain::DrainGate;
pub use protocol::{DecodeError, UploadScratch};
pub use server::{install_alloc_probe, start, DrainReport, ServeConfig, ServerHandle, ServerStats};
