//! # evilbloom
//!
//! A reproduction of *"The Power of Evil Choices in Bloom Filters"*
//! (Thomas Gerbet, Amrit Kumar, Cédric Lauradoux — DSN 2015) as a Rust
//! workspace: adversary models for Bloom filters, worst-case parameter
//! analysis, end-to-end attacks on three simulated applications (a Scrapy-
//! like web spider, a Bitly/Dablooms-like spam filter, a Squid-like cache
//! proxy pair) and the proposed countermeasures.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`hashes`] | `evilbloom-hashes` | Murmur2/3, SipHash-2-4, MD5, SHA-1/2, HMAC, truncation, recycling, index strategies, Murmur inversions |
//! | [`analysis`] | `evilbloom-analysis` | closed-form honest and adversarial false-positive analysis, Table 1 probabilities |
//! | [`filters`] | `evilbloom-filters` | classic/counting/scalable/Dablooms filters, Squid cache digests, hardened variants |
//! | [`attacks`] | `evilbloom-attacks` | pollution, saturation, false-positive forgery, latency queries, deletion, pre-image search |
//! | [`urlgen`] | `evilbloom-urlgen` | deterministic fake URL generation |
//! | [`webspider`] | `evilbloom-webspider` | Scrapy-like crawler simulation and attacks |
//! | [`spamfilter`] | `evilbloom-spamfilter` | Bitly/Dablooms simulation and attacks |
//! | [`webcache`] | `evilbloom-webcache` | Squid sibling-proxy simulation and attacks |
//! | [`core`] | `evilbloom-core` | deployment assessment and hardened-filter builder |
//! | [`store`] | `evilbloom-store` | sharded lock-free concurrent serving layer: keyed routing, key rotation, pollution alarms |
//! | [`server`] | `evilbloom-server` | TCP serving layer: length-prefixed wire protocol, epoll reactor server, pipelining client |
//! | [`fault`] | `evilbloom-fault` | deterministic seeded fault injection: named fault points, replayable chaos schedules |
//!
//! ## Quick start
//!
//! ```
//! use evilbloom::core::{assess, DeploymentSpec, StrategyKind};
//!
//! let report = assess(&DeploymentSpec {
//!     capacity: 100_000,
//!     target_fpp: 0.01,
//!     strategy: StrategyKind::MurmurKirschMitzenmacher,
//! });
//! // A chosen-insertion adversary blows straight past the designed rate.
//! assert!(report.adversarial_fpp > 10.0 * report.honest_fpp);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use evilbloom_analysis as analysis;
pub use evilbloom_attacks as attacks;
pub use evilbloom_core as core;
pub use evilbloom_fault as fault;
pub use evilbloom_filters as filters;
pub use evilbloom_hashes as hashes;
pub use evilbloom_server as server;
pub use evilbloom_spamfilter as spamfilter;
pub use evilbloom_store as store;
pub use evilbloom_urlgen as urlgen;
pub use evilbloom_webcache as webcache;
pub use evilbloom_webspider as webspider;
