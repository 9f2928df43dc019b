//! # revival-dirty
//!
//! Synthetic workload generation with ground truth.
//!
//! The experiments behind the tutorial (\[6\], \[8\], \[4\]) run on
//! customer databases and book/CD order tables that were never
//! published. This crate substitutes seeded generators that
//! preserve the properties those experiments control for:
//!
//! * **pattern conformance** — clean data *satisfies* the standard CFD
//!   suite by construction (`zip → street` maps, `(cc, ac) → city`
//!   maps are drawn once and reused), so every violation found later is
//!   an injected one;
//! * **controlled error rate** — [`noise`] flips a chosen fraction of
//!   cells, recording ground truth for precision/recall scoring;
//! * **value skew** — group sizes follow a Zipf-like distribution
//!   ([`zipf`]), matching the skewed group cardinalities real customer
//!   data exhibits;
//! * **determinism** — everything is driven by a caller-provided seed.
//!
//! Scenarios: [`customer`] (CFD detection/repair), [`hospital`]
//! (HOSP-style CFDs, the literature's second benchmark) and [`orders`]
//! (book/CD CINDs).

#![forbid(unsafe_code)]

pub mod customer;
pub mod hospital;
pub mod noise;
pub mod orders;
pub mod zipf;

pub use customer::{CustomerConfig, CustomerData};
pub use noise::{DirtyDataset, NoiseConfig};
