//! # revival-matching
//!
//! Object identification (§4 of the paper): deciding when tuples from
//! two relations refer to the same real-world entity, via **relative
//! candidate keys** (RCKs) derived from matching rules.
//!
//! The paper's running scenario: `card(…)` and `billing(…)` feeds must
//! agree on the holder attributes `Y = [fn, ln, addr, phn, email]`.
//! Given domain matching rules —
//!
//! * (a) if `phn` matches then `addr` refers to the same address,
//! * (b) if `email` matches then `fn, ln` match,
//! * (c) if `ln, addr` are identical and `fn` is *similar* then `Y`
//!   matches,
//!
//! — one can *deduce* compact keys such as
//! `rck1 = ([email, addr] ‖ [=, =])` and
//! `rck2 = ([ln, phn, fn] ‖ [=, =, ≈])`: checking an RCK suffices to
//! conclude a full `Y` match. Derived RCKs find true matches the
//! original rules alone would miss on dirty pairs (experiment E8).
//!
//! Modules: [`similarity`] (edit distance, Jaro-Winkler, q-grams,
//! soundex, name/address comparators), [`rules`] (matching rules +
//! deduction), [`rck`] (RCK type + derivation), [`matcher`] (blocking
//! matcher + quality scoring).

#![forbid(unsafe_code)]

pub mod matcher;
pub mod rck;
pub mod rules;
pub mod similarity;

pub use matcher::{MatchQuality, RecordMatcher};
pub use rck::RelativeCandidateKey;
pub use rules::{Cmp, MatchingRule};
