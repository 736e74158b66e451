//! The smoke drivers behind `repro bench` ([`engine_bench`], the
//! host-count ladder) and `repro mux` ([`mux`], the multiplexed-query
//! bench). The §6 experiments `repro` runs, and their quick and paper
//! sizes, live in `pov_core::experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_bench;
pub mod mux;
