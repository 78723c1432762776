//! # nice-workload — workload generators for the NICE evaluation
//!
//! The seeded PRNG every layer draws from, the zipfian sampler, and the
//! YCSB-style workloads of Figure 12. (The fixed-size and fixed-mix
//! streams of Figures 4–11 are a few lines each in their figure binary.)

#![warn(missing_docs)]

pub mod ops;
pub mod rng;
pub mod ycsb;
pub mod zipf;

pub use ops::{Op, OpKind};
pub use rng::{splitmix64, XorShiftRng};
pub use ycsb::{KeyDist, Workload, WorkloadRun};
pub use zipf::Zipf;
