//! # nice-bench — harnesses that regenerate every table and figure of the
//! NICE (HPDC '17) evaluation
//!
//! One binary per experiment (`fig04_routing` … `fig12_ycsb`,
//! `switch_scalability`, `membership_scalability`); each prints the CSV
//! series the paper plots and writes a copy under `bench_results/`.
//! Host-speed measurement (wall-clock throughput, per-layer timings) is
//! not here: it is the `perfbench/` package declared in `BENCHMARK.json`.
//!
//! Shared here: experiment configuration, cluster drivers for the NICE and
//! NOOB systems, latency statistics and CSV output.

#![warn(missing_docs)]

pub mod harness;
pub mod systems;

pub use harness::size_label;
pub use harness::{ArgSpec, CsvOut, Stats};
pub use systems::{run, ExpResult, RunSpec, System};
