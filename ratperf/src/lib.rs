//! Out-of-process benchmark of the `rat` binary.
//!
//! `rat` is a black box here: the benchmark builds it from the current tree,
//! spawns it, and drives it over HTTP (`rat serve`) or as a one-shot process
//! (`rat reproduce all`), checking every output. A separate traced run
//! replays the same seeded requests in-process through each layer's public
//! function to attribute the end-to-end time layer by layer.

pub mod client;
pub mod gen;
pub mod layers;
pub mod procs;
pub mod scrape;
pub mod stats;
pub mod trace;
pub mod workloads;
