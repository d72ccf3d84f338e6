//! Pareto-frontier search over the TISCC design space.
//!
//! `tiscc estimate` answers one question — "what does this program cost
//! on this configuration?" — for one floorplan, one budget and one set of
//! profiles at a time. This crate answers the planning question instead:
//! over a whole slice of the (layout × code distance × hardware profile)
//! design space, **which configurations are worth considering at all?**
//!
//! - [`spec::FrontierSpec`] names the slice; normalization dedupes the
//!   axes and resolves the odd-distance range.
//! - [`engine::run_frontier`] expands the job matrix, compiles each
//!   distinct `(instruction, d, profile)` row exactly once (compilation
//!   is layout-independent), and prices every configuration.
//! - [`pareto::pareto_flags`] marks the non-dominated points on the
//!   (machine size, wall clock) plane; everything else is provably a
//!   waste of hardware or time.
//! - [`cache::DiskCache`] persists compiled rows across process runs in a
//!   versioned, corruption-tolerant on-disk store, so the second
//!   invocation of a big search performs zero fresh compiles.
//! - [`emit`] renders the matrix and the frontier as CSV/JSON with
//!   shortest-round-trip floats (bit-exact re-parse).
//! - [`request`] reads an estimate or frontier request, from CLI flags or
//!   serve JSON fields, into one spec with one set of defaults.
//! - [`serve`] answers newline-delimited JSON estimate/frontier requests
//!   against one warm in-process compiler — the `tiscc serve
//!   --stdin-json` loop.
//!
//! ```
//! use tiscc_estimator::compiler::Compiler;
//! use tiscc_frontier::engine::run_frontier;
//! use tiscc_frontier::spec::FrontierSpec;
//! use tiscc_hw::HardwareSpec;
//! use tiscc_program::{examples, LayoutSpec};
//!
//! let program = examples::bell_pair();
//! let spec = FrontierSpec::new(
//!     vec![LayoutSpec::single_lane(), LayoutSpec::checkerboard().with_grid(4, 4)],
//!     vec![HardwareSpec::h1()],
//! )
//! .with_distances(3, 7);
//! let report = run_frontier(&program, &spec, &Compiler::new(), None).unwrap();
//! assert_eq!(report.points.len(), 2 * 3);
//! assert!(!report.frontier().is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod emit;
pub mod engine;
pub mod pareto;
pub mod request;
pub mod serve;
pub mod spec;

pub use cache::{DiskCache, CACHE_FORMAT_VERSION};
pub use emit::{frontier_to_csv, matrix_from_csv, matrix_to_csv, report_to_json, stats_to_json};
pub use engine::{run_frontier, run_frontier_with, FrontierPoint, FrontierReport, FrontierStats};
pub use pareto::{pareto_flags, pareto_flags_bruteforce};
pub use serve::{handle_line, handle_request, read_request, ServeState, MAX_REQUEST_BYTES};
pub use spec::{FrontierError, FrontierSpec, NormalizedSpec};
