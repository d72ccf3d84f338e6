//! The batch estimation engine: expands a [`FrontierSpec`] into its
//! (layout × distance × profile) job matrix, resolves every
//! per-instruction compile through the persistent [`DiskCache`] and the
//! in-process [`Compiler`] memo, and assembles one [`FrontierPoint`] per
//! matrix cell with Pareto flags over the (machine size, wall clock)
//! plane.
//!
//! The expensive axis of the matrix is compilation, and compilation is
//! **layout-independent**: a program's distinct instruction kinds at a
//! given `(d, profile)` cost the same on every floorplan. The engine
//! therefore resolves `kinds × distances × profiles` rows exactly once
//! (disk first, then the compiler's cache for whatever is missing) and
//! reuses them across all layouts; per-layout work is the
//! [`LogicalCounts`] of the floorplan, priced once per (distance, profile)
//! cell.

use tiscc_core::instruction::Instruction;
use tiscc_estimator::compiler::{CompileRequest, Compiler};
use tiscc_estimator::tables::ResourceRow;
use tiscc_estimator::LogicalCounts;
use tiscc_program::{LayoutSpec, LogicalProgram, Placement};
use tiscc_telemetry::{Span, Telemetry};

use crate::cache::DiskCache;
use crate::pareto::pareto_flags;
use crate::spec::{FrontierError, FrontierSpec, NormalizedSpec};

/// One cell of the job matrix: a (layout, distance, profile)
/// configuration and the space–time resources the program costs there.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontierPoint {
    /// The floorplan of this configuration.
    pub layout: LayoutSpec,
    /// Resolved tile-grid dimensions `(rows, cols)`.
    pub grid: (usize, usize),
    /// Code distance (`dx = dz = dt = d`).
    pub d: usize,
    /// Hardware profile name.
    pub profile: String,
    /// Machine size: trapping zones of the machine hosting the placement
    /// (each zone holds the physical qubits of one site).
    pub physical_qubits: usize,
    /// Wall-clock program duration in seconds.
    pub duration_s: f64,
    /// Zone-rounds: trapping zones × logical time steps × `d`.
    pub qubit_rounds: u64,
    /// Achieved total program error at distance `d`.
    pub error: f64,
    /// Physical machine area in square metres.
    pub area_m2: f64,
    /// True iff no other matrix point dominates this one on the
    /// `(physical_qubits, duration_s)` plane.
    pub on_frontier: bool,
}

/// Where the per-instruction rows behind a frontier run came from, plus
/// matrix bookkeeping. These numbers are the observable proof of cache
/// behaviour: a fully warm run reports `computed == 0`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrontierStats {
    /// Distinct compile jobs the matrix needed (kinds × distances ×
    /// profiles).
    pub jobs: usize,
    /// Jobs served by intact persistent-cache entries.
    pub disk_hits: usize,
    /// Jobs compiled by this run: disk misses that the compiler's memo
    /// missed too. Every disk miss, compiled or served by the memo, is
    /// persisted when a cache is attached.
    pub computed: usize,
    /// Corrupt persistent entries found when the cache was opened.
    pub corrupt_entries: usize,
    /// Duplicate layout/profile entries dropped by spec normalization.
    pub duplicates_dropped: usize,
}

/// The result of a frontier run: the full job matrix (layout-major, then
/// distance, then profile) with Pareto flags, and the run's cache
/// provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontierReport {
    /// The program's name.
    pub program: String,
    /// Declared logical qubits.
    pub logical_qubits: usize,
    /// Instructions in the program.
    pub instructions: usize,
    /// Every evaluated configuration, in deterministic matrix order.
    pub points: Vec<FrontierPoint>,
    /// Cache provenance and matrix bookkeeping.
    pub stats: FrontierStats,
}

impl FrontierReport {
    /// The Pareto-optimal subset of [`FrontierReport::points`], in matrix
    /// order (exact (qubits, duration) ties all survive).
    pub fn frontier(&self) -> Vec<&FrontierPoint> {
        self.points.iter().filter(|p| p.on_frontier).collect()
    }

    /// Renders the run's provenance as an aligned text report. The
    /// `computed` count is the warm-start witness CI greps for.
    pub fn render_stats(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "frontier: {} matrix point(s), {} on the Pareto frontier\n",
            self.points.len(),
            self.frontier().len()
        );
        out.push_str(&format!(
            "  compile jobs: {} total, {} from persistent cache, {} computed\n",
            s.jobs, s.disk_hits, s.computed
        ));
        out.push_str(&format!("  corrupt cache entries skipped: {}\n", s.corrupt_entries));
        if s.duplicates_dropped > 0 {
            out.push_str(&format!("  duplicate spec entries dropped: {}\n", s.duplicates_dropped));
        }
        out
    }
}

/// Runs the frontier search: evaluates `program` at every configuration
/// of `spec`, resolving per-instruction compiles disk-first through
/// `disk` (when attached), then through `compiler`'s in-process memo.
/// Freshly computed rows are persisted back to `disk`.
pub fn run_frontier(
    program: &LogicalProgram,
    spec: &FrontierSpec,
    compiler: &Compiler,
    disk: Option<&DiskCache>,
) -> Result<FrontierReport, FrontierError> {
    run_frontier_with(program, spec, compiler, disk, &Telemetry::off().root("frontier"))
}

/// [`run_frontier`] with telemetry: spec normalization, per-layout
/// placement/scheduling, the disk-first compile resolution, matrix
/// assembly and the Pareto sweep each open a child span under `parent`
/// (`normalize`, `layout`, `resolve`, `assemble`, `pareto`), and the
/// run's [`FrontierStats`] are mirrored into `frontier.*` counters.
/// Passing a span from [`Telemetry::off`] makes this identical to
/// [`run_frontier`].
pub fn run_frontier_with(
    program: &LogicalProgram,
    spec: &FrontierSpec,
    compiler: &Compiler,
    disk: Option<&DiskCache>,
    parent: &Span,
) -> Result<FrontierReport, FrontierError> {
    let norm = {
        let _normalize = parent.child("normalize");
        let norm = spec.normalize()?;
        program.validate().map_err(|e| FrontierError::Program(e.to_string()))?;
        norm
    };

    // Count each floorplan once: placement and schedule are distance- and
    // profile-independent.
    let layout_span = parent.child("layout");
    let counts = norm
        .layouts
        .iter()
        .map(|layout| {
            let placement = Placement::allocate_with(program, layout)
                .map_err(|e| FrontierError::Placement(e.to_string()))?;
            LogicalCounts::new(program, placement, &layout_span)
                .map_err(|e| FrontierError::Placement(e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    layout_span.finish();

    // Every floorplan counts the same kinds in the same order, and
    // normalization guarantees at least one floorplan.
    let kinds = &counts[0].kinds;
    let (rows, stats) = {
        let resolve_span = parent.child("resolve");
        let (rows, stats) = resolve_rows(kinds, &norm, compiler, disk)?;
        resolve_span.add("frontier.jobs", stats.jobs as u64);
        resolve_span.add("frontier.disk_hits", stats.disk_hits as u64);
        resolve_span.add("frontier.computed", stats.computed as u64);
        resolve_span.add("frontier.corrupt_entries", stats.corrupt_entries as u64);
        resolve_span.add("frontier.duplicates_dropped", norm.duplicates_dropped as u64);
        (rows, stats)
    };

    // Assemble the matrix in deterministic layout-major order. The rows of
    // cell (distance `di`, profile `pi`) are the `k` kinds' rows at job
    // `(pi · distances + di) · k`, the order `resolve_rows` lists them in.
    let assemble_span = parent.child("assemble");
    let k = kinds.len();
    let mut points = Vec::with_capacity(norm.matrix_len());
    for (&layout, counts) in norm.layouts.iter().zip(&counts) {
        let grid = (counts.placement.tile_rows(), counts.placement.tile_cols());
        for (di, &d) in norm.distances.iter().enumerate() {
            let machine = counts.placement.layout(d);
            let zones = machine.trapping_zone_count();
            let area_m2 = machine.area_m2();
            let error = spec.model.program_error(d, counts.patch_steps);
            let qubit_rounds = zones as u64 * counts.schedule.logical_time_steps as u64 * d as u64;
            for (pi, profile) in norm.profiles.iter().enumerate() {
                let job = (pi * norm.distances.len() + di) * k;
                let (duration_s, _) = counts.price(&rows[job..job + k]);
                points.push(FrontierPoint {
                    layout,
                    grid,
                    d,
                    profile: profile.name.clone(),
                    physical_qubits: zones,
                    duration_s,
                    qubit_rounds,
                    error,
                    area_m2,
                    on_frontier: false,
                });
            }
        }
    }

    assemble_span.finish();

    let pareto_span = parent.child("pareto");
    let axes: Vec<(usize, f64)> =
        points.iter().map(|p| (p.physical_qubits, p.duration_s)).collect();
    for (point, flag) in points.iter_mut().zip(pareto_flags(&axes)) {
        point.on_frontier = flag;
    }
    pareto_span.finish();

    Ok(FrontierReport {
        program: program.name().to_string(),
        logical_qubits: program.qubit_count(),
        instructions: program.len(),
        points,
        stats: FrontierStats { duplicates_dropped: norm.duplicates_dropped, ..stats },
    })
}

/// Resolves every compile job of the matrix: one disk lookup per job, then
/// the disk misses through the compiler's cache
/// ([`CompileCache::resolve`](tiscc_estimator::CompileCache::resolve)),
/// each persisted back to disk. Returns one row per job, profile-major,
/// then distance, then kind.
fn resolve_rows(
    kinds: &[Instruction],
    norm: &NormalizedSpec,
    compiler: &Compiler,
    disk: Option<&DiskCache>,
) -> Result<(Vec<ResourceRow>, FrontierStats), FrontierError> {
    let requests = norm.profiles.iter().flat_map(|profile| {
        norm.distances.iter().flat_map(move |&d| {
            kinds
                .iter()
                .map(move |&kind| CompileRequest::new(kind, d, d, d).with_spec(profile.clone()))
        })
    });

    let (mut rows, mut missing, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    for request in requests {
        let row = disk.and_then(|cache| cache.get(&request.key()));
        if row.is_none() {
            missing.push(rows.len());
            misses.push(request);
        }
        rows.push(row);
    }
    let resolved =
        compiler.cache().resolve(&misses).map_err(|e| FrontierError::Compile(e.to_string()))?;
    for ((&job, request), row) in missing.iter().zip(&misses).zip(resolved.rows) {
        if let Some(cache) = disk {
            cache.insert(&request.key(), &row)?;
        }
        rows[job] = Some(row);
    }

    let stats = FrontierStats {
        jobs: rows.len(),
        disk_hits: rows.len() - misses.len(),
        computed: resolved.computed,
        corrupt_entries: disk.map_or(0, |c| c.corrupt_entries()),
        ..FrontierStats::default()
    };
    Ok((rows.into_iter().map(|row| row.expect("every job resolved")).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiscc_hw::HardwareSpec;
    use tiscc_program::examples;

    fn small_spec() -> FrontierSpec {
        FrontierSpec::new(
            vec![LayoutSpec::default(), LayoutSpec::checkerboard().with_grid(4, 4)],
            vec![HardwareSpec::h1(), HardwareSpec::projected()],
        )
        .with_distances(3, 5)
    }

    #[test]
    fn matrix_covers_every_configuration_in_order() {
        let program = examples::bell_pair();
        let compiler = Compiler::new();
        let report = run_frontier(&program, &small_spec(), &compiler, None).unwrap();
        assert_eq!(report.points.len(), 2 * 2 * 2);
        // Layout-major, then distance, then profile.
        assert_eq!(report.points[0].layout, LayoutSpec::default());
        assert_eq!((report.points[0].d, report.points[0].profile.as_str()), (3, "h1"));
        assert_eq!((report.points[1].d, report.points[1].profile.as_str()), (3, "projected"));
        assert_eq!(report.points[2].d, 5);
        assert_eq!(report.points[4].layout, LayoutSpec::checkerboard().with_grid(4, 4));
        let frontier = report.frontier();
        assert!(!frontier.is_empty(), "some point is always non-dominated");
        assert!(frontier.iter().all(|p| p.on_frontier));
    }

    #[test]
    fn higher_distance_costs_more_and_errs_less() {
        let program = examples::bell_pair();
        let compiler = Compiler::new();
        let spec = FrontierSpec::new(vec![LayoutSpec::default()], vec![HardwareSpec::h1()])
            .with_distances(3, 7);
        let report = run_frontier(&program, &spec, &compiler, None).unwrap();
        let [p3, p5, p7] = &report.points[..] else { panic!("expected 3 points") };
        assert!(p3.duration_s < p5.duration_s && p5.duration_s < p7.duration_s);
        assert!(p3.error > p5.error && p5.error > p7.error);
        assert!(p3.physical_qubits <= p5.physical_qubits);
        assert!(p3.qubit_rounds < p7.qubit_rounds);
    }

    #[test]
    fn frontier_agrees_with_estimate_program() {
        // A frontier point must reproduce `estimate_program` exactly for
        // the same configuration — same placement, schedule and compiled
        // rows, so bit-identical duration and footprint.
        use crate::spec::FrontierSpec;
        use tiscc_estimator::program::{estimate_program, ProgramEstimateSpec};

        let program = examples::teleportation();
        let compiler = Compiler::new();
        let layout = LayoutSpec::row_major().with_grid(6, 6);
        let frontier_spec =
            FrontierSpec::new(vec![layout], vec![HardwareSpec::h1()]).with_distances(5, 5);
        let report = run_frontier(&program, &frontier_spec, &compiler, None).unwrap();
        let point = &report.points[0];

        // Budget chosen so `estimate_program` selects d = 5 as well.
        let est_spec = ProgramEstimateSpec {
            layout,
            budget: point.error * 1.0000001,
            ..ProgramEstimateSpec::new(1.0)
        };
        let est = estimate_program(&program, &est_spec, &compiler).unwrap();
        let row = &est.rows[0];
        assert_eq!(row.distance, 5);
        assert_eq!(point.physical_qubits, row.trapping_zones);
        assert_eq!(point.duration_s.to_bits(), row.duration_s.to_bits());
        assert_eq!(point.qubit_rounds, row.qubit_rounds);
        assert_eq!(point.area_m2.to_bits(), row.area_m2.to_bits());
        assert_eq!(point.error.to_bits(), row.achieved_error.to_bits());
    }

    #[test]
    fn compile_jobs_are_layout_independent() {
        let program = examples::ripple_adder();
        let compiler = Compiler::new();
        let one = FrontierSpec::new(vec![LayoutSpec::default()], vec![HardwareSpec::h1()])
            .with_distances(3, 3);
        let two = FrontierSpec::new(
            vec![LayoutSpec::default(), LayoutSpec::checkerboard().with_grid(8, 8)],
            vec![HardwareSpec::h1()],
        )
        .with_distances(3, 3);
        let r1 = run_frontier(&program, &one, &compiler, None).unwrap();
        let r2 = run_frontier(&program, &two, &compiler, None).unwrap();
        assert_eq!(r1.stats.jobs, r2.stats.jobs, "adding layouts must not add compile jobs");
    }

    #[test]
    fn a_warm_compiler_without_a_disk_computes_nothing() {
        let program = examples::bell_pair();
        let compiler = Compiler::new();
        let cold = run_frontier(&program, &small_spec(), &compiler, None).unwrap();
        assert_eq!(cold.stats.computed, cold.stats.jobs);
        let misses = compiler.cache().misses();
        let warm = run_frontier(&program, &small_spec(), &compiler, None).unwrap();
        assert_eq!((warm.stats.computed, warm.stats.disk_hits), (0, 0));
        assert_eq!(compiler.cache().misses(), misses, "every job came from the memo");
        assert_eq!(warm.points, cold.points);
    }

    #[test]
    fn stats_report_renders_the_witness_lines() {
        let program = examples::bell_pair();
        let compiler = Compiler::new();
        let report = run_frontier(&program, &small_spec(), &compiler, None).unwrap();
        let text = report.render_stats();
        assert!(text.contains("from persistent cache"), "{text}");
        assert!(text.contains(" computed\n"), "{text}");
        assert!(report.stats.computed > 0);
        assert_eq!(report.stats.disk_hits, 0, "no disk cache was attached");
    }
}
