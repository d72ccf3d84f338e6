//! Property and integration tests for the Pareto-frontier engine and its
//! persistent compile cache: Pareto pruning must agree with a brute-force
//! dominance oracle on arbitrary point sets, and a warm cache-dir re-run
//! must be bit-identical to the cold run while compiling nothing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use tiscc::core::instruction::Instruction;
use tiscc::estimator::compiler::{CompileRequest, Compiler};
use tiscc::frontier::engine::run_frontier;
use tiscc::frontier::{
    matrix_to_csv, pareto_flags, pareto_flags_bruteforce, DiskCache, FrontierSpec,
    CACHE_FORMAT_VERSION,
};
use tiscc::hw::HardwareSpec;
use tiscc::program::{examples, LayoutSpec};

fn arb_points() -> impl Strategy<Value = Vec<(usize, f64)>> {
    // Small coordinate ranges force plenty of exact ties (both axes), the
    // regime where dominance bookkeeping is easiest to get wrong.
    proptest::collection::vec((0usize..6, 0u8..6), 0..40)
        .prop_map(|raw| raw.into_iter().map(|(q, t)| (q, f64::from(t) / 2.0)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `O(n log n)` sweep returns exactly the non-dominated subset:
    /// it agrees with the all-pairs oracle on every point, ties included.
    #[test]
    fn pareto_pruning_matches_bruteforce(points in arb_points()) {
        let fast = pareto_flags(&points);
        let slow = pareto_flags_bruteforce(&points);
        prop_assert_eq!(&fast, &slow, "points: {:?}", points);
        // Frontier members never dominate each other (mutual
        // non-domination is what "frontier" means).
        let frontier: Vec<(usize, f64)> =
            points.iter().zip(&fast).filter(|(_, &f)| f)
                .map(|(&p, _)| p).collect();
        prop_assert!(pareto_flags_bruteforce(&frontier).iter().all(|&f| f));
        // And every dominated point has a dominating witness on the frontier.
        for (&(bq, bt), &flag) in points.iter().zip(&fast) {
            if !flag && bt.is_finite() {
                prop_assert!(
                    frontier.iter().any(|&(aq, at)| {
                        aq <= bq && at <= bt && (aq < bq || at < bt)
                    }),
                    "({bq}, {bt}) was pruned but nothing on the frontier dominates it"
                );
            }
        }
    }
}

fn scratch_root(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("tiscc-frontier-it-{tag}-{}-{id}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn adder_spec() -> FrontierSpec {
    FrontierSpec::new(
        vec![LayoutSpec::row_major(), LayoutSpec::checkerboard()],
        vec![HardwareSpec::h1(), HardwareSpec::projected()],
    )
    .with_distances(3, 7)
}

/// A second run against the same cache directory reproduces the first run
/// bit-for-bit while compiling nothing: every job is a disk hit, and the
/// fresh compiler's memo is never consulted.
#[test]
fn warm_cache_dir_rerun_is_bit_identical_and_compile_free() {
    let root = scratch_root("warm");
    let program = examples::ripple_adder();
    let spec = adder_spec();

    let cold_cache = DiskCache::open(&root).unwrap();
    let cold_compiler = Compiler::new();
    let cold = run_frontier(&program, &spec, &cold_compiler, Some(&cold_cache)).unwrap();
    assert_eq!(cold.stats.disk_hits, 0);
    assert_eq!(cold.stats.computed, cold.stats.jobs);
    assert_eq!(cold_compiler.cache().misses(), cold.stats.jobs, "a cold run compiles every job");
    assert_eq!(cold_cache.len(), cold.stats.jobs, "every computed row was persisted");

    // Fresh process simulation: new cache handle, new compiler memo.
    let warm_cache = DiskCache::open(&root).unwrap();
    let warm_compiler = Compiler::new();
    let warm = run_frontier(&program, &spec, &warm_compiler, Some(&warm_cache)).unwrap();
    assert_eq!(warm.stats.computed, 0, "warm run compiles nothing");
    assert_eq!(warm.stats.disk_hits, warm.stats.jobs);
    assert_eq!(warm_compiler.cache().misses(), 0, "the warm compiler compiles nothing");
    assert!(warm_compiler.cache().is_empty());

    // Bit-identical, not approximately equal: the full CSV artifact (all
    // floats rendered shortest-round-trip) matches byte for byte.
    assert_eq!(matrix_to_csv(&warm), matrix_to_csv(&cold));
    for (a, b) in cold.points.iter().zip(&warm.points) {
        assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
        assert_eq!(a.error.to_bits(), b.error.to_bits());
        assert_eq!(a.area_m2.to_bits(), b.area_m2.to_bits());
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Rows read back from a cache directory carry the scheduling-pass stats
/// of a fresh compile, not zeros.
#[test]
fn cached_rows_carry_the_stats_of_a_fresh_compile() {
    let root = scratch_root("stats");
    let program = examples::ripple_adder();
    let mut wide = HardwareSpec::slow_junction();
    wide.simd_width = 2;
    let spec = FrontierSpec::new(vec![LayoutSpec::default()], vec![wide]).with_distances(3, 5);
    let cold =
        run_frontier(&program, &spec, &Compiler::new(), Some(&DiskCache::open(&root).unwrap()))
            .unwrap();
    assert_eq!(cold.stats.computed, cold.stats.jobs);

    let warm = DiskCache::open(&root).unwrap();
    let fresh = Compiler::new();
    let mut kinds: Vec<Instruction> = Vec::new();
    for inst in program.instructions() {
        if !kinds.contains(&inst.instruction) {
            kinds.push(inst.instruction);
        }
    }
    let (mut stalls, mut pulses) = (0, 0);
    for d in [3, 5] {
        for &kind in &kinds {
            let request = CompileRequest::new(kind, d, d, d).with_spec(spec.profiles[0].clone());
            let row = warm.get(&request.key()).expect("every job was persisted");
            let compiled = fresh.compile(&request).unwrap();
            assert_eq!(row.stats, compiled.stats, "{kind:?} d={d}");
            assert_eq!(row, compiled.row(), "{kind:?} d={d}");
            stalls += row.stats.junction_stalls;
            pulses += row.stats.batched_pulses;
        }
    }
    assert!(stalls > 0 && pulses > 0, "slow_junction at width 2 stalls and batches");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A format-version bump makes old entries invisible (recomputed, not
/// misread), while the old version's directory stays intact on disk.
#[test]
fn cache_version_mismatch_forces_recompute() {
    let root = scratch_root("version");
    let program = examples::bell_pair();
    let spec = FrontierSpec::new(vec![LayoutSpec::default()], vec![HardwareSpec::h1()])
        .with_distances(3, 5);

    let cache = DiskCache::open(&root).unwrap();
    let cold = run_frontier(&program, &spec, &Compiler::new(), Some(&cache)).unwrap();
    assert!(cold.stats.computed > 0);

    let bumped = DiskCache::open_versioned(&root, CACHE_FORMAT_VERSION + 1).unwrap();
    assert!(bumped.is_empty());
    let rerun = run_frontier(&program, &spec, &Compiler::new(), Some(&bumped)).unwrap();
    assert_eq!(rerun.stats.disk_hits, 0, "a new format version never reads old entries");
    assert_eq!(rerun.stats.computed, rerun.stats.jobs);
    assert_eq!(matrix_to_csv(&rerun), matrix_to_csv(&cold), "recomputed results are identical");

    let old = DiskCache::open(&root).unwrap();
    assert_eq!(old.len(), cold.stats.jobs, "the old version's entries survive untouched");
    std::fs::remove_dir_all(&root).unwrap();
}

/// Truncated or garbled entries are never trusted: the engine counts
/// them, recomputes the affected rows, heals the cache in place, and the
/// results stay bit-identical.
#[test]
fn corrupt_cache_entries_fall_back_to_recompute() {
    let root = scratch_root("corrupt");
    let program = examples::bell_pair();
    let spec = FrontierSpec::new(vec![LayoutSpec::default()], vec![HardwareSpec::h1()])
        .with_distances(3, 5);

    let cache = DiskCache::open(&root).unwrap();
    let cold = run_frontier(&program, &spec, &Compiler::new(), Some(&cache)).unwrap();
    let dir = cache.dir().to_path_buf();
    drop(cache);

    // Vandalise three entries: one truncated mid-record, one overwritten
    // with garbage, one intact but for a stray key.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|d| d.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("entry"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3);
    let text = std::fs::read_to_string(&entries[0]).unwrap();
    std::fs::write(&entries[0], &text[..text.len() * 2 / 3]).unwrap();
    std::fs::write(&entries[1], "tiscc-frontier-cache v1\nstem=wrong\nnope\n").unwrap();
    let text = std::fs::read_to_string(&entries[2]).unwrap();
    std::fs::write(&entries[2], format!("{text}bogus=1\n")).unwrap();

    let healed_cache = DiskCache::open(&root).unwrap();
    assert_eq!(healed_cache.corrupt_entries(), 3);
    let rerun = run_frontier(&program, &spec, &Compiler::new(), Some(&healed_cache)).unwrap();
    assert_eq!(rerun.stats.corrupt_entries, 3);
    assert_eq!(rerun.stats.computed, 3, "exactly the vandalised rows recompute");
    assert_eq!(rerun.stats.disk_hits, rerun.stats.jobs - 3);
    assert_eq!(matrix_to_csv(&rerun), matrix_to_csv(&cold), "corruption never changes results");

    // The re-insert healed the files: a third open sees no corruption.
    let clean = DiskCache::open(&root).unwrap();
    assert_eq!(clean.corrupt_entries(), 0);
    std::fs::remove_dir_all(&root).unwrap();
}
