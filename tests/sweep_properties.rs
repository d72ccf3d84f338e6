//! Property tests for the batched sweep engine and its compile cache: for
//! any `SweepSpec`, a cold sweep and a cache-warmed sweep must produce
//! identical `ResourceRow`s, and the CSV artifact must survive a
//! parse/re-render round trip byte-for-byte.

use proptest::prelude::*;

use tiscc::core::instruction::Instruction;
use tiscc::estimator::sweep::{parse_csv, run_sweep, CompileCache, DtPolicy, SweepSpec};
use tiscc::estimator::tables::render_csv;
use tiscc::hw::HardwareSpec;

fn arb_spec() -> impl Strategy<Value = SweepSpec> {
    // Small distances keep each compile fast; every instruction is still
    // reachable and dx ≠ dz asymmetries are exercised.
    (
        proptest::collection::vec(0usize..13, 1..5),
        proptest::collection::vec((2usize..4, 2usize..4), 1..3),
        0usize..3,
        0usize..3,
    )
        .prop_map(|(instr_idx, distances, dt_idx, profile_idx)| {
            let instructions: Vec<Instruction> =
                instr_idx.iter().map(|&i| Instruction::all()[i]).collect();
            let dts = match dt_idx {
                0 => vec![DtPolicy::EqualsDistance],
                1 => vec![DtPolicy::Fixed(1)],
                _ => vec![DtPolicy::EqualsDistance, DtPolicy::Fixed(2)],
            };
            let profiles = match profile_idx {
                0 => vec![HardwareSpec::h1()],
                1 => vec![HardwareSpec::projected()],
                _ => vec![HardwareSpec::h1(), HardwareSpec::slow_junction()],
            };
            SweepSpec { instructions, distances, dts, profiles }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A sweep served entirely from a warm cache reproduces the cold rows
    /// exactly, compiles nothing, and reports every request as a hit.
    #[test]
    fn cached_and_cold_sweeps_agree(spec in arb_spec()) {
        let cold_cache = CompileCache::new();
        let cold = run_sweep(&spec, &cold_cache).unwrap();
        prop_assert_eq!(cold.rows.len(), spec.len());
        // Cold: every unique configuration was compiled exactly once.
        prop_assert_eq!(cold.cache_hits + cold.cache_misses, spec.len());
        prop_assert_eq!(cold_cache.len(), cold.cache_misses);

        let warm = run_sweep(&spec, &cold_cache).unwrap();
        prop_assert_eq!(warm.cache_misses, 0);
        prop_assert_eq!(warm.cache_hits, spec.len());
        prop_assert_eq!(&warm.rows, &cold.rows);
        prop_assert_eq!(&warm.keys, &cold.keys);

        // A separate fresh cache must also reproduce the same physics: the
        // compiler is deterministic, so memoization can never change rows.
        let other_cache = CompileCache::new();
        let recompiled = run_sweep(&spec, &other_cache).unwrap();
        prop_assert_eq!(&recompiled.rows, &cold.rows);
    }

    /// CSV → parse → CSV is the identity on sweep artifacts, and the float
    /// columns survive the text round trip *bit-exactly*: the emitter uses
    /// shortest-round-trip (`{:?}`) formatting, so
    /// `parse_csv(emit_csv(r)) == r` on every CSV-carried field.
    #[test]
    fn sweep_csv_round_trips(spec in arb_spec()) {
        let cache = CompileCache::new();
        let result = run_sweep(&spec, &cache).unwrap();
        let csv = result.to_csv();
        let parsed = parse_csv(&csv).unwrap();
        prop_assert_eq!(parsed.len(), result.rows.len());
        prop_assert_eq!(render_csv(&parsed), csv);
        // The parsed columns match the originals field-for-field; floats
        // are compared by bit pattern, not tolerance.
        for (orig, back) in result.rows.iter().zip(&parsed) {
            prop_assert_eq!(&orig.name, &back.name);
            prop_assert_eq!(&orig.profile, &back.profile);
            prop_assert_eq!(orig.dx, back.dx);
            prop_assert_eq!(orig.dz, back.dz);
            prop_assert_eq!(orig.tiles, back.tiles);
            prop_assert_eq!(orig.logical_time_steps, back.logical_time_steps);
            prop_assert_eq!(orig.resources.trapping_zones, back.resources.trapping_zones);
            prop_assert_eq!(orig.resources.total_ops, back.resources.total_ops);
            for (field, a, b) in [
                ("execution_time_s", orig.resources.execution_time_s, back.resources.execution_time_s),
                ("area_m2", orig.resources.area_m2, back.resources.area_m2),
                (
                    "spacetime_volume_s_m2",
                    orig.resources.spacetime_volume_s_m2,
                    back.resources.spacetime_volume_s_m2,
                ),
                (
                    "active_zone_seconds",
                    orig.resources.active_zone_seconds,
                    back.resources.active_zone_seconds,
                ),
            ] {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} must round-trip bit-exactly", field);
            }
        }
    }
}

/// The concurrent cache is shared safely across threads: many threads
/// sweeping overlapping specs against one cache agree on every row.
#[test]
fn concurrent_sweeps_share_one_cache_consistently() {
    let cache = CompileCache::new();
    let spec = SweepSpec::square(
        vec![Instruction::PrepareZ, Instruction::MeasureZ, Instruction::Idle],
        &[2, 3],
    );
    let baseline = run_sweep(&spec, &cache).unwrap();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..4).map(|_| scope.spawn(|| run_sweep(&spec, &cache).unwrap())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for result in results {
        assert_eq!(result.cache_misses, 0, "warm concurrent sweeps never compile");
        assert_eq!(result.rows, baseline.rows);
    }
}
