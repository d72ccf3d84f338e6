//! Golden digests of default outputs: the stdout of `tiscc tables` and
//! `tiscc verify`, the `tiscc sweep --dmax 9 --json` document, and the
//! stdout, `--out` CSV and `--json` of the adder frontier
//! `--layouts row@8x8,checkerboard@8x8 --dmin 3 --dmax 13 --profile
//! h1,projected`. Each output is rebuilt from the library calls its
//! subcommand makes and hashed with the FNV-64 of the benchmark reference.
//! The op streams themselves are pinned too: one digest per hardware
//! profile × distance × SIMD width over every instruction's compiled
//! circuit. A mismatch prints the regenerated digest file, so updating it
//! is a deliberate copy of that text.

use tiscc::core::instruction::Instruction;
use tiscc::estimator::compiler::{CompileRequest, Compiler};
use tiscc::estimator::sweep::{run_sweep, CompileCache, SweepSpec};
use tiscc::estimator::tables;
use tiscc::estimator::verify::{process_map_of, Fiducial, SingleTile};
use tiscc::frontier::{frontier_to_csv, matrix_to_csv, report_to_json, run_frontier, FrontierSpec};
use tiscc::hw::{HardwareSpec, TimedOp};
use tiscc::orqcs::ProcessMap;
use tiscc::program::{LayoutSpec, LogicalProgram};

const DIGESTS: &str = include_str!("golden/default_outputs.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// 64-bit FNV-1a, as in the benchmark reference.
fn fnv64(text: &str) -> u64 {
    fnv(FNV_OFFSET, text.as_bytes())
}

/// Folds one word into `h` as its eight little-endian bytes.
fn fnv_step(h: u64, word: u64) -> u64 {
    fnv(h, &word.to_le_bytes())
}

/// Folds every field of one op into `h`: the op kind, each operand list
/// with its length, the exact bits of start and duration, the junction
/// and the measurement index. Formatting the op instead costs seconds per
/// run in the debug profile.
fn hash_op(h: u64, op: &TimedOp) -> u64 {
    let mut h = fnv_step(fnv_step(h, op.op as u64), op.sites.len() as u64);
    for site in op.sites.iter() {
        h = fnv_step(fnv_step(h, site.row.into()), site.col.into());
    }
    h = fnv_step(h, op.qubits.len() as u64);
    for qubit in op.qubits.iter() {
        h = fnv_step(h, qubit.0.into());
    }
    h = fnv_step(fnv_step(h, op.start_us.to_bits()), op.duration_us.to_bits());
    h = match op.junction {
        Some(j) => fnv_step(fnv_step(fnv_step(h, 1), j.row.into()), j.col.into()),
        None => fnv_step(h, 0),
    };
    match op.measurement {
        Some(m) => fnv_step(fnv_step(h, 1), m as u64),
        None => fnv_step(h, 0),
    }
}

/// One digest per profile × d ∈ {3, 5, 9} × SIMD width {1, 2}, each over
/// the compiled op streams of all 13 instructions (dx = dz = dt = d) in
/// `Instruction::all()` order.
fn opstream_digests() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for profile in [HardwareSpec::h1(), HardwareSpec::projected(), HardwareSpec::slow_junction()] {
        for d in [3, 5, 9] {
            for width in [1, 2] {
                let mut spec = profile.clone();
                spec.simd_width = width;
                let mut h = FNV_OFFSET;
                for &instruction in Instruction::all() {
                    let request = CompileRequest::new(instruction, d, d, d).with_spec(spec.clone());
                    let circuit = Compiler::new().compile(&request).unwrap().circuit();
                    h = circuit.ops().iter().fold(fnv_step(h, circuit.len() as u64), hash_op);
                }
                digests.push((format!("opstream/{}/d{d}/w{width}", profile.name), h));
            }
        }
    }
    digests
}

/// `tiscc tables` at its defaults (`--d 3 --dt 2`, profile h1).
fn tables_stdout() -> String {
    let spec = HardwareSpec::default();
    let mut out = format!("{}\n", tables::table5(&spec));
    let rows = [
        ("Table 1: local lattice-surgery instruction set", tables::table1_rows(&spec, &[3], 2)),
        ("Table 2: primitive operations", tables::table2_rows(&spec, 3, 2)),
        ("Table 3: derived instruction set", tables::table3_rows(&spec, 3, 2)),
    ];
    for (title, rows) in rows {
        out.push_str(&format!("{}\n", tables::render_rows(title, &rows.unwrap())));
    }
    out
}

/// `tiscc verify` at its default seed (17), all checks passing.
fn verify_stdout() -> String {
    let seed = 17u64;
    let mut out =
        String::from("Sec. 4 verification (fiducial state preparation + Idle process map):\n");
    for fiducial in Fiducial::all() {
        let mut fixture = SingleTile::new(2, 2, 1).unwrap();
        fiducial.prepare(&mut fixture.hw, &mut fixture.patch).unwrap();
        let run = fixture.simulate(seed);
        let bloch = fixture.logical_bloch(&run);
        assert!(bloch.distance(&fiducial.bloch()) < 1e-9, "{fiducial:?}");
        out.push_str(&format!(
            "  prepare {:?}: bloch = ({:+.1}, {:+.1}, {:+.1})  ok\n",
            fiducial, bloch.x, bloch.y, bloch.z
        ));
    }
    let map = process_map_of(3, 3, 1, seed + 6, |hw, patch| patch.idle(hw).map(|_| ())).unwrap();
    let deviation = map.max_deviation(&ProcessMap::identity());
    assert!(deviation < 1e-9);
    out.push_str(&format!("  Idle process map deviation from identity: {deviation:.3e}  ok\n"));
    out.push_str("verification passed\n");
    out
}

/// `tiscc sweep --dmax 9 --json`, without its host-dependent `threads`
/// and `elapsed_s` lines.
fn sweep_json() -> String {
    let result = run_sweep(&SweepSpec::paper(9), &CompileCache::new()).unwrap();
    result
        .to_json()
        .lines()
        .filter(|l| !l.starts_with("  \"threads\": ") && !l.starts_with("  \"elapsed_s\": "))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn outputs() -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/programs/adder.tql"
    ))
    .unwrap();
    let adder = LogicalProgram::parse("adder", &text).unwrap();
    let spec = FrontierSpec::new(
        vec![LayoutSpec::row_major().with_grid(8, 8), LayoutSpec::checkerboard().with_grid(8, 8)],
        vec![HardwareSpec::h1(), HardwareSpec::projected()],
    )
    .with_distances(3, 13);
    let report = run_frontier(&adder, &spec, &Compiler::new(), None).unwrap();
    let texts = [
        ("tables/stdout", tables_stdout()),
        ("verify/stdout", verify_stdout()),
        ("sweep-dmax9/json", sweep_json()),
        ("frontier-adder/stdout", frontier_to_csv(&report)),
        ("frontier-adder/csv", matrix_to_csv(&report)),
        ("frontier-adder/json", report_to_json(&report)),
    ];
    let mut digests: Vec<(String, u64)> =
        texts.into_iter().map(|(name, text)| (name.to_string(), fnv64(&text))).collect();
    digests.extend(opstream_digests());
    digests
}

#[test]
fn default_outputs_match_their_golden_digests() {
    let header: String =
        DIGESTS.lines().take_while(|l| l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    let mut regenerated = header;
    for (name, digest) in outputs() {
        regenerated.push_str(&format!("digest {name} {digest:016x}\n"));
    }
    assert!(
        regenerated == DIGESTS,
        "default outputs changed; if intended, replace tests/golden/default_outputs.txt \
         with:\n{regenerated}"
    );
}
