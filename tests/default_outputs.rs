//! Golden digests of default outputs: the stdout of `tiscc tables` and
//! `tiscc verify`, the `tiscc sweep --dmax 9 --json` document, and the
//! stdout, `--out` CSV and `--json` of the adder frontier
//! `--layouts row@8x8,checkerboard@8x8 --dmin 3 --dmax 13 --profile
//! h1,projected`. Each output is rebuilt from the library calls its
//! subcommand makes and hashed with the FNV-64 of the benchmark reference.
//! The op streams themselves are pinned too: one digest per hardware
//! profile × distance × SIMD width over every instruction's compiled
//! circuit. So are the program schedules: one digest per generated program
//! × floorplan over every step, stall and corridor (or the routing error).
//! So are the `.tql` reader's results: one digest per input text over the
//! parsed program, and one over the exact texts of a table of parse
//! errors. A mismatch prints the regenerated digest file, so updating it
//! is a deliberate copy of that text.

use tiscc::core::instruction::Instruction;
use tiscc::estimator::compiler::{CompileRequest, Compiler};
use tiscc::estimator::sweep::{run_sweep, CompileCache, SweepSpec};
use tiscc::estimator::tables;
use tiscc::estimator::verify::{process_map_of, Fiducial, SingleTile};
use tiscc::frontier::{frontier_to_csv, matrix_to_csv, report_to_json, run_frontier, FrontierSpec};
use tiscc::hw::{HardwareSpec, TimedOp};
use tiscc::orqcs::ProcessMap;
use tiscc::program::{schedule, LayoutSpec, LogicalProgram, Placement, QubitRef};
use tiscc::workloads::{generate, Family, GenSpec};

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

/// One digest per profile × d ∈ {2, 3, 5, 9} × SIMD width {1, 2}, each over
/// the compiled op streams of all 13 instructions (dx = dz = dt = d) in
/// `Instruction::all()` order.
fn opstream_digests() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for profile in [HardwareSpec::h1(), HardwareSpec::projected(), HardwareSpec::slow_junction()] {
        for d in [2, 3, 5, 9] {
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

/// Folds a whole schedule into one digest: every step's member indices and
/// logical time steps, the stall and parallel-merge counts, and every
/// corridor tile; an unroutable program folds its routing error's text.
fn schedule_digest(program: &LogicalProgram, spec: &LayoutSpec) -> u64 {
    let placement = Placement::allocate_with(program, spec).unwrap();
    let sched = match schedule(program, &placement) {
        Ok(sched) => sched,
        Err(err) => return fnv(fnv_step(FNV_OFFSET, 1), err.to_string().as_bytes()),
    };
    let mut h = fnv_step(fnv_step(FNV_OFFSET, 0), sched.steps.len() as u64);
    for step in &sched.steps {
        h = fnv_step(h, step.instructions.len() as u64);
        h = step.instructions.iter().fold(h, |h, &i| fnv_step(h, i as u64));
        h = fnv_step(h, step.logical_time_steps as u64);
    }
    h = fnv_step(fnv_step(h, sched.routing_stalls as u64), sched.parallel_merges as u64);
    for corridor in &sched.corridors {
        h = match corridor {
            Some(corridor) => corridor
                .tiles()
                .fold(fnv_step(fnv_step(h, 1), corridor.len() as u64), |h, (r, c)| {
                    fnv_step(fnv_step(h, r as u64), c as u64)
                }),
            None => fnv_step(h, 0),
        };
    }
    h
}

/// One digest per generated program × floorplan: random Clifford+T at
/// n = 1 024 and 10 240 (seed 7) and the 93-bit ripple-carry adder, on the
/// auto-sized lane, row and checkerboard layouts and on two explicit grids
/// (where the packed 10 240-instruction program is unroutable).
fn schedule_digests() -> Vec<(String, u64)> {
    let programs = [
        GenSpec::new(Family::RandomCliffordT).with_n(1024).with_seed(7),
        GenSpec::new(Family::RandomCliffordT).with_n(10_240).with_seed(7),
        GenSpec::new(Family::RippleCarryAdder).with_n(93),
    ];
    let layouts = [
        ("lane", LayoutSpec::single_lane()),
        ("row", LayoutSpec::row_major()),
        ("checkerboard", LayoutSpec::checkerboard()),
        ("row@24x24", LayoutSpec::row_major().with_grid(24, 24)),
        ("checkerboard@24x48", LayoutSpec::checkerboard().with_grid(24, 48)),
    ];
    let mut digests = Vec::new();
    for gen in programs {
        let program = generate(&gen).unwrap();
        for (name, layout) in &layouts {
            let digest = schedule_digest(&program, layout);
            digests.push((format!("schedule/{}/{name}", gen.program_name()), digest));
        }
    }
    digests
}

/// Folds a parsed program into one digest: the qubit names in order, then
/// every instruction's kind (its id), operands and source line.
fn program_digest(program: &LogicalProgram) -> u64 {
    let mut h = fnv_step(FNV_OFFSET, program.qubit_count() as u64);
    for q in 0..program.qubit_count() {
        let name = program.qubit_name(QubitRef(q));
        h = fnv(fnv_step(h, name.len() as u64), name.as_bytes());
    }
    h = fnv_step(h, program.len() as u64);
    for pi in program.instructions() {
        let id = pi.instruction.id();
        h = fnv(fnv_step(h, id.len() as u64), id.as_bytes());
        h = pi
            .qubits
            .iter()
            .fold(fnv_step(h, pi.qubits.len() as u64), |h, q| fnv_step(h, q.0 as u64));
        h = fnv_step(h, pi.line.map_or(0, |n| n as u64));
    }
    h
}

/// Hand-written `.tql` texts that exercise the reader's lexical rules:
/// line terminators, comments, mnemonic spellings, Unicode separators and
/// non-ASCII qubit names.
const PARSE_CASES: [(&str, &str); 6] = [
    (
        "line-endings/mixed",
        "# mixed\r\nqubit a b\rprep_x a\nprep_z b\r\n\r\nmerge_zz a b\r\rmeas_x a\r",
    ),
    (
        "comments",
        "# head\nqubit a b # two\nprep_x a#glued\n   # indented\nprep_z b #\n\
         merge_zz a b ## double\n#\nmeas_z b # end",
    ),
    (
        "spellings",
        "qubit a b c\nPREPARE-Z a\nPrepare_X b\nMeasure_ZZ a b\nMERGE_ZZ a b\nmeasure-xx b a\n\
         Merge_XX a b\nH a\nHADAMARD b\nPauli-Y a\ny b\nX a\nz b\nIDLE a\nMeas_Z a\n\
         MEASURE-X b\ninject_T c\nMeas_x c\nInject-Y a\nprep_X b\nPREP_Z c\n",
    ),
    (
        "separators",
        "qubit\ta\u{a0}b\u{3000}c\n\u{3000}prep_z\ta\u{a0}\nprep_x\u{a0}\u{a0}b\t\n\tprep_z c\u{3000}\n\
         merge_zz\u{3000}a\tb\n\u{a0}\u{3000}\t\nmerge_xx\u{3000}\u{3000}b c # \u{3000}\n",
    ),
    (
        "unicode-names",
        "qubit α βeta 量子 q\u{303}\nprep_z α\nprep_x βeta\nprep_z 量子\nmerge_zz α βeta\n\
         inject_t q\u{303}\nmerge_xx 量子 α\nmerge_zz q\u{303} βeta\nmeas_z q\u{303}\n",
    ),
    ("empty", "\n\r\n  # nothing but comments\n\t\n"),
];

/// Bad `.tql` texts, one per parse-error path: unknown mnemonics, unknown
/// qubits (also among three operands), arity, repeated operands, repeated
/// and empty declarations, and liveness.
const PARSE_ERRORS: [&str; 20] = [
    "qubit a\nfrobnicate a\n",
    "qubit a\nPREP-Z a\n",
    "qubit a\nfrob\u{7}nicate_with_a_very_long_name_indeed a\n",
    "qubit a\nprep_z b\n",
    "qubit a\nprep_z\u{3000}b\n",
    "qubit a b\nprep_z a\nprep_z b\nmerge_zz a b zz\n",
    "qubit a b\nmerge_zz nope a b\n",
    "qubit a b c\nmerge_zz a b c\n",
    "qubit a b c d\nh a b c d\n",
    "qubit a b\nprep_z a b\n",
    "qubit a\nprep_z a nope\n",
    "qubit a\nmerge_xx a\n",
    "qubit a\nidle\n",
    "qubit a\nprep_z a\nmerge_zz a a\n",
    "qubit a b\nqubit c a\n",
    "qubit a a\n",
    "qubit # none\n",
    "qubit a\nh a\n",
    "qubit a\nprep_z a\nmeas_z a\nx a\n",
    "qubit a\r\nprep_z a\r\ninject_t a\r\n",
];

/// One digest per `.tql` input: the three `estimate-frontend` programs as
/// `tiscc gen` renders them, the bundled adder with CRLF and lone-CR line
/// endings, and [`PARSE_CASES`]; plus one digest over the error texts of
/// [`PARSE_ERRORS`].
fn parse_digests() -> Vec<(String, u64)> {
    let mut texts: Vec<(String, String)> = [
        GenSpec::new(Family::RandomCliffordT).with_n(100_000).with_seed(1),
        GenSpec::new(Family::RandomCliffordT).with_n(10_000).with_seed(1),
        GenSpec::new(Family::RippleCarryAdder).with_n(9309),
    ]
    .iter()
    .map(|gen| (gen.program_name(), generate(gen).unwrap().to_tql()))
    .collect();
    let adder = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/programs/adder.tql"
    ))
    .unwrap();
    texts.push(("line-endings/crlf".into(), adder.replace('\n', "\r\n")));
    texts.push(("line-endings/cr".into(), adder.replace('\n', "\r")));
    texts.extend(PARSE_CASES.iter().map(|&(name, text)| (name.to_string(), text.to_string())));
    let mut digests: Vec<(String, u64)> = texts
        .iter()
        .map(|(name, text)| {
            let program = LogicalProgram::parse(name.as_str(), text)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (format!("parse/{name}"), program_digest(&program))
        })
        .collect();
    let errors: String = PARSE_ERRORS
        .iter()
        .map(|text| match LogicalProgram::parse("bad", text) {
            Ok(_) => panic!("{text:?} parsed"),
            Err(e) => format!("{e}\n"),
        })
        .collect();
    digests.push(("parse/errors".to_string(), fnv64(&errors)));
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
    digests.extend(schedule_digests());
    digests.extend(parse_digests());
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
