//! The `tiscc` executable.
//!
//! ```text
//! tiscc compile <instruction> [dx] [dz] [dt]   compile one instruction, print resources
//! tiscc estimate <program.tql>                 estimate a whole logical program
//! tiscc gen <family> [--n N] [--seed S]        generate a parametric workload
//!                                              program as .tql text
//! tiscc frontier <program.tql>                 Pareto-frontier search over the
//!                                              layout x distance x profile space
//! tiscc serve --stdin-json                     answer JSON estimate/frontier
//!                                              requests on stdin
//! tiscc tables [--d N] [--dt N]                regenerate Tables 1, 2, 3 and 5
//! tiscc sweep [--dmax N] [--dt N|d] [--out F]  batched resource sweep (CSV + JSON)
//! tiscc profiles                               list hardware profiles and parameters
//! tiscc verify [--seed N]                      run the Sec. 4 verification harness
//! ```
//!
//! `compile`, `tables`, `sweep` and `estimate` accept `--profile <name>` to
//! select a hardware profile (`sweep` and `estimate` accept a
//! comma-separated list).
//!
//! Every subcommand reports bad arguments (unknown instruction, unreadable
//! program file, unknown profile, unknown flag, malformed flag values) as a
//! one-line message on stderr and exit code 2; runtime failures exit with
//! code 1. `tiscc <subcommand> --help` (or `-h`) prints the usage text.

use std::path::PathBuf;
use std::process::ExitCode;

use tiscc_core::instruction::Instruction;
use tiscc_estimator::compiler::{CompileRequest, Compiler};
use tiscc_estimator::program::{estimate_program_with, EstimateError, ProgramEstimateSpec};
use tiscc_estimator::sweep::{parse_csv, run_sweep_with, CompileCache, DtPolicy, SweepSpec};
use tiscc_estimator::tables;
use tiscc_estimator::verify::{process_map_of, Fiducial, SingleTile};
use tiscc_frontier::{
    frontier_to_csv, handle_line, matrix_from_csv, matrix_to_csv, parse_layout_entry,
    report_to_json, run_frontier_with, split_list, stats_to_json, DiskCache, FrontierError,
    FrontierSpec, ServeState,
};
use tiscc_hw::HardwareSpec;
use tiscc_program::{BudgetError, ErrorModel, LayoutSpec, LogicalProgram, Placement};
use tiscc_telemetry::{JsonSink, Sink, Span, Telemetry, TraceFormat};
use tiscc_workloads::{generate, Family, GenSpec, WorkloadError};

const USAGE: &str = "usage: tiscc <subcommand> [args]

subcommands:
  compile <instruction> [dx] [dz] [dt]   compile one instruction, print resources
          [--profile NAME]
          [--simd-width N]               SIMD gate-batching width (default 1)
          [--trace[=tree|json]]          per-phase span trace on stderr
  estimate <program.tql>                 estimate a whole logical program
          [--budget X]                   total logical error budget (default 1e-9)
          [--profile NAME[,NAME...]]     one report row per profile
          [--dmax N]                     distance-search ceiling (default 49)
          [--p-phys X] [--p-th X]        per-step error model parameters
          [--prefactor X]
          [--layout lane|row|checkerboard]  floorplan strategy (default lane)
          [--grid HxW]                   tile-grid size, e.g. --grid 8x8
          [--show-layout]                print the ASCII floorplan
          [--simd-width N]               SIMD gate-batching width (default 1)
          [--trace[=tree|json]]          per-phase span trace on stderr
  gen <family>                           generate a parametric workload program
          [--n N]                        size: bit width / qubit count / lattice
                                         width / chain depth (family default)
          [--seed S]                     RNG seed (random-clifford-t, default 1)
          [--t-frac X]                   T-gadget mix fraction (random-clifford-t)
          [--qubits Q]                   data-qubit override (random-clifford-t)
          [--steps K] [--j X] [--h X]    Trotter layers and couplings (ising-trotter)
          [--out F.tql]                  write to a file (default: stdout)
  frontier <program.tql>                 Pareto-frontier search: evaluate every
                                         layout x odd distance x profile cell,
                                         print the non-dominated set as CSV
          [--layouts L[@RxC][,...]]      floorplans to cross (default lane)
          [--grids RxC[,...]]            grids applied to auto-sized layouts
          [--dmin N] [--dmax N]          code-distance range (default 3..13)
          [--profile NAME[,NAME...]]     hardware profiles (default h1)
          [--p-phys X] [--p-th X]        per-step error model parameters
          [--prefactor X]
          [--cache-dir DIR]              persistent compile cache (reused and
                                         extended across runs)
          [--out F.csv] [--json F.json]  write the full matrix as artifacts
          [--stats-json F.json]          write run stats (+ trace) as JSON
          [--trace[=tree|json]]          per-phase span trace on stderr
          [--quiet]                      suppress stderr stats
  serve --stdin-json                     answer newline-delimited JSON requests
                                         ({\"cmd\":\"ping\"|\"estimate\"|\"frontier\"
                                         |\"metrics\"}) on stdin until EOF
          [--cache-dir DIR]              persistent compile cache
  tables [--d N] [--dt N]                regenerate Tables 1, 2, 3 and 5
         [--profile NAME]
  sweep [--dmax N] [--dt N|d]            batched resource sweep (CSV + JSON)
        [--profile NAME[,NAME...]]       sweep the grid once per profile
        [--out F.csv] [--json F.json]    write artifacts (default: CSV to stdout)
        [--trace[=tree|json]]            per-phase span trace on stderr
        [--quiet]                        suppress stderr stats
  profiles                               list hardware profiles and parameters
  verify [--seed N]                      run the verification harness

flags take a value as `--flag VALUE` or `--flag=VALUE`; unknown flags are
rejected; `tiscc <subcommand> --help` prints this text

profiles: h1 (default) projected slow_junction
instructions: prepare_z prepare_x inject_y inject_t measure_z measure_x
              pauli_x pauli_y pauli_z hadamard idle measure_xx measure_zz
workload families: ripple-carry-adder carry-lookahead-adder qft ising-trotter
                   ghz-chain teleport-chain random-clifford-t";

/// A CLI failure: an exit code plus a one-line message. Bad arguments use
/// code 2 (Unix convention for usage errors); runtime failures use code 1.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    /// A bad-argument error (exit code 2).
    fn usage(message: impl Into<String>) -> CliError {
        CliError { code: 2, message: message.into() }
    }

    /// A runtime failure (exit code 1).
    fn runtime(message: impl Into<String>) -> CliError {
        CliError { code: 1, message: message.into() }
    }
}

/// Minimal flag parser accepting `--flag VALUE` and `--flag=VALUE`: returns
/// positional args and a lookup for flag values.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

/// Flags that never take a value (so they never swallow a following
/// positional argument).
const BOOLEAN_FLAGS: &[&str] = &["show-layout", "stdin-json", "trace", "quiet", "help"];

/// The flags `compile` (and the bare `tiscc <instruction>` form) accepts.
const COMPILE_FLAGS: &str = "profile simd-width trace";

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(arg) = it.next() {
            if arg == "-h" {
                flags.push(("help".to_string(), String::new()));
            } else if let Some(name) = arg.strip_prefix("--") {
                if let Some((name, value)) = name.split_once('=') {
                    flags.push((name.to_string(), value.to_string()));
                    continue;
                }
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push((name.to_string(), String::new()));
                    continue;
                }
                let value = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| v.to_string())
                    .unwrap_or_default();
                if !value.is_empty() {
                    it.next();
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(arg.clone());
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn flag_usize(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    /// [`Args::flag_usize`] that also rejects a value below `min` as a
    /// usage error naming the flag.
    fn flag_at_least(&self, name: &str, default: usize, min: usize) -> Result<usize, CliError> {
        let value = self.flag_usize(name, default)?;
        if value < min {
            return Err(CliError::usage(format!("--{name} must be at least {min}, got {value}")));
        }
        Ok(value)
    }

    fn flag_f64(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    /// Resolves `--profile` to a single hardware profile (default: h1).
    fn profile(&self) -> Result<HardwareSpec, CliError> {
        match self.flag("profile") {
            None => Ok(HardwareSpec::default()),
            Some(name) => resolve_profile(name),
        }
    }

    /// Resolves `--profile` to a comma-separated list of profiles
    /// (default: just h1). Entries are trimmed and deduplicated — a
    /// repeated name never doubles the work or the report — and an
    /// effectively empty list (`--profile ","`) is a usage error.
    fn profile_list(&self) -> Result<Vec<HardwareSpec>, CliError> {
        match self.flag("profile") {
            None => Ok(vec![HardwareSpec::default()]),
            Some(names) => split_list("profile", names)
                .map_err(CliError::usage)?
                .iter()
                .map(|name| resolve_profile(name))
                .collect(),
        }
    }

    /// Resolves `--simd-width` to a SIMD batching width (default 1, which
    /// keeps the gate stream byte-identical). Zero is a usage error: a
    /// width-0 batch would merge nothing and is always a typo.
    fn simd_width(&self) -> Result<usize, CliError> {
        match self.flag("simd-width") {
            None => Ok(1),
            Some(v) => {
                let width: usize = v.parse().map_err(|_| {
                    CliError::usage(format!("--simd-width expects a positive integer, got {v:?}"))
                })?;
                if width == 0 {
                    return Err(CliError::usage("--simd-width must be at least 1".to_string()));
                }
                Ok(width)
            }
        }
    }
}

/// Looks up a preset profile by name; unknown names are a usage error
/// listing the available profiles.
fn resolve_profile(name: &str) -> Result<HardwareSpec, CliError> {
    HardwareSpec::by_name(name).map_err(|e| CliError::usage(e.to_string()))
}

/// Resolves the `--trace[=tree|json]` flag: `None` when tracing is off,
/// the selected format otherwise (a bare `--trace` means the tree).
fn trace_format(args: &Args) -> Result<Option<TraceFormat>, CliError> {
    match args.flag("trace") {
        None => Ok(None),
        Some(value) => TraceFormat::parse(value).map(Some).map_err(CliError::usage),
    }
}

/// A recording telemetry handle when tracing (or another trace consumer)
/// is requested, the no-op handle otherwise — so untraced runs pay
/// nothing and stay byte-identical on stdout.
fn telemetry_for(enabled: bool) -> Telemetry {
    if enabled {
        Telemetry::new_enabled()
    } else {
        Telemetry::off()
    }
}

/// Renders the recorded trace through the selected sink onto **stderr**
/// (stdout carries only results, traced or not).
fn emit_trace(tel: &Telemetry, fmt: Option<TraceFormat>) {
    if let (Some(fmt), Some(report)) = (fmt, tel.snapshot()) {
        if let Some(text) = fmt.sink().render(&report) {
            eprint!("{text}");
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if !e.message.is_empty() {
                eprintln!("tiscc: {}", e.message);
            }
            ExitCode::from(e.code)
        }
    }
}

fn run(raw: &[String]) -> Result<(), CliError> {
    let Some(subcommand) = raw.first() else {
        eprintln!("{USAGE}");
        return Err(CliError { code: 2, message: String::new() });
    };
    let mut args = Args::parse(&raw[1..]);
    type Command = fn(&Args) -> Result<(), CliError>;
    // Each subcommand's flag whitelist, space-separated.
    let (command, known_flags): (Command, &str) = match subcommand.as_str() {
        "compile" => (cmd_compile, COMPILE_FLAGS),
        "estimate" => (
            cmd_estimate,
            "budget profile dmax p-phys p-th prefactor layout grid show-layout simd-width trace",
        ),
        "gen" => (cmd_gen, "n seed t-frac qubits steps j h out"),
        "frontier" => (
            cmd_frontier,
            "layouts grids dmin dmax profile p-phys p-th prefactor cache-dir out json stats-json \
             trace quiet",
        ),
        "serve" => (cmd_serve, "stdin-json cache-dir"),
        "tables" => (cmd_tables, "d dt profile"),
        "sweep" => (cmd_sweep, "dmax dt profile out json trace quiet"),
        "profiles" => (|_| cmd_profiles(), ""),
        "verify" => (cmd_verify, "seed"),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return Ok(());
        }
        // Backwards compatibility with the original single-purpose CLI:
        // `tiscc prepare_z 3` behaves as `tiscc compile prepare_z 3`.
        other if Instruction::from_id(other).is_ok() => {
            args.positional.insert(0, other.to_string());
            (cmd_compile, COMPILE_FLAGS)
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown subcommand '{other}' (run 'tiscc help' for usage)"
            )))
        }
    };
    if args.flag("help").is_some() {
        println!("{USAGE}");
        return Ok(());
    }
    if let Some((name, _)) =
        args.flags.iter().find(|(name, _)| !known_flags.split_whitespace().any(|f| f == name))
    {
        return Err(CliError::usage(format!(
            "unknown flag --{name} for '{subcommand}' (run 'tiscc {subcommand} --help' for usage)"
        )));
    }
    command(&args)
}

fn cmd_compile(args: &Args) -> Result<(), CliError> {
    let Some(instr_name) = args.positional.first() else {
        return Err(CliError::usage(
            "usage: tiscc compile <instruction> [dx] [dz] [dt] [--profile NAME]",
        ));
    };
    let instruction =
        Instruction::from_id(instr_name).map_err(|e| CliError::usage(e.to_string()))?;
    let distance = |index: usize, name: &str, default: usize| -> Result<usize, CliError> {
        match args.positional.get(index) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("{name} expects a number, got {v:?}"))),
        }
    };
    let dx = distance(1, "dx", 3)?;
    let dz = distance(2, "dz", dx)?;
    let dt = distance(3, "dt", dz.max(dx))?;
    if dx < 2 || dz < 2 || dt < 1 {
        return Err(CliError::usage(format!(
            "distances must satisfy dx, dz >= 2 and dt >= 1 (got dx={dx} dz={dz} dt={dt})"
        )));
    }
    let mut spec = args.profile()?;
    spec.simd_width = args.simd_width()?;
    let fmt = trace_format(args)?;
    let tel = telemetry_for(fmt.is_some());
    let root = tel.root("compile");

    let request = CompileRequest::new(instruction, dx, dz, dt).with_spec(spec);
    let artifact = {
        let span = root.child("compile_instruction");
        let artifact = Compiler::new()
            .compile(&request)
            .map_err(|e| CliError::runtime(format!("compilation failed: {e}")))?;
        // The capture-vs-replicate split: the round template is captured
        // once and replicated for the remaining repeats.
        span.add("compile.template_repeats", artifact.rounds.repeats as u64);
        span.add("compile.rounds_replicated", artifact.rounds.repeats.saturating_sub(1) as u64);
        // Scheduling-realism counters from the pass pipeline: junction
        // recovery waits and SIMD-merged pulses (both 0 at default knobs).
        span.add("compile.junction_stalls", artifact.stats.junction_stalls as u64);
        span.add("compile.batched_pulses", artifact.stats.batched_pulses as u64);
        artifact
    };
    root.finish();
    emit_trace(&tel, fmt);
    println!(
        "{} at dx={dx} dz={dz} dt={dt} under profile '{}': {} logical time-step(s), {} tile(s)",
        instruction.name(),
        request.spec.name,
        artifact.report.logical_time_steps,
        artifact.report.tiles
    );
    println!("{}", artifact.resources.render());
    Ok(())
}

/// `tiscc gen <family>`: build a parametric workload program and emit its
/// `.tql` text on stdout (or `--out`). Every parameter problem — unknown
/// family, out-of-range knob — is a usage error naming the flag, so shell
/// pipelines fail fast instead of estimating the wrong program.
fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let Some(family_name) = args.positional.first() else {
        let families: Vec<&str> = Family::all().iter().map(|f| f.name()).collect();
        return Err(CliError::usage(format!(
            "usage: tiscc gen <family> [--n N] [--seed S] [--out F.tql]; families: {}",
            families.join(" ")
        )));
    };
    let family = Family::from_name(family_name).ok_or_else(|| {
        CliError::usage(WorkloadError::UnknownFamily(family_name.clone()).to_string())
    })?;
    let mut spec = GenSpec::new(family);
    spec.n = args.flag_usize("n", spec.n)?;
    spec.steps = args.flag_usize("steps", spec.steps)?;
    spec.coupling_j = args.flag_f64("j", spec.coupling_j)?;
    spec.field_h = args.flag_f64("h", spec.field_h)?;
    spec.t_fraction = args.flag_f64("t-frac", spec.t_fraction)?;
    if let Some(v) = args.flag("seed") {
        spec.seed = v.parse().map_err(|_| {
            CliError::usage(format!("--seed expects an unsigned integer, got {v:?}"))
        })?;
    }
    if let Some(v) = args.flag("qubits") {
        let q = v
            .parse()
            .map_err(|_| CliError::usage(format!("--qubits expects a number, got {v:?}")))?;
        spec.qubits = Some(q);
    }
    let program = generate(&spec).map_err(|e| CliError::usage(e.to_string()))?;
    let text = program.to_tql();
    match args.flag("out") {
        None | Some("") => print!("{text}"),
        Some(path) => std::fs::write(path, &text)
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?,
    }
    Ok(())
}

/// Parses a `HxW` grid value (e.g. `8x8`) into tile-grid dimensions;
/// `flag` names the offending flag in the error message.
fn parse_grid(flag: &str, value: &str) -> Result<(usize, usize), CliError> {
    let bad = || CliError::usage(format!("{flag} expects ROWSxCOLS (e.g. 8x8), got {value:?}"));
    let (rows, cols) = value.split_once(['x', 'X']).ok_or_else(bad)?;
    let rows: usize = rows.trim().parse().map_err(|_| bad())?;
    let cols: usize = cols.trim().parse().map_err(|_| bad())?;
    if rows == 0 || cols == 0 {
        return Err(bad());
    }
    Ok((rows, cols))
}

/// Resolves `--layout` and `--grid` into a floorplan spec.
fn layout_spec(args: &Args) -> Result<LayoutSpec, CliError> {
    let mut layout = match args.flag("layout") {
        None => LayoutSpec::default(),
        Some(name) => LayoutSpec::by_name(name).map_err(|e| CliError::usage(e.to_string()))?,
    };
    if let Some(grid) = args.flag("grid") {
        let (rows, cols) = parse_grid("--grid", grid)?;
        layout = layout.with_grid(rows, cols);
    }
    Ok(layout)
}

/// Reads and parses a `.tql` program file under a `parse` span;
/// unreadable or unparseable files are usage errors naming the path.
fn load_program(path: &str, parent: &Span) -> Result<LogicalProgram, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    let stem = PathBuf::from(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "program".to_string());
    LogicalProgram::parse_with(stem, &text, parent)
        .map_err(|e| CliError::usage(format!("{path}:{e}")))
}

/// Resolves the `--p-phys`, `--p-th` and `--prefactor` flags into an
/// error model (defaults unchanged where a flag is absent).
fn error_model(args: &Args) -> Result<ErrorModel, CliError> {
    Ok(ErrorModel {
        p_physical: args.flag_f64("p-phys", ErrorModel::default().p_physical)?,
        p_threshold: args.flag_f64("p-th", ErrorModel::default().p_threshold)?,
        prefactor: args.flag_f64("prefactor", ErrorModel::default().prefactor)?,
    })
}

fn cmd_estimate(args: &Args) -> Result<(), CliError> {
    let Some(path) = args.positional.first() else {
        return Err(CliError::usage(
            "usage: tiscc estimate <program.tql> [--budget X] [--profile NAME[,NAME...]] \
             [--layout lane|row|checkerboard] [--grid HxW] [--show-layout]",
        ));
    };
    let fmt = trace_format(args)?;
    let tel = telemetry_for(fmt.is_some());
    let root = tel.root("estimate");
    let program = load_program(path, &root)?;

    let model = error_model(args)?;
    let layout = layout_spec(args)?;
    // `--simd-width` is a scheduling knob, not a new profile: it applies
    // uniformly to every profile in the comparison list.
    let simd_width = args.simd_width()?;
    let spec = ProgramEstimateSpec {
        budget: args.flag_f64("budget", 1e-9)?,
        model,
        profiles: args
            .profile_list()?
            .into_iter()
            .map(|mut profile| {
                profile.simd_width = simd_width;
                profile
            })
            .collect(),
        d_max: args.flag_usize("dmax", 49)?,
        layout,
    };

    if args.flag("show-layout").is_some() {
        // The floorplan is cheap: render it before any compilation so the
        // user sees it even when the estimate itself fails.
        let placement = Placement::allocate_with(&program, &spec.layout)
            .map_err(|e| CliError::usage(e.to_string()))?;
        print!("{}", placement.render_ascii(&program));
    }

    // Malformed-but-parseable argument values (zero budget, a physical
    // error rate at or above threshold, an undersized or unroutable tile
    // grid) are bad arguments, not runtime failures: surface them as
    // usage errors before any compilation.
    let estimate =
        estimate_program_with(&program, &spec, &Compiler::new(), &root).map_err(|e| match e {
            EstimateError::Budget(BudgetError::InvalidModel(_))
            | EstimateError::Spec(_)
            | EstimateError::Placement(_)
            | EstimateError::Routing(_) => CliError::usage(e.to_string()),
            other => CliError::runtime(other.to_string()),
        })?;
    root.finish();
    emit_trace(&tel, fmt);
    print!("{}", estimate.render());
    Ok(())
}

/// Maps a frontier-engine failure onto the CLI exit-code convention:
/// malformed inputs (empty axes, bad models, unplaceable programs) are
/// usage errors, compile/cache failures are runtime errors.
fn frontier_cli_error(e: FrontierError) -> CliError {
    match e {
        FrontierError::Compile(_) | FrontierError::Cache(_) => CliError::runtime(e.to_string()),
        other => CliError::usage(other.to_string()),
    }
}

/// Opens the persistent compile cache named by `--cache-dir`, if any.
fn open_cache(args: &Args) -> Result<Option<DiskCache>, CliError> {
    match args.flag("cache-dir") {
        None => Ok(None),
        Some("") => Err(CliError::usage("--cache-dir expects a directory path")),
        Some(dir) => DiskCache::open(std::path::Path::new(dir))
            .map(Some)
            .map_err(|e| CliError::runtime(e.to_string())),
    }
}

/// Resolves `--layouts` and `--grids` into the floorplan axis: each
/// layout entry (`name` or `name@RxC`) that carries no explicit grid is
/// crossed with every `--grids` entry; explicitly-gridded entries pass
/// through unchanged. Duplicate entries in either list are dropped.
fn frontier_layouts(args: &Args) -> Result<Vec<LayoutSpec>, CliError> {
    let entries =
        split_list("layouts", args.flag("layouts").unwrap_or("lane")).map_err(CliError::usage)?;
    let grids: Vec<(usize, usize)> = match args.flag("grids") {
        None => Vec::new(),
        Some(raw) => split_list("grids", raw)
            .map_err(CliError::usage)?
            .iter()
            .map(|g| parse_grid("--grids", g))
            .collect::<Result<_, _>>()?,
    };
    let mut layouts = Vec::new();
    for entry in &entries {
        let layout = parse_layout_entry(entry).map_err(CliError::usage)?;
        if layout.grid.is_some() || grids.is_empty() {
            layouts.push(layout);
        } else {
            for &(rows, cols) in &grids {
                layouts.push(layout.with_grid(rows, cols));
            }
        }
    }
    Ok(layouts)
}

fn cmd_frontier(args: &Args) -> Result<(), CliError> {
    let Some(path) = args.positional.first() else {
        return Err(CliError::usage(
            "usage: tiscc frontier <program.tql> [--layouts L[@RxC][,...]] [--grids RxC[,...]] \
             [--dmin N] [--dmax N] [--profile NAME[,NAME...]] [--cache-dir DIR] \
             [--out F.csv] [--json F.json] [--stats-json F.json] \
             [--trace[=tree|json]] [--quiet]",
        ));
    };
    let quiet = args.flag("quiet").is_some();
    let fmt = trace_format(args)?;
    let stats_json = args.flag("stats-json").map(str::to_string);
    if stats_json.as_deref() == Some("") {
        return Err(CliError::usage("--stats-json expects a file path"));
    }
    // --stats-json embeds the span tree, so it records telemetry even
    // when no --trace format was requested for stderr.
    let tel = telemetry_for(fmt.is_some() || stats_json.is_some());
    let root = tel.root("frontier");
    let program = load_program(path, &root)?;
    let spec = FrontierSpec {
        layouts: frontier_layouts(args)?,
        d_min: args.flag_usize("dmin", 3)?,
        d_max: args.flag_usize("dmax", 13)?,
        profiles: args.profile_list()?,
        model: error_model(args)?,
    };
    let disk = open_cache(args)?;

    let compiler = Compiler::new();
    let started = std::time::Instant::now();
    let report = run_frontier_with(&program, &spec, &compiler, disk.as_ref(), &root)
        .map_err(frontier_cli_error)?;
    let elapsed_s = started.elapsed().as_secs_f64();
    root.finish();
    emit_trace(&tel, fmt);
    if !quiet {
        eprint!("{}", report.render_stats());
        eprintln!("  elapsed: {elapsed_s:.3}s");
        if let Some(cache) = &disk {
            eprintln!(
                "  persistent cache: {} entr{} at {} ({} corrupt skipped)",
                cache.len(),
                if cache.len() == 1 { "y" } else { "ies" },
                cache.dir().display(),
                cache.corrupt_entries()
            );
        }
    }

    if let Some(out) = args.flag("out") {
        let csv = matrix_to_csv(&report);
        std::fs::write(out, &csv)
            .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
        // Self-check: the artifact we just wrote must re-parse bit-exactly.
        let text = std::fs::read_to_string(out)
            .map_err(|e| CliError::runtime(format!("cannot re-read {out}: {e}")))?;
        let parsed = matrix_from_csv(&text)
            .map_err(|e| CliError::runtime(format!("written CSV failed to re-parse: {e}")))?;
        if parsed != report.points {
            return Err(CliError::runtime("written CSV did not round-trip the matrix exactly"));
        }
        if !quiet {
            eprintln!("wrote {out}");
        }
    }
    if let Some(json) = args.flag("json") {
        std::fs::write(json, report_to_json(&report))
            .map_err(|e| CliError::runtime(format!("cannot write {json}: {e}")))?;
        if !quiet {
            eprintln!("wrote {json}");
        }
    }
    if let Some(stats_path) = &stats_json {
        let trace = tel.snapshot().and_then(|r| JsonSink.render(&r));
        std::fs::write(stats_path, stats_to_json(&report, elapsed_s, trace.as_deref()))
            .map_err(|e| CliError::runtime(format!("cannot write {stats_path}: {e}")))?;
        if !quiet {
            eprintln!("wrote {stats_path}");
        }
    }
    print!("{}", frontier_to_csv(&report));
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    if args.flag("stdin-json").is_none() {
        return Err(CliError::usage(
            "usage: tiscc serve --stdin-json [--cache-dir DIR] (newline-delimited JSON \
             requests on stdin, one JSON response per line on stdout, until EOF)",
        ));
    }
    let state = ServeState::new(open_cache(args)?);
    eprintln!(
        "tiscc serve: reading JSON requests from stdin{}",
        match &state.disk {
            Some(cache) => format!(" (persistent cache: {})", cache.dir().display()),
            None => String::new(),
        }
    );
    let stdin = std::io::stdin();
    let mut input = String::new();
    loop {
        input.clear();
        use std::io::BufRead;
        let n = stdin
            .lock()
            .read_line(&mut input)
            .map_err(|e| CliError::runtime(format!("stdin read failed: {e}")))?;
        if n == 0 {
            return Ok(());
        }
        let line = input.trim();
        if line.is_empty() {
            continue;
        }
        println!("{}", handle_line(line, &state));
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }
}

type TableJob =
    fn(&HardwareSpec, usize, usize) -> Result<Vec<tables::ResourceRow>, tiscc_core::CoreError>;

fn cmd_tables(args: &Args) -> Result<(), CliError> {
    let d = args.flag_at_least("d", 3, 2)?;
    let dt = args.flag_at_least("dt", 2, 1)?;
    let spec = args.profile()?;
    println!("{}", tables::table5(&spec));
    let jobs: [(&str, TableJob); 3] = [
        ("Table 1: local lattice-surgery instruction set", |spec, d, dt| {
            tables::table1_rows(spec, &[d], dt)
        }),
        ("Table 2: primitive operations", tables::table2_rows),
        ("Table 3: derived instruction set", tables::table3_rows),
    ];
    for (title, job) in jobs {
        let rows = job(&spec, d, dt)
            .map_err(|e| CliError::runtime(format!("error compiling {title}: {e}")))?;
        println!("{}", tables::render_rows(title, &rows));
    }
    Ok(())
}

fn cmd_profiles() -> Result<(), CliError> {
    println!("Available hardware profiles (select with --profile NAME):\n");
    for spec in HardwareSpec::presets() {
        print!("{}", spec.render());
        println!("  fingerprint         : {}", spec.fingerprint());
        println!();
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), CliError> {
    let dmax = args.flag_at_least("dmax", 5, 2)?;
    let profiles = args.profile_list()?;
    let mut spec = SweepSpec::paper(dmax).with_profiles(profiles);
    if let Some(dt) = args.flag("dt") {
        if dt != "d" {
            let dt = dt.parse::<usize>().map_err(|_| {
                CliError::usage(format!("--dt expects a number or 'd', got {dt:?}"))
            })?;
            if dt == 0 {
                return Err(CliError::usage("--dt must be at least 1, got 0"));
            }
            spec.dts = vec![DtPolicy::Fixed(dt)];
        }
    }

    let quiet = args.flag("quiet").is_some();
    let fmt = trace_format(args)?;
    let tel = telemetry_for(fmt.is_some());
    let root = tel.root("sweep");
    let cache = CompileCache::new();
    let profile_names: Vec<&str> = spec.profiles.iter().map(|p| p.name.as_str()).collect();
    if !quiet {
        eprintln!(
            "sweeping {} configurations ({} instructions x d=2..={} with dt policy {:?} x profiles {:?})",
            spec.len(),
            spec.instructions.len(),
            dmax,
            spec.dts,
            profile_names
        );
    }
    let result = run_sweep_with(&spec, &cache, &root)
        .map_err(|e| CliError::runtime(format!("sweep failed: {e}")))?;
    if !quiet {
        eprintln!(
            "cold sweep: {} rows in {:.2}s on {} thread(s) ({} compiled, {} cache hits)",
            result.rows.len(),
            result.elapsed_s,
            result.threads,
            result.cache_misses,
            result.cache_hits
        );
    }

    // A second in-process sweep over the same spec: every row must now come
    // from the compile cache. This both demonstrates and regression-checks
    // the memoization (a real client issuing overlapping sweeps, e.g. the
    // Table 1/2/3 generators, shares primitives exactly this way). Both
    // passes share the one "sweep" root span, so phase totals aggregate
    // the cold and warm expand/compile/assemble children.
    let warm = run_sweep_with(&spec, &cache, &root)
        .map_err(|e| CliError::runtime(format!("warm sweep failed: {e}")))?;
    if !quiet {
        eprintln!(
            "warm sweep: {} rows in {:.3}s ({} cache hits, {} compiled)",
            warm.rows.len(),
            warm.elapsed_s,
            warm.cache_hits,
            warm.cache_misses
        );
    }
    root.finish();
    emit_trace(&tel, fmt);
    if warm.cache_misses != 0 || warm.rows != result.rows {
        return Err(CliError::runtime("cache inconsistency: warm sweep diverged from cold sweep"));
    }

    // Artifact targets: --out writes the CSV (and, unless --json overrides
    // it, a JSON sibling next to it); --json alone writes only the JSON.
    let csv_path = args.flag("out").map(PathBuf::from);
    let json_path = match (args.flag("json"), &csv_path) {
        (Some(j), _) => Some(PathBuf::from(j)),
        (None, Some(csv)) => Some(csv.with_extension("json")),
        (None, None) => None,
    };
    if let Some(csv_path) = &csv_path {
        result
            .write_csv(csv_path)
            .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", csv_path.display())))?;
        // Self-check: the artifact we just wrote must parse back.
        let text = std::fs::read_to_string(csv_path).map_err(|e| {
            CliError::runtime(format!("cannot re-read {}: {e}", csv_path.display()))
        })?;
        parse_csv(&text)
            .map_err(|e| CliError::runtime(format!("written CSV failed to re-parse: {e}")))?;
        if !quiet {
            eprintln!("wrote {}", csv_path.display());
        }
    }
    if let Some(json_path) = &json_path {
        result
            .write_json(json_path)
            .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", json_path.display())))?;
        if !quiet {
            eprintln!("wrote {}", json_path.display());
        }
    }
    if csv_path.is_none() && json_path.is_none() {
        print!("{}", result.to_csv());
    }
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), CliError> {
    let seed = args.flag_usize("seed", 17)? as u64;
    let mut failures = 0usize;
    println!("Sec. 4 verification (fiducial state preparation + Idle process map):");
    for fiducial in Fiducial::all() {
        let mut fixture = SingleTile::new(2, 2, 1)
            .map_err(|e| CliError::runtime(format!("fixture construction failed: {e}")))?;
        if let Err(e) = fiducial.prepare(&mut fixture.hw, &mut fixture.patch) {
            eprintln!("prepare {fiducial:?} failed to compile: {e}");
            failures += 1;
            continue;
        }
        let run = fixture.simulate(seed);
        let bloch = fixture.logical_bloch(&run);
        let ok = bloch.distance(&fiducial.bloch()) < 1e-9;
        if !ok {
            failures += 1;
        }
        println!(
            "  prepare {:?}: bloch = ({:+.1}, {:+.1}, {:+.1})  {}",
            fiducial,
            bloch.x,
            bloch.y,
            bloch.z,
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    match process_map_of(3, 3, 1, seed.wrapping_add(6), |hw, patch| patch.idle(hw).map(|_| ())) {
        Ok(map) => {
            let deviation = map.max_deviation(&tiscc_orqcs::ProcessMap::identity());
            let ok = deviation < 1e-9;
            if !ok {
                failures += 1;
            }
            println!(
                "  Idle process map deviation from identity: {:.3e}  {}",
                deviation,
                if ok { "ok" } else { "MISMATCH" }
            );
        }
        Err(e) => {
            eprintln!("idle process tomography failed: {e}");
            failures += 1;
        }
    }
    if failures == 0 {
        println!("verification passed");
        Ok(())
    } else {
        println!("verification FAILED ({failures} check(s))");
        Err(CliError { code: 1, message: String::new() })
    }
}
