//! Parametric workload generators for the TISCC estimator stack.
//!
//! The estimator pipeline (parse → place → schedule → budget → compile) is
//! only honest at scale if it is *measured* at scale. This crate provides
//! deterministic program generators — each returns a validated
//! [`LogicalProgram`] that renders to `.tql` text and re-parses bit-for-bit
//! — so the benchmarks and the CLI can exercise the stack at 10⁴–10⁶
//! instructions instead of the few-dozen-instruction hand-written examples:
//!
//! * [`Family::RippleCarryAdder`] / [`Family::CarryLookaheadAdder`] — N-bit
//!   in-place adders built from lattice-surgery merges; the ripple variant
//!   is a nearest-neighbour carry chain, the lookahead variant a
//!   Kogge–Stone prefix network whose long-range merges stress the router,
//! * [`Family::Qft`] — the quantum Fourier transform on N qubits with
//!   controlled-phase rotations lowered to T-teleportation gadgets,
//! * [`Family::IsingTrotter`] — first-order Trotter layers of the
//!   transverse-field Ising model on a W×W lattice, parameterized by the
//!   coupling `J`, the field `h` and the step count,
//! * [`Family::GhzChain`] / [`Family::TeleportChain`] — a GHZ ladder of
//!   merges and a three-patch teleportation chain of depth D,
//! * [`Family::RandomCliffordT`] — seeded random Clifford+T programs with
//!   an instruction-mix knob, byte-reproducible from a `u64` seed via the
//!   vendored `rand` stub.
//!
//! Every family has a closed-form instruction-count formula
//! ([`instruction_count`]) that the generators are tested against, so
//! benchmark rows can be labelled by exact program length without building
//! the program first. The `tiscc gen` subcommand exposes the registry on
//! the command line; `docs/WORKLOADS.md` is the cookbook.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod adders;
mod chains;
mod ising;
mod qft;
mod random;

use std::fmt;

use tiscc_program::LogicalProgram;

/// Hard ceiling on generated program length, so a typo'd `--n` fails fast
/// instead of allocating gigabytes.
pub const MAX_INSTRUCTIONS: usize = 10_000_000;

/// The workload families the generator registry knows how to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// N-bit ripple-carry adder: nearest-neighbour carry chain.
    RippleCarryAdder,
    /// N-bit carry-lookahead adder: Kogge–Stone prefix merge network.
    CarryLookaheadAdder,
    /// Quantum Fourier transform on N qubits.
    Qft,
    /// Transverse-field Ising Trotter layers on a W×W lattice.
    IsingTrotter,
    /// GHZ state preparation ladder over N qubits.
    GhzChain,
    /// Three-patch logical teleportation chain of depth D.
    TeleportChain,
    /// Seeded random Clifford+T program of exactly N instructions.
    RandomCliffordT,
}

impl Family {
    /// Every family, in registry order.
    pub fn all() -> &'static [Family] {
        &[
            Family::RippleCarryAdder,
            Family::CarryLookaheadAdder,
            Family::Qft,
            Family::IsingTrotter,
            Family::GhzChain,
            Family::TeleportChain,
            Family::RandomCliffordT,
        ]
    }

    /// The kebab-case name used by `tiscc gen` and the docs.
    pub fn name(self) -> &'static str {
        match self {
            Family::RippleCarryAdder => "ripple-carry-adder",
            Family::CarryLookaheadAdder => "carry-lookahead-adder",
            Family::Qft => "qft",
            Family::IsingTrotter => "ising-trotter",
            Family::GhzChain => "ghz-chain",
            Family::TeleportChain => "teleport-chain",
            Family::RandomCliffordT => "random-clifford-t",
        }
    }

    /// Resolves a kebab-case family name.
    pub fn from_name(name: &str) -> Option<Family> {
        Family::all().iter().copied().find(|f| f.name() == name)
    }

    /// One-line description for `tiscc gen` usage text and the cookbook.
    pub fn description(self) -> &'static str {
        match self {
            Family::RippleCarryAdder => {
                "N-bit ripple-carry adder; nearest-neighbour merges, 11N-1 instructions"
            }
            Family::CarryLookaheadAdder => {
                "N-bit Kogge-Stone adder; long-range prefix merges stress the router"
            }
            Family::Qft => "N-qubit QFT; controlled phases via T-teleportation gadgets",
            Family::IsingTrotter => {
                "W x W transverse-field Ising Trotter layers (--n is W; --steps, --j, --h)"
            }
            Family::GhzChain => "N-qubit GHZ ladder; one merge per link",
            Family::TeleportChain => "depth-D teleportation chain over three patches",
            Family::RandomCliffordT => {
                "seeded random Clifford+T, exactly N instructions (--seed, --t-frac, --qubits)"
            }
        }
    }

    /// The default size parameter (`--n`) for the family.
    pub fn default_n(self) -> usize {
        match self {
            Family::IsingTrotter => 4,
            Family::RandomCliffordT => 256,
            _ => 8,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The full parameter set of one generator invocation.
///
/// Each family reads the knobs it understands and ignores the rest, so a
/// spec built from command-line flags never has to be family-pruned. All
/// generators are pure functions of the spec: the same spec always produces
/// the same program, byte-for-byte in `.tql` form.
#[derive(Clone, Debug, PartialEq)]
pub struct GenSpec {
    /// Which generator to run.
    pub family: Family,
    /// The size parameter: bit width, qubit count, lattice width or chain
    /// depth depending on the family.
    pub n: usize,
    /// RNG seed ([`Family::RandomCliffordT`] only).
    pub seed: u64,
    /// Trotter step count ([`Family::IsingTrotter`] only).
    pub steps: usize,
    /// Ising bond coupling J ([`Family::IsingTrotter`] only).
    pub coupling_j: f64,
    /// Transverse field h ([`Family::IsingTrotter`] only).
    pub field_h: f64,
    /// Fraction of the instruction budget spent on T-teleportation gadgets
    /// ([`Family::RandomCliffordT`] only).
    pub t_fraction: f64,
    /// Data-qubit override ([`Family::RandomCliffordT`] only; the default
    /// is `max(2, ceil(sqrt(n)))`).
    pub qubits: Option<usize>,
}

impl GenSpec {
    /// A spec with the family's default parameters.
    pub fn new(family: Family) -> Self {
        GenSpec {
            family,
            n: family.default_n(),
            seed: 1,
            steps: 1,
            coupling_j: 1.0,
            field_h: 1.0,
            t_fraction: 0.2,
            qubits: None,
        }
    }

    /// Sets the size parameter.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the Trotter step count.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Sets the Ising bond coupling J.
    pub fn with_coupling_j(mut self, j: f64) -> Self {
        self.coupling_j = j;
        self
    }

    /// Sets the T-gadget fraction of the random mix.
    pub fn with_t_fraction(mut self, t: f64) -> Self {
        self.t_fraction = t;
        self
    }

    /// Overrides the random-program data-qubit count.
    pub fn with_qubits(mut self, q: usize) -> Self {
        self.qubits = Some(q);
        self
    }

    /// The deterministic program name the generator will emit, e.g.
    /// `random-clifford-t-n256-seed1`.
    pub fn program_name(&self) -> String {
        match self.family {
            Family::IsingTrotter => format!("ising-trotter-w{}-s{}", self.n, self.steps),
            Family::TeleportChain => format!("teleport-chain-d{}", self.n),
            Family::RandomCliffordT => {
                format!("random-clifford-t-n{}-seed{}", self.n, self.seed)
            }
            family => format!("{}-n{}", family.name(), self.n),
        }
    }

    /// Checks the knobs the family actually reads; the first offending flag
    /// is named in the error so the CLI can fail usefully.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let bad = |flag, message: String| Err(WorkloadError::BadParam { flag, message });
        // Bound the raw knobs before any count arithmetic so the
        // closed-form formulas cannot overflow.
        if self.n > 100_000_000 {
            return bad("--n", "size parameter is capped at 100000000".into());
        }
        if self.steps > 1_000_000 {
            return bad("--steps", "Trotter step count is capped at 1000000".into());
        }
        match self.family {
            Family::GhzChain => {
                if self.n < 2 {
                    return bad("--n", format!("{} needs --n >= 2", self.family));
                }
            }
            Family::IsingTrotter => {
                if self.n < 1 {
                    return bad("--n", "lattice width must be >= 1".into());
                }
                if self.steps < 1 {
                    return bad("--steps", "Trotter step count must be >= 1".into());
                }
                if !self.coupling_j.is_finite() || self.coupling_j.abs() > 100.0 {
                    return bad("--j", "coupling must be finite with |J| <= 100".into());
                }
                if !self.field_h.is_finite() || self.field_h.abs() > 100.0 {
                    return bad("--h", "field must be finite with |h| <= 100".into());
                }
            }
            Family::RandomCliffordT => {
                if self.n < 1 {
                    return bad("--n", "instruction count must be >= 1".into());
                }
                if !(0.0..=1.0).contains(&self.t_fraction) {
                    return bad("--t-frac", "T fraction must lie in [0, 1]".into());
                }
                if let Some(q) = self.qubits {
                    if q < 1 {
                        return bad("--qubits", "data-qubit count must be >= 1".into());
                    }
                    if q > 100_000 {
                        return bad("--qubits", "data-qubit count is capped at 100000".into());
                    }
                }
            }
            _ => {
                if self.n < 1 {
                    return bad("--n", format!("{} needs --n >= 1", self.family));
                }
            }
        }
        Ok(())
    }
}

/// Errors raised by the generator registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadError {
    /// The family name is not in the registry.
    UnknownFamily(String),
    /// A parameter is out of range for the requested family; `flag` is the
    /// `tiscc gen` flag that carries it.
    BadParam {
        /// The command-line flag that names the parameter (e.g. `--n`).
        flag: &'static str,
        /// What went wrong.
        message: String,
    },
    /// The requested program would exceed [`MAX_INSTRUCTIONS`].
    TooLarge {
        /// The closed-form instruction count of the request.
        requested: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnknownFamily(name) => {
                write!(f, "unknown workload family '{name}' (expected one of ")?;
                for (i, family) in Family::all().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{family}")?;
                }
                write!(f, ")")
            }
            WorkloadError::BadParam { flag, message } => {
                write!(f, "invalid {flag}: {message}")
            }
            WorkloadError::TooLarge { requested } => write!(
                f,
                "workload would have {requested} instructions; the cap is {MAX_INSTRUCTIONS} \
                 (lower --n or --steps)"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The closed-form instruction count of a spec, without building the
/// program. [`generate`] is tested to agree with this for every family.
pub fn instruction_count(spec: &GenSpec) -> Result<usize, WorkloadError> {
    spec.validate()?;
    Ok(match spec.family {
        Family::RippleCarryAdder => adders::ripple_count(spec.n),
        Family::CarryLookaheadAdder => adders::lookahead_count(spec.n),
        Family::Qft => qft::count(spec.n),
        Family::IsingTrotter => ising::count(spec.n, spec.steps, spec.coupling_j, spec.field_h),
        Family::GhzChain => chains::ghz_count(spec.n),
        Family::TeleportChain => chains::teleport_count(spec.n),
        Family::RandomCliffordT => spec.n,
    })
}

/// Builds the program described by `spec`.
///
/// The result is always liveness-valid and has exactly
/// [`instruction_count`] instructions; rendering it with
/// `LogicalProgram::to_tql` and re-parsing reproduces the program
/// structurally, and the same spec regenerates the same bytes.
pub fn generate(spec: &GenSpec) -> Result<LogicalProgram, WorkloadError> {
    let count = instruction_count(spec)?;
    if count > MAX_INSTRUCTIONS {
        return Err(WorkloadError::TooLarge { requested: count });
    }
    let program = match spec.family {
        Family::RippleCarryAdder => adders::ripple(spec),
        Family::CarryLookaheadAdder => adders::lookahead(spec),
        Family::Qft => qft::generate(spec),
        Family::IsingTrotter => ising::generate(spec),
        Family::GhzChain => chains::ghz(spec),
        Family::TeleportChain => chains::teleport(spec),
        Family::RandomCliffordT => random::generate(spec),
    };
    debug_assert_eq!(program.len(), count, "count formula out of sync for {}", spec.family);
    debug_assert!(program.validate().is_ok(), "generator emitted invalid program");
    Ok(program)
}

/// Resolves a family by name and builds it with the given spec fields —
/// the one-call entry point used by the `tiscc gen` subcommand.
pub fn generate_named(name: &str, spec: &GenSpec) -> Result<LogicalProgram, WorkloadError> {
    let family =
        Family::from_name(name).ok_or_else(|| WorkloadError::UnknownFamily(name.to_string()))?;
    generate(&GenSpec { family, ..spec.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_round_trip() {
        for &family in Family::all() {
            assert_eq!(Family::from_name(family.name()), Some(family));
            assert!(!family.description().is_empty());
        }
        assert_eq!(Family::from_name("warp-field"), None);
    }

    #[test]
    fn every_family_generates_a_valid_program_matching_its_formula() {
        for &family in Family::all() {
            for n in [1usize, 2, 3, 5, 8, 13] {
                let spec = GenSpec::new(family).with_n(n);
                if spec.validate().is_err() {
                    continue; // e.g. ghz-chain at n = 1
                }
                let program = generate(&spec).unwrap();
                program.validate().unwrap_or_else(|e| {
                    panic!("{family} n={n}: invalid program: {e}");
                });
                assert_eq!(
                    program.len(),
                    instruction_count(&spec).unwrap(),
                    "{family} n={n}: count formula mismatch"
                );
                assert_eq!(program.name(), spec.program_name());
            }
        }
    }

    #[test]
    fn bad_params_name_the_flag() {
        let err = generate(&GenSpec::new(Family::GhzChain).with_n(1)).unwrap_err();
        assert!(err.to_string().contains("--n"), "{err}");
        let err =
            generate(&GenSpec::new(Family::RandomCliffordT).with_t_fraction(1.5)).unwrap_err();
        assert!(err.to_string().contains("--t-frac"), "{err}");
        let err = generate(&GenSpec::new(Family::IsingTrotter).with_steps(0)).unwrap_err();
        assert!(err.to_string().contains("--steps"), "{err}");
        let err =
            generate(&GenSpec::new(Family::IsingTrotter).with_coupling_j(f64::NAN)).unwrap_err();
        assert!(err.to_string().contains("--j"), "{err}");
        let err = generate_named("warp-field", &GenSpec::new(Family::Qft)).unwrap_err();
        assert!(err.to_string().contains("warp-field"), "{err}");
        assert!(err.to_string().contains("ripple-carry-adder"), "{err}");
    }

    #[test]
    fn oversized_requests_are_rejected_before_allocation() {
        let err = generate(&GenSpec::new(Family::Qft).with_n(100_000)).unwrap_err();
        assert!(matches!(err, WorkloadError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn same_spec_regenerates_identical_bytes() {
        for &family in Family::all() {
            let spec = GenSpec::new(family).with_seed(42);
            let a = generate(&spec).unwrap().to_tql();
            let b = generate(&spec).unwrap().to_tql();
            assert_eq!(a, b, "{family} regeneration diverged");
        }
    }
}
