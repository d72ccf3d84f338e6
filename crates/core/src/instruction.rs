//! The local, tile-based lattice-surgery instruction set of paper Table 1.
//!
//! Every instruction acts on (and returns) one or two logical tiles; the
//! table below matches the paper's accounting of logical time-steps (one
//! logical time-step = `dt` rounds of error correction):
//!
//! | Instruction    | Tiles | Time-steps |
//! |----------------|-------|------------|
//! | Prepare X/Z    | 1     | 1          |
//! | Inject Y/T     | 1     | 0          |
//! | Measure X/Z    | 1     | 0          |
//! | Pauli X/Y/Z    | 1     | 0          |
//! | Hadamard       | 1     | 0          |
//! | Idle           | 1     | 1          |
//! | Measure XX/ZZ  | 2     | 1          |

use tiscc_hw::HardwareModel;
use tiscc_math::PauliOp;

use crate::patch::LogicalQubit;
use crate::surgery::{measure_xx, measure_zz};
use crate::tracker::LogicalOutcomeSpec;
use crate::CoreError;

/// One member of the Table 1 instruction set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Fault-tolerantly initialise a tile to |0⟩.
    PrepareZ,
    /// Fault-tolerantly initialise a tile to |+⟩.
    PrepareX,
    /// Non-fault-tolerantly initialise a tile to the Y eigenstate |+i⟩.
    InjectY,
    /// Non-fault-tolerantly initialise a tile to the magic state |T⟩.
    InjectT,
    /// Destructively measure a tile in the Z basis.
    MeasureZ,
    /// Destructively measure a tile in the X basis.
    MeasureX,
    /// Logical Pauli X.
    PauliX,
    /// Logical Pauli Y.
    PauliY,
    /// Logical Pauli Z.
    PauliZ,
    /// Transversal logical Hadamard (leaves the patch rotated).
    Hadamard,
    /// `dt` rounds of error correction.
    Idle,
    /// Joint XX measurement of two vertically adjacent tiles.
    MeasureXX,
    /// Joint ZZ measurement of two horizontally adjacent tiles.
    MeasureZZ,
}

impl Instruction {
    /// Number of logical tiles the instruction acts on.
    pub fn tiles(self) -> usize {
        match self {
            Instruction::MeasureXX | Instruction::MeasureZZ => 2,
            _ => 1,
        }
    }

    /// Logical time-steps consumed (paper Table 1).
    pub fn logical_time_steps(self) -> usize {
        match self {
            Instruction::PrepareZ
            | Instruction::PrepareX
            | Instruction::Idle
            | Instruction::MeasureXX
            | Instruction::MeasureZZ => 1,
            _ => 0,
        }
    }

    /// The instruction's name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Instruction::PrepareZ => "Prepare Z",
            Instruction::PrepareX => "Prepare X",
            Instruction::InjectY => "Inject Y",
            Instruction::InjectT => "Inject T",
            Instruction::MeasureZ => "Measure Z",
            Instruction::MeasureX => "Measure X",
            Instruction::PauliX => "Pauli X",
            Instruction::PauliY => "Pauli Y",
            Instruction::PauliZ => "Pauli Z",
            Instruction::Hadamard => "Hadamard",
            Instruction::Idle => "Idle",
            Instruction::MeasureXX => "Measure XX",
            Instruction::MeasureZZ => "Measure ZZ",
        }
    }

    /// A stable, machine-readable identifier (snake case): the form used by
    /// the command line and by serialized sweep artifacts.
    pub fn id(self) -> &'static str {
        match self {
            Instruction::PrepareZ => "prepare_z",
            Instruction::PrepareX => "prepare_x",
            Instruction::InjectY => "inject_y",
            Instruction::InjectT => "inject_t",
            Instruction::MeasureZ => "measure_z",
            Instruction::MeasureX => "measure_x",
            Instruction::PauliX => "pauli_x",
            Instruction::PauliY => "pauli_y",
            Instruction::PauliZ => "pauli_z",
            Instruction::Hadamard => "hadamard",
            Instruction::Idle => "idle",
            Instruction::MeasureXX => "measure_xx",
            Instruction::MeasureZZ => "measure_zz",
        }
    }

    /// Parses an instruction from either its [`Instruction::id`] or its
    /// paper name ([`Instruction::name`]), case-insensitively. The error
    /// lists every valid id, so it can be surfaced verbatim at a CLI
    /// boundary.
    pub fn from_id(text: &str) -> Result<Instruction, UnknownInstruction> {
        Instruction::matching(text, &[])
            .ok_or_else(|| UnknownInstruction { input: text.to_string() })
    }

    /// The one instruction-name matcher, behind [`Instruction::from_id`]
    /// and the `.tql` mnemonics. `text` matches an entry of `aliases`
    /// when the two are equal up to ASCII case; failing that, its trimmed
    /// form matches an [`Instruction::id`] up to ASCII case, with `-` and
    /// space read as `_` (so paper names such as `Measure XX` match too).
    /// Allocates nothing.
    ///
    /// ```
    /// use tiscc_core::instruction::Instruction;
    ///
    /// let aliases = [("h", Instruction::Hadamard)];
    /// assert_eq!(Instruction::matching("H", &aliases), Some(Instruction::Hadamard));
    /// assert_eq!(Instruction::matching("PREPARE-Z", &aliases), Some(Instruction::PrepareZ));
    /// assert_eq!(Instruction::matching("h", &[]), None);
    /// ```
    pub fn matching(text: &str, aliases: &[(&str, Instruction)]) -> Option<Instruction> {
        if let Some(&(_, instruction)) =
            aliases.iter().find(|(alias, _)| alias.eq_ignore_ascii_case(text))
        {
            return Some(instruction);
        }
        let text = text.trim().as_bytes();
        let id_byte = |b: u8| match b {
            b' ' | b'-' => b'_',
            b => b.to_ascii_lowercase(),
        };
        Instruction::all().iter().copied().find(|i| {
            let id = i.id().as_bytes();
            id.len() == text.len() && id.iter().zip(text).all(|(&a, &b)| a == id_byte(b))
        })
    }

    /// Every instruction, in the order of Table 1.
    pub fn all() -> &'static [Instruction] {
        &[
            Instruction::PrepareX,
            Instruction::PrepareZ,
            Instruction::InjectY,
            Instruction::InjectT,
            Instruction::MeasureX,
            Instruction::MeasureZ,
            Instruction::PauliX,
            Instruction::PauliY,
            Instruction::PauliZ,
            Instruction::Hadamard,
            Instruction::Idle,
            Instruction::MeasureXX,
            Instruction::MeasureZZ,
        ]
    }
}

impl std::str::FromStr for Instruction {
    type Err = UnknownInstruction;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Instruction::from_id(s)
    }
}

/// Error returned by [`Instruction::from_id`] for unrecognised input; its
/// [`std::fmt::Display`] impl enumerates every valid instruction id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownInstruction {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for UnknownInstruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<&str> = Instruction::all().iter().map(|i| i.id()).collect();
        write!(f, "unknown instruction '{}'; valid instructions: {}", self.input, ids.join(", "))
    }
}

impl std::error::Error for UnknownInstruction {}

/// The result of compiling one instruction.
#[derive(Clone, Debug)]
pub struct InstructionReport {
    /// Which instruction was compiled.
    pub instruction: Instruction,
    /// Logical time-steps consumed.
    pub logical_time_steps: usize,
    /// Number of tiles involved.
    pub tiles: usize,
    /// For measurement-type instructions: the classical definition of the
    /// logical outcome.
    pub outcome: Option<LogicalOutcomeSpec>,
}

/// Compiles a single-tile instruction onto `patch`.
///
/// Two-tile instructions (`Measure XX/ZZ`) must be compiled with
/// [`apply_two_tile_instruction`].
pub fn apply_instruction(
    hw: &mut HardwareModel,
    instruction: Instruction,
    patch: &mut LogicalQubit,
) -> Result<InstructionReport, CoreError> {
    let mut outcome = None;
    match instruction {
        Instruction::PrepareZ => {
            patch.transversal_prepare_z(hw)?;
            patch.idle(hw)?;
        }
        Instruction::PrepareX => {
            patch.transversal_prepare_x(hw)?;
            patch.idle(hw)?;
        }
        Instruction::InjectY => patch.inject_y(hw)?,
        Instruction::InjectT => patch.inject_t(hw)?,
        Instruction::MeasureZ => outcome = Some(patch.transversal_measure_z(hw)?.0),
        Instruction::MeasureX => outcome = Some(patch.transversal_measure_x(hw)?.0),
        Instruction::PauliX => patch.apply_logical_pauli(hw, PauliOp::X)?,
        Instruction::PauliY => patch.apply_logical_pauli(hw, PauliOp::Y)?,
        Instruction::PauliZ => patch.apply_logical_pauli(hw, PauliOp::Z)?,
        Instruction::Hadamard => patch.transversal_hadamard(hw)?,
        Instruction::Idle => {
            patch.idle(hw)?;
        }
        Instruction::MeasureXX | Instruction::MeasureZZ => {
            return Err(CoreError::InvalidState(format!(
                "{} acts on two tiles; use apply_two_tile_instruction",
                instruction.name()
            )));
        }
    }
    Ok(InstructionReport {
        instruction,
        logical_time_steps: instruction.logical_time_steps(),
        tiles: instruction.tiles(),
        outcome,
    })
}

/// Compiles a two-tile instruction (`Measure XX` or `Measure ZZ`).
pub fn apply_two_tile_instruction(
    hw: &mut HardwareModel,
    instruction: Instruction,
    first: &mut LogicalQubit,
    second: &mut LogicalQubit,
) -> Result<InstructionReport, CoreError> {
    let outcome = match instruction {
        Instruction::MeasureXX => measure_xx(hw, first, second)?,
        Instruction::MeasureZZ => measure_zz(hw, first, second)?,
        other => {
            return Err(CoreError::InvalidState(format!(
                "{} is a single-tile instruction",
                other.name()
            )))
        }
    };
    Ok(InstructionReport {
        instruction,
        logical_time_steps: instruction.logical_time_steps(),
        tiles: 2,
        outcome: Some(outcome),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_time_step_accounting() {
        use Instruction::*;
        assert_eq!(PrepareZ.logical_time_steps(), 1);
        assert_eq!(PrepareX.logical_time_steps(), 1);
        assert_eq!(InjectY.logical_time_steps(), 0);
        assert_eq!(InjectT.logical_time_steps(), 0);
        assert_eq!(MeasureZ.logical_time_steps(), 0);
        assert_eq!(PauliY.logical_time_steps(), 0);
        assert_eq!(Hadamard.logical_time_steps(), 0);
        assert_eq!(Idle.logical_time_steps(), 1);
        assert_eq!(MeasureXX.logical_time_steps(), 1);
        assert_eq!(MeasureZZ.logical_time_steps(), 1);
    }

    #[test]
    fn table1_tile_accounting() {
        for &i in Instruction::all() {
            let expected =
                if matches!(i, Instruction::MeasureXX | Instruction::MeasureZZ) { 2 } else { 1 };
            assert_eq!(i.tiles(), expected, "{}", i.name());
        }
        assert_eq!(Instruction::all().len(), 13);
    }

    #[test]
    fn from_id_accepts_ids_names_and_mixed_case() {
        assert_eq!(Instruction::from_id("measure_xx"), Ok(Instruction::MeasureXX));
        assert_eq!(Instruction::from_id("Measure XX"), Ok(Instruction::MeasureXX));
        assert_eq!(Instruction::from_id("PREPARE-Z"), Ok(Instruction::PrepareZ));
        assert_eq!(Instruction::from_id("  idle "), Ok(Instruction::Idle));
        assert_eq!("inject_t".parse(), Ok(Instruction::InjectT));
    }

    #[test]
    fn from_id_matches_bytes_not_unicode_lookalikes() {
        // Only ASCII folds: a non-ASCII letter never matches an id byte,
        // and an id must match whole.
        assert!(Instruction::from_id("\u{130}dle").is_err());
        assert!(Instruction::from_id("idl\u{e9}").is_err());
        assert!(Instruction::from_id("idle_").is_err());
        assert!(Instruction::from_id("").is_err());
        assert_eq!(Instruction::from_id("\u{3000}Pauli Y\t"), Ok(Instruction::PauliY));
    }

    #[test]
    fn from_id_error_lists_every_valid_id() {
        let err = Instruction::from_id("bogus").unwrap_err();
        assert_eq!(err.input, "bogus");
        let msg = err.to_string();
        assert!(msg.contains("'bogus'"));
        for &i in Instruction::all() {
            assert!(msg.contains(i.id()), "error message missing {}", i.id());
        }
    }

    #[test]
    fn two_tile_instructions_are_rejected_by_single_tile_entry_point() {
        let mut hw = HardwareModel::new(6, 6);
        let mut patch = LogicalQubit::new(&mut hw, 2, 2, 1, (0, 0)).unwrap();
        patch.transversal_prepare_z(&mut hw).unwrap();
        assert!(apply_instruction(&mut hw, Instruction::MeasureXX, &mut patch).is_err());
    }
}
