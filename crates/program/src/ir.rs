//! The logical-program intermediate representation.
//!
//! A [`LogicalProgram`] is a list of named logical qubits plus an ordered
//! sequence of Table 1 lattice-surgery instructions over them. Programs are
//! built either through the builder API ([`LogicalProgram::add_qubit`],
//! [`LogicalProgram::push`] and the per-instruction conveniences) or by
//! parsing the `.tql` text format (see [`crate::parse`]).
//!
//! The IR enforces *liveness*: a qubit is brought to life by a preparation
//! or injection, destroyed by a destructive single-qubit measurement, and
//! must be live for every other instruction that names it. Joint
//! `Measure XX`/`Measure ZZ` surgeries leave both operands alive (the
//! merge-split sequence restores the individual patches).

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::ops::Deref;

use tiscc_core::instruction::Instruction;

/// A reference to a logical qubit of one program: the index into the
/// program's qubit table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QubitRef(pub usize);

/// The one or two operand qubits of an instruction, held inline: it
/// derefs to the slice of the qubits in use, so an instruction costs no
/// heap allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QubitPair {
    // The operands in order; a slot past `len` always holds `QubitRef(0)`,
    // so the derived equality is the slices' equality.
    refs: [QubitRef; 2],
    len: u8,
}

impl QubitPair {
    /// The operands `qubits`, in order.
    ///
    /// # Panics
    /// Panics if `qubits` holds more than two qubits.
    pub(crate) fn new(qubits: &[QubitRef]) -> QubitPair {
        assert!(qubits.len() <= 2, "an instruction takes at most two qubits");
        let mut refs = [QubitRef(0); 2];
        refs[..qubits.len()].copy_from_slice(qubits);
        QubitPair { refs, len: qubits.len() as u8 }
    }
}

impl Deref for QubitPair {
    type Target = [QubitRef];

    fn deref(&self) -> &[QubitRef] {
        &self.refs[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a QubitPair {
    type Item = &'a QubitRef;
    type IntoIter = std::slice::Iter<'a, QubitRef>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One instruction of a logical program: a Table 1 lattice-surgery
/// instruction applied to one or two named logical qubits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramInstruction {
    /// The lattice-surgery instruction.
    pub instruction: Instruction,
    /// The operand qubits, in order ([`Instruction::tiles`] entries).
    pub qubits: QubitPair,
    /// 1-based source line for programs parsed from `.tql` text (`None`
    /// for programs built through the API).
    pub line: Option<usize>,
}

/// A logical program: named logical qubits plus an ordered instruction
/// sequence.
#[derive(Clone, Debug)]
pub struct LogicalProgram {
    name: String,
    qubits: Vec<String>,
    // Name -> index mirror of `qubits`, so `qubit()` stays O(1) on the
    // hundreds-of-qubits programs the workload generators emit.
    qubit_index: HashMap<String, usize>,
    instructions: Vec<ProgramInstruction>,
}

impl PartialEq for LogicalProgram {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.qubits == other.qubits
            && self.instructions == other.instructions
    }
}

impl Eq for LogicalProgram {}

impl LogicalProgram {
    /// An empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        LogicalProgram {
            name: name.into(),
            qubits: Vec::new(),
            qubit_index: HashMap::new(),
            instructions: Vec::new(),
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a new logical qubit. Names must be unique within a program.
    /// The name is hashed once.
    pub fn add_qubit(&mut self, name: impl Into<String>) -> Result<QubitRef, ProgramError> {
        match self.qubit_index.entry(name.into()) {
            Entry::Occupied(entry) => Err(ProgramError::DuplicateQubit(entry.key().clone())),
            Entry::Vacant(entry) => {
                let q = self.qubits.len();
                self.qubits.push(entry.key().clone());
                entry.insert(q);
                Ok(QubitRef(q))
            }
        }
    }

    /// Resolves a declared qubit by name.
    pub fn qubit(&self, name: &str) -> Option<QubitRef> {
        self.qubit_index.get(name).copied().map(QubitRef)
    }

    /// The name of a declared qubit.
    pub fn qubit_name(&self, q: QubitRef) -> &str {
        &self.qubits[q.0]
    }

    /// Number of declared logical qubits.
    pub fn qubit_count(&self) -> usize {
        self.qubits.len()
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[ProgramInstruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends an instruction, checking arity and operand distinctness
    /// immediately (liveness is checked program-wide by
    /// [`LogicalProgram::validate`]).
    pub fn push(
        &mut self,
        instruction: Instruction,
        qubits: &[QubitRef],
    ) -> Result<(), ProgramError> {
        self.push_at(instruction, qubits, None)
    }

    /// [`LogicalProgram::push`] with a source-line annotation (used by the
    /// `.tql` parser).
    pub fn push_at(
        &mut self,
        instruction: Instruction,
        qubits: &[QubitRef],
        line: Option<usize>,
    ) -> Result<(), ProgramError> {
        if qubits.len() != instruction.tiles() {
            return Err(ProgramError::ArityMismatch {
                instruction,
                expected: instruction.tiles(),
                got: qubits.len(),
            });
        }
        for &q in qubits {
            if q.0 >= self.qubits.len() {
                return Err(ProgramError::UnknownQubit(format!("#{}", q.0)));
            }
        }
        if qubits.len() == 2 && qubits[0] == qubits[1] {
            return Err(ProgramError::SameQubitTwice {
                instruction,
                qubit: self.qubit_name(qubits[0]).to_string(),
            });
        }
        self.instructions.push(ProgramInstruction {
            instruction,
            qubits: QubitPair::new(qubits),
            line,
        });
        Ok(())
    }

    /// Fault-tolerant |0⟩ preparation.
    pub fn prepare_z(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::PrepareZ, &[q])
    }

    /// Fault-tolerant |+⟩ preparation.
    pub fn prepare_x(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::PrepareX, &[q])
    }

    /// Y-eigenstate injection.
    pub fn inject_y(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::InjectY, &[q])
    }

    /// Magic-state (|T⟩) injection.
    pub fn inject_t(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::InjectT, &[q])
    }

    /// Destructive Z-basis measurement.
    pub fn measure_z(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::MeasureZ, &[q])
    }

    /// Destructive X-basis measurement.
    pub fn measure_x(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::MeasureX, &[q])
    }

    /// Logical Pauli X.
    pub fn pauli_x(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::PauliX, &[q])
    }

    /// Logical Pauli Y.
    pub fn pauli_y(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::PauliY, &[q])
    }

    /// Logical Pauli Z.
    pub fn pauli_z(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::PauliZ, &[q])
    }

    /// Transversal logical Hadamard.
    pub fn hadamard(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::Hadamard, &[q])
    }

    /// One logical time step of error correction.
    pub fn idle(&mut self, q: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::Idle, &[q])
    }

    /// Joint XX measurement (lattice-surgery merge/split).
    pub fn measure_xx(&mut self, a: QubitRef, b: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::MeasureXX, &[a, b])
    }

    /// Joint ZZ measurement (lattice-surgery merge/split).
    pub fn measure_zz(&mut self, a: QubitRef, b: QubitRef) -> Result<(), ProgramError> {
        self.push(Instruction::MeasureZZ, &[a, b])
    }

    /// Checks program-wide liveness: every qubit must be prepared or
    /// injected before other use, destructive measurements end a qubit's
    /// life (it may be re-prepared later), and preparations may not target
    /// a qubit that is still live.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let mut live = vec![false; self.qubits.len()];
        for pi in &self.instructions {
            match pi.instruction {
                Instruction::PrepareZ
                | Instruction::PrepareX
                | Instruction::InjectY
                | Instruction::InjectT => {
                    let q = pi.qubits[0];
                    if live[q.0] {
                        return Err(ProgramError::AlreadyLive {
                            instruction: pi.instruction,
                            qubit: self.qubit_name(q).to_string(),
                            line: pi.line,
                        });
                    }
                    live[q.0] = true;
                }
                Instruction::MeasureZ | Instruction::MeasureX => {
                    let q = pi.qubits[0];
                    self.require_live(&live, pi, q)?;
                    live[q.0] = false;
                }
                Instruction::MeasureXX | Instruction::MeasureZZ => {
                    self.require_live(&live, pi, pi.qubits[0])?;
                    self.require_live(&live, pi, pi.qubits[1])?;
                }
                _ => self.require_live(&live, pi, pi.qubits[0])?,
            }
        }
        Ok(())
    }

    fn require_live(
        &self,
        live: &[bool],
        pi: &ProgramInstruction,
        q: QubitRef,
    ) -> Result<(), ProgramError> {
        if !live[q.0] {
            return Err(ProgramError::NotLive {
                instruction: pi.instruction,
                qubit: self.qubit_name(q).to_string(),
                line: pi.line,
            });
        }
        Ok(())
    }

    /// The maximum number of simultaneously live qubits over the program,
    /// in one pass with a running count of the live qubits.
    pub fn max_live_qubits(&self) -> usize {
        let mut live = vec![false; self.qubits.len()];
        let (mut count, mut peak) = (0usize, 0usize);
        for pi in &self.instructions {
            let q = pi.qubits[0].0;
            match pi.instruction {
                Instruction::PrepareZ
                | Instruction::PrepareX
                | Instruction::InjectY
                | Instruction::InjectT
                    if !live[q] =>
                {
                    live[q] = true;
                    count += 1;
                    peak = peak.max(count);
                }
                Instruction::MeasureZ | Instruction::MeasureX if live[q] => {
                    live[q] = false;
                    count -= 1;
                }
                _ => {}
            }
        }
        peak
    }
}

/// Errors raised while building or validating a [`LogicalProgram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A qubit name was declared twice.
    DuplicateQubit(String),
    /// An instruction named a qubit that was never declared.
    UnknownQubit(String),
    /// An instruction received the wrong number of operands.
    ArityMismatch {
        /// The instruction.
        instruction: Instruction,
        /// Operands the instruction takes.
        expected: usize,
        /// Operands supplied.
        got: usize,
    },
    /// A two-qubit instruction named the same qubit twice.
    SameQubitTwice {
        /// The instruction.
        instruction: Instruction,
        /// The repeated qubit name.
        qubit: String,
    },
    /// An instruction used a qubit that is not live at that point.
    NotLive {
        /// The instruction.
        instruction: Instruction,
        /// The dead (or never-prepared) qubit.
        qubit: String,
        /// Source line, if the program was parsed.
        line: Option<usize>,
    },
    /// A preparation or injection targeted a qubit that is still live.
    AlreadyLive {
        /// The instruction.
        instruction: Instruction,
        /// The live qubit.
        qubit: String,
        /// Source line, if the program was parsed.
        line: Option<usize>,
    },
}

fn at_line(line: &Option<usize>) -> String {
    match line {
        Some(n) => format!(" (line {n})"),
        None => String::new(),
    }
}

/// Longest prefix of an input token an error message quotes, in chars.
const QUOTED_CHARS: usize = 24;

/// An input token as error messages quote it: at most [`QUOTED_CHARS`]
/// characters, then `…`, with control characters escaped. A program read
/// from the wrong file (a host secret, a binary) is never echoed whole.
pub(crate) fn short(token: &str) -> String {
    let mut out = String::new();
    for (i, c) in token.chars().enumerate() {
        if i == QUOTED_CHARS {
            out.push('…');
            break;
        }
        if c.is_control() {
            out.extend(c.escape_default());
        } else {
            out.push(c);
        }
    }
    out
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DuplicateQubit(q) => write!(f, "qubit '{}' declared twice", short(q)),
            ProgramError::UnknownQubit(q) => write!(f, "unknown qubit '{}'", short(q)),
            ProgramError::ArityMismatch { instruction, expected, got } => {
                write!(f, "{} takes {expected} qubit(s), got {got}", instruction.id())
            }
            ProgramError::SameQubitTwice { instruction, qubit } => {
                write!(f, "{} names qubit '{}' twice", instruction.id(), short(qubit))
            }
            ProgramError::NotLive { instruction, qubit, line } => write!(
                f,
                "{} on qubit '{}' which is not live{}",
                instruction.id(),
                short(qubit),
                at_line(line)
            ),
            ProgramError::AlreadyLive { instruction, qubit, line } => write!(
                f,
                "{} on qubit '{}' which is already live{}",
                instruction.id(),
                short(qubit),
                at_line(line)
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_a_valid_bell_program() {
        let mut p = LogicalProgram::new("bell");
        let a = p.add_qubit("a").unwrap();
        let b = p.add_qubit("b").unwrap();
        p.prepare_x(a).unwrap();
        p.prepare_z(b).unwrap();
        p.measure_zz(a, b).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.qubit_count(), 2);
        p.validate().unwrap();
        assert_eq!(p.max_live_qubits(), 2);
        assert_eq!(p.qubit("b"), Some(b));
        assert_eq!(p.qubit_name(a), "a");
    }

    #[test]
    fn duplicate_qubits_and_bad_arity_are_rejected() {
        let mut p = LogicalProgram::new("bad");
        let a = p.add_qubit("a").unwrap();
        assert_eq!(p.add_qubit("a"), Err(ProgramError::DuplicateQubit("a".into())));
        assert!(matches!(
            p.push(Instruction::MeasureZZ, &[a]),
            Err(ProgramError::ArityMismatch { expected: 2, got: 1, .. })
        ));
        assert!(matches!(
            p.push(Instruction::MeasureZZ, &[a, a]),
            Err(ProgramError::SameQubitTwice { .. })
        ));
        assert!(matches!(
            p.push(Instruction::Idle, &[QubitRef(7)]),
            Err(ProgramError::UnknownQubit(_))
        ));
    }

    #[test]
    fn liveness_violations_are_reported() {
        let mut p = LogicalProgram::new("dead");
        let a = p.add_qubit("a").unwrap();
        p.hadamard(a).unwrap();
        assert!(matches!(p.validate(), Err(ProgramError::NotLive { .. })));

        let mut p = LogicalProgram::new("double-prep");
        let a = p.add_qubit("a").unwrap();
        p.prepare_z(a).unwrap();
        p.prepare_x(a).unwrap();
        assert!(matches!(p.validate(), Err(ProgramError::AlreadyLive { .. })));

        // Measure ends a life; re-preparation revives the qubit.
        let mut p = LogicalProgram::new("reuse");
        let a = p.add_qubit("a").unwrap();
        p.prepare_z(a).unwrap();
        p.measure_z(a).unwrap();
        p.prepare_x(a).unwrap();
        p.measure_x(a).unwrap();
        p.validate().unwrap();
        assert_eq!(p.max_live_qubits(), 1);
    }

    #[test]
    fn use_after_destructive_measurement_is_rejected() {
        let mut p = LogicalProgram::new("after-death");
        let a = p.add_qubit("a").unwrap();
        let b = p.add_qubit("b").unwrap();
        p.prepare_z(a).unwrap();
        p.prepare_z(b).unwrap();
        p.measure_z(a).unwrap();
        p.measure_xx(a, b).unwrap();
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ProgramError::NotLive { ref qubit, .. } if qubit == "a"));
        assert!(err.to_string().contains("not live"));
    }
}
