//! The `.tql` (TISCC quantum logic) text format.
//!
//! `.tql` is a line-oriented surface syntax for [`LogicalProgram`]s:
//!
//! ```text
//! # Logical Bell-pair preparation.
//! qubit a b          # declare logical qubits (one or more per line)
//! prep_x a
//! prep_z b
//! merge_zz a b       # lattice-surgery joint ZZ measurement
//! ```
//!
//! Everything from `#` to the end of a line is a comment. The first token
//! of a non-empty line is either the `qubit` declaration keyword or an
//! instruction mnemonic; remaining tokens are operand qubit names.
//!
//! Accepted mnemonics are the Table 1 instruction ids
//! (see [`Instruction::from_id`]) plus the short program-level aliases:
//! `prep_z`/`prep_x` (preparation), `meas_z`/`meas_x` (destructive
//! measurement), `merge_zz`/`merge_xx` (joint measurement), and the
//! one-letter gates `x`, `y`, `z`, `h`.

use std::fmt;

use tiscc_core::instruction::Instruction;
use tiscc_telemetry::Span;

use crate::ir::{short, LogicalProgram, ProgramError, QubitRef};

/// An error raised while parsing `.tql` text, annotated with its 1-based
/// source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The program-level aliases, matched ASCII case-insensitively.
const ALIASES: [(&str, Instruction); 10] = [
    ("prep_z", Instruction::PrepareZ),
    ("prep_x", Instruction::PrepareX),
    ("meas_z", Instruction::MeasureZ),
    ("meas_x", Instruction::MeasureX),
    ("merge_zz", Instruction::MeasureZZ),
    ("merge_xx", Instruction::MeasureXX),
    ("x", Instruction::PauliX),
    ("y", Instruction::PauliY),
    ("z", Instruction::PauliZ),
    ("h", Instruction::Hadamard),
];

/// Resolves a `.tql` instruction mnemonic: a program-level alias or any id
/// accepted by [`Instruction::from_id`]. Allocates nothing.
pub fn instruction_from_mnemonic(word: &str) -> Option<Instruction> {
    Instruction::matching(word, &ALIASES)
}

/// The mnemonic the `.tql` renderer uses for an instruction (the inverse
/// of [`instruction_from_mnemonic`] on the alias set).
pub fn mnemonic(instruction: Instruction) -> &'static str {
    match instruction {
        Instruction::PrepareZ => "prep_z",
        Instruction::PrepareX => "prep_x",
        Instruction::MeasureZ => "meas_z",
        Instruction::MeasureX => "meas_x",
        Instruction::MeasureZZ => "merge_zz",
        Instruction::MeasureXX => "merge_xx",
        other => other.id(),
    }
}

/// Splits `.tql` text into source lines, recognizing `\n`, `\r\n` and a
/// lone `\r` as terminators. `str::lines` treats a bare `\r` (classic-Mac
/// or mixed-origin files) as an ordinary character, which silently merges
/// the two source lines around it — turning, e.g., `qubit a\rprep_z a`
/// into one bogus declaration line and shifting every later error's line
/// number. Like `str::lines`, a trailing terminator does not produce a
/// final empty line. Terminators are found by byte search: both are ASCII,
/// so no UTF-8 sequence contains their bytes.
fn source_lines(text: &str) -> SourceLines<'_> {
    SourceLines { rest: text }
}

struct SourceLines<'a> {
    rest: &'a str,
}

impl<'a> Iterator for SourceLines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let bytes = self.rest.as_bytes();
        match bytes.iter().position(|&b| b == b'\n' || b == b'\r') {
            None => Some(std::mem::take(&mut self.rest)),
            Some(i) => {
                let line = &self.rest[..i];
                let sep = if bytes[i..].starts_with(b"\r\n") { 2 } else { 1 };
                self.rest = &self.rest[i + sep..];
                Some(line)
            }
        }
    }
}

impl LogicalProgram {
    /// Parses `.tql` text into a validated program named `name`. Lines may
    /// end in `\n`, `\r\n` or `\r`; the final line needs no terminator.
    ///
    /// Tokens are Unicode-whitespace separated, as `str::split_whitespace`
    /// splits them. An instruction line costs no heap allocation: its
    /// mnemonic is matched in place and its operands resolve into an
    /// inline pair. A line with more operands than that still resolves
    /// every token, so an unknown qubit is reported before the arity.
    pub fn parse(name: impl Into<String>, text: &str) -> Result<LogicalProgram, ParseError> {
        let mut program = LogicalProgram::new(name);
        for (idx, raw) in source_lines(text).enumerate() {
            let lineno = idx + 1;
            let error = |message: String| ParseError { line: lineno, message };
            let code = match raw.as_bytes().iter().position(|&b| b == b'#') {
                Some(i) => &raw[..i],
                None => raw,
            };
            let mut tokens = code.split_whitespace();
            let Some(head) = tokens.next() else {
                continue;
            };
            if head.eq_ignore_ascii_case("qubit") {
                let mut declared = 0usize;
                for qubit in tokens {
                    program.add_qubit(qubit).map_err(|e| error(e.to_string()))?;
                    declared += 1;
                }
                if declared == 0 {
                    return Err(error("qubit declaration names no qubits".to_string()));
                }
                continue;
            }
            let instruction = instruction_from_mnemonic(head).ok_or_else(|| {
                error(format!(
                    "unknown instruction '{}'; valid mnemonics include qubit, prep_z, \
                     prep_x, inject_y, inject_t, meas_z, meas_x, x, y, z, h, idle, \
                     merge_xx, merge_zz",
                    short(head)
                ))
            })?;
            let mut operands = [QubitRef(0); 2];
            let mut got = 0usize;
            for token in tokens {
                let q = program.qubit(token).ok_or_else(|| {
                    error(format!(
                        "unknown qubit '{tok}' (declare it with 'qubit {tok}')",
                        tok = short(token)
                    ))
                })?;
                if let Some(slot) = operands.get_mut(got) {
                    *slot = q;
                }
                got += 1;
            }
            if got > operands.len() {
                let expected = instruction.tiles();
                return Err(error(
                    ProgramError::ArityMismatch { instruction, expected, got }.to_string(),
                ));
            }
            program
                .push_at(instruction, &operands[..got], Some(lineno))
                .map_err(|e| error(e.to_string()))?;
        }
        program
            .validate()
            .map_err(|e| ParseError { line: error_line(&e), message: e.to_string() })?;
        Ok(program)
    }

    /// [`LogicalProgram::parse`] wrapped in a telemetry span: opens a
    /// `parse` child under `parent`, and on success records the
    /// `parse.qubits` and `parse.instructions` counters. With telemetry
    /// off the only cost over [`LogicalProgram::parse`] is a few no-op
    /// calls.
    pub fn parse_with(
        name: impl Into<String>,
        text: &str,
        parent: &Span,
    ) -> Result<LogicalProgram, ParseError> {
        let span = parent.child("parse");
        let program = LogicalProgram::parse(name, text)?;
        span.add("parse.qubits", program.qubit_count() as u64);
        span.add("parse.instructions", program.instructions().len() as u64);
        Ok(program)
    }

    /// Renders the program back to canonical `.tql` text.
    /// `LogicalProgram::parse` of the output reproduces the program
    /// (modulo source-line annotations).
    pub fn to_tql(&self) -> String {
        let mut out = format!("# {}\n", self.name());
        if self.qubit_count() > 0 {
            out.push_str("qubit");
            for i in 0..self.qubit_count() {
                out.push(' ');
                out.push_str(self.qubit_name(QubitRef(i)));
            }
            out.push('\n');
        }
        for pi in self.instructions() {
            out.push_str(mnemonic(pi.instruction));
            for &q in &pi.qubits {
                out.push(' ');
                out.push_str(self.qubit_name(q));
            }
            out.push('\n');
        }
        out
    }
}

fn error_line(e: &crate::ir::ProgramError) -> usize {
    match e {
        crate::ir::ProgramError::NotLive { line, .. }
        | crate::ir::ProgramError::AlreadyLive { line, .. } => line.unwrap_or(1),
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str = "\
# Bell pair
qubit a b
prep_x a
prep_z b
merge_zz a b  # joint ZZ
";

    #[test]
    fn parses_a_commented_program() {
        let p = LogicalProgram::parse("bell", BELL).unwrap();
        assert_eq!(p.qubit_count(), 2);
        assert_eq!(p.len(), 3);
        assert_eq!(p.instructions()[2].instruction, Instruction::MeasureZZ);
        assert_eq!(p.instructions()[2].line, Some(5));
    }

    #[test]
    fn aliases_and_table1_ids_both_resolve() {
        for (word, expect) in [
            ("prep_z", Instruction::PrepareZ),
            ("prepare_z", Instruction::PrepareZ),
            ("PREP_X", Instruction::PrepareX),
            ("meas_x", Instruction::MeasureX),
            ("measure_x", Instruction::MeasureX),
            ("merge_zz", Instruction::MeasureZZ),
            ("measure_zz", Instruction::MeasureZZ),
            ("x", Instruction::PauliX),
            ("h", Instruction::Hadamard),
            ("idle", Instruction::Idle),
            ("inject_t", Instruction::InjectT),
        ] {
            assert_eq!(instruction_from_mnemonic(word), Some(expect), "{word}");
        }
        assert_eq!(instruction_from_mnemonic("cnot"), None);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = LogicalProgram::parse("p", "qubit a\nfrobnicate a\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("frobnicate"));

        let err = LogicalProgram::parse("p", "qubit a\nprep_z b\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown qubit 'b'"));

        let err = LogicalProgram::parse("p", "qubit\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = LogicalProgram::parse("p", "qubit a\nmerge_zz a\n").unwrap_err();
        assert_eq!(err.line, 2);

        // Liveness violations point at the offending instruction's line.
        let err =
            LogicalProgram::parse("p", "qubit a\nprep_z a\n\nh a\nmeas_z a\nh a\n").unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("not live"));
    }

    #[test]
    fn line_endings_do_not_change_the_parse() {
        let lf = LogicalProgram::parse("bell", BELL).unwrap();
        for (name, text) in [
            ("crlf", BELL.replace('\n', "\r\n")),
            ("cr", BELL.replace('\n', "\r")),
            ("no trailing newline", BELL.trim_end().to_string()),
            (
                "mixed",
                "# Bell pair\r\nqubit a b\rprep_x a\nprep_z b\r\nmerge_zz a b  # joint ZZ"
                    .to_string(),
            ),
        ] {
            let p = LogicalProgram::parse("bell", &text).unwrap();
            assert_eq!(p.qubit_count(), lf.qubit_count(), "{name}");
            assert_eq!(p.len(), lf.len(), "{name}");
            assert_eq!(p.instructions()[2].line, Some(5), "{name}");
        }
    }

    #[test]
    fn a_lone_cr_separates_lines_instead_of_merging_them() {
        // `str::lines` would glue these into one line, mis-parsing it as
        // `qubit a prep_z a` (a duplicate-qubit declaration).
        let p = LogicalProgram::parse("p", "qubit a\rprep_z a\rmeas_z a").unwrap();
        assert_eq!(p.qubit_count(), 1);
        assert_eq!(p.len(), 2);
        assert_eq!(p.instructions()[1].line, Some(3));

        // Errors after a lone CR report the true source line.
        let err = LogicalProgram::parse("p", "qubit a\rfrobnicate a\n").unwrap_err();
        assert_eq!(err.line, 2);

        // CRLF comments don't swallow the following line either.
        let err = LogicalProgram::parse("p", "qubit a # names\r\nprep_z b\r\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown qubit 'b'"));
    }

    #[test]
    fn tql_round_trips_through_render_and_parse() {
        let p = LogicalProgram::parse("bell", BELL).unwrap();
        let q = LogicalProgram::parse("bell", &p.to_tql()).unwrap();
        assert_eq!(p.qubit_count(), q.qubit_count());
        assert_eq!(p.len(), q.len());
        for (a, b) in p.instructions().iter().zip(q.instructions()) {
            assert_eq!(a.instruction, b.instruction);
            assert_eq!(a.qubits, b.qubits);
        }
    }
}
