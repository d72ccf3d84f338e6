//! Interned measurement labels.
//!
//! The compiler used to attach a freshly `format!`ed `String` to every
//! measurement record (hundreds of thousands per circuit at d = 19). A
//! [`Label`] is the interned replacement: a small `Copy` enum whose variants
//! carry the handful of integer arguments the old strings embedded, rendered
//! back to the legacy text on demand by [`Label::render`]. Interning keeps
//! record emission allocation-free and lets the round-replication machinery
//! of [`crate::rounds`] re-number a replicated round's labels with plain
//! integer arithmetic ([`Label::advance_round`]).

use std::fmt;

/// The round-context half of a syndrome-measurement label: which kind of
/// repeated error-correction sequence the round belongs to, plus the round's
/// sequence number within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoundLabel {
    /// Round `n` of an `Idle` sequence — renders as `idle round {n}`.
    Idle(u32),
    /// Round `n` while two patches are merged — renders as `merge round {n}`.
    Merge(u32),
    /// Round `n` of a patch extension — renders as `extension round {n}`.
    Extension(u32),
    /// A free-form static context (fixtures, tests, ad-hoc rounds).
    Named(&'static str),
}

impl RoundLabel {
    /// The same context `by` rounds later; free-form contexts carry no
    /// sequence number and are returned unchanged.
    pub fn advance(self, by: u32) -> RoundLabel {
        match self {
            RoundLabel::Idle(r) => RoundLabel::Idle(r + by),
            RoundLabel::Merge(r) => RoundLabel::Merge(r + by),
            RoundLabel::Extension(r) => RoundLabel::Extension(r + by),
            RoundLabel::Named(s) => RoundLabel::Named(s),
        }
    }
}

impl fmt::Display for RoundLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoundLabel::Idle(r) => write!(f, "idle round {r}"),
            RoundLabel::Merge(r) => write!(f, "merge round {r}"),
            RoundLabel::Extension(r) => write!(f, "extension round {r}"),
            RoundLabel::Named(s) => f.write_str(s),
        }
    }
}

impl From<&'static str> for RoundLabel {
    fn from(s: &'static str) -> Self {
        RoundLabel::Named(s)
    }
}

/// An interned measurement label: what a measurement record is *for*,
/// stored as a small copyable value instead of an owned string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    /// A free-form static label (tests and ad-hoc callers).
    Static(&'static str),
    /// One stabilizer readout of a syndrome-extraction round — renders as
    /// `{round} {Z|X} cell ({row}, {col})`.
    Syndrome {
        /// The round context (sequence kind + round number).
        round: RoundLabel,
        /// True for an X-type stabilizer, false for Z-type.
        x_type: bool,
        /// Stabilizer cell row (patch-local, may be -1 on the boundary).
        row: i32,
        /// Stabilizer cell column (patch-local, may be -1 on the boundary).
        col: i32,
    },
    /// One data qubit of a transversal readout — renders as
    /// `data ({row},{col}) {Z|X}`.
    DataReadout {
        /// True for an X-basis readout, false for Z-basis.
        x_basis: bool,
        /// Data-qubit row within the tile.
        row: u32,
        /// Data-qubit column within the tile.
        col: u32,
    },
    /// One ancilla-strip qubit measured out by a lattice-surgery split —
    /// renders as `split ancilla ({row},{col})`.
    SplitAncilla {
        /// Strip-qubit row in merged-patch coordinates.
        row: u32,
        /// Strip-qubit column in merged-patch coordinates.
        col: u32,
    },
    /// One data qubit measured out by a patch contraction — renders as
    /// `contraction data ({row},{col})`.
    ContractionData {
        /// Removed-row index.
        row: u32,
        /// Column index.
        col: u32,
    },
}

impl Label {
    /// Renders the label to its legacy string form.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// The same label in round context `round`: syndrome labels take it as
    /// their round context, every other variant is round-independent and
    /// unchanged. Used when a compiled round is re-emitted as the next one.
    pub(crate) fn with_round(self, round: RoundLabel) -> Label {
        match self {
            Label::Syndrome { x_type, row, col, .. } => Label::Syndrome { round, x_type, row, col },
            other => other,
        }
    }

    /// The same label `by` rounds later: syndrome labels advance their round
    /// context, every other variant is round-independent and unchanged.
    /// Used when a captured round template is replicated analytically.
    pub fn advance_round(self, by: u32) -> Label {
        match self {
            Label::Syndrome { round, x_type, row, col } => {
                Label::Syndrome { round: round.advance(by), x_type, row, col }
            }
            other => other,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Static(s) => f.write_str(s),
            Label::Syndrome { round, x_type, row, col } => {
                write!(f, "{round} {} cell ({row}, {col})", if *x_type { "X" } else { "Z" })
            }
            Label::DataReadout { x_basis, row, col } => {
                write!(f, "data ({row},{col}) {}", if *x_basis { "X" } else { "Z" })
            }
            Label::SplitAncilla { row, col } => write!(f, "split ancilla ({row},{col})"),
            Label::ContractionData { row, col } => write!(f, "contraction data ({row},{col})"),
        }
    }
}

impl From<&'static str> for Label {
    fn from(s: &'static str) -> Self {
        Label::Static(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_render_the_legacy_strings() {
        assert_eq!(
            Label::Syndrome { round: RoundLabel::Idle(3), x_type: false, row: 0, col: 1 }.render(),
            "idle round 3 Z cell (0, 1)"
        );
        assert_eq!(
            Label::Syndrome { round: RoundLabel::Merge(0), x_type: true, row: -1, col: 2 }.render(),
            "merge round 0 X cell (-1, 2)"
        );
        assert_eq!(Label::DataReadout { x_basis: false, row: 1, col: 2 }.render(), "data (1,2) Z");
        assert_eq!(Label::DataReadout { x_basis: true, row: 0, col: 0 }.render(), "data (0,0) X");
        assert_eq!(Label::SplitAncilla { row: 3, col: 1 }.render(), "split ancilla (3,1)");
        assert_eq!(Label::ContractionData { row: 0, col: 4 }.render(), "contraction data (0,4)");
        assert_eq!(Label::from("fiducial quiescence").render(), "fiducial quiescence");
    }

    #[test]
    fn advance_round_renumbers_only_syndrome_labels() {
        let s = Label::Syndrome { round: RoundLabel::Idle(1), x_type: true, row: 0, col: 0 };
        assert_eq!(s.advance_round(4).render(), "idle round 5 X cell (0, 0)");
        let named =
            Label::Syndrome { round: RoundLabel::Named("quiesce"), x_type: false, row: 0, col: 0 };
        assert_eq!(named.advance_round(7), named);
        let data = Label::DataReadout { x_basis: false, row: 0, col: 0 };
        assert_eq!(data.advance_round(3), data);
        assert_eq!(RoundLabel::Extension(2).advance(2), RoundLabel::Extension(4));
    }
}
