//! Independent validity checking of compiled circuits.
//!
//! The paper (Sec. 1, Sec. 3.3) states that TISCC "ensures the validity of a
//! compiled hardware circuit by simulating ion movements on the grid and
//! resolving junction conflicts". The [`HardwareModel`](crate::HardwareModel)
//! enforces those rules *constructively* while emitting; this module replays
//! a finished circuit and re-checks them independently, so a bug in the
//! scheduler cannot silently produce an invalid circuit.
//!
//! Checked invariants:
//! 1. every transport step moves an ion between zones that are adjacent or
//!    connected through exactly one junction, and the destination zone is
//!    empty at that point of the stream;
//! 2. no two operations overlap in time on the same trapping zone;
//! 3. no two junction hops overlap in time on the same junction;
//! 4. gates address the zone their ion actually occupies at that point.

use std::collections::HashMap;

use tiscc_grid::{Layout, QSite, QubitId, SiteKind};

use crate::circuit::{OpStream, OpView};
use crate::ops::NativeOp;

/// A violation found while replaying a circuit.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidityError {
    /// Two timed operations overlap on the same zone.
    ZoneTimeConflict {
        /// The contended zone.
        site: QSite,
        /// Start time of the later operation (µs).
        at_us: f64,
    },
    /// Two junction hops overlap on the same junction.
    JunctionTimeConflict {
        /// The contended junction.
        junction: QSite,
        /// Start time of the later hop (µs).
        at_us: f64,
    },
    /// A transport step between zones that are not connected by a single
    /// shuttle or junction hop.
    IllegalStep(QSite, QSite),
    /// A transport step into a zone that already holds another ion.
    DestinationOccupied(QSite, QubitId),
    /// A gate addressed to a zone that does not hold the ion it names.
    WrongSite {
        /// The ion named by the operation.
        qubit: QubitId,
        /// The zone the operation addresses.
        claimed: QSite,
        /// The zone the ion actually occupies (None if not on the grid).
        actual: Option<QSite>,
    },
    /// A named ion never appeared in the initial placement.
    UnknownQubit(QubitId),
}

impl std::fmt::Display for ValidityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidityError::ZoneTimeConflict { site, at_us } => {
                write!(f, "zone {site} used by two overlapping operations at t={at_us}us")
            }
            ValidityError::JunctionTimeConflict { junction, at_us } => {
                write!(f, "junction {junction} traversed by two overlapping hops at t={at_us}us")
            }
            ValidityError::IllegalStep(a, b) => write!(f, "illegal transport step {a} -> {b}"),
            ValidityError::DestinationOccupied(s, q) => {
                write!(f, "transport into occupied zone {s} (held by {q:?})")
            }
            ValidityError::WrongSite { qubit, claimed, actual } => write!(
                f,
                "operation addresses zone {claimed} for {qubit:?}, which is at {actual:?}"
            ),
            ValidityError::UnknownQubit(q) => write!(f, "operation names unknown qubit {q:?}"),
        }
    }
}

impl std::error::Error for ValidityError {}

/// Replays `stream` against `layout`, starting from `initial_positions`
/// (the grid snapshot taken *before* compilation began), and returns the
/// first violation found, or `Ok(())`.
///
/// Any [`OpStream`] replays — including periodic circuits, whose
/// replicated rounds are streamed with their replayed schedules rather
/// than materialized — with running accumulators: ion positions evolve in
/// stream order for the movement/addressing checks, and per-site busy
/// intervals are collected on the fly for the exclusivity checks.
///
/// Up to `junction_capacity` hops (at least 1, the exclusive-transit rule)
/// may overlap in time on one junction before a
/// [`ValidityError::JunctionTimeConflict`] is reported. The scheduling pass
/// enforces the same capacity constructively
/// ([`HardwareSpec::junction_capacity`]), so circuits it compiles are clean
/// under the capacity they were scheduled with.
///
/// [`HardwareSpec::junction_capacity`]: crate::spec::HardwareSpec::junction_capacity
pub fn check_stream_with_capacity(
    layout: &Layout,
    initial_positions: &[(QubitId, QSite)],
    stream: &(impl OpStream + ?Sized),
    junction_capacity: usize,
) -> Result<(), ValidityError> {
    let junction_capacity = junction_capacity.max(1);
    let mut pos: HashMap<QubitId, QSite> = initial_positions.iter().copied().collect();
    let mut occ: HashMap<QSite, QubitId> = initial_positions.iter().map(|&(q, s)| (s, q)).collect();

    let mut stream_error: Option<ValidityError> = None;
    let mut zone_intervals: HashMap<QSite, Vec<(f64, f64)>> = HashMap::new();
    let mut junction_intervals: HashMap<QSite, Vec<(f64, f64)>> = HashMap::new();

    stream.for_each_op(&mut |v: OpView<'_>| {
        if stream_error.is_some() {
            return;
        }
        let op = v.op;

        // --- stream-order checks (movement legality, gate addressing) ---
        match op.op {
            NativeOp::Move | NativeOp::JunctionMove => {
                let q = op.qubits[0];
                let (from, to) = (op.sites[0], op.sites[1]);
                let Some(&cur) = pos.get(&q) else {
                    stream_error = Some(ValidityError::UnknownQubit(q));
                    return;
                };
                if cur != from {
                    stream_error = Some(ValidityError::WrongSite {
                        qubit: q,
                        claimed: from,
                        actual: Some(cur),
                    });
                    return;
                }
                let legal = if op.op == NativeOp::Move {
                    layout.neighbors(from).contains(&to)
                } else {
                    // Junction hop: both zones adjacent to the recorded junction.
                    match op.junction {
                        Some(j) => {
                            layout.site_kind(j) == Some(SiteKind::Junction)
                                && layout.neighbors(j).contains(&from)
                                && layout.neighbors(j).contains(&to)
                        }
                        None => false,
                    }
                };
                if !legal {
                    stream_error = Some(ValidityError::IllegalStep(from, to));
                    return;
                }
                if let Some(&other) = occ.get(&to) {
                    if other != q {
                        stream_error = Some(ValidityError::DestinationOccupied(to, other));
                        return;
                    }
                }
                occ.remove(&from);
                occ.insert(to, q);
                pos.insert(q, to);
            }
            _ => {
                for (&q, &s) in op.qubits.iter().zip(op.sites.iter()) {
                    match pos.get(&q) {
                        None => {
                            stream_error = Some(ValidityError::UnknownQubit(q));
                            return;
                        }
                        Some(&actual) if actual != s => {
                            stream_error = Some(ValidityError::WrongSite {
                                qubit: q,
                                claimed: s,
                                actual: Some(actual),
                            });
                            return;
                        }
                        _ => {}
                    }
                }
            }
        }

        // --- interval accumulation for the temporal checks ---
        for &s in &op.sites {
            zone_intervals.entry(s).or_default().push((v.start_us, v.end_us()));
        }
        if let Some(j) = op.junction {
            junction_intervals.entry(j).or_default().push((v.start_us, v.end_us()));
        }
    });
    if let Some(err) = stream_error {
        return Err(err);
    }

    // --- temporal checks (zone and junction exclusivity) ---
    const EPS: f64 = 1e-9;
    for (site, mut intervals) in zone_intervals {
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in intervals.windows(2) {
            if w[1].0 < w[0].1 - EPS {
                return Err(ValidityError::ZoneTimeConflict { site, at_us: w[1].0 });
            }
        }
    }
    for (junction, mut intervals) in junction_intervals {
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Sweep in start order counting hops still in flight: a hop
        // arriving while `junction_capacity` others are open (beyond the
        // EPS tolerance) is a conflict. At capacity 1 this reports exactly
        // the adjacent-pair overlaps the original rule reported.
        let mut open: Vec<f64> = Vec::new();
        for (start, end) in intervals {
            open.retain(|&e| e > start + EPS);
            if open.len() >= junction_capacity {
                return Err(ValidityError::JunctionTimeConflict { junction, at_us: start });
            }
            open.push(end);
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::model::HardwareModel;

    #[test]
    fn scheduler_output_passes_validation() {
        let mut hw = HardwareModel::new(2, 2);
        let initial: Vec<_> = {
            let a = hw.place_qubit(QSite::new(0, 1)).unwrap();
            let b = hw.place_qubit(QSite::new(1, 0)).unwrap();
            let snapshot = hw.grid().snapshot();
            hw.prepare_z(a).unwrap();
            hw.prepare_z(b).unwrap();
            hw.route_and_move(b, QSite::new(0, 2)).unwrap();
            hw.apply_zz(a, b).unwrap();
            hw.measure_z(b, "syndrome").unwrap();
            snapshot
        };
        let layout = hw.grid().layout().clone();
        check_stream_with_capacity(&layout, &initial, hw.circuit(), 1).expect("valid circuit");
    }

    #[test]
    fn hand_built_conflicting_circuit_is_rejected() {
        use crate::circuit::TimedOp;
        let layout = Layout::new(1, 1);
        let q0 = QubitId(0);
        let q1 = QubitId(1);
        let site = QSite::new(0, 1);
        let other = QSite::new(0, 2);
        let mut circuit = Circuit::new();
        // Two gates overlapping in time on the same zone.
        circuit.push(TimedOp {
            op: NativeOp::PrepareZ,
            sites: vec![site].into(),
            qubits: vec![q0].into(),
            start_us: 0.0,
            duration_us: 10.0,
            junction: None,
            measurement: None,
        });
        circuit.push(TimedOp {
            op: NativeOp::XPi2,
            sites: vec![site].into(),
            qubits: vec![q0].into(),
            start_us: 5.0,
            duration_us: 10.0,
            junction: None,
            measurement: None,
        });
        let err = check_stream_with_capacity(&layout, &[(q0, site), (q1, other)], &circuit, 1)
            .unwrap_err();
        assert!(matches!(err, ValidityError::ZoneTimeConflict { .. }));
    }

    #[test]
    fn wrong_site_addressing_is_rejected() {
        use crate::circuit::TimedOp;
        let layout = Layout::new(1, 1);
        let q0 = QubitId(0);
        let mut circuit = Circuit::new();
        circuit.push(TimedOp {
            op: NativeOp::PrepareZ,
            sites: vec![QSite::new(0, 2)].into(),
            qubits: vec![q0].into(),
            start_us: 0.0,
            duration_us: 10.0,
            junction: None,
            measurement: None,
        });
        let err = check_stream_with_capacity(&layout, &[(q0, QSite::new(0, 1))], &circuit, 1)
            .unwrap_err();
        assert!(matches!(err, ValidityError::WrongSite { .. }));
    }

    #[test]
    fn junction_capacity_relaxes_the_exclusivity_rule() {
        use crate::circuit::TimedOp;
        let layout = Layout::new(2, 2);
        // Interior junction with four disjoint neighbor zones: two hops can
        // overlap on the junction alone, with every zone conflict-free.
        let junction = QSite::new(4, 4);
        let hops = [
            (QubitId(0), QSite::new(4, 3), QSite::new(4, 5), 0.0),
            (QubitId(1), QSite::new(3, 4), QSite::new(5, 4), 100.0),
        ];
        let mut circuit = Circuit::new();
        for &(q, from, to, start) in &hops {
            circuit.push(TimedOp {
                op: NativeOp::JunctionMove,
                sites: vec![from, to].into(),
                qubits: vec![q].into(),
                start_us: start,
                duration_us: 210.0,
                junction: Some(junction),
                measurement: None,
            });
        }
        let initial = vec![(QubitId(0), QSite::new(4, 3)), (QubitId(1), QSite::new(3, 4))];
        assert_eq!(
            check_stream_with_capacity(&layout, &initial, &circuit, 1).unwrap_err(),
            ValidityError::JunctionTimeConflict { junction, at_us: 100.0 },
            "capacity 1 keeps the exclusive rule"
        );
        check_stream_with_capacity(&layout, &initial, &circuit, 2)
            .expect("two concurrent hops fit in capacity 2");
    }

    #[test]
    fn illegal_transport_step_is_rejected() {
        use crate::circuit::TimedOp;
        let layout = Layout::new(1, 1);
        let q0 = QubitId(0);
        let mut circuit = Circuit::new();
        circuit.push(TimedOp {
            op: NativeOp::Move,
            sites: vec![QSite::new(0, 1), QSite::new(0, 3)].into(),
            qubits: vec![q0].into(),
            start_us: 0.0,
            duration_us: 5.25,
            junction: None,
            measurement: None,
        });
        let err = check_stream_with_capacity(&layout, &[(q0, QSite::new(0, 1))], &circuit, 1)
            .unwrap_err();
        assert!(matches!(err, ValidityError::IllegalStep(_, _)));
    }
}
