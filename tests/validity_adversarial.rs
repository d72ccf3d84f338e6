//! Adversarial coverage for `tiscc_hw::validity`: hand-built and
//! hand-corrupted circuits that violate exactly one replay invariant each
//! must surface the *specific* `ValidityError` variant — overlapping
//! junction hops, gates addressing an empty zone, and corrupted transport
//! streams (occupied destinations, teleporting moves). Every replay runs
//! under the exclusive-transit rule (junction capacity 1).

use tiscc::grid::{Layout, QSite, QubitId};
use tiscc::hw::validity::{check_stream_with_capacity, ValidityError};
use tiscc::hw::{Circuit, HardwareModel, NativeOp, TimedOp};

fn timed(op: NativeOp, sites: Vec<QSite>, qubits: Vec<QubitId>, start_us: f64) -> TimedOp {
    TimedOp {
        op,
        sites: sites.into(),
        qubits: qubits.into(),
        start_us,
        duration_us: if matches!(op, NativeOp::JunctionMove) { 210.0 } else { 10.0 },
        junction: None,
        measurement: None,
    }
}

/// Two junction hops through the same interior junction overlapping in
/// time — but on four disjoint zones, so only the junction itself is
/// contended — must be a `JunctionTimeConflict`.
#[test]
fn overlapping_junction_hops_conflict_on_the_junction() {
    let layout = Layout::new(2, 2);
    let junction = QSite::new(4, 4);
    let (q0, q1) = (QubitId(0), QubitId(1));
    let initial = [(q0, QSite::new(4, 3)), (q1, QSite::new(3, 4))];
    let mut hop_ew =
        timed(NativeOp::JunctionMove, vec![QSite::new(4, 3), QSite::new(4, 5)], vec![q0], 0.0);
    hop_ew.junction = Some(junction);
    let mut hop_ns =
        timed(NativeOp::JunctionMove, vec![QSite::new(3, 4), QSite::new(5, 4)], vec![q1], 100.0);
    hop_ns.junction = Some(junction);
    let circuit = Circuit::from_ops(vec![hop_ew, hop_ns]);
    let err = check_stream_with_capacity(&layout, &initial, &circuit, 1).unwrap_err();
    assert_eq!(
        err,
        ValidityError::JunctionTimeConflict { junction, at_us: 100.0 },
        "expected the junction contention, got {err}"
    );
    // The same two hops serialised past each other are fine.
    let mut hop_ew =
        timed(NativeOp::JunctionMove, vec![QSite::new(4, 3), QSite::new(4, 5)], vec![q0], 0.0);
    hop_ew.junction = Some(junction);
    let mut hop_ns =
        timed(NativeOp::JunctionMove, vec![QSite::new(3, 4), QSite::new(5, 4)], vec![q1], 210.0);
    hop_ns.junction = Some(junction);
    check_stream_with_capacity(&layout, &initial, &Circuit::from_ops(vec![hop_ew, hop_ns]), 1)
        .expect("serialised hops are valid");
}

/// A gate addressed to an *empty* zone (its ion rests elsewhere) must be a
/// `WrongSite` naming both the claimed and the actual zone.
#[test]
fn gate_addressing_an_empty_zone_is_wrong_site() {
    let layout = Layout::new(1, 1);
    let q0 = QubitId(0);
    let home = QSite::new(0, 1);
    let empty = QSite::new(0, 2);
    let circuit = Circuit::from_ops(vec![timed(NativeOp::XPi2, vec![empty], vec![q0], 0.0)]);
    let err = check_stream_with_capacity(&layout, &[(q0, home)], &circuit, 1).unwrap_err();
    assert_eq!(err, ValidityError::WrongSite { qubit: q0, claimed: empty, actual: Some(home) });
}

/// A gate naming an ion that was never placed must be `UnknownQubit`.
#[test]
fn gate_on_an_unplaced_ion_is_unknown_qubit() {
    let layout = Layout::new(1, 1);
    let ghost = QubitId(9);
    let circuit = Circuit::from_ops(vec![timed(
        NativeOp::PrepareZ,
        vec![QSite::new(0, 1)],
        vec![ghost],
        0.0,
    )]);
    let err = check_stream_with_capacity(&layout, &[(QubitId(0), QSite::new(0, 2))], &circuit, 1)
        .unwrap_err();
    assert_eq!(err, ValidityError::UnknownQubit(ghost));
}

/// A genuinely compiled transport stream, hand-corrupted so one `Move`
/// lands on an occupied zone, must be `DestinationOccupied` — the
/// scheduler can never emit this, only corruption can.
#[test]
fn corrupted_transport_stream_hits_occupied_destination() {
    let mut hw = HardwareModel::new(2, 2);
    let resident = hw.place_qubit(QSite::new(0, 1)).expect("place resident");
    let mover = hw.place_qubit(QSite::new(0, 2)).expect("place mover");
    let initial = hw.grid().snapshot();
    hw.route_and_move(mover, QSite::new(0, 3)).expect("legal move");
    // The untouched stream replays cleanly.
    let layout = hw.grid().layout().clone();
    check_stream_with_capacity(&layout, &initial, hw.circuit(), 1)
        .expect("compiled stream is valid");

    let mut ops = hw.circuit().ops().to_vec();
    let mv =
        ops.iter().position(|o| matches!(o.op, NativeOp::Move)).expect("stream contains a Move");
    // Corrupt the destination: aim the move at the resident ion's zone.
    ops[mv].sites[1] = QSite::new(0, 1);
    let err =
        check_stream_with_capacity(&layout, &initial, &Circuit::from_ops(ops), 1).unwrap_err();
    assert_eq!(err, ValidityError::DestinationOccupied(QSite::new(0, 1), resident));
}

/// The same stream corrupted into a teleporting (non-adjacent) step must
/// be `IllegalStep`.
#[test]
fn corrupted_transport_stream_hits_illegal_step() {
    let mut hw = HardwareModel::new(2, 2);
    let mover = hw.place_qubit(QSite::new(0, 2)).expect("place mover");
    let initial = hw.grid().snapshot();
    hw.route_and_move(mover, QSite::new(0, 3)).expect("legal move");
    let layout = hw.grid().layout().clone();

    let mut ops = hw.circuit().ops().to_vec();
    let mv =
        ops.iter().position(|o| matches!(o.op, NativeOp::Move)).expect("stream contains a Move");
    // Corrupt the destination: teleport across the grid.
    ops[mv].sites[1] = QSite::new(0, 7);
    let err =
        check_stream_with_capacity(&layout, &initial, &Circuit::from_ops(ops), 1).unwrap_err();
    assert_eq!(err, ValidityError::IllegalStep(QSite::new(0, 2), QSite::new(0, 7)));
}
