//! Property-based tests (proptest) on the core data structures and compiler
//! invariants: Pauli algebra, grid routing, patch geometry and the validity
//! of every compiled syndrome-extraction circuit.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};

use proptest::prelude::*;

use tiscc::core::plaquette::{build_stabilizers, logical_x_support, logical_z_support};
use tiscc::core::{Arrangement, Instruction, LogicalQubit};
use tiscc::estimator::{CompileRequest, Compiler};
use tiscc::grid::{route, route_avoiding, Layout, MoveStep, QSite, QubitId, Router, SiteKind};
use tiscc::hw::rounds::replay_round;
use tiscc::hw::validity::check_stream_with_capacity;
use tiscc::hw::{
    Circuit, CompiledRounds, HardwareModel, HardwareSpec, NativeOp, OpStream, OpView,
    ResourceReport, RoundTemplate, TimedOp,
};
use tiscc::math::{Pauli, PauliOp};

/// The reference router: a plain Dijkstra over hash maps, with its own
/// allocating move enumeration — the router as it was before its scratch
/// became dense and reusable. [`Router`] must agree with it step for step.
fn reference_route(
    layout: &Layout,
    from: QSite,
    to: QSite,
    blocked: &dyn Fn(QSite) -> bool,
) -> Option<Vec<MoveStep>> {
    let steps_from = |site: QSite| {
        let mut out = Vec::new();
        for n in layout.neighbors(site) {
            match layout.site_kind(n) {
                Some(SiteKind::Junction) => {
                    for far in layout.neighbors(n) {
                        if far != site && layout.is_trapping_zone(far) {
                            out.push(MoveStep::JunctionHop { from: site, to: far, junction: n });
                        }
                    }
                }
                Some(_) => out.push(MoveStep::Shuttle { from: site, to: n }),
                None => {}
            }
        }
        out
    };
    if !layout.is_trapping_zone(from) || !layout.is_trapping_zone(to) {
        return None;
    }
    if from == to {
        return Some(Vec::new());
    }
    if blocked(to) {
        return None;
    }
    let mut dist: HashMap<QSite, u64> = HashMap::new();
    let mut prev: HashMap<QSite, MoveStep> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, QSite)>> = BinaryHeap::new();
    dist.insert(from, 0);
    heap.push(Reverse((0, from)));
    while let Some(Reverse((d, site))) = heap.pop() {
        if site == to {
            break;
        }
        if d > *dist.get(&site).unwrap_or(&u64::MAX) {
            continue;
        }
        for step in steps_from(site) {
            let next = step.to();
            if next != to && blocked(next) {
                continue;
            }
            let nd = d + step.relative_cost();
            if nd < *dist.get(&next).unwrap_or(&u64::MAX) {
                dist.insert(next, nd);
                prev.insert(next, step);
                heap.push(Reverse((nd, next)));
            }
        }
    }
    if !dist.contains_key(&to) {
        return None;
    }
    let mut steps = Vec::new();
    let mut cur = to;
    while cur != from {
        let step = prev[&cur];
        cur = step.from();
        steps.push(step);
    }
    steps.reverse();
    Some(steps)
}

/// One routing query of the router oracle property: endpoint picks, the
/// blocked-set seed and density, and a special-case selector.
type RouteQuery = (usize, usize, u64, u32, u32);

/// Runs `query` on `layout` through the shared `router` and a fresh one,
/// and checks both against the reference.
fn check_route_query(layout: &Layout, router: &mut Router, query: RouteQuery) {
    let (pick_from, pick_to, seed, density, special) = query;
    // Endpoints range one row and column past the extent, so junctions,
    // unit interiors and off-layout sites are all drawn.
    let (rows, cols) = layout.fine_extent();
    let at = |pick: usize| {
        let pick = pick % ((rows as usize + 1) * (cols as usize + 1));
        QSite::new((pick / (cols as usize + 1)) as u32, (pick % (cols as usize + 1)) as u32)
    };
    let from = at(pick_from);
    let to = if special == 0 { from } else { at(pick_to) };
    // Each trapping zone is blocked with probability density/8.
    let mut blocked: HashSet<QSite> = layout
        .all_sites()
        .filter(|&s| {
            let h =
                (seed ^ ((s.row as u64) << 32 | s.col as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            layout.is_trapping_zone(s) && (h >> 61) < u64::from(density)
        })
        .collect();
    if special == 1 {
        blocked.insert(to);
    }
    blocked.remove(&from);
    let is_blocked = |s: QSite| blocked.contains(&s);
    let expected = reference_route(layout, from, to, &is_blocked);
    let ctx = format!(
        "{}x{} {from:?}->{to:?} blocked={}",
        layout.unit_rows(),
        layout.unit_cols(),
        blocked.len()
    );
    assert_eq!(router.route_avoiding_with(layout, from, to, &is_blocked), expected, "{ctx}");
    assert_eq!(route_avoiding(layout, from, to, &blocked), expected, "fresh router: {ctx}");
}

/// The resource report as it was before its zone sets became dense
/// bitsets: `BTreeSet`s of the zones and junctions touched, and the bounding
/// box of their union. [`ResourceReport::from_stream_with_spec`] must agree
/// with it on every field, bit for bit.
fn reference_report(stream: &dyn OpStream, spec: &HardwareSpec) -> ResourceReport {
    let mut zones: BTreeSet<QSite> = BTreeSet::new();
    let mut junctions: BTreeSet<QSite> = BTreeSet::new();
    stream.for_each_distinct_op(&mut |op| {
        zones.extend(op.sites.iter().copied());
        junctions.extend(op.junction);
    });
    let mut makespan_us = 0.0f64;
    let mut op_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut active_zone_seconds = 0.0;
    let mut total_ops = 0usize;
    stream.for_each_op(&mut |v: OpView<'_>| {
        makespan_us = makespan_us.max(v.end_us());
        *op_counts.entry(v.op.op.mnemonic()).or_default() += 1;
        let zones_involved = v.op.sites.len() + usize::from(v.op.junction.is_some());
        active_zone_seconds += v.op.duration_us * 1e-6 * zones_involved as f64;
        total_ops += 1;
    });
    let execution_time_s = makespan_us * 1e-6;
    let measure_ops = op_counts.get(NativeOp::MeasureZ.mnemonic()).copied().unwrap_or(0);
    let all: Vec<QSite> = zones.iter().chain(&junctions).copied().collect();
    let area_m2 = if all.is_empty() {
        0.0
    } else {
        let rmin = all.iter().map(|s| s.row).min().unwrap();
        let rmax = all.iter().map(|s| s.row).max().unwrap();
        let cmin = all.iter().map(|s| s.col).min().unwrap();
        let cmax = all.iter().map(|s| s.col).max().unwrap();
        let height = (rmax - rmin + 1) as f64 * spec.zone_pitch_m;
        let width = (cmax - cmin + 1) as f64 * spec.zone_pitch_m;
        height * width
    };
    ResourceReport {
        execution_time_s,
        area_m2,
        spacetime_volume_s_m2: execution_time_s * area_m2,
        trapping_zones: zones.len(),
        junctions: junctions.len(),
        zone_seconds: zones.len() as f64 * execution_time_s,
        active_zone_seconds,
        op_counts,
        total_ops,
        measurements: stream.measurement_count().max(measure_ops),
    }
}

/// The per-round report a compile stores equals the per-occurrence walk
/// of [`reference_report`] on every instruction's compiled rounds, under
/// the paper profile, the non-dyadic `projected` profile and the contended
/// `slow_junction` profile with SIMD width 2 (batched templates), at
/// d = dt = 3, 5 and 9.
#[test]
fn compiled_artifacts_report_per_round_as_the_walk_does() {
    let mut contended = HardwareSpec::slow_junction();
    contended.simd_width = 2;
    let compiler = Compiler::new();
    let mut replicated = 0usize;
    for spec in [HardwareSpec::h1(), HardwareSpec::projected(), contended] {
        for &instruction in Instruction::all() {
            for d in [3usize, 5, 9] {
                let request = CompileRequest::new(instruction, d, d, d).with_spec(spec.clone());
                let artifact = compiler.compile(&request).unwrap();
                let expected = reference_report(&artifact.rounds, &spec);
                let ctx = format!("{instruction:?} d={d} {} width={}", spec.name, spec.simd_width);
                assert_eq!(artifact.resources.to_record(), expected.to_record(), "{ctx}");
                assert_eq!(artifact.resources, expected, "{ctx}");
                replicated += usize::from(artifact.rounds.repeats > 1);
            }
        }
    }
    assert!(replicated > 0, "some compiles must replicate rounds");
}

/// One hand-built op of the zone-accounting property: a kind selector, five
/// site picks, a junction pick, a start in tenths of a µs and a duration
/// selector.
type OpPick = (u32, (usize, usize, usize, usize, usize), usize, u32, usize);

/// Durations with inexact binary expansions, so a changed summation order
/// would show in the last bits.
const DURATIONS: [f64; 5] = [0.1, 3.0, 5.25, 10.0 / 3.0, 2000.0];

/// Any position of `layout`'s fine grid or one row or column past it:
/// sites, unit interiors and off-layout positions are all drawn.
fn position(layout: &Layout, pick: usize) -> QSite {
    let (rows, cols) = layout.fine_extent();
    let pick = pick % ((rows as usize + 1) * (cols as usize + 1));
    QSite::new((pick / (cols as usize + 1)) as u32, (pick % (cols as usize + 1)) as u32)
}

/// Builds the op `pick` describes: a one-qubit gate, `ZZ`, a shuttle, a
/// junction hop (its junction drawn by [`position`]), or a SIMD pulse of
/// 3–5 zones. Operand zones are sites of `layout`.
fn hand_built_op(layout: &Layout, sites: &[QSite], pick: OpPick) -> TimedOp {
    let (kind, (p0, p1, p2, p3, p4), junction_pick, start, duration) = pick;
    let one_qubit: Vec<NativeOp> =
        NativeOp::all().iter().copied().filter(|op| op.arity() == 1).collect();
    let gate = one_qubit[p0 % one_qubit.len()];
    let site = |p: usize| sites[p % sites.len()];
    let (op, zones) = match kind % 5 {
        0 => (gate, vec![site(p1)]),
        1 => (NativeOp::ZZ, vec![site(p1), site(p2)]),
        2 => (NativeOp::Move, vec![site(p1), site(p2)]),
        3 => (NativeOp::JunctionMove, vec![site(p1), site(p2)]),
        _ => (gate, [p1, p2, p3, p4, p0].into_iter().take(3 + p0 % 3).map(site).collect()),
    };
    TimedOp {
        op,
        qubits: (0..zones.len() as u32).map(QubitId).collect(),
        sites: zones.into(),
        start_us: f64::from(start) * 0.1,
        duration_us: DURATIONS[duration % DURATIONS.len()],
        junction: (op == NativeOp::JunctionMove).then(|| position(layout, junction_pick)),
        measurement: None,
    }
}

/// The report of `stream` equals the reference on every field; the area
/// and every other float field match bit for bit.
fn check_report_matches_reference(stream: &dyn OpStream, layout: &Layout, ctx: &str) {
    let spec = HardwareSpec::h1();
    let got = ResourceReport::from_stream_with_spec(stream, layout, &spec);
    let expected = reference_report(stream, &spec);
    assert_eq!(got.area_m2.to_bits(), expected.area_m2.to_bits(), "area_m2: {ctx}");
    assert_eq!(got.to_record(), expected.to_record(), "{ctx}");
    assert_eq!(got, expected, "{ctx}");
}

fn arb_pauli(n: usize) -> impl Strategy<Value = Pauli> {
    proptest::collection::vec(
        (0..n, prop_oneof![Just(PauliOp::X), Just(PauliOp::Y), Just(PauliOp::Z), Just(PauliOp::I)]),
        0..n,
    )
    .prop_map(move |ops| Pauli::from_sparse(n, &ops))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pauli multiplication is associative and sign-consistent: (AB)C = A(BC).
    #[test]
    fn pauli_multiplication_is_associative(a in arb_pauli(6), b in arb_pauli(6), c in arb_pauli(6)) {
        let left = a.mul(&b).mul(&c);
        let right = a.mul(&b.mul(&c));
        prop_assert_eq!(left, right);
    }

    /// Squaring any Pauli gives the identity up to phase, and squaring a
    /// *Hermitian* Pauli gives exactly +Identity.
    #[test]
    fn paulis_square_to_identity(a in arb_pauli(5)) {
        let sq = a.mul(&a);
        prop_assert!(sq.is_identity_up_to_phase());
        if a.hermitian_sign().is_some() {
            prop_assert_eq!(sq.hermitian_sign(), Some(1));
        }
    }

    /// Commutation is symmetric and consistent with the symplectic form.
    #[test]
    fn commutation_is_symmetric(a in arb_pauli(6), b in arb_pauli(6)) {
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
    }

    /// Any two trapping zones of a connected grid are reachable, and the
    /// returned route is contiguous and junction-free at its endpoints.
    #[test]
    fn grid_routing_connects_all_trapping_zones(rows in 1u32..4, cols in 1u32..4, pick in 0usize..1000) {
        let layout = Layout::new(rows, cols);
        let zones: Vec<QSite> = layout.all_sites().filter(|&s| layout.is_trapping_zone(s)).collect();
        let from = zones[pick % zones.len()];
        let to = zones[(pick * 7 + 3) % zones.len()];
        let path = route(&layout, from, to);
        prop_assert!(path.is_some(), "no route from {from} to {to}");
        let path = path.unwrap();
        let mut cur = from;
        for step in &path {
            prop_assert_eq!(step.from(), cur);
            prop_assert!(layout.is_trapping_zone(step.to()));
            cur = step.to();
        }
        if from != to {
            prop_assert_eq!(cur, to);
        }
    }

    /// The reusable router returns exactly the reference Dijkstra's route,
    /// step for step, over random layouts, blocked sets and endpoints —
    /// while one router serves the whole call sequence, which moves from a
    /// small layout to a larger one (growing its scratch) and back, so a
    /// stale entry from an earlier call would show as a different route.
    #[test]
    fn router_matches_reference_dijkstra(
        small in (1u32..4, 1u32..4),
        grow in (1u32..4, 0u32..4),
        queries in proptest::collection::vec((0usize..10_000, 0usize..10_000, 0u64..u64::MAX, 0u32..5, 0u32..6), 2..12),
    ) {
        let small = Layout::new(small.0, small.1);
        let large = Layout::new(small.unit_rows() + grow.0, small.unit_cols() + grow.1);
        let mut router = Router::new();
        let half = queries.len() / 2;
        for (i, &query) in queries.iter().enumerate() {
            let layout = if i < half { &small } else { &large };
            check_route_query(layout, &mut router, query);
        }
        check_route_query(&small, &mut router, queries[0]);
    }

    /// The dense zone and junction accounting of [`ResourceReport`] matches
    /// the `BTreeSet` reference on random hand-built streams: a flat
    /// circuit, the same ops as a `CompiledRounds` whose template repeats,
    /// and an empty stream. Junction picks include unit interiors and
    /// positions off the layout, which release and debug builds count alike.
    /// A zone off the layout trips the report's debug assertion; release
    /// builds count it like the reference.
    #[test]
    fn resource_report_zone_accounting_matches_reference(
        units in (1u32..7, 1u32..7),
        ops in proptest::collection::vec(
            (0u32..5, (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000),
             0usize..1000, 0u32..5000, 0usize..5),
            0..40,
        ),
        split in (0usize..100, 0usize..100, 2usize..5, 0usize..1000),
        outside in (0u32..4, 0usize..100),
    ) {
        let layout = Layout::new(units.0, units.1);
        let sites: Vec<QSite> = layout.all_sites().collect();
        let mut ops: Vec<TimedOp> =
            ops.into_iter().map(|pick| hand_built_op(&layout, &sites, pick)).collect();
        let ctx = format!("{}x{} units, {} ops", units.0, units.1, ops.len());
        check_report_matches_reference(&Circuit::new(), &layout, &format!("empty, {ctx}"));

        // One site past the layout's extent, held by two ops (one if the
        // stream has one op), so its count must be deduplicated.
        let (rows, cols) = layout.fine_extent();
        let off_layout = QSite::new(rows + outside.0, cols + outside.0);
        let holders: Vec<usize> = if ops.is_empty() {
            Vec::new()
        } else {
            let i = outside.1 % ops.len();
            vec![i, (i + ops.len() / 2) % ops.len()]
        };
        if outside.0 == 0 {
            for &i in &holders {
                ops[i].junction = Some(off_layout);
            }
        }
        check_report_matches_reference(&Circuit::from_ops(ops.clone()), &layout, &ctx);

        // The same ops as prologue, a template repeating 2–4 times with
        // chained predecessors, and an epilogue. The report accounts the
        // template per round, the reference walks every occurrence.
        let (a, b, repeats, seed) = split;
        let a = a % (ops.len() + 1);
        let b = a + b % (ops.len() - a + 1);
        let template_ops = ops[a..b].to_vec();
        let preds: Vec<Option<u32>> = (0..template_ops.len())
            .map(|i| (i > 0 && (seed >> (i % 10)) & 1 == 1).then(|| (seed % i) as u32))
            .collect();
        let recovery_us = if seed % 2 == 0 { 0.0 } else { 25.0 };
        // The barrier the last occurrence starts from, by replay.
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        let mut last_base_us = template_ops.iter().map(TimedOp::end_us).fold(0.0, f64::max);
        for _ in 2..repeats {
            last_base_us =
                replay_round(&template_ops, &preds, last_base_us, recovery_us, &mut starts, &mut ends);
        }
        let rounds = CompiledRounds {
            prologue: Circuit::from_ops(ops[..a].to_vec()),
            template: RoundTemplate {
                ops: template_ops,
                preds,
                base_us: 0.0,
                last_base_us,
                recovery_us,
                meas_per_round: 0,
            },
            repeats,
            epilogue: Circuit::from_ops(ops[b..].to_vec()),
            measurements: Vec::new(),
            rebase_us: 0.1 * (seed % 50) as f64,
        };
        check_report_matches_reference(&rounds, &layout, &format!("rounds x{repeats}, {ctx}"));

        // The same site as a zone.
        if outside.0 == 1 && !ops.is_empty() {
            for &i in &holders {
                ops[i].sites.push(off_layout);
            }
            let circuit = Circuit::from_ops(ops);
            if cfg!(debug_assertions) {
                let report = std::panic::catch_unwind(|| {
                    ResourceReport::from_stream_with_spec(&circuit, &layout, &HardwareSpec::h1())
                });
                prop_assert!(report.is_err(), "the debug assertion must catch {:?}", off_layout);
            } else {
                check_report_matches_reference(&circuit, &layout, &format!("zone off layout, {ctx}"));
            }
        }
    }

    /// For every distance pair and arrangement the stabilizer group has
    /// dx·dz−1 commuting generators that all commute with both logical
    /// operators, which anticommute with each other.
    #[test]
    fn patch_geometry_invariants(dx in 2usize..6, dz in 2usize..6, arr_idx in 0usize..4) {
        let arrangement = Arrangement::all()[arr_idx];
        let stabs = build_stabilizers(dx, dz, arrangement);
        prop_assert_eq!(stabs.len(), dx * dz - 1);
        let to_pauli = |support: &[((usize, usize), PauliOp)]| {
            let sparse: Vec<(usize, PauliOp)> = support.iter().map(|&((i, j), p)| (i * dx + j, p)).collect();
            Pauli::from_sparse(dx * dz, &sparse)
        };
        let paulis: Vec<Pauli> = stabs
            .iter()
            .map(|p| to_pauli(&p.data_coords().into_iter().map(|c| (c, p.kind.pauli())).collect::<Vec<_>>()))
            .collect();
        let lx = to_pauli(&logical_x_support(dx, dz, arrangement));
        let lz = to_pauli(&logical_z_support(dx, dz, arrangement));
        prop_assert!(!lx.commutes_with(&lz));
        for (i, a) in paulis.iter().enumerate() {
            prop_assert!(a.commutes_with(&lx));
            prop_assert!(a.commutes_with(&lz));
            for b in paulis.iter().skip(i + 1) {
                prop_assert!(a.commutes_with(b));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every compiled preparation + syndrome round passes the independent
    /// hardware validity checker (no zone or junction is used by two
    /// overlapping operations, all transport steps are legal).
    #[test]
    fn compiled_rounds_pass_independent_validity_checking(dx in 2usize..4, dz in 2usize..4) {
        let rows = tiscc::core::plaquette::tile_rows(dz) + 1;
        let cols = tiscc::core::plaquette::tile_cols(dx) + 1;
        let mut hw = HardwareModel::new(rows, cols);
        let mut patch = LogicalQubit::new(&mut hw, dx, dz, 1, (0, 0)).unwrap();
        let snapshot = hw.grid().snapshot();
        patch.transversal_prepare_z(&mut hw).unwrap();
        patch.syndrome_round(&mut hw, "validity round").unwrap();
        let layout = hw.grid().layout().clone();
        let capacity = hw.spec().junction_capacity;
        prop_assert!(check_stream_with_capacity(&layout, &snapshot, hw.circuit(), capacity).is_ok());
    }
}
