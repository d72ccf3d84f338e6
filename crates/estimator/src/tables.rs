//! Regeneration of the paper's tables: the instruction sets with their
//! logical time-step accounting (Tables 1–3), the native gate set (Table 5)
//! and the Sec. 3.4 resource-estimation sweep.

use rayon::prelude::*;

use tiscc_core::derived::DerivedInstruction;
use tiscc_core::instruction::Instruction;
use tiscc_core::CoreError;
use tiscc_hw::{HardwareSpec, NativeOp, RecordError, RecordFields, ResourceReport};

use crate::compiler::{instruction_rounds, CompileRequest, CompileStats};
use crate::verify::{Fiducial, SingleTile, TwoTiles};

/// One row of a resource table: an operation compiled at a given code
/// distance, under a named hardware profile, together with its measured
/// space-time resources.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceRow {
    /// Operation name.
    pub name: String,
    /// X code distance.
    pub dx: usize,
    /// Z code distance.
    pub dz: usize,
    /// Logical time-steps (per the paper's accounting).
    pub logical_time_steps: usize,
    /// Number of logical tiles involved.
    pub tiles: usize,
    /// Name of the hardware profile the row was compiled under.
    pub profile: String,
    /// Measured space-time resources of the compiled hardware circuit.
    pub resources: ResourceReport,
    /// Scheduling-pass observables of the compile that produced the row.
    pub stats: CompileStats,
}

impl ResourceRow {
    /// Renders the row as an aligned text line.
    pub fn render(&self) -> String {
        format!(
            "{:<24} dx={:<2} dz={:<2} tiles={} steps={} time={:>9.4}s zones={:>4} ops={:>7} area={:.3e}m^2 vol={:.3e}s*m^2 profile={}",
            self.name,
            self.dx,
            self.dz,
            self.tiles,
            self.logical_time_steps,
            self.resources.execution_time_s,
            self.resources.trapping_zones,
            self.resources.total_ops,
            self.resources.area_m2,
            self.resources.spacetime_volume_s_m2,
            self.profile,
        )
    }

    /// Renders the row as a CSV record. Float fields use shortest
    /// round-trip (`{:?}`) formatting, so parsing the record back yields
    /// bit-identical values ([`crate::sweep::parse_csv`] round-trips
    /// exactly).
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{:?},{},{},{:?},{:?},{:?},{}",
            self.name,
            self.dx,
            self.dz,
            self.tiles,
            self.logical_time_steps,
            self.resources.execution_time_s,
            self.resources.trapping_zones,
            self.resources.total_ops,
            self.resources.area_m2,
            self.resources.spacetime_volume_s_m2,
            self.resources.active_zone_seconds,
            self.profile,
        )
    }

    /// Serializes the full row — identity fields plus the complete
    /// [`ResourceReport`] — as an exact `key=value` record. Unlike
    /// [`ResourceRow::csv`] (which carries the scalar columns only), the
    /// record preserves every field bit-for-bit, so a row revived by
    /// [`ResourceRow::from_record`] is `==` to the original, stats
    /// included. This is the entry format of the persistent on-disk
    /// compile cache.
    pub fn to_record(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name={}\n", self.name));
        out.push_str(&format!("dx={}\n", self.dx));
        out.push_str(&format!("dz={}\n", self.dz));
        out.push_str(&format!("tiles={}\n", self.tiles));
        out.push_str(&format!("logical_time_steps={}\n", self.logical_time_steps));
        out.push_str(&format!("profile={}\n", self.profile));
        out.push_str(&format!("junction_stalls={}\n", self.stats.junction_stalls));
        out.push_str(&format!("batched_pulses={}\n", self.stats.batched_pulses));
        out.push_str(&self.resources.to_record());
        out
    }

    /// Parses a record produced by [`ResourceRow::to_record`]. Any
    /// malformation — truncation, missing, duplicate or unknown fields,
    /// unknown op names — is a [`RecordError`]; persistent-cache consumers
    /// recompute such entries rather than trusting them.
    pub fn from_record(text: &str) -> Result<ResourceRow, RecordError> {
        let mut fields = RecordFields::parse(text)?;
        let row = ResourceRow {
            name: fields.text("name")?.to_string(),
            dx: fields.num("dx")?,
            dz: fields.num("dz")?,
            tiles: fields.num("tiles")?,
            logical_time_steps: fields.num("logical_time_steps")?,
            profile: fields.text("profile")?.to_string(),
            resources: ResourceReport::take_fields(&mut fields)?,
            stats: CompileStats {
                junction_stalls: fields.num("junction_stalls")?,
                batched_pulses: fields.num("batched_pulses")?,
            },
        };
        fields.finish()?;
        Ok(row)
    }
}

/// CSV header matching [`ResourceRow::csv`].
pub fn csv_header() -> &'static str {
    "operation,dx,dz,tiles,logical_time_steps,execution_time_s,trapping_zones,native_ops,area_m2,spacetime_volume_s_m2,active_zone_seconds,profile"
}

/// Table 5 / Fig. 5: the native gate set and its durations under a
/// hardware profile.
pub fn table5(spec: &HardwareSpec) -> String {
    let mut out =
        format!("Native trapped-ion gate set (paper Table 5 / Fig. 5; profile '{}')\n", spec.name);
    out.push_str(&format!("{:<12} {:>10}\n", "Operation", "Time (us)"));
    for &op in NativeOp::all() {
        out.push_str(&format!("{:<12} {:>10.2}\n", op.mnemonic(), spec.duration_us(op)));
    }
    out
}

/// Compiles one Table 1 instruction at the given distances under a
/// hardware profile and reports its resources, through the stateless
/// pipeline behind the [`Compiler`](crate::compiler::Compiler) front door.
pub fn compile_instruction_row(
    spec: &HardwareSpec,
    instruction: Instruction,
    dx: usize,
    dz: usize,
    dt: usize,
) -> Result<ResourceRow, CoreError> {
    // The stateless pipeline: batch callers (sweep, table generators) bring
    // their own memoization, so no per-row Compiler cache is built here.
    crate::compiler::compile_uncached(
        &CompileRequest::new(instruction, dx, dz, dt).with_spec(spec.clone()),
    )
    .map(|artifact| artifact.row())
}

/// The row of the operation whose native gates start at `start_op` in
/// `hw`: only its own gates are accounted, not its input preparation.
fn row_since(
    hw: &tiscc_hw::HardwareModel,
    start_op: usize,
    name: &str,
    d: usize,
    logical_time_steps: usize,
    tiles: usize,
) -> ResourceRow {
    let (_, resources, stats) = instruction_rounds(hw, start_op);
    ResourceRow {
        name: name.to_string(),
        dx: d,
        dz: d,
        logical_time_steps,
        tiles,
        profile: hw.spec().name.clone(),
        resources,
        stats,
    }
}

/// Table 1: every instruction compiled at each requested distance, under
/// a hardware profile.
pub fn table1_rows(
    spec: &HardwareSpec,
    distances: &[usize],
    dt: usize,
) -> Result<Vec<ResourceRow>, CoreError> {
    let mut jobs = Vec::new();
    for &d in distances {
        for &i in Instruction::all() {
            jobs.push((i, d));
        }
    }
    jobs.into_par_iter().map(|(i, d)| compile_instruction_row(spec, i, d, d, dt)).collect()
}

/// A Table 2 primitive exercised through the patch API.
type PrimitiveOp = Box<dyn Fn(&mut SingleTile) -> Result<(), CoreError>>;

/// Table 2: the primitive operations with their logical time-steps, compiled
/// at a single distance under a hardware profile (the primitives are
/// exercised through the patch API).
pub fn table2_rows(
    spec: &HardwareSpec,
    d: usize,
    dt: usize,
) -> Result<Vec<ResourceRow>, CoreError> {
    let mut rows = Vec::new();
    let prims: Vec<(&str, usize, PrimitiveOp)> = vec![
        ("Prepare Z (transversal)", 0, Box::new(|f| f.patch.transversal_prepare_z(&mut f.hw))),
        (
            "Measure Z (transversal)",
            0,
            Box::new(|f| f.patch.transversal_measure_z(&mut f.hw).map(|_| ())),
        ),
        ("Hadamard (transversal)", 0, Box::new(|f| f.patch.transversal_hadamard(&mut f.hw))),
        ("Inject Y", 0, Box::new(|f| f.patch.inject_y(&mut f.hw))),
        ("Inject T", 0, Box::new(|f| f.patch.inject_t(&mut f.hw))),
        (
            "Pauli X",
            0,
            Box::new(|f| f.patch.apply_logical_pauli(&mut f.hw, tiscc_math::PauliOp::X)),
        ),
        ("Idle", 1, Box::new(|f| f.patch.idle(&mut f.hw).map(|_| ()))),
    ];
    for (name, steps, op) in prims {
        let mut fixture = SingleTile::with_spec(d, d, dt, spec.clone())?;
        if name.starts_with("Measure")
            || name.starts_with("Hadamard")
            || name.starts_with("Pauli")
            || name == "Idle"
        {
            Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.patch)?;
        }
        let before = fixture.hw.circuit().len();
        op(&mut fixture)?;
        rows.push(row_since(&fixture.hw, before, name, d, steps, 1));
    }
    // Merge and Split are exercised through Measure XX (merge = 1 step, split = 0).
    let mut fixture = TwoTiles::with_spec(d, d, dt, spec.clone())?;
    Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.upper)?;
    Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.lower)?;
    let before = fixture.hw.circuit().len();
    let merge = tiscc_core::surgery::merge_patches(
        &mut fixture.hw,
        &mut fixture.upper,
        &mut fixture.lower,
        tiscc_core::surgery::Orientation::Vertical,
    )?;
    rows.push(row_since(&fixture.hw, before, "Merge", d, 1, 2));
    let before = fixture.hw.circuit().len();
    tiscc_core::surgery::split_patches(
        &mut fixture.hw,
        &merge,
        &mut fixture.upper,
        &mut fixture.lower,
    )?;
    rows.push(row_since(&fixture.hw, before, "Split", d, 0, 2));
    Ok(rows)
}

/// Table 3: the derived instruction set compiled at a single distance under
/// a hardware profile.
pub fn table3_rows(
    spec: &HardwareSpec,
    d: usize,
    dt: usize,
) -> Result<Vec<ResourceRow>, CoreError> {
    let mut rows = Vec::new();
    for &instr in DerivedInstruction::all() {
        let mut fixture = TwoTiles::with_spec(d, d, dt, spec.clone())?;
        match instr {
            DerivedInstruction::BellStatePreparation => {}
            DerivedInstruction::BellBasisMeasurement | DerivedInstruction::MergeContract => {
                Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.upper)?;
                Fiducial::Plus.prepare(&mut fixture.hw, &mut fixture.lower)?;
            }
            _ => {
                Fiducial::Plus.prepare(&mut fixture.hw, &mut fixture.upper)?;
            }
        }
        let before = fixture.hw.circuit().len();
        match instr {
            DerivedInstruction::BellStatePreparation => {
                tiscc_core::derived::bell_state_preparation(
                    &mut fixture.hw,
                    &mut fixture.upper,
                    &mut fixture.lower,
                )?;
            }
            DerivedInstruction::BellBasisMeasurement => {
                tiscc_core::derived::bell_basis_measurement(
                    &mut fixture.hw,
                    &mut fixture.upper,
                    &mut fixture.lower,
                )?;
            }
            DerivedInstruction::ExtendSplit => {
                tiscc_core::derived::extend_split(
                    &mut fixture.hw,
                    &mut fixture.upper,
                    &mut fixture.lower,
                )?;
            }
            DerivedInstruction::MergeContract => {
                tiscc_core::derived::merge_contract(
                    &mut fixture.hw,
                    &mut fixture.upper,
                    &mut fixture.lower,
                )?;
            }
            DerivedInstruction::Move => {
                tiscc_core::derived::move_patch_down(
                    &mut fixture.hw,
                    &mut fixture.upper,
                    &mut fixture.lower,
                )?;
            }
            DerivedInstruction::PatchExtension => {
                tiscc_core::derived::patch_extension(
                    &mut fixture.hw,
                    &mut fixture.upper,
                    &mut fixture.lower,
                )?;
            }
            DerivedInstruction::PatchContraction => {
                let keep = fixture.lower.dz();
                let origin = fixture.lower.origin();
                let (mut ext, _) = tiscc_core::derived::patch_extension(
                    &mut fixture.hw,
                    &mut fixture.upper,
                    &mut fixture.lower,
                )?;
                // Only the contraction itself is accounted.
                let before_contract = fixture.hw.circuit().len();
                tiscc_core::derived::patch_contraction(&mut fixture.hw, &mut ext, keep, origin)?;
                let steps = instr.logical_time_steps();
                rows.push(row_since(&fixture.hw, before_contract, instr.name(), d, steps, 2));
                continue;
            }
        }
        rows.push(row_since(&fixture.hw, before, instr.name(), d, instr.logical_time_steps(), 2));
    }
    Ok(rows)
}

/// The representative operations of the Sec. 3.4 resource-estimation
/// sweep (`tiscc-report resources`), which compiles them with
/// [`crate::sweep::SweepSpec::square`].
pub const RESOURCE_SWEEP_OPS: [Instruction; 6] = [
    Instruction::PrepareZ,
    Instruction::Idle,
    Instruction::Hadamard,
    Instruction::MeasureZ,
    Instruction::MeasureXX,
    Instruction::MeasureZZ,
];

/// Renders a set of rows as an aligned text table.
pub fn render_rows(title: &str, rows: &[ResourceRow]) -> String {
    let mut out = format!("{title}\n");
    for row in rows {
        out.push_str(&row.render());
        out.push('\n');
    }
    out
}

/// Renders a set of rows as CSV (with header).
pub fn render_csv(rows: &[ResourceRow]) -> String {
    let mut out = String::from(csv_header());
    out.push('\n');
    for row in rows {
        out.push_str(&row.csv());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_contains_all_native_ops() {
        let t = table5(&HardwareSpec::default());
        for op in NativeOp::all() {
            assert!(t.contains(op.mnemonic()), "missing {}", op.mnemonic());
        }
        assert!(t.contains("2000.00"), "ZZ duration present");
    }

    #[test]
    fn table1_rows_cover_all_instructions_at_d2() {
        let rows = table1_rows(&HardwareSpec::default(), &[2], 1).unwrap();
        assert_eq!(rows.len(), Instruction::all().len());
        for row in &rows {
            assert!(row.resources.execution_time_s >= 0.0);
        }
        // Idle at d=2 with dt=1 runs one round: it must contain ZZ gates.
        let idle = rows.iter().find(|r| r.name == "Idle").unwrap();
        assert!(idle.resources.op_counts.get("ZZ").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn csv_rendering_has_header_and_rows() {
        let rows = table1_rows(&HardwareSpec::default(), &[2], 1).unwrap();
        let csv = render_csv(&rows);
        assert!(csv.starts_with("operation,"));
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }

    #[test]
    fn row_records_round_trip_exactly() {
        let rows = table1_rows(&HardwareSpec::default(), &[2], 1).unwrap();
        for row in &rows {
            let revived = ResourceRow::from_record(&row.to_record()).unwrap();
            assert_eq!(&revived, row, "{} record round trip", row.name);
        }
        // Truncated and garbled records are typed errors, not rows.
        let record = rows[0].to_record();
        assert!(ResourceRow::from_record(&record[..record.len() / 3]).is_err());
        assert!(ResourceRow::from_record(&record.replace("dx=", "dx=?")).is_err());
        let stray = ResourceRow::from_record(&format!("{record}bogus=1\n")).unwrap_err();
        assert!(stray.message.contains("\"bogus\""), "{stray}");
    }
}
