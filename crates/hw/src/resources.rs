//! Space-time resource accounting (paper Sec. 3.4).
//!
//! Given a compiled [`Circuit`](crate::Circuit) and the [`Layout`] it was
//! compiled for, the [`ResourceReport`] computes the quantities the paper
//! reports for every surface-code patch operation: execution time, grid
//! area, space-time volume, number of trapping zones, trapping-zone-seconds
//! and *active* trapping-zone-seconds, plus native-operation counts.

use std::collections::BTreeMap;

use tiscc_grid::{Layout, QSite};

use crate::circuit::{OpRun, OpStream};
use crate::ops::NativeOp;
use crate::spec::HardwareSpec;

/// Number of [`NativeOp`] kinds: the discriminants run `0..NATIVE_OP_KINDS`
/// (`JunctionMove` is the last variant).
const NATIVE_OP_KINDS: usize = NativeOp::JunctionMove as usize + 1;

/// Space-time resources consumed by one compiled hardware circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceReport {
    /// Total wall-clock execution time in seconds.
    pub execution_time_s: f64,
    /// Area of the bounding box of all zones touched, in square metres.
    pub area_m2: f64,
    /// `execution_time_s * area_m2` (paper: space-time volume, s·m²).
    pub spacetime_volume_s_m2: f64,
    /// Number of distinct trapping zones touched.
    pub trapping_zones: usize,
    /// Number of distinct junctions traversed.
    pub junctions: usize,
    /// `trapping_zones * execution_time_s`: zone-seconds reserved.
    pub zone_seconds: f64,
    /// Σ over operations of `duration * zones involved`: zone-seconds during
    /// which zones are actively performing an operation.
    pub active_zone_seconds: f64,
    /// Count of every native operation kind appearing in the circuit.
    pub op_counts: BTreeMap<&'static str, usize>,
    /// Total number of native operations.
    pub total_ops: usize,
    /// Total number of measurements.
    pub measurements: usize,
}

impl ResourceReport {
    /// Computes the report for any [`OpStream`] — a materialized circuit,
    /// a circuit carrying replicated rounds, or a
    /// [`CompiledRounds`](crate::rounds::CompiledRounds) — compiled on
    /// `layout` under the given hardware profile: the physical area uses
    /// the profile's zone pitch, and time-dependent quantities are read off
    /// the stream's schedule, which was already laid out with the profile's
    /// durations.
    ///
    /// The additive accounting is per run ([`OpStream::for_each_run`]), so
    /// a replicated round costs one pass over its ops, not one per
    /// occurrence, and agrees bit for bit with a walk over every logical op:
    /// kind counts are the run's counts times its repeats; the makespan is
    /// the maximum of the runs' latest ends; and `active_zone_seconds` adds
    /// each op's contribution, computed once per run, in stream order, the
    /// very sum the walk performs. Distinct zones and junctions are counted
    /// in bitsets over [`Layout::index_of`], once per distinct op.
    pub fn from_stream_with_spec(
        stream: &(impl OpStream + ?Sized),
        layout: &Layout,
        spec: &HardwareSpec,
    ) -> Self {
        // One pass over distinct ops for the set-valued accounting.
        let mut footprint = Footprint::new(layout);
        stream.for_each_distinct_op(&mut |op| {
            for &site in &op.sites {
                footprint.add_zone(site);
            }
            if let Some(j) = op.junction {
                footprint.add_junction(j);
            }
        });
        let trapping_zones = footprint.zones.len();
        let junctions = footprint.junctions.len();

        // One pass over the runs for the additive accounting. Kinds are
        // counted by discriminant and named once at the end.
        let mut makespan_us = 0.0f64;
        let mut kind_counts = [0usize; NATIVE_OP_KINDS];
        let mut active_zone_seconds = 0.0;
        let mut total_ops = 0usize;
        let mut seconds = Vec::new();
        stream.for_each_run(&mut |run: OpRun<'_>| {
            makespan_us = makespan_us.max(run.end_us);
            seconds.clear();
            for op in run.ops {
                kind_counts[op.op as usize] += run.repeats;
                let zones_involved = op.sites.len() + usize::from(op.junction.is_some());
                seconds.push(op.duration_us * 1e-6 * zones_involved as f64);
            }
            for _ in 0..run.repeats {
                for &s in &seconds {
                    active_zone_seconds += s;
                }
            }
            total_ops += run.repeats * run.ops.len();
        });
        let execution_time_s = makespan_us * 1e-6;
        let measure_ops = kind_counts[NativeOp::MeasureZ as usize];
        let op_counts: BTreeMap<&'static str, usize> = NativeOp::all()
            .iter()
            .filter(|&&op| kind_counts[op as usize] > 0)
            .map(|&op| (op.mnemonic(), kind_counts[op as usize]))
            .collect();

        // Bounding box of every fine coordinate touched (zones and junctions),
        // converted to physical area: each fine step is one zone pitch.
        let area_m2 = match footprint.bbox {
            None => 0.0,
            Some(BoundingBox { rmin, rmax, cmin, cmax }) => {
                let height = (rmax - rmin + 1) as f64 * spec.zone_pitch_m;
                let width = (cmax - cmin + 1) as f64 * spec.zone_pitch_m;
                height * width
            }
        };

        ResourceReport {
            execution_time_s,
            area_m2,
            spacetime_volume_s_m2: execution_time_s * area_m2,
            trapping_zones,
            junctions,
            zone_seconds: trapping_zones as f64 * execution_time_s,
            active_zone_seconds,
            op_counts,
            total_ops,
            measurements: stream.measurement_count().max(measure_ops),
        }
    }

    /// Serializes the report as an exact, line-oriented `key=value` record.
    ///
    /// Float fields use shortest-round-trip (`{:?}`) formatting, so
    /// [`ResourceReport::from_record`] reproduces the report **bit for
    /// bit** — the format is the persistence layer of the on-disk compile
    /// cache, where a lossy round trip would silently change published
    /// numbers between cold and warm runs.
    pub fn to_record(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("execution_time_s={:?}\n", self.execution_time_s));
        out.push_str(&format!("area_m2={:?}\n", self.area_m2));
        out.push_str(&format!("spacetime_volume_s_m2={:?}\n", self.spacetime_volume_s_m2));
        out.push_str(&format!("trapping_zones={}\n", self.trapping_zones));
        out.push_str(&format!("junctions={}\n", self.junctions));
        out.push_str(&format!("zone_seconds={:?}\n", self.zone_seconds));
        out.push_str(&format!("active_zone_seconds={:?}\n", self.active_zone_seconds));
        out.push_str(&format!("total_ops={}\n", self.total_ops));
        out.push_str(&format!("measurements={}\n", self.measurements));
        out.push_str("op_counts=");
        for (i, (op, n)) in self.op_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{op}:{n}"));
        }
        out.push('\n');
        out
    }

    /// Parses a record produced by [`ResourceReport::to_record`].
    ///
    /// Every field must be present exactly once and parse cleanly;
    /// operation names must belong to the native gate set (they are
    /// re-interned onto the [`NativeOp`] mnemonic table). Anything else —
    /// truncation, unknown keys, malformed numbers, alien op names — is a
    /// [`RecordError`], which persistent-cache consumers treat as a corrupt
    /// entry to recompute, never as data to trust.
    pub fn from_record(text: &str) -> Result<ResourceReport, RecordError> {
        let mut fields = RecordFields::parse(text)?;
        let report = ResourceReport::take_fields(&mut fields)?;
        fields.finish()?;
        Ok(report)
    }

    /// Takes the report's ten fields out of a parsed record, leaving any
    /// other fields for the caller (a record that embeds a report, such as
    /// a resource-table row, adds its own).
    pub fn take_fields(fields: &mut RecordFields<'_>) -> Result<ResourceReport, RecordError> {
        let mut op_counts = BTreeMap::new();
        let raw_counts = fields.text("op_counts")?;
        if !raw_counts.is_empty() {
            for pair in raw_counts.split(',') {
                let (name, count) = pair.split_once(':').ok_or_else(|| {
                    RecordError::new(format!("op_counts entry {pair:?} is not name:count"))
                })?;
                let interned = NativeOp::all()
                    .iter()
                    .map(|op| op.mnemonic())
                    .find(|m| *m == name)
                    .ok_or_else(|| RecordError::new(format!("unknown native op {name:?}")))?;
                let count: usize = count.parse().map_err(|_| {
                    RecordError::new(format!("op count {count:?} for {name:?} is malformed"))
                })?;
                if op_counts.insert(interned, count).is_some() {
                    return Err(RecordError::new(format!("duplicate op count for {name:?}")));
                }
            }
        }
        Ok(ResourceReport {
            execution_time_s: fields.num("execution_time_s")?,
            area_m2: fields.num("area_m2")?,
            spacetime_volume_s_m2: fields.num("spacetime_volume_s_m2")?,
            trapping_zones: fields.num("trapping_zones")?,
            junctions: fields.num("junctions")?,
            zone_seconds: fields.num("zone_seconds")?,
            active_zone_seconds: fields.num("active_zone_seconds")?,
            op_counts,
            total_ops: fields.num("total_ops")?,
            measurements: fields.num("measurements")?,
        })
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("execution time      : {:.6} s\n", self.execution_time_s));
        out.push_str(&format!("grid area           : {:.3e} m^2\n", self.area_m2));
        out.push_str(&format!("space-time volume   : {:.3e} s*m^2\n", self.spacetime_volume_s_m2));
        out.push_str(&format!("trapping zones      : {}\n", self.trapping_zones));
        out.push_str(&format!("junctions traversed : {}\n", self.junctions));
        out.push_str(&format!("zone-seconds        : {:.6}\n", self.zone_seconds));
        out.push_str(&format!("active zone-seconds : {:.6}\n", self.active_zone_seconds));
        out.push_str(&format!("native operations   : {}\n", self.total_ops));
        out.push_str(&format!("measurements        : {}\n", self.measurements));
        for (name, count) in &self.op_counts {
            out.push_str(&format!("  {name:<10} x {count}\n"));
        }
        out
    }
}

/// The set-valued accounting of one report: the distinct zones and
/// junctions touched, and the bounding box of both.
struct Footprint {
    layout: Layout,
    zones: SiteSet,
    junctions: SiteSet,
    bbox: Option<BoundingBox>,
}

/// Inclusive fine-coordinate bounds of the sites seen so far.
struct BoundingBox {
    rmin: u32,
    rmax: u32,
    cmin: u32,
    cmax: u32,
}

impl Footprint {
    fn new(layout: &Layout) -> Self {
        let slots = layout.index_len();
        Footprint {
            layout: layout.clone(),
            zones: SiteSet::new(slots),
            junctions: SiteSet::new(slots),
            bbox: None,
        }
    }

    fn add_zone(&mut self, site: QSite) {
        // Sanity: the circuit must fit on the layout it claims to use.
        debug_assert!(self.layout.contains(site), "zone {site:?} is off the layout");
        if self.zones.insert(&self.layout, site) {
            self.cover(site);
        }
    }

    fn add_junction(&mut self, site: QSite) {
        if self.junctions.insert(&self.layout, site) {
            self.cover(site);
        }
    }

    fn cover(&mut self, site: QSite) {
        let (r, c) = (site.row, site.col);
        let b = self.bbox.get_or_insert(BoundingBox { rmin: r, rmax: r, cmin: c, cmax: c });
        b.rmin = b.rmin.min(r);
        b.rmax = b.rmax.max(r);
        b.cmin = b.cmin.min(c);
        b.cmax = b.cmax.max(c);
    }
}

/// A set of sites: one bit per [`Layout::index_of`] slot, plus a list for
/// sites outside the layout's extent (only a hand-built circuit holds one),
/// deduplicated when the set is counted.
struct SiteSet {
    bits: Vec<u64>,
    distinct: usize,
    outside: Vec<QSite>,
}

impl SiteSet {
    fn new(slots: usize) -> Self {
        SiteSet { bits: vec![0; slots.div_ceil(64)], distinct: 0, outside: Vec::new() }
    }

    /// Adds `site`. False if the bitset already held it; a site outside the
    /// extent always reads as new.
    fn insert(&mut self, layout: &Layout, site: QSite) -> bool {
        let Some(i) = layout.index_of(site) else {
            self.outside.push(site);
            return true;
        };
        let (word, bit) = (&mut self.bits[i / 64], 1u64 << (i % 64));
        let new = *word & bit == 0;
        *word |= bit;
        self.distinct += usize::from(new);
        new
    }

    /// Number of distinct sites.
    fn len(&mut self) -> usize {
        self.outside.sort_unstable();
        self.outside.dedup();
        self.distinct + self.outside.len()
    }
}

/// A malformed [`ResourceReport`] record (see
/// [`ResourceReport::from_record`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordError {
    /// What was wrong with the record.
    pub message: String,
}

impl RecordError {
    fn new(message: impl Into<String>) -> Self {
        RecordError { message: message.into() }
    }
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed resource record: {}", self.message)
    }
}

impl std::error::Error for RecordError {}

/// The fields of a `key=value` record, one per line (blank lines are
/// skipped), in record order. Parsing rejects a line without `=` and a
/// repeated key; readers then take each field they know by name, and
/// [`RecordFields::finish`] rejects any field left over, so a stray or
/// misspelt key is a [`RecordError`] rather than data silently ignored.
#[derive(Debug)]
pub struct RecordFields<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> RecordFields<'a> {
    /// Splits `text` into fields.
    pub fn parse(text: &'a str) -> Result<RecordFields<'a>, RecordError> {
        let mut fields: Vec<(&str, &str)> = Vec::new();
        for line in text.lines().filter(|line| !line.is_empty()) {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| RecordError::new(format!("line {line:?} is not key=value")))?;
            if fields.iter().any(|&(seen, _)| seen == key) {
                return Err(RecordError::new(format!("duplicate field {key:?}")));
            }
            fields.push((key, value));
        }
        Ok(RecordFields { fields })
    }

    /// Removes and returns the raw value of `key`; a missing field is an
    /// error naming it.
    pub fn text(&mut self, key: &str) -> Result<&'a str, RecordError> {
        let at = self
            .fields
            .iter()
            .position(|&(k, _)| k == key)
            .ok_or_else(|| RecordError::new(format!("missing field {key:?}")))?;
        Ok(self.fields.remove(at).1)
    }

    /// Removes `key` and parses its value.
    pub fn num<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, RecordError> {
        let raw = self.text(key)?;
        raw.parse().map_err(|_| RecordError::new(format!("field {key:?} ({raw:?}) is malformed")))
    }

    /// Succeeds only if every field was taken; otherwise names the first
    /// one left.
    pub fn finish(self) -> Result<(), RecordError> {
        match self.fields.first() {
            None => Ok(()),
            Some((key, _)) => Err(RecordError::new(format!("unknown field {key:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HardwareModel;
    use tiscc_grid::{QSite, ZONE_WIDTH_M};

    #[test]
    fn op_kind_discriminants_cover_every_native_op() {
        assert_eq!(NativeOp::all().len(), NATIVE_OP_KINDS);
        for (i, &op) in NativeOp::all().iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
        }
    }

    #[test]
    fn record_round_trips_bit_for_bit() {
        let mut hw = HardwareModel::new(1, 1);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.prepare_z(q).unwrap();
        hw.apply_1q(NativeOp::XPi2, q).unwrap();
        hw.measure_z(q, "final").unwrap();
        let report = hw.resource_report();
        let parsed = ResourceReport::from_record(&report.to_record()).unwrap();
        assert_eq!(parsed, report);
        // The float fields survive exactly, not approximately.
        assert_eq!(parsed.execution_time_s.to_bits(), report.execution_time_s.to_bits());
        assert_eq!(parsed.area_m2.to_bits(), report.area_m2.to_bits());
    }

    #[test]
    fn malformed_records_are_rejected() {
        let mut hw = HardwareModel::new(1, 1);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.prepare_z(q).unwrap();
        let record = hw.resource_report().to_record();

        // Truncation drops required fields.
        let truncated = &record[..record.len() / 2];
        assert!(ResourceReport::from_record(truncated).is_err());
        // An op name outside the native gate set cannot be interned.
        let alien = record.replace("Prepare_Z", "Warp_Drive");
        let err = ResourceReport::from_record(&alien).unwrap_err();
        assert!(err.to_string().contains("Warp_Drive"), "{err}");
        // A non-numeric numeric field is rejected.
        let garbled = record.replace("trapping_zones=", "trapping_zones=x");
        assert!(ResourceReport::from_record(&garbled).is_err());
        // Duplicate fields are rejected rather than last-wins.
        let doubled = format!("{record}total_ops=7\n");
        assert!(ResourceReport::from_record(&doubled).is_err());
        // A stray key is rejected and named, not ignored.
        let err = ResourceReport::from_record(&format!("{record}bogus=1\n")).unwrap_err();
        assert!(err.to_string().contains("unknown field \"bogus\""), "{err}");
    }

    #[test]
    fn empty_op_counts_round_trip() {
        let report = ResourceReport {
            execution_time_s: 0.5,
            area_m2: 1e-6,
            spacetime_volume_s_m2: 5e-7,
            trapping_zones: 2,
            junctions: 1,
            zone_seconds: 1.0,
            active_zone_seconds: 0.25,
            op_counts: BTreeMap::new(),
            total_ops: 0,
            measurements: 0,
        };
        assert_eq!(ResourceReport::from_record(&report.to_record()).unwrap(), report);
    }

    #[test]
    fn report_counts_basic_quantities() {
        let mut hw = HardwareModel::new(1, 1);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.prepare_z(q).unwrap();
        hw.apply_1q(NativeOp::XPi2, q).unwrap();
        hw.measure_z(q, "final").unwrap();
        let report = hw.resource_report();

        assert!((report.execution_time_s - 140e-6).abs() < 1e-12);
        assert_eq!(report.trapping_zones, 1);
        assert_eq!(report.junctions, 0);
        assert_eq!(report.total_ops, 3);
        assert_eq!(report.measurements, 1);
        assert_eq!(report.op_counts["Prepare_Z"], 1);
        assert_eq!(report.op_counts["Measure_Z"], 1);
        // One zone touched -> bounding box is a single pitch square.
        assert!((report.area_m2 - ZONE_WIDTH_M * ZONE_WIDTH_M).abs() < 1e-15);
        // All ops involve one zone, so active zone-seconds equals total busy time.
        assert!((report.active_zone_seconds - 140e-6).abs() < 1e-12);
        assert!((report.zone_seconds - 140e-6).abs() < 1e-12);
        assert!(
            (report.spacetime_volume_s_m2 - report.execution_time_s * report.area_m2).abs() < 1e-18
        );
    }

    #[test]
    fn transport_enlarges_area_and_counts_junctions() {
        let mut hw = HardwareModel::new(2, 2);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.route_and_move(q, QSite::new(4, 1)).unwrap();
        let report = hw.resource_report();
        assert!(report.junctions >= 1);
        assert!(report.trapping_zones >= 2);
        assert!(report.area_m2 > ZONE_WIDTH_M * ZONE_WIDTH_M);
    }

    #[test]
    fn area_follows_the_profile_pitch() {
        let mut spec = HardwareSpec::h1();
        spec.zone_pitch_m *= 2.0;
        let mut hw = HardwareModel::with_spec(1, 1, spec);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.prepare_z(q).unwrap();
        let report = hw.resource_report();
        // Doubling the pitch quadruples the single-zone bounding-box area.
        assert!((report.area_m2 - 4.0 * ZONE_WIDTH_M * ZONE_WIDTH_M).abs() < 1e-15);
    }

    #[test]
    fn render_mentions_every_counter() {
        let mut hw = HardwareModel::new(1, 1);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.prepare_z(q).unwrap();
        let report = hw.resource_report();
        let text = report.render();
        for needle in [
            "execution time",
            "grid area",
            "space-time volume",
            "trapping zones",
            "zone-seconds",
            "active zone-seconds",
            "Prepare_Z",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
