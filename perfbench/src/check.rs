//! The correctness gate: every request's output against the committed
//! reference digests and against independent invariants.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::api::{self, ErrorModel, FrontierReport, Instruction, ProgramEstimate, SweepResult};
use crate::measure::fnv64;

/// Paper Table 1, `(id, logical_time_steps, tiles)` per instruction, as
/// pinned by the repository's golden-row tests.
const TABLE1_GOLDEN: [(&str, usize, usize); 13] = [
    ("prepare_x", 1, 1),
    ("prepare_z", 1, 1),
    ("inject_y", 0, 1),
    ("inject_t", 0, 1),
    ("measure_x", 0, 1),
    ("measure_z", 0, 1),
    ("pauli_x", 0, 1),
    ("pauli_y", 0, 1),
    ("pauli_z", 0, 1),
    ("hadamard", 0, 1),
    ("idle", 1, 1),
    ("measure_xx", 1, 2),
    ("measure_zz", 1, 2),
];

/// One request's output, kept for checking after the timed region.
pub enum Output {
    /// A program estimate.
    Estimate {
        key: String,
        est: ProgramEstimate,
        /// Instruction count the generator's closed form predicts.
        expect_instr: usize,
        model: ErrorModel,
        d_max: usize,
        /// The distance the request is known to select, where pinned.
        expect_d: Option<usize>,
    },
    /// A frontier search.
    Frontier { key: String, report: FrontierReport },
    /// A table sweep.
    Sweep { key: String, result: SweepResult },
    /// A serve reply; `expect_kind` is the error kind a bad line must get.
    Reply { key: String, reply: String, expect_kind: Option<&'static str> },
    /// A request the library answered with an error.
    Failed { key: String, error: String },
}

impl Output {
    /// Wraps a request result: an error becomes [`Output::Failed`].
    pub fn from_result(key: String, result: Result<Output, String>) -> Output {
        result.unwrap_or_else(|error| Output::Failed { key, error })
    }

    /// The reference key of the request.
    pub fn key(&self) -> &str {
        match self {
            Output::Estimate { key, .. }
            | Output::Frontier { key, .. }
            | Output::Sweep { key, .. }
            | Output::Reply { key, .. }
            | Output::Failed { key, .. } => key,
        }
    }

    /// The text the reference digest is taken over.
    fn digest_text(&self) -> String {
        match self {
            Output::Estimate { est, .. } => est.render(),
            Output::Frontier { report, .. } => api::frontier_csv(report),
            Output::Sweep { result, .. } => result.to_csv(),
            Output::Reply { reply, .. } => normalize_reply(reply),
            Output::Failed { error, .. } => error.clone(),
        }
    }

    /// The output's digest.
    pub fn digest(&self) -> u64 {
        fnv64(&self.digest_text())
    }
}

/// A serve reply without its provenance fields (which tier answered and how
/// many rows were computed), so replies from every tier compare equal.
fn normalize_reply(reply: &str) -> String {
    let mut out = reply.to_string();
    for field in ["\"disk_hits\":", "\"computed\":", "\"analytic_captures\":"] {
        if let Some(start) = out.find(field) {
            let end = out[start..].find(',').map_or(out.len(), |i| start + i + 1);
            out.replace_range(start..end, "");
        }
    }
    out
}

/// The committed reference: report digests and the counts every pass must
/// repeat.
pub struct Reference {
    digests: HashMap<String, u64>,
    counts: HashMap<String, BTreeMap<String, u64>>,
}

impl Reference {
    /// The reference compiled into the benchmark.
    pub fn committed() -> Reference {
        Reference::parse(include_str!("../reference/expected.txt"))
    }

    fn parse(text: &str) -> Reference {
        let mut digests = HashMap::new();
        let mut counts = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["digest", key, hex] => {
                    let value = u64::from_str_radix(hex, 16).expect("reference digest is hex");
                    digests.insert(key.to_string(), value);
                }
                ["counts", key, pairs @ ..] => {
                    let map = pairs
                        .iter()
                        .map(|pair| {
                            let (k, v) = pair.split_once('=').expect("reference count is k=v");
                            (k.to_string(), v.parse().expect("reference count is an integer"))
                        })
                        .collect();
                    counts.insert(key.to_string(), map);
                }
                _ => panic!("unreadable reference line {line:?}"),
            }
        }
        Reference { digests, counts }
    }

    /// The reference counts recorded under `key`.
    pub fn counts(&self, key: &str) -> Option<&BTreeMap<String, u64>> {
        self.counts.get(key)
    }

    /// Checks one output against its digest and its invariants.
    pub fn check(&self, output: &Output) -> Result<(), String> {
        let key = output.key();
        if let Output::Failed { error, .. } = output {
            return Err(format!("{key}: {error}"));
        }
        let digest = output.digest();
        match self.digests.get(key) {
            None => return Err(format!("{key}: no reference digest")),
            Some(&want) if want != digest => {
                return Err(format!("{key}: digest {digest:016x}, reference {want:016x}"))
            }
            Some(_) => {}
        }
        invariants(output).map_err(|e| format!("{key}: {e}"))
    }
}

/// The checks that need no reference file.
fn invariants(output: &Output) -> Result<(), String> {
    match output {
        Output::Estimate { est, expect_instr, model, d_max, expect_d, .. } => {
            if est.instructions != *expect_instr {
                return Err(format!(
                    "parsed {} instructions, generator predicts {expect_instr}",
                    est.instructions
                ));
            }
            let d_top = if d_max % 2 == 0 { d_max - 1 } else { *d_max };
            let d = (3..=d_top)
                .step_by(2)
                .find(|&d| model.program_error(d, est.patch_steps) <= est.budget)
                .ok_or("no distance meets the budget")?;
            if let Some(want) = expect_d {
                if d != *want {
                    return Err(format!("re-derived d = {d}, expected {want}"));
                }
            }
            for row in &est.rows {
                if row.distance != d {
                    return Err(format!("{}: d = {}, re-derived {d}", row.profile, row.distance));
                }
                let rounds = row.trapping_zones as u64 * est.logical_time_steps as u64 * d as u64;
                if row.qubit_rounds != rounds {
                    return Err(format!(
                        "{}: qubit_rounds {} != {rounds}",
                        row.profile, row.qubit_rounds
                    ));
                }
            }
            Ok(())
        }
        Output::Frontier { report, .. } => {
            let axes: Vec<(usize, f64)> =
                report.points.iter().map(|p| (p.physical_qubits, p.duration_s)).collect();
            let flags: Vec<bool> = report.points.iter().map(|p| p.on_frontier).collect();
            if flags != api::pareto_oracle(&axes) {
                return Err("frontier flags differ from the brute-force Pareto oracle".into());
            }
            Ok(())
        }
        Output::Sweep { result, .. } => {
            if result.rows.len() != 13 * 8 {
                return Err(format!("{} sweep rows, expected 104", result.rows.len()));
            }
            for row in &result.rows {
                let id = Instruction::all()
                    .iter()
                    .find(|i| i.name() == row.name)
                    .map(|i| i.id())
                    .ok_or_else(|| format!("unknown instruction {:?}", row.name))?;
                let &(_, steps, tiles) =
                    TABLE1_GOLDEN.iter().find(|(g, _, _)| *g == id).ok_or("missing golden")?;
                if (row.logical_time_steps, row.tiles) != (steps, tiles) {
                    return Err(format!(
                        "{id} d={}: ({}, {}) steps/tiles, Table 1 says ({steps}, {tiles})",
                        row.dx, row.logical_time_steps, row.tiles
                    ));
                }
            }
            Ok(())
        }
        Output::Reply { reply, expect_kind, .. } => match expect_kind {
            Some(kind) if !reply.ends_with(&format!("\"kind\":\"{kind}\"}}")) => {
                Err(format!("expected error kind {kind}, got {reply}"))
            }
            None if !reply.starts_with("{\"ok\":true") => Err(format!("request failed: {reply}")),
            _ => Ok(()),
        },
        Output::Failed { error, .. } => Err(error.clone()),
    }
}
