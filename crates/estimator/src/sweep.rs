//! The batched resource-estimation sweep engine (paper Sec. 3.4, grown into
//! a first-class subsystem).
//!
//! A [`SweepSpec`] describes a grid of `(instruction × dx × dz × dt)`
//! configurations. [`run_sweep`] resolves the grid through a
//! [`CompileCache`] (Tables 1–3 and repeated sweeps share primitives, so
//! identical configurations compile exactly once per cache lifetime), and
//! returns a [`SweepResult`] that renders as an aligned text table, CSV, or
//! JSON.
//!
//! The cache is keyed on the full configuration [`SweepKey`] — including a
//! fingerprint of the hardware profile, so the same workload compiled under
//! different [`HardwareSpec`]s never shares cache entries.
//! [`CompileCache::resolve`] is the one path from compile requests to rows,
//! behind every sweep, estimate, frontier and table: it deduplicates a
//! batch *before* its parallel fan-out, so even a cold sweep never compiles
//! the same configuration twice, and a warm sweep over an already seen spec
//! performs zero compilations while still reproducing every row in request
//! order. Hardware profiles are a first-class sweep axis:
//! [`SweepSpec::with_profiles`] turns "same workload, N hardware profiles"
//! into a one-line change.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use rayon::prelude::*;

use tiscc_core::instruction::Instruction;
use tiscc_core::CoreError;
use tiscc_hw::{HardwareSpec, SpecFingerprint};
use tiscc_telemetry::{json_f64, json_string, Span, Telemetry};

use crate::compiler::{compile_uncached, CompileRequest};
use crate::tables::{csv_header, render_csv, ResourceRow};

/// How the temporal code distance `dt` (rounds of error correction per
/// logical time-step) is chosen for each spatial configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DtPolicy {
    /// Use a fixed number of rounds for every configuration.
    Fixed(usize),
    /// Use `max(dx, dz)` rounds — the standard fault-tolerant choice the
    /// paper adopts for its scaling sweep (`dt = d`).
    EqualsDistance,
}

impl DtPolicy {
    /// Resolves the policy for a concrete `(dx, dz)` pair.
    pub fn resolve(self, dx: usize, dz: usize) -> usize {
        match self {
            DtPolicy::Fixed(dt) => dt,
            DtPolicy::EqualsDistance => dx.max(dz),
        }
    }
}

/// One fully resolved sweep configuration — the memoization key of the
/// [`CompileCache`]. The hardware profile participates through its
/// parameter fingerprint, so two profiles never collide in the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SweepKey {
    /// The instruction to compile.
    pub instruction: Instruction,
    /// X code distance.
    pub dx: usize,
    /// Z code distance.
    pub dz: usize,
    /// Rounds of error correction per logical time-step.
    pub dt: usize,
    /// Fingerprint of the hardware profile compiled under.
    pub spec: SpecFingerprint,
}

impl fmt::Display for SweepKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@dx{}dz{}dt{}#{}", self.instruction.id(), self.dx, self.dz, self.dt, self.spec)
    }
}

/// A batched sweep specification: the cross product of hardware profiles,
/// instructions, `(dx, dz)` distance pairs and dt policies.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Instructions to compile.
    pub instructions: Vec<Instruction>,
    /// `(dx, dz)` distance pairs.
    pub distances: Vec<(usize, usize)>,
    /// Temporal-distance policies (usually a single entry).
    pub dts: Vec<DtPolicy>,
    /// Hardware profiles to compile under (usually a single entry; the
    /// constructors default to [`HardwareSpec::h1`]).
    pub profiles: Vec<HardwareSpec>,
}

impl SweepSpec {
    /// A spec over explicit instructions and square distances `dx = dz = d`
    /// with the paper's `dt = d` policy, under the default profile.
    pub fn square(instructions: Vec<Instruction>, distances: &[usize]) -> Self {
        SweepSpec {
            instructions,
            distances: distances.iter().map(|&d| (d, d)).collect(),
            dts: vec![DtPolicy::EqualsDistance],
            profiles: vec![HardwareSpec::default()],
        }
    }

    /// The full paper sweep: **all 13** Table 1 instructions at every square
    /// distance `2 ≤ d ≤ dmax`, with `dt = d`, under the default profile.
    pub fn paper(dmax: usize) -> Self {
        let distances: Vec<usize> = (2..=dmax.max(2)).collect();
        SweepSpec::square(Instruction::all().to_vec(), &distances)
    }

    /// Replaces the hardware-profile axis: the whole grid is compiled once
    /// per profile.
    pub fn with_profiles(mut self, profiles: Vec<HardwareSpec>) -> Self {
        self.profiles = profiles;
        self
    }

    /// Expands the grid into compile requests, in deterministic request
    /// order (profile-major, then distance, then instruction, then dt
    /// policy), so a multi-profile sweep renders as one contiguous table
    /// per profile.
    pub fn requests(&self) -> Vec<CompileRequest> {
        let mut requests = Vec::with_capacity(self.len());
        for profile in &self.profiles {
            for &(dx, dz) in &self.distances {
                for &instruction in &self.instructions {
                    for &dt in &self.dts {
                        requests.push(
                            CompileRequest::new(instruction, dx, dz, dt.resolve(dx, dz))
                                .with_spec(profile.clone()),
                        );
                    }
                }
            }
        }
        requests
    }

    /// Number of grid points (including duplicates after dt resolution).
    pub fn len(&self) -> usize {
        self.instructions.len() * self.distances.len() * self.dts.len() * self.profiles.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A thread-safe memoization cache of compiled configurations.
///
/// Keys are full [`SweepKey`]s; values are the finished [`ResourceRow`]s
/// (the compiled circuit's space-time accounting). [`CompileCache::resolve`]
/// is the one path from compile requests to rows: library code touches the
/// map only from the calling thread, so one lock suffices. Hit/miss
/// counters are cumulative over the cache lifetime.
#[derive(Default)]
pub struct CompileCache {
    rows: Mutex<HashMap<SweepKey, ResourceRow>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// The rows of one [`CompileCache::resolve`] call and what that call cost.
#[derive(Debug)]
pub struct Resolved {
    /// One row per request, in request order.
    pub rows: Vec<ResourceRow>,
    /// Requests served from the cache, repeats within the batch included.
    pub hits: usize,
    /// Requests compiled by this call: one per distinct key the cache
    /// missed.
    pub computed: usize,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<SweepKey, ResourceRow>> {
        self.rows.lock().expect("compile cache poisoned")
    }

    /// Looks up a configuration without counting a hit or miss.
    pub fn peek(&self, key: &SweepKey) -> Option<ResourceRow> {
        self.lock().get(key).cloned()
    }

    /// Looks up a configuration, counting a hit or a miss.
    pub fn get(&self, key: &SweepKey) -> Option<ResourceRow> {
        let found = self.peek(key);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a compiled configuration.
    pub fn insert(&self, key: SweepKey, row: ResourceRow) {
        self.lock().insert(key, row);
    }

    /// Turns compile requests into rows, in request order. The first
    /// occurrence of each key is looked up once ([`CompileCache::get`]);
    /// later repeats in the batch count as hits without a lookup. Misses
    /// compile in parallel and are inserted on the calling thread. Every
    /// row that compiled stays cached even when another request fails; the
    /// call then returns the first error in request order.
    pub fn resolve(&self, requests: &[CompileRequest]) -> Result<Resolved, CoreError> {
        let keys: Vec<SweepKey> = requests.iter().map(CompileRequest::key).collect();
        // Each key's first occurrence: the one request that looks it up.
        let mut first: HashMap<SweepKey, usize> = HashMap::with_capacity(keys.len());
        let mut rows: Vec<Option<ResourceRow>> = Vec::with_capacity(keys.len());
        let mut missing = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if *first.entry(*key).or_insert(i) < i {
                self.hits.fetch_add(1, Ordering::Relaxed);
                rows.push(None);
                continue;
            }
            let row = self.get(key);
            if row.is_none() {
                missing.push(i);
            }
            rows.push(row);
        }

        let compiled: Vec<(usize, Result<ResourceRow, CoreError>)> = missing
            .into_par_iter()
            .map(|i| (i, compile_uncached(&requests[i]).map(|artifact| artifact.row())))
            .collect();
        let computed = compiled.len();
        let mut error = None;
        for (i, result) in compiled {
            match result {
                Ok(row) => {
                    self.insert(keys[i], row.clone());
                    rows[i] = Some(row);
                }
                Err(e) => {
                    error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = error {
            return Err(e);
        }

        for (i, key) in keys.iter().enumerate() {
            if first[key] < i {
                rows[i] = rows[first[key]].clone();
            }
        }
        Ok(Resolved {
            rows: rows.into_iter().map(|row| row.expect("every request resolved")).collect(),
            hits: keys.len() - computed,
            computed,
        })
    }

    /// Number of cached configurations.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no configurations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative lookup hits over the cache lifetime.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative lookup misses over the cache lifetime.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The outcome of one [`run_sweep`] call.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The resolved keys, in request order (parallel to `rows`).
    pub keys: Vec<SweepKey>,
    /// One row per grid point, in request order.
    pub rows: Vec<ResourceRow>,
    /// Requests served from the cache (including duplicates within the
    /// batch: every grid point after the first for a given key is a hit).
    pub cache_hits: usize,
    /// Requests that required a fresh compilation.
    pub cache_misses: usize,
    /// Wall-clock duration of the sweep, in seconds.
    pub elapsed_s: f64,
    /// Worker threads available to the parallel fan-out.
    pub threads: usize,
}

impl SweepResult {
    /// Renders the result as CSV (with header), identical to
    /// [`crate::tables::render_csv`].
    pub fn to_csv(&self) -> String {
        render_csv(&self.rows)
    }

    /// Renders the result as a self-describing JSON document, including the
    /// full per-operation native-gate counts that the CSV omits.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"tiscc.sweep.v1\",\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"cache\": {{ \"hits\": {}, \"misses\": {} }},\n",
            self.cache_hits, self.cache_misses
        ));
        out.push_str(&format!("  \"elapsed_s\": {},\n", json_f64(self.elapsed_s)));
        out.push_str("  \"rows\": [\n");
        for (i, (key, row)) in self.keys.iter().zip(&self.rows).enumerate() {
            let r = &row.resources;
            let mut counts = String::from("{");
            for (j, (op, n)) in r.op_counts.iter().enumerate() {
                if j > 0 {
                    counts.push_str(", ");
                }
                counts.push_str(&format!("{}: {}", json_string(op), n));
            }
            counts.push('}');
            out.push_str(&format!(
                "    {{ \"operation\": {}, \"instruction_id\": \"{}\", \"profile\": {}, \"spec_fingerprint\": \"{}\", \"dx\": {}, \"dz\": {}, \"dt\": {}, \"tiles\": {}, \"logical_time_steps\": {}, \"execution_time_s\": {}, \"area_m2\": {}, \"spacetime_volume_s_m2\": {}, \"trapping_zones\": {}, \"junctions\": {}, \"zone_seconds\": {}, \"active_zone_seconds\": {}, \"total_ops\": {}, \"measurements\": {}, \"op_counts\": {} }}{}\n",
                json_string(&row.name),
                key.instruction.id(),
                json_string(&row.profile),
                key.spec,
                key.dx,
                key.dz,
                key.dt,
                row.tiles,
                row.logical_time_steps,
                json_f64(r.execution_time_s),
                json_f64(r.area_m2),
                json_f64(r.spacetime_volume_s_m2),
                r.trapping_zones,
                r.junctions,
                json_f64(r.zone_seconds),
                json_f64(r.active_zone_seconds),
                r.total_ops,
                r.measurements,
                counts,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`SweepResult::to_csv`] to `path`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Writes [`SweepResult::to_json`] to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Runs `spec` against `cache`: resolves every grid point through
/// [`CompileCache::resolve`], which compiles each configuration not already
/// cached once, in parallel, and returns the rows in request order.
///
/// Compilation errors abort the sweep and are returned as-is; already
/// compiled configurations stay cached, so a retried sweep resumes from
/// where the failed one stopped.
pub fn run_sweep(spec: &SweepSpec, cache: &CompileCache) -> Result<SweepResult, CoreError> {
    run_sweep_with(spec, cache, &Telemetry::off().root("sweep"))
}

/// [`run_sweep`] with telemetry: the grid expansion and the resolution each
/// open a child span (`expand`, `compile`) under `parent`, and the sweep's
/// cache traffic is recorded as the `sweep.rows` / `sweep.cache_hits` /
/// `sweep.cache_misses` counters. Passing a span from [`Telemetry::off`]
/// makes this identical to [`run_sweep`].
pub fn run_sweep_with(
    spec: &SweepSpec,
    cache: &CompileCache,
    parent: &Span,
) -> Result<SweepResult, CoreError> {
    let started = Instant::now();
    let (requests, keys) = {
        let _expand = parent.child("expand");
        let requests = spec.requests();
        let keys: Vec<SweepKey> = requests.iter().map(CompileRequest::key).collect();
        (requests, keys)
    };
    let resolved = {
        let _compile = parent.child("compile");
        cache.resolve(&requests)?
    };

    parent.add("sweep.rows", keys.len() as u64);
    parent.add("sweep.cache_hits", resolved.hits as u64);
    parent.add("sweep.cache_misses", resolved.computed as u64);

    Ok(SweepResult {
        keys,
        rows: resolved.rows,
        cache_hits: resolved.hits,
        cache_misses: resolved.computed,
        elapsed_s: started.elapsed().as_secs_f64(),
        threads: rayon::current_num_threads(),
    })
}

/// Errors raised while parsing a sweep CSV artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct CsvParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CsvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep CSV line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvParseError {}

/// Parses a sweep CSV document (as produced by [`SweepResult::to_csv`] /
/// [`crate::tables::render_csv`]) back into rows.
///
/// The CSV format carries the scalar resource columns only; the parsed
/// rows therefore have empty `op_counts` and zeroed fields that are not
/// part of the CSV schema. Re-rendering parsed rows with
/// [`crate::tables::render_csv`] reproduces the input text exactly.
pub fn parse_csv(text: &str) -> Result<Vec<ResourceRow>, CsvParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) =
        lines.next().ok_or(CsvParseError { line: 1, message: "empty document".to_string() })?;
    if header != csv_header() {
        return Err(CsvParseError { line: 1, message: format!("unexpected header {header:?}") });
    }
    let mut rows = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 12 {
            return Err(CsvParseError {
                line: lineno,
                message: format!("expected 12 fields, found {}", fields.len()),
            });
        }
        fn num<T: std::str::FromStr>(
            fields: &[&str],
            i: usize,
            lineno: usize,
        ) -> Result<T, CsvParseError> {
            fields[i].parse().map_err(|_| CsvParseError {
                line: lineno,
                message: format!("field {} ({:?}) is not numeric", i + 1, fields[i]),
            })
        }
        let execution_time_s: f64 = num(&fields, 5, lineno)?;
        let trapping_zones: usize = num(&fields, 6, lineno)?;
        let total_ops: usize = num(&fields, 7, lineno)?;
        let area_m2: f64 = num(&fields, 8, lineno)?;
        let spacetime_volume_s_m2: f64 = num(&fields, 9, lineno)?;
        let active_zone_seconds: f64 = num(&fields, 10, lineno)?;
        rows.push(ResourceRow {
            name: fields[0].to_string(),
            dx: num(&fields, 1, lineno)?,
            dz: num(&fields, 2, lineno)?,
            tiles: num(&fields, 3, lineno)?,
            logical_time_steps: num(&fields, 4, lineno)?,
            profile: fields[11].to_string(),
            resources: tiscc_hw::ResourceReport {
                execution_time_s,
                area_m2,
                spacetime_volume_s_m2,
                trapping_zones,
                junctions: 0,
                zone_seconds: 0.0,
                active_zone_seconds,
                op_counts: Default::default(),
                total_ops,
                measurements: 0,
            },
            stats: Default::default(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec::square(
            vec![Instruction::PrepareZ, Instruction::Idle, Instruction::MeasureZ],
            &[2],
        )
    }

    #[test]
    fn paper_spec_covers_all_instructions_and_distances() {
        let spec = SweepSpec::paper(5);
        assert_eq!(spec.len(), 13 * 4);
        let requests = spec.requests();
        assert_eq!(requests.len(), spec.len());
        for request in &requests {
            assert_eq!(request.dt, request.dx, "paper sweep uses dt = d");
        }
    }

    #[test]
    fn cold_sweep_compiles_then_warm_sweep_hits() {
        let cache = CompileCache::new();
        let spec = small_spec();
        let cold = run_sweep(&spec, &cache).unwrap();
        assert_eq!(cold.cache_misses, spec.len());
        assert_eq!(cold.cache_hits, 0);
        let warm = run_sweep(&spec, &cache).unwrap();
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, spec.len());
        assert_eq!(cold.rows, warm.rows);
        assert_eq!(cache.len(), spec.len());
    }

    #[test]
    fn duplicate_grid_points_compile_once() {
        let cache = CompileCache::new();
        let mut spec = small_spec();
        // dt policies Fixed(2) and EqualsDistance resolve identically at
        // d=2, so every grid point is duplicated after resolution.
        spec.dts = vec![DtPolicy::Fixed(2), DtPolicy::EqualsDistance];
        let result = run_sweep(&spec, &cache).unwrap();
        assert_eq!(result.rows.len(), 6);
        assert_eq!(result.cache_misses, 3);
        assert_eq!(result.cache_hits, 3);
    }

    #[test]
    fn resolve_looks_up_each_key_once_and_keeps_request_order() {
        let cache = CompileCache::new();
        let idle = CompileRequest::new(Instruction::Idle, 2, 2, 1);
        let prep = CompileRequest::new(Instruction::PrepareZ, 2, 2, 1);
        let batch = [idle.clone(), prep.clone(), idle.clone(), idle, prep];
        let cold = cache.resolve(&batch).unwrap();
        assert_eq!((cold.computed, cold.hits), (2, 3));
        // One lookup (a miss) per distinct key and one compile each; the
        // repeats count as hits without a lookup.
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (2, 3, 2));
        let names: Vec<&str> = cold.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["Idle", "Prepare Z", "Idle", "Idle", "Prepare Z"]);
        assert_eq!(cold.rows[0], cold.rows[3]);

        // An all-hit batch compiles nothing and returns the same rows.
        let warm = cache.resolve(&batch).unwrap();
        assert_eq!((warm.computed, warm.hits), (0, 5));
        assert_eq!(warm.rows, cold.rows);
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (2, 8, 2));
    }

    #[test]
    fn a_failed_batch_keeps_the_rows_it_compiled() {
        let cache = CompileCache::new();
        let instructions = vec![Instruction::Idle, Instruction::PrepareZ];
        let err = run_sweep(&SweepSpec::square(instructions.clone(), &[2, 1]), &cache).unwrap_err();
        assert!(err.to_string().contains("dx=1"), "{err}");
        assert_eq!(cache.len(), 2, "the d = 2 rows stay cached");
        let retry = run_sweep(&SweepSpec::square(instructions, &[2]), &cache).unwrap();
        assert_eq!((retry.cache_misses, retry.cache_hits), (0, 2));

        // Of several failures, the first in request order is returned.
        let zero = CompileRequest::new(Instruction::Idle, 0, 0, 1);
        let one = CompileRequest::new(Instruction::Idle, 1, 1, 1);
        for (batch, first) in [([zero.clone(), one.clone()], "dx=0"), ([one, zero], "dx=1")] {
            let err = cache.resolve(&batch).unwrap_err();
            assert!(err.to_string().contains(first), "{err}");
        }
    }

    #[test]
    fn csv_round_trips_through_parse() {
        let cache = CompileCache::new();
        let result = run_sweep(&small_spec(), &cache).unwrap();
        let csv = result.to_csv();
        let parsed = parse_csv(&csv).unwrap();
        assert_eq!(parsed.len(), result.rows.len());
        assert_eq!(render_csv(&parsed), csv);
    }

    #[test]
    fn parse_csv_rejects_malformed_documents() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("bogus,header\n").is_err());
        let bad_row = format!("{}\nPrepare Z,2,2,1\n", csv_header());
        let err = parse_csv(&bad_row).unwrap_err();
        assert_eq!(err.line, 2);
        let not_numeric = format!("{}\nPrepare Z,x,2,1,1,0.1,9,10,1.0,0.1,0.01,h1\n", csv_header());
        assert!(parse_csv(&not_numeric).is_err());
    }

    #[test]
    fn profile_axis_multiplies_the_grid_and_separates_cache_entries() {
        let cache = CompileCache::new();
        let spec =
            SweepSpec::square(vec![Instruction::Idle], &[2]).with_profiles(HardwareSpec::presets());
        assert_eq!(spec.len(), 3);
        let result = run_sweep(&spec, &cache).unwrap();
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.cache_misses, 3, "each profile is its own cache entry");
        let profiles: Vec<&str> = result.rows.iter().map(|r| r.profile.as_str()).collect();
        assert_eq!(profiles, vec!["h1", "projected", "slow_junction"]);
        // Same workload, different physics: execution times must differ.
        let times: Vec<f64> = result.rows.iter().map(|r| r.resources.execution_time_s).collect();
        assert!(times[1] < times[0], "projected profile is faster than h1");
        // Accounting (ops, tiles, steps) is profile-independent.
        assert!(result
            .rows
            .iter()
            .all(|r| r.resources.total_ops == result.rows[0].resources.total_ops));
        // A warm re-run over the multi-profile grid is all hits.
        let warm = run_sweep(&spec, &cache).unwrap();
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.rows, result.rows);
    }

    #[test]
    fn json_document_is_well_formed_and_complete() {
        let cache = CompileCache::new();
        let result = run_sweep(&small_spec(), &cache).unwrap();
        let json = result.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"tiscc.sweep.v1\""));
        assert!(json.contains("\"instruction_id\": \"prepare_z\""));
        assert!(json.contains("\"op_counts\""));
        // Balanced braces/brackets (cheap structural sanity check).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Exactly one row object per grid point.
        assert_eq!(json.matches("\"operation\"").count(), result.rows.len());
    }

    #[test]
    fn dt_policy_resolution() {
        assert_eq!(DtPolicy::Fixed(4).resolve(3, 5), 4);
        assert_eq!(DtPolicy::EqualsDistance.resolve(3, 5), 5);
    }
}
