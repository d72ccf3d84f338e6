//! The batched resource-estimation sweep engine (paper Sec. 3.4, grown into
//! a first-class subsystem).
//!
//! A [`SweepSpec`] describes a grid of `(instruction × dx × dz × dt)`
//! configurations. [`run_sweep`] fans the grid out over rayon worker
//! threads, memoizes every compiled configuration in a sharded concurrent
//! [`CompileCache`] (Tables 1–3 and repeated sweeps share primitives, so
//! identical configurations compile exactly once per cache lifetime), and
//! returns a [`SweepResult`] that renders as an aligned text table, CSV, or
//! JSON.
//!
//! The cache is keyed on the full configuration [`SweepKey`] — including a
//! fingerprint of the hardware profile, so the same workload compiled under
//! different [`HardwareSpec`]s never shares cache entries; requests are
//! deduplicated *before* the parallel fan-out, so even a cold sweep never
//! compiles the same configuration twice, and a warm sweep over an already
//! seen spec performs zero compilations while still reproducing every row in
//! request order. Hardware profiles are a first-class sweep axis:
//! [`SweepSpec::with_profiles`] turns "same workload, N hardware profiles"
//! into a one-line change.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;

use tiscc_core::instruction::Instruction;
use tiscc_core::CoreError;
use tiscc_hw::{HardwareSpec, SpecFingerprint};
use tiscc_telemetry::{json_f64, json_string, Span, Telemetry};

use crate::tables::{compile_instruction_row_with, csv_header, render_csv, ResourceRow};

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

    /// Expands the grid into resolved keys, in deterministic request order
    /// (profile-major, then distance, then instruction, then dt policy), so
    /// a multi-profile sweep renders as one contiguous table per profile.
    pub fn keys(&self) -> Vec<SweepKey> {
        let mut keys = Vec::with_capacity(self.len());
        for profile in &self.profiles {
            let spec = profile.fingerprint();
            for &(dx, dz) in &self.distances {
                for &instruction in &self.instructions {
                    for &dt in &self.dts {
                        keys.push(SweepKey { instruction, dx, dz, dt: dt.resolve(dx, dz), spec });
                    }
                }
            }
        }
        keys
    }

    /// The profile each [`SweepSpec::keys`] fingerprint resolves to.
    pub fn profiles_by_fingerprint(&self) -> HashMap<SpecFingerprint, &HardwareSpec> {
        self.profiles.iter().map(|p| (p.fingerprint(), p)).collect()
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

const SHARD_COUNT: usize = 16;

/// A sharded, thread-safe memoization cache of compiled configurations.
///
/// Keys are full [`SweepKey`]s; values are the finished [`ResourceRow`]s
/// (the compiled circuit's space-time accounting). Sharding by key hash
/// keeps lock contention negligible while rayon workers insert results
/// concurrently. Hit/miss counters are cumulative over the cache lifetime.
pub struct CompileCache {
    shards: Vec<Mutex<HashMap<SweepKey, ResourceRow>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::new()
    }
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompileCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: &SweepKey) -> &Mutex<HashMap<SweepKey, ResourceRow>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARD_COUNT]
    }

    /// Looks up a configuration without counting a hit or miss.
    pub fn peek(&self, key: &SweepKey) -> Option<ResourceRow> {
        self.shard(key).lock().expect("cache shard poisoned").get(key).cloned()
    }

    /// Looks up a configuration, counting a hit or a miss.
    pub fn get(&self, key: &SweepKey) -> Option<ResourceRow> {
        let found = self.peek(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a compiled configuration.
    pub fn insert(&self, key: SweepKey, row: ResourceRow) {
        self.shard(&key).lock().expect("cache shard poisoned").insert(key, row);
    }

    /// Number of cached configurations.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").len()).sum()
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

/// Runs `spec` against `cache`: deduplicates the grid, compiles every
/// configuration not already cached in parallel, and assembles the rows in
/// request order.
///
/// Compilation errors abort the sweep and are returned as-is; already
/// compiled configurations stay cached, so a retried sweep resumes from
/// where the failed one stopped.
pub fn run_sweep(spec: &SweepSpec, cache: &CompileCache) -> Result<SweepResult, CoreError> {
    run_sweep_with(spec, cache, &Telemetry::off().root("sweep"))
}

/// [`run_sweep`] with telemetry: the grid expansion/dedup, the compile
/// fan-out and the row assembly each open a child span (`expand`,
/// `compile`, `assemble`) under `parent`, and the sweep's cache traffic
/// is recorded as the `sweep.rows` / `sweep.cache_hits` /
/// `sweep.cache_misses` counters. Passing a span from [`Telemetry::off`]
/// makes this identical to [`run_sweep`].
pub fn run_sweep_with(
    spec: &SweepSpec,
    cache: &CompileCache,
    parent: &Span,
) -> Result<SweepResult, CoreError> {
    let started = Instant::now();
    let expand_span = parent.child("expand");
    let keys = spec.keys();
    let profiles = spec.profiles_by_fingerprint();

    // Deduplicate while preserving first-seen order; every later occurrence
    // of a key is by construction a cache hit.
    let mut seen: HashMap<SweepKey, ()> = HashMap::with_capacity(keys.len());
    let mut to_resolve: Vec<SweepKey> = Vec::new();
    for &key in &keys {
        if seen.insert(key, ()).is_none() {
            to_resolve.push(key);
        } else {
            cache.hits.fetch_add(1, Ordering::Relaxed);
        }
    }
    let duplicate_hits = keys.len() - to_resolve.len();

    // Partition the unique keys into cached and to-compile, counting
    // hits/misses on the shared cache.
    let missing: Vec<SweepKey> =
        to_resolve.iter().copied().filter(|key| cache.get(key).is_none()).collect();
    let unique_hits = to_resolve.len() - missing.len();
    expand_span.finish();

    // Parallel fan-out over the missing configurations only.
    let compile_span = parent.child("compile");
    let compiled: Vec<(SweepKey, ResourceRow)> = missing
        .into_par_iter()
        .map(|key| {
            let profile = profiles
                .get(&key.spec)
                .expect("every resolved key's fingerprint maps to a spec profile");
            compile_instruction_row_with(profile, key.instruction, key.dx, key.dz, key.dt)
                .map(|row| (key, row))
        })
        .collect::<Result<_, CoreError>>()?;
    let compiled_count = compiled.len();
    for (key, row) in compiled {
        cache.insert(key, row);
    }
    compile_span.finish();

    let assemble_span = parent.child("assemble");
    let rows: Vec<ResourceRow> =
        keys.iter().map(|key| cache.peek(key).expect("sweep key compiled or cached")).collect();
    assemble_span.finish();

    parent.add("sweep.rows", keys.len() as u64);
    parent.add("sweep.cache_hits", (duplicate_hits + unique_hits) as u64);
    parent.add("sweep.cache_misses", compiled_count as u64);

    Ok(SweepResult {
        keys,
        rows,
        cache_hits: duplicate_hits + unique_hits,
        cache_misses: compiled_count,
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
        let keys = spec.keys();
        assert_eq!(keys.len(), spec.len());
        for key in &keys {
            assert_eq!(key.dt, key.dx, "paper sweep uses dt = d");
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
