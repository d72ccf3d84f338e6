//! The TISCC-rs benchmark: seeded workloads run in one process through the
//! library's public entry points, every output checked against committed
//! references, end-to-end metrics untraced and per-layer metrics from a
//! traced run.
//!
//! ```text
//! perfbench --workload <estimate-frontend|compile-cold|serve-session>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference        # prints reference/expected.txt
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The exit
//! code is non-zero when any check fails.

mod api;
mod bench;
mod check;
mod cold;
mod frontend;
mod measure;
mod pipeline;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::{Class, Done, Workload};
use check::Reference;
use measure::{cpu_time, median, peak_rss_mb, quantile, reset_peak_rss};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes per mode, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Distinct input variants; the seed picks one, so references cover all.
const VARIANTS: u64 = 8;
/// Where runs keep generated `.tql` files and disk caches.
const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// Self-time layers reported as a share of traced wall time:
/// `(metric, span)`.
const LAYER_SHARES: [(&str, &str); 13] = [
    ("parse.pct", "parse"),
    ("place.pct", "place"),
    ("schedule.pct", "schedule"),
    ("select_distance.pct", "select_distance"),
    ("compile.pct", "compile"),
    ("footprint.pct", "footprint"),
    ("estimate.self_pct", "estimate"),
    ("sweep.pct", "sweep"),
    ("frontier.pct", "frontier"),
    ("pareto.pct", "pareto"),
    ("serve.pct", "serve"),
    ("serve.parse_pct", "serve.parse"),
    ("disk.open_pct", "disk.open"),
];

/// Per-layer counts, identical on every pass of a run.
const LAYER_COUNTS: [&str; 21] = [
    "parse.instructions",
    "schedule.routing_stalls",
    "schedule.depth",
    "select_distance.d",
    "footprint.zones",
    "compile.cache_hits",
    "compile.cache_misses",
    "compile.native_ops",
    "compile.junction_stalls",
    "compile.batched_pulses",
    "sweep.rows",
    "frontier.jobs",
    "frontier.computed",
    "frontier.disk_hits",
    "disk.hits",
    "disk.misses",
    "disk.entries",
    "serve.hits",
    "serve.misses",
    "serve.expected_errors",
    "validity.violations",
];

/// Spans whose self time is compile work.
const COMPILE_BOUND: [&str; 3] = ["compile", "sweep", "frontier"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-reference"] {
        return Ok(None);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let number = |name: &str| get(name)?.parse::<u64>().map_err(|e| format!("{name}: {e}"));
    if let Some(extra) =
        flags.keys().find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(k))
    {
        return Err(format!("unknown flag {extra}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Some(Args {
        workload: get("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return write_reference(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let correct = match args.workload.as_str() {
        frontend::Frontend::NAME => run::<frontend::Frontend>(&args),
        cold::Cold::NAME => run::<cold::Cold>(&args),
        serve::Serve::NAME => run::<serve::Serve>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !correct {
        std::process::exit(1);
    }
}

/// One timed pass.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Resident-set high-water mark over the pass.
    peak_rss_mb: f64,
    done: Vec<Done>,
    counts: BTreeMap<&'static str, u64>,
    self_ms: BTreeMap<&'static str, f64>,
    gauges: BTreeMap<&'static str, f64>,
}

fn run_pass<W: Workload>(workload: &mut W, spans: bool) -> Pass {
    workload.prepare();
    reset_peak_rss();
    let tr = Tracer::new(spans);
    let cpu = cpu_time();
    let started = Instant::now();
    let done = workload.pass(&tr);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = (cpu_time() - cpu).as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    Pass {
        wall_s,
        cpu_s,
        peak_rss_mb,
        done,
        counts: tr.counts(),
        self_ms: tr.self_ms(),
        gauges: tr.gauges(),
    }
}

/// The run's scratch directory, inside the checkout.
fn scratch_dir(name: &str) -> PathBuf {
    Path::new(SCRATCH_ROOT).join(format!("{name}-{}", std::process::id()))
}

/// Removes a run's scratch directory, and the scratch root once empty.
fn remove_scratch(scratch: &Path) {
    let _ = std::fs::remove_dir_all(scratch);
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
}

/// Runs one workload and prints its report; returns whether every check
/// passed.
fn run<W: Workload>(args: &Args) -> bool {
    let variant = args.seed % VARIANTS;
    let scratch = scratch_dir(W::NAME);
    let (mut setup_s, mut gen_ms) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let started = Instant::now();
        let (workload, gen) = W::setup(variant, args.trace, &scratch);
        setup_s.push(started.elapsed().as_secs_f64());
        gen_ms.push(gen);
        state = Some(workload);
    }
    let mut workload = state.expect("at least one set-up");

    // Timed passes; a traced run alternates untraced and traced passes so
    // their ratio is the tracing overhead.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plain.len() < MIN_PASSES
        || (args.trace && traced.len() < MIN_PASSES)
        || started.elapsed().as_secs_f64() < args.seconds
    {
        plain.push(run_pass(&mut workload, false));
        if args.trace {
            traced.push(run_pass(&mut workload, true));
        }
    }

    // Everything below is outside the timed region.
    let verify = Tracer::new(false);
    let mut failures = workload.verify(&verify);
    remove_scratch(&scratch);
    let reference = Reference::committed();
    let (mut attempted, mut failed) = (0usize, 0usize);
    for done in plain.iter().chain(&traced).flat_map(|p| &p.done) {
        attempted += 1;
        if let Err(e) = reference.check(&done.output) {
            failed += 1;
            failures.push(e);
        }
    }
    failures.extend(decomposition_mismatches(&plain, &traced));
    for (mode, passes) in [("plain", &plain), ("traced", &traced)] {
        failures.extend(count_mismatches(&reference, W::NAME, variant, mode, passes));
    }
    let run_failures = failures.len().saturating_sub(failed);
    let failed = (failed + run_failures).min(attempted);
    let correct = failures.is_empty();

    print_facts(W::NAME, args, variant, &plain, &traced);
    println!("# failed_ratio {failed}/{attempted} = {}", failed as f64 / attempted as f64);
    for failure in failures.iter().take(20) {
        eprintln!("perfbench: FAILED {failure}");
    }
    let metrics = if args.trace {
        layer_metrics(&plain, &traced, &gen_ms, &verify)
    } else {
        end_to_end_metrics(&plain, &setup_s)
    };
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    correct
}

fn print_facts(name: &str, args: &Args, variant: u64, plain: &[Pass], traced: &[Pass]) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only a checkout with its own `.git` has a revision; git is not asked
    // to search the directories above it.
    let rev = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
    println!(
        "# machine nproc={nproc} rustc=\"{}\" git_rev={rev} profile={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    );
    let requests: usize = plain.iter().map(|p| p.done.len()).sum();
    println!(
        "# workload={name} seed={} variant={variant} seconds={} trace={} untraced_passes={} \
         traced_passes={} untraced_requests={requests}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plain.len(),
        traced.len()
    );
}

/// The end-to-end metrics, from the untraced passes.
fn end_to_end_metrics(plain: &[Pass], setup_s: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
    let peaks: Vec<f64> = plain.iter().map(|p| p.peak_rss_mb).collect();
    let latencies: Vec<f64> = plain.iter().flat_map(|p| p.done.iter().map(|d| d.ms)).collect();
    let n = latencies.len();
    println!(
        "# samples: setup_s n={}, wall_s/cpu_s n={}, latency n={n}",
        setup_s.len(),
        walls.len()
    );
    let list = |xs: &[f64]| xs.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    println!("# setup_s per set-up: {}", list(setup_s));
    println!("# wall_s per pass: {}", list(&walls));
    if n < 100 {
        println!(
            "# latency_p90_ms rests on {n} requests (< 100): read it as the slowest request kind"
        );
    }
    vec![
        ("setup_s", median(setup_s), "s"),
        ("wall_s", median(&walls), "s"),
        ("cpu_s", median(&cpus), "s"),
        ("requests_per_s", n as f64 / walls.iter().sum::<f64>(), "1/s"),
        ("latency_p50_ms", quantile(&latencies, 0.5), "ms"),
        ("latency_p90_ms", quantile(&latencies, 0.9), "ms"),
        ("peak_rss_mb", median(&peaks), "MiB"),
    ]
}

/// The per-layer metrics, from the traced passes.
fn layer_metrics(
    plain: &[Pass],
    traced: &[Pass],
    gen_ms: &[f64],
    verify: &Tracer,
) -> Vec<(&'static str, f64, &'static str)> {
    let wall_ms: f64 = traced.iter().map(|p| p.wall_s * 1e3).sum();
    let self_ms =
        |span: &str| traced.iter().filter_map(|p| p.self_ms.get(span)).fold(0.0, |a, b| a + b);
    let passes = traced.len() as f64;
    for (metric, span) in LAYER_SHARES {
        let ms = self_ms(span);
        if ms > 0.0 {
            println!(
                "# layer {span:<16} self {:>10.3} ms/pass  {:>6.2}% of traced wall  ({metric})",
                ms / passes,
                100.0 * ms / wall_ms
            );
        }
    }
    let first = &traced[0];
    let count = |name: &str| first.counts.get(name).copied().unwrap_or(0) as f64;
    if count("parse.instructions") > 0.0 {
        println!(
            "# parse.ns_per_instr {:.2}",
            self_ms("parse") / passes * 1e6 / count("parse.instructions")
        );
        println!(
            "# schedule.ns_per_instr {:.2}",
            self_ms("schedule") / passes * 1e6 / count("parse.instructions")
        );
    }
    for (name, value) in
        traced.iter().flat_map(|p| &p.gauges).fold(BTreeMap::new(), |mut m, (k, v)| {
            let slot: &mut f64 = m.entry(*k).or_insert(0.0);
            *slot = slot.max(*v);
            m
        })
    {
        println!("# gauge {name} {value:.3} (max over traced passes)");
    }
    for (name, value) in verify.gauges() {
        println!("# gauge {name} {value:.3} (verification step)");
    }
    let class_p50 = |class: Class| {
        let ms: Vec<f64> = traced
            .iter()
            .flat_map(|p| &p.done)
            .filter(|d| d.class == class)
            .map(|d| d.ms)
            .collect();
        (median(&ms), ms.iter().sum::<f64>())
    };
    let (hit_p50, hit_total) = class_p50(Class::Hit);
    let (miss_p50, miss_total) = class_p50(Class::Miss);
    if count("serve.hits") > 0.0 {
        println!("# serve.hit_p50_ms {hit_p50:.4}  serve.miss_p50_ms {miss_p50:.3}");
        println!(
            "# check serve-session: hits {} > misses {}, misses carry {:.1}% of request time",
            count("serve.hits"),
            count("serve.misses"),
            100.0 * miss_total / (hit_total + miss_total)
        );
    }
    let compile_bound_ms: f64 = COMPILE_BOUND.iter().map(|s| self_ms(s)).sum();
    println!(
        "# check compile-bound share (compile + sweep + frontier self) {:.1}% of traced wall",
        100.0 * compile_bound_ms / wall_ms
    );
    let mut ranked: Vec<(&str, f64)> = LAYER_SHARES.iter().map(|&(_, s)| (s, self_ms(s))).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "# check largest self times: {} then {}; compile.cache_misses {}",
        ranked[0].0,
        ranked[1].0,
        count("compile.cache_misses")
    );

    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let hits = count("compile.cache_hits");
    let misses = count("compile.cache_misses");
    let mut metrics = vec![("gen.ms", median(gen_ms), "ms")];
    for (metric, span) in LAYER_SHARES {
        metrics.push((metric, 100.0 * self_ms(span) / wall_ms, "%"));
    }
    for name in LAYER_COUNTS {
        let value = if name == "validity.violations" {
            verify.counts().get(name).copied().unwrap_or(0) as f64
        } else {
            count(name)
        };
        metrics.push((name, value, "count"));
    }
    metrics.push(("compile.jobs", hits + misses, "count"));
    metrics.push((
        "compile.hit_ratio",
        if hits + misses > 0.0 { 100.0 * hits / (hits + misses) } else { 0.0 },
        "%",
    ));
    let ops_per_s = if compile_bound_ms > 0.0 {
        count("compile.native_ops") * passes / (compile_bound_ms / 1e3)
    } else {
        0.0
    };
    metrics.push(("compile.native_ops_per_s", ops_per_s, "1/s"));
    metrics.push(("trace.overhead_ratio", traced_wall / plain_wall, "ratio"));
    metrics
}

/// The traced passes rebuild each estimate layer by layer; their reports
/// must match the one-call estimate's byte for byte.
fn decomposition_mismatches(plain: &[Pass], traced: &[Pass]) -> Vec<String> {
    let mut one_call: BTreeMap<&str, String> = BTreeMap::new();
    for done in plain.iter().flat_map(|p| &p.done) {
        if let check::Output::Estimate { key, est, .. } = &done.output {
            one_call.entry(key).or_insert_with(|| est.render());
        }
    }
    traced
        .iter()
        .flat_map(|p| &p.done)
        .filter_map(|done| match &done.output {
            check::Output::Estimate { key, est, .. }
                if one_call.get(key.as_str()) != Some(&est.render()) =>
            {
                Some(format!("{key}: decomposed pipeline report differs from estimate_program"))
            }
            _ => None,
        })
        .collect()
}

/// Every pass of a mode must repeat the same counts, and they must equal
/// the committed reference for the workload's input variant.
fn count_mismatches(
    reference: &Reference,
    name: &str,
    variant: u64,
    mode: &str,
    passes: &[Pass],
) -> Vec<String> {
    let Some(first) = passes.first() else { return Vec::new() };
    let mut out = Vec::new();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.counts != first.counts {
            out.push(format!(
                "{mode} pass {i}: counts {:?} differ from pass 0 {:?}",
                pass.counts, first.counts
            ));
        }
    }
    let key = format!("{name}/v{variant}/{mode}");
    let got: BTreeMap<String, u64> =
        first.counts.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    match reference.counts(&key) {
        Some(want) if *want == got => {}
        Some(want) => out.push(format!("{key}: counts {got:?}, reference {want:?}")),
        None => out.push(format!("{key}: no reference counts")),
    }
    out
}

/// Prints the reference file: digests of every output and the counts of
/// one untraced and one traced pass, for every workload and input variant.
fn write_reference() {
    println!("# Reference outputs of the benchmark's workloads: `digest <request> <fnv64>`");
    println!("# and the counts every pass must repeat. Regenerate with --write-reference.");
    reference_lines::<frontend::Frontend>();
    reference_lines::<cold::Cold>();
    reference_lines::<serve::Serve>();
}

fn reference_lines<W: Workload>() {
    let mut digests: BTreeMap<String, u64> = BTreeMap::new();
    for variant in 0..VARIANTS {
        let scratch = scratch_dir(W::NAME);
        let (mut workload, _) = W::setup(variant, true, &scratch);
        for (mode, spans) in [("plain", false), ("traced", true)] {
            let pass = run_pass(&mut workload, spans);
            for done in &pass.done {
                let digest = done.output.digest();
                let key = done.output.key().to_string();
                let previous = digests.insert(key.clone(), digest);
                assert!(
                    previous.is_none_or(|p| p == digest),
                    "{key}: outputs differ between passes"
                );
            }
            let counts: Vec<String> = pass.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("counts {}/v{variant}/{mode} {}", W::NAME, counts.join(" "));
        }
        remove_scratch(&scratch);
    }
    for (key, digest) in digests {
        println!("digest {key} {digest:016x}");
    }
}
