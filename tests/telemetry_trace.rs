//! End-to-end telemetry integration: estimating a real program under an
//! enabled recorder produces the documented span taxonomy with sane
//! timing, the JSON rendering round-trips through `trace_from_json`, and the
//! whole apparatus is inert (and allocation-free on the hot path) when
//! telemetry is off.

use tiscc::estimator::{estimate_program_with, Compiler, ProgramEstimateSpec};
use tiscc::hw::HardwareSpec;
use tiscc::program::examples;
use tiscc::telemetry::{trace_from_json, Telemetry, TraceFormat};

/// Runs one teleport estimate under an enabled recorder and returns the
/// snapshot.
fn traced_estimate() -> tiscc::telemetry::TraceReport {
    let program = examples::teleportation();
    let spec = ProgramEstimateSpec::new(1e-9).with_profiles(vec![HardwareSpec::h1()]);
    let tel = Telemetry::new_enabled();
    let root = tel.root("estimate");
    estimate_program_with(&program, &spec, &Compiler::new(), &root).unwrap();
    root.finish();
    tel.snapshot().unwrap()
}

/// The estimate pipeline records every documented phase, exactly once,
/// all parented under the root span.
#[test]
fn estimate_records_the_documented_span_taxonomy() {
    let trace = traced_estimate();
    assert_eq!(trace.roots(), vec!["estimate"]);
    let root_index =
        trace.spans.iter().position(|s| s.parent.is_none()).expect("root span missing");
    for phase in ["validate", "place", "schedule", "select_distance", "compile", "assemble"] {
        let hits: Vec<_> = trace.spans.iter().filter(|s| s.name == phase).collect();
        assert_eq!(hits.len(), 1, "expected exactly one {phase:?} span");
        assert_eq!(hits[0].parent, Some(root_index), "{phase} must parent to the root");
        assert!(hits[0].duration_us.is_some(), "{phase} span left open");
    }
    // Phase durations nest inside the root's wall clock.
    let root_span = &trace.spans[root_index];
    let root_end = root_span.start_us + root_span.duration_us.unwrap();
    for s in &trace.spans {
        assert!(s.start_us >= root_span.start_us, "{} starts before the root", s.name);
        let end = s.start_us + s.duration_us.unwrap();
        // Timer granularity can make a child's recorded end exceed the
        // root's by a hair; allow a small slop rather than a tight bound.
        assert!(end <= root_end + 50.0, "{} outlives the root", s.name);
    }
    // The scheduler counters describe the teleport program.
    let counter = |name: &str| trace.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert!(counter("compile.cache_misses").unwrap() > 0);
    assert_eq!(counter("compile.cache_hits"), Some(0));
    assert!(counter("schedule.routed_merges").is_some());
}

/// The `--trace=json` rendering parses back into an equivalent report.
#[test]
fn json_sink_round_trips_through_trace_from_json() {
    let trace = traced_estimate();
    let json = TraceFormat::Json.render(&trace);
    let parsed = trace_from_json(&json).unwrap();
    assert_eq!(parsed.spans.len(), trace.spans.len());
    for (a, b) in trace.spans.iter().zip(&parsed.spans) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.parent, b.parent);
    }
    assert_eq!(parsed.counters, trace.counters);
    // Span paths survive the round trip.
    let paths: Vec<String> = (0..parsed.spans.len()).map(|i| parsed.path(i)).collect();
    assert!(paths.contains(&"estimate/compile".to_string()), "{paths:?}");
}

/// With telemetry off, spans and counters record nothing and
/// `snapshot()` stays `None` — the disabled path is a no-op.
#[test]
fn disabled_telemetry_records_nothing() {
    let program = examples::teleportation();
    let spec = ProgramEstimateSpec::new(1e-9).with_profiles(vec![HardwareSpec::h1()]);
    let tel = Telemetry::off();
    let root = tel.root("estimate");
    estimate_program_with(&program, &spec, &Compiler::new(), &root).unwrap();
    root.finish();
    assert!(!tel.is_enabled());
    assert!(tel.snapshot().is_none());
    assert_eq!(tel.counter("compile.cache_misses"), 0);
}

/// `TraceFormat::parse` accepts the CLI's `--trace[=tree|json]` forms and
/// rejects anything else with a usable message.
#[test]
fn trace_format_parsing_matches_the_cli_flag_grammar() {
    assert!(matches!(TraceFormat::parse(""), Ok(TraceFormat::Tree)));
    assert!(matches!(TraceFormat::parse("tree"), Ok(TraceFormat::Tree)));
    assert!(matches!(TraceFormat::parse("json"), Ok(TraceFormat::Json)));
    let err = TraceFormat::parse("xml").unwrap_err();
    assert!(err.contains("tree"), "{err}");
    assert!(err.contains("json"), "{err}");
}

/// The frontier pipeline records its documented phases once each under
/// the root, with one `schedule` span per floorplan under `layout`.
#[test]
fn frontier_records_the_documented_span_taxonomy() {
    use tiscc::frontier::{run_frontier_with, FrontierSpec};
    use tiscc::program::LayoutSpec;

    let layouts = vec![LayoutSpec::default(), LayoutSpec::checkerboard().with_grid(4, 4)];
    let spec = FrontierSpec::new(layouts, vec![HardwareSpec::h1()]).with_distances(3, 5);
    let tel = Telemetry::new_enabled();
    let root = tel.root("frontier");
    run_frontier_with(&examples::bell_pair(), &spec, &Compiler::new(), None, &root).unwrap();
    root.finish();
    let trace = tel.snapshot().unwrap();

    assert_eq!(trace.roots(), vec!["frontier"]);
    let root_index =
        trace.spans.iter().position(|s| s.parent.is_none()).expect("root span missing");
    let only = |phase: &str| {
        let hits: Vec<usize> = (0..trace.spans.len())
            .filter(|&i| trace.spans[i].name == phase && trace.spans[i].parent == Some(root_index))
            .collect();
        assert_eq!(hits.len(), 1, "expected exactly one {phase:?} span under the root");
        assert!(trace.spans[hits[0]].duration_us.is_some(), "{phase} span left open");
        hits[0]
    };
    for phase in ["normalize", "resolve", "assemble", "pareto"] {
        only(phase);
    }
    let layout = only("layout");
    let schedules: Vec<_> = trace.spans.iter().filter(|s| s.name == "schedule").collect();
    assert_eq!(schedules.len(), 2, "one schedule span per floorplan");
    assert!(schedules.iter().all(|s| s.parent == Some(layout)), "schedule spans sit under layout");
    let paths: Vec<String> = (0..trace.spans.len()).map(|i| trace.path(i)).collect();
    assert!(paths.contains(&"frontier/layout/schedule".to_string()), "{paths:?}");
}
