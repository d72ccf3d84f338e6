//! Text renderers for frontier results: CSV (with an exact parser) and
//! JSON.
//!
//! Floats are rendered with Rust's shortest-round-trip formatting
//! (`{:?}`), so `frontier_to_csv → matrix_from_csv` reproduces every
//! point **bit-for-bit** — the CI smoke test and the warm-start
//! equivalence test both lean on this.

use tiscc_program::LayoutSpec;
use tiscc_telemetry::{json_f64, json_string};

use crate::engine::{FrontierPoint, FrontierReport};

/// The CSV column header shared by the matrix and frontier renderers.
pub const CSV_HEADER: &str =
    "layout,grid,d,profile,physical_qubits,duration_s,qubit_rounds,error,area_m2,on_frontier";

/// Renders every matrix point (frontier and dominated alike) as CSV.
pub fn matrix_to_csv(report: &FrontierReport) -> String {
    to_csv(report.points.iter())
}

/// Renders only the Pareto-optimal points as CSV.
pub fn frontier_to_csv(report: &FrontierReport) -> String {
    to_csv(report.points.iter().filter(|p| p.on_frontier))
}

fn to_csv<'a>(points: impl Iterator<Item = &'a FrontierPoint>) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for p in points {
        let grid = match p.layout.grid {
            Some((r, c)) => format!("{r}x{c}"),
            None => format!("auto:{}x{}", p.grid.0, p.grid.1),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{:?},{},{:?},{:?},{}\n",
            p.layout.strategy.name(),
            grid,
            p.d,
            p.profile,
            p.physical_qubits,
            p.duration_s,
            p.qubit_rounds,
            p.error,
            p.area_m2,
            p.on_frontier
        ));
    }
    out
}

/// Parses CSV produced by [`matrix_to_csv`] / [`frontier_to_csv`] back
/// into points, bit-for-bit. Accepts `\n` and `\r\n` line endings.
pub fn matrix_from_csv(text: &str) -> Result<Vec<FrontierPoint>, String> {
    let mut lines = text.lines().map(|l| l.trim_end_matches('\r'));
    match lines.next() {
        Some(header) if header == CSV_HEADER => {}
        other => return Err(format!("bad frontier CSV header: {other:?}")),
    }
    let mut points = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 10 {
            return Err(format!("line {}: expected 10 fields, got {}", i + 2, fields.len()));
        }
        let bad = |what: &str| format!("line {}: malformed {what}", i + 2);
        let mut layout = LayoutSpec::by_name(fields[0]).map_err(|_| bad("layout strategy"))?;
        let grid_text = fields[1];
        let (explicit, dims) = match grid_text.strip_prefix("auto:") {
            Some(rest) => (false, rest),
            None => (true, grid_text),
        };
        let (rows, cols) = dims.split_once('x').ok_or_else(|| bad("grid"))?;
        let grid: (usize, usize) = (
            rows.parse().map_err(|_| bad("grid rows"))?,
            cols.parse().map_err(|_| bad("grid cols"))?,
        );
        if explicit {
            layout = layout.with_grid(grid.0, grid.1);
        }
        points.push(FrontierPoint {
            layout,
            grid,
            d: fields[2].parse().map_err(|_| bad("d"))?,
            profile: fields[3].to_string(),
            physical_qubits: fields[4].parse().map_err(|_| bad("physical_qubits"))?,
            duration_s: fields[5].parse().map_err(|_| bad("duration_s"))?,
            qubit_rounds: fields[6].parse().map_err(|_| bad("qubit_rounds"))?,
            error: fields[7].parse().map_err(|_| bad("error"))?,
            area_m2: fields[8].parse().map_err(|_| bad("area_m2"))?,
            on_frontier: fields[9].parse().map_err(|_| bad("on_frontier"))?,
        });
    }
    Ok(points)
}

/// Renders the whole report — program header, stats, and every point — as
/// a single JSON object. Floats use shortest-round-trip formatting;
/// non-finite values become `null`.
pub fn report_to_json(report: &FrontierReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"program\":{},", json_string(&report.program)));
    out.push_str(&format!("\"logical_qubits\":{},", report.logical_qubits));
    out.push_str(&format!("\"instructions\":{},", report.instructions));
    let s = &report.stats;
    out.push_str(&format!(
        "\"stats\":{{\"jobs\":{},\"disk_hits\":{},\"computed\":{},\"corrupt_entries\":{},\
         \"duplicates_dropped\":{}}},",
        s.jobs, s.disk_hits, s.computed, s.corrupt_entries, s.duplicates_dropped
    ));
    out.push_str("\"points\":[");
    for (i, p) in report.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&point_to_json(p));
    }
    out.push_str("]}");
    out
}

fn point_to_json(p: &FrontierPoint) -> String {
    let grid = match p.layout.grid {
        Some((r, c)) => format!("\"grid\":[{r},{c}],"),
        None => format!("\"grid\":null,\"auto_grid\":[{},{}],", p.grid.0, p.grid.1),
    };
    format!(
        "{{\"layout\":{},{}\"d\":{},\"profile\":{},\"physical_qubits\":{},\
         \"duration_s\":{},\"qubit_rounds\":{},\"error\":{},\"area_m2\":{},\"on_frontier\":{}}}",
        json_string(p.layout.strategy.name()),
        grid,
        p.d,
        json_string(&p.profile),
        p.physical_qubits,
        json_f64(p.duration_s),
        p.qubit_rounds,
        json_f64(p.error),
        json_f64(p.area_m2),
        p.on_frontier
    )
}

/// Renders the run's provenance — the `tiscc frontier --stats-json`
/// artifact — as a single JSON object: the [`FrontierStats`] fields plus
/// matrix/frontier sizes, the run's elapsed wall clock, and (when
/// tracing is active) the embedded `tiscc.trace.v1` document, `null`
/// otherwise. `trace_json` is spliced in verbatim, so it must already be
/// valid JSON.
///
/// [`FrontierStats`]: crate::engine::FrontierStats
pub fn stats_to_json(report: &FrontierReport, elapsed_s: f64, trace_json: Option<&str>) -> String {
    let s = &report.stats;
    format!(
        "{{\"schema\":\"tiscc.frontier-stats.v2\",\"program\":{},\
         \"matrix_points\":{},\"frontier_points\":{},\"jobs\":{},\"disk_hits\":{},\
         \"computed\":{},\"corrupt_entries\":{},\"duplicates_dropped\":{},\"elapsed_s\":{},\
         \"trace\":{}}}\n",
        json_string(&report.program),
        report.points.len(),
        report.frontier().len(),
        s.jobs,
        s.disk_hits,
        s.computed,
        s.corrupt_entries,
        s.duplicates_dropped,
        json_f64(elapsed_s),
        trace_json.map_or("null", str::trim_end),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_frontier;
    use crate::spec::FrontierSpec;
    use tiscc_estimator::compiler::Compiler;
    use tiscc_hw::HardwareSpec;
    use tiscc_program::examples;

    fn sample_report() -> FrontierReport {
        let program = examples::bell_pair();
        let compiler = Compiler::new();
        let spec = FrontierSpec::new(
            vec![LayoutSpec::default(), LayoutSpec::checkerboard().with_grid(4, 4)],
            vec![HardwareSpec::h1(), HardwareSpec::projected()],
        )
        .with_distances(3, 5);
        run_frontier(&program, &spec, &compiler, None).unwrap()
    }

    #[test]
    fn csv_round_trips_bit_for_bit() {
        let report = sample_report();
        let parsed = matrix_from_csv(&matrix_to_csv(&report)).unwrap();
        assert_eq!(parsed.len(), report.points.len());
        for (a, b) in report.points.iter().zip(&parsed) {
            assert_eq!(a, b);
            assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
            assert_eq!(a.error.to_bits(), b.error.to_bits());
            assert_eq!(a.area_m2.to_bits(), b.area_m2.to_bits());
        }
    }

    #[test]
    fn frontier_csv_is_a_subset_of_the_matrix() {
        let report = sample_report();
        let matrix = matrix_from_csv(&matrix_to_csv(&report)).unwrap();
        let frontier = matrix_from_csv(&frontier_to_csv(&report)).unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= matrix.len());
        for p in &frontier {
            assert!(p.on_frontier);
            assert!(matrix.contains(p), "frontier point missing from matrix: {p:?}");
        }
    }

    #[test]
    fn malformed_csv_is_rejected_with_line_numbers() {
        assert!(matrix_from_csv("nonsense\n").unwrap_err().contains("header"));
        let report = sample_report();
        let mut text = matrix_to_csv(&report);
        text.push_str("lane,auto:2x2,3,h1,12\n");
        assert!(matrix_from_csv(&text).unwrap_err().contains("expected 10 fields"));
        let garbled = matrix_to_csv(&report).replace(",3,", ",three,");
        assert!(matrix_from_csv(&garbled).unwrap_err().contains("malformed"));
    }

    #[test]
    fn json_contains_every_point_and_the_stats() {
        let report = sample_report();
        let json = report_to_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"program\":\"bell\""));
        assert!(json.contains("\"stats\":{\"jobs\":"));
        assert!(json.matches("\"on_frontier\":").count() == report.points.len());
        assert!(json.contains("\"grid\":[4,4]"));
        assert!(json.contains("\"auto_grid\":"));
    }
}
