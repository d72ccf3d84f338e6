//! Renderers behind [`TraceFormat::render`](crate::TraceFormat::render).

use crate::TraceReport;

/// Formats a microsecond duration adaptively (µs / ms / s).
fn format_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.3} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

/// Renders the human-readable span tree with counter and gauge sections.
pub(crate) fn render_tree(trace: &TraceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("trace: total {}\n", format_us(trace.total_us)));

    // children[i] lists span indices whose parent is i; roots live apart.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); trace.spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, span) in trace.spans.iter().enumerate() {
        match span.parent {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }

    // Depth-first with explicit stack of (index, prefix, is_last).
    fn visit(
        out: &mut String,
        trace: &TraceReport,
        children: &[Vec<usize>],
        index: usize,
        prefix: &str,
        is_last: bool,
    ) {
        let span = &trace.spans[index];
        let connector = if is_last { "└─ " } else { "├─ " };
        let duration = match span.duration_us {
            Some(us) => format_us(us),
            None => "(open)".to_string(),
        };
        out.push_str(&format!("{prefix}{connector}{:<24} {duration:>12}\n", span.name));
        let child_prefix = format!("{prefix}{}", if is_last { "   " } else { "│  " });
        let kids = &children[index];
        for (k, &child) in kids.iter().enumerate() {
            visit(out, trace, children, child, &child_prefix, k + 1 == kids.len());
        }
    }

    for (r, &root) in roots.iter().enumerate() {
        visit(&mut out, trace, &children, root, "", r + 1 == roots.len());
    }

    if !trace.counters.is_empty() {
        out.push_str("counters:\n");
        let width = trace.counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &trace.counters {
            out.push_str(&format!("  {name:<width$}  {value}\n"));
        }
    }
    if !trace.gauges.is_empty() {
        out.push_str("gauges:\n");
        let width = trace.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &trace.gauges {
            out.push_str(&format!("  {name:<width$}  {value:?}\n"));
        }
    }
    out
}

/// Formats an `f64` as a JSON value: the shortest round-trip text, so the
/// literal parses back to the identical bits, and `null` for non-finite
/// values (JSON has no NaN or infinity). Every JSON document the system
/// emits writes its floats through this.
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes and quotes a string as a JSON string literal; control
/// characters become `\n`, `\r`, `\t` or `\u00XX` escapes.
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the one-line `tiscc.trace.v1` JSON document.
pub(crate) fn render_json(trace: &TraceReport) -> String {
    let mut out = String::from("{\"schema\":\"tiscc.trace.v1\"");
    out.push_str(&format!(",\"total_us\":{}", json_f64(trace.total_us)));

    out.push_str(",\"spans\":[");
    for (i, span) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"path\":{},\"parent\":{},\"start_us\":{},\"duration_us\":{}}}",
            json_string(&span.name),
            json_string(&trace.path(i)),
            match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            },
            json_f64(span.start_us),
            match span.duration_us {
                Some(us) => json_f64(us),
                None => "null".to_string(),
            },
        ));
    }
    out.push(']');

    out.push_str(",\"counters\":[");
    for (i, (name, value)) in trace.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":{},\"value\":{value}}}", json_string(name)));
    }
    out.push(']');

    out.push_str(",\"gauges\":[");
    for (i, (name, value)) in trace.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":{},\"value\":{}}}", json_string(name), json_f64(*value)));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample() -> TraceReport {
        let tel = Telemetry::new_enabled();
        let root = tel.root("estimate");
        root.child("parse").finish();
        {
            let compile = root.child("compile");
            compile.child("capture").finish();
        }
        root.finish();
        tel.add("compile.cache_hits", 7);
        tel.gauge("threads", 4.0);
        tel.snapshot().unwrap()
    }

    #[test]
    fn tree_renders_nesting_and_registries() {
        let tree = render_tree(&sample());
        assert!(tree.starts_with("trace: total "), "{tree}");
        assert!(tree.contains("└─ estimate"), "{tree}");
        assert!(tree.contains("├─ parse"), "{tree}");
        assert!(tree.contains("└─ compile"), "{tree}");
        assert!(tree.contains("└─ capture"), "{tree}");
        assert!(tree.contains("compile.cache_hits  7"), "{tree}");
        assert!(tree.contains("threads  4.0"), "{tree}");
        // capture is nested two levels deep under estimate/compile.
        let capture_line = tree.lines().find(|l| l.contains("capture")).unwrap();
        assert!(capture_line.starts_with("   "), "{capture_line:?}");
    }

    #[test]
    fn tree_marks_open_spans() {
        let tel = Telemetry::new_enabled();
        let _root = tel.root("serve");
        let tree = render_tree(&tel.snapshot().unwrap());
        assert!(tree.contains("(open)"), "{tree}");
    }

    #[test]
    fn format_us_adapts_units() {
        assert_eq!(format_us(12.5), "12.5 us");
        assert_eq!(format_us(1500.0), "1.500 ms");
        assert_eq!(format_us(2_500_000.0), "2.500 s");
    }

    #[test]
    fn json_is_single_line_with_schema_and_paths() {
        let json = render_json(&sample());
        assert!(json.ends_with('\n'));
        assert_eq!(json.trim_end().lines().count(), 1);
        assert!(json.contains("\"schema\":\"tiscc.trace.v1\""), "{json}");
        assert!(json.contains("\"path\":\"estimate/compile/capture\""), "{json}");
        assert!(json.contains("\"parent\":null"), "{json}");
        assert!(json.contains("{\"name\":\"compile.cache_hits\",\"value\":7}"), "{json}");
    }

    #[test]
    fn json_escapes_and_nulls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(1e-9), "1e-9");
    }
}
