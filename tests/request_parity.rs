//! One request schema behind both front ends: the same request, given as
//! CLI flag pairs or as a serve line, builds the same spec.

use tiscc::estimator::ProgramEstimateSpec;
use tiscc::frontier::request::{estimate_spec, frontier_spec};
use tiscc::frontier::serve::parse_flat_json;
use tiscc::frontier::FrontierSpec;
use tiscc::hw::HardwareSpec;
use tiscc::program::LayoutSpec;

type Request = (&'static [(&'static str, &'static str)], &'static str);

/// Estimate requests: defaults only, every shared key set, duplicated
/// list entries, and `layout` with `@RxC`.
const ESTIMATES: &[Request] = &[
    (&[], "{}"),
    (
        &[
            ("budget", "1e-3"),
            ("profile", "h1,projected"),
            ("dmax", "21"),
            ("p-phys", "2e-4"),
            ("p-th", "0.02"),
            ("prefactor", "0.05"),
            ("layout", "checkerboard@8x8"),
        ],
        r#"{"budget":1e-3,"profiles":"h1,projected","dmax":21,"p_phys":2e-4,"p_th":0.02,"prefactor":0.05,"layout":"checkerboard@8x8"}"#,
    ),
    (&[("profile", "projected, h1,projected,h1")], r#"{"profiles":"projected, h1,projected,h1"}"#),
    (&[("layout", "row@4x6")], r#"{"layout":"row@4x6"}"#),
];

/// Frontier requests: defaults only, every shared key set, and duplicated
/// list entries with `@RxC` layouts.
const FRONTIERS: &[Request] = &[
    (&[], "{}"),
    (
        &[
            ("layouts", "row,checkerboard@4x4"),
            ("dmin", "5"),
            ("dmax", "9"),
            ("profile", "h1,slow_junction"),
            ("p-phys", "2e-4"),
            ("p-th", "0.02"),
            ("prefactor", "0.05"),
        ],
        r#"{"layouts":"row,checkerboard@4x4","dmin":5,"dmax":9,"profiles":"h1,slow_junction","p_phys":2e-4,"p_th":0.02,"prefactor":0.05}"#,
    ),
    (
        &[("layouts", "lane,row@4x4,lane,row@4x4"), ("profile", "h1,h1,projected")],
        r#"{"layouts":"lane,row@4x4,lane,row@4x4","profiles":"h1,h1,projected"}"#,
    ),
];

fn flags(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect()
}

#[test]
fn flags_and_serve_lines_build_equal_estimate_specs() {
    let mut specs = Vec::new();
    for &(pairs, line) in ESTIMATES {
        let from_flags = estimate_spec(&flags(pairs)[..]).unwrap();
        let from_line = estimate_spec(&parse_flat_json(line).unwrap()[..]).unwrap();
        assert_eq!(from_flags, from_line, "{line}");
        assert!(!specs.contains(&from_flags), "{line} repeats an earlier spec");
        specs.push(from_flags);
    }
    assert_eq!(specs[0], ProgramEstimateSpec::default());
    assert_eq!(specs[2].profiles, vec![HardwareSpec::projected(), HardwareSpec::h1()]);
    assert_eq!(specs[3].layout, LayoutSpec::row_major().with_grid(4, 6));
}

#[test]
fn flags_and_serve_lines_build_equal_frontier_specs() {
    let mut specs = Vec::new();
    for &(pairs, line) in FRONTIERS {
        let from_flags = frontier_spec(&flags(pairs)[..]).unwrap();
        let from_line = frontier_spec(&parse_flat_json(line).unwrap()[..]).unwrap();
        assert_eq!(from_flags, from_line, "{line}");
        assert!(!specs.contains(&from_flags), "{line} repeats an earlier spec");
        specs.push(from_flags);
    }
    assert_eq!(
        specs[0],
        FrontierSpec::new(vec![LayoutSpec::default()], vec![HardwareSpec::default()])
    );
    assert_eq!(
        specs[2].layouts,
        vec![LayoutSpec::single_lane(), LayoutSpec::row_major().with_grid(4, 4)]
    );
    assert_eq!(specs[2].profiles, vec![HardwareSpec::h1(), HardwareSpec::projected()]);
}
