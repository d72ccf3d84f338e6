//! Command-line entry point regenerating the paper's tables and figures.
//!
//! Usage: `tiscc-report <experiment> [distances...]` where `<experiment>` is
//! one of `table1`, `table2`, `table3`, `table5`, `fig2`, `fig3`, `fig4`,
//! `fig6`, `resources`, `verification`, or `all`.
//!
//! Every distance must be an integer of at least 2 (default: 2 and 3). A bad
//! argument exits 2 naming it; a failed compile exits 1.

use tiscc_estimator::sweep::{run_sweep, CompileCache, SweepSpec};
use tiscc_estimator::verify::{process_map_of, Fiducial, SingleTile};
use tiscc_estimator::{experiments, tables};
use tiscc_hw::HardwareSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("all");
    let mut distances = Vec::new();
    for arg in args.iter().skip(1) {
        match arg.parse::<usize>() {
            Ok(d) if d >= 2 => distances.push(d),
            _ => {
                eprintln!("tiscc-report: invalid distance '{arg}': expected an integer >= 2");
                std::process::exit(2);
            }
        }
    }
    if distances.is_empty() {
        distances = vec![2, 3];
    }

    let h1 = HardwareSpec::default();
    match experiment {
        "table1" => print_rows(
            "Table 1: local lattice-surgery instruction set",
            tables::table1_rows(&h1, &distances, 2),
        ),
        "table2" => {
            print_rows("Table 2: primitive operations", tables::table2_rows(&h1, distances[0], 2))
        }
        "table3" => print_rows(
            "Table 3: derived instruction set",
            tables::table3_rows(&h1, distances[0], 2),
        ),
        "table5" => println!("{}", tables::table5(&h1)),
        "fig2" => println!("{}", experiments::arrangements_report(distances[0], distances[0])),
        "fig3" => println!("{}", experiments::operator_movement_report(distances[0].max(3))),
        "fig4" => match experiments::translation_report(distances[0]) {
            Ok((text, report)) => {
                println!("{text}");
                println!("{}", report.render());
            }
            Err(e) => fail(&format!("fig4: {e}")),
        },
        "fig6" => println!("{}", experiments::patterns_report()),
        "resources" => print_rows(
            "Sec. 3.4 resource-estimation sweep (dt = d)",
            run_sweep(
                &SweepSpec::square(tables::RESOURCE_SWEEP_OPS.to_vec(), &distances),
                &CompileCache::new(),
            )
            .map(|result| result.rows),
        ),
        "verification" => run_verification(),
        "all" => {
            println!("{}", tables::table5(&h1));
            print_rows("Table 1", tables::table1_rows(&h1, &distances, 2));
            print_rows("Table 2", tables::table2_rows(&h1, distances[0], 2));
            print_rows("Table 3", tables::table3_rows(&h1, distances[0], 2));
            println!("{}", experiments::arrangements_report(3, 3));
            println!("{}", experiments::operator_movement_report(3));
            println!("{}", experiments::patterns_report());
            run_verification();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

fn print_rows(title: &str, rows: Result<Vec<tables::ResourceRow>, tiscc_core::CoreError>) {
    match rows {
        Ok(rows) => {
            println!("{}", tables::render_rows(title, &rows));
            println!("{}", tables::render_csv(&rows));
        }
        Err(e) => fail(&format!("error compiling {title}: {e}")),
    }
}

/// Reports a failed compile and exits 1.
fn fail(message: &str) -> ! {
    eprintln!("tiscc-report: {message}");
    std::process::exit(1);
}

fn run_verification() {
    println!("Sec. 4 verification (state preparation + identity of Idle):");
    for fiducial in Fiducial::all() {
        let mut fixture = SingleTile::new(2, 2, 1).expect("fixture");
        fiducial.prepare(&mut fixture.hw, &mut fixture.patch).expect("prepare");
        let run = fixture.simulate(17);
        let bloch = fixture.logical_bloch(&run);
        println!(
            "  prepare {:?}: bloch = ({:+.1}, {:+.1}, {:+.1}) target {:?}",
            fiducial,
            bloch.x,
            bloch.y,
            bloch.z,
            fiducial.bloch()
        );
    }
    let idle =
        process_map_of(3, 3, 1, 23, |hw, patch| patch.idle(hw).map(|_| ())).expect("idle map");
    println!(
        "  Idle process map deviation from identity: {:.3e}",
        idle.max_deviation(&tiscc_orqcs::ProcessMap::identity())
    );
}
