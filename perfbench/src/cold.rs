//! `compile-cold`: every request on a fresh compiler, so compilation
//! (fixture, passes, templating, report) carries the time. The requests mix
//! a few large jobs (the slowest sets the time) with many small ones.

use std::path::Path;
use std::time::Instant;

use rayon::prelude::*;

use crate::api::{
    self, CompileRequest, FrontierSpec, HardwareSpec, Instruction, LayoutSpec, LogicalProgram,
    Memo, ProgramEstimateSpec,
};
use crate::bench::{Class, Done, Workload};
use crate::check::Output;
use crate::frontend::EstimateRequest;
use crate::trace::Tracer;

const FRONTIER_DISTANCES: [usize; 6] = [3, 5, 7, 9, 11, 13];
const SWEEP_DMAX: usize = 9;

enum Request {
    Estimate(Box<EstimateRequest>),
    Frontier { key: String, name: String, text: String, spec: FrontierSpec },
    Sweep { key: String },
}

pub struct Cold {
    requests: Vec<Request>,
    /// The compilers of the last pass with every compile job they ran, for
    /// the validity replay.
    kept: Vec<(Memo, Vec<CompileRequest>)>,
}

fn kinds(text: &str) -> Vec<Instruction> {
    api::distinct_kinds(&api::parse("kinds", text).expect("benchmark programs parse"))
}

fn jobs(
    kinds: &[Instruction],
    distances: &[usize],
    profiles: &[HardwareSpec],
) -> Vec<CompileRequest> {
    let mut out = Vec::new();
    for profile in profiles {
        for &d in distances {
            for &kind in kinds {
                out.push(CompileRequest::new(kind, d, d, d).with_spec(profile.clone()));
            }
        }
    }
    out
}

impl Request {
    /// Runs the request on `memo`; returns its output and its compile jobs.
    fn run(&self, tr: &Tracer, memo: &Memo) -> (Output, Vec<CompileRequest>) {
        match self {
            Request::Estimate(request) => {
                let output = request.run(tr, memo);
                let jobs = match &output {
                    Output::Estimate { est, .. } => {
                        jobs(&kinds(&request.text), &[est.rows[0].distance], &request.spec.profiles)
                    }
                    _ => Vec::new(),
                };
                (output, jobs)
            }
            Request::Frontier { key, name, text, spec } => {
                let (hits, misses) = (memo.compiler.cache().hits(), memo.compiler.cache().misses());
                let result = tr.span("parse", || api::parse(name, text)).and_then(|program| {
                    tr.span("frontier", || api::frontier(&program, spec, &memo.compiler))
                });
                let jobs = jobs(&kinds(text), &FRONTIER_DISTANCES, &spec.profiles);
                tr.count("compile.cache_hits", (memo.compiler.cache().hits() - hits) as u64);
                tr.count("compile.cache_misses", (memo.compiler.cache().misses() - misses) as u64);
                let output = Output::from_result(
                    key.clone(),
                    result.map(|report| {
                        tr.count("frontier.jobs", report.stats.jobs as u64);
                        tr.count("frontier.computed", report.stats.computed as u64);
                        tr.count("frontier.disk_hits", report.stats.disk_hits as u64);
                        if tr.spans_on() {
                            let axes: Vec<(usize, f64)> = report
                                .points
                                .iter()
                                .map(|p| (p.physical_qubits, p.duration_s))
                                .collect();
                            std::hint::black_box(tr.span("pareto", || api::pareto(&axes)));
                            let ops: usize =
                                jobs.iter().filter_map(|j| api::memo_ops(&memo.compiler, j)).sum();
                            tr.count("compile.native_ops", ops as u64);
                        }
                        Output::Frontier { key: key.clone(), report }
                    }),
                );
                (output, jobs)
            }
            Request::Sweep { key } => {
                let result = tr.span("sweep", || api::sweep_paper(SWEEP_DMAX, &memo.compiler));
                let distances: Vec<usize> = (2..=SWEEP_DMAX).collect();
                let jobs = jobs(Instruction::all(), &distances, &[HardwareSpec::default()]);
                let output = Output::from_result(
                    key.clone(),
                    result.map(|result| {
                        tr.count("sweep.rows", result.rows.len() as u64);
                        tr.count("compile.cache_hits", result.cache_hits as u64);
                        tr.count("compile.cache_misses", result.cache_misses as u64);
                        if tr.spans_on() {
                            let ops: usize =
                                result.rows.iter().map(|r| r.resources.total_ops).sum();
                            tr.count("compile.native_ops", ops as u64);
                        }
                        Output::Sweep { key: key.clone(), result }
                    }),
                );
                (output, jobs)
            }
        }
    }
}

impl Workload for Cold {
    const NAME: &'static str = "compile-cold";

    fn setup(variant: u64, traced: bool, _scratch: &Path) -> (Self, f64) {
        let started = Instant::now();
        let teleport = api::teleportation();
        let adder = api::ripple_adder();
        let (teleport_text, adder_text) = (api::to_tql(&teleport), api::to_tql(&adder));
        let gen_ms = started.elapsed().as_secs_f64() * 1e3;

        let contended = HardwareSpec { simd_width: 2, ..HardwareSpec::slow_junction() };
        let estimate = |label: &str, program: &LogicalProgram, text: &str, profiles, expect_d| {
            Request::Estimate(Box::new(EstimateRequest {
                key: format!("{}/{label}", Self::NAME),
                name: program.name().to_string(),
                text: text.to_string(),
                spec: ProgramEstimateSpec::new(1e-9).with_profiles(profiles),
                expect_instr: program.len(),
                expect_d,
                reference: None,
            }))
        };
        let mut requests = vec![
            estimate(
                "teleport-h1-projected",
                &teleport,
                &teleport_text,
                vec![HardwareSpec::h1(), HardwareSpec::projected()],
                Some(19),
            ),
            estimate("adder-slow-junction-simd2", &adder, &adder_text, vec![contended], None),
            Request::Frontier {
                key: format!("{}/adder-frontier-row-checkerboard-8x8", Self::NAME),
                name: adder.name().to_string(),
                text: adder_text.clone(),
                spec: FrontierSpec::new(
                    vec![
                        LayoutSpec::row_major().with_grid(8, 8),
                        LayoutSpec::checkerboard().with_grid(8, 8),
                    ],
                    vec![HardwareSpec::h1(), HardwareSpec::projected()],
                )
                .with_distances(3, 13),
            },
            Request::Sweep { key: format!("{}/paper-sweep-d9", Self::NAME) },
        ];
        // The seed orders the requests.
        requests.rotate_left(variant as usize % 4);

        let off = Tracer::new(false);
        for request in &mut requests {
            let (output, _) = request.run(&off, &Memo::default());
            if let (Request::Estimate(r), Output::Estimate { est, .. }) = (&mut *request, output) {
                r.reference = Some(est);
            }
        }
        if traced {
            let warm = Tracer::new(true);
            for request in &requests {
                request.run(&warm, &Memo::default());
            }
        }
        (Cold { requests, kept: Vec::new() }, gen_ms)
    }

    fn pass(&mut self, tr: &Tracer) -> Vec<Done> {
        self.kept.clear();
        let mut done = Vec::with_capacity(self.requests.len());
        for request in &self.requests {
            let memo = Memo::default();
            let mut jobs = Vec::new();
            done.push(Done::timed(Class::Plain, || {
                let (output, j) = request.run(tr, &memo);
                jobs = j;
                output
            }));
            self.kept.push((memo, jobs));
        }
        done
    }

    /// Replays every distinct compile job of the last pass through the
    /// independent validity checker.
    fn verify(&mut self, tr: &Tracer) -> Vec<String> {
        let started = Instant::now();
        let mut work: Vec<(CompileRequest, Option<usize>)> = Vec::new();
        for (memo, jobs) in &self.kept {
            for job in jobs {
                if !work.iter().any(|(r, _)| r == job) {
                    work.push((job.clone(), api::memo_ops(&memo.compiler, job)));
                }
            }
        }
        let failures: Vec<String> = work
            .into_par_iter()
            .map(|(request, row_ops)| {
                match (api::replay_clean(&request), row_ops) {
                    (Ok(ops), Some(want)) if ops == want => None,
                    (Ok(ops), want) => {
                        Some(format!("replayed {ops} ops, compiled row has {want:?}"))
                    }
                    (Err(e), _) => Some(e),
                }
                .map(|e| {
                    format!(
                        "validity {:?} d={} {}: {e}",
                        request.instruction, request.dx, request.spec.name
                    )
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        tr.count("validity.violations", failures.len() as u64);
        tr.gauge_max("validity.ms", started.elapsed().as_secs_f64() * 1e3);
        failures
    }
}
