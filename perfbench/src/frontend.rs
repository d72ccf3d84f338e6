//! `estimate-frontend`: program estimates against a warm compiler, so
//! parse, placement, scheduling and footprint assembly carry the time and
//! compile is memo hits only.

use std::path::Path;
use std::time::Instant;

use crate::api::{self, Family, GenSpec, LayoutSpec, Memo, ProgramEstimate, ProgramEstimateSpec};
use crate::bench::{Class, Done, Workload};
use crate::check::Output;
use crate::pipeline;
use crate::trace::Tracer;

/// One estimate request: a generated program as `.tql` text, re-parsed on
/// every request.
pub struct EstimateRequest {
    pub key: String,
    pub name: String,
    pub text: String,
    pub spec: ProgramEstimateSpec,
    pub expect_instr: usize,
    pub expect_d: Option<usize>,
    /// The library's own estimate, taken during set-up; traced passes
    /// rebuild it layer by layer.
    pub reference: Option<ProgramEstimate>,
}

impl EstimateRequest {
    /// Runs the request through `memo`: the one-call estimate untraced, the
    /// decomposed pipeline traced.
    pub fn run(&self, tr: &Tracer, memo: &Memo) -> Output {
        let result = if tr.spans_on() {
            let template = self.reference.as_ref().expect("traced set-up keeps the reference");
            pipeline::estimate(tr, memo, &self.name, &self.text, &self.spec, template)
        } else {
            let hits = memo.compiler.cache().hits();
            let misses = memo.compiler.cache().misses();
            let est = api::parse(&self.name, &self.text)
                .and_then(|program| api::estimate(&program, &self.spec, &memo.compiler));
            tr.count("compile.cache_hits", (memo.compiler.cache().hits() - hits) as u64);
            tr.count("compile.cache_misses", (memo.compiler.cache().misses() - misses) as u64);
            est
        };
        let est = match result {
            Ok(est) => est,
            Err(error) => return Output::Failed { key: self.key.clone(), error },
        };
        if !tr.spans_on() {
            tr.count("schedule.routing_stalls", est.routing_stalls as u64);
            tr.count("schedule.depth", est.depth as u64);
        }
        Output::Estimate {
            key: self.key.clone(),
            expect_instr: self.expect_instr,
            model: self.spec.model,
            d_max: self.spec.d_max,
            expect_d: self.expect_d,
            est,
        }
    }
}

pub struct Frontend {
    requests: Vec<EstimateRequest>,
    memo: Memo,
}

impl Workload for Frontend {
    const NAME: &'static str = "estimate-frontend";

    fn setup(variant: u64, traced: bool, _scratch: &Path) -> (Self, f64) {
        let seed = variant + 1;
        let inputs = [
            (
                "rct-100k-lane",
                GenSpec::new(Family::RandomCliffordT).with_n(100_000).with_seed(seed),
                LayoutSpec::single_lane(),
            ),
            (
                "rct-10k-checkerboard",
                GenSpec::new(Family::RandomCliffordT).with_n(10_000).with_seed(seed),
                LayoutSpec::checkerboard(),
            ),
            (
                "adder-9309-lane",
                GenSpec::new(Family::RippleCarryAdder).with_n(9309),
                LayoutSpec::single_lane(),
            ),
        ];
        let started = Instant::now();
        let mut requests: Vec<EstimateRequest> = inputs
            .into_iter()
            .map(|(label, gen, layout)| {
                let program = api::generate(&gen);
                EstimateRequest {
                    key: format!("{}/{label}/v{variant}", Self::NAME),
                    name: program.name().to_string(),
                    text: api::to_tql(&program),
                    spec: ProgramEstimateSpec::new(1e-9).with_layout(layout),
                    expect_instr: api::instruction_count(&gen),
                    expect_d: None,
                    reference: None,
                }
            })
            .collect();
        let gen_ms = started.elapsed().as_secs_f64() * 1e3;

        let memo = Memo::default();
        let off = Tracer::new(false);
        for request in &mut requests {
            if let Output::Estimate { est, .. } = request.run(&off, &memo) {
                request.reference = Some(est);
            }
        }
        if traced {
            let warm = Tracer::new(true);
            for request in &requests {
                request.run(&warm, &memo);
            }
        }
        (Frontend { requests, memo }, gen_ms)
    }

    fn pass(&mut self, tr: &Tracer) -> Vec<Done> {
        self.requests.iter().map(|r| Done::timed(Class::Plain, || r.run(tr, &self.memo))).collect()
    }
}
