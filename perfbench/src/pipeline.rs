//! The estimate pipeline decomposed into its layers, one span each:
//! parse → place → schedule → select_distance → compile → footprint, with
//! the residual (kind collection, duration and row assembly) charged to the
//! enclosing `estimate` span. It must reproduce the library's
//! `estimate_program` report byte for byte; the traced run checks that.

use std::collections::HashMap;

use crate::api::ProgramEstimateSpec;
use crate::api::{self, CompileRequest, Instruction, Memo, ProfileEstimate, ProgramEstimate};
use crate::trace::Tracer;

/// Estimates the `.tql` program `text` under `spec` through `memo`, layer
/// by layer. `template` supplies the one row field the report does not
/// render at default knobs (the estimate mode); every other field is
/// rebuilt here.
pub fn estimate(
    tr: &Tracer,
    memo: &Memo,
    name: &str,
    text: &str,
    spec: &ProgramEstimateSpec,
    template: &ProgramEstimate,
) -> Result<ProgramEstimate, String> {
    tr.span("estimate", || {
        let program = tr.span("parse", || api::parse(name, text))?;
        tr.count("parse.instructions", program.len() as u64);
        let placement = tr.span("place", || api::place(&program, &spec.layout))?;
        let sched = tr.span("schedule", || api::schedule(&program, &placement))?;
        tr.count("schedule.routing_stalls", sched.routing_stalls as u64);
        tr.count("schedule.depth", sched.depth() as u64);
        let patch_steps = sched.patch_steps(placement.total_tiles());
        let (d, achieved_error) = tr.span("select_distance", || {
            api::select_distance(&spec.model, patch_steps, spec.budget, spec.d_max)
        })?;
        tr.count_max("select_distance.d", d as u64);

        let kinds = api::distinct_kinds(&program);
        let keys: Vec<(usize, Instruction)> =
            (0..spec.profiles.len()).flat_map(|p| kinds.iter().map(move |&k| (p, k))).collect();
        let requests = keys
            .iter()
            .map(|&(p, kind)| {
                CompileRequest::new(kind, d, d, d).with_spec(spec.profiles[p].clone())
            })
            .collect();
        let jobs = tr.span("compile", || memo.resolve(requests))?;
        let misses = jobs.iter().filter(|j| j.compiled_ops.is_some()).count() as u64;
        tr.count("compile.cache_misses", misses);
        tr.count("compile.cache_hits", jobs.len() as u64 - misses);
        tr.count(
            "compile.native_ops",
            jobs.iter().filter_map(|j| j.compiled_ops).sum::<usize>() as u64,
        );
        for job in &jobs {
            tr.gauge_max("compile.slowest_job_ms", job.ms);
        }
        let results: HashMap<(usize, Instruction), &api::Job> =
            keys.into_iter().zip(&jobs).collect();

        let (zones, area_m2) = tr.span("footprint", || api::footprint(&placement, d));
        tr.count("footprint.zones", zones as u64);

        let mut rows = Vec::with_capacity(spec.profiles.len());
        for (p, profile) in spec.profiles.iter().enumerate() {
            let duration_s: f64 = sched
                .steps
                .iter()
                .map(|step| {
                    step.instructions
                        .iter()
                        .map(|&i| results[&(p, program.instructions()[i].instruction)].time_s)
                        .fold(0.0, f64::max)
                })
                .sum();
            let (junction_stalls, batched_pulses) =
                program.instructions().iter().fold((0, 0), |(s, b), inst| {
                    let stats = results[&(p, inst.instruction)].stats;
                    (s + stats.junction_stalls, b + stats.batched_pulses)
                });
            tr.count("compile.junction_stalls", junction_stalls as u64);
            tr.count("compile.batched_pulses", batched_pulses as u64);
            let template_row = template.rows.get(p).ok_or("template has too few rows")?;
            rows.push(ProfileEstimate {
                profile: profile.name.clone(),
                distance: d,
                achieved_error,
                duration_s,
                trapping_zones: zones,
                area_m2,
                qubit_rounds: zones as u64 * sched.logical_time_steps as u64 * d as u64,
                junction_stalls,
                batched_pulses,
                ..template_row.clone()
            });
        }
        Ok(ProgramEstimate {
            program: program.name().to_string(),
            logical_qubits: program.qubit_count(),
            instructions: program.len(),
            tiles: placement.total_tiles(),
            layout: spec.layout,
            grid: (placement.tile_rows(), placement.tile_cols()),
            depth: sched.depth(),
            logical_time_steps: sched.logical_time_steps,
            max_parallelism: sched.max_parallelism(),
            routed_merges: sched.routed_merges(),
            parallel_merges: sched.parallel_merges,
            routing_stalls: sched.routing_stalls,
            patch_steps,
            budget: spec.budget,
            rows,
        })
    })
}
