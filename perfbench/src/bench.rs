//! What a workload provides to the runner.

use std::path::Path;

use crate::check::Output;
use crate::trace::Tracer;

/// How a serve request was answered; other workloads' requests are plain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A request outside the serve workload.
    Plain,
    /// Answered from the compiler memo or the disk cache.
    Hit,
    /// Compiled (and, for frontier rows, persisted).
    Miss,
    /// A bad line answered with its error kind.
    Error,
}

/// One completed request.
pub struct Done {
    /// Request latency (ms), tracing included when traced.
    pub ms: f64,
    pub class: Class,
    pub output: Output,
}

impl Done {
    /// Runs `request`, timing it.
    pub fn timed(class: Class, request: impl FnOnce() -> Output) -> Done {
        let started = std::time::Instant::now();
        let output = request();
        Done { ms: started.elapsed().as_secs_f64() * 1e3, class, output }
    }
}

/// A benchmark workload: a closed loop of one client in one process.
pub trait Workload: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;

    /// Generates the inputs of input variant `variant` under `scratch` and
    /// warms up. Returns the state and the generation time (ms). With
    /// `traced`, the warm-up also fills what traced passes need.
    fn setup(variant: u64, traced: bool, scratch: &Path) -> (Self, f64);

    /// Untimed preparation before each pass.
    fn prepare(&mut self) {}

    /// One pass over the workload's request list. Counts go to `tr` on
    /// every pass; spans only when `tr` has them on.
    fn pass(&mut self, tr: &Tracer) -> Vec<Done>;

    /// Run-level verification after the timed region; returns failures.
    fn verify(&mut self, _tr: &Tracer) -> Vec<String> {
        Vec::new()
    }
}
