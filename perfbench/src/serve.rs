//! `serve-session`: one serve session fed a seeded request stream. Most
//! requests repeat and are answered from the compiler memo or the disk
//! cache; first-seen configurations compile and persist; a few bad lines
//! must come back with their exact error kind; halfway the server restarts
//! on the same cache directory, after which frontier requests are disk hits
//! and estimate requests recompile.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::api::{self, DiskCache, Family, GenSpec, ServeState};
use crate::bench::{Class, Done, Workload};
use crate::check::Output;
use crate::trace::Tracer;

/// Seeded repeats sent after each first-seen configuration.
const REPEATS: usize = 2;

#[derive(Clone)]
struct Line {
    key: String,
    text: String,
    expect_kind: Option<&'static str>,
}

enum Step {
    Send(Line),
    Restart,
}

pub struct Serve {
    configs: Vec<Line>,
    stream: Vec<Step>,
    cache_dir: PathBuf,
}

/// SplitMix64: a tiny seeded generator for the stream's repeats.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn bad_lines() -> [Line; 2] {
    [
        Line {
            key: "serve-session/malformed".into(),
            text: "{\"cmd\":\"estimate\",\"program\":".into(),
            expect_kind: Some("malformed_json"),
        },
        Line {
            key: "serve-session/unknown-op".into(),
            text: "{\"cmd\":\"explode\"}".into(),
            expect_kind: Some("unknown_op"),
        },
    ]
}

struct Session {
    state: ServeState,
}

impl Session {
    fn open(tr: &Tracer, dir: &Path) -> Session {
        let disk = tr.span("disk.open", || api::open_disk(dir));
        Session { state: ServeState::new(Some(disk)) }
    }

    fn disk(&self) -> &DiskCache {
        self.state.disk.as_ref().expect("sessions always have a disk cache")
    }

    /// Adds this session's memo and disk counters to `tr`.
    fn close(self, tr: &Tracer) {
        let cache = self.state.compiler.cache();
        tr.count("compile.cache_hits", cache.hits() as u64);
        tr.count("compile.cache_misses", cache.misses() as u64);
        tr.count("disk.hits", self.disk().hits() as u64);
        tr.count("disk.misses", self.disk().misses() as u64);
    }

    fn send(&self, tr: &Tracer, line: &Line) -> Done {
        let misses = self.state.compiler.cache().misses();
        let entries = self.disk().len();
        let started = Instant::now();
        if tr.spans_on() {
            std::hint::black_box(tr.span("serve.parse", || api::parse_request(&line.text)).ok());
        }
        let reply = tr.span("serve", || api::handle_line(&line.text, &self.state));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let class = if line.expect_kind.is_some() {
            Class::Error
        } else if self.state.compiler.cache().misses() > misses || self.disk().len() > entries {
            Class::Miss
        } else {
            Class::Hit
        };
        let output = Output::Reply { key: line.key.clone(), reply, expect_kind: line.expect_kind };
        Done { ms, class, output }
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve-session";

    fn setup(variant: u64, _traced: bool, scratch: &Path) -> (Self, f64) {
        let started = Instant::now();
        let specs = [
            GenSpec::new(Family::GhzChain).with_n(16),
            GenSpec::new(Family::RippleCarryAdder).with_n(4),
            GenSpec::new(Family::Qft).with_n(4),
            GenSpec::new(Family::TeleportChain).with_n(6),
            GenSpec::new(Family::IsingTrotter).with_n(3),
        ];
        let programs_dir = scratch.join("programs");
        fs::create_dir_all(&programs_dir).expect("scratch directory is writable");
        let mut configs = Vec::new();
        for spec in &specs {
            let program = api::generate(spec);
            let stem = program.name().to_string();
            let path = programs_dir.join(format!("{stem}.tql"));
            fs::write(&path, api::to_tql(&program)).expect("scratch directory is writable");
            let path = path.to_str().expect("scratch paths are UTF-8").to_string();
            let mut add = |body: String| {
                configs.push(Line {
                    key: format!("{}/{}", Self::NAME, body.replace("@PROGRAM", &stem)),
                    text: body.replace("@PROGRAM", &path),
                    expect_kind: None,
                });
            };
            for budget in ["1e-6", "1e-9"] {
                add(format!(
                    "{{\"cmd\":\"estimate\",\"program\":\"@PROGRAM\",\"budget\":{budget},\"profiles\":\"h1\"}}"
                ));
            }
            add(
                "{\"cmd\":\"frontier\",\"program\":\"@PROGRAM\",\"layouts\":\"lane,checkerboard\",\
                 \"dmin\":3,\"dmax\":9,\"profiles\":\"h1\"}"
                    .to_string(),
            );
        }
        let gen_ms = started.elapsed().as_secs_f64() * 1e3;

        // Each half sends every configuration once, in a fixed order, each
        // followed by seeded repeats of what the half has seen; the bad
        // lines land at seeded points.
        let mut rng = SplitMix(variant);
        let mut stream = Vec::new();
        for half in 0..2 {
            if half == 1 {
                stream.push(Step::Restart);
            }
            let bad_at: Vec<usize> = bad_lines().iter().map(|_| rng.below(configs.len())).collect();
            for (i, config) in configs.iter().enumerate() {
                stream.push(Step::Send(config.clone()));
                for _ in 0..REPEATS {
                    stream.push(Step::Send(configs[rng.below(i + 1)].clone()));
                }
                for (bad, &at) in bad_lines().into_iter().zip(&bad_at) {
                    if at == i {
                        stream.push(Step::Send(bad));
                    }
                }
            }
        }
        let mut serve = Serve { configs, stream, cache_dir: scratch.join("cache") };
        serve.prepare();
        serve.pass(&Tracer::new(false));
        (serve, gen_ms)
    }

    fn prepare(&mut self) {
        // Every session starts on an empty cache directory.
        if self.cache_dir.exists() {
            fs::remove_dir_all(&self.cache_dir).expect("scratch directory is writable");
        }
    }

    fn pass(&mut self, tr: &Tracer) -> Vec<Done> {
        let mut session = Session::open(tr, &self.cache_dir);
        let mut done = Vec::with_capacity(self.stream.len());
        for step in &self.stream {
            match step {
                Step::Send(line) => done.push(session.send(tr, line)),
                Step::Restart => {
                    session.close(tr);
                    session = Session::open(tr, &self.cache_dir);
                }
            }
        }
        tr.count("disk.entries", session.disk().len() as u64);
        session.close(tr);
        for d in &done {
            let class = match d.class {
                Class::Hit => "serve.hits",
                Class::Miss => "serve.misses",
                Class::Error => "serve.expected_errors",
                Class::Plain => unreachable!("serve requests are classified"),
            };
            tr.count(class, 1);
        }
        done
    }

    /// Answers every configuration and bad line once on a cold server
    /// without a disk cache; the runner checks these replies against the
    /// same reference digests as the session's memory- and disk-tier ones.
    fn verify(&mut self, _tr: &Tracer) -> Vec<String> {
        let cold = ServeState::new(None);
        let reference = crate::check::Reference::committed();
        self.configs
            .iter()
            .chain(bad_lines().iter())
            .filter_map(|line| {
                let output = Output::Reply {
                    key: line.key.clone(),
                    reply: api::handle_line(&line.text, &cold),
                    expect_kind: line.expect_kind,
                };
                reference.check(&output).err().map(|e| format!("cold answer: {e}"))
            })
            .collect()
    }
}
