//! The seeded spec generator: every experiment spec a workload submits
//! is a pure function of `(workload, seed, index)`, so any run can be
//! reproduced from the specs written beside its results.
//!
//! The *shape* of each workload's specs (grid axes, generator kinds, op
//! counts) is fixed; the seed only picks generator seeds, strides and
//! which result format or cached spec a request reads. Host cost therefore stays comparable across seeds
//! while no two jobs share a fingerprint.

use predllc_explore::json::Json;
use predllc_explore::ExperimentSpec;
use predllc_serve::Format;
use predllc_workload::rng::Rng64;
use predllc_workload::WorkloadSpec;

/// Cores of every generated spec.
const CORES: u64 = 4;

/// shared-sweep: per-core ops of every job. `wait_done` polls about 254
/// and 454 ms after submitting and every 200 ms after that, so
/// closed-loop latency moves in 200 ms steps. This size puts the run
/// (0.25–0.45 s on a 2-vCPU host, over the host speeds seen) between
/// those two polls, so host-speed swings between runs keep the median
/// job on the 454 ms poll.
const SWEEP_OPS: u64 = 12_000;
/// shared-sweep: per-core working sets, from fitting the private L2 to
/// sixteen times a private LLC partition.
const SWEEP_RANGES: [u64; 6] = [4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];

/// service-mix: many-row specs resubmitted as cache hits.
pub const MIX_CACHED: usize = 4;
/// service-mix: per-core ops of a fresh tiny spec.
const MIX_FRESH_OPS: u64 = 800;

/// fleet-sweep: workload rows of one job (times 4 configurations).
const FLEET_WORKLOADS: usize = 24;
/// fleet-sweep: per-core ops of one point. Small enough that a job's
/// dispatch phase (~60–120 ms on a 2-vCPU host) ends before the
/// coordinator's first 250 ms heartbeat tick even when the host is
/// slow, so every job waits for that same tick.
const FLEET_OPS: u64 = 1_000;

/// Generator kinds that take a seed, cycled over a spec's workload rows.
const SEEDED_KINDS: [&str; 3] = ["uniform", "hotcold", "chase"];

/// One generated job: the exact document submitted and how to read it
/// back.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The submitted spec document.
    pub text: String,
    /// The parsed spec (used for in-process reference runs and replays).
    pub spec: ExperimentSpec,
    /// Which result document the client streams back.
    pub format: Format,
}

impl JobSpec {
    fn new(doc: &Json, format: Format) -> JobSpec {
        let text = doc.render();
        let spec = ExperimentSpec::parse(&text).expect("generated specs are valid");
        JobSpec { text, spec, format }
    }

    /// Unique grid points the spec simulates.
    pub fn unique_points(&self) -> usize {
        predllc_explore::unique_point_count(&self.spec)
    }

    /// Memory operations simulated across the unique points.
    pub fn unique_ops(&self) -> u64 {
        let plan = predllc_explore::plan_grid(&self.spec);
        plan.unique
            .iter()
            .map(|&(_, wi)| {
                ops_per_core(&self.spec.workloads[wi].spec) * u64::from(self.spec.cores)
            })
            .sum()
    }
}

/// Per-core op count of a generator description.
pub fn ops_per_core(spec: &WorkloadSpec) -> u64 {
    let ops = match *spec {
        WorkloadSpec::Uniform { ops, .. }
        | WorkloadSpec::Stride { ops, .. }
        | WorkloadSpec::PointerChase { ops, .. }
        | WorkloadSpec::HotCold { ops, .. } => ops,
    };
    ops as u64
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

fn n(v: u64) -> Json {
    Json::UInt(v)
}

fn config(label: &str, kind: &str, sets: u64, ways: u64, mode: Option<&str>, banked: bool) -> Json {
    let mut partition = vec![("kind", s(kind)), ("sets", n(sets)), ("ways", n(ways))];
    if let Some(mode) = mode {
        partition.push(("mode", s(mode)));
    }
    let mut members = vec![("label", s(label)), ("partition", obj(partition))];
    if banked {
        members.push((
            "memory",
            obj(vec![
                ("kind", s("banked")),
                ("banks", n(8)),
                ("mapping", s("interleaved")),
            ]),
        ));
    }
    obj(members)
}

/// A seeded workload row of the given kind: only the generator seed
/// (or stride) comes from `rng`, so host cost does not depend on the
/// seed. Labels carry no commas so CSV rows split cleanly.
fn workload(rng: &mut Rng64, label: &str, kind: &str, range: u64, ops: u64) -> Json {
    let mut members = vec![
        ("label", s(label)),
        ("kind", s(kind)),
        ("range_bytes", n(range)),
        ("ops", n(ops)),
    ];
    match kind {
        "stride" => members.push(("stride", n(64 * (1 + rng.below(3))))),
        _ => members.push(("seed", n(rng.next_u64() >> 12))),
    }
    match kind {
        "uniform" => members.push(("write_fraction", Json::Float(0.2))),
        "hotcold" => members.push(("hot_fraction", Json::Float(0.25))),
        _ => {}
    }
    obj(members)
}

fn tasks() -> Json {
    let task = |name: &str, core: u64, period: u64, compute: u64, llc: u64| {
        obj(vec![
            ("name", s(name)),
            ("core", n(core)),
            ("period", n(period)),
            ("compute", n(compute)),
            ("llc_requests", n(llc)),
        ])
    };
    Json::Array(vec![
        task("control", 0, 1_000_000, 100_000, 900),
        task("vision", 1, 2_000_000, 300_000, 1_500),
        task("logging", 2, 4_000_000, 200_000, 2_000),
        task("comms", 3, 2_000_000, 150_000, 1_200),
    ])
}

fn search() -> Json {
    obj(vec![
        (
            "arrangements",
            Json::Array(vec![s("SS"), s("NSS"), s("private")]),
        ),
        ("max_sets", n(32)),
        ("max_ways", n(16)),
    ])
}

/// A per-job generator: distinct streams for distinct `(seed, index)`.
fn job_rng(seed: u64, salt: u64, index: u64) -> Rng64 {
    let mut mix = Rng64::new(seed ^ salt.rotate_left(32));
    let base = mix.next_u64();
    Rng64::new(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// shared-sweep job `index`: the paper's grid — SS and NSS shared
/// partitions plus a private baseline, on fixed and banked-interleaved
/// DRAM — over working sets from fitting a partition to 8× its size,
/// plus a taskset and partition search.
pub fn shared_sweep(seed: u64, index: u64) -> JobSpec {
    let mut rng = job_rng(seed, 1, index);
    let mut configs = Vec::new();
    for banked in [false, true] {
        let mem = if banked { "banked" } else { "fixed" };
        configs.push(config(
            &format!("ss-{mem}"),
            "shared",
            32,
            16,
            Some("SS"),
            banked,
        ));
        configs.push(config(
            &format!("nss-{mem}"),
            "shared",
            32,
            16,
            Some("NSS"),
            banked,
        ));
        configs.push(config(&format!("p-{mem}"), "private", 32, 4, None, banked));
    }
    let workloads = SWEEP_RANGES
        .iter()
        .enumerate()
        .map(|(i, &range)| {
            workload(
                &mut rng,
                &format!("ws{}k", range >> 10),
                SEEDED_KINDS[i % SEEDED_KINDS.len()],
                range,
                SWEEP_OPS,
            )
        })
        .collect();
    let doc = obj(vec![
        ("name", s(&format!("shared-sweep-{seed}-{index}"))),
        ("cores", n(CORES)),
        ("configs", Json::Array(configs)),
        ("workloads", Json::Array(workloads)),
        ("tasks", tasks()),
        ("search", search()),
    ]);
    let format = if rng.chance(0.5) {
        Format::Csv
    } else {
        Format::Json
    };
    JobSpec::new(&doc, format)
}

/// service-mix cached spec `index`: a many-row grid whose rows mostly
/// collapse onto few physical points (every configuration is declared
/// three times under different labels), so resubmitting it exercises
/// parse, fingerprint, registry and a long streamed render while the
/// engine does nothing.
pub fn mix_cached(seed: u64, index: u64) -> JobSpec {
    let mut rng = job_rng(seed, 2, index);
    let mut configs = Vec::new();
    for copy in 0..3 {
        for banked in [false, true] {
            let mem = if banked { "banked" } else { "fixed" };
            configs.push(config(
                &format!("ss-{mem}-{copy}"),
                "shared",
                16,
                8,
                Some("SS"),
                banked,
            ));
            configs.push(config(
                &format!("p-{mem}-{copy}"),
                "private",
                16,
                2,
                None,
                banked,
            ));
        }
    }
    let workloads = (0..20u64)
        .map(|w| {
            workload(
                &mut rng,
                &format!("w{w}"),
                ["uniform", "hotcold", "chase", "stride"][w as usize % 4],
                (4 << 10) << (w / 4 % 4),
                200,
            )
        })
        .collect();
    let doc = obj(vec![
        ("name", s(&format!("service-cached-{seed}-{index}"))),
        ("cores", n(CORES)),
        ("configs", Json::Array(configs)),
        ("workloads", Json::Array(workloads)),
        ("tasks", tasks()),
        ("search", search()),
    ]);
    JobSpec::new(&doc, Format::Csv)
}

/// The same document with every object's keys in reverse order and
/// pretty-printed: a different byte string with the same canonical
/// fingerprint, so its submission must be a cache hit.
pub fn reordered(text: &str) -> String {
    fn reverse(doc: &Json) -> Json {
        match doc {
            Json::Object(members) => Json::Object(
                members
                    .iter()
                    .rev()
                    .map(|(k, v)| (k.clone(), reverse(v)))
                    .collect(),
            ),
            Json::Array(items) => Json::Array(items.iter().map(reverse).collect()),
            other => other.clone(),
        }
    }
    let doc = predllc_explore::json::parse(text).expect("generated specs parse");
    reverse(&doc).render_pretty()
}

/// service-mix fresh spec `index`: a tiny grid that simulates for a few
/// milliseconds; one in four asks for latency attribution and is read
/// back as the attribution document.
pub fn mix_fresh(seed: u64, index: u64) -> JobSpec {
    let mut rng = job_rng(seed, 3, index);
    let attribution = rng.chance(0.25);
    let configs = vec![
        config("ss", "shared", 16, 8, Some("SS"), false),
        config("p-banked", "private", 16, 2, None, true),
    ];
    let workloads = (0..2u64)
        .map(|w| {
            workload(
                &mut rng,
                &format!("w{w}"),
                SEEDED_KINDS[w as usize % SEEDED_KINDS.len()],
                8 << 10,
                MIX_FRESH_OPS,
            )
        })
        .collect();
    let mut members = vec![
        ("name", s(&format!("service-fresh-{seed}-{index}"))),
        ("cores", n(CORES)),
        ("configs", Json::Array(configs)),
        ("workloads", Json::Array(workloads)),
    ];
    let format = if attribution {
        members.push(("attribution", Json::Bool(true)));
        Format::Attribution
    } else if rng.chance(0.5) {
        Format::Csv
    } else {
        Format::Json
    };
    JobSpec::new(&obj(members), format)
}

/// fleet-sweep job `index`: many small, all-distinct points (seeded
/// kinds only, so no point fingerprint repeats across jobs and every
/// point crosses the point wire).
pub fn fleet_sweep(seed: u64, index: u64) -> JobSpec {
    let mut rng = job_rng(seed, 4, index);
    let configs = vec![
        config("ss-fixed", "shared", 16, 8, Some("SS"), false),
        config("nss-fixed", "shared", 16, 8, Some("NSS"), false),
        config("p-fixed", "private", 16, 2, None, false),
        config("p-banked", "private", 16, 2, None, true),
    ];
    let workloads = (0..FLEET_WORKLOADS as u64)
        .map(|w| {
            workload(
                &mut rng,
                &format!("w{w}"),
                SEEDED_KINDS[w as usize % SEEDED_KINDS.len()],
                (4 << 10) << (w / 3 % 3),
                FLEET_OPS,
            )
        })
        .collect();
    let doc = obj(vec![
        ("name", s(&format!("fleet-sweep-{seed}-{index}"))),
        ("cores", n(CORES)),
        ("configs", Json::Array(configs)),
        ("workloads", Json::Array(workloads)),
    ]);
    let format = if rng.chance(0.5) {
        Format::Csv
    } else {
        Format::Json
    };
    JobSpec::new(&doc, format)
}
