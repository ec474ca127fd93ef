//! Content-addressed hashing for experiment specs and grid points.
//!
//! Deterministic simulation makes results perfectly memoizable — the
//! same spec never needs to be simulated twice — but memoization needs a
//! stable identity. This module provides it without external
//! dependencies (the build is network-isolated, like the in-tree JSON
//! codec):
//!
//! * [`Fnv1a`] — the classic 64-bit FNV-1a hasher, streamed byte by
//!   byte, with a seedable basis so independent passes decorrelate.
//! * [`Fingerprint`] — a 128-bit content address assembled from two
//!   differently-seeded FNV-1a passes; collision odds on realistic
//!   working sets (thousands of specs) are negligible where a single
//!   64-bit pass would be marginal.
//! * [`canonical_fingerprint`] — the fingerprint of a parsed JSON
//!   document with object keys **sorted**, so two spec files that differ
//!   only in key order (or whitespace, which parsing already erases)
//!   address the same cached result.
//! * [`point_fingerprint`] — the fingerprint of one grid point's
//!   simulation inputs (platform + workload, labels excluded), the key
//!   `run_spec` dedups identical points on.

use crate::json::Json;
use crate::spec::{ConfigSpec, Partitioning, WorkloadEntry};
use predllc_core::SharingMode;
use predllc_dram::{BankMapping, MemoryConfig};
use predllc_workload::WorkloadSpec;

/// The 64-bit FNV-1a offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use predllc_explore::hash::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"hello");
/// // The classic FNV-1a test vector.
/// assert_eq!(h.finish(), 0xa430d84680aabd0b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the standard offset basis.
    pub const fn new() -> Self {
        Fnv1a {
            state: OFFSET_BASIS,
        }
    }

    /// A hasher whose basis is perturbed by `seed`, for independent
    /// passes over the same data.
    pub const fn with_seed(seed: u64) -> Self {
        // Folding the seed through one multiply decorrelates the basis
        // even for small seeds.
        Fnv1a {
            state: (OFFSET_BASIS ^ seed).wrapping_mul(PRIME),
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string (the prefix keeps adjacent
    /// strings from colliding with their concatenation).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

/// A 128-bit content address: two independently-seeded FNV-1a passes
/// over the same canonical byte stream.
///
/// Renders as (and parses from) 32 lowercase hex characters — the
/// experiment IDs the service hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl Fingerprint {
    /// Assembles a fingerprint from its two halves.
    pub const fn from_halves(hi: u64, lo: u64) -> Self {
        Fingerprint { hi, lo }
    }

    /// The 32-character lowercase hex form.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the 32-character hex form back into a fingerprint.
    pub fn parse_hex(text: &str) -> Option<Fingerprint> {
        if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(Fingerprint {
            hi: u64::from_str_radix(&text[..16], 16).ok()?,
            lo: u64::from_str_radix(&text[16..], 16).ok()?,
        })
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Hashes a canonical byte-stream description of `value` into both
/// passes.
struct Passes {
    a: Fnv1a,
    b: Fnv1a,
}

impl Passes {
    fn new() -> Self {
        Passes {
            a: Fnv1a::new(),
            b: Fnv1a::with_seed(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn u64(&mut self, v: u64) {
        self.a.write_u64(v);
        self.b.write_u64(v);
    }

    fn str(&mut self, s: &str) {
        self.a.write_str(s);
        self.b.write_str(s);
    }

    fn finish(self) -> Fingerprint {
        Fingerprint::from_halves(self.a.finish(), self.b.finish())
    }
}

// Type tags keep values of different types from colliding (`0` vs
// `false` vs `""`).
const TAG_NULL: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_UINT: u64 = 2;
const TAG_FLOAT: u64 = 3;
const TAG_STR: u64 = 4;
const TAG_ARRAY: u64 = 5;
const TAG_OBJECT: u64 = 6;

fn hash_json(p: &mut Passes, value: &Json) {
    match value {
        Json::Null => p.u64(TAG_NULL),
        Json::Bool(b) => {
            p.u64(TAG_BOOL);
            p.u64(u64::from(*b));
        }
        Json::UInt(v) => {
            p.u64(TAG_UINT);
            p.u64(*v);
        }
        Json::Float(v) => {
            p.u64(TAG_FLOAT);
            // -0.0 and 0.0 compare equal; hash them equal too.
            let v = if *v == 0.0 { 0.0 } else { *v };
            p.u64(v.to_bits());
        }
        Json::Str(s) => {
            p.u64(TAG_STR);
            p.str(s);
        }
        Json::Array(items) => {
            p.u64(TAG_ARRAY);
            p.u64(items.len() as u64);
            for item in items {
                hash_json(p, item);
            }
        }
        Json::Object(members) => {
            p.u64(TAG_OBJECT);
            p.u64(members.len() as u64);
            // Key order is presentation, not content: sort. The parser
            // rejects duplicate keys, so the sort is a permutation.
            let mut sorted: Vec<&(String, Json)> = members.iter().collect();
            sorted.sort_by(|x, y| x.0.cmp(&y.0));
            for (key, val) in sorted {
                p.str(key);
                hash_json(p, val);
            }
        }
    }
}

/// The content address of a parsed JSON document, insensitive to object
/// key order (and to the formatting that parsing already erases).
///
/// # Examples
///
/// ```
/// use predllc_explore::hash::canonical_fingerprint;
/// use predllc_explore::json;
///
/// let a = json::parse(r#"{"cores": 2, "name": "x"}"#).unwrap();
/// let b = json::parse(r#"{ "name":"x", "cores":2 }"#).unwrap();
/// assert_eq!(canonical_fingerprint(&a), canonical_fingerprint(&b));
/// ```
pub fn canonical_fingerprint(doc: &Json) -> Fingerprint {
    let mut p = Passes::new();
    hash_json(&mut p, doc);
    p.finish()
}

fn hash_memory(p: &mut Passes, memory: &MemoryConfig) {
    match memory {
        MemoryConfig::FixedLatency { latency } => {
            p.u64(0);
            p.u64(latency.as_u64());
        }
        MemoryConfig::Banked {
            timing,
            geometry,
            mapping,
        } => {
            p.u64(1);
            p.u64(timing.t_rcd);
            p.u64(timing.t_rp);
            p.u64(timing.t_cas);
            p.u64(timing.t_wr);
            p.u64(timing.t_bus);
            p.u64(u64::from(geometry.channels()));
            p.u64(u64::from(geometry.banks_per_channel()));
            p.u64(u64::from(geometry.row_lines()));
            p.u64(match mapping {
                BankMapping::Interleaved => 0,
                BankMapping::BankPrivate => 1,
            });
        }
        MemoryConfig::WorstCaseOf(inner) => {
            p.u64(2);
            hash_memory(p, inner);
        }
        // `MemoryConfig` is non_exhaustive; an unknown future variant
        // must not silently collide with an existing one.
        other => {
            p.u64(u64::MAX);
            p.str(&format!("{other:?}"));
        }
    }
}

fn hash_workload(p: &mut Passes, spec: &WorkloadSpec) {
    match spec {
        WorkloadSpec::Uniform {
            range_bytes,
            ops,
            seed,
            write_fraction,
        } => {
            p.u64(0);
            p.u64(*range_bytes);
            p.u64(*ops as u64);
            p.u64(*seed);
            p.u64(write_fraction.to_bits());
        }
        WorkloadSpec::Stride {
            range_bytes,
            stride,
            ops,
        } => {
            p.u64(1);
            p.u64(*range_bytes);
            p.u64(*stride);
            p.u64(*ops as u64);
        }
        WorkloadSpec::PointerChase {
            range_bytes,
            ops,
            seed,
        } => {
            p.u64(2);
            p.u64(*range_bytes);
            p.u64(*ops as u64);
            p.u64(*seed);
        }
        WorkloadSpec::HotCold {
            range_bytes,
            ops,
            seed,
            hot_fraction,
            hot_probability,
        } => {
            p.u64(3);
            p.u64(*range_bytes);
            p.u64(*ops as u64);
            p.u64(*seed);
            p.u64(hot_fraction.to_bits());
            p.u64(hot_probability.to_bits());
        }
    }
}

/// The fingerprint of one grid point's **simulation inputs**: core
/// count, partitioning, memory backend, TDM schedule and workload
/// description. Report labels and x-axis values are presentation and do
/// not participate, so two differently-labelled but physically identical
/// points share a fingerprint — exactly the points `run_spec` simulates
/// once.
///
/// `attribution` participates only when **on** (the byte stream of an
/// attribution-off point is unchanged from before the flag existed):
/// attribution never changes the simulation, but an attribution-on
/// point's measurement carries extra data, so the two must not share a
/// cache slot in a fleet coordinator's measurement cache.
pub fn point_fingerprint(
    cores: u16,
    config: &ConfigSpec,
    workload: &WorkloadEntry,
    attribution: bool,
) -> Fingerprint {
    hash_point(cores, config, workload, attribution, true)
}

/// The fingerprint of the engine-run group an attribution-off grid
/// point belongs to: [`point_fingerprint`] without the memory backend
/// and without a shared partition's sharing mode. A backend never moves
/// simulated time, so the points of one mode share a run, each on its
/// own (twin) backend; and a set-sequenced run whose queues never held
/// two requests is also the best-effort run (see
/// [`measure`](crate::measure)), so both modes share one group.
///
/// This is the one rule for what may differ inside a group:
/// [`plan_grid`](crate::plan_grid) groups points by it, and
/// [`PointRequest::parse`](crate::PointRequest::parse) refuses a twin
/// whose fingerprint differs from the first point's.
pub(crate) fn run_fingerprint(
    cores: u16,
    config: &ConfigSpec,
    workload: &WorkloadEntry,
) -> Fingerprint {
    hash_point(cores, config, workload, false, false)
}

/// With `point` off, the fingerprint of the run group: the memory
/// backend and the sharing mode stay out.
fn hash_point(
    cores: u16,
    config: &ConfigSpec,
    workload: &WorkloadEntry,
    attribution: bool,
    point: bool,
) -> Fingerprint {
    let mut p = Passes::new();
    if attribution {
        p.str("attribution");
    }
    p.u64(u64::from(cores));
    match &config.partitioning {
        Partitioning::SharedAll { sets, ways, mode } => {
            p.u64(0);
            p.u64(u64::from(*sets));
            p.u64(u64::from(*ways));
            if point {
                p.u64(match mode {
                    SharingMode::SetSequencer => 0,
                    SharingMode::BestEffort => 1,
                });
            }
        }
        Partitioning::PrivateEach { sets, ways } => {
            p.u64(1);
            p.u64(u64::from(*sets));
            p.u64(u64::from(*ways));
        }
    }
    if point {
        hash_memory(&mut p, &config.memory);
    }
    match &config.schedule {
        None => p.u64(0),
        Some(owners) => {
            p.u64(1);
            p.u64(owners.len() as u64);
            for &owner in owners {
                p.u64(u64::from(owner));
            }
        }
    }
    hash_workload(&mut p, &workload.spec);
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec::ExperimentSpec;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        for (input, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325u64),
            (&b"a"[..], 0xaf63_dc4c_8601_ec8c),
            (&b"foobar"[..], 0x85944171f73967e8),
        ] {
            let mut h = Fnv1a::new();
            h.write(input);
            assert_eq!(h.finish(), want, "for {input:?}");
        }
        // Seeded passes diverge from the unseeded one.
        let mut s = Fnv1a::with_seed(1);
        s.write(b"foobar");
        assert_ne!(s.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprints_render_and_parse_hex() {
        let fp = Fingerprint::from_halves(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let hex = fp.to_hex();
        assert_eq!(hex, "0123456789abcdeffedcba9876543210");
        assert_eq!(Fingerprint::parse_hex(&hex), Some(fp));
        assert_eq!(hex, fp.to_string());
        assert_eq!(Fingerprint::parse_hex("xyz"), None);
        assert_eq!(Fingerprint::parse_hex(&hex[..31]), None);
    }

    #[test]
    fn key_order_is_canonicalized_but_values_are_not() {
        let a = json::parse(r#"{"x": 1, "y": [true, null], "z": {"a": 1, "b": 2}}"#).unwrap();
        let b = json::parse(r#"{"z": {"b": 2, "a": 1}, "y": [true, null], "x": 1}"#).unwrap();
        assert_eq!(canonical_fingerprint(&a), canonical_fingerprint(&b));
        // Array order IS content.
        let c = json::parse(r#"{"x": 1, "y": [null, true], "z": {"a": 1, "b": 2}}"#).unwrap();
        assert_ne!(canonical_fingerprint(&a), canonical_fingerprint(&c));
    }

    #[test]
    fn near_miss_documents_do_not_collide() {
        let base = json::parse(r#"{"ops": 100, "seed": 7}"#).unwrap();
        for other in [
            r#"{"ops": 100, "seed": 8}"#,
            r#"{"ops": 101, "seed": 7}"#,
            r#"{"ops": "100", "seed": 7}"#,
            r#"{"ops": 100.0, "seed": 7}"#,
            r#"{"ops": 100, "seed": 7, "extra": null}"#,
            r#"{"ops": [100], "seed": 7}"#,
        ] {
            let doc = json::parse(other).unwrap();
            assert_ne!(
                canonical_fingerprint(&base),
                canonical_fingerprint(&doc),
                "collision with {other}"
            );
        }
        // 0 / false / "" / null / [] / {} are all distinct.
        let zeros: Vec<Fingerprint> = ["0", "false", "\"\"", "null", "[]", "{}"]
            .iter()
            .map(|t| canonical_fingerprint(&json::parse(t).unwrap()))
            .collect();
        for i in 0..zeros.len() {
            for j in i + 1..zeros.len() {
                assert_ne!(zeros[i], zeros[j]);
            }
        }
    }

    const SPEC: &str = r#"{
        "name": "fp", "cores": 2,
        "configs": [
            {"label": "A", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
            {"label": "B", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
            {"partition": {"kind": "private", "sets": 4, "ways": 2},
             "memory": {"kind": "banked", "banks": 8}, "schedule": [0, 1]}
        ],
        "workloads": [
            {"kind": "uniform", "range_bytes": 2048, "ops": 50, "seed": 3},
            {"label": "twin", "x": 99, "kind": "uniform", "range_bytes": 2048, "ops": 50, "seed": 3}
        ]
    }"#;

    #[test]
    fn point_fingerprints_ignore_labels_but_not_physics() {
        let spec = ExperimentSpec::parse(SPEC).unwrap();
        // Same partitioning, different labels → same fingerprint.
        let a0 = point_fingerprint(spec.cores, &spec.configs[0], &spec.workloads[0], false);
        let b0 = point_fingerprint(spec.cores, &spec.configs[1], &spec.workloads[0], false);
        assert_eq!(a0, b0);
        // Same workload spec, different label and x → same fingerprint.
        let a1 = point_fingerprint(spec.cores, &spec.configs[0], &spec.workloads[1], false);
        assert_eq!(a0, a1);
        // A physically different configuration diverges.
        let c0 = point_fingerprint(spec.cores, &spec.configs[2], &spec.workloads[0], false);
        assert_ne!(a0, c0);
        // Core count participates.
        assert_ne!(
            a0,
            point_fingerprint(4, &spec.configs[0], &spec.workloads[0], false)
        );
        // Attribution-on points address a different cache slot (their
        // measurements carry extra data).
        assert_ne!(
            a0,
            point_fingerprint(spec.cores, &spec.configs[0], &spec.workloads[0], true)
        );
    }
}
