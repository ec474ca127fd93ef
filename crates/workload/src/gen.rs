//! Deterministic workload generators.
//!
//! Every generator implements the streaming [`Workload`] trait: the
//! engine pulls operations one at a time, so a run over a million-op
//! generator allocates no trace storage at all. The materializing
//! helpers ([`UniformGen::traces`], [`StrideGen::trace`], …) remain for
//! golden files and equivalence tests, and are defined as the collected
//! streams — streamed and materialized runs are identical by
//! construction.

use predllc_model::{Address, CoreId, MemOp};

use crate::rng::Rng64;
use crate::workload::{OpStream, Workload};

/// Derives a per-core RNG from a workload seed so that every core's trace
/// is independent yet reproducible.
fn core_rng(seed: u64, core: CoreId) -> Rng64 {
    // splitmix-style mixing of the core index into the seed.
    let mut z = seed ^ (u64::from(core.index()).wrapping_add(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Rng64::new(z ^ (z >> 31))
}

/// The paper's workload: uniformly random line-aligned addresses within a
/// per-core address range of `range_bytes`, disjoint across cores (core
/// `i` owns `[i·range, (i+1)·range)`).
///
/// As a [`Workload`] it drives [`UniformGen::cores`] cores (builder:
/// [`UniformGen::with_cores`]); each core's stream is generated lazily in
/// O(1) memory.
///
/// # Examples
///
/// ```
/// use predllc_workload::gen::UniformGen;
/// use predllc_workload::Workload;
///
/// // A 2 KiB range per core, 50 operations, 25% writes, two cores.
/// let gen = UniformGen::new(2048, 50).with_write_fraction(0.25).with_cores(2);
/// assert_eq!(gen.num_cores(), 2);
/// let traces = gen.traces(2);
/// assert!(traces[0].iter().all(|op| op.addr.as_u64() < 2048));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UniformGen {
    /// Size of each core's private address range in bytes.
    pub range_bytes: u64,
    /// Operations per core.
    pub ops: usize,
    /// Fraction of operations that are writes (`0.0 ..= 1.0`).
    pub write_fraction: f64,
    /// RNG seed; the same seed reproduces the same traces.
    pub seed: u64,
    /// Alignment of generated addresses (default: the 64-byte line).
    pub align: u64,
    /// Number of cores the workload drives (default: 1).
    pub cores: u16,
}

impl UniformGen {
    /// Creates a single-core generator with no writes and the default
    /// seed.
    pub fn new(range_bytes: u64, ops: usize) -> Self {
        UniformGen {
            range_bytes,
            ops,
            write_fraction: 0.0,
            seed: 0xD0E5_11C5,
            align: 64,
            cores: 1,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the write fraction.
    pub fn with_write_fraction(mut self, f: f64) -> Self {
        self.write_fraction = f;
        self
    }

    /// Sets the number of cores driven when used as a [`Workload`].
    pub fn with_cores(mut self, cores: u16) -> Self {
        self.cores = cores;
        self
    }

    /// The lazy operation stream of one core.
    ///
    /// # Panics
    ///
    /// Panics if `range_bytes < align` (no addressable line).
    pub(crate) fn core_stream(&self, core: CoreId) -> UniformOps {
        assert!(
            self.range_bytes >= self.align,
            "address range must contain at least one line"
        );
        UniformOps {
            rng: core_rng(self.seed, core),
            base: u64::from(core.index()) * self.range_bytes,
            lines: self.range_bytes / self.align,
            align: self.align,
            write_fraction: self.write_fraction,
            remaining: self.ops,
        }
    }

    /// Generates the materialized trace of one core (the collected
    /// stream).
    ///
    /// # Panics
    ///
    /// Panics if `range_bytes < align` (no addressable line).
    pub fn core_trace(&self, core: CoreId) -> Vec<MemOp> {
        self.core_stream(core).collect()
    }

    /// Generates materialized traces for cores `c0 … c(n-1)`.
    pub fn traces(&self, n: u16) -> Vec<Vec<MemOp>> {
        CoreId::first(n).map(|c| self.core_trace(c)).collect()
    }
}

impl Workload for UniformGen {
    fn num_cores(&self) -> u16 {
        self.cores
    }

    fn core_ops(&self, core: CoreId) -> OpStream<'_> {
        Box::new(self.core_stream(core))
    }

    fn len_hint(&self, _core: CoreId) -> Option<usize> {
        Some(self.ops)
    }
}

/// The lazy per-core stream of a [`UniformGen`].
#[derive(Debug, Clone)]
pub(crate) struct UniformOps {
    rng: Rng64,
    base: u64,
    lines: u64,
    align: u64,
    write_fraction: f64,
    remaining: usize,
}

impl Iterator for UniformOps {
    type Item = MemOp;

    fn next(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = Address::new(self.base + self.rng.below(self.lines) * self.align);
        Some(if self.rng.chance(self.write_fraction) {
            MemOp::write(addr)
        } else {
            MemOp::read(addr)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for UniformOps {}

/// Guards the single-stream generators' [`Workload`] impls: they drive
/// exactly one core (compose them with
/// [`MultiCore`](crate::workload::MultiCore) for more).
fn expect_core_zero(core: CoreId, what: &str) {
    assert!(
        core.index() == 0,
        "{what} is a single-core workload; {core} requested"
    );
}

/// A constant-stride sweep (array walk): `start, start+stride, …`,
/// wrapping at `start + range_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideGen {
    /// First address.
    pub start: u64,
    /// Stride in bytes.
    pub stride: u64,
    /// Wrap-around window size in bytes.
    pub range_bytes: u64,
    /// Operations to generate.
    pub ops: usize,
}

impl StrideGen {
    /// Creates a line-stride sweep over `range_bytes` starting at
    /// `start`.
    pub fn new(start: u64, range_bytes: u64, ops: usize) -> Self {
        StrideGen {
            start,
            stride: 64,
            range_bytes,
            ops,
        }
    }

    /// Overrides the stride.
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride;
        self
    }

    /// The lazy operation stream.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `range_bytes` is zero.
    pub fn stream(&self) -> StrideOps {
        assert!(self.stride > 0 && self.range_bytes > 0);
        StrideOps { gen: *self, at: 0 }
    }

    /// Generates the materialized trace (the collected stream).
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `range_bytes` is zero.
    pub fn trace(&self) -> Vec<MemOp> {
        self.stream().collect()
    }
}

impl Workload for StrideGen {
    fn num_cores(&self) -> u16 {
        1
    }

    fn core_ops(&self, core: CoreId) -> OpStream<'_> {
        expect_core_zero(core, "StrideGen");
        Box::new(self.stream())
    }

    fn len_hint(&self, _core: CoreId) -> Option<usize> {
        Some(self.ops)
    }
}

/// The lazy stream of a [`StrideGen`].
#[derive(Debug, Clone)]
pub struct StrideOps {
    gen: StrideGen,
    at: usize,
}

impl Iterator for StrideOps {
    type Item = MemOp;

    fn next(&mut self) -> Option<MemOp> {
        if self.at >= self.gen.ops {
            return None;
        }
        let off = (self.at as u64 * self.gen.stride) % self.gen.range_bytes;
        self.at += 1;
        Some(MemOp::read(Address::new(self.gen.start + off)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.gen.ops - self.at;
        (left, Some(left))
    }
}

impl ExactSizeIterator for StrideOps {}

/// A pointer chase: a random permutation cycle over the lines of a
/// range, walked repeatedly — worst-case temporal locality with perfect
/// spatial disjointness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerChaseGen {
    /// First address of the region.
    pub start: u64,
    /// Region size in bytes (must hold ≥ 1 line).
    pub range_bytes: u64,
    /// Operations to generate.
    pub ops: usize,
    /// Permutation seed.
    pub seed: u64,
}

impl PointerChaseGen {
    /// Creates a chase over `[start, start + range_bytes)`.
    pub fn new(start: u64, range_bytes: u64, ops: usize) -> Self {
        PointerChaseGen {
            start,
            range_bytes,
            ops,
            seed: 0x000C_4A5E,
        }
    }

    /// Sets the permutation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The lazy operation stream. Memory use is proportional to the
    /// *region* (one permutation of its lines), not the stream length.
    ///
    /// # Panics
    ///
    /// Panics if the range holds no full line.
    pub fn stream(&self) -> ChaseOps {
        let lines = (self.range_bytes / 64) as usize;
        assert!(lines > 0, "range must hold at least one line");
        // Fisher-Yates a permutation of the line indices.
        let mut rng = Rng64::new(self.seed);
        let mut perm: Vec<usize> = (0..lines).collect();
        for i in (1..lines).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        ChaseOps {
            start: self.start,
            perm,
            at: 0,
            remaining: self.ops,
        }
    }

    /// Generates the materialized trace (the collected stream).
    ///
    /// # Panics
    ///
    /// Panics if the range holds no full line.
    pub fn trace(&self) -> Vec<MemOp> {
        self.stream().collect()
    }
}

impl Workload for PointerChaseGen {
    fn num_cores(&self) -> u16 {
        1
    }

    fn core_ops(&self, core: CoreId) -> OpStream<'_> {
        expect_core_zero(core, "PointerChaseGen");
        Box::new(self.stream())
    }

    fn len_hint(&self, _core: CoreId) -> Option<usize> {
        Some(self.ops)
    }
}

/// The lazy stream of a [`PointerChaseGen`].
#[derive(Debug, Clone)]
pub struct ChaseOps {
    start: u64,
    perm: Vec<usize>,
    at: usize,
    remaining: usize,
}

impl Iterator for ChaseOps {
    type Item = MemOp;

    fn next(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = Address::new(self.start + self.perm[self.at] as u64 * 64);
        self.at = (self.at + 1) % self.perm.len();
        Some(MemOp::read(addr))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ChaseOps {}

/// A hot/cold mix: most accesses go to a small hot region, the rest to
/// the cold remainder — the classic working-set shape cache partitions
/// are sized for.
#[derive(Debug, Clone, PartialEq)]
pub struct HotColdGen {
    /// First address of the region.
    pub start: u64,
    /// Region size in bytes.
    pub range_bytes: u64,
    /// Fraction of the region that is hot (`0.0 ..= 1.0`).
    pub hot_fraction: f64,
    /// Probability that an access targets the hot region.
    pub hot_probability: f64,
    /// Operations to generate.
    pub ops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HotColdGen {
    /// Creates a 10%-hot / 90%-of-accesses generator.
    pub fn new(start: u64, range_bytes: u64, ops: usize) -> Self {
        HotColdGen {
            start,
            range_bytes,
            hot_fraction: 0.1,
            hot_probability: 0.9,
            ops,
            seed: 0x0407_C01D,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The lazy operation stream.
    ///
    /// # Panics
    ///
    /// Panics if the region holds fewer than two full lines (one hot and
    /// one cold line are always carved out, whatever `hot_fraction`
    /// says).
    pub fn stream(&self) -> HotColdOps {
        let lines = self.range_bytes / 64;
        assert!(
            lines >= 2,
            "region must hold at least one hot and one cold line"
        );
        // At least one line each, whatever the fraction rounds to.
        let hot_lines = ((lines as f64 * self.hot_fraction) as u64).clamp(1, lines - 1);
        let cold_lines = lines - hot_lines;
        HotColdOps {
            rng: Rng64::new(self.seed),
            start: self.start,
            hot_lines,
            cold_lines,
            hot_probability: self.hot_probability,
            remaining: self.ops,
        }
    }

    /// Generates the materialized trace (the collected stream).
    ///
    /// # Panics
    ///
    /// Panics if the region holds fewer than two full lines.
    pub fn trace(&self) -> Vec<MemOp> {
        self.stream().collect()
    }
}

impl Workload for HotColdGen {
    fn num_cores(&self) -> u16 {
        1
    }

    fn core_ops(&self, core: CoreId) -> OpStream<'_> {
        expect_core_zero(core, "HotColdGen");
        Box::new(self.stream())
    }

    fn len_hint(&self, _core: CoreId) -> Option<usize> {
        Some(self.ops)
    }
}

/// The lazy stream of a [`HotColdGen`].
#[derive(Debug, Clone)]
pub struct HotColdOps {
    rng: Rng64,
    start: u64,
    hot_lines: u64,
    cold_lines: u64,
    hot_probability: f64,
    remaining: usize,
}

impl Iterator for HotColdOps {
    type Item = MemOp;

    fn next(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let line = if self.rng.chance(self.hot_probability) {
            self.rng.below(self.hot_lines)
        } else {
            self.hot_lines + self.rng.below(self.cold_lines)
        };
        Some(MemOp::read(Address::new(self.start + line * 64)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for HotColdOps {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn uniform_ranges_are_disjoint_per_core() {
        let g = UniformGen::new(1024, 200);
        let traces = g.traces(3);
        for (i, t) in traces.iter().enumerate() {
            let base = i as u64 * 1024;
            assert!(t
                .iter()
                .all(|op| (base..base + 1024).contains(&op.addr.as_u64())));
        }
    }

    #[test]
    fn uniform_is_line_aligned_and_deterministic() {
        let g = UniformGen::new(4096, 100).with_seed(42);
        let t1 = g.core_trace(CoreId::new(0));
        let t2 = g.core_trace(CoreId::new(0));
        assert_eq!(t1, t2);
        assert!(t1.iter().all(|op| op.addr.as_u64() % 64 == 0));
        // Different seeds differ.
        let t3 = UniformGen::new(4096, 100)
            .with_seed(43)
            .core_trace(CoreId::new(0));
        assert_ne!(t1, t3);
    }

    #[test]
    fn uniform_stream_equals_trace() {
        let g = UniformGen::new(8192, 300)
            .with_write_fraction(0.3)
            .with_seed(7);
        let streamed: Vec<MemOp> = g.core_stream(CoreId::new(2)).collect();
        assert_eq!(streamed, g.core_trace(CoreId::new(2)));
        assert_eq!(g.core_stream(CoreId::new(2)).len(), 300);
    }

    #[test]
    fn uniform_write_fraction_mixes_kinds() {
        let g = UniformGen::new(4096, 400).with_write_fraction(0.5);
        let t = g.core_trace(CoreId::new(0));
        let writes = t.iter().filter(|op| op.kind.is_write()).count();
        assert!((100..300).contains(&writes), "roughly half: {writes}");
        let none = UniformGen::new(4096, 100).core_trace(CoreId::new(0));
        assert!(none.iter().all(|op| !op.kind.is_write()));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn uniform_rejects_sub_line_range() {
        UniformGen::new(32, 1).core_trace(CoreId::new(0));
    }

    #[test]
    fn stride_wraps_at_range() {
        let t = StrideGen::new(0, 256, 6).trace();
        let addrs: Vec<u64> = t.iter().map(|op| op.addr.as_u64()).collect();
        assert_eq!(addrs, [0, 64, 128, 192, 0, 64]);
    }

    #[test]
    fn stride_with_custom_stride() {
        let t = StrideGen::new(1000, 512, 4).with_stride(128).trace();
        let addrs: Vec<u64> = t.iter().map(|op| op.addr.as_u64()).collect();
        assert_eq!(addrs, [1000, 1128, 1256, 1384]);
    }

    #[test]
    fn pointer_chase_visits_every_line_once_per_lap() {
        let t = PointerChaseGen::new(0, 512, 8).trace(); // 8 lines, 1 lap
        let distinct: HashSet<u64> = t.iter().map(|op| op.addr.as_u64()).collect();
        assert_eq!(distinct.len(), 8);
        // A second lap repeats the same order.
        let t2 = PointerChaseGen::new(0, 512, 16).trace();
        assert_eq!(&t2[..8], &t2[8..]);
    }

    #[test]
    fn hot_cold_concentrates_accesses() {
        let g = HotColdGen::new(0, 64 * 100, 1000);
        let t = g.trace();
        let hot_end = 10 * 64; // 10% of 100 lines
        let hot = t.iter().filter(|op| op.addr.as_u64() < hot_end).count();
        assert!(hot > 800, "≈90% should be hot, got {hot}");
    }

    #[test]
    fn generators_are_reproducible() {
        assert_eq!(
            PointerChaseGen::new(0, 1024, 32).trace(),
            PointerChaseGen::new(0, 1024, 32).trace()
        );
        assert_eq!(
            HotColdGen::new(0, 4096, 64).trace(),
            HotColdGen::new(0, 4096, 64).trace()
        );
    }

    #[test]
    #[should_panic(expected = "single-core workload")]
    fn single_stream_generators_reject_other_cores() {
        let _ = StrideGen::new(0, 256, 4).core_ops(CoreId::new(1));
    }
}
