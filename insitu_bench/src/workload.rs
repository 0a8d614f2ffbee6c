//! The three workloads: their configuration, geometry, step values and
//! the closed timestep loop each rank runs inside one world.
//!
//! * `redist` — 2 producer ranks write a 3-d `u64` grid as x-slabs (x is
//!   the contiguous axis) plus `3×f32` particles as contiguous ranges; 1
//!   consumer rank reads 4 y-slab blocks and one particle range. Every
//!   block cuts every producer slab into short row pieces (3,200 runs of
//!   320 B per step). In-proc transport, shallow (zero-copy) ownership,
//!   raw wire codec.
//! * `stream` — 1 overlap-mode producer publishes small steps through a
//!   [`StepPublisher`] (`EveryStep` + `Block`, queue depth 4); 1 consumer
//!   follows the series and verifies every step. The control plane
//!   dominates.
//! * `redist-wire` — the `redist` decomposition with deep ownership, the
//!   delta-RLE wire codec and the socket transport.
//!
//! Every step writes one of [`VARIANTS`] precomputed value sets
//! (position-encoded plus a seed salt), chosen by step number, so a stale
//! or misrouted step reads the wrong variant and fails verification.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use bytes::Bytes;
use lowfive::{
    BackPressure, DistMetadataVol, DistVolBuilder, LowFiveProps, StepPolicy, StepPublisher,
    StepSubscription, WireCodec,
};
use minih5::{Dataspace, Datatype, Ownership, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TransportKind};

use crate::probe::{cpu_time, now_ns, Span, Spans};

/// Grid extent along z (slowest axis).
pub const NZ: u64 = 40;
/// Grid extent along y (split into consumer blocks).
pub const NY: u64 = 40;
/// Grid extent along x (fastest axis, split into producer slabs).
pub const NX: u64 = 80;
/// Producer ranks of the redistribution workloads.
pub const PRODUCERS: u64 = 2;
/// Y-slab blocks the consumer owns.
pub const BLOCKS: u64 = 4;
/// Particles each producer writes.
pub const PARTICLES_PER_PRODUCER: u64 = 16_384;
/// `u64` elements per streamed step.
pub const STREAM_ELEMS: u64 = 4_096;
/// Blocks the stream consumer reads each step in, one read call each.
pub const STREAM_READS: u64 = 8;
/// Announce window of the streamed series.
pub const STREAM_DEPTH: usize = 4;
/// Distinct value sets; step `s` uses variant `s % VARIANTS`. Four
/// catches an off-by-one step as well as a recycled stream slot, which
/// lags `STREAM_DEPTH + 2 = 6` steps behind.
pub const VARIANTS: usize = 4;
/// Redistribution file, rewritten every step.
const REDIST_FILE: &str = "redist.h5";
/// Stream series name; its slot files are `stream.h5@s<n>`.
const SERIES: &str = "stream.h5";

/// Which loop a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Many-to-one cross-cutting redistribution of one rewritten file.
    Redist,
    /// One-to-one step streaming.
    Stream,
}

/// One benchmark workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Loop shape.
    pub kind: Kind,
    /// Delivery backend.
    pub transport: TransportKind,
    /// Wire-codec policy of every file.
    pub codec: WireCodec,
    /// Ownership of every producer write.
    pub ownership: Ownership,
}

/// Every workload, in the order the benchmark lists them.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "redist",
        kind: Kind::Redist,
        transport: TransportKind::InProc,
        codec: WireCodec::Raw,
        ownership: Ownership::Shallow,
    },
    Workload {
        name: "stream",
        kind: Kind::Stream,
        transport: TransportKind::InProc,
        codec: WireCodec::Raw,
        ownership: Ownership::Shallow,
    },
    Workload {
        name: "redist-wire",
        kind: Kind::Redist,
        transport: TransportKind::Socket,
        codec: WireCodec::DeltaRle,
        ownership: Ownership::Deep,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// Producer and consumer tasks.
    pub fn specs(&self) -> [TaskSpec; 2] {
        let producers = match self.kind {
            Kind::Redist => PRODUCERS as usize,
            Kind::Stream => 1,
        };
        [TaskSpec::new("producer", producers), TaskSpec::new("consumer", 1)]
    }

    /// Transport properties, identical on every rank. No cost model,
    /// gather cost or other modeled delay is ever set.
    pub fn props(&self) -> LowFiveProps {
        let mut p = LowFiveProps::new();
        p.set_wire_codec("*", self.codec);
        if self.kind == Kind::Stream {
            p.set_stream_queue_depth(SERIES, STREAM_DEPTH);
            p.set_stream_backpressure(SERIES, BackPressure::Block);
        }
        p
    }

    /// Codec id the producer applies to data replies under this policy.
    pub fn codec_id(&self) -> u8 {
        match self.codec {
            WireCodec::DeltaRle => lowfive::protocol::CODEC_DELTA_RLE,
            WireCodec::Rle => lowfive::protocol::CODEC_RLE,
            WireCodec::Raw | WireCodec::Auto => lowfive::protocol::CODEC_RAW,
        }
    }

    /// Untimed steps before the timed loop of every world (caches fill,
    /// lazy set-up finishes); they count into set-up time. The last one is
    /// the probe step whose counter deltas every timed step must repeat.
    /// The redistributions warm up for a few tenths of a second, so that
    /// one-off costs such as first-touch page faults do not dominate
    /// set-up time. The stream warms up for about ten rounds of its
    /// six-slot ring: its loop switches between producer- and
    /// consumer-bound phases, and longer warm-ups carried that swing into
    /// set-up time.
    pub fn warmup(&self) -> u64 {
        match (self.kind, self.codec) {
            (Kind::Stream, _) => 64,
            (Kind::Redist, WireCodec::Raw) => 32,
            (Kind::Redist, _) => 16,
        }
    }

    /// Timed steps of one world. A world is one fixed-size workflow run,
    /// so the memory it holds at its peak does not depend on how fast the
    /// host ran it; a run repeats worlds for its measuring time. One to two
    /// seconds each, so that a run sets up a dozen worlds or more.
    pub fn steps_per_world(&self) -> u64 {
        match (self.kind, self.codec) {
            (Kind::Stream, _) => 2_000,
            (Kind::Redist, WireCodec::Raw) => 200,
            (Kind::Redist, _) => 75,
        }
    }

    /// Dataset bytes the consumer requests (and verifies) per step.
    pub fn requested_bytes_per_step(&self) -> u64 {
        match self.kind {
            Kind::Redist => NX * NY * NZ * 8 + PRODUCERS * PARTICLES_PER_PRODUCER * 12,
            Kind::Stream => STREAM_ELEMS * 8,
        }
    }
}

/// The seed- and variant-dependent salt added to every position code.
pub fn salt(seed: u64, variant: usize) -> u64 {
    // splitmix64 finalizer over (seed, variant).
    let mut z = seed.wrapping_add((variant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn variant_of(step: u64) -> usize {
    (step % VARIANTS as u64) as usize
}

/// Grid element at row-major linear index `i`.
fn grid_value(salt: u64, i: u64) -> u64 {
    salt.wrapping_add(i)
}

/// Particle component `j = 3 * particle + axis` (exact in `f32`).
fn particle_value(salt: u64, j: u64) -> f32 {
    (j + (salt & 0xFFFF)) as f32
}

fn grid_bytes(salt: u64, linear: impl Iterator<Item = u64>) -> Bytes {
    Bytes::from(linear.flat_map(|i| grid_value(salt, i).to_le_bytes()).collect::<Vec<u8>>())
}

fn particle_bytes(salt: u64, particles: std::ops::Range<u64>) -> Bytes {
    Bytes::from(
        (particles.start * 3..particles.end * 3)
            .flat_map(|j| particle_value(salt, j).to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// The global grid dataspace, `[z, y, x]` in row-major order.
pub fn grid_space() -> Dataspace {
    Dataspace::simple(&[NZ, NY, NX])
}

/// Row-major linear index of grid point `(z, y, x)`.
fn grid_index(z: u64, y: u64, x: u64) -> u64 {
    (z * NY + y) * NX + x
}

/// The global particle dataspace.
pub fn particle_space() -> Dataspace {
    Dataspace::simple(&[PRODUCERS * PARTICLES_PER_PRODUCER])
}

/// Producer `p`'s x-slab of the grid: half of every contiguous x-row.
pub fn producer_slab(p: u64) -> Selection {
    let w = NX / PRODUCERS;
    Selection::block(&[0, 0, p * w], &[NZ, NY, w])
}

/// Producer `p`'s particle range.
pub fn producer_particles(p: u64) -> Selection {
    Selection::block(&[p * PARTICLES_PER_PRODUCER], &[PARTICLES_PER_PRODUCER])
}

/// Consumer grid block `b` (a y-slab spanning all z and x).
pub fn consumer_block(b: u64) -> Selection {
    let h = NY / BLOCKS;
    Selection::block(&[0, b * h, 0], &[NZ, h, NX])
}

/// The consumer's particle range (all particles).
pub fn consumer_particles() -> Selection {
    Selection::block(&[0], &[PRODUCERS * PARTICLES_PER_PRODUCER])
}

/// Producer `p`'s write buffers for one variant: `(grid slab, particles)`.
pub fn producer_buffers(seed: u64, variant: usize, p: u64) -> (Bytes, Bytes) {
    let s = salt(seed, variant);
    let w = NX / PRODUCERS;
    let linear = (0..NZ).flat_map(move |z| {
        (0..NY).flat_map(move |y| (p * w..(p + 1) * w).map(move |x| grid_index(z, y, x)))
    });
    let grid = grid_bytes(s, linear);
    let parts = particle_bytes(s, p * PARTICLES_PER_PRODUCER..(p + 1) * PARTICLES_PER_PRODUCER);
    (grid, parts)
}

/// What the consumer must read for one variant: the packed bytes of every
/// block, then the particle range.
fn consumer_expected(seed: u64, variant: usize) -> (Vec<Bytes>, Bytes) {
    let s = salt(seed, variant);
    let h = NY / BLOCKS;
    let blocks = (0..BLOCKS)
        .map(|b| {
            let linear = (0..NZ).flat_map(move |z| {
                (b * h..(b + 1) * h).flat_map(move |y| (0..NX).map(move |x| grid_index(z, y, x)))
            });
            grid_bytes(s, linear)
        })
        .collect();
    (blocks, particle_bytes(s, 0..PRODUCERS * PARTICLES_PER_PRODUCER))
}

/// The stream consumer's read blocks, covering the step in order.
pub fn stream_blocks() -> Vec<Selection> {
    let n = STREAM_ELEMS / STREAM_READS;
    (0..STREAM_READS).map(|b| Selection::block(&[b * n], &[n])).collect()
}

fn stream_values(seed: u64, variant: usize) -> Bytes {
    grid_bytes(salt(seed, variant), 0..STREAM_ELEMS)
}

/// One step as one rank saw it.
#[derive(Debug, Clone, Copy)]
pub struct StepRec {
    /// Step number (stream: the series sequence number).
    pub step: u64,
    /// When this rank started the step (stream producer: the publish
    /// call; stream consumer: `next_step` returned).
    pub start_ns: u64,
    /// When this rank finished it (stream consumer: data verified).
    pub end_ns: u64,
    /// The consumer verified every byte (always true on producers).
    pub ok: bool,
    /// Dataset bytes verified by this rank.
    pub bytes: u64,
}

/// Everything one rank hands back after its world ends.
#[derive(Debug, Default)]
pub struct RankLog {
    /// World rank.
    pub rank: usize,
    /// Producer (task 0) or consumer (task 1).
    pub producer: bool,
    /// Every step this rank ran, warm-up included.
    pub steps: Vec<StepRec>,
    /// The benchmark's own spans (traced worlds only).
    pub spans: Vec<Span>,
}

/// Marks the leader records at the boundaries of the timed loop.
#[derive(Default)]
pub struct Marks {
    /// First timed step released (end of set-up).
    pub timed_start_ns: u64,
    /// Timed loop over.
    pub timed_end_ns: u64,
    /// Process CPU time when the timed loop started.
    pub cpu_start: f64,
    /// Process CPU time when the timed loop ended.
    pub cpu_end: f64,
    /// Registry snapshots: before the probe step, before the first timed
    /// step, after the last timed step (traced worlds only).
    pub snaps: Vec<obsv::Report>,
}

/// State the rank threads of one world share. Step release uses a plain
/// thread barrier so that coordinating the benchmark adds no message to
/// the transport under test.
pub struct World<'a> {
    w: Workload,
    seed: u64,
    /// Timed steps of this world.
    steps: u64,
    /// Registry of a traced world.
    registry: Option<&'a obsv::Registry>,
    barrier: Barrier,
    stop: AtomicBool,
    /// Boundary marks.
    pub marks: Mutex<Marks>,
}

impl<'a> World<'a> {
    /// Shared state for a world of `w`.
    pub fn new(w: Workload, seed: u64, steps: u64, registry: Option<&'a obsv::Registry>) -> Self {
        let ranks = w.specs().iter().map(|s| s.procs).sum();
        World {
            w,
            seed,
            steps,
            registry,
            barrier: Barrier::new(ranks),
            stop: AtomicBool::new(false),
            marks: Mutex::new(Marks::default()),
        }
    }

    fn snapshot(&self, m: &mut Marks) {
        if let Some(reg) = self.registry {
            m.snaps.push(reg.report());
        }
    }

    /// Release every rank into `step`; returns `false` once the timed loop
    /// is over. The barrier leader marks the loop boundaries while every
    /// other rank waits, so snapshots see a quiescent world.
    fn release(&self, step: u64) -> bool {
        let warmup = self.w.warmup();
        if self.barrier.wait().is_leader() {
            let mut m = self.marks.lock().expect("marks lock poisoned by a panicked rank");
            if step + 1 == warmup {
                self.snapshot(&mut m);
            } else if step == warmup {
                self.snapshot(&mut m);
                m.cpu_start = cpu_time();
                m.timed_start_ns = now_ns();
            } else if step == warmup + self.steps {
                m.timed_end_ns = now_ns();
                m.cpu_end = cpu_time();
                self.snapshot(&mut m);
                self.stop.store(true, Ordering::SeqCst);
            }
        }
        self.barrier.wait();
        !self.stop.load(Ordering::SeqCst)
    }

    /// Run one rank of this world.
    pub fn rank(&self, tc: TaskComm) -> RankLog {
        match self.w.kind {
            Kind::Redist => self.redist_rank(tc),
            Kind::Stream => self.stream_rank(tc),
        }
    }

    fn vol(&self, tc: &TaskComm, pattern: &str, async_serve: bool) -> Arc<DistMetadataVol> {
        let producers: Vec<usize> = (0..tc.task_size(0)).map(|r| tc.world_rank_of(0, r)).collect();
        let consumers: Vec<usize> = (0..tc.task_size(1)).map(|r| tc.world_rank_of(1, r)).collect();
        let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone()).props(self.w.props());
        if tc.task_id == 0 {
            b.produce(pattern, consumers).async_serve(async_serve).build()
        } else {
            b.consume(pattern, producers).build()
        }
    }

    fn redist_rank(&self, tc: TaskComm) -> RankLog {
        let producer = tc.task_id == 0;
        let vol = self.vol(&tc, REDIST_FILE, false);
        let h5 = H5::with_vol(vol as Arc<dyn Vol>);
        let mut log = RankLog { rank: tc.world.rank(), producer, ..RankLog::default() };
        let mut spans = Spans::new(self.registry.is_some());
        if producer {
            let p = tc.local.rank() as u64;
            let bufs: Vec<(Bytes, Bytes)> =
                (0..VARIANTS).map(|v| producer_buffers(self.seed, v, p)).collect();
            let (slab, range) = (producer_slab(p), producer_particles(p));
            let mut step = 0;
            while self.release(step) {
                let start = now_ns();
                let (grid, parts) = &bufs[variant_of(step)];
                let f = h5.create_file(REDIST_FILE).expect("create redist file");
                let g = f
                    .create_dataset("grid", Datatype::UInt64, grid_space())
                    .expect("create grid dataset");
                let pd = f
                    .create_dataset(
                        "particles",
                        Datatype::vector(Datatype::Float32, 3),
                        particle_space(),
                    )
                    .expect("create particle dataset");
                spans.time("minih5.write", step, || {
                    g.write_bytes(&slab, grid.clone(), self.w.ownership).expect("write grid slab")
                });
                spans.time("minih5.write", step, || {
                    pd.write_bytes(&range, parts.clone(), self.w.ownership)
                        .expect("write particle range")
                });
                spans.time("lowfive.close", step, || f.close().expect("producer close"));
                let end = now_ns();
                spans.root("step", step, start, end);
                log.steps.push(StepRec { step, start_ns: start, end_ns: end, ok: true, bytes: 0 });
                step += 1;
            }
        } else {
            let expected: Vec<(Vec<Bytes>, Bytes)> =
                (0..VARIANTS).map(|v| consumer_expected(self.seed, v)).collect();
            let blocks: Vec<Selection> = (0..BLOCKS).map(consumer_block).collect();
            let range = [consumer_particles()];
            let mut step = 0;
            while self.release(step) {
                let start = now_ns();
                let f = spans.time("lowfive.open", step, || {
                    h5.open_file(REDIST_FILE).expect("consumer open")
                });
                let got_grid = spans.time("lowfive.read", step, || {
                    let d = f.open_dataset("grid").expect("open grid");
                    d.read_bytes_multi(&blocks).expect("read grid blocks")
                });
                let got_parts = spans.time("lowfive.read", step, || {
                    let d = f.open_dataset("particles").expect("open particles");
                    d.read_bytes_multi(&range).expect("read particle range")
                });
                let (want_grid, want_parts) = &expected[variant_of(step)];
                let (ok, bytes) = spans.time("verify", step, || {
                    let ok = got_grid.len() == want_grid.len()
                        && got_grid.iter().zip(want_grid).all(|(a, b)| a[..] == b[..])
                        && got_parts.len() == 1
                        && got_parts[0][..] == want_parts[..];
                    let bytes = got_grid.iter().chain(&got_parts).map(|b| b.len() as u64).sum();
                    (ok, bytes)
                });
                spans.time("lowfive.consumer_close", step, || f.close().expect("consumer close"));
                let end = now_ns();
                spans.root("step", step, start, end);
                log.steps.push(StepRec { step, start_ns: start, end_ns: end, ok, bytes });
                step += 1;
            }
        }
        log.spans = spans.into_vec();
        log
    }

    fn stream_rank(&self, tc: TaskComm) -> RankLog {
        let producer = tc.task_id == 0;
        let pattern = format!("{SERIES}@s*");
        let vol = self.vol(&tc, &pattern, true);
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        let mut log = RankLog { rank: tc.world.rank(), producer, ..RankLog::default() };
        let mut spans = Spans::new(self.registry.is_some());
        let values: Vec<Bytes> = (0..VARIANTS).map(|v| stream_values(self.seed, v)).collect();
        let all = Selection::block(&[0], &[STREAM_ELEMS]);
        let blocks = stream_blocks();
        if producer {
            let publisher = StepPublisher::new(vol.clone(), SERIES).expect("register series");
            let mut step = 0;
            loop {
                {
                    let mut m = self.marks.lock().expect("marks lock poisoned by a panicked rank");
                    if step == self.w.warmup() {
                        self.snapshot(&mut m);
                        m.cpu_start = cpu_time();
                        m.timed_start_ns = now_ns();
                    } else if step == self.w.warmup() + self.steps {
                        break;
                    }
                }
                let start = now_ns();
                let f = h5.create_file(&publisher.step_file()).expect("create step file");
                let d = f
                    .create_dataset("x", Datatype::UInt64, Dataspace::simple(&[STREAM_ELEMS]))
                    .expect("create step dataset");
                spans.time("minih5.write", step, || {
                    d.write_bytes(&all, values[variant_of(step)].clone(), self.w.ownership)
                        .expect("write step")
                });
                spans.time("lowfive.close", step, || f.close().expect("producer close"));
                let t_pub = now_ns();
                let seq =
                    spans.time("lowfive.publish", step, || publisher.publish().expect("publish"));
                assert_eq!(seq, step, "publisher sequence follows the loop");
                let end = now_ns();
                spans.root("step", step, start, end);
                log.steps.push(StepRec { step, start_ns: t_pub, end_ns: end, ok: true, bytes: 0 });
                step += 1;
            }
            assert!(publisher.finish(None), "every published step consumed");
            vol.drain();
        } else {
            let mut sub = StepSubscription::new(vol.clone(), SERIES, StepPolicy::EveryStep)
                .expect("subscribe");
            loop {
                let t_wait = now_ns();
                let Some(step) = sub.next_step().expect("next step") else { break };
                let start = now_ns();
                spans.child("lowfive.next_step", step.seq, t_wait, start);
                let f = spans.time("lowfive.open", step.seq, || {
                    h5.open_file(&step.file).expect("open step file")
                });
                let d = f.open_dataset("x").expect("open step dataset");
                let mut got = Vec::with_capacity(blocks.len());
                for b in &blocks {
                    got.push(
                        spans.time("lowfive.read", step.seq, || {
                            d.read_bytes(b).expect("read block")
                        }),
                    );
                }
                let want = &values[variant_of(step.seq)];
                let ok = spans.time("verify", step.seq, || {
                    let per = want.len() / blocks.len();
                    got.iter().zip(want.chunks(per)).all(|(a, b)| a[..] == b[..])
                });
                spans.time("lowfive.consumer_close", step.seq, || {
                    f.close().expect("consumer close")
                });
                let end = now_ns();
                spans.root("step", step.seq, t_wait, end);
                let bytes = got.iter().map(|b| b.len() as u64).sum();
                log.steps.push(StepRec { step: step.seq, start_ns: start, end_ns: end, ok, bytes });
            }
            let mut m = self.marks.lock().expect("marks lock poisoned by a panicked rank");
            m.cpu_end = cpu_time();
            m.timed_end_ns = log.steps.last().map_or(0, |s| s.end_ns);
            self.snapshot(&mut m);
        }
        log.spans = spans.into_vec();
        log
    }
}
