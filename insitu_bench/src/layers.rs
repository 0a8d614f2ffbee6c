//! Per-layer metrics of a traced world: counter and histogram deltas from
//! the `obsv` registry, the benchmark's own spans, and replays that time
//! one layer's pure CPU work apart from any waiting.

use std::time::Instant;

use bytes::Bytes;
use minih5::selection::overlap_runs;
use minih5::{Dataspace, Run, Selection};
use obsv::json::{int, num, obj, s, Value};
use obsv::{Ctr, Hist, Phase, Report};
use simmpi::Payload;

use crate::probe::Span;
use crate::workload::{self, Kind, RankLog, Workload};

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A metric named `name`.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// Counter and histogram deltas between two registry snapshots.
pub struct Window<'a> {
    start: &'a Report,
    end: &'a Report,
}

impl<'a> Window<'a> {
    /// The window `[start, end]`.
    pub fn new(start: &'a Report, end: &'a Report) -> Self {
        Window { start, end }
    }

    /// Counter delta.
    pub fn ctr(&self, c: Ctr) -> u64 {
        self.end.counter(c) - self.start.counter(c)
    }

    /// `(count, sum)` delta of a histogram.
    pub fn hist(&self, h: Hist) -> (u64, u64) {
        let (a, b) = (self.start.hist(h), self.end.hist(h));
        (b.count - a.count, b.sum - a.sum)
    }

    /// Mean sample of a histogram over the window (0 without samples).
    pub fn hist_mean(&self, hs: &[Hist]) -> f64 {
        let (n, sum) = hs.iter().map(|&h| self.hist(h)).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// The counts the benchmark checks for repetition, in report order. The
/// flag marks counts that include codec-compressed reply bodies.
pub fn step_counts(w: &Window) -> Vec<(&'static str, u64, bool)> {
    vec![
        ("msgs", w.ctr(Ctr::MsgsSent), false),
        ("bytes", w.ctr(Ctr::BytesSent), true),
        ("rpc_calls", w.ctr(Ctr::RpcCalls), false),
        ("bytes_served", w.hist(Hist::BytesServed).1, false),
        ("bytes_copied", w.ctr(Ctr::BytesCopied), false),
        ("fetch_cache_hits", w.ctr(Ctr::FetchCacheHits), false),
        ("fetch_cache_misses", w.ctr(Ctr::FetchCacheMisses), false),
        ("wire_bytes", w.ctr(Ctr::WireBytesSent), true),
    ]
}

/// What the layer replays measured on one step's exact inputs.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Runs `Selection::runs` produced for the step's selections.
    pub runs: u64,
    /// Overlap segments `overlap_runs` produced (what serve gathers and
    /// the consumer scatters).
    pub segments: u64,
    /// Median time of one selection→runs→overlap pass, microseconds.
    pub runs_us: f64,
    /// Median time to codec-encode one reply body per producer and
    /// requested region (each requested byte once), microseconds.
    pub encode_us: f64,
    /// Median time to decode them again, microseconds.
    pub decode_us: f64,
}

/// One dataset of a step: its space, element size, the producers'
/// written regions with their bytes, and the consumer's requests.
struct DatasetStep {
    space: Dataspace,
    elem: usize,
    regions: Vec<(Selection, Bytes)>,
    requests: Vec<Selection>,
}

fn step_datasets(w: &Workload, seed: u64) -> Vec<DatasetStep> {
    match w.kind {
        Kind::Redist => {
            let bufs: Vec<(Bytes, Bytes)> =
                (0..workload::PRODUCERS).map(|p| workload::producer_buffers(seed, 0, p)).collect();
            vec![
                DatasetStep {
                    space: workload::grid_space(),
                    elem: 8,
                    regions: (0..workload::PRODUCERS)
                        .map(|p| (workload::producer_slab(p), bufs[p as usize].0.clone()))
                        .collect(),
                    requests: (0..workload::BLOCKS).map(workload::consumer_block).collect(),
                },
                DatasetStep {
                    space: workload::particle_space(),
                    elem: 12,
                    regions: (0..workload::PRODUCERS)
                        .map(|p| (workload::producer_particles(p), bufs[p as usize].1.clone()))
                        .collect(),
                    requests: vec![workload::consumer_particles()],
                },
            ]
        }
        Kind::Stream => {
            let all = Selection::block(&[0], &[workload::STREAM_ELEMS]);
            let data = Bytes::from(
                (0..workload::STREAM_ELEMS)
                    .flat_map(|i| workload::salt(seed, 0).wrapping_add(i).to_le_bytes())
                    .collect::<Vec<u8>>(),
            );
            vec![DatasetStep {
                space: Dataspace::simple(&[workload::STREAM_ELEMS]),
                elem: 8,
                regions: vec![(all, data)],
                requests: workload::stream_blocks(),
            }]
        }
    }
}

/// One selection→runs→overlap pass over the step; returns (runs,
/// segments).
fn runs_pass(ds: &[DatasetStep]) -> (u64, u64) {
    let (mut runs, mut segs) = (0u64, 0u64);
    for d in ds {
        let reqs: Vec<Vec<Run>> = d.requests.iter().map(|r| r.runs(&d.space)).collect();
        for (region, _) in &d.regions {
            let reg = region.runs(&d.space);
            runs += reg.len() as u64;
            for q in &reqs {
                segs += std::hint::black_box(overlap_runs(&reg, q)).len() as u64;
            }
        }
        runs += reqs.iter().map(|q| q.len() as u64).sum::<u64>();
    }
    (runs, segs)
}

/// The `M_DATA_BATCH` reply body each producer sends for each dataset:
/// one `(segments, blob)` entry per consumer request.
fn reply_bodies(ds: &[DatasetStep]) -> Vec<Bytes> {
    let mut out = Vec::new();
    for d in ds {
        let reqs: Vec<Vec<Run>> = d.requests.iter().map(|r| r.runs(&d.space)).collect();
        for (region, data) in &d.regions {
            let reg = region.runs(&d.space);
            let parts: Vec<(Vec<(u64, u64)>, Bytes)> = reqs
                .iter()
                .map(|q| {
                    let ovs = overlap_runs(&reg, q);
                    let mut blob = Vec::new();
                    for ov in &ovs {
                        let a = ov.a_off as usize * d.elem;
                        blob.extend_from_slice(&data[a..a + ov.len as usize * d.elem]);
                    }
                    (ovs.iter().map(|ov| (ov.b_off, ov.len)).collect(), Bytes::from(blob))
                })
                .collect();
            out.push(lowfive::protocol::enc_data_reply_batch(1, &parts));
        }
    }
    out
}

/// Median seconds of `f` over repeated calls (at least 5, about 50 ms).
fn median_time(mut f: impl FnMut()) -> f64 {
    let mut t = Vec::new();
    let began = Instant::now();
    while t.len() < 5 || (began.elapsed().as_secs_f64() < 0.05 && t.len() < 10_000) {
        let t0 = Instant::now();
        f();
        t.push(t0.elapsed().as_secs_f64());
    }
    crate::stats::median(&mut t)
}

/// Replay one step's selection and codec work in isolation. Panics if a
/// decoded body differs from what was encoded: the replay must be exact.
pub fn replay(w: &Workload, seed: u64) -> Replay {
    let ds = step_datasets(w, seed);
    let (runs, segments) = runs_pass(&ds);
    let runs_us = median_time(|| {
        std::hint::black_box(runs_pass(&ds));
    }) * 1e6;
    let bodies = reply_bodies(&ds);
    let codec = w.codec_id();
    let encode = |b: &Bytes| lowfive::protocol::encode_coded(Payload::from(b.clone()), codec);
    let coded: Vec<Bytes> = bodies.iter().map(|b| encode(b).to_bytes()).collect();
    let caps = w.codec.caps();
    for (b, c) in bodies.iter().zip(&coded) {
        let back = lowfive::protocol::dec_coded(c, caps).expect("replayed body decodes");
        assert!(back[..] == b[..], "codec replay must round-trip exactly");
    }
    let encode_us = median_time(|| {
        for b in &bodies {
            std::hint::black_box(encode(b));
        }
    }) * 1e6;
    let decode_us = median_time(|| {
        for c in &coded {
            std::hint::black_box(lowfive::protocol::dec_coded(c, caps).expect("decodes"));
        }
    }) * 1e6;
    Replay { runs, segments, runs_us, encode_us, decode_us }
}

/// Mean duration (ns) of the spans named `name`, and their count.
fn span_stats(spans: &[&Span], name: &str) -> (f64, u64) {
    let (n, sum) = spans
        .iter()
        .filter(|sp| sp.name == name)
        .fold((0u64, 0u64), |(n, sum), sp| (n + 1, sum + sp.dur_ns()));
    (if n == 0 { 0.0 } else { sum as f64 / n as f64 }, n)
}

/// Everything a traced world measured, per layer.
pub struct LayerInput<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Registry snapshots at the start and end of the timed loop.
    pub window: Window<'a>,
    /// Report at the end of the timed loop (phase spans).
    pub end: &'a Report,
    /// Timed steps.
    pub steps: u64,
    /// Spans of the timed steps.
    pub spans: Vec<&'a Span>,
    /// Replayed layer work.
    pub replay: Replay,
}

/// The per-layer metrics of one traced world: the ones `BENCHMARK.json`
/// declares (the result line's), and the report-only extras (stream-only
/// spans and histograms, the codec latency histogram).
pub fn layer_metrics(inp: &LayerInput) -> (Vec<Metric>, Vec<Metric>) {
    let w = &inp.window;
    let n = inp.steps.max(1) as f64;
    let per_step = |v: u64| v as f64 / n;
    let ms = |ns: f64| ns * 1e-6;
    let us = |ns: f64| ns * 1e-3;
    let (write_ns, _) = span_stats(&inp.spans, "minih5.write");
    let (close_ns, _) = span_stats(&inp.spans, "lowfive.close");
    let (open_ns, _) = span_stats(&inp.spans, "lowfive.open");
    let (read_ns, reads) = span_stats(&inp.spans, "lowfive.read");
    let index = inp.end.phase_totals().into_iter().find(|t| t.phase == Phase::Index);
    let index_ms = index.filter(|t| t.spans > 0).map_or(0.0, |t| t.seconds * 1e3 / t.spans as f64);
    let served = w.hist(Hist::BytesServed).1;
    let (hits, misses) = (w.ctr(Ctr::FetchCacheHits), w.ctr(Ctr::FetchCacheMisses));
    let requested = inp.w.requested_bytes_per_step() * inp.steps;
    let (pre, post) = (w.ctr(Ctr::BytesPreCodec), w.ctr(Ctr::BytesOnWire));
    let colls: u64 = [
        Ctr::CollBarrier,
        Ctr::CollBcast,
        Ctr::CollGather,
        Ctr::CollScatter,
        Ctr::CollAlltoall,
        Ctr::CollAllgather,
        Ctr::CollReduce,
        Ctr::CollExscan,
    ]
    .iter()
    .map(|&c| w.ctr(c))
    .sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // The replayed bodies carry each requested byte once; the producers
    // serve `served / requested` times that per step, so scale the replay.
    let served_share = ratio(served, requested);
    let declared = vec![
        metric("minih5.write_us", us(write_ns), "us"),
        metric("minih5.runs_per_step", inp.replay.runs as f64, "count"),
        metric("minih5.segments_per_step", inp.replay.segments as f64, "count"),
        metric("minih5.runs_self_us", inp.replay.runs_us, "us"),
        metric("lowfive.close_ms", ms(close_ns), "ms"),
        metric("lowfive.open_ms", ms(open_ns), "ms"),
        metric("lowfive.read_ms", ms(read_ns * reads as f64 / n), "ms"),
        metric("lowfive.index_ms", index_ms, "ms"),
        metric(
            "lowfive.serve_data_us",
            us(w.hist_mean(&[Hist::ServeBatchNs, Hist::ServeDataNs])),
            "us",
        ),
        metric("lowfive.bytes_served_per_step", per_step(served), "B"),
        metric("lowfive.bytes_copied_per_step", per_step(w.ctr(Ctr::BytesCopied)), "B"),
        metric("lowfive.fetch_cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric("lowfive.fetch_efficiency", ratio(requested, served), "ratio"),
        metric("codec.wire_ratio", ratio(post, pre), "ratio"),
        metric("codec.encode_us_per_step", inp.replay.encode_us * served_share, "us"),
        metric("codec.decode_us_per_step", inp.replay.decode_us * served_share, "us"),
        metric("diyblk.rpc_calls_per_step", per_step(w.ctr(Ctr::RpcCalls)), "count"),
        metric(
            "diyblk.rpc_retries_per_step",
            per_step(w.ctr(Ctr::RpcRetries) + w.ctr(Ctr::RpcTimeouts)),
            "count",
        ),
        metric("diyblk.rpc_latency_us", us(w.hist_mean(&[Hist::RpcLatencyNs])), "us"),
        metric("diyblk.serve_queue_depth", w.hist_mean(&[Hist::ServeQueueDepth]), "count"),
        metric("simmpi.msgs_per_step", per_step(w.ctr(Ctr::MsgsSent)), "count"),
        metric("simmpi.bytes_per_step", per_step(w.ctr(Ctr::BytesSent)), "B"),
        metric("simmpi.collectives_per_step", per_step(colls), "count"),
        metric("simmpi.msg_latency_us", us(w.hist_mean(&[Hist::MsgLatencyNs])), "us"),
        metric("simmpi.wire_bytes_per_step", per_step(w.ctr(Ctr::WireBytesSent)), "B"),
    ];
    let mut extra = Vec::new();
    if w.hist(Hist::CodecLatencyNs).0 > 0 {
        extra.push(metric("codec.latency_us", us(w.hist_mean(&[Hist::CodecLatencyNs])), "us"));
    }
    if inp.w.kind == Kind::Stream {
        extra.push(metric(
            "lowfive.publish_ms",
            ms(span_stats(&inp.spans, "lowfive.publish").0),
            "ms",
        ));
        extra.push(metric(
            "lowfive.next_step_ms",
            ms(span_stats(&inp.spans, "lowfive.next_step").0),
            "ms",
        ));
        extra.push(metric(
            "lowfive.step_latency_us",
            us(w.hist_mean(&[Hist::StepLatencyNs])),
            "us",
        ));
    }
    (declared, extra)
}

/// Track id of a rank's benchmark spans: next to the rank's `obsv` lanes
/// (`rank * 256 + lane`), on a lane index no helper thread uses.
fn bench_tid(rank: usize) -> u64 {
    rank as u64 * 256 + 255
}

/// The registry's Chrome trace, cut to the last `keep_events` events of
/// every lane, with the benchmark's spans of the last `keep_steps` steps
/// added as one extra track per rank and `stamp` as `otherData`.
///
/// The cut keeps the document small enough for
/// `obsv::validate::validate_chrome_trace`, whose parser slows down
/// quadratically with document size.
pub fn chrome_trace(
    report: &Report,
    logs: &[RankLog],
    keep_events: usize,
    keep_steps: u64,
    stamp: &Value,
) -> String {
    let tail = Report {
        lanes: report
            .lanes
            .iter()
            .map(|l| {
                let mut l = l.clone();
                l.events.drain(..l.events.len().saturating_sub(keep_events));
                l
            })
            .collect(),
    };
    let base = tail.chrome_trace();
    let mut extra = String::new();
    let mut push = |v: Value| {
        extra.push(',');
        extra.push_str(&v.to_json());
    };
    for log in logs {
        let tid = bench_tid(log.rank);
        let role = if log.producer { "producer" } else { "consumer" };
        push(obj(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", int(0)),
            ("tid", int(tid)),
            (
                "args",
                obj(vec![
                    ("name", s(&format!("rank {} bench ({role})", log.rank))),
                    ("rank", int(log.rank as u64)),
                    ("lane", int(255)),
                ]),
            ),
        ]));
        let last = log.spans.iter().map(|sp| sp.step).max().unwrap_or(0);
        for sp in log.spans.iter().filter(|sp| sp.step + keep_steps > last) {
            push(obj(vec![
                ("name", s(sp.name)),
                ("cat", s("bench")),
                ("ph", s("X")),
                ("pid", int(0)),
                ("tid", int(tid)),
                ("ts", num(sp.start_ns as f64 / 1000.0)),
                ("dur", num(sp.dur_ns() as f64 / 1000.0)),
                (
                    "args",
                    obj(vec![
                        ("tag", int(sp.step)),
                        ("step", int(sp.step)),
                        ("parent", s(sp.parent)),
                        ("ts_ns", int(sp.start_ns)),
                        ("dur_ns", int(sp.dur_ns())),
                    ]),
                ),
            ]));
        }
    }
    // `base` is `{…,"traceEvents":[…]}`: stamp goes in front, the extra
    // events before the closing brackets.
    let body = base.strip_prefix('{').and_then(|b| b.strip_suffix("]}")).expect("trace object");
    format!("{{\"otherData\":{},{body}{extra}]}}", stamp.to_json())
}
