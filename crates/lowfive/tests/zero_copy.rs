//! Zero-copy serve path and generation-tagged consumer caches.
//!
//! The serve loop answers data queries with *borrowed* sub-slices of the
//! producer's shallow regions (no staging copy), and every reply carries
//! the file's generation so a consumer holding cached metadata/owner
//! lookups can detect an in-place rewrite and refetch. These tests pin:
//!
//! - read → in-place rewrite → read returns the *new* bytes, on both the
//!   pipelined (batched) and serial fetch paths;
//! - a file recreated between open sessions is served once per read (no
//!   stale-generation second pass), while a rewrite by the non-home
//!   producer *within* one open session still takes exactly one retry;
//! - a query box that intersects nothing served returns fill values
//!   (canonical empty-bbox handling end to end);
//! - a fully shallow producer serves a consumer with zero dataset-payload
//!   memcpys (`BytesCopied == 0`), while the deep (copy) mode counts them;
//! - a dropped zero-copy reply is retransmitted by the bounded RPC retry
//!   without corrupting the producer's lent buffer (no aliasing, no
//!   double-free — the region is refcounted, not owned by the wire).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{Dataspace, Datatype, Ownership, Selection, Vol, H5};
use obsv::{Ctr, Hist, Registry};
use simmpi::{FaultKind, FaultPlan, TaskComm, TaskSpec, TaskWorld};

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

const N: u64 = 64;
const HALF: u64 = N / 2;

/// Shared body for the staleness regression: two producers write their
/// halves, the consumer reads the whole dataset while *keeping the file
/// open*, the producers rewrite their halves in place (same geometry,
/// new values, generation bump), and the consumer's second read through
/// the still-open handle must observe the new values.
///
/// World barriers order the phases; async serve keeps the producers'
/// serve loop answering across the rewrite.
fn rewrite_in_place(pipelined: bool) {
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let mut props = LowFiveProps::new();
        props.set_fetch_pipeline("*", pipelined);
        let vol = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers.clone())
                .async_serve(true)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        if tc.task_id == 0 {
            let p = tc.local.rank() as u64;
            let lo = p * HALF;
            let sel = Selection::block(&[lo], &[HALF]);
            let f = h5.create_file("rw.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
            let vals: Vec<u64> = (lo..lo + HALF).collect();
            d.write_selection(&sel, &vals).unwrap();
            f.close().unwrap(); // async: returns immediately, serve thread answers
            tc.world.barrier(); // consumer finished its first read
                                // In-place rewrite through a re-opened handle: same geometry,
                                // new values. This bumps the file generation; the close of a
                                // non-created handle must not re-serve.
            let f = h5.open_file("rw.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let vals: Vec<u64> = (lo..lo + HALF).map(|i| i + 7777).collect();
            d.write_selection(&sel, &vals).unwrap();
            f.close().unwrap();
            tc.world.barrier(); // rewrite visible before the second read
            vol.drain();
        } else {
            let f = h5.open_file("rw.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let first: Vec<u64> = d.read_all().unwrap();
            let want: Vec<u64> = (0..N).collect();
            assert_eq!(first, want, "first read sees the original snapshot");
            tc.world.barrier(); // let the producers rewrite
            tc.world.barrier();
            // Cached owner lookups are now stale; the generation tag in
            // the data replies must force an invalidate+refetch, so the
            // same open handle observes the rewritten bytes.
            let second: Vec<u64> = d.read_all().unwrap();
            let want: Vec<u64> = (0..N).map(|i| i + 7777).collect();
            assert_eq!(second, want, "second read must see the in-place rewrite");
            f.close().unwrap();
        }
    });
}

#[test]
fn in_place_rewrite_is_observed_pipelined() {
    rewrite_in_place(true);
}

#[test]
fn in_place_rewrite_is_observed_serial() {
    rewrite_in_place(false);
}

const ROWS: u64 = 8;
const COLS: u64 = 16;

/// The value at `(r, c)` of the cross-cutting grid in `version`.
fn grid_value(version: u64, r: u64, c: u64) -> u64 {
    version * 1_000_000 + r * COLS + c + 1
}

/// Producer `p` owns the column half `[p * COLS/2, (p+1) * COLS/2)`.
fn column_half(p: u64) -> Selection {
    Selection::block(&[0, p * COLS / 2], &[ROWS, COLS / 2])
}

/// The consumer reads two row halves; each cuts both producers' columns.
fn row_halves() -> Vec<Selection> {
    (0..2).map(|b| Selection::block(&[b * ROWS / 2, 0], &[ROWS / 2, COLS])).collect()
}

/// Write producer `p`'s column half of `version` into the grid dataset.
fn write_half(d: &minih5::Dataset, p: u64, version: u64) {
    let vals: Vec<u64> = (0..ROWS)
        .flat_map(|r| (p * COLS / 2..(p + 1) * COLS / 2).map(move |c| grid_value(version, r, c)))
        .collect();
    d.write_selection(&column_half(p), &vals).unwrap();
}

/// The bytes each row half holds when producer `p` wrote `versions[p]`.
fn expected_halves(versions: [u64; 2]) -> Vec<Vec<u64>> {
    (0..2)
        .map(|b| {
            (b * ROWS / 2..(b + 1) * ROWS / 2)
                .flat_map(|r| {
                    (0..COLS).map(move |c| grid_value(versions[(c / (COLS / 2)) as usize], r, c))
                })
                .collect()
        })
        .collect()
}

fn as_u64s(b: &Bytes) -> Vec<u64> {
    b.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
}

/// Two producers recreate and rewrite the same file every step; the
/// consumer opens, reads both row halves in one `read_bytes_multi` and
/// closes. A rewrite between open sessions must not look stale: after
/// the first step, every read sends exactly one `M_DATA_BATCH` per
/// producer, the producers serve each requested byte once, and no read
/// takes the stale-generation second pass.
#[test]
fn recreated_file_is_served_once_per_read() {
    const STEPS: u64 = 5;
    let reg = Registry::new();
    let reg_ref = &reg;
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    TaskWorld::run_observed(&specs, None, Some(&reg), |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        let mut first_step_done = None;
        for step in 0..STEPS {
            if tc.task_id == 0 {
                let f = h5.create_file("steps.h5").unwrap();
                let d = f
                    .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&[ROWS, COLS]))
                    .unwrap();
                write_half(&d, tc.local.rank() as u64, step);
                f.close().unwrap(); // serves until the consumer's DONE
            } else {
                let f = h5.open_file("steps.h5").unwrap();
                let got = f.open_dataset("grid").unwrap().read_bytes_multi(&row_halves()).unwrap();
                let got: Vec<Vec<u64>> = got.iter().map(as_u64s).collect();
                assert_eq!(got, expected_halves([step, step]), "step {step} bytes");
                f.close().unwrap();
                if step == 0 {
                    // Every serve of step 0 completed before the DONE acks.
                    first_step_done = Some(reg_ref.report());
                }
            }
        }
        if tc.task_id == 1 {
            let (before, after) = (first_step_done.unwrap(), reg_ref.report());
            let reads = STEPS - 1;
            assert_eq!(after.counter(Ctr::FetchStaleRetries), 0, "no read may retry");
            assert_eq!(
                after.counter(Ctr::FetchBatches) - before.counter(Ctr::FetchBatches),
                2 * reads,
                "one batch per producer per read"
            );
            // Step 0 ran against empty caches, so it is one clean serve:
            // its reply bodies carry each requested byte once, plus the
            // segment headers. Every later read must serve exactly that.
            let (once, bodies) = (before.hist(Hist::BytesServed), after.hist(Hist::BytesServed));
            let requested = ROWS * COLS * 8;
            assert!(
                requested <= once.sum && once.sum < 2 * requested,
                "step 0 served {}",
                once.sum
            );
            assert_eq!(
                bodies.count - once.count,
                2 * reads,
                "one reply body per producer per read"
            );
            assert_eq!(bodies.sum - once.sum, reads * once.sum, "each requested byte served once");
        }
    });
}

/// Only the non-home producer rewrites its half in place between two
/// reads through one open handle: the second read must see the new
/// bytes, found by exactly one stale-generation retry.
#[test]
fn non_home_rewrite_within_session_retries_once() {
    let reg = Registry::new();
    let reg_ref = &reg;
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    TaskWorld::run_observed(&specs, None, Some(&reg), |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers.clone())
                .async_serve(true)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        if tc.task_id == 0 {
            let p = tc.local.rank() as u64;
            let f = h5.create_file("nh.h5").unwrap();
            let d = f
                .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&[ROWS, COLS]))
                .unwrap();
            write_half(&d, p, 0);
            f.close().unwrap();
            tc.world.barrier(); // consumer finished its first read
                                // The consumer's home producer is local rank 0; only the other
                                // rank rewrites.
            if p == 1 {
                let f = h5.open_file("nh.h5").unwrap();
                write_half(&f.open_dataset("grid").unwrap(), p, 1);
                f.close().unwrap();
            }
            tc.world.barrier(); // rewrite visible before the second read
            vol.drain();
        } else {
            let f = h5.open_file("nh.h5").unwrap();
            let d = f.open_dataset("grid").unwrap();
            let first: Vec<Vec<u64>> =
                d.read_bytes_multi(&row_halves()).unwrap().iter().map(as_u64s).collect();
            assert_eq!(first, expected_halves([0, 0]));
            assert_eq!(reg_ref.report().counter(Ctr::FetchStaleRetries), 0);
            tc.world.barrier();
            tc.world.barrier();
            let second: Vec<Vec<u64>> =
                d.read_bytes_multi(&row_halves()).unwrap().iter().map(as_u64s).collect();
            assert_eq!(second, expected_halves([0, 1]), "second read sees the rewrite");
            assert_eq!(reg_ref.report().counter(Ctr::FetchStaleRetries), 1);
            f.close().unwrap();
        }
    });
}

/// A consumer query box that intersects no written region: the redirect
/// finds no owners, no data RPC is issued, and the read returns fill
/// zeros — exercising the canonical empty-bbox path on the serve side.
#[test]
fn disjoint_query_returns_fill() {
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("gap.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[32])).unwrap();
            // Only [0, 8) is ever written.
            let vals: Vec<u64> = (0..8).map(|i| i + 1).collect();
            d.write_selection(&Selection::block(&[0], &[8]), &vals).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("gap.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            // Disjoint from every written region: all fill.
            let hole: Vec<u64> = d.read_selection(&Selection::block(&[16], &[8])).unwrap();
            assert_eq!(hole, vec![0u64; 8]);
            // Straddling: written prefix, fill suffix.
            let edge: Vec<u64> = d.read_selection(&Selection::block(&[4], &[8])).unwrap();
            assert_eq!(edge, vec![5, 6, 7, 8, 0, 0, 0, 0]);
            f.close().unwrap();
        }
    });
}

/// Run one producer→consumer exchange under an observed registry and
/// return the total `BytesCopied` across all ranks. `shallow` toggles
/// the zero-copy rule for every dataset.
fn bytes_copied_for(shallow: bool) -> u64 {
    const M: u64 = 1 << 12;
    let reg = Registry::new();
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    TaskWorld::run_observed(&specs, None, Some(&reg), |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let mut props = LowFiveProps::new();
        props.set_zerocopy("*", "*", shallow);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("ab.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[M])).unwrap();
            let vals: Vec<u64> = (0..M).collect();
            let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            d.write_bytes(&Selection::block(&[0], &[M]), Bytes::from(raw), Ownership::Shallow)
                .unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("ab.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let got: Vec<u64> = d.read_all().unwrap();
            assert_eq!(got, (0..M).collect::<Vec<_>>());
            f.close().unwrap();
        }
    });
    reg.report().counter(Ctr::BytesCopied)
}

/// The tentpole A/B: a fully shallow serve moves the dataset payload
/// from producer region to consumer buffer with zero intermediate
/// memcpys, while forcing deep regions pays one copy per served byte.
#[test]
fn shallow_serve_copies_no_payload_bytes() {
    assert_eq!(bytes_copied_for(true), 0, "shallow serve must be copy-free");
    let deep = bytes_copied_for(false);
    assert!(deep >= (1 << 12) * 8, "deep serve must count its staging copies, got {deep}");
}

/// Chaos: every (src, dest, tag) flow loses its first message — including
/// the first zero-copy data reply, whose parts borrow the producer's
/// region. The bounded RPC retry must retransmit (re-lending the same
/// refcounted buffer) and the consumer must still assemble exact bytes,
/// while the producer's original buffer survives unscathed.
#[test]
fn dropped_reply_retry_keeps_lent_buffer_intact() {
    const M: u64 = 512;
    let raw: Vec<u8> = (0..M).flat_map(|v| (v * 3 + 1).to_le_bytes()).collect();
    let lent = Bytes::from(raw);
    let lent_ref = &lent;
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    let plan = FaultPlan::new(0x5EED).drop_once(1.0);
    let out = TaskWorld::run_chaos(&specs, None, plan, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let mut props = LowFiveProps::new();
        props.set_zerocopy("*", "*", true);
        props.set_rpc_timeout("*", Some(Duration::from_millis(250)));
        props.set_rpc_retries("*", 20);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("chaos.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[M])).unwrap();
            d.write_bytes(&Selection::block(&[0], &[M]), lent_ref.clone(), Ownership::Shallow)
                .unwrap();
            f.close().unwrap(); // serves, retransmitting dropped replies
                                // The wire only ever borrowed the region: our handle still
                                // sees every original byte.
            let expect: Vec<u8> = (0..M).flat_map(|v| (v * 3 + 1).to_le_bytes()).collect();
            assert_eq!(lent_ref.as_ref(), &expect[..], "lent buffer mutated by the serve path");
        } else {
            let f = h5.open_file("chaos.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let got: Vec<u64> = d.read_all().unwrap();
            assert_eq!(got, (0..M).map(|v| v * 3 + 1).collect::<Vec<_>>());
            f.close().unwrap();
        }
    });
    assert!(out.deaths.is_empty(), "drop-once plan must not kill ranks: {:?}", out.deaths);
    assert!(out.results.iter().all(Option::is_some), "every rank must finish");
    assert!(
        out.trace.iter().any(|e| matches!(e.kind, FaultKind::Dropped)),
        "plan must actually have dropped a message"
    );
}
