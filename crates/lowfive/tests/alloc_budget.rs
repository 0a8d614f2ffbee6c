//! Allocation budget of the consumer's fetch path: bytes allocated per
//! byte requested.
//!
//! Two shallow (zero-copy) producers write x-halves of a `[40][40][80]`
//! `u64` grid; one consumer reads it back as 4 y-slabs, so every block
//! cuts every producer slab into 320 B row pieces and each reply carries
//! hundreds of lent parts. The consumer's only necessary allocation is
//! the packed read buffer the reply parts scatter into, which becomes the
//! returned `Bytes` as is. From the second step on (caches warm), a
//! `read_bytes_multi` call may therefore allocate little more than the
//! bytes it returns; a hidden copy of the read buffer (or a per-reply
//! staging blob) doubles the figure.
//!
//! A counting global allocator tallies, per thread, the bytes each
//! allocation asks for (a `realloc` counts its growth). It is installed
//! in this test binary only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use lowfive::DistVolBuilder;
use minih5::{Dataspace, Datatype, Ownership, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: allocations made while the thread is torn down go
    // uncounted instead of panicking.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Bytes this thread has asked the allocator for so far.
fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees carry over; the bookkeeping only bumps a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NZ: u64 = 40;
const NY: u64 = 40;
const NX: u64 = 80;
const PRODUCERS: u64 = 2;
const BLOCKS: u64 = 4;
const STEPS: u64 = 4;
/// Allowed allocated bytes per requested byte inside one read call.
const BUDGET: f64 = 1.25;

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// Grid value at `(z, y, x)` in `step`: position-coded, so a misplaced
/// run fails the comparison.
fn value(step: u64, z: u64, y: u64, x: u64) -> u64 {
    (step << 32) | ((z * NY + y) * NX + x)
}

fn pack(step: u64, zs: u64, ys: std::ops::Range<u64>, xs: std::ops::Range<u64>) -> Vec<u8> {
    (0..zs)
        .flat_map(|z| {
            let xs = xs.clone();
            ys.clone().flat_map(move |y| xs.clone().map(move |x| value(step, z, y, x)))
        })
        .flat_map(u64::to_le_bytes)
        .collect()
}

#[test]
fn consumer_reads_allocate_about_the_bytes_they_return() {
    let specs = [TaskSpec::new("producer", PRODUCERS as usize), TaskSpec::new("consumer", 1)];
    let space = || Dataspace::simple(&[NZ, NY, NX]);
    // The consumer returns `(correct, allocated, requested)` per step.
    // The budget is checked once the world has ended, so a breach fails
    // the test instead of stranding the producers' serve loops.
    let per_rank = TaskWorld::run(&specs, |tc| {
        let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
        let vol = if tc.task_id == 0 {
            b.produce("grid.h5", world_ranks(&tc, 1)).build()
        } else {
            b.consume("grid.h5", world_ranks(&tc, 0)).build()
        };
        let h5 = H5::with_vol(vol as Arc<dyn Vol>);
        let w = NX / PRODUCERS;
        let h = NY / BLOCKS;
        let mut tallies = Vec::new();
        for step in 0..STEPS {
            tc.world.barrier();
            if tc.task_id == 0 {
                let p = tc.local.rank() as u64;
                let slab = Selection::block(&[0, 0, p * w], &[NZ, NY, w]);
                let data = Bytes::from(pack(step, NZ, 0..NY, p * w..(p + 1) * w));
                let f = h5.create_file("grid.h5").unwrap();
                let d = f.create_dataset("grid", Datatype::UInt64, space()).unwrap();
                d.write_bytes(&slab, data, Ownership::Shallow).unwrap();
                f.close().unwrap(); // serves until the consumer closes
            } else {
                let blocks: Vec<Selection> =
                    (0..BLOCKS).map(|b| Selection::block(&[0, b * h, 0], &[NZ, h, NX])).collect();
                let f = h5.open_file("grid.h5").unwrap();
                let d = f.open_dataset("grid").unwrap();
                let before = allocated();
                let got = d.read_bytes_multi(&blocks).unwrap();
                let used = allocated() - before;
                f.close().unwrap();
                let correct = got.iter().enumerate().all(|(b, got)| {
                    let b = b as u64;
                    got[..] == pack(step, NZ, b * h..(b + 1) * h, 0..NX)[..]
                });
                let requested: u64 = got.iter().map(|g| g.len() as u64).sum();
                tallies.push((correct, used, requested));
            }
        }
        tallies
    });
    let tallies = &per_rank[PRODUCERS as usize];
    assert_eq!(tallies.len() as u64, STEPS);
    for (step, &(correct, used, requested)) in tallies.iter().enumerate() {
        assert!(correct, "step {step}: the grid read back wrong");
        assert_eq!(requested, NZ * NY * NX * 8, "step {step}");
        let ratio = used as f64 / requested as f64;
        eprintln!("step {step}: {used} B allocated for {requested} B read ({ratio:.3}x)");
        // Step 0 fills the consumer's caches; the budget holds from then on.
        assert!(
            step == 0 || ratio <= BUDGET,
            "step {step}: read_bytes_multi allocated {used} B for {requested} B \
             ({ratio:.3}x > {BUDGET}x)"
        );
    }
}
