//! The benchmark process's allocator: the system allocator, which in
//! the training workloads' processes aligns every block of
//! [`THRESHOLD`] bytes or more to a page.
//!
//! This pins the one input of the measured code that the benchmark
//! could not otherwise hold still: *where* `malloc` happens to place the
//! kernels' buffers.  With the default placement the deep sampler of
//! `train_maxcut_deep2` runs an iteration in 415–440 ms in some
//! processes and 515 ms in others (same binary, same seed), and two
//! trainers in one process differ by a quarter; with page-aligned
//! buffers it takes 270–280 ms in every process.  A benchmark that
//! moves by ±12 % on placement luck cannot gate a change at 20 %, so
//! the placement is fixed — and the factor between the two is recorded
//! in `README.md` as an open question about the sampler, not hidden:
//! `vqmc-cli` runs on the default allocator.
//!
//! Only the `train_*` workloads run this way.  Their steady state
//! allocates nothing (`Trainer::step`'s zero-allocation contract), so
//! the policy decides where buffers sit and never what allocating
//! costs.  The serving and `dist_dp_r2` workloads allocate on every
//! request and every step; there the allocator is part of what is
//! measured (page-aligning it made `dist_dp_r2` half again as slow), so
//! they run on the system allocator untouched.
//!
//! The mode is read once, from the environment variable
//! [`PAGE_ALIGN_ENV`] that the launching process sets for its worker
//! child, and never changes while the process lives: a block is always
//! freed under the policy it was allocated under.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::{c_char, CStr};
use std::sync::atomic::{AtomicU8, Ordering};

/// Set (to anything) in the environment of a worker process whose
/// blocks are to be page-aligned.
pub const PAGE_ALIGN_ENV: &CStr = c"VQMC_E2E_PAGE_ALIGN";

extern "C" {
    fn getenv(name: *const c_char) -> *const c_char;
}

const UNREAD: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;
/// The process's mode; a statistic-like flag that publishes no other
/// data, hence `Relaxed`.
static MODE: AtomicU8 = AtomicU8::new(UNREAD);

/// Whether this process page-aligns.  The first call reads the
/// environment; `main` makes it before anything can change the
/// environment, and two racing first calls would store the same answer.
pub fn page_aligning() -> bool {
    match MODE.load(Ordering::Relaxed) {
        UNREAD => {
            // SAFETY: the name is a NUL-terminated string, and `getenv`
            // only reads the environment, which nothing in this process
            // writes before `main` has made this call.
            let on = !unsafe { getenv(PAGE_ALIGN_ENV.as_ptr()) }.is_null();
            MODE.store(if on { ON } else { OFF }, Ordering::Relaxed);
            on
        }
        mode => mode == ON,
    }
}

/// Blocks this large and larger are page-aligned.  Smaller ones — frame
/// headers, request payloads, bookkeeping — keep the system allocator's
/// alignment and its speed.
pub const THRESHOLD: usize = 256;
const PAGE: usize = 4096;

pub struct PageAligned;

/// The layout actually requested from the system for a caller's layout:
/// same size, alignment raised to a page at or above the threshold when
/// the process page-aligns.  A function of its argument and the
/// process's fixed mode, so the layout a block is freed with is the
/// layout it was allocated with.
fn widen(layout: Layout) -> Layout {
    widen_if(page_aligning(), layout)
}

fn widen_if(aligning: bool, layout: Layout) -> Layout {
    if aligning && layout.size() >= THRESHOLD && layout.align() < PAGE {
        // A size that is valid at the caller's alignment can only fail
        // to be at page alignment within a page of `isize::MAX`; the
        // system allocator refuses such a block either way.
        Layout::from_size_align(layout.size(), PAGE).unwrap_or(layout)
    } else {
        layout
    }
}

// SAFETY: every method forwards to `System` with `widen(layout)`, whose
// size equals the caller's and whose alignment is at least the
// caller's, so a block `System` returns satisfies the caller's layout.
// `widen` depends only on the layout and a mode that never changes once
// read, so `dealloc` hands `System` the layout `alloc` used for that
// block.  `realloc` forwards only when the old and the new
// size widen to the same alignment — then `System::realloc` sees the
// block's true layout and keeps its alignment — and otherwise moves the
// block by hand through `alloc`, `copy` and `dealloc`, each with the
// widened layout of its own size.
unsafe impl GlobalAlloc for PageAligned {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(widen(layout))
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        System.alloc_zeroed(widen(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, widen(layout))
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY (of the unchecked constructor): the caller guarantees
        // `new_size`, rounded up to `layout.align()`, fits an `isize`.
        let new_layout = Layout::from_size_align_unchecked(new_size, layout.align());
        let (old_wide, new_wide) = (widen(layout), widen(new_layout));
        if old_wide.align() == new_wide.align() {
            return System.realloc(ptr, old_wide, new_size);
        }
        // The block crosses the threshold: its alignment must change.
        let moved = System.alloc(new_wide);
        if !moved.is_null() {
            // SAFETY: both blocks are live and at least
            // `min(old size, new size)` bytes long, and a fresh
            // allocation cannot overlap a live one.
            std::ptr::copy_nonoverlapping(ptr, moved, layout.size().min(new_size));
            System.dealloc(ptr, old_wide);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_blocks_are_page_aligned_small_ones_untouched() {
        let small = Layout::from_size_align(THRESHOLD - 1, 8).unwrap();
        assert_eq!(widen_if(true, small), small);
        let large = Layout::from_size_align(THRESHOLD, 8).unwrap();
        assert_eq!(
            widen_if(true, large),
            Layout::from_size_align(THRESHOLD, PAGE).unwrap()
        );
        assert_eq!(widen_if(false, large), large);
        let huge_align = Layout::from_size_align(1 << 20, 1 << 16).unwrap();
        assert_eq!(widen_if(true, huge_align), huge_align);
    }

    #[test]
    fn blocks_keep_their_bytes_across_the_threshold() {
        // This test binary runs on `PageAligned` (it is the crate's
        // global allocator), in whichever mode its environment selects;
        // a growing vector crosses the threshold through `realloc` in
        // both directions either way.
        let mut v: Vec<u8> = Vec::with_capacity(16);
        for i in 0..4096u32 {
            v.push(i as u8);
        }
        assert!(v.iter().enumerate().all(|(i, &b)| b == i as u8));
        v.truncate(32);
        v.shrink_to_fit();
        assert!(v.iter().enumerate().all(|(i, &b)| b == i as u8));
        let floats = vec![1.5f64; 1024];
        if page_aligning() {
            assert_eq!(floats.as_ptr() as usize % PAGE, 0);
        }
    }
}
