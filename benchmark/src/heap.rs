//! Live heap bytes of the process, counted by the global allocator.
//!
//! The counter wraps the system allocator and keeps the bytes currently
//! allocated and the highest count since the last [`Window`] opened. Unlike
//! the resident set size, the count does not include allocator slack or
//! pages an earlier round left mapped, so one input's peak reads the same
//! on every repetition and a round's peak can be taken on its own.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting the bytes it hands out. Both counters
/// are statistics that publish no other data, hence `Relaxed`.
pub struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Relaxed) + bytes;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting only reads sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // that is from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from `System` with
        // `layout` and that `new_size` is non-zero and fits `isize`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// An interval over which the heap's high-water mark is taken. Windows do
/// not nest: opening one restarts the mark for the whole process.
pub struct Window {
    base: usize,
}

impl Window {
    pub fn open() -> Self {
        let base = CURRENT.load(Relaxed);
        PEAK.store(base, Relaxed);
        Window { base }
    }

    /// The most bytes allocated at once since the window opened, beyond
    /// what was allocated when it opened, in MiB.
    pub fn peak_mb(&self) -> f64 {
        PEAK.load(Relaxed).saturating_sub(self.base) as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_sees_its_own_peak_only() {
        let before = vec![0u8; 8 << 20];
        let w = Window::open();
        let big = vec![1u8; 4 << 20];
        drop(big);
        let small = vec![2u8; 1 << 20];
        // Other test threads allocate and free meanwhile, so only a lower
        // bound holds.
        assert!(w.peak_mb() >= 3.0, "peak {} MiB", w.peak_mb());
        drop((before, small));
    }
}
