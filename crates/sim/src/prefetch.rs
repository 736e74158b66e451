//! The crate's one `unsafe`: a cache prefetch hint.
//!
//! At 10⁵ hosts and more, the per-host state an event touches (its
//! logic record, alive flag, processed counter and CSR row bounds) is
//! rarely in cache, and the event loop takes those misses one event
//! after another. The loop hides them by asking for
//! the state of an event a few places ahead before it dispatches the
//! current one (`engine.rs`, `Simulation::prefetch_ahead`). Safe code
//! has no way to express the hint: a plain load of the same word waits
//! for the miss, and the engine cannot read a generic logic record at
//! all.

/// Ask the CPU to start loading the cache line holding `p` into every
/// cache level, and return without waiting for it. A hint only: it
/// changes no value the program reads, and a no-op off x86_64.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` (SSE, part of the x86_64 baseline) reads
    // no memory the program can observe and cannot fault, whatever `p`
    // points at — dangling, unaligned or null alike; it only moves a
    // cache line closer to the core.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
