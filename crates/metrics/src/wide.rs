//! The estimator's sample loops at the widest vector level the CPU has.
//!
//! Three kernels hold the estimator's per-sample loops: a batch of a fold
//! (`fold::Batch`), the pricing pass (`price::Pricing`) and the key pass
//! of the percentile (`summary::KeyPass`). Each is a [`Kernel`] whose body
//! is `#[inline(always)]` down to every per-sample helper. [`run`] calls a
//! kernel inside a wrapper compiled for AVX-512F, for AVX2 or for the
//! target's baseline (packed SSE2 on x86-64), whichever is the widest the
//! CPU reports, detected once per process. The body is inlined into each
//! wrapper, so each wrapper holds its own copy of the loops, vectorised at
//! its width. Other architectures build the baseline alone.
//!
//! No result depends on the level. Every lane operation the bodies use —
//! add, multiply, divide, max, compare, select, `ceil`, the integer key
//! map — gives the same bits at any width; Rust never contracts
//! `a * b + c` into a fused multiply-add; and the sums the sample loops
//! carry are sequential left folds, which no width reorders.

use std::sync::OnceLock;

/// A vector level the sample loops are compiled for, narrowest first.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    /// The target's baseline: packed SSE2 on x86-64.
    Base,
    /// 256-bit lanes.
    Avx2,
    /// 512-bit lanes.
    Avx512f,
}

/// The widest level this CPU runs, detected on first use.
fn widest() -> Level {
    static WIDEST: OnceLock<Level> = OnceLock::new();
    *WIDEST.get_or_init(detect)
}

/// Every feature a level's wrapper enables, implied ones included
/// (`avx512f` implies `avx2`, `fma` and `f16c`; `avx2` implies `avx`).
#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("avx");
    let avx512f = avx2
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("fma")
        && is_x86_feature_detected!("f16c");
    match (avx512f, avx2) {
        (true, _) => Level::Avx512f,
        (false, true) => Level::Avx2,
        (false, false) => Level::Base,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level::Base
}

#[cfg(test)]
thread_local! {
    static FORCED: std::cell::Cell<Option<Level>> = const { std::cell::Cell::new(None) };
}

/// The levels this CPU runs, narrowest first.
#[cfg(test)]
pub(crate) fn levels() -> impl Iterator<Item = Level> {
    [Level::Base, Level::Avx2, Level::Avx512f]
        .into_iter()
        .filter(|&level| level <= widest())
}

/// Runs `f` with every [`run`] on this thread at `level`, which the CPU
/// must have.
#[cfg(test)]
pub(crate) fn at<R>(level: Level, f: impl FnOnce() -> R) -> R {
    assert!(level <= widest(), "{level:?} is wider than this CPU");
    FORCED.set(Some(level));
    let out = f();
    FORCED.set(None);
    out
}

/// A sample loop's body and its operands, for [`run`].
///
/// A struct rather than a closure: nothing marks a closure
/// `#[inline(always)]`, and LLVM does not inline one that holds a whole
/// fold into a wrapper. What is not inlined into a level's wrapper runs at
/// the baseline width.
pub(crate) trait Kernel {
    type Out;
    /// Runs the body: `#[inline(always)]` in every impl, as is every
    /// per-sample helper the body calls.
    fn call(self) -> Self::Out;
}

/// `kernel`, run at the widest level the CPU has.
#[inline(always)]
pub(crate) fn run<K: Kernel>(kernel: K) -> K::Out {
    #[cfg(test)]
    let level = FORCED.get().unwrap_or_else(widest);
    #[cfg(not(test))]
    let level = widest();
    match level {
        // SAFETY: `level` is at most `widest()` (`at` asserts it of a
        // forced level), and `detect` reported every feature the wrapper
        // of `widest()` enables, so the CPU has those of `level`'s.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512f => unsafe { avx512f(kernel) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { avx2(kernel) },
        _ => kernel.call(),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512f<K: Kernel>(kernel: K) -> K::Out {
    kernel.call()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.call()
}
