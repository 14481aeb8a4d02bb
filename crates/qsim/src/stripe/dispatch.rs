//! The kernels at the host's vector width, and the crate's one module with
//! `unsafe` code: [`wide!`] runs a kernel as the widest copy the CPU has —
//! compiled for `avx512f` (four complex amplitudes per register) or `avx2`
//! (two) on `x86_64` — else as the baseline (SSE2, one). The copies run the
//! same IEEE operations in the same order, so every engine stays bit-identical
//! on any host: Rust never fuses `a * b + c` (not even with `fma`, which
//! `avx512f` implies) and never reassociates a sum.
#![allow(unsafe_code)]

/// The copies of a kernel, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    Baseline,
    Avx2,
    Avx512,
}

/// Which copy of the wide kernels this host runs: `"avx512"`, `"avx2"` (on
/// `x86_64` CPUs with those features) or `"baseline"`.
pub fn kernel_level() -> &'static str {
    match level() {
        Level::Avx512 => "avx512",
        Level::Avx2 => "avx2",
        Level::Baseline => "baseline",
    }
}

/// The widest copy the running CPU has (AVX-512 needs `avx512f` and what it
/// implies); the standard library caches the detection.
#[inline(always)]
pub(crate) fn detected() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        use std::is_x86_feature_detected as has;
        if !has!("avx2") {
            Level::Baseline
        } else if has!("avx512f") && has!("fma") && has!("f16c") {
            Level::Avx512
        } else {
            Level::Avx2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    Level::Baseline
}

#[cfg(not(test))]
use detected as level;

/// `wide!(Avx512, { ... })` runs the block as the widest copy the CPU has, no
/// wider than the [`Level`] named (the widest it was measured to gain from).
/// A closure keeps its own target features, so a copy holds only the code
/// inlined into it: the block becomes an `#[inline(always)]` closure, and so
/// must each closure it hands to `walk` or `for_runs` that the optimizer would
/// not inline (check the copy's `ymm`/`zmm` count with `objdump -d`).
macro_rules! wide {
    ($widest:ident, $kernel:block) => {
        $crate::stripe::dispatch::run(
            $crate::stripe::dispatch::Level::$widest,
            #[inline(always)]
            || $kernel,
        )
    };
}
pub(crate) use wide;

/// The body of [`wide!`].
#[inline(always)]
pub(crate) fn run<R>(widest: Level, kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    match level().min(widest) {
        // SAFETY: `level()` has detected AVX-512F and the features it
        // implies on the running CPU, the features `avx512` is compiled for.
        Level::Avx512 => return unsafe { avx512(kernel) },
        // SAFETY: `level()` has detected AVX2 on the running CPU, the
        // feature `avx2` is compiled for.
        Level::Avx2 => return unsafe { avx2(kernel) },
        Level::Baseline => {}
    }
    kernel()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(test)]
use tests::level;

#[cfg(test)]
pub(crate) mod tests {
    use super::{detected, kernel_level, Level};
    use std::cell::Cell;

    thread_local! {
        /// The widest copy this thread's kernel calls may run: a test lowers
        /// it to run the narrower copies on a host that has the wider ones.
        static WIDEST: Cell<Level> = const { Cell::new(Level::Avx512) };
    }

    /// [`detected`], capped at this thread's widest allowed copy.
    pub(super) fn level() -> Level {
        detected().min(WIDEST.with(Cell::get))
    }

    /// Runs `check` on each kernel copy this host has, narrowest first.
    pub(crate) fn on_each_copy(check: impl Fn()) {
        for widest in [Level::Baseline, Level::Avx2, Level::Avx512] {
            WIDEST.with(|w| w.set(widest));
            if level() == widest {
                check();
            }
        }
    }

    #[test]
    fn the_dispatcher_picks_the_widest_copy_the_host_has() {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = (
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (false, false);
        let with_avx2 = if avx2 { "avx2" } else { "baseline" };
        for (widest, want) in [
            (Level::Baseline, "baseline"),
            (Level::Avx2, with_avx2),
            (Level::Avx512, if avx512 { "avx512" } else { with_avx2 }),
        ] {
            WIDEST.with(|w| w.set(widest));
            assert_eq!(kernel_level(), want, "at most {widest:?}");
        }
    }
}
