//! The kernels at the host's vector width and across its cores, and the
//! crate's one module with `unsafe` code.
//!
//! [`wide!`] runs a kernel as the widest copy the CPU has — compiled for
//! `avx512f` (four complex amplitudes per register) or `avx2` (two) on
//! `x86_64` — else as the baseline (SSE2, one). The copies run the same IEEE
//! operations in the same order, so every engine stays bit-identical on any
//! host: Rust never fuses `a * b + c` (not even with `fma`, which `avx512f`
//! implies) and never reassociates a sum.
//!
//! [`join`] runs two halves of a kernel call at once: one on the caller, one
//! on the process's one helper thread. Each half runs the same kernel over
//! its own amplitudes, so where a call is split does not change a bit.
#![allow(unsafe_code)]

use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};

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

/// [`wide!`] for a kernel over `$len` amplitudes: below 64 the baseline copy
/// runs in place, since the call into a wider copy costs more than its width
/// saves on so few (a protocol's registers).
macro_rules! wide_from {
    ($widest:ident, $len:expr, $kernel:block) => {
        if $len < 64 {
            $kernel
        } else {
            $crate::stripe::dispatch::wide!($widest, $kernel)
        }
    };
}
pub(crate) use wide_from;

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

/// How many threads a split kernel call runs on: 2 when the helper thread
/// runs (the host has two or more hardware threads), else 1. Starts the
/// helper if no kernel call has yet.
pub fn kernel_threads() -> usize {
    helper().map_or(1, |_| 2)
}

/// Runs `a` on the caller and `b` on the helper thread, and returns when
/// both are done. On a host with one hardware thread, or while another
/// thread's split holds the helper, it runs `a` then `b` on the caller:
/// nothing queues and nothing blocks. A panic in either half reaches the
/// caller with its payload, after both halves have finished.
pub(crate) fn join<RA, RB: Send>(
    a: impl FnOnce() -> RA,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    match helper() {
        Some(helper) => helper.join(a, b),
        None => (a(), b()),
    }
}

/// The process's helper, started on first use on a host with two or more
/// hardware threads.
fn spawned() -> Option<&'static Helper> {
    static HELPER: OnceLock<Option<Helper>> = OnceLock::new();
    HELPER
        .get_or_init(|| {
            let cores = thread::available_parallelism().map_or(1, |n| n.get());
            (cores >= 2).then(Helper::spawn).flatten()
        })
        .as_ref()
}

#[cfg(not(test))]
use spawned as helper;

/// A borrowed half, its lifetime erased while the helper holds it.
type Job = &'static mut (dyn FnMut() + Send);

/// What the caller and the helper share: the helper serves one split at a
/// time, for the caller holding `claimed`.
struct Slot {
    /// Held by one caller from posting its half until the helper is done
    /// (taken with `Acquire`, released with `Release`).
    claimed: AtomicBool,
    /// Set by the caller when it posts a half; cleared by the helper once
    /// the half has run and the helper has dropped its reference to it.
    /// The helper's `Release` clear pairs with the caller's `Acquire` wait,
    /// so the half's writes — its amplitudes, its result — are the
    /// caller's once it sees the flag clear.
    pending: AtomicBool,
    /// The posted half, until the helper takes it.
    job: Mutex<Option<Job>>,
    /// Set while the helper is parked or about to park (see the post in
    /// `Helper::join` for the pairing with `pending`).
    sleeping: AtomicBool,
}

// The helper's wait after a job, as in cmpi's mailbox: spin up to
// `SPIN_MAX` iterations (~20 ns each), yielding the core every
// `YIELD_EVERY`, then park. Splits come in bursts (every gate of a batch),
// so the next is usually posted within the spin; between bursts the helper
// sleeps and leaves the core to the rank threads.

/// Spin iterations the helper makes before it parks.
const SPIN_MAX: u32 = 1024;
/// A spinning thread yields the core once every this many iterations.
const YIELD_EVERY: u32 = 16;

/// One spin iteration `i` of a wait.
fn pause(i: u32) {
    if i.is_multiple_of(YIELD_EVERY) {
        thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// The helper thread and what it shares with callers.
struct Helper {
    slot: &'static Slot,
    thread: Thread,
}

impl Helper {
    /// Starts a helper thread, unless the spawn fails. Its slot and thread
    /// live as long as the process.
    fn spawn() -> Option<Helper> {
        let slot: &'static Slot = Box::leak(Box::new(Slot {
            claimed: AtomicBool::new(false),
            pending: AtomicBool::new(false),
            job: Mutex::new(None),
            sleeping: AtomicBool::new(false),
        }));
        let handle = thread::Builder::new()
            .name("qsim-kernel-helper".into())
            .spawn(move || serve(slot))
            .ok()?;
        Some(Helper {
            slot,
            thread: handle.thread().clone(),
        })
    }

    /// [`join`] on this helper.
    fn join<RA, RB: Send>(
        &self,
        a: impl FnOnce() -> RA,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB) {
        let slot = self.slot;
        if slot
            .claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return (a(), b());
        }
        let mut b = Some(b);
        let mut out: thread::Result<RB> = Err(Box::new(NotRun));
        let mut job = || {
            if let Some(b) = b.take() {
                out = panic::catch_unwind(AssertUnwindSafe(b));
            }
        };
        let job: &mut (dyn FnMut() + Send + '_) = &mut job;
        // SAFETY: only the lifetime changes. The helper calls the job and
        // drops its reference before it clears `pending`, and `Done` below
        // waits for that before this frame returns or unwinds (it is
        // dropped on either path), so the job's borrows of `b` and `out`
        // end before they do, and nothing here touches them meanwhile.
        let job: Job = unsafe { std::mem::transmute(job) };
        *slot.job.lock() = Some(job);
        let done = Done(slot);
        slot.pending.store(true, Ordering::SeqCst);
        // The helper sets `sleeping` before it last reads `pending`, both
        // SeqCst: one of the two reads sees the other's store, so a helper
        // that missed this post is woken (an unpark before the park makes
        // the park return at once).
        if slot.sleeping.load(Ordering::SeqCst) {
            self.thread.unpark();
        }
        let ra = a();
        drop(done);
        match out {
            Ok(rb) => (ra, rb),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// The helper's result until it has run its half: a zero-sized payload, so
/// a split allocates nothing.
struct NotRun;

/// Waits, when dropped, until the helper has finished the posted half, then
/// releases the helper: a caller whose own half panics unwinds only after
/// the half that borrows its frame is done.
struct Done(&'static Slot);

impl Drop for Done {
    fn drop(&mut self) {
        let mut i = 0u32;
        while self.0.pending.load(Ordering::Acquire) {
            i = i.wrapping_add(1);
            pause(i);
        }
        self.0.claimed.store(false, Ordering::Release);
    }
}

/// The helper thread's loop: wait for a half, run it, report it done.
fn serve(slot: &'static Slot) {
    loop {
        await_job(slot);
        let job = slot.job.lock().take();
        if let Some(job) = job {
            // Catches its own panic (see `Helper::join`), so the helper
            // never unwinds.
            job();
        }
        slot.pending.store(false, Ordering::Release);
    }
}

/// Spins, then parks, until a caller posts a half.
fn await_job(slot: &Slot) {
    for i in 1..=SPIN_MAX {
        if slot.pending.load(Ordering::Acquire) {
            return;
        }
        pause(i);
    }
    slot.sleeping.store(true, Ordering::SeqCst);
    while !slot.pending.load(Ordering::SeqCst) {
        thread::park();
    }
    slot.sleeping.store(false, Ordering::Relaxed);
}

#[cfg(test)]
use tests::helper;
#[cfg(test)]
use tests::level;

#[cfg(test)]
pub(crate) mod tests {
    use super::{detected, kernel_level, kernel_threads, spawned, Helper, Level};
    use parking_lot::Mutex;
    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread;

    thread_local! {
        /// The widest copy this thread's kernel calls may run: a test lowers
        /// it to run the narrower copies on a host that has the wider ones.
        static WIDEST: Cell<Level> = const { Cell::new(Level::Avx512) };
        /// Whether this thread's splits may use the helper: a test clears it
        /// to run both halves in sequence on the caller, as a one-core host
        /// does.
        static ON_HELPER: Cell<bool> = const { Cell::new(true) };
    }

    /// [`spawned`], unless this thread runs its halves in sequence.
    pub(super) fn helper() -> Option<&'static Helper> {
        ON_HELPER.get().then(spawned).flatten()
    }

    /// Runs `check` with splits on the helper thread (where the host has
    /// one), then with both halves in sequence on the caller.
    pub(crate) fn on_each_split(check: impl Fn()) {
        for on_helper in [true, false] {
            ON_HELPER.set(on_helper);
            check();
        }
        ON_HELPER.set(true);
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

    #[test]
    fn splits_use_the_helper_where_the_host_has_two_hardware_threads() {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(kernel_threads(), if cores >= 2 { 2 } else { 1 });
    }

    /// The name of the thread running this.
    fn here() -> Option<String> {
        thread::current().name().map(String::from)
    }

    #[test]
    fn a_panic_in_the_helpers_half_reaches_the_caller_and_the_helper_serves_on() {
        let helper = Helper::spawn().expect("a helper thread");
        let ran_on = Mutex::new(None);
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            helper.join(
                || (),
                || {
                    *ran_on.lock() = here();
                    panic::panic_any(42u32)
                },
            )
        }))
        .expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&42));
        assert_eq!(ran_on.lock().as_deref(), Some("qsim-kernel-helper"));
        assert_eq!(
            helper.join(|| 1, here),
            (1, Some("qsim-kernel-helper".into()))
        );
    }

    /// Sends on its channel when dropped: while its frame unwinds.
    struct SendOnDrop(mpsc::Sender<()>);

    impl Drop for SendOnDrop {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    #[test]
    fn a_panic_in_the_callers_half_waits_for_the_helpers_half() {
        let helper = Helper::spawn().expect("a helper thread");
        let (go, wait) = mpsc::channel();
        let finished = &AtomicBool::new(false);
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            helper.join(
                || {
                    // Lets the helper's half finish only once this half is
                    // unwinding.
                    let _go = SendOnDrop(go);
                    panic!("the caller's half")
                },
                move || {
                    wait.recv().expect("the caller's half unwinds");
                    finished.store(true, Ordering::SeqCst);
                },
            )
        }));
        assert!(unwound.is_err());
        assert!(
            finished.load(Ordering::SeqCst),
            "the caller unwound before the helper's half was done"
        );
        assert_eq!(helper.join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn a_split_while_the_helper_is_busy_runs_both_halves_on_its_caller() {
        let helper = &Helper::spawn().expect("a helper thread");
        let started = &Barrier::new(2);
        let (release, wait) = mpsc::channel();
        thread::scope(|s| {
            let first = s.spawn(move || {
                helper.join(
                    || 1,
                    move || {
                        started.wait();
                        wait.recv().expect("the second split is done");
                        here()
                    },
                )
            });
            // The helper is now running `first`'s half.
            started.wait();
            assert_eq!(helper.join(|| 3, here), (3, here()));
            release.send(()).expect("the first split waits");
            let first = first.join().expect("the first split finishes");
            assert_eq!(first, (1, Some("qsim-kernel-helper".into())));
        });
        assert_eq!(helper.join(|| 1, || 2), (1, 2));
    }
}
