//! Warm ranks: one process-wide pool of parked threads for the multi
//! mapping's ranks and the dynamic mapping's workers (paper §II-B, §III:
//! serverless enactment lives on warm reuse, not cold starts).
//!
//! [`scope`], [`Scope::spawn`] and [`ScopedJoinHandle::join`] have the
//! signatures of `std::thread::scope` and its kin, but a spawned job wakes
//! an idle pool thread instead of starting one:
//!
//! * **Never queue.** With no thread idle, `spawn` starts one, so every
//!   rank of a run runs at once and no run waits on another's ranks. The
//!   pool keeps every thread it has started: its size is the peak number
//!   of jobs that ever ran at once, which
//!   [`MAX_RANKS`](crate::graph::MAX_RANKS) bounds per run.
//! * **Return the thread, then count the job done.** A job drops its
//!   closure and sends its result; its thread then goes back on the idle
//!   stack (LIFO) and only after that does the job count as finished. So
//!   when `scope` returns, every thread it used is idle again and the next
//!   run wakes the same ones.
//! * **Nothing at start-up.** The first `spawn` starts the first thread.
//!
//! A job that panics is caught on its pool thread: the panic reaches the
//! job's `join`, and the thread lives on. Unlike `std::thread::scope`, a
//! panic whose handle is never joined is discarded, not re-raised when the
//! scope ends; every caller here joins every handle.

use crate::lock;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

/// What a pool thread runs: a job with its scope's lifetime erased, and
/// the count it settles once its thread is idle again.
struct Task {
    job: Box<dyn FnOnce() + Send>,
    running: Arc<Running>,
}

/// Idle pool threads, each the sender of the channel it is parked on; the
/// thread idled most recently is on top.
static IDLE: Mutex<Vec<Sender<Task>>> = Mutex::new(Vec::new());

/// A scope's unfinished jobs.
#[derive(Default)]
struct Running {
    jobs: Mutex<usize>,
    finished: Condvar,
}

impl Running {
    fn finish_one(&self) {
        let mut jobs = lock(&self.jobs);
        *jobs -= 1;
        if *jobs == 0 {
            self.finished.notify_all();
        }
    }

    fn wait(&self) {
        let mut jobs = lock(&self.jobs);
        while *jobs > 0 {
            jobs = self
                .finished
                .wait(jobs)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A pool thread: run each task handed to it, then park on the idle stack.
fn park(me: Sender<Task>, tasks: Receiver<Task>) {
    // The thread holds its own sender, so the channel never closes.
    for Task { job, running } in tasks.iter() {
        // The job catches its closure's panic for `join`; this catch keeps
        // the thread if dropping an unclaimed result panics.
        let _ = catch_unwind(AssertUnwindSafe(job));
        lock(&IDLE).push(me.clone());
        running.finish_one();
    }
}

/// Hand `task` to the idle thread on top of the stack, or to a new one.
fn wake(task: Task) -> std::io::Result<()> {
    let idle = lock(&IDLE).pop();
    let task = match idle {
        Some(thread) => match thread.send(task) {
            Ok(()) => return Ok(()),
            Err(SendError(task)) => task,
        },
        None => task,
    };
    let (me, tasks) = channel();
    let _ = me.send(task);
    thread::Builder::new()
        .name("d4py-pool".into())
        .spawn(move || park(me, tasks))
        .map(drop)
}

/// Run `f` with a [`Scope`] whose jobs may borrow from the caller; return
/// once every job spawned in it has finished, or unwind `f`'s panic once
/// they have.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let scope = Scope {
        running: Arc::default(),
        scope: PhantomData,
        env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    scope.running.wait();
    result.unwrap_or_else(|panic| resume_unwind(panic))
}

/// The scope jobs are spawned in; see [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    running: Arc<Running>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

/// A job's result, claimed by [`ScopedJoinHandle::join`].
pub struct ScopedJoinHandle<'scope, T> {
    result: Receiver<thread::Result<T>>,
    scope: PhantomData<&'scope ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Run `f` on an idle pool thread, or on a new one if none is idle.
    #[allow(unsafe_code)]
    pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let (tx, result) = channel();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        // SAFETY: only the lifetime changes, so the layout is the same.
        // The job may borrow what lives for 'scope, and it is gone before
        // 'scope ends, for the reason `std::thread::scope` is sound:
        // `scope` neither returns nor unwinds until `running` reads zero,
        // and a job counts as finished only after its pool thread has
        // dropped it, its captures and any unclaimed result with it. A
        // panic in the job is caught on the pool thread, so the count goes
        // down on every path; if no thread can be started, the job is
        // dropped here and the count goes straight back down.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        *lock(&self.running.jobs) += 1;
        let running = self.running.clone();
        if let Err(e) = wake(Task { job, running }) {
            self.running.finish_one();
            panic!("failed to start a pool thread: {e}");
        }
        ScopedJoinHandle {
            result,
            scope: PhantomData,
        }
    }
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Wait for the job's result: `Err` with its panic if it panicked.
    pub fn join(self) -> thread::Result<T> {
        self.result
            .recv()
            .expect("a spawned job sends its result before it is dropped")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    /// A job's panic reaches its `join` and its thread survives: a later
    /// scope's job runs on it. Other tests share the pool and may take the
    /// thread first, so later scopes try for up to ten seconds.
    #[test]
    fn a_panicking_job_reaches_join_and_its_thread_runs_a_later_job() {
        let panicked_on = Mutex::new(None);
        let joined = scope(|s| {
            s.spawn(|| {
                *lock(&panicked_on) = Some(thread::current().id());
                panic!("intentional pool-job panic");
            })
            .join()
        });
        let message = crate::mapping::panic_message(joined.unwrap_err());
        assert!(message.contains("intentional"), "{message}");
        let panicked_on = lock(&panicked_on).expect("the job ran");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let ran_on = scope(|s| s.spawn(|| thread::current().id()).join().unwrap());
            if ran_on == panicked_on {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the panicked job's thread never ran again"
            );
        }
    }

    /// A panic in the scope body after a spawn still waits for the job
    /// before it unwinds: the job writes a borrowed flag only once the
    /// body is unwinding (its sender dropped), and the write has landed
    /// when the panic reaches the caller.
    #[test]
    fn a_panicking_body_waits_for_its_jobs_before_unwinding() {
        let landed = AtomicBool::new(false);
        let (started_tx, started) = channel();
        let (unwinding_tx, unwinding) = channel::<()>();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                let landed = &landed;
                s.spawn(move || {
                    started_tx.send(()).unwrap();
                    let _ = unwinding.recv();
                    thread::sleep(Duration::from_millis(20));
                    landed.store(true, Ordering::SeqCst);
                });
                started.recv().unwrap();
                let _held = unwinding_tx;
                panic!("intentional scope-body panic");
            })
        }));
        assert!(caught.is_err(), "the body's panic reaches the caller");
        assert!(
            landed.load(Ordering::SeqCst),
            "scope unwound before its job finished"
        );
    }
}
