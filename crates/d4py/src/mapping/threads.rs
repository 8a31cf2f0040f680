//! Warm threads: one process-wide pool of parked threads for the execution
//! engine's containers, the multi mapping's ranks and the dynamic mapping's
//! workers (paper §II-B, §III: serverless enactment lives on warm reuse,
//! not cold starts). This module is the only place either crate starts a
//! thread.
//!
//! A job owns what it uses (`'static`), so a caller may join its
//! [`Handle`] or drop it and let the job run on:
//!
//! * **Never queue.** With no thread idle, [`start`] starts one, so every
//!   rank of a run runs at once and no run waits on another's ranks. The
//!   pool keeps every thread it has started: its size is the peak number
//!   of jobs that ever ran at once.
//! * **Return the thread, then hand the job's outcome on.** A job's
//!   thread goes back on the idle stack (LIFO) before what the job left to
//!   do runs: for [`spawn`], the send that [`Handle::join`] waits for. So
//!   once `join` returns, the job's thread is idle again and the next job
//!   wakes it.
//! * **Nothing at start-up.** The first job starts the first thread.
//!
//! A job that panics is caught on its pool thread: the panic reaches the
//! job's `join`, or is dropped with a dropped handle, and the thread lives
//! on.

use crate::lock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::Mutex;
use std::thread;

/// What a job leaves to do once its thread is idle again.
pub type Then = Box<dyn FnOnce() + Send>;

/// What a pool thread runs.
type Job = Box<dyn FnOnce() -> Then + Send>;

/// Idle pool threads, each the sender of the channel it is parked on; the
/// thread idled most recently is on top.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// A pool thread: run each job handed to it, park on the idle stack, then
/// run what the job left to do.
fn park(me: Sender<Job>, jobs: Receiver<Job>) {
    // The thread holds its own sender, so the channel never closes.
    for job in jobs.iter() {
        let then = catch_unwind(AssertUnwindSafe(job));
        lock(&IDLE).push(me.clone());
        if let Ok(then) = then {
            // Dropping an unclaimed result may panic; the thread stays.
            let _ = catch_unwind(AssertUnwindSafe(then));
        }
    }
}

/// Run `job` on the idle thread on top of the stack, or on a new one if
/// none is idle; what it returns runs on the same thread once that thread
/// is back on the stack.
pub fn start<R>(job: impl FnOnce() -> R + Send + 'static)
where
    R: FnOnce() + Send + 'static,
{
    let mut job: Job = Box::new(move || Box::new(job()) as Then);
    let idle = lock(&IDLE).pop();
    if let Some(thread) = idle {
        match thread.send(job) {
            Ok(()) => return,
            Err(SendError(back)) => job = back,
        }
    }
    let (me, jobs) = channel();
    let _ = me.send(job);
    if let Err(e) = thread::Builder::new()
        .name("d4py-pool".into())
        .spawn(move || park(me, jobs))
    {
        panic!("failed to start a pool thread: {e}");
    }
}

/// A job's result, claimed by [`Handle::join`]. Dropping the handle
/// detaches the job: it runs to its end and its result is dropped.
pub struct Handle<T> {
    result: Receiver<thread::Result<T>>,
}

/// Run `f` on a pool thread; see [`start`].
pub fn spawn<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Handle<T> {
    let (tx, result) = channel();
    start(move || {
        let outcome = catch_unwind(AssertUnwindSafe(f));
        move || drop(tx.send(outcome))
    });
    Handle { result }
}

impl<T> Handle<T> {
    /// Wait for the job's result, `Err` with its panic if it panicked;
    /// its thread is idle again when this returns.
    pub fn join(self) -> thread::Result<T> {
        self.result
            .recv()
            .expect("a started job sends its result before it is dropped")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// A job's panic reaches its `join` and its thread survives: a later
    /// job runs on it. Other tests share the pool and may take the thread
    /// first, so later jobs try for up to ten seconds.
    #[test]
    fn a_panicking_job_reaches_join_and_its_thread_runs_a_later_job() {
        let (ran_on, panicked_on) = channel();
        let joined = spawn(move || {
            ran_on.send(thread::current().id()).unwrap();
            panic!("intentional pool-job panic");
        })
        .join();
        let message = crate::mapping::panic_message(joined.unwrap_err());
        assert!(message.contains("intentional"), "{message}");
        let panicked_on = panicked_on.recv().expect("the job ran");
        let deadline = Instant::now() + Duration::from_secs(10);
        while spawn(|| thread::current().id()).join().unwrap() != panicked_on {
            assert!(
                Instant::now() < deadline,
                "the panicked job's thread never ran again"
            );
        }
    }

    /// A dropped handle detaches its job: the job runs to its end, and the
    /// caller never waits for it.
    #[test]
    fn a_dropped_handle_lets_its_job_run_on() {
        let (release, held) = channel::<()>();
        let (done, finished) = channel();
        drop(spawn(move || {
            let _ = held.recv();
            done.send(()).unwrap();
        }));
        assert!(finished.try_recv().is_err(), "the job is still held");
        drop(release);
        assert_eq!(finished.recv_timeout(Duration::from_secs(10)), Ok(()));
    }
}
