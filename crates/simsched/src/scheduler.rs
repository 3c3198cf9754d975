//! The deterministic simulation scheduler.
//!
//! [`SimScheduler`] implements [`taskrt::SchedulePolicy`] so the *real*
//! runtime — the same worker, barrier, and taskwait code the production
//! work stealer drives — executes under simulation: real OS threads, but
//! exactly one runs at a time (an execution token handed over at task
//! scheduling points), and every nondeterministic choice is made by a
//! seeded PRNG or a scripted choice list. Combined with the per-thread
//! [`SimClock`], a run is a pure function of `(workload, nthreads, seed)`.
//!
//! # Choice model
//!
//! Every decision with more than one option flows through one serialized
//! [`ChoiceStream`]: which thread receives the token at each scheduling
//! point, and whether a `task()` defers or runs undeferred. The stream
//! records a trace of `(options, taken)` pairs, so a bounded DFS can
//! replay a prefix and branch into the untaken alternatives (see
//! [`crate::explore`]). Steal-victim and barrier acquire-order choices go
//! through a *side* PRNG derived from the seed: they are deterministic
//! per run but excluded from the DFS branching space, which would
//! otherwise explode.
//!
//! # Liveness
//!
//! The token is handed over among all threads still inside the parallel
//! region. In seeded mode the uniform pick reaches every thread with
//! probability 1; in scripted mode choices beyond the script fall back to
//! a fair round-robin counter, so barrier arrivals always make progress
//! (always-pick-thread-0 would livelock a barrier poll loop).

use crate::clock::{set_current_tid, SimClock};
use pomp::SplitMix64;
use std::sync::{Condvar, Mutex};
use taskrt::{AcquireOrder, SchedPoint, SchedulePolicy};

/// Default virtual-time cost of creating one deferred task, charged inside
/// the creator's `task_create` frame (so the paper's Fig. 5 creation split
/// is nonzero under simulation).
pub const DEFAULT_SPAWN_COST_NS: u64 = 40;

/// One recorded scheduling decision: `taken < options`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Choice {
    /// Number of alternatives that were available.
    pub options: usize,
    /// The alternative that was taken.
    pub taken: usize,
}

/// Serialized source of decisions: an optional script prefix, then a
/// seeded PRNG (seeded mode) or a fair round-robin counter (scripted
/// mode). Records everything it decides.
///
/// Schedules and property-test inputs (`test_util::prop::Gen`) draw
/// from one: a [`trace`](Self::trace) replayed [`scripted`](Self::scripted)
/// decides the same again, which the DFS explorer extends and the
/// property runner shrinks.
#[derive(Clone, Debug)]
pub struct ChoiceStream {
    script: Vec<usize>,
    rng: Option<SplitMix64>,
    round_robin: usize,
    trace: Vec<Choice>,
}

impl ChoiceStream {
    /// Seeded mode: every decision comes from splitmix64 over `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            script: Vec::new(),
            rng: Some(SplitMix64::new(seed)),
            round_robin: 0,
            trace: Vec::new(),
        }
    }

    /// Scripted mode: decision `i` takes `script[i]` modulo its number of
    /// options; past the script, decisions fall back to fair round-robin.
    pub fn scripted(script: Vec<usize>) -> Self {
        Self {
            script,
            rng: None,
            round_robin: 0,
            trace: Vec::new(),
        }
    }

    /// Decide among `n` options. Trivial decisions (`n < 2`) are not
    /// consulted or recorded, so traces contain only real branch points.
    pub fn choose(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        if n < 2 {
            return 0;
        }
        let pos = self.trace.len();
        let taken = if pos < self.script.len() {
            self.script[pos] % n
        } else if let Some(rng) = &mut self.rng {
            rng.below(n as u64) as usize
        } else {
            let rr = self.round_robin;
            self.round_robin += 1;
            rr % n
        };
        self.trace.push(Choice { options: n, taken });
        taken
    }

    /// Every decision recorded so far, in order.
    pub fn trace(&self) -> &[Choice] {
        &self.trace
    }
}

struct State {
    /// Expected team size (set by the first `thread_start` of a region).
    expected: usize,
    /// Threads registered and not yet stopped, indexed by tid.
    alive: Vec<bool>,
    /// Threads whose last scheduling point was an *idle* poll (found
    /// nothing runnable) with no state-changing event since. Handing the
    /// token back to a blocked thread would replay the identical failed
    /// poll, so blocked threads are not candidates — which also bounds
    /// the decision trace (at most `nthreads` idle polls between real
    /// events), making DFS exploration finite.
    blocked: Vec<bool>,
    /// Registered-so-far count of the current region's startup barrier.
    registered: usize,
    /// Threads still inside the region (registered minus stopped).
    active: usize,
    /// Holder of the execution token (`None` before startup / after the
    /// last thread stops).
    running: Option<usize>,
    choices: ChoiceStream,
    side: SplitMix64,
}

impl State {
    /// Runnable candidates: alive and not idle-blocked. Falls back to all
    /// alive threads if everyone is blocked — that state is unreachable
    /// in a deadlock-free runtime (an idle poll always follows a failed
    /// progress attempt, and some thread can always progress), but
    /// liveness beats reduction if the reasoning is ever wrong.
    fn candidates(&self) -> Vec<usize> {
        let unblocked: Vec<usize> = (0..self.alive.len())
            .filter(|&t| self.alive[t] && !self.blocked[t])
            .collect();
        if !unblocked.is_empty() {
            return unblocked;
        }
        debug_assert!(
            !self.alive.iter().any(|&a| a),
            "every live simulated thread is idle-blocked (missed a state change?)"
        );
        (0..self.alive.len()).filter(|&t| self.alive[t]).collect()
    }

    /// A state-changing event happened: every idle-blocked thread may now
    /// be able to make progress again.
    fn unblock_all(&mut self) {
        self.blocked.iter_mut().for_each(|b| *b = false);
    }

    /// Hand the token to a chosen candidate (or park it when none).
    fn grant(&mut self) {
        let candidates = self.candidates();
        self.running = if candidates.is_empty() {
            None
        } else {
            Some(candidates[self.choices.choose(candidates.len())])
        };
    }
}

/// Deterministic scheduling policy: serialize the team onto one execution
/// token and make every choice from a seed (or script). Install with
/// [`taskrt::Team::with_policy`]; the paired [`SimClock`] must be the
/// profiler's clock source for the run to be fully virtual-time.
pub struct SimScheduler {
    clock: SimClock,
    spawn_cost: u64,
    state: Mutex<State>,
    cv: Condvar,
}

impl std::fmt::Debug for SimScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimScheduler")
            .field("spawn_cost", &self.spawn_cost)
            .finish_non_exhaustive()
    }
}

impl SimScheduler {
    fn with_choices(choices: ChoiceStream, side_seed: u64) -> Self {
        Self {
            clock: SimClock::new(),
            spawn_cost: DEFAULT_SPAWN_COST_NS,
            state: Mutex::new(State {
                expected: 0,
                alive: Vec::new(),
                blocked: Vec::new(),
                registered: 0,
                active: 0,
                running: None,
                choices,
                side: SplitMix64::new(side_seed ^ 0xD6E8_FEB8_6659_FD93),
            }),
            cv: Condvar::new(),
        }
    }

    /// Seeded mode: every choice comes from splitmix64 over `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_choices(ChoiceStream::seeded(seed), seed)
    }

    /// Scripted mode (bounded DFS): the first choices replay `script`
    /// (each entry taken modulo the number of options); once the script is
    /// exhausted, choices fall back to fair round-robin.
    pub fn scripted(script: Vec<usize>) -> Self {
        // Fixed side seed: a run replaying a script prefix must reproduce
        // the same steal/acquire decisions, or DFS branches would not
        // extend the schedule they think they are extending.
        Self::with_choices(ChoiceStream::scripted(script), 0x5851_F42D_4C95_7F2D)
    }

    /// Override the per-task-creation virtual cost (default
    /// [`DEFAULT_SPAWN_COST_NS`]).
    pub fn with_spawn_cost(mut self, ns: u64) -> Self {
        self.spawn_cost = ns;
        self
    }

    /// The per-thread virtual clock this scheduler charges costs to. Hand
    /// it to the profiler (`ProfMonitor::builder().clock(..)`) and to the
    /// workload (for [`SimClock::work`]).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The trace of every recorded decision so far (call after the
    /// parallel region returns for the full schedule).
    pub fn take_trace(&self) -> Vec<Choice> {
        let st = self.state.lock().expect("sim state poisoned");
        st.choices.trace().to_vec()
    }

    /// Block until the calling thread holds the token.
    fn wait_for_token<'a>(
        &self,
        mut st: std::sync::MutexGuard<'a, State>,
        tid: usize,
    ) -> std::sync::MutexGuard<'a, State> {
        while st.running != Some(tid) {
            st = self.cv.wait(st).expect("sim state poisoned");
        }
        st
    }

    /// Rotate the token at a scheduling point: pick the next runner among
    /// the candidates; if it is someone else, hand over and block until
    /// the token returns. An `idle` point (a poll that found nothing)
    /// blocks the caller until a state-changing event; a non-idle point
    /// is itself such an event and unblocks everyone.
    fn rotate(&self, tid: usize, idle: bool) {
        let mut st = self.state.lock().expect("sim state poisoned");
        debug_assert_eq!(st.running, Some(tid), "rotating without the token");
        if idle {
            st.blocked[tid] = true;
        } else {
            st.unblock_all();
        }
        let candidates = st.candidates();
        if candidates.len() > 1 || candidates.first() != Some(&tid) {
            let next = candidates[st.choices.choose(candidates.len())];
            if next != tid {
                st.running = Some(next);
                self.cv.notify_all();
                drop(self.wait_for_token(st, tid));
            }
        }
    }
}

impl SchedulePolicy for SimScheduler {
    fn thread_start(&self, tid: usize, nthreads: usize) {
        set_current_tid(Some(tid));
        let mut st = self.state.lock().expect("sim state poisoned");
        st.expected = nthreads;
        if st.alive.len() < nthreads {
            st.alive.resize(nthreads, false);
            st.blocked.resize(nthreads, false);
        }
        assert!(!st.alive[tid], "thread {tid} started twice in one region");
        st.alive[tid] = true;
        st.registered += 1;
        st.active += 1;
        st.unblock_all();
        // Startup barrier: no thread runs until the whole team registered,
        // so the first token grant chooses among all of them.
        if st.registered == st.expected {
            st.grant();
            self.cv.notify_all();
        }
        drop(self.wait_for_token(st, tid));
    }

    fn thread_stop(&self, tid: usize) {
        let mut st = self.state.lock().expect("sim state poisoned");
        st.alive[tid] = false;
        st.active -= 1;
        st.unblock_all();
        if st.running == Some(tid) {
            st.grant();
        }
        if st.active == 0 {
            // Region over: reset the startup barrier so the same policy
            // can serialize the session's next parallel region.
            st.registered = 0;
            st.running = None;
        }
        self.cv.notify_all();
        drop(st);
        set_current_tid(None);
    }

    fn sched_point(&self, tid: usize, point: SchedPoint) -> bool {
        if point == SchedPoint::Spawn {
            // Creation cost lands inside the creator's open task_create
            // frame (the runtime calls this hook between create_begin and
            // create_end).
            self.clock.advance_for(tid, self.spawn_cost);
        }
        let idle = matches!(point, SchedPoint::TaskwaitIdle | SchedPoint::BarrierIdle);
        self.rotate(tid, idle);
        // The token hand-off *is* the wait: the caller must not also
        // spin/snooze, or an empty poll loop would sleep while holding
        // the token.
        true
    }

    fn defer_task(&self, tid: usize) -> bool {
        let defer = {
            let mut st = self.state.lock().expect("sim state poisoned");
            st.choices.choose(2) == 0
        };
        if !defer {
            // Charge the same creation cost as the deferred path so a task
            // instance's inclusive time (own work + spawn cost per child
            // created) is identical in every schedule — the undeferred
            // cost lands in the creator's current frame instead of a
            // task_create frame, but inside the same instance either way.
            self.clock.advance_for(tid, self.spawn_cost);
        }
        defer
    }

    fn steal_start(&self, _tid: usize, nthreads: usize, _round_robin: usize) -> usize {
        let mut st = self.state.lock().expect("sim state poisoned");
        st.side.below(nthreads.max(1) as u64) as usize
    }

    fn acquire_order(&self, _tid: usize) -> AcquireOrder {
        let mut st = self.state.lock().expect("sim state poisoned");
        // Mostly production order; occasionally steal-first, so barrier
        // draining explores remote-queue-first interleavings too. Safe:
        // pop_any executes whatever it acquires immediately (any task is
        // eligible at a barrier), so no task is ever parked by this.
        if st.side.below(4) == 0 {
            AcquireOrder::StealFirst
        } else {
            AcquireOrder::LocalFirst
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_stream_script_then_round_robin() {
        let mut c = ChoiceStream::scripted(vec![1, 0]);
        assert_eq!(c.choose(3), 1); // script[0]
        assert_eq!(c.choose(1), 0); // trivial, unrecorded
        assert_eq!(c.choose(2), 0); // script[1]
        assert_eq!(c.choose(3), 0); // rr 0
        assert_eq!(c.choose(3), 1); // rr 1
        assert_eq!(c.choose(2), 0); // rr 2 % 2
        assert_eq!(
            c.trace.iter().map(|ch| ch.taken).collect::<Vec<_>>(),
            vec![1, 0, 0, 1, 0]
        );
    }

    #[test]
    fn choice_stream_seeded_is_reproducible() {
        let mut a = ChoiceStream::seeded(9);
        let mut b = ChoiceStream::seeded(9);
        let seq_a: Vec<usize> = (0..32).map(|_| a.choose(4)).collect();
        let seq_b: Vec<usize> = (0..32).map(|_| b.choose(4)).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn script_entries_wrap_modulo_options() {
        let mut c = ChoiceStream::scripted(vec![7]);
        assert_eq!(c.choose(3), 1); // 7 % 3
    }

    #[test]
    fn scheduler_single_thread_flows_through() {
        // A 1-thread "team": the token is granted immediately and every
        // scheduling point keeps it (no other candidates).
        let s = SimScheduler::new(0);
        s.thread_start(0, 1);
        assert!(s.sched_point(0, SchedPoint::BarrierPoll));
        assert!(s.sched_point(0, SchedPoint::Spawn));
        assert_eq!(s.clock().now_for(0), DEFAULT_SPAWN_COST_NS);
        s.thread_stop(0);
        assert!(s.take_trace().is_empty(), "1-thread runs have no choices");
    }

    #[test]
    fn spawn_cost_is_configurable() {
        let s = SimScheduler::new(0).with_spawn_cost(7);
        s.thread_start(0, 1);
        s.sched_point(0, SchedPoint::Spawn);
        assert_eq!(s.clock().now_for(0), 7);
        s.thread_stop(0);
    }
}
