//! The discrete-event simulation driver.
//!
//! [`Engine`] is a classic discrete-event loop for models whose activity is
//! bursty and irregular, such as the simulated transport fabric's message
//! deliveries.  Models with a fixed cadence — TDMA slots, pulse rounds,
//! publish loops, vehicle control cycles, which the paper treats as
//! periodic tasks below the hybridization line — need no event queue: they
//! run as plain loops over their own clock.

use std::fmt;

use crate::events::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Observer of an [`Engine`]'s internal transitions, installed with
/// [`Engine::set_observer`].
///
/// Every method has an empty default body, so an observer implements only the
/// transitions it cares about.  With no observer installed each hook site is
/// a single `Option` branch, which keeps the unobserved engine at its
/// original speed — observers exist for instrumentation (tracing,
/// queue-depth profiling), not for simulation logic: they receive shared
/// references only and cannot influence the run.
///
/// The observer sees:
/// * [`on_schedule`](EngineObserver::on_schedule) — every accepted schedule
///   (engine- or context-side), with the post-clamp firing time;
/// * [`on_clamp`](EngineObserver::on_clamp) — every causality clamp, with the
///   originally requested (past) time and the event, so clamp diagnostics can
///   carry the event's own label;
/// * [`on_pop`](EngineObserver::on_pop) — every event dispatch, with the
///   number of events still pending after the pop;
/// * [`on_stop`](EngineObserver::on_stop) — a handler's [`Context::stop`]
///   taking effect.
pub trait EngineObserver<E> {
    /// An event was accepted for execution at (post-clamp) time `time`.
    fn on_schedule(&mut self, now: SimTime, time: SimTime, event: &E) {
        let _ = (now, time, event);
    }

    /// A schedule requested the past time `requested` and was clamped to
    /// `now`.  Fires in addition to (before) the matching
    /// [`on_schedule`](EngineObserver::on_schedule).
    fn on_clamp(&mut self, now: SimTime, requested: SimTime, event: &E) {
        let _ = (now, requested, event);
    }

    /// An event is about to be handled at `time`; `depth` is the queue length
    /// after the pop.
    fn on_pop(&mut self, time: SimTime, event: &E, depth: usize) {
        let _ = (time, event, depth);
    }

    /// A handler requested a stop; the run loop exits after this event.
    fn on_stop(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// Scheduling handle passed to the event handler of an [`Engine`].
///
/// The handler cannot touch the engine directly (it is being iterated), so new
/// events are staged in the context and merged after the handler returns —
/// same-timestamp groups are bulk-inserted into their bucket in one pass via
/// [`EventQueue::schedule_batch`].  The staging buffer is owned by the engine
/// and reused across events, so steady-state event handling allocates
/// nothing.
pub struct Context<'a, E> {
    now: SimTime,
    staged: &'a mut Vec<(SimTime, E)>,
    stop_requested: bool,
    clamped: u64,
    observer: Option<&'a mut (dyn EngineObserver<E> + 'a)>,
}

impl<E> fmt::Debug for Context<'_, E>
where
    E: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("staged", &self.staged)
            .field("stop_requested", &self.stop_requested)
            .field("clamped", &self.clamped)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl<'a, E> Context<'a, E> {
    fn new(
        now: SimTime,
        staged: &'a mut Vec<(SimTime, E)>,
        observer: Option<&'a mut (dyn EngineObserver<E> + 'a)>,
    ) -> Self {
        Context { now, staged, stop_requested: false, clamped: 0, observer }
    }

    /// The current simulation time (the firing time of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.  Times in the past are clamped
    /// to "now" so causality is never violated; every clamp is counted and
    /// surfaced through [`Engine::clamped_schedules`], because a model that
    /// schedules into the past is usually a model with a causality bug.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        // Clamp policy: identical to `Engine::schedule_at` — keep in sync.
        let t = if time < self.now {
            self.clamped += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_clamp(self.now, time, &event);
            }
            self.now
        } else {
            time
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_schedule(self.now, t, &event);
        }
        self.staged.push((t, event));
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let t = self.now + delay;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_schedule(self.now, t, &event);
        }
        self.staged.push((t, event));
    }

    /// Requests that the simulation stop after the current event is processed.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

/// A deterministic discrete-event simulation engine.
///
/// `S` is the simulation state, `E` the event type.  Event handling is driven
/// by a closure passed to [`Engine::run`] / [`Engine::run_until`], which keeps
/// the engine free of trait-object plumbing and lets each experiment define
/// its own event enum.
pub struct Engine<S, E> {
    state: S,
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    clamped: u64,
    /// Reusable staging buffer lent to the per-event [`Context`].
    staged: Vec<(SimTime, E)>,
    observer: Option<Box<dyn EngineObserver<E>>>,
}

impl<S, E> fmt::Debug for Engine<S, E>
where
    S: fmt::Debug,
    E: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("state", &self.state)
            .field("queue", &self.queue)
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("clamped", &self.clamped)
            .field("staged", &self.staged)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl<S, E> Engine<S, E> {
    /// Creates an engine at time zero with the given initial state.
    pub fn new(state: S) -> Self {
        Engine {
            state,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
            staged: Vec::new(),
            observer: None,
        }
    }

    /// Installs an [`EngineObserver`] that will see every schedule, clamp,
    /// pop and stop from here on.  Replaces any previous observer.
    ///
    /// Observation is strictly read-only instrumentation: observers never
    /// change what the engine does, only record it, so an observed run and an
    /// unobserved run of the same model are identical.
    pub fn set_observer(&mut self, observer: Box<dyn EngineObserver<E>>) {
        self.observer = Some(observer);
    }

    /// Removes and returns the installed observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn EngineObserver<E>>> {
        self.observer.take()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of schedules (via [`Engine::schedule_at`] or
    /// [`Context::schedule_at`]) whose requested time lay in the past and was
    /// clamped to "now".  A non-zero value flags a causality-suspect model;
    /// campaign runners use it to mark runs as suspect instead of silently
    /// accepting the clamp.
    pub fn clamped_schedules(&self) -> u64 {
        self.clamped
    }

    /// Shared access to the simulation state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the simulation state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the engine and returns the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Schedules an event at an absolute simulation time (clamped to now).
    /// Clamps are counted in [`Engine::clamped_schedules`].
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        // Clamp policy: identical to `Context::schedule_at` — keep in sync.
        let t = if time < self.now {
            self.clamped += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_clamp(self.now, time, &event);
            }
            self.now
        } else {
            time
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_schedule(self.now, t, &event);
        }
        self.queue.schedule(t, event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let t = self.now + delay;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_schedule(self.now, t, &event);
        }
        self.queue.schedule(t, event);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Runs until the queue is empty or a handler calls [`Context::stop`].
    /// Returns the number of events processed by this call.
    pub fn run(&mut self, mut handler: impl FnMut(&mut S, &mut Context<'_, E>, E)) -> u64 {
        self.run_inner(SimTime::MAX, &mut handler).0
    }

    /// Runs until `deadline` (inclusive), the queue is empty, or a handler
    /// calls [`Context::stop`].  The engine clock is advanced to `deadline`
    /// if the queue drains earlier — but *not* after a stop: a stopped run
    /// stays at the stopping event's time, so events between it and the
    /// deadline are not skipped on resume.  Returns events processed by this
    /// call.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut S, &mut Context<'_, E>, E),
    ) -> u64 {
        let (n, stopped) = self.run_inner(deadline, &mut handler);
        if !stopped && self.now < deadline && deadline != SimTime::MAX {
            self.now = deadline;
        }
        n
    }

    /// Returns (events processed, whether a handler stopped the run).
    fn run_inner(
        &mut self,
        deadline: SimTime,
        handler: &mut impl FnMut(&mut S, &mut Context<'_, E>, E),
    ) -> (u64, bool) {
        let mut count = 0;
        while let Some((t, ev)) = self.queue.pop_until(deadline) {
            self.now = t;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_pop(t, &ev, self.queue.len());
            }
            let observer: Option<&mut (dyn EngineObserver<E> + '_)> = match &mut self.observer {
                Some(obs) => Some(obs.as_mut()),
                None => None,
            };
            let mut ctx = Context::new(t, &mut self.staged, observer);
            handler(&mut self.state, &mut ctx, ev);
            let (stop, clamped) = (ctx.stop_requested, ctx.clamped);
            // Bulk-insert the handler's staged events (same-timestamp groups
            // are filed in one pass).
            self.queue.schedule_batch(&mut self.staged);
            self.clamped += clamped;
            self.processed += 1;
            count += 1;
            if stop {
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_stop(self.now);
                }
                return (count, true);
            }
        }
        (count, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    #[test]
    fn engine_processes_in_order_and_reschedules() {
        let mut engine: Engine<Vec<u32>, Ev> = Engine::new(Vec::new());
        engine.schedule_in(SimDuration::from_millis(10), Ev::Ping(0));
        engine.run(|log, ctx, ev| {
            if let Ev::Ping(n) = ev {
                log.push(n);
                if n < 4 {
                    ctx.schedule_in(SimDuration::from_millis(10), Ev::Ping(n + 1));
                }
            }
        });
        assert_eq!(engine.state(), &vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.now(), SimTime::from_millis(50));
        assert_eq!(engine.processed(), 5);
    }

    #[test]
    fn engine_stop_halts_early() {
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        for i in 0..10 {
            engine.schedule_at(SimTime::from_millis(i), Ev::Ping(i as u32));
        }
        engine.schedule_at(SimTime::from_millis(3), Ev::Stop);
        engine.run(|count, ctx, ev| match ev {
            Ev::Ping(_) => *count += 1,
            Ev::Stop => ctx.stop(),
        });
        // Events at t=0..=3 ms processed (4 pings) plus the stop event.
        assert_eq!(*engine.state(), 4);
        assert!(engine.pending() > 0);
    }

    #[test]
    fn engine_run_until_advances_clock_to_deadline() {
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        engine.schedule_at(SimTime::from_millis(5), Ev::Ping(1));
        engine.schedule_at(SimTime::from_millis(500), Ev::Ping(2));
        let n = engine.run_until(SimTime::from_millis(100), |c, _, _| *c += 1);
        assert_eq!(n, 1);
        assert_eq!(*engine.state(), 1);
        assert_eq!(engine.now(), SimTime::from_millis(100));
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut engine: Engine<Vec<u64>, Ev> = Engine::new(Vec::new());
        engine.schedule_at(SimTime::from_millis(10), Ev::Ping(0));
        engine.run(|log, ctx, _| {
            log.push(ctx.now().as_millis());
            if log.len() == 1 {
                // Attempt to schedule in the past; must fire "now", not before.
                ctx.schedule_at(SimTime::from_millis(1), Ev::Ping(1));
            }
        });
        assert_eq!(engine.state(), &vec![10, 10]);
        assert_eq!(engine.clamped_schedules(), 1, "the past-time schedule must be counted");
    }

    #[test]
    fn clamp_counter_covers_engine_and_context_schedules() {
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        engine.schedule_at(SimTime::from_millis(10), Ev::Ping(0));
        engine.run(|c, _, _| *c += 1);
        assert_eq!(engine.clamped_schedules(), 0, "forward schedules never clamp");
        // The engine clock is now at 10 ms: a direct past schedule clamps too.
        engine.schedule_at(SimTime::from_millis(2), Ev::Ping(1));
        assert_eq!(engine.clamped_schedules(), 1);
        engine.run(|c, _, _| *c += 1);
        assert_eq!(*engine.state(), 2);
    }

    #[test]
    fn observer_sees_schedules_clamps_pops_and_stop() {
        #[derive(Default)]
        struct Log(std::rc::Rc<RefCell<Vec<String>>>);
        use std::cell::RefCell;
        impl EngineObserver<Ev> for Log {
            fn on_schedule(&mut self, now: SimTime, time: SimTime, _ev: &Ev) {
                self.0.borrow_mut().push(format!(
                    "sched {}->{}",
                    now.as_millis(),
                    time.as_millis()
                ));
            }
            fn on_clamp(&mut self, now: SimTime, requested: SimTime, ev: &Ev) {
                self.0.borrow_mut().push(format!(
                    "clamp {}<-{} {ev:?}",
                    now.as_millis(),
                    requested.as_millis()
                ));
            }
            fn on_pop(&mut self, time: SimTime, _ev: &Ev, depth: usize) {
                self.0.borrow_mut().push(format!("pop {} depth {depth}", time.as_millis()));
            }
            fn on_stop(&mut self, now: SimTime) {
                self.0.borrow_mut().push(format!("stop {}", now.as_millis()));
            }
        }

        let log = Log::default();
        let lines = log.0.clone();
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        engine.set_observer(Box::new(log));
        engine.schedule_at(SimTime::from_millis(10), Ev::Ping(0));
        engine.run(|n, ctx, ev| {
            *n += 1;
            if ev == Ev::Ping(0) {
                // One clamped (past-time) and one forward schedule from the
                // handler context — both must be observed.
                ctx.schedule_at(SimTime::from_millis(1), Ev::Ping(1));
                ctx.schedule_in(SimDuration::from_millis(5), Ev::Stop);
            }
            if ev == Ev::Stop {
                ctx.stop();
            }
        });
        assert_eq!(
            *lines.borrow(),
            vec![
                "sched 0->10",
                "pop 10 depth 0",
                "clamp 10<-1 Ping(1)",
                "sched 10->10",
                "sched 10->15",
                "pop 10 depth 1",
                "pop 15 depth 0",
                "stop 15",
            ]
        );
        assert_eq!(engine.clamped_schedules(), 1, "observation does not change counting");
        assert!(engine.take_observer().is_some());
        assert!(engine.take_observer().is_none());
    }

    #[test]
    fn stopped_run_until_does_not_skip_ahead() {
        // After a stop, the clock must stay at the stopping event so a
        // resumed run replays nothing and skips nothing.
        let mut engine: Engine<Vec<u64>, Ev> = Engine::new(Vec::new());
        engine.schedule_at(SimTime::from_millis(10), Ev::Stop);
        engine.schedule_at(SimTime::from_millis(20), Ev::Ping(1));
        let n = engine.run_until(SimTime::from_millis(100), |_, ctx, ev| {
            if ev == Ev::Stop {
                ctx.stop();
            }
        });
        assert_eq!(n, 1);
        assert_eq!(engine.now(), SimTime::from_millis(10), "no fast-forward past a stop");
        let mut seen = Vec::new();
        engine.run_until(SimTime::from_millis(100), |_, ctx, _| seen.push(ctx.now().as_millis()));
        assert_eq!(seen, vec![20], "the pending event between stop and deadline still fires");
        assert_eq!(engine.now(), SimTime::from_millis(100));
    }

    #[test]
    fn staged_same_timestamp_bursts_keep_fifo_order() {
        // A handler fanning out several events at one instant exercises the
        // schedule_batch path; order must match one-by-one scheduling.
        let mut engine: Engine<Vec<u32>, Ev> = Engine::new(Vec::new());
        engine.schedule_at(SimTime::from_millis(1), Ev::Ping(0));
        engine.run(|log, ctx, ev| {
            let Ev::Ping(n) = ev else { return };
            log.push(n);
            if n == 0 {
                for k in 1..=8 {
                    ctx.schedule_in(SimDuration::from_millis(5), Ev::Ping(k));
                }
                ctx.schedule_in(SimDuration::from_millis(2), Ev::Ping(100));
            }
        });
        assert_eq!(engine.state(), &vec![0, 100, 1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
