//! The discrete-event simulation driver.
//!
//! [`Engine`] is a classic discrete-event loop for models whose activity is
//! bursty and irregular, such as the simulated transport fabric's message
//! deliveries.  Models with a fixed cadence — TDMA slots, pulse rounds,
//! publish loops, vehicle control cycles, which the paper treats as
//! periodic tasks below the hybridization line — need no event queue: they
//! run as plain loops over their own clock.
//!
//! The engine owns one [`EventQueue`].  While a handler runs, its
//! [`Context`] borrows that queue, so every schedule — from the engine or a
//! handler — takes the same path: the past-time clamp, then the queue.

use std::fmt;

use crate::events::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Scheduling handle passed to the event handler of an [`Engine`].
///
/// The run loop lends the context its event queue for the duration of one
/// handler call, so a handler's schedules go straight into the queue and
/// receive their sequence numbers in call order.
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    clamped: &'a mut u64,
    stop_requested: bool,
}

impl<E> fmt::Debug for Context<'_, E>
where
    E: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("queue", &self.queue)
            .field("stop_requested", &self.stop_requested)
            .field("clamped", &self.clamped)
            .finish()
    }
}

impl<E> Context<'_, E> {
    /// The current simulation time (the firing time of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.  Times in the past are clamped
    /// to "now" so causality is never violated; every clamp is counted and
    /// surfaced through [`Engine::clamped_schedules`], because a model that
    /// schedules into the past is usually a model with a causality bug.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        schedule_clamped(self.queue, self.clamped, self.now, time, event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Requests that the simulation stop after the current event is processed.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

/// The engine's one scheduling path: files `event` at `time`, or at `now`
/// when `time` lies in the past.  A clamp is counted in `clamped`.
fn schedule_clamped<E>(
    queue: &mut EventQueue<E>,
    clamped: &mut u64,
    now: SimTime,
    time: SimTime,
    event: E,
) {
    let t = if time < now {
        *clamped += 1;
        now
    } else {
        time
    };
    queue.schedule(t, event);
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
            .finish()
    }
}

impl<S, E> Engine<S, E> {
    /// Creates an engine at time zero with the given initial state.
    pub fn new(state: S) -> Self {
        Engine { state, queue: EventQueue::new(), now: SimTime::ZERO, processed: 0, clamped: 0 }
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

    /// Schedules an event at an absolute simulation time (clamped to now).
    /// Clamps are counted in [`Engine::clamped_schedules`].
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        schedule_clamped(&mut self.queue, &mut self.clamped, self.now, time, event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
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
            let mut ctx = Context {
                now: t,
                queue: &mut self.queue,
                clamped: &mut self.clamped,
                stop_requested: false,
            };
            handler(&mut self.state, &mut ctx, ev);
            let stop = ctx.stop_requested;
            self.processed += 1;
            count += 1;
            if stop {
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
    fn handler_bursts_keep_fifo_order() {
        // A handler fanning out several events at one instant schedules them
        // straight into the queue; ties pop in call order.
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
