//! Bounded retry for the runner's I/O edges.
//!
//! Sink flushes and checkpoint-manifest writes are the two places a healthy
//! campaign touches the filesystem mid-flight; both can fail transiently
//! (disk pressure, NFS hiccups, an injected [`crate::fault::Fault`]).  Each
//! gets four attempts with exponential pauses between them, after which the
//! last error propagates unchanged.

use std::time::Duration;

/// The pauses after each failed attempt but the last: four attempts in all,
/// at most 42 ms of wall-clock pause per edge.
const PAUSES: [Duration; 3] =
    [Duration::from_millis(2), Duration::from_millis(8), Duration::from_millis(32)];

/// Runs `op` until it succeeds or four attempts have failed, sleeping the
/// [`PAUSES`] in between.  Returns the outcome — `op`'s value, or its last
/// error — and the attempts spent beyond the first.
pub(crate) fn retry_io<T, E>(mut op: impl FnMut() -> Result<T, E>) -> (Result<T, E>, u32) {
    let mut retried = 0u32;
    loop {
        match op() {
            Err(_) if (retried as usize) < PAUSES.len() => {
                std::thread::sleep(PAUSES[retried as usize]);
                retried += 1;
            }
            outcome => return (outcome, retried),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_never_retries() {
        let (outcome, retried) = retry_io(|| Ok::<_, String>(42));
        assert_eq!(outcome, Ok(42));
        assert_eq!(retried, 0);
    }

    #[test]
    fn transient_failures_heal_within_the_budget() {
        let mut attempts = 0;
        let (outcome, retried) = retry_io(|| {
            attempts += 1;
            if attempts <= 2 {
                Err(format!("transient on attempt {attempts}"))
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(outcome, Ok(3));
        assert_eq!(retried, 2);
    }

    #[test]
    fn exhaustion_returns_the_last_error_unchanged() {
        let mut attempts = 0;
        let (outcome, retried) = retry_io::<(), _>(|| {
            attempts += 1;
            Err(format!("boom {attempts}"))
        });
        assert_eq!(outcome, Err("boom 4".to_string()), "four attempts, the last error kept");
        assert_eq!(retried, 3);
    }
}
