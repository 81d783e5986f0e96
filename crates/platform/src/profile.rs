//! Wall-clock profiling.
//!
//! Computation-time statistics are obtained by profiling the executed
//! application (Section 7); [`time_ms`] times one task execution in
//! milliseconds.

use std::time::Instant;

/// Times a closure, returning its result and the elapsed milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ms_measures_something() {
        let ((), ms) = time_ms(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(ms >= 4.0, "measured {ms}");
    }
}
