//! The time-bounded cyclic runner shared by all workloads.
//!
//! A workload's inputs are a fixed list made from the seed. Worker threads
//! claim indices `0, 1, 2, ...` (index `k` runs input `k % n`) and stop at
//! the first cycle boundary after the time is up. A pass therefore runs
//! every input equally often, at least once, which keeps its statistics
//! over the same inputs whatever the host speed and yields a complete
//! trace digest. A repeated input must reproduce its first trace hash
//! exactly.

use crate::stats::Tally;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one call of a workload's run function produced.
#[derive(Clone, Debug)]
pub struct Done<T> {
    /// Trace hash of the call (for a sweep batch, a hash over its runs).
    pub hash: u64,
    /// Runs attempted and failed inside the call.
    pub tally: Tally,
    /// Workload-specific results.
    pub extra: T,
}

/// One completed call.
#[derive(Clone, Debug)]
pub struct Sample<T> {
    pub input: usize,
    /// Host seconds the call took.
    pub host_s: f64,
    /// Host seconds from the start of the pass until the call ended.
    pub end_s: f64,
    pub done: Done<T>,
}

/// The result of one driven pass.
#[derive(Debug)]
pub struct Pass<T> {
    /// Completed calls, in claim order.
    pub samples: Vec<Sample<T>>,
    /// Host seconds from the first claim until every worker stopped.
    pub wall_s: f64,
    /// FNV-1a digest over the first trace hash of each input, in input
    /// order.
    pub digest: u64,
    /// Inputs whose repeats did not reproduce their first hash.
    pub nondeterministic: usize,
}

impl<T> Pass<T> {
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.samples {
            t.merge(s.done.tally);
        }
        t
    }

    /// Completed cycles over the inputs.
    pub fn cycles(&self, n_inputs: usize) -> usize {
        self.samples.len() / n_inputs
    }

    /// Host seconds each cycle took, from the end of the previous cycle's
    /// last call to the end of its own last call.
    pub fn cycle_seconds(&self, n_inputs: usize) -> Vec<f64> {
        let ends: Vec<f64> = self
            .samples
            .chunks(n_inputs)
            .map(|c| c.iter().map(|s| s.end_s).fold(0.0, f64::max))
            .collect();
        let mut prev = 0.0;
        ends.into_iter()
            .map(|e| {
                let d = e - prev;
                prev = e;
                d
            })
            .collect()
    }
}

/// FNV-1a over a sequence of 64-bit hashes.
pub fn digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = hashes.into_iter().flat_map(u64::to_le_bytes).collect();
    flash_obs::fnv1a(&bytes)
}

/// Runs `run(input, claim)` over `n_inputs` inputs cyclically on
/// `workers` threads for at least `seconds`, in whole cycles.
/// `claim` numbers the calls of the pass, so it can name a run.
pub fn drive<T: Send>(
    n_inputs: usize,
    workers: usize,
    seconds: f64,
    run: impl Fn(usize, u64) -> Done<T> + Sync,
) -> Pass<T> {
    assert!(n_inputs > 0, "a workload needs at least one input");
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // The next claim index, or `None` once the pass has stopped.
    let next: Mutex<Option<usize>> = Mutex::new(Some(0));
    let claim = || {
        let mut next = next.lock().expect("claim counter poisoned");
        let k = (*next)?;
        if k % n_inputs == 0 && k > 0 && start.elapsed() >= deadline {
            *next = None;
            return None;
        }
        *next = Some(k + 1);
        Some(k)
    };
    let out: Mutex<Vec<(usize, Sample<T>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| {
                while let Some(k) = claim() {
                    let input = k % n_inputs;
                    let t = Instant::now();
                    let done = run(input, k as u64);
                    let host_s = t.elapsed().as_secs_f64();
                    let end_s = start.elapsed().as_secs_f64();
                    let sample = Sample {
                        input,
                        host_s,
                        end_s,
                        done,
                    };
                    out.lock().expect("sample sink poisoned").push((k, sample));
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut claimed = out.into_inner().expect("sample sink poisoned");
    claimed.sort_by_key(|(k, _)| *k);
    let samples: Vec<Sample<T>> = claimed.into_iter().map(|(_, s)| s).collect();

    let first: Vec<u64> = samples[..n_inputs].iter().map(|s| s.done.hash).collect();
    let nondeterministic = samples[n_inputs..]
        .iter()
        .filter(|s| s.done.hash != first[s.input])
        .map(|s| s.input)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    Pass {
        samples,
        wall_s,
        digest: digest(first),
        nondeterministic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn completes_a_cycle_and_checks_repeats() {
        let pass = drive(5, 2, 0.0, |i, _| Done {
            hash: i as u64 * 3,
            tally: Tally {
                attempted: 1,
                failed: 0,
            },
            extra: (),
        });
        assert!(pass.samples.len() >= 5);
        assert_eq!(pass.digest, digest([0, 3, 6, 9, 12]));
        assert_eq!(pass.nondeterministic, 0);
        assert_eq!(pass.tally().attempted, pass.samples.len() as u64);
    }

    #[test]
    fn runs_whole_cycles() {
        let pass = drive(3, 2, 0.02, |i, _| {
            std::thread::sleep(Duration::from_millis(1));
            Done {
                hash: i as u64,
                tally: Tally::default(),
                extra: (),
            }
        });
        assert_eq!(pass.samples.len() % 3, 0);
        assert!(pass.samples.len() >= 6, "0.02 s allows several cycles");
    }

    #[test]
    fn flags_inputs_that_change_their_hash() {
        let calls = AtomicUsize::new(0);
        let pass = drive(2, 1, 0.05, |i, _| {
            let c = calls.fetch_add(1, Ordering::Relaxed);
            Done {
                // Input 1 hashes differently on every repeat.
                hash: if i == 1 { c as u64 } else { 0 },
                tally: Tally::default(),
                extra: (),
            }
        });
        assert!(pass.samples.len() >= 4, "0.05 s allows many repeats");
        assert_eq!(pass.nondeterministic, 1);
    }
}
