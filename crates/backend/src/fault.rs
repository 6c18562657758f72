//! Fault injection and retry policy for the resilient executor.
//!
//! The paper's distributed CPU backend submits every bootstrapped gate as
//! a separate Ray task (Section IV-D); on a real cluster those tasks fail
//! — workers die, tasks get lost, stragglers stall a wave. This module
//! models those failures *deterministically* so the recovery logic of
//! [`crate::exec::execute_resilient`] can be tested bit-for-bit. The unit
//! of work is a *chunk*: the run of tasks one lane executes in one
//! dispatch of a wave — bootstrapping gates of any kinds, or linear
//! gates. A [`FaultInjector`] decides the fate of every
//! chunk attempt and whether a worker crashes in a wave, and
//! [`RetryPolicy`] governs how the executor reacts (capped exponential
//! backoff with deterministic jitter, per-attempt and per-wave
//! deadlines).
//!
//! Determinism matters more than realism here: [`SeededFaults`] derives
//! every decision from a hash of `(seed, wave, chunk, attempt)`, so a
//! failing run is exactly reproducible from its seed.

use std::time::Duration;

/// Splitmix64 finalizer: the deterministic mixer behind seeded fault
/// decisions and backoff jitter.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a seed and three decision coordinates.
#[inline]
fn unit(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let h = mix(seed ^ mix(a ^ mix(b ^ mix(c))));
    // 53 mantissa bits: exactly representable, uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The injected outcome of one chunk attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFate {
    /// The attempt completes normally.
    Success,
    /// The attempt is lost (worker preempted, task dropped, network
    /// blip): the executor retries the chunk with backoff.
    Fail,
    /// The attempt is a straggler: it completes, but only after the extra
    /// latency. If the latency exceeds [`RetryPolicy::task_deadline`],
    /// the executor abandons the attempt and retries instead of waiting.
    Slow(Duration),
}

/// Decides the fate of chunk attempts and worker crashes.
///
/// Implementations must be deterministic functions of their arguments so
/// that failure scenarios replay exactly; `Sync` because workers consult
/// the injector concurrently.
pub trait FaultInjector: Sync {
    /// The fate of attempt `attempt` (1-based) of chunk `chunk` (its
    /// index within the wave's dispatch) in wave `wave`. The default
    /// injects nothing.
    fn task_fate(&self, wave: usize, chunk: u32, attempt: u32) -> TaskFate {
        let _ = (wave, chunk, attempt);
        TaskFate::Success
    }

    /// Whether `worker` crashes in wave `wave`. Asked once per wave for
    /// every live worker before the wave runs: a crashed worker is
    /// permanently evicted, and the wave runs on one lane fewer.
    fn worker_crashes(&self, wave: usize, worker: usize) -> bool {
        let _ = (wave, worker);
        false
    }
}

/// The no-op injector: production behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// Deterministic seeded fault injection: per-attempt failure probability,
/// straggler latency injection, and scripted worker-crash-at-wave events.
#[derive(Debug, Clone)]
pub struct SeededFaults {
    seed: u64,
    fail_prob: f64,
    slow_prob: f64,
    slow_by: Duration,
    crashes: Vec<(usize, usize)>,
}

impl SeededFaults {
    /// A seeded injector that (initially) injects nothing.
    pub fn new(seed: u64) -> Self {
        SeededFaults {
            seed,
            fail_prob: 0.0,
            slow_prob: 0.0,
            slow_by: Duration::ZERO,
            crashes: Vec::new(),
        }
    }

    /// Each chunk attempt independently fails with probability `p`.
    #[must_use]
    pub fn with_fail_prob(mut self, p: f64) -> Self {
        self.fail_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Each (non-failed) attempt independently straggles by `by` with
    /// probability `p`.
    #[must_use]
    pub fn with_straggler(mut self, p: f64, by: Duration) -> Self {
        self.slow_prob = p.clamp(0.0, 1.0);
        self.slow_by = by;
        self
    }

    /// Worker `worker` crashes in wave `wave` (it is evicted for the
    /// rest of the run).
    #[must_use]
    pub fn with_worker_crash(mut self, worker: usize, wave: usize) -> Self {
        self.crashes.push((worker, wave));
        self
    }
}

impl FaultInjector for SeededFaults {
    fn task_fate(&self, wave: usize, chunk: u32, attempt: u32) -> TaskFate {
        let fail = unit(self.seed, wave as u64, u64::from(chunk), u64::from(attempt));
        if fail < self.fail_prob {
            return TaskFate::Fail;
        }
        let slow = unit(self.seed ^ 0x510_CA57, wave as u64, u64::from(chunk), u64::from(attempt));
        if slow < self.slow_prob {
            return TaskFate::Slow(self.slow_by);
        }
        TaskFate::Success
    }

    fn worker_crashes(&self, wave: usize, worker: usize) -> bool {
        self.crashes.contains(&(worker, wave))
    }
}

/// How the resilient executor reacts to injected (or real) failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per chunk before surfacing
    /// [`crate::ExecError::Exhausted`] (at least 1).
    pub max_attempts: u32,
    /// Backoff before the first retry round; doubles on every further
    /// one.
    pub base_backoff: Duration,
    /// Cap on the exponential backoff.
    pub max_backoff: Duration,
    /// Straggler budget: an attempt whose injected latency exceeds this
    /// is abandoned and retried instead of awaited. `None` waits forever.
    pub task_deadline: Option<Duration>,
    /// Wall-clock budget for one wave (including all retry rounds);
    /// exceeding it surfaces [`crate::ExecError::WaveDeadlineExceeded`],
    /// checked between rounds and when the wave ends. `None` disables
    /// the check.
    pub wave_deadline: Option<Duration>,
    /// Seed of the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(250),
            task_deadline: None,
            wave_deadline: None,
            jitter_seed: 0x7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// A near-zero-backoff policy for tests: failures retry immediately
    /// so heavily-faulted runs still finish quickly.
    pub fn fast() -> Self {
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(16),
            ..Self::default()
        }
    }

    /// The backoff after failed attempt `attempt` (1-based) of chunk
    /// `chunk`: `base * 2^(attempt-1)`, capped at
    /// [`RetryPolicy::max_backoff`], plus up to +50 % deterministic
    /// jitter so synchronized retries spread out. A retry round waits for
    /// the longest backoff among its chunks.
    pub fn backoff(&self, chunk: u32, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self.base_backoff.saturating_mul(1u32 << doublings);
        let capped = exp.min(self.max_backoff);
        let jitter = unit(self.jitter_seed, u64::from(chunk), u64::from(attempt), 0);
        capped + capped.mul_f64(jitter * 0.5)
    }
}

/// A storage-level fault applied to the bytes of a persisted artifact
/// (server key, kernel plan, or checkpoint) before they are decoded.
///
/// These model what real filesystems and disks do to data at rest and
/// across crashes; the persistence layer must turn every one of them
/// into a typed error — never a panic, never silently-accepted garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The write was torn mid-flight: only the first `keep` bytes
    /// landed (crash between `write` and `fsync`).
    TornWrite {
        /// Bytes that made it to disk.
        keep: usize,
    },
    /// Media rot flipped bit `bit` of byte `byte`.
    BitFlip {
        /// Offset of the corrupted byte.
        byte: usize,
        /// Which bit flipped (0–7).
        bit: u8,
    },
    /// A stale artifact was substituted for the current one — a
    /// reordered rename, a restored-from-backup directory, or an
    /// operator copying the wrong generation into place.
    StaleVersion,
    /// A rename landed twice (or a journal replayed), leaving the
    /// artifact duplicated back-to-back in one file.
    DuplicateRename,
}

/// Deterministic generator of [`StorageFault`]s, analogous to
/// [`SeededFaults`] for task-level failures: case `i` of a given seed
/// always produces the same fault at the same location, so a corpus of
/// thousands of corruption cases replays bit-for-bit from `(seed, i)`.
#[derive(Debug, Clone, Copy)]
pub struct SeededStorageFaults {
    seed: u64,
}

impl SeededStorageFaults {
    /// An injector deriving every fault from `seed`.
    pub fn new(seed: u64) -> Self {
        SeededStorageFaults { seed }
    }

    /// The fault chosen for case `case` against an artifact of `len`
    /// bytes. Deterministic in `(seed, case, len)`.
    pub fn fault(&self, case: u64, len: usize) -> StorageFault {
        let pick = unit(self.seed, case, 0, 0);
        match (pick * 4.0) as u32 {
            0 => {
                // Keep strictly fewer bytes than were written so the
                // tear is always observable.
                let keep = (unit(self.seed, case, 1, 0) * len as f64) as usize;
                StorageFault::TornWrite { keep: keep.min(len.saturating_sub(1)) }
            }
            1 => {
                let byte = (unit(self.seed, case, 2, 0) * len as f64) as usize;
                let bit = (unit(self.seed, case, 3, 0) * 8.0) as u8;
                StorageFault::BitFlip { byte: byte.min(len.saturating_sub(1)), bit: bit.min(7) }
            }
            2 => StorageFault::StaleVersion,
            _ => StorageFault::DuplicateRename,
        }
    }

    /// Applies case `case` to `bytes`, returning the post-fault file
    /// contents. `stale` stands in for an earlier generation of the
    /// artifact when the fault is [`StorageFault::StaleVersion`].
    pub fn corrupt(&self, case: u64, bytes: &[u8], stale: &[u8]) -> Vec<u8> {
        match self.fault(case, bytes.len()) {
            StorageFault::TornWrite { keep } => bytes[..keep.min(bytes.len())].to_vec(),
            StorageFault::BitFlip { byte, bit } => {
                let mut out = bytes.to_vec();
                if let Some(b) = out.get_mut(byte) {
                    *b ^= 1 << bit;
                }
                out
            }
            StorageFault::StaleVersion => stale.to_vec(),
            StorageFault::DuplicateRename => {
                let mut out = bytes.to_vec();
                out.extend_from_slice(bytes);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_fates_are_deterministic() {
        let f = SeededFaults::new(42).with_fail_prob(0.3);
        for wave in 0..4 {
            for gate in 0..64 {
                for attempt in 1..4 {
                    assert_eq!(f.task_fate(wave, gate, attempt), f.task_fate(wave, gate, attempt));
                }
            }
        }
    }

    #[test]
    fn fail_rate_tracks_probability() {
        let f = SeededFaults::new(7).with_fail_prob(0.25);
        let fails = (0..4000).filter(|&g| f.task_fate(1, g, 1) == TaskFate::Fail).count();
        let rate = fails as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed fail rate {rate}");
    }

    #[test]
    fn zero_probability_never_fails() {
        let f = SeededFaults::new(9);
        assert!((0..1000).all(|g| f.task_fate(0, g, 1) == TaskFate::Success));
    }

    #[test]
    fn stragglers_carry_their_latency() {
        let f = SeededFaults::new(3).with_straggler(1.0, Duration::from_millis(20));
        assert_eq!(f.task_fate(2, 5, 1), TaskFate::Slow(Duration::from_millis(20)));
    }

    #[test]
    fn scripted_crashes_only_hit_their_wave() {
        let f = SeededFaults::new(0).with_worker_crash(2, 3);
        assert!(f.worker_crashes(3, 2));
        assert!(!f.worker_crashes(3, 1));
        assert!(!f.worker_crashes(2, 2));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        let b1 = p.backoff(0, 1);
        let b3 = p.backoff(0, 3);
        assert!(b1 >= p.base_backoff);
        assert!(b3 > b1, "{b3:?} vs {b1:?}");
        // Far past the cap: bounded by max + 50 % jitter.
        let b20 = p.backoff(0, 20);
        assert!(b20 <= p.max_backoff + p.max_backoff.mul_f64(0.5));
    }

    #[test]
    fn jitter_differs_across_chunks() {
        let p = RetryPolicy::default();
        assert_ne!(p.backoff(1, 4), p.backoff(2, 4));
    }

    #[test]
    fn storage_faults_are_deterministic_and_cover_every_variant() {
        let inj = SeededStorageFaults::new(0xD15C);
        let mut torn = 0;
        let mut flip = 0;
        let mut stale = 0;
        let mut dup = 0;
        for case in 0..256u64 {
            assert_eq!(inj.fault(case, 100), inj.fault(case, 100));
            match inj.fault(case, 100) {
                StorageFault::TornWrite { keep } => {
                    assert!(keep < 100);
                    torn += 1;
                }
                StorageFault::BitFlip { byte, bit } => {
                    assert!(byte < 100 && bit < 8);
                    flip += 1;
                }
                StorageFault::StaleVersion => stale += 1,
                StorageFault::DuplicateRename => dup += 1,
            }
        }
        assert!(torn > 0 && flip > 0 && stale > 0 && dup > 0, "{torn}/{flip}/{stale}/{dup}");
    }

    #[test]
    fn corrupt_always_changes_the_bytes() {
        let inj = SeededStorageFaults::new(1);
        let good = vec![0xAAu8; 64];
        let stale = vec![0x55u8; 32];
        for case in 0..256u64 {
            assert_ne!(inj.corrupt(case, &good, &stale), good, "case {case} was a no-op");
        }
    }
}
