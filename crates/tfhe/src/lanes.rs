//! The lane count of the workspace and the one way this crate uses it:
//! contiguous ranges of independent rows, one per lane, on scoped threads.
//!
//! Server-key set-up — generating, encoding and decoding the rows of the
//! bootstrapping and key-switching keys — is a loop over rows that share
//! nothing but read-only inputs. Each row's bytes are a function of its
//! own index alone (its mask and noise come from its own streams, see
//! `SecureRng`), so splitting the rows into ranges changes no byte at any
//! lane count. One lane is the same code run inline on the caller.

use std::ops::Range;

/// The number of lanes to run on: `PYTFHE_WORKERS` when it is set to a
/// positive integer, else the machine's available parallelism. The
/// backend's worker pool takes its width from here too.
pub fn default_width() -> usize {
    std::env::var("PYTFHE_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `0..len` cut into at most `lanes` contiguous ranges of near-equal
/// length, in order (one empty range when `len` is 0).
pub(crate) fn ranges(len: usize, lanes: usize) -> impl Iterator<Item = Range<usize>> {
    let lanes = lanes.clamp(1, len.max(1));
    (0..lanes).map(move |i| i * len / lanes..(i + 1) * len / lanes)
}

/// Cuts `data` into blocks of `block` elements, the blocks into one
/// contiguous run per lane, and calls `work(first_block, run)` on each
/// run: the first on the calling thread, every other on a scoped thread
/// of its own. A panic on any lane resumes on the caller.
///
/// # Panics
///
/// Panics unless `data` is a whole number of blocks.
pub(crate) fn for_each_run<T: Send>(
    lanes: usize,
    data: &mut [T],
    block: usize,
    work: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(block > 0 && data.len().is_multiple_of(block), "data is a whole number of blocks");
    let work = &work;
    let mut rest = data;
    let mut runs = ranges(rest.len() / block, lanes).map(|r| {
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * block);
        rest = tail;
        (r.start, run)
    });
    let (first, run) = runs.next().expect("at least one range");
    std::thread::scope(|s| {
        let others: Vec<_> = runs.map(|(i, r)| s.spawn(move || work(i, r))).collect();
        work(first, run);
        for lane in others {
            lane.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_every_index_once_in_order() {
        for len in [0, 1, 5, 630] {
            for lanes in 1..=5 {
                let cut: Vec<_> = ranges(len, lanes).collect();
                assert_eq!(cut.first().map(|r| r.start), Some(0));
                assert_eq!(cut.last().map(|r| r.end), Some(len));
                assert!(cut.windows(2).all(|w| w[0].end == w[1].start));
                assert!(cut.len() <= lanes.max(1));
            }
        }
    }

    #[test]
    fn runs_see_their_own_blocks() {
        for lanes in 1..=4 {
            let mut data = vec![0usize; 7 * 3];
            for_each_run(lanes, &mut data, 3, |first, run| {
                for (b, block) in (first..).zip(run.chunks_exact_mut(3)) {
                    block.fill(b);
                }
            });
            let want: Vec<usize> = (0..7).flat_map(|b| [b; 3]).collect();
            assert_eq!(data, want, "lanes={lanes}");
        }
    }

    #[test]
    #[should_panic(expected = "lane 2")]
    fn a_panicking_lane_resumes_on_the_caller() {
        for_each_run(3, &mut [0; 3], 1, |i, _| assert_ne!(i, 2, "lane 2"));
    }
}
