//! Seeded load schedules: which utterance each session speaks, when
//! open-loop sessions arrive, and when each chunk of their audio is due.

use darkside_core::nn::Rng;

/// Feature frames per pushed chunk.
pub const CHUNK_FRAMES: usize = 10;
/// Audio time one feature frame covers, nanoseconds (10 ms).
pub const FRAME_NS: u64 = 10_000_000;

/// The order in which sessions draw utterances from a fixed pool: a
/// seeded permutation, repeated. Every utterance is spoken once per cycle,
/// so transcript quality stays comparable across seeds while the seed
/// still decides who speaks what, and when.
pub struct PoolOrder {
    order: Vec<usize>,
    next: usize,
}

impl PoolOrder {
    pub fn new(pool: usize, seed: u64) -> Self {
        let mut order: Vec<usize> = (0..pool).collect();
        let mut rng = Rng::new(seed);
        for i in (1..pool).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Self { order, next: 0 }
    }

    /// Pool index of the next session's utterance.
    pub fn draw(&mut self) -> usize {
        let i = self.order[self.next % self.order.len()];
        self.next += 1;
        i
    }
}

/// Arrival offsets (ns from the window start) of a Poisson process with
/// `rate_per_s` arrivals per second, truncated to `window_ns`.
pub fn poisson_arrivals(rate_per_s: f64, window_ns: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 - u keeps ln away from 0.
        let u = 1.0 - rng.next_f64();
        t += -u.ln() / rate_per_s * 1e9;
        if t >= window_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// One chunk of an utterance's audio: frames `[start, end)`, due when its
/// last frame has been spoken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    pub start: usize,
    pub end: usize,
    pub due_ns: u64,
}

/// The chunks of a `frames`-long utterance whose speech starts at
/// `arrival_ns`: [`CHUNK_FRAMES`] frames each (the last may be shorter),
/// each due at `arrival + end × FRAME_NS`.
pub fn chunks(arrival_ns: u64, frames: usize) -> Vec<Chunk> {
    (0..frames)
        .step_by(CHUNK_FRAMES)
        .map(|start| {
            let end = (start + CHUNK_FRAMES).min(frames);
            Chunk {
                start,
                end,
                due_ns: arrival_ns + end as u64 * FRAME_NS,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let a = poisson_arrivals(50.0, 2_000_000_000, 7);
        assert_eq!(a, poisson_arrivals(50.0, 2_000_000_000, 7));
        assert_ne!(a, poisson_arrivals(50.0, 2_000_000_000, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
    }

    #[test]
    fn arrival_count_tracks_the_rate() {
        // 50/s over 40 s: 2000 expected, Poisson sd ≈ 45.
        let n = poisson_arrivals(50.0, 40_000_000_000, 3).len();
        assert!((1800..2200).contains(&n), "{n} arrivals");
    }

    #[test]
    fn chunk_due_times_follow_the_audio() {
        let c = chunks(1_000, 25);
        assert_eq!(
            c,
            vec![
                Chunk {
                    start: 0,
                    end: 10,
                    due_ns: 1_000 + 100_000_000
                },
                Chunk {
                    start: 10,
                    end: 20,
                    due_ns: 1_000 + 200_000_000
                },
                Chunk {
                    start: 20,
                    end: 25,
                    due_ns: 1_000 + 250_000_000
                },
            ]
        );
        assert_eq!(chunks(0, 10).len(), 1);
        assert!(chunks(0, 0).is_empty());
    }

    #[test]
    fn pool_order_cycles_through_a_seeded_permutation() {
        let mut a = PoolOrder::new(5, 11);
        let first: Vec<usize> = (0..5).map(|_| a.draw()).collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        let second: Vec<usize> = (0..5).map(|_| a.draw()).collect();
        assert_eq!(first, second);
        let mut b = PoolOrder::new(5, 11);
        assert_eq!(first, (0..5).map(|_| b.draw()).collect::<Vec<_>>());
    }
}
