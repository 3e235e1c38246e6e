//! Host speed. The benchmark runs on a host shared with other machines,
//! whose speed drifts: the same round of the same input ran 15–45% slower
//! for minutes at a time, on every workload at once. A fixed probe, timed
//! before every round, follows that drift, and a timed run reports every
//! time multiplied by [`Speed::scale`], the probe's nominal time over its
//! median in the run: the time the run would have read on the host at its
//! nominal speed.
//!
//! The probe is a chain of dependent loads around one fixed cycle of
//! [`CYCLE`] slots, one in each 8 KiB block of an 8 MiB table, so its
//! working set fits the second-level cache but not the first-level TLB,
//! like the graph kernels' scattered neighbour reads. It is benchmark code
//! that runs while no library thread does, so a change to the library
//! does not move it.

use crate::inputs::splitmix64;
use crate::report::median;
use std::time::Instant;

/// Table slots: 8 MiB of `u32`.
const TABLE_SLOTS: usize = 1 << 21;
/// Slots on the cycle, one per block of `TABLE_SLOTS / CYCLE` slots.
pub const CYCLE: usize = 1 << 10;
/// Loads per probe sample, about a millisecond.
const STEPS: usize = 100_000;
/// Probe samples taken before each round.
const SAMPLES_PER_ROUND: usize = 5;
/// The probe's median time, in ms, on the host at its nominal speed: the
/// host the README's measurements come from, in a quiet hour.
pub const NOMINAL_MS: f64 = 0.85;

pub struct Speed {
    table: Vec<u32>,
    start: u32,
    samples: Vec<f64>,
}

impl Speed {
    pub fn new() -> Self {
        let mut state = 0xC7C1_E5EE_D000;
        let block = TABLE_SLOTS / CYCLE;
        let slots: Vec<usize> = (0..CYCLE)
            .map(|b| b * block + (splitmix64(&mut state) % block as u64) as usize)
            .collect();
        // Sattolo's shuffle: `k -> order[k]` is one cycle through all slots.
        let mut order: Vec<usize> = (0..CYCLE).collect();
        for i in (1..CYCLE).rev() {
            let j = (splitmix64(&mut state) % i as u64) as usize;
            order.swap(i, j);
        }
        let mut table = vec![0u32; TABLE_SLOTS];
        for (k, &slot) in slots.iter().enumerate() {
            table[slot] = slots[order[k]] as u32;
        }
        Speed { table, start: slots[0] as u32, samples: Vec::new() }
    }

    /// Follows the cycle `steps` loads from its start; returns where it ends.
    fn follow(&self, steps: usize) -> u32 {
        let table = std::hint::black_box(&self.table[..]);
        let mut at = self.start;
        for _ in 0..steps {
            at = table[at as usize];
        }
        at
    }

    /// Times the probe [`SAMPLES_PER_ROUND`] times.
    pub fn sample(&mut self) {
        for _ in 0..SAMPLES_PER_ROUND {
            let t0 = Instant::now();
            std::hint::black_box(self.follow(std::hint::black_box(STEPS)));
            self.samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// The probe's median time over every sample so far, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// The factor that takes a time measured in this run to the host at
    /// its nominal speed.
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_probe_walks_one_cycle_with_a_slot_in_every_block() {
        let s = Speed::new();
        let mut at = s.start;
        let mut blocks = BTreeSet::new();
        for step in 1..=CYCLE {
            at = s.table[at as usize];
            blocks.insert(at as usize / (TABLE_SLOTS / CYCLE));
            assert_eq!(at == s.start, step == CYCLE, "back at the start after step {step}");
        }
        assert_eq!(blocks.len(), CYCLE);
        assert_eq!(s.follow(3 * CYCLE), s.start);
    }

    #[test]
    fn scale_is_nominal_over_the_median_sample() {
        let mut s = Speed::new();
        s.samples = vec![2.0 * NOMINAL_MS, 0.5 * NOMINAL_MS, 4.0 * NOMINAL_MS];
        assert_eq!(s.scale(), 0.5, "a run at half speed reports its times halved");
        s.sample();
        assert_eq!(s.samples.len(), 3 + SAMPLES_PER_ROUND);
        assert!(s.samples.iter().all(|&ms| ms > 0.0 && ms.is_finite()));
    }
}
