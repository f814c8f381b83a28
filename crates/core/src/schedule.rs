//! The super-block schedule of Algorithm 2, as a first-class value.
//!
//! With `P` intervals and `N` processing units, the P×P block grid
//! decomposes into `(P/N)²` super blocks of N×N blocks. Algorithm 2 scans
//! super blocks **vertically** (Fig. 7, right), loads destination intervals
//! once per super-block row band, and executes each super block in `N`
//! round-robin *steps*: in step `s`, PU `p` processes the block whose source
//! interval is `sx·N + (p + s) mod N` and whose destination interval is
//! `sy·N + p` — so every PU touches a distinct source and a distinct
//! destination in every step, and the router only ever permutes connections.

use crate::error::CoreError;

/// One block assignment inside a step: which PU processes which block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Assignment {
    /// Processing unit index.
    pub pu: u32,
    /// Source interval of the block.
    pub src_interval: u32,
    /// Destination interval of the block.
    pub dst_interval: u32,
}

/// A full Algorithm-2 schedule.
///
/// ```
/// use hyve_core::schedule::SuperBlockSchedule;
///
/// # fn main() -> Result<(), hyve_core::CoreError> {
/// let schedule = SuperBlockSchedule::new(16, 4)?;
/// assert_eq!(schedule.super_blocks_per_side(), 4);
/// assert_eq!(schedule.steps_per_iteration(), 4 * 4 * 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBlockSchedule {
    intervals: u32,
    pus: u32,
}

impl SuperBlockSchedule {
    /// Creates a schedule for `intervals` intervals over `pus` PUs.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unschedulable`] unless `intervals` is a positive
    /// multiple of `pus`.
    pub fn new(intervals: u32, pus: u32) -> Result<Self, CoreError> {
        let message = if pus == 0 {
            "need at least one processing unit".to_string()
        } else if intervals < pus {
            format!("{intervals} intervals < {pus} processing units")
        } else if !intervals.is_multiple_of(pus) {
            format!("{intervals} intervals not divisible by {pus} processing units")
        } else {
            return Ok(SuperBlockSchedule { intervals, pus });
        };
        Err(CoreError::Unschedulable { message })
    }

    /// Number of intervals `P`.
    pub fn intervals(&self) -> u32 {
        self.intervals
    }

    /// Number of processing units `N`.
    pub fn pus(&self) -> u32 {
        self.pus
    }

    /// Super blocks per grid side (`P/N`).
    pub fn super_blocks_per_side(&self) -> u32 {
        self.intervals / self.pus
    }

    /// Total steps in one iteration: `(P/N)² · N`.
    pub fn steps_per_iteration(&self) -> u64 {
        let s = u64::from(self.super_blocks_per_side());
        s * s * u64::from(self.pus)
    }

    /// The N assignments of one step.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn step_assignments(&self, sx: u32, sy: u32, step: u32) -> Vec<Assignment> {
        let s = self.super_blocks_per_side();
        assert!(sx < s && sy < s, "super block ({sx},{sy}) out of {s}x{s}");
        assert!(step < self.pus, "step {step} out of {} steps", self.pus);
        (0..self.pus)
            .map(|pu| Assignment {
                pu,
                src_interval: sx * self.pus + (pu + step) % self.pus,
                dst_interval: sy * self.pus + pu,
            })
            .collect()
    }

    /// Iterates the full Algorithm-2 order:
    /// `for sy { for sx { for step { [N assignments] } } }`.
    pub fn iter(&self) -> Iter {
        Iter {
            schedule: *self,
            sy: 0,
            sx: 0,
            step: 0,
            done: false,
        }
    }
}

/// Iterator over the steps of a [`SuperBlockSchedule`]; yields
/// `((sx, sy, step), assignments)`.
#[derive(Debug, Clone)]
pub struct Iter {
    schedule: SuperBlockSchedule,
    sy: u32,
    sx: u32,
    step: u32,
    done: bool,
}

impl Iterator for Iter {
    type Item = ((u32, u32, u32), Vec<Assignment>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let s = self.schedule.super_blocks_per_side();
        let key = (self.sx, self.sy, self.step);
        let assignments = self.schedule.step_assignments(self.sx, self.sy, self.step);
        // Advance: step, then sx, then sy (vertical scan per Fig. 7).
        self.step += 1;
        if self.step == self.schedule.pus() {
            self.step = 0;
            self.sx += 1;
            if self.sx == s {
                self.sx = 0;
                self.sy += 1;
                if self.sy == s {
                    self.done = true;
                }
            }
        }
        Some((key, assignments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rejects_bad_shapes() {
        assert!(SuperBlockSchedule::new(0, 8).is_err());
        assert!(SuperBlockSchedule::new(12, 8).is_err());
        assert!(SuperBlockSchedule::new(8, 0).is_err());
        assert!(SuperBlockSchedule::new(8, 8).is_ok());
    }

    #[test]
    fn every_block_processed_exactly_once_per_iteration() {
        let schedule = SuperBlockSchedule::new(12, 4).unwrap();
        let mut seen = HashSet::new();
        for (_, assignments) in schedule.iter() {
            for a in assignments {
                assert!(
                    seen.insert((a.src_interval, a.dst_interval)),
                    "block ({}, {}) scheduled twice",
                    a.src_interval,
                    a.dst_interval
                );
            }
        }
        assert_eq!(seen.len(), 12 * 12, "all P² blocks covered");
    }

    #[test]
    fn each_step_uses_distinct_sources_and_destinations() {
        // The data-sharing property (Fig. 7): within a step no two PUs read
        // the same source interval or write the same destination interval.
        let schedule = SuperBlockSchedule::new(16, 8).unwrap();
        for (_, assignments) in schedule.iter() {
            let srcs: HashSet<u32> = assignments.iter().map(|a| a.src_interval).collect();
            let dsts: HashSet<u32> = assignments.iter().map(|a| a.dst_interval).collect();
            assert_eq!(srcs.len(), 8);
            assert_eq!(dsts.len(), 8);
        }
    }

    #[test]
    fn pu_keeps_its_destination_across_steps() {
        // §4.2: each PU owns one destination interval for the whole super
        // block; only sources reroute.
        let schedule = SuperBlockSchedule::new(8, 4).unwrap();
        for sy in 0..2 {
            for sx in 0..2 {
                let first = schedule.step_assignments(sx, sy, 0);
                for step in 1..4 {
                    let now = schedule.step_assignments(sx, sy, step);
                    for (a, b) in first.iter().zip(now.iter()) {
                        assert_eq!(a.dst_interval, b.dst_interval);
                        assert_ne!(a.src_interval, b.src_interval);
                    }
                }
            }
        }
    }

    #[test]
    fn vertical_scan_order() {
        // Fig. 7: super blocks scan down a column before moving right —
        // i.e. sy advances slowest in our (sx inner, sy outer) layout.
        let schedule = SuperBlockSchedule::new(8, 4).unwrap();
        let keys: Vec<(u32, u32, u32)> = schedule.iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 2 * 2 * 4);
        assert_eq!(keys[0], (0, 0, 0));
        assert_eq!(keys[3], (0, 0, 3));
        assert_eq!(keys[4], (1, 0, 0)); // next super block in the row band
        assert_eq!(keys[8], (0, 1, 0)); // then the next band
    }

    #[test]
    fn iterator_length_matches_formula() {
        let schedule = SuperBlockSchedule::new(24, 8).unwrap();
        assert_eq!(
            schedule.iter().count() as u64,
            schedule.steps_per_iteration()
        );
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_step_panics() {
        let schedule = SuperBlockSchedule::new(8, 4).unwrap();
        let _ = schedule.step_assignments(0, 0, 4);
    }
}
