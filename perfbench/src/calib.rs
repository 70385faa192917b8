//! Host-speed calibration.
//!
//! On a shared host the same CPU-bound unit runs up to 1.7× slower for
//! stretches of seconds to minutes while neighbours contend for the memory
//! system; thread CPU time grows with wall time, so it is not descheduling.
//! A fixed kernel of heap allocation, streaming writes and hash-map work —
//! the kind of work the compile and campaign paths do — slows down with it
//! (partly: it under-corrects the slowest stretches), while a pure ALU loop
//! does not. The kernel is timed between the units of a run, and each
//! CPU-bound unit time is reported scaled to the host speed at which the
//! kernel takes [`REF_MS`], using the samples on either side of the unit.
//! Set-up is scaled by samples taken right after it. On six recorded runs
//! per workload in a contended hour this cut the run-to-run spread of the
//! p50 from 43 % to 15 % for campaigns and from 40 % to 11 % for compile
//! rounds, and of the burst p90 from 15 % to 7 %.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, ms};

/// Kernel time on an uncontended 2-core x86-64 VM: the speed every scaled
/// time is reported at.
pub const REF_MS: f64 = 4.2;
/// Samples taken right after set-up.
const SETUP_SAMPLES: usize = 8;

/// Timed kernel samples of one run.
#[derive(Default)]
pub struct Calib {
    samples: Vec<(Instant, f64)>,
}

impl Calib {
    /// The factor that scales a set-up time measured just before to the
    /// reference speed.
    pub fn setup_factor() -> f64 {
        let mut c = Calib::default();
        for _ in 0..SETUP_SAMPLES {
            c.sample();
        }
        let mut kernel_ms: Vec<f64> = c.samples.iter().map(|s| s.1).collect();
        REF_MS / median(&mut kernel_ms)
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(kernel());
        let end = Instant::now();
        self.samples.push((end, ms(end - t0)));
    }

    /// Scales each unit, given as its end instant and its time, by `REF_MS`
    /// over the mean of the kernel samples just before and just after it.
    /// The unscaled p50 goes to stderr.
    pub fn scale(&self, units: &[(Instant, f64)]) -> Vec<f64> {
        assert!(!self.samples.is_empty(), "no calibration samples");
        let mut raw: Vec<f64> = units.iter().map(|u| u.1).collect();
        let mut kernel_ms: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        eprintln!(
            "unscaled p50 {:.3} ms, kernel p50 {:.3} ms over {} samples",
            median(&mut raw),
            median(&mut kernel_ms),
            kernel_ms.len()
        );
        units
            .iter()
            .map(|&(end, t)| {
                let after = self.samples.partition_point(|s| s.0 < end);
                let near =
                    &self.samples[after.saturating_sub(1)..(after + 1).min(self.samples.len())];
                let kernel_ms = near.iter().map(|s| s.1).sum::<f64>() / near.len() as f64;
                t * REF_MS / kernel_ms
            })
            .collect()
    }
}

/// About 4 ms of allocation-heavy work with about 2 MiB live at its peak:
/// short vectors built and dropped, then a hash map of 60 000 entries
/// filled, probed and drained.
fn kernel() -> u64 {
    let mut acc = 0u64;
    let mut keep: Vec<Vec<u32>> = Vec::new();
    for i in 0..2000usize {
        let len = 16 + (i * 37) % 4000;
        let v: Vec<u32> = (0..len as u32).collect();
        acc = acc.wrapping_add(u64::from(black_box(&v)[len / 2]));
        if i % 3 == 0 {
            keep.push(v);
        }
        if keep.len() > 8 {
            keep.clear();
        }
    }
    let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut map = HashMap::new();
    for i in 0..60_000u64 {
        map.insert(key(i), i);
    }
    for i in (0..60_000u64).step_by(3) {
        acc = acc.wrapping_add(map[&key(i)]);
    }
    let values: Vec<u64> = map.into_values().collect();
    acc.wrapping_add(values.len() as u64)
}
