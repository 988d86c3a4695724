//! The reference kernel the end-to-end costs are expressed in.
//!
//! On a shared virtual machine the CPU time of a fixed piece of work
//! swings by up to 1.7x over tens of seconds, as other guests load the
//! host's caches, memory and sibling hyperthreads; no statistic over a
//! one-minute run removes a swing that lasts longer than the run.
//! Leaving out steal (CPU time instead of wall) does not remove it
//! either. So the benchmark samples a fixed reference kernel, which
//! lives here and does not change with the program, between the timed
//! phases of a pass, and reports the pass's CPU time in units of the
//! kernel's CPU time measured in the same seconds. A slower program
//! still costs proportionally more units; a slower host slows both.
//!
//! The kernel is a dense 250x250 matrix product over 1 MB of data: of
//! the kernels tried (an integer ALU loop, a set-associative cache-lookup
//! loop, this product), its speed tracked the simulator's and the
//! trainer's most closely on the 2-vCPU machine the benchmark was tuned
//! on, cutting the spread of 20-second medians of mcf simulations from
//! 0.13 to 0.05 and of NN-E training from 0.24 to 0.05 (interquartile
//! range over median).

use crate::stats::{self, Cpu};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Side of the reference matrices.
const N: usize = 250;

/// The kernel's typical CPU seconds on one thread of the 2-vCPU Intel
/// Xeon (2.1 GHz) machine the benchmark was tuned on. A time in reference
/// units times this reads as seconds on that machine at its usual speed:
/// how `setup_s` is given in seconds.
pub const NOMINAL_UNIT_S: f64 = 0.0055;

/// One run of the reference kernel; returns a checksum so the work is
/// not optimized away.
fn kernel(a: &[f64], c: &mut [f64]) -> f64 {
    c.fill(0.0);
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            let row = &a[k * N..(k + 1) * N];
            for (cij, akj) in c[i * N..(i + 1) * N].iter_mut().zip(row) {
                *cij += aik * akj;
            }
        }
    }
    c.iter().sum()
}

type Matrices = (Vec<f64>, Vec<f64>);

/// One pair of matrices per core, allocated and written once, so the
/// kernel neither allocates nor touches a fresh page while it is timed
/// and the resident set does not depend on when it ran.
fn matrices() -> &'static [Mutex<Matrices>] {
    static SLOTS: OnceLock<Vec<Mutex<Matrices>>> = OnceLock::new();
    SLOTS.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        (0..cores)
            .map(|_| {
                let a = (0..N * N).map(|i| (i % 17) as f64 * 0.1).collect();
                Mutex::new((a, vec![1.0; N * N]))
            })
            .collect()
    })
}

/// The median CPU seconds of `reps` kernel runs on the calling thread,
/// on matrix slot `slot`.
fn timed_runs(slot: usize, reps: usize) -> f64 {
    let slots = matrices();
    let mut m = slots[slot % slots.len()]
        .lock()
        .expect("reference matrices lock poisoned");
    let (a, c) = &mut *m;
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = stats::cpu_s(Cpu::Thread);
            std::hint::black_box(kernel(std::hint::black_box(a), c));
            stats::cpu_s(Cpu::Thread) - t
        })
        .collect();
    stats::median(&times)
}

/// CPU seconds of one reference unit now: the kernel runs `reps` times
/// on each of `threads` threads at once, each timed by its own clock;
/// the unit is the mean over threads of each thread's median. A
/// fanned-out phase is measured against as many threads as it runs on,
/// so the reference also sees the cores contending with each other.
pub fn unit_s(threads: usize, reps: usize) -> f64 {
    if threads <= 1 {
        return timed_runs(0, reps);
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|slot| s.spawn(move || timed_runs(slot, reps)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference kernel thread panicked"))
            .collect()
    });
    stats::mean(&times)
}

/// Meters consecutive phases: the CPU time of each, and a reference unit
/// sampled before the first and after every phase.
pub struct Meter {
    threads: usize,
    reps: usize,
    samples: Vec<f64>,
    phase_cpu: Vec<f64>,
    /// Σ phase CPU seconds.
    pub cpu_s: f64,
    /// Σ phase wall seconds.
    pub wall_s: f64,
}

impl Meter {
    /// Start metering phases that run on `threads` threads, measuring
    /// each reference sample as the median of `reps` kernel runs.
    pub fn start(threads: usize, reps: usize) -> Meter {
        Meter {
            threads,
            reps,
            samples: vec![unit_s(threads, reps)],
            phase_cpu: Vec::new(),
            cpu_s: 0.0,
            wall_s: 0.0,
        }
    }

    /// Run one phase; returns its result and its CPU seconds.
    pub fn phase<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let (t, c) = (Instant::now(), stats::cpu_s(Cpu::Process));
        let out = f();
        let cpu = stats::cpu_s(Cpu::Process) - c;
        self.wall_s += t.elapsed().as_secs_f64();
        self.cpu_s += cpu;
        self.phase_cpu.push(cpu);
        self.samples.push(unit_s(self.threads, self.reps));
        (out, cpu)
    }

    /// CPU seconds in reference units of the median sample so far: how a
    /// pass is priced, so that one sample caught by a brief blip of the
    /// host does not move the whole pass.
    pub fn units(&self, cpu_s: f64) -> f64 {
        cpu_s / stats::median(&self.samples)
    }

    /// Each phase's CPU time over the mean of the samples right before
    /// and after it: how short phases are priced one by one, each by the
    /// host of its own moment; a disturbed sample moves only two phases.
    pub fn phase_units(&self) -> impl Iterator<Item = f64> + '_ {
        self.phase_cpu
            .iter()
            .zip(self.samples.windows(2))
            .map(|(cpu, w)| cpu / ((w[0] + w[1]) / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_nonzero() {
        let a: Vec<f64> = (0..N * N).map(|i| (i % 17) as f64 * 0.1).collect();
        let (mut c1, mut c2) = (vec![0.0; N * N], vec![1.0; N * N]);
        let x = kernel(&a, &mut c1);
        assert_eq!(x.to_bits(), kernel(&a, &mut c2).to_bits());
        assert!(x > 0.0);
    }

    #[test]
    fn a_unit_is_positive_on_any_thread_count() {
        assert!(unit_s(1, 1) > 0.0);
        assert!(unit_s(3, 2) > 0.0);
    }

    #[test]
    fn a_phase_costs_its_cpu_time_over_the_unit() {
        let mut m = Meter::start(1, 3);
        let ((), cpu) = m.phase(|| {
            std::hint::black_box(unit_s(1, 2));
        });
        let units = m.units(cpu);
        assert!(units > 0.5 && units < 8.0, "two kernel runs cost {units} units");
        assert_eq!(m.cpu_s, cpu);
        // Two samples: their median is their mean.
        assert_eq!(m.phase_units().collect::<Vec<_>>(), vec![units]);
    }
}
