//! Machine-speed calibration for host timings.
//!
//! On a shared machine the same code can run 1.7x slower for minutes at a
//! time while neighbours load the host, with no quiet moment in between.
//! Set-up and the measured phase therefore time a fixed calibration kernel,
//! and host times are reported at a reference speed: the workload's
//! least-interfered cost scaled by the kernel's least-interfered cost.
//!
//! The kernel allocates nothing after [`Kernel::default`] and calls nothing from
//! the repository's crates, so it shares neither the heap nor any code with
//! the workload: a change that fragments the heap or slows an allocation
//! path slows the workload but not the kernel, and shows undivided.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the kernel takes at reference speed (about its 10th percentile
/// on a quiet 2-vCPU Intel Xeon virtual machine).
pub const REFERENCE_S: f64 = 1.75e-3;
/// Seconds of measurement between calibrations.
pub const INTERVAL_S: f64 = 0.1;

/// Words the kernel sorts and searches (512 KiB, larger than L2).
const WORDS: usize = 1 << 16;
/// Lookups per run.
const PROBES: usize = 1 << 14;

/// The calibration kernel and the one buffer it works in.
pub struct Kernel {
    words: Vec<u64>,
}

impl Default for Kernel {
    /// Allocate the kernel's buffer.
    fn default() -> Kernel {
        Kernel {
            words: vec![0; WORDS],
        }
    }
}

impl Kernel {
    /// Time one run: fill the buffer with pseudo-random words, sort it,
    /// then binary-search it for pseudo-random keys — the cache- and
    /// branch-bound mix the simulator's host code is made of.
    pub fn seconds(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for w in self.words.iter_mut() {
            *w = next() >> 40;
        }
        self.words.sort_unstable();
        let hits = (0..PROBES)
            .filter(|_| self.words.binary_search(&(next() >> 40)).is_ok())
            .count();
        black_box(hits);
        t0.elapsed().as_secs_f64()
    }
}

/// How much slower than the reference the machine ran while `samples`
/// (kernel seconds) were taken: their 10th percentile over
/// [`REFERENCE_S`].
pub fn slowdown(samples: &[f64]) -> f64 {
    crate::metrics::percentile(samples, 0.1) / REFERENCE_S
}
