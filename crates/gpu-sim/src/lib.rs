//! An analytical GPU cost simulator standing in for the NVIDIA Fermi
//! hardware used by the Kernel Weaver paper (MICRO 2012).
//!
//! Every effect the paper measures — global-memory traffic, allocation
//! footprint, kernel-launch counts, occupancy loss from register/shared
//! pressure, PCIe transfer time — is modelled here as a cycle cost. Kernels
//! execute over real data elsewhere (the `kw-kernel-ir` crate) and report
//! their work *quantities*; this crate turns quantities into cycles via a
//! bandwidth / latency-hiding model calibrated to the Tesla C2050 of the
//! paper's Table 2.
//!
//! # Examples
//!
//! ```
//! use kw_gpu_sim::{Device, DeviceConfig, LaunchDims, KernelResources, KernelQuantities};
//!
//! let mut dev = Device::new(DeviceConfig::fermi_c2050());
//! let cost = dev.launch(
//!     "demo",
//!     LaunchDims::new(256, 256),
//!     KernelResources { registers_per_thread: 16, shared_per_cta: 0 },
//!     &KernelQuantities { global_bytes_read: 1 << 24, ..Default::default() },
//! )?;
//! println!("{} cycles at {:.0}% occupancy", cost.total_cycles(),
//!          cost.occupancy.occupancy * 100.0);
//! # Ok::<(), kw_gpu_sim::SimError>(())
//! ```

#![warn(missing_docs)]

mod arena;
mod config;
mod cost;
mod device;
mod error;
mod fault;
mod jsonval;
mod memory;
mod metrics;
mod occupancy;
mod pcie;
mod stats;
mod stream;
mod trace;

pub use arena::{ArenaLayout, ArenaSlice, ArenaStats, ScratchArena};
pub use config::DeviceConfig;
pub use cost::{kernel_cost, KernelCost, KernelQuantities, KernelResources, LaunchDims};
pub use device::Device;
pub use error::{Result, SimError};
pub use fault::{FaultConfig, FaultInjector, FaultKind, ScriptedFault};
pub use jsonval::{parse_json, JsonError, JsonValue, MAX_JSON_DEPTH};
pub use memory::{BufferId, MemoryTracker};
pub use metrics::{Histogram, MetricsRegistry};
pub use occupancy::{occupancy, Occupancy, OccupancyLimiter};
pub use pcie::{pcie_seconds, Direction};
pub use stats::SimStats;
pub use stream::{Engine, EventId, StreamId, StreamModel};
pub use trace::{
    chrome_trace_json, cycles_for_label, label_matches, operator_summary, reconcile, sum_deltas,
    summary_table, validate_chrome_json, validate_json, OperatorSummary, Span, SpanKind, TraceSink,
};
