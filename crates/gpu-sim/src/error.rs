//! Error type for the GPU simulator.

use crate::Direction;
use std::fmt;

/// Errors produced by the simulated device.
///
/// The injected-fault variants ([`SimError::TransferFault`],
/// [`SimError::LaunchFault`], [`SimError::AllocFault`]) are **transient**:
/// the same operation may succeed if retried. [`SimError::OutOfMemory`] is a
/// capacity miss — not transient, but recoverable by re-admitting the plan in
/// a cheaper execution mode. The remaining variants are program bugs and are
/// fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A global-memory allocation exceeded device capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// A buffer id was used after free (or never allocated).
    InvalidBuffer {
        /// The offending buffer id.
        id: u64,
    },
    /// A kernel was launched whose per-thread/per-CTA resources fit no CTA.
    InfeasibleLaunch {
        /// Human-readable description of the launch.
        detail: String,
    },
    /// An injected transient PCIe transfer failure.
    TransferFault {
        /// Direction of the failed transfer.
        direction: Direction,
        /// Bytes that were being moved.
        bytes: u64,
    },
    /// An injected transient kernel-launch failure.
    LaunchFault {
        /// Label of the kernel whose launch failed.
        label: String,
    },
    /// An injected transient allocation failure (the device had room; the
    /// allocation failed for a non-capacity reason and may succeed retried).
    AllocFault {
        /// Bytes requested.
        requested: u64,
    },
    /// A stream or event handle that does not belong to this device's
    /// stream model (e.g. one created on another device).
    InvalidStream {
        /// Human-readable description of the bad handle.
        detail: String,
    },
    /// A scratch-arena sub-allocation exceeded the arena's upfront
    /// reservation: the admission predictor under-estimated the plan's
    /// peak. Like [`SimError::OutOfMemory`] this is a capacity miss —
    /// recoverable by degrading to a cheaper execution mode — but it is
    /// *loud*: the misprediction surfaces here instead of as a silent
    /// mid-plan OOM against the whole device.
    ArenaOverflow {
        /// Bytes requested from the arena.
        requested: u64,
        /// Contiguous-insufficient bytes still unreserved in the arena.
        free: u64,
        /// The arena's total upfront reservation.
        reservation: u64,
    },
    /// A [`crate::DeviceConfig`] field is outside its physical range (see
    /// [`crate::DeviceConfig::validate`]). Fatal: a retry or a cheaper
    /// execution mode would run on the same configuration.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Its value, rendered.
        value: String,
    },
}

impl SimError {
    /// Whether retrying the same operation can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::TransferFault { .. }
                | SimError::LaunchFault { .. }
                | SimError::AllocFault { .. }
        )
    }

    /// Whether this is a capacity miss, recoverable by degrading to an
    /// execution mode with a smaller device footprint.
    pub fn is_capacity(&self) -> bool {
        matches!(
            self,
            SimError::OutOfMemory { .. } | SimError::ArenaOverflow { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "device out of memory: requested {requested} bytes, {free} free"
                )
            }
            SimError::InvalidBuffer { id } => write!(f, "invalid device buffer id {id}"),
            SimError::InfeasibleLaunch { detail } => {
                write!(f, "kernel launch fits no CTA on an SM: {detail}")
            }
            SimError::TransferFault { direction, bytes } => {
                write!(
                    f,
                    "transient PCIe fault: {direction:?} transfer of {bytes} bytes failed"
                )
            }
            SimError::LaunchFault { label } => {
                write!(
                    f,
                    "transient launch fault: kernel {label:?} rejected by driver"
                )
            }
            SimError::AllocFault { requested } => {
                write!(f, "transient allocation fault: {requested} bytes")
            }
            SimError::InvalidStream { detail } => {
                write!(f, "invalid stream or event handle: {detail}")
            }
            SimError::ArenaOverflow {
                requested,
                free,
                reservation,
            } => {
                write!(
                    f,
                    "scratch arena overflow: requested {requested} bytes with {free} \
                     free of a {reservation}-byte reservation (admission under-predicted \
                     the peak)"
                )
            }
            SimError::InvalidConfig { field, value } => {
                write!(
                    f,
                    "invalid device configuration: {field} = {value} (a float field must be \
                     finite and positive, an integer field at least 1)"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias for simulator results.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!SimError::InvalidBuffer { id: 3 }.to_string().is_empty());
        assert!(SimError::OutOfMemory {
            requested: 10,
            free: 5
        }
        .to_string()
        .contains("10"));
    }

    #[test]
    fn transient_taxonomy() {
        assert!(SimError::TransferFault {
            direction: Direction::HostToDevice,
            bytes: 8,
        }
        .is_transient());
        assert!(SimError::LaunchFault { label: "k".into() }.is_transient());
        assert!(SimError::AllocFault { requested: 8 }.is_transient());
        let oom = SimError::OutOfMemory {
            requested: 10,
            free: 5,
        };
        assert!(!oom.is_transient());
        assert!(oom.is_capacity());
        assert!(!SimError::InvalidBuffer { id: 1 }.is_transient());
        let bad_stream = SimError::InvalidStream {
            detail: "stream 9".into(),
        };
        assert!(!bad_stream.is_transient() && !bad_stream.is_capacity());
        let overflow = SimError::ArenaOverflow {
            requested: 64,
            free: 8,
            reservation: 32,
        };
        assert!(!overflow.is_transient());
        assert!(overflow.is_capacity());
        assert!(!SimError::InfeasibleLaunch {
            detail: String::new()
        }
        .is_capacity());
    }
}
