//! Global-memory allocation tracking.
//!
//! Figure 17 of the paper compares GPU global memory *allocated* with and
//! without kernel fusion; the tracker records current and peak usage and the
//! total bytes ever allocated, and enforces the device capacity (which is
//! what forces the paper's Figure 21 "large inputs" staging behaviour).

use std::collections::HashMap;

use crate::{Result, SimError};

/// Identifier of a device global-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub(crate) u64);

impl BufferId {
    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Allocation {
    bytes: u64,
    label: String,
}

/// Tracks device global-memory allocations.
///
/// # Examples
///
/// ```
/// use kw_gpu_sim::MemoryTracker;
/// let mut mem = MemoryTracker::new(1 << 20);
/// let buf = mem.alloc(4096, "intermediate")?;
/// assert_eq!(mem.in_use(), 4096);
/// mem.free(buf)?;
/// assert_eq!(mem.in_use(), 0);
/// assert_eq!(mem.peak(), 4096);
/// # Ok::<(), kw_gpu_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct MemoryTracker {
    capacity: u64,
    next_id: u64,
    live: HashMap<u64, Allocation>,
    in_use: u64,
    peak: u64,
    total_allocated: u64,
    alloc_count: u64,
}

impl MemoryTracker {
    /// Create a tracker for a device with `capacity` bytes of global memory.
    pub fn new(capacity: u64) -> MemoryTracker {
        MemoryTracker {
            capacity,
            ..MemoryTracker::default()
        }
    }

    /// Allocate `bytes`, labelled for diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the allocation would exceed
    /// device capacity.
    pub fn alloc(&mut self, bytes: u64, label: impl Into<String>) -> Result<BufferId> {
        let free = self.capacity - self.in_use;
        if bytes > free {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                free,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(
            id,
            Allocation {
                bytes,
                label: label.into(),
            },
        );
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        self.total_allocated += bytes;
        self.alloc_count += 1;
        Ok(BufferId(id))
    }

    /// Free a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBuffer`] for unknown or double-freed ids.
    pub fn free(&mut self, id: BufferId) -> Result<()> {
        match self.live.remove(&id.0) {
            Some(a) => {
                self.in_use -= a.bytes;
                Ok(())
            }
            None => Err(SimError::InvalidBuffer { id: id.0 }),
        }
    }

    /// Size of a live buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBuffer`] for unknown ids.
    pub fn size_of(&self, id: BufferId) -> Result<u64> {
        self.live
            .get(&id.0)
            .map(|a| a.bytes)
            .ok_or(SimError::InvalidBuffer { id: id.0 })
    }

    /// Label of a live buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBuffer`] for unknown ids.
    pub fn label_of(&self, id: BufferId) -> Result<&str> {
        self.live
            .get(&id.0)
            .map(|a| a.label.as_str())
            .ok_or(SimError::InvalidBuffer { id: id.0 })
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark of concurrent allocation (the Figure 17 metric).
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Fold an externally-observed high-water mark into this tracker's
    /// peak. Chunked and batch execution hold working sets on forked
    /// scratch devices; the parent tracker must still report the true
    /// footprint (see [`crate::Device::absorb_scratch`]).
    pub(crate) fn raise_peak(&mut self, bytes: u64) {
        self.peak = self.peak.max(bytes);
    }

    /// Total bytes ever allocated (ignoring frees).
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Number of allocations performed.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of live buffers.
    pub fn live_buffers(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut m = MemoryTracker::new(1000);
        let a = m.alloc(400, "a").unwrap();
        let b = m.alloc(500, "b").unwrap();
        assert_eq!(m.in_use(), 900);
        assert_eq!(m.peak(), 900);
        m.free(a).unwrap();
        assert_eq!(m.in_use(), 500);
        let c = m.alloc(400, "c").unwrap();
        assert_eq!(m.peak(), 900);
        assert_eq!(m.total_allocated(), 1300);
        assert_eq!(m.alloc_count(), 3);
        m.free(b).unwrap();
        m.free(c).unwrap();
        assert_eq!(m.live_buffers(), 0);
    }

    #[test]
    fn capacity_enforced() {
        let mut m = MemoryTracker::new(100);
        let _a = m.alloc(80, "a").unwrap();
        assert_eq!(
            m.alloc(30, "b").unwrap_err(),
            SimError::OutOfMemory {
                requested: 30,
                free: 20
            }
        );
    }

    #[test]
    fn double_free_detected() {
        let mut m = MemoryTracker::new(100);
        let a = m.alloc(10, "a").unwrap();
        m.free(a).unwrap();
        assert!(m.free(a).is_err());
    }

    #[test]
    fn labels_and_sizes() {
        let mut m = MemoryTracker::new(100);
        let a = m.alloc(10, "intermediate").unwrap();
        assert_eq!(m.size_of(a).unwrap(), 10);
        assert_eq!(m.label_of(a).unwrap(), "intermediate");
    }
}
