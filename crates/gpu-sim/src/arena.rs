//! Device-side scratch arena: a bump/freelist sub-allocator carved from
//! one upfront [`MemoryTracker`](crate::MemoryTracker) reservation.
//!
//! The executor's per-step `alloc`/`free` round-trips show up as
//! O(steps × chunks) alloc/free spans in every trace, and each one is a
//! chance for a mid-plan OOM the admission predictor never signed off on.
//! An arena inverts the contract: the plan's *predicted* peak is reserved
//! once up front (one `Alloc` span), every input/staging/scratch/result
//! buffer is a span-free sub-allocation inside that reservation, and the
//! whole thing is returned with one `Free` span. A sub-allocation that does
//! not fit is a typed [`SimError::ArenaOverflow`] at the exact request that
//! exceeded the envelope. kw-core's executor answers it with a spill, a
//! real device allocation counted in `kw_arena_spills_total`, so the run
//! completes and no run returns the error.
//!
//! The allocator is split in two layers:
//!
//! * [`ArenaLayout`] — the pure-accounting bump + first-fit-freelist
//!   policy, usable with an unbounded capacity as a *planner*: the
//!   admission predictor replays the executor's exact acquire/release
//!   schedule through an unbounded layout and reads the high-water mark
//!   off it, so the predicted peak and the executor's real footprint are
//!   the same computation by construction.
//! * [`ScratchArena`] — an [`ArenaLayout`] bound to a real backing
//!   [`BufferId`] on a device (see [`Device::create_arena`] /
//!   [`Device::release_arena`](crate::Device::release_arena)).
//!
//! Offsets are byte-granular: the simulator only accounts bytes, so there
//! is no alignment to model. `reset` rewinds the whole layout between
//! chunk iterations while preserving the high-water mark, which is how one
//! arena serves every chunk of an out-of-core run.
//!
//! [`Device::create_arena`]: crate::Device::create_arena
//!
//! # Examples
//!
//! ```
//! use kw_gpu_sim::ArenaLayout;
//!
//! let mut layout = ArenaLayout::bounded(1024);
//! let a = layout.acquire(512)?;
//! let b = layout.acquire(256)?;
//! layout.release(a)?;
//! // First fit reuses the freed range before growing the extent.
//! let c = layout.acquire(128)?;
//! assert_eq!(layout.high_water(), 768);
//! layout.release(b)?;
//! layout.release(c)?;
//! assert_eq!(layout.in_use(), 0);
//! # Ok::<(), kw_gpu_sim::SimError>(())
//! ```

use std::collections::HashMap;

use crate::error::{Result, SimError};
use crate::memory::BufferId;

/// A sub-allocation inside an arena: a handle, not a device buffer.
///
/// Slices emit no trace spans and never touch the device's
/// [`MemoryTracker`](crate::MemoryTracker) — the arena's single backing
/// reservation already accounts for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaSlice {
    slot: u64,
    bytes: u64,
}

impl ArenaSlice {
    /// Size of this sub-allocation in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Point-in-time snapshot of an arena's accounting, reported by
/// [`Device::release_arena`](crate::Device::release_arena) and surfaced on
/// execution reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Bytes of the single upfront backing reservation.
    pub reservation: u64,
    /// Peak byte extent the layout ever reached (never exceeds
    /// `reservation` for a bounded arena).
    pub high_water: u64,
    /// Total sub-allocations served over the arena's lifetime.
    pub sub_allocs: u64,
    /// `reset()` calls over the arena's lifetime (one per chunk iteration
    /// in out-of-core runs).
    pub resets: u64,
}

/// The bump + first-fit-freelist allocation policy, as pure accounting.
///
/// Used bounded (backing a [`ScratchArena`]) or unbounded (as the
/// admission predictor's planner). The policy is deterministic: replaying
/// the same acquire/release sequence always produces the same offsets and
/// the same high-water mark, which is what lets the predictor and the
/// executor share it.
#[derive(Debug, Clone)]
pub struct ArenaLayout {
    capacity: u64,
    /// Bump cursor: the byte extent of the allocated region.
    cursor: u64,
    /// Freed ranges below the cursor, sorted by offset, adjacent ranges
    /// coalesced.
    free_blocks: Vec<(u64, u64)>,
    /// Live sub-allocations: slot id -> (offset, bytes).
    live: HashMap<u64, (u64, u64)>,
    next_slot: u64,
    in_use: u64,
    high_water: u64,
    sub_allocs: u64,
    resets: u64,
}

impl ArenaLayout {
    /// A layout that refuses to grow past `capacity` bytes.
    pub fn bounded(capacity: u64) -> Self {
        ArenaLayout {
            capacity,
            cursor: 0,
            free_blocks: Vec::new(),
            live: HashMap::new(),
            next_slot: 0,
            in_use: 0,
            high_water: 0,
            sub_allocs: 0,
            resets: 0,
        }
    }

    /// An unbounded planning layout: replay a schedule through it and read
    /// [`ArenaLayout::high_water`] to learn the reservation that schedule
    /// needs.
    pub fn planner() -> Self {
        Self::bounded(u64::MAX)
    }

    /// Sub-allocate `bytes`, reusing the first freed range that fits
    /// before growing the extent.
    ///
    /// # Errors
    ///
    /// [`SimError::ArenaOverflow`] when no freed range fits and growing
    /// the extent would exceed the capacity.
    pub fn acquire(&mut self, bytes: u64) -> Result<ArenaSlice> {
        let offset = if bytes == 0 {
            self.cursor
        } else if let Some(i) = self.free_blocks.iter().position(|&(_, sz)| sz >= bytes) {
            let (off, sz) = self.free_blocks[i];
            if sz == bytes {
                self.free_blocks.remove(i);
            } else {
                self.free_blocks[i] = (off + bytes, sz - bytes);
            }
            off
        } else {
            let off = self.cursor;
            let grown = off.checked_add(bytes).ok_or(SimError::ArenaOverflow {
                requested: bytes,
                free: self.capacity - self.in_use,
                reservation: self.capacity,
            })?;
            if grown > self.capacity {
                return Err(SimError::ArenaOverflow {
                    requested: bytes,
                    free: self.capacity - self.in_use,
                    reservation: self.capacity,
                });
            }
            self.cursor = grown;
            off
        };
        self.in_use += bytes;
        self.high_water = self.high_water.max(self.cursor);
        self.sub_allocs += 1;
        let slot = self.next_slot;
        self.next_slot += 1;
        self.live.insert(slot, (offset, bytes));
        Ok(ArenaSlice { slot, bytes })
    }

    /// Return a sub-allocation to the arena, rolling the bump cursor back
    /// when the freed range (plus any trailing freed neighbours) ends at
    /// the extent, otherwise coalescing it into the freelist.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidBuffer`] when the slice was already released (or
    /// belongs to another arena generation after `reset`).
    pub fn release(&mut self, slice: ArenaSlice) -> Result<()> {
        let (offset, bytes) = self
            .live
            .remove(&slice.slot)
            .ok_or(SimError::InvalidBuffer { id: slice.slot })?;
        self.in_use -= bytes;
        if bytes == 0 {
            return Ok(());
        }
        if offset + bytes == self.cursor {
            self.cursor = offset;
            // Absorb any freed ranges that now end at the extent.
            while let Some(&(off, sz)) = self.free_blocks.last() {
                if off + sz == self.cursor {
                    self.cursor = off;
                    self.free_blocks.pop();
                } else {
                    break;
                }
            }
            return Ok(());
        }
        let i = self.free_blocks.partition_point(|&(off, _)| off < offset);
        self.free_blocks.insert(i, (offset, bytes));
        // Coalesce with the following block, then the preceding one.
        if i + 1 < self.free_blocks.len() {
            let (off, sz) = self.free_blocks[i];
            let (noff, nsz) = self.free_blocks[i + 1];
            if off + sz == noff {
                self.free_blocks[i] = (off, sz + nsz);
                self.free_blocks.remove(i + 1);
            }
        }
        if i > 0 {
            let (poff, psz) = self.free_blocks[i - 1];
            let (off, sz) = self.free_blocks[i];
            if poff + psz == off {
                self.free_blocks[i - 1] = (poff, psz + sz);
                self.free_blocks.remove(i);
            }
        }
        Ok(())
    }

    /// Rewind the whole layout — between chunk iterations — invalidating
    /// all live slices. The high-water mark and lifetime counters persist.
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.free_blocks.clear();
        self.live.clear();
        self.in_use = 0;
        self.resets += 1;
    }

    /// Bytes currently sub-allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Peak byte extent ever reached (what a bounded arena must reserve to
    /// replay the schedule seen so far).
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Capacity bound of this layout (`u64::MAX` for planners).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Live sub-allocation count.
    pub fn live_slices(&self) -> usize {
        self.live.len()
    }

    /// Total sub-allocations served.
    pub fn sub_allocs(&self) -> u64 {
        self.sub_allocs
    }

    /// `reset()` calls so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

/// An [`ArenaLayout`] bound to one backing device reservation.
///
/// Created by [`Device::create_arena`](crate::Device::create_arena) (one
/// `Alloc` span charges the whole reservation against the memory tracker)
/// and returned via
/// [`Device::release_arena`](crate::Device::release_arena) (one `Free`
/// span). Everything in between — `acquire`, `release`, `reset` — is pure
/// accounting with no spans and no tracker traffic, which is what drops a
/// fused plan's alloc/free span count to O(1).
#[derive(Debug)]
pub struct ScratchArena {
    backing: BufferId,
    layout: ArenaLayout,
}

impl ScratchArena {
    /// Bind `layout` to a backing buffer. Internal: use
    /// [`Device::create_arena`](crate::Device::create_arena).
    pub(crate) fn new(backing: BufferId, reservation: u64) -> Self {
        ScratchArena {
            backing,
            layout: ArenaLayout::bounded(reservation),
        }
    }

    /// The backing buffer id (consumed by
    /// [`Device::release_arena`](crate::Device::release_arena)).
    pub(crate) fn backing(&self) -> BufferId {
        self.backing
    }

    /// Sub-allocate `bytes` from the reservation.
    ///
    /// # Errors
    ///
    /// [`SimError::ArenaOverflow`] when the request exceeds what is left
    /// of the reservation — the loud form of an admission misprediction.
    pub fn acquire(&mut self, bytes: u64) -> Result<ArenaSlice> {
        self.layout.acquire(bytes)
    }

    /// Return a sub-allocation.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidBuffer`] on double release.
    pub fn release(&mut self, slice: ArenaSlice) -> Result<()> {
        self.layout.release(slice)
    }

    /// Rewind between chunk iterations; high-water mark persists.
    pub fn reset(&mut self) {
        self.layout.reset();
    }

    /// Bytes of the upfront reservation.
    pub fn reservation(&self) -> u64 {
        self.layout.capacity()
    }

    /// Bytes currently sub-allocated.
    pub fn in_use(&self) -> u64 {
        self.layout.in_use()
    }

    /// Peak byte extent reached so far — always `<= reservation()`.
    pub fn high_water(&self) -> u64 {
        self.layout.high_water()
    }

    /// Snapshot of the arena's accounting.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            reservation: self.layout.capacity(),
            high_water: self.layout.high_water(),
            sub_allocs: self.layout.sub_allocs(),
            resets: self.layout.resets(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_then_freelist_reuse() {
        let mut l = ArenaLayout::bounded(100);
        let a = l.acquire(40).unwrap();
        let b = l.acquire(30).unwrap();
        assert_eq!(l.high_water(), 70);
        l.release(a).unwrap();
        // First fit lands in the freed [0, 40) range, not at the cursor.
        let c = l.acquire(10).unwrap();
        assert_eq!(l.high_water(), 70, "reuse must not grow the extent");
        assert_eq!(l.in_use(), 40);
        l.release(b).unwrap();
        l.release(c).unwrap();
        assert_eq!(l.in_use(), 0);
    }

    #[test]
    fn tail_release_rolls_cursor_back() {
        let mut l = ArenaLayout::bounded(100);
        let a = l.acquire(40).unwrap();
        let b = l.acquire(30).unwrap();
        l.release(b).unwrap();
        // The extent rewinds, so the next acquire fits where b was.
        let c = l.acquire(60).unwrap();
        assert_eq!(l.high_water(), 100);
        l.release(c).unwrap();
        l.release(a).unwrap();
        // Releasing the base absorbs the trailing freelist into the bump
        // region: everything is reusable again.
        let d = l.acquire(100).unwrap();
        assert_eq!(l.high_water(), 100);
        l.release(d).unwrap();
    }

    #[test]
    fn coalescing_merges_adjacent_free_ranges() {
        let mut l = ArenaLayout::bounded(90);
        let a = l.acquire(30).unwrap();
        let b = l.acquire(30).unwrap();
        let c = l.acquire(30).unwrap();
        l.release(a).unwrap();
        l.release(b).unwrap(); // must merge with a's range
        let big = l.acquire(60).unwrap();
        assert_eq!(l.high_water(), 90, "coalesced range must satisfy 60B");
        l.release(big).unwrap();
        l.release(c).unwrap();
    }

    #[test]
    fn overflow_is_typed_and_capacity() {
        let mut l = ArenaLayout::bounded(50);
        let _a = l.acquire(40).unwrap();
        let err = l.acquire(20).unwrap_err();
        assert!(matches!(
            err,
            SimError::ArenaOverflow {
                requested: 20,
                free: 10,
                reservation: 50,
            }
        ));
        assert!(err.is_capacity());
        assert!(!err.is_transient());
    }

    #[test]
    fn double_release_is_invalid_buffer() {
        let mut l = ArenaLayout::bounded(10);
        let a = l.acquire(5).unwrap();
        l.release(a).unwrap();
        assert!(matches!(l.release(a), Err(SimError::InvalidBuffer { .. })));
    }

    #[test]
    fn reset_rewinds_but_high_water_persists() {
        let mut l = ArenaLayout::bounded(100);
        let _a = l.acquire(80).unwrap();
        l.reset();
        assert_eq!(l.in_use(), 0);
        assert_eq!(l.high_water(), 80);
        assert_eq!(l.resets(), 1);
        let b = l.acquire(100).unwrap();
        assert_eq!(l.high_water(), 100);
        l.release(b).unwrap();
    }

    #[test]
    fn zero_byte_acquires_are_free() {
        let mut l = ArenaLayout::bounded(0);
        let a = l.acquire(0).unwrap();
        assert_eq!(l.in_use(), 0);
        assert_eq!(l.high_water(), 0);
        l.release(a).unwrap();
    }

    #[test]
    fn planner_replay_matches_bounded_replay() {
        // The planner's high-water mark is exactly the reservation a
        // bounded layout needs to replay the same schedule.
        let schedule = |l: &mut ArenaLayout| -> Result<u64> {
            let a = l.acquire(64)?;
            let b = l.acquire(32)?;
            l.release(a)?;
            let c = l.acquire(16)?;
            let d = l.acquire(64)?;
            l.release(b)?;
            l.release(c)?;
            l.release(d)?;
            Ok(l.high_water())
        };
        let mut plan = ArenaLayout::planner();
        let predicted = schedule(&mut plan).unwrap();
        let mut real = ArenaLayout::bounded(predicted);
        let measured = schedule(&mut real).unwrap();
        assert_eq!(predicted, measured);
        // One byte less and the same schedule overflows loudly.
        let mut tight = ArenaLayout::bounded(predicted - 1);
        assert!(matches!(
            schedule(&mut tight),
            Err(SimError::ArenaOverflow { .. })
        ));
    }
}
