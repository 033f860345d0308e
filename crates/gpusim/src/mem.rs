//! Device memory: capacity accounting and the coalescing model.
//!
//! Two concerns live here:
//!
//! 1. **Capacity** — `DeviceMemory` tracks allocations against the HBM
//!    size. The paper's multi-GPU load balancer treats HBM as the
//!    limiting resource (§IV-C); `logan-core` sizes its batches with
//!    these errors.
//! 2. **Coalescing** — [`AccessPattern`] models how a warp's 32 lane
//!    accesses turn into 32-byte HBM sectors. Reading a sequence
//!    *backwards* makes each lane touch its own sector (paper Fig. 6);
//!    LOGAN's host-side reversal restores unit-stride access. The
//!    effective-traffic ratio between the two patterns is what the
//!    `reversal` ablation bench measures.

use std::fmt;

/// HBM sector size in bytes (V100 L2 sector).
pub(crate) const SECTOR_BYTES: u64 = 32;

/// How a warp's lanes address memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Consecutive lanes touch consecutive addresses: a full warp of
    /// 4-byte words needs 128 bytes = 4 sectors.
    Coalesced,
    /// Lanes stride apart (e.g. reading a sequence in reverse while the
    /// partner advances forward): every element drags in its own sector.
    Strided,
}

impl AccessPattern {
    /// Effective HBM traffic for `bytes` of payload accessed with this
    /// pattern, assuming 1-byte-per-lane granularity for sequence chars
    /// and 4-byte words for scores (the worst case is per-element
    /// sectors either way).
    pub(crate) fn effective_bytes(self, bytes: u64, element_size: u64) -> u64 {
        assert!(element_size > 0, "element size must be positive");
        match self {
            AccessPattern::Coalesced => {
                // Round up to whole sectors.
                bytes.div_ceil(SECTOR_BYTES) * SECTOR_BYTES
            }
            AccessPattern::Strided => {
                // One sector per element.
                (bytes / element_size).max(1) * SECTOR_BYTES
            }
        }
    }

    /// Number of 32-byte transactions for the payload.
    pub(crate) fn transactions(self, bytes: u64, element_size: u64) -> u64 {
        self.effective_bytes(bytes, element_size) / SECTOR_BYTES
    }
}

/// Error returned when a device allocation exceeds capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes free at the time of the request.
    pub free: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Bump-style capacity tracker for a device's HBM.
#[derive(Debug, Clone)]
pub(crate) struct DeviceMemory {
    capacity: u64,
    used: u64,
}

impl DeviceMemory {
    /// A tracker for `capacity` bytes.
    pub(crate) fn new(capacity: u64) -> DeviceMemory {
        DeviceMemory { capacity, used: 0 }
    }

    /// Reserve `bytes`; fails when capacity would be exceeded.
    pub(crate) fn alloc(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        let free = self.capacity - self.used;
        if bytes > free {
            return Err(OutOfMemory {
                requested: bytes,
                free,
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Release `bytes`. Panics on over-free (a logic error in the host
    /// code, never a data condition).
    pub(crate) fn free(&mut self, bytes: u64) {
        assert!(bytes <= self.used, "over-free: {} > {}", bytes, self.used);
        self.used -= bytes;
    }

    /// Bytes currently allocated.
    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub(crate) fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_rounds_to_sectors() {
        let p = AccessPattern::Coalesced;
        assert_eq!(p.effective_bytes(128, 4), 128);
        assert_eq!(p.effective_bytes(1, 1), 32);
        assert_eq!(p.effective_bytes(33, 1), 64);
        assert_eq!(p.transactions(128, 4), 4);
    }

    #[test]
    fn strided_pays_sector_per_element() {
        let p = AccessPattern::Strided;
        // 32 4-byte words: coalesced = 4 sectors, strided = 32 sectors.
        assert_eq!(p.effective_bytes(128, 4), 32 * 32);
        assert_eq!(p.transactions(128, 4), 32);
        // The 8x ratio is the Fig. 6 reversal penalty for words.
        assert_eq!(
            p.effective_bytes(128, 4) / AccessPattern::Coalesced.effective_bytes(128, 4),
            8
        );
    }

    #[test]
    fn strided_bytes_for_chars() {
        // 32 single-byte chars: coalesced = 1 sector, strided = 32.
        assert_eq!(AccessPattern::Coalesced.effective_bytes(32, 1), 32);
        assert_eq!(AccessPattern::Strided.effective_bytes(32, 1), 1024);
    }

    #[test]
    fn memory_alloc_free_cycle() {
        let mut m = DeviceMemory::new(1000);
        m.alloc(400).unwrap();
        m.alloc(600).unwrap();
        assert_eq!(m.free_bytes(), 0);
        let err = m.alloc(1).unwrap_err();
        assert_eq!(err.requested, 1);
        assert_eq!(err.free, 0);
        m.free(500);
        assert_eq!(m.used(), 500);
        m.alloc(100).unwrap();
    }

    #[test]
    #[should_panic(expected = "over-free")]
    fn over_free_panics() {
        let mut m = DeviceMemory::new(10);
        m.free(1);
    }

    #[test]
    fn oom_error_message() {
        let e = OutOfMemory {
            requested: 10,
            free: 5,
        };
        assert!(e.to_string().contains("requested 10"));
    }
}
