//! The memory interface the CPU executes against.

use std::fmt;

use crate::cpu::CpuFault;
use crate::isa::Inst;

/// A faulting guest memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The virtual address that faulted.
    pub addr: u64,
    /// Whether the access was a write.
    pub write: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault on {} at {:#x}",
            if self.write { "write" } else { "read" },
            self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// Byte-addressed guest memory.
///
/// Implemented by the simulated OS's per-process address space; a flat
/// test implementation is provided as [`FlatMem`].
pub trait Memory {
    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if any byte of the range is not readable.
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault>;

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if any byte of the range is not writable.
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault>;

    /// Fetches and decodes the instruction at `pc`.
    ///
    /// The default loads the 16 encoded bytes and decodes them on every
    /// call; it is the reference an implementation that caches decoded
    /// instructions must agree with, fault for fault.
    ///
    /// # Errors
    ///
    /// [`CpuFault::Mem`] if the bytes are not readable,
    /// [`CpuFault::BadInstruction`] if they do not decode.
    fn fetch(&mut self, pc: u64) -> Result<Inst, CpuFault> {
        load_and_decode(self, pc)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Propagates the fault from [`Memory::load`].
    fn load_u64(&mut self, addr: u64) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.load(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Propagates the fault from [`Memory::store`].
    fn store_u64(&mut self, addr: u64, value: u64) -> Result<(), MemFault> {
        self.store(addr, &value.to_le_bytes())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Propagates the fault from [`Memory::load`].
    fn load_u8(&mut self, addr: u64) -> Result<u8, MemFault> {
        let mut b = [0u8; 1];
        self.load(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Propagates the fault from [`Memory::store`].
    fn store_u8(&mut self, addr: u64, value: u8) -> Result<(), MemFault> {
        self.store(addr, &[value])
    }
}

/// The reference instruction fetch: loads the 16 bytes at `pc` and
/// decodes them. [`Memory::fetch`]'s default body, and the fallback of any
/// override for the accesses its fast path does not serve.
///
/// # Errors
///
/// As [`Memory::fetch`].
pub fn load_and_decode<M: Memory + ?Sized>(mem: &mut M, pc: u64) -> Result<Inst, CpuFault> {
    let mut raw = [0u8; 16];
    mem.load(pc, &mut raw)?;
    Inst::decode(&raw).map_err(|e| CpuFault::BadInstruction {
        pc,
        opcode: e.opcode,
    })
}

/// A simple contiguous memory starting at address zero.
///
/// Useful for unit tests and for assembling programs before loading them into
/// a real address space.
///
/// # Examples
///
/// ```
/// use simcpu::mem::{FlatMem, Memory};
///
/// let mut m = FlatMem::new(64);
/// m.store_u64(8, 0xdead_beef).unwrap();
/// assert_eq!(m.load_u64(8).unwrap(), 0xdead_beef);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatMem {
    bytes: Vec<u8>,
}

impl FlatMem {
    /// Creates a zero-filled memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        FlatMem {
            bytes: vec![0; size],
        }
    }

    /// Returns the size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns true if the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Returns the raw contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Memory for FlatMem {
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let start = addr as usize;
        let end = start.checked_add(buf.len());
        match end {
            Some(end) if end <= self.bytes.len() => {
                buf.copy_from_slice(&self.bytes[start..end]);
                Ok(())
            }
            _ => Err(MemFault { addr, write: false }),
        }
    }

    fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        let start = addr as usize;
        let end = start.checked_add(data.len());
        match end {
            Some(end) if end <= self.bytes.len() => {
                self.bytes[start..end].copy_from_slice(data);
                Ok(())
            }
            _ => Err(MemFault { addr, write: true }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_mem_bounds_checked() {
        let mut m = FlatMem::new(16);
        assert!(m.store_u64(8, 1).is_ok());
        assert_eq!(
            m.store_u64(9, 1),
            Err(MemFault {
                addr: 9,
                write: true
            })
        );
        assert_eq!(
            m.load_u64(9),
            Err(MemFault {
                addr: 9,
                write: false
            })
        );
    }

    #[test]
    fn byte_access() {
        let mut m = FlatMem::new(4);
        m.store_u8(3, 0xab).unwrap();
        assert_eq!(m.load_u8(3).unwrap(), 0xab);
        assert_eq!(m.as_bytes(), &[0, 0, 0, 0xab]);
    }

    #[test]
    fn fault_display() {
        let f = MemFault {
            addr: 0x20,
            write: true,
        };
        assert_eq!(f.to_string(), "memory fault on write at 0x20");
    }
}
