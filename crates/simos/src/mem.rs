//! Per-process virtual memory: mapped areas backed by sparse 4 KiB pages.
//!
//! The address space is the bulk of a checkpoint image. As in the paper,
//! only the non-zero pages are saved: untouched demand-zero pages cost
//! nothing on disk and are recreated implicitly at restore.
//!
//! The address space is also what the guest CPU executes against, so
//! fetch, load and store are the interpreter's hot path. An access that
//! stays inside one page finds its area and its page through remembered
//! indices, with no allocation and no map lookup when the hints hit.
//! Aligned fetches from private pages are served from a per-page table of
//! decoded instructions. The tables and the hints are host-side derived
//! state: they are never captured, encoded or digested, and any write into
//! a page drops that page's table.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use simcpu::cpu::CpuFault;
use simcpu::isa::{Inst, INST_SIZE};
use simcpu::mem::{load_and_decode, MemFault, Memory};

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Decoded-instruction slots per page: one per 16-byte-aligned `pc`.
const SLOTS: usize = (PAGE_SIZE / INST_SIZE) as usize;

/// Hint slots: fetches and data accesses keep separate hints, so an
/// instruction stream touching data does not evict its own text page.
const FETCH: usize = 0;
const DATA: usize = 1;

/// Where the last access of one kind landed: indices into
/// `AddressSpace::areas` and `AddressSpace::frames`.
#[derive(Debug, Clone, Copy, Default)]
struct Hint {
    area: usize,
    frame: usize,
}

/// One resident private page.
#[derive(Debug, Clone)]
struct Page {
    /// Page-aligned address, which also validates a frame hint.
    addr: u64,
    bytes: Box<[u8]>,
    /// Written since the last [`AddressSpace::clear_dirty`].
    dirty: bool,
    /// Instructions decoded from `bytes`, one slot per aligned `pc`,
    /// filled on first fetch; undecodable bytes are never stored. Dropped
    /// by every write ([`AddressSpace::page_mut`]).
    decoded: Option<Box<[Option<Inst>; SLOTS]>>,
}

/// What backs a mapped area.
#[derive(Debug, Clone)]
pub enum AreaBacking {
    /// Private demand-zero pages.
    Private,
    /// A System-V shared-memory segment, shared between processes.
    Shared(SharedSeg),
}

/// A shared-memory segment handle (contents shared by all attachments).
#[derive(Debug, Clone)]
pub struct SharedSeg {
    /// Segment id, as returned by `shmget`.
    pub id: u64,
    /// The shared bytes.
    pub data: Rc<RefCell<Vec<u8>>>,
}

impl SharedSeg {
    /// Creates a zero-filled segment.
    pub fn new(id: u64, size: usize) -> Self {
        SharedSeg {
            id,
            data: Rc::new(RefCell::new(vec![0; size])),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    /// Returns true for an empty segment.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A mapped region of the address space.
#[derive(Debug, Clone)]
pub struct VmArea {
    /// First byte address (page aligned).
    pub start: u64,
    /// Length in bytes (page aligned).
    pub len: u64,
    /// Backing store.
    pub backing: AreaBacking,
    /// Human-readable tag (`text`, `data`, `stack`, `heap`, `shm`).
    pub tag: String,
}

impl VmArea {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// True if `addr` falls inside the area.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }
}

/// A process address space.
///
/// # Examples
///
/// ```
/// use simos::mem::AddressSpace;
/// use simcpu::mem::Memory;
///
/// let mut space = AddressSpace::new();
/// space.map(0x1000, 0x2000, "data").unwrap();
/// space.store_u64(0x1008, 42).unwrap();
/// assert_eq!(space.load_u64(0x1008).unwrap(), 42);
/// assert!(space.load_u64(0x5000).is_err(), "unmapped access faults");
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    areas: Vec<VmArea>,
    /// Private pages, in no particular order; indexed by `pages`.
    frames: Vec<Page>,
    /// Index into `frames` by page-aligned address, in address order.
    pages: BTreeMap<u64, usize>,
    /// An armed copy-on-write snapshot, if a checkpoint drain is pending.
    cow: Option<CowSnapshot>,
    /// The last fetch ([`FETCH`]) and the last data access ([`DATA`]).
    /// Only hints: every use re-checks the area with [`VmArea::contains`]
    /// and the frame by its address, so `map`, `unmap` and a frame moved
    /// by `unmap` can never leave one stale.
    hint: [Hint; 2],
}

/// The state of one armed copy-on-write snapshot: everything needed to
/// reconstruct the private pages exactly as they were at
/// [`AddressSpace::cow_arm`] time, while the owning process keeps writing.
///
/// Arming is O(dirty set): no page is copied up front. The first
/// post-arm write to a page preserves its pre-image here (the write-protect
/// fault of a real COW implementation); pages never written again are read
/// straight from the live page table at drain time.
#[derive(Debug, Clone)]
struct CowSnapshot {
    /// Pre-images of pages mutated (or dropped) since arm. `Some(page)` is
    /// the page's contents at arm time; `None` records that the page was
    /// not resident (demand-zero) at arm time and must not appear in the
    /// snapshot even though it is resident now.
    preserved: BTreeMap<u64, Option<Box<[u8]>>>,
    /// Bytes of pre-image copies forced by post-arm writes — the extra
    /// copy cost COW trades for a short freeze.
    copied_bytes: u64,
}

/// Error mapping a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The requested range overlaps an existing area.
    Overlap,
    /// Start or length is not page aligned, or length is zero.
    BadAlignment,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Overlap => write!(f, "mapping overlaps an existing area"),
            MapError::BadAlignment => write!(f, "mapping not page aligned or empty"),
        }
    }
}

impl std::error::Error for MapError {}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a private demand-zero area.
    ///
    /// # Errors
    ///
    /// [`MapError`] on misalignment or overlap with an existing area.
    pub fn map(&mut self, start: u64, len: u64, tag: &str) -> Result<(), MapError> {
        self.map_area(start, len, AreaBacking::Private, tag)
    }

    /// Maps a shared segment at `start`.
    ///
    /// # Errors
    ///
    /// [`MapError`] on misalignment or overlap.
    pub fn map_shared(&mut self, start: u64, seg: SharedSeg, tag: &str) -> Result<(), MapError> {
        let len = (seg.len() as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.map_area(start, len, AreaBacking::Shared(seg), tag)
    }

    fn map_area(
        &mut self,
        start: u64,
        len: u64,
        backing: AreaBacking,
        tag: &str,
    ) -> Result<(), MapError> {
        if len == 0 || !start.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::BadAlignment);
        }
        let end = start + len;
        if self.areas.iter().any(|a| start < a.end() && a.start < end) {
            return Err(MapError::Overlap);
        }
        self.areas.push(VmArea {
            start,
            len,
            backing,
            tag: tag.to_owned(),
        });
        self.areas.sort_by_key(|a| a.start);
        Ok(())
    }

    /// Unmaps the area starting at `start`, dropping its private pages.
    /// Returns true if an area was removed.
    pub fn unmap(&mut self, start: u64) -> bool {
        let Some(pos) = self.areas.iter().position(|a| a.start == start) else {
            return false;
        };
        let area = self.areas.remove(pos);
        let keys: Vec<u64> = self
            .pages
            .range(area.start..area.end())
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.cow_preserve(k);
            if let Some(i) = self.pages.remove(&k) {
                self.frames.swap_remove(i);
                if let Some(moved) = self.frames.get(i) {
                    self.pages.insert(moved.addr, i);
                }
            }
        }
        true
    }

    /// The mapped areas, sorted by start address.
    pub fn areas(&self) -> &[VmArea] {
        &self.areas
    }

    /// Finds the area containing `addr`.
    pub fn area_for(&self, addr: u64) -> Option<&VmArea> {
        self.areas.iter().find(|a| a.contains(addr))
    }

    /// Iterates over the resident private pages (page address, contents),
    /// skipping pages that are entirely zero — the checkpoint's page set.
    pub fn nonzero_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages
            .values()
            .map(|&i| &self.frames[i])
            .filter(|p| p.bytes.iter().any(|&b| b != 0))
            .map(|p| (p.addr, &p.bytes[..]))
    }

    /// Number of resident private pages (zero or not).
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Installs page contents directly (used by program loading and restore).
    ///
    /// # Panics
    ///
    /// Panics if `page_addr` is not page aligned or `data` is longer than a
    /// page.
    pub fn install_page(&mut self, page_addr: u64, data: &[u8]) {
        assert_eq!(page_addr % PAGE_SIZE, 0, "page address must be aligned");
        assert!(data.len() <= PAGE_SIZE as usize, "page data too long");
        let page = self.page_mut(page_addr);
        page[..data.len()].copy_from_slice(data);
        page[data.len()..].fill(0);
    }

    /// Number of dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.frames.iter().filter(|p| p.dirty).count()
    }

    /// Addresses of the resident pages written since the last
    /// [`AddressSpace::clear_dirty`] — the set the capture path's
    /// page-digest cache keys its clean-page reuse on.
    pub fn dirty_set(&self) -> BTreeSet<u64> {
        self.frames
            .iter()
            .filter(|p| p.dirty)
            .map(|p| p.addr)
            .collect()
    }

    /// Resets dirty tracking (called when a checkpoint captures the space).
    pub fn clear_dirty(&mut self) {
        for page in &mut self.frames {
            page.dirty = false;
        }
    }

    /// Bulk-writes `data` at `addr` ignoring area bounds checks per byte
    /// (still requires the whole range to be mapped). Convenience for
    /// loaders.
    ///
    /// # Errors
    ///
    /// Returns the fault of the first unmapped byte.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.store(addr, data)
    }

    /// Reads `len` bytes at `addr` into a fresh buffer.
    ///
    /// # Errors
    ///
    /// Returns the fault of the first unmapped byte.
    pub fn read_bytes(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut buf = vec![0u8; len];
        self.load(addr, &mut buf)?;
        Ok(buf)
    }

    /// Total mapped bytes across areas.
    pub fn mapped_bytes(&self) -> u64 {
        self.areas.iter().map(|a| a.len).sum()
    }

    // ---- copy-on-write snapshots ---------------------------------------

    /// Arms a copy-on-write snapshot of the private pages: cheap
    /// (no page is copied), equivalent to write-protecting every page. From
    /// now until [`AddressSpace::cow_disarm`], the first write to any page
    /// preserves its pre-image, so the drain methods below reconstruct the
    /// pages exactly as they are at this instant — however long the owner
    /// keeps executing in between.
    ///
    /// Only private pages are covered: shared segments ([`SharedSeg`]) are
    /// kernel objects visible to other processes and must be captured
    /// eagerly while the whole pod is frozen. Re-arming replaces any
    /// previous snapshot.
    pub fn cow_arm(&mut self) {
        self.cow = Some(CowSnapshot {
            preserved: BTreeMap::new(),
            copied_bytes: 0,
        });
    }

    /// True while a snapshot is armed.
    pub fn cow_armed(&self) -> bool {
        self.cow.is_some()
    }

    /// Bytes of pre-image copies the armed snapshot has accumulated.
    pub fn cow_copied_bytes(&self) -> u64 {
        self.cow.as_ref().map(|c| c.copied_bytes).unwrap_or(0)
    }

    /// Drops the armed snapshot (drain complete, or checkpoint aborted),
    /// returning the pre-image copy bytes it accumulated.
    pub fn cow_disarm(&mut self) -> u64 {
        self.cow.take().map(|c| c.copied_bytes).unwrap_or(0)
    }

    /// The snapshot's view of one page: the preserved pre-image if the
    /// page was written since arm, the live page otherwise.
    fn cow_page_at_arm(&self, addr: u64) -> Option<&[u8]> {
        let snap = self.cow.as_ref()?;
        match snap.preserved.get(&addr) {
            Some(Some(pre)) => Some(&pre[..]),
            Some(None) => None, // not resident at arm time
            None => self.pages.get(&addr).map(|&i| &self.frames[i].bytes[..]),
        }
    }

    /// Every page address the snapshot may contain: live pages plus
    /// preserved pre-images (a page unmapped since arm is only in the
    /// latter).
    fn cow_candidate_addrs(&self) -> Vec<u64> {
        let Some(snap) = self.cow.as_ref() else {
            return Vec::new();
        };
        let mut addrs: Vec<u64> = self.pages.keys().copied().collect();
        addrs.extend(snap.preserved.keys().copied());
        addrs.sort_unstable();
        addrs.dedup();
        addrs
    }

    /// Drains the non-zero pages as of arm time — the full-image
    /// counterpart of [`AddressSpace::nonzero_pages`]. The snapshot stays
    /// armed; call [`AddressSpace::cow_disarm`] when done with it.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot is armed.
    pub fn cow_snapshot_pages(&self) -> Vec<(u64, Vec<u8>)> {
        assert!(self.cow.is_some(), "no armed snapshot to drain");
        self.cow_candidate_addrs()
            .into_iter()
            .filter_map(|a| self.cow_page_at_arm(a).map(|p| (a, p)))
            .filter(|(_, p)| p.iter().any(|&b| b != 0))
            .map(|(a, p)| (a, p.to_vec()))
            .collect()
    }

    /// Payload bytes a drain will produce, without materializing any
    /// copy — what the checkpoint scheduler needs at arm time to plan the
    /// background encode.
    pub fn cow_pending_bytes(&self) -> u64 {
        if self.cow.is_none() {
            return 0;
        }
        self.cow_candidate_addrs()
            .into_iter()
            .filter_map(|a| self.cow_page_at_arm(a))
            .filter(|p| p.iter().any(|&b| b != 0))
            .count() as u64
            * PAGE_SIZE
    }

    /// Preserves a page's pre-image before its first post-arm mutation
    /// (the write-protect fault handler of a real COW implementation).
    fn cow_preserve(&mut self, page_addr: u64) {
        let Some(snap) = self.cow.as_mut() else {
            return;
        };
        if snap.preserved.contains_key(&page_addr) {
            return; // already preserved by an earlier write
        }
        let pre = self
            .pages
            .get(&page_addr)
            .map(|&i| self.frames[i].bytes.clone());
        if pre.is_some() {
            snap.copied_bytes += PAGE_SIZE;
        }
        snap.preserved.insert(page_addr, pre);
    }

    /// The private page at `page_addr` for writing, created demand-zero.
    /// Every write into a private page goes through here, so none can skip
    /// what a write implies: the COW pre-image is preserved, the dirty bit
    /// is set and the page's decoded instructions are dropped.
    #[inline]
    fn page_mut(&mut self, page_addr: u64) -> &mut [u8] {
        self.cow_preserve(page_addr);
        let i = match self.frame_index(page_addr, DATA) {
            Some(i) => i,
            None => {
                self.frames.push(Page {
                    addr: page_addr,
                    bytes: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
                    dirty: false,
                    decoded: None,
                });
                self.pages.insert(page_addr, self.frames.len() - 1);
                self.frames.len() - 1
            }
        };
        let page = &mut self.frames[i];
        page.dirty = true;
        page.decoded = None;
        &mut page.bytes
    }

    /// The index of the area containing `addr`, trying the `kind` hint
    /// before scanning.
    #[inline]
    fn area_index(&mut self, addr: u64, kind: usize) -> Option<usize> {
        let hint = self.hint[kind].area;
        if self.areas.get(hint).is_some_and(|a| a.contains(addr)) {
            return Some(hint);
        }
        let i = self.areas.iter().position(|a| a.contains(addr))?;
        self.hint[kind].area = i;
        Some(i)
    }

    /// The frame of the resident page at `page_addr`, trying the `kind`
    /// hint before the index.
    #[inline]
    fn frame_index(&mut self, page_addr: u64, kind: usize) -> Option<usize> {
        let hint = self.hint[kind].frame;
        if self.frames.get(hint).is_some_and(|p| p.addr == page_addr) {
            return Some(hint);
        }
        let i = *self.pages.get(&page_addr)?;
        self.hint[kind].frame = i;
        Some(i)
    }

    /// The area of a mapped access of `len` bytes at `addr` that stays
    /// inside one page, and so inside one area (areas are page aligned).
    /// `None` for a multi-page or unmapped access.
    #[inline]
    fn single_page(&mut self, addr: u64, len: usize, kind: usize) -> Option<usize> {
        if len as u64 > PAGE_SIZE - (addr & (PAGE_SIZE - 1)) {
            return None;
        }
        self.area_index(addr, kind)
    }

    /// Copies the bytes at `a`, inside area `i` and one page, into `out`.
    #[inline]
    fn read_piece(&mut self, i: usize, a: u64, out: &mut [u8]) {
        let area = &self.areas[i];
        match &area.backing {
            AreaBacking::Private => {
                let page_addr = a & !(PAGE_SIZE - 1);
                match self.frame_index(page_addr, DATA) {
                    Some(f) => {
                        let off = (a - page_addr) as usize;
                        out.copy_from_slice(&self.frames[f].bytes[off..off + out.len()]);
                    }
                    None => out.fill(0), // demand-zero
                }
            }
            AreaBacking::Shared(seg) => {
                // The mapping is rounded up to whole pages; bytes past the
                // segment's end read as zero.
                let data = seg.data.borrow();
                let rel = ((a - area.start) as usize).min(data.len());
                let take = out.len().min(data.len() - rel);
                out[..take].copy_from_slice(&data[rel..rel + take]);
                out[take..].fill(0);
            }
        }
    }

    /// Copies `src` to `a`, inside area `i` and one page.
    #[inline]
    fn write_piece(&mut self, i: usize, a: u64, src: &[u8]) {
        let area = &self.areas[i];
        if let AreaBacking::Shared(seg) = &area.backing {
            // Writes past the segment's end are dropped.
            let mut data = seg.data.borrow_mut();
            let rel = ((a - area.start) as usize).min(data.len());
            let take = src.len().min(data.len() - rel);
            data[rel..rel + take].copy_from_slice(&src[..take]);
            return;
        }
        let page_addr = a & !(PAGE_SIZE - 1);
        let off = (a - page_addr) as usize;
        self.page_mut(page_addr)[off..off + src.len()].copy_from_slice(src);
    }

    /// Performs an access of `len` bytes at `addr` that may span pages and
    /// areas. The whole range is validated first, so a faulting access has
    /// no partial effect; then `f(space, area index, address, range of the
    /// caller's buffer)` runs once per page piece.
    fn walk<F>(&mut self, addr: u64, len: usize, write: bool, mut f: F) -> Result<(), MemFault>
    where
        F: FnMut(&mut AddressSpace, usize, u64, Range<usize>),
    {
        let end = addr
            .checked_add(len as u64)
            .ok_or(MemFault { addr, write })?;
        let mut cursor = addr;
        while cursor < end {
            let i = self.area_index(cursor, DATA).ok_or(MemFault {
                addr: cursor,
                write,
            })?;
            cursor = self.areas[i].end().min(end);
        }
        let mut off = 0usize;
        while off < len {
            let a = addr + off as u64;
            let chunk = ((PAGE_SIZE - (a & (PAGE_SIZE - 1))) as usize).min(len - off);
            let i = self.area_index(a, DATA).expect("range validated above");
            f(self, i, a, off..off + chunk);
            off += chunk;
        }
        Ok(())
    }

    /// The decoded-instruction cache: an aligned fetch from a resident
    /// private page decodes its slot once and is served from the table
    /// after that. `None` sends the fetch down the reference path, which is
    /// how unaligned `pc`s, demand-zero pages and undecodable bytes are
    /// handled, and how shared-segment code stays uncached (another process
    /// can rewrite it through its own mapping).
    #[inline]
    fn fetch_cached(&mut self, pc: u64) -> Option<Inst> {
        // An aligned instruction never straddles a page.
        if !pc.is_multiple_of(INST_SIZE) {
            return None;
        }
        let i = self.area_index(pc, FETCH)?;
        if !matches!(self.areas[i].backing, AreaBacking::Private) {
            return None;
        }
        let page_addr = pc & !(PAGE_SIZE - 1);
        let f = self.frame_index(page_addr, FETCH)?;
        let slot = ((pc - page_addr) / INST_SIZE) as usize;
        let page = &mut self.frames[f];
        if let Some(inst) = page.decoded.as_ref().and_then(|t| t[slot]) {
            return Some(inst);
        }
        page.decode_slot(slot)
    }
}

impl Page {
    /// Decodes one instruction slot into the page's table, creating the
    /// table on the page's first fetch. `None` for undecodable bytes,
    /// which are never stored.
    #[cold]
    fn decode_slot(&mut self, slot: usize) -> Option<Inst> {
        let off = slot * INST_SIZE as usize;
        let raw = self.bytes[off..off + INST_SIZE as usize]
            .try_into()
            .expect("16 bytes");
        let inst = Inst::decode(raw).ok()?;
        self.decoded.get_or_insert_with(|| Box::new([None; SLOTS]))[slot] = Some(inst);
        Some(inst)
    }
}

impl Memory for AddressSpace {
    #[inline]
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        // Straight into `buf`, with no temporary: a per-access allocation
        // takes the allocator's locked path once the process has started
        // any thread (the store's worker pool does).
        if let Some(i) = self.single_page(addr, buf.len(), DATA) {
            self.read_piece(i, addr, buf);
            return Ok(());
        }
        self.walk(addr, buf.len(), false, |space, i, a, r| {
            space.read_piece(i, a, &mut buf[r]);
        })
    }

    #[inline]
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        if let Some(i) = self.single_page(addr, data.len(), DATA) {
            self.write_piece(i, addr, data);
            return Ok(());
        }
        self.walk(addr, data.len(), true, |space, i, a, r| {
            space.write_piece(i, a, &data[r]);
        })
    }

    #[inline]
    fn fetch(&mut self, pc: u64) -> Result<Inst, CpuFault> {
        match self.fetch_cached(pc) {
            Some(inst) => Ok(inst),
            None => load_and_decode(self, pc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_zero_reads() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "data").unwrap();
        assert_eq!(s.load_u64(0x1000).unwrap(), 0);
        assert_eq!(s.resident_pages(), 0, "reads do not allocate");
    }

    #[test]
    fn store_allocates_and_round_trips() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "data").unwrap();
        s.store_u64(0x2ff8, 0x1122334455667788).unwrap();
        assert_eq!(s.load_u64(0x2ff8).unwrap(), 0x1122334455667788);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn cross_page_access() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 2, "data").unwrap();
        // Write across a page boundary.
        s.store_u64(0x1ffc, u64::MAX).unwrap();
        assert_eq!(s.load_u64(0x1ffc).unwrap(), u64::MAX);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn cross_area_contiguous_access_works() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "a").unwrap();
        s.map(0x1000 + PAGE_SIZE, PAGE_SIZE, "b").unwrap();
        s.store_u64(0x1000 + PAGE_SIZE - 4, 7).unwrap();
        assert_eq!(s.load_u64(0x1000 + PAGE_SIZE - 4).unwrap(), 7);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "data").unwrap();
        let err = s.store_u64(0x1000 + PAGE_SIZE - 4, 7).unwrap_err();
        assert!(err.write);
        assert!(s.load_u64(0x8000).is_err());
    }

    #[test]
    fn map_validation() {
        let mut s = AddressSpace::new();
        assert_eq!(s.map(0x1001, PAGE_SIZE, "x"), Err(MapError::BadAlignment));
        assert_eq!(s.map(0x1000, 100, "x"), Err(MapError::BadAlignment));
        assert_eq!(s.map(0x1000, 0, "x"), Err(MapError::BadAlignment));
        s.map(0x1000, PAGE_SIZE * 2, "x").unwrap();
        assert_eq!(
            s.map(0x1000 + PAGE_SIZE, PAGE_SIZE, "y"),
            Err(MapError::Overlap)
        );
    }

    #[test]
    fn unmap_frees_pages() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "x").unwrap();
        s.store_u8(0x1000, 1).unwrap();
        assert!(s.unmap(0x1000));
        assert_eq!(s.resident_pages(), 0);
        assert!(s.load_u8(0x1000).is_err());
        assert!(!s.unmap(0x1000));
    }

    #[test]
    fn nonzero_pages_skips_zero_pages() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 3, "x").unwrap();
        s.store_u8(0x1000, 0).unwrap(); // resident but zero
        s.store_u8(0x2000, 9).unwrap(); // nonzero
        let pages: Vec<u64> = s.nonzero_pages().map(|(a, _)| a).collect();
        assert_eq!(pages, vec![0x2000]);
    }

    #[test]
    fn dirty_tracking_follows_writes() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "x").unwrap();
        assert_eq!(s.dirty_count(), 0);
        s.store_u64(0x1000, 1).unwrap();
        s.store_u64(0x3000, 2).unwrap();
        let dirty: Vec<u64> = s.dirty_set().iter().copied().collect();
        assert_eq!(dirty, vec![0x1000, 0x3000]);
        s.clear_dirty();
        assert_eq!(s.dirty_count(), 0);
        // Overwriting with zero still dirties (the page changed).
        s.store_u64(0x1000, 0).unwrap();
        assert_eq!(s.dirty_count(), 1);
        // Reads do not dirty.
        let _ = s.load_u64(0x2000).unwrap();
        assert_eq!(s.dirty_count(), 1);
    }

    #[test]
    fn shared_segment_visible_across_spaces() {
        let seg = SharedSeg::new(1, PAGE_SIZE as usize);
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        a.map_shared(0x10000, seg.clone(), "shm").unwrap();
        b.map_shared(0x20000, seg, "shm").unwrap();
        a.store_u64(0x10008, 777).unwrap();
        assert_eq!(b.load_u64(0x20008).unwrap(), 777);
    }

    #[test]
    fn shared_mapping_past_the_segment_end_reads_zero() {
        // The mapping is rounded up to a page; the bytes past a 100-byte
        // segment read as zero and writes there are dropped.
        let seg = SharedSeg::new(1, 100);
        let mut s = AddressSpace::new();
        s.map_shared(0x10000, seg.clone(), "shm").unwrap();
        s.store_u64(0x10000 + 96, u64::MAX).unwrap();
        assert_eq!(s.load_u64(0x10000 + 96).unwrap(), 0xffff_ffff);
        s.store_u64(0x10000 + 200, 7).unwrap();
        assert_eq!(s.load_u64(0x10000 + 200).unwrap(), 0);
        assert_eq!(seg.len(), 100);
    }

    /// The snapshot drained from an armed space must equal an eager capture
    /// of the same instant, whatever happened in between.
    fn assert_snapshot_matches(space: &AddressSpace, frozen: &AddressSpace) {
        let expect: Vec<(u64, Vec<u8>)> = frozen
            .nonzero_pages()
            .map(|(a, p)| (a, p.to_vec()))
            .collect();
        assert_eq!(space.cow_snapshot_pages(), expect);
    }

    #[test]
    fn cow_snapshot_survives_racing_writes() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "data").unwrap();
        s.store_u64(0x1000, 0x11).unwrap();
        s.store_u64(0x2000, 0x22).unwrap();
        let frozen = s.clone();
        s.cow_arm();
        assert!(s.cow_armed());
        // Overwrite an armed page, dirty a fresh one, and zero another.
        s.store_u64(0x1000, 0x99).unwrap();
        s.store_u64(0x3000, 0x33).unwrap();
        s.store_u64(0x2000, 0).unwrap();
        assert_snapshot_matches(&s, &frozen);
        // Live reads still see the new values.
        assert_eq!(s.load_u64(0x1000).unwrap(), 0x99);
        // Only the two pre-existing pages forced a pre-image copy; the
        // fresh page was demand-zero at arm.
        assert_eq!(s.cow_copied_bytes(), 2 * PAGE_SIZE);
        assert_eq!(s.cow_disarm(), 2 * PAGE_SIZE);
        assert!(!s.cow_armed());
    }

    #[test]
    fn cow_snapshot_survives_unmap_and_install() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "a").unwrap();
        s.map(0x5000, PAGE_SIZE, "b").unwrap();
        s.store_u8(0x1000, 7).unwrap();
        s.store_u8(0x5000, 8).unwrap();
        let frozen = s.clone();
        s.cow_arm();
        // Unmap one armed area, remap it, and loader-install over the other.
        s.unmap(0x1000);
        s.map(0x1000, PAGE_SIZE, "a2").unwrap();
        s.store_u8(0x1000, 42).unwrap();
        s.install_page(0x5000, &[9, 9]);
        assert_snapshot_matches(&s, &frozen);
    }

    #[test]
    fn cow_pending_bytes_sizes_the_drain() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "data").unwrap();
        s.store_u8(0x1000, 1).unwrap();
        s.store_u8(0x2000, 2).unwrap();
        s.clear_dirty();
        s.store_u8(0x2000, 3).unwrap(); // dirty again
        s.cow_arm();
        s.store_u8(0x3000, 4).unwrap(); // post-arm: excluded everywhere
        assert_eq!(s.cow_pending_bytes(), 2 * PAGE_SIZE);
        assert_eq!(
            s.cow_pending_bytes(),
            s.cow_snapshot_pages()
                .iter()
                .map(|(_, p)| p.len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn install_page_used_by_loader() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "text").unwrap();
        s.install_page(0x1000, &[1, 2, 3]);
        assert_eq!(s.load_u8(0x1000).unwrap(), 1);
        assert_eq!(s.load_u8(0x1002).unwrap(), 3);
        assert_eq!(s.load_u8(0x1003).unwrap(), 0);
    }

    // ---- the decoded-instruction cache ----------------------------------

    use simcpu::asm::Asm;
    use simcpu::cpu::{Cpu, CpuFault, StepOutcome};
    use simcpu::isa::{Inst, R1, R2};
    use simcpu::mem::FlatMem;

    const TEXT: u64 = 0x1_0000;

    /// `movi r1, v; halt` — position independent, so it runs at any base.
    fn set_r1(v: i64) -> Vec<u8> {
        let mut a = Asm::new(0);
        a.movi(R1, v);
        a.halt();
        a.assemble().unwrap()
    }

    /// Runs from `entry` to `halt` and returns r1.
    fn run_r1(space: &mut AddressSpace, entry: u64) -> u64 {
        let mut cpu = Cpu::new(entry);
        let (_, out) = cpu.run(space, 100).unwrap();
        assert_eq!(out, StepOutcome::Halted);
        cpu.reg(R1)
    }

    fn text_space(pages: u64) -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map(TEXT, pages * PAGE_SIZE, "text").unwrap();
        s
    }

    #[test]
    fn store_into_executed_text_runs_the_new_code() {
        let mut s = text_space(2);
        s.write_bytes(TEXT, &set_r1(1)).unwrap();
        assert_eq!(run_r1(&mut s, TEXT), 1);
        // One-page store: patch the immediate (bytes 4..12) in place.
        s.store_u64(TEXT + 4, 2).unwrap();
        assert_eq!(run_r1(&mut s, TEXT), 2);
        // Multi-page store: the instruction starting the second page is
        // rewritten by a write that begins on the first.
        let second = TEXT + PAGE_SIZE;
        s.write_bytes(second, &set_r1(3)).unwrap();
        assert_eq!(run_r1(&mut s, second), 3);
        let mut patch = vec![0u8; 8];
        patch.extend_from_slice(&Inst::Movi { rd: R1, imm: 4 }.encode()[..8]);
        s.write_bytes(second - 8, &patch).unwrap();
        assert_eq!(run_r1(&mut s, second), 4);
    }

    #[test]
    fn install_page_over_text_runs_the_new_code() {
        let mut s = text_space(1);
        s.install_page(TEXT, &set_r1(1));
        assert_eq!(run_r1(&mut s, TEXT), 1);
        s.install_page(TEXT, &set_r1(2));
        assert_eq!(run_r1(&mut s, TEXT), 2);
    }

    #[test]
    fn unmap_and_remap_of_text_drops_its_code() {
        let mut s = text_space(1);
        s.write_bytes(TEXT, &set_r1(1)).unwrap();
        assert_eq!(run_r1(&mut s, TEXT), 1);
        assert!(s.unmap(TEXT));
        let err = Cpu::new(TEXT).step(&mut s).unwrap_err();
        assert!(matches!(err, CpuFault::Mem(MemFault { addr: TEXT, .. })));
        s.map(TEXT, PAGE_SIZE, "text").unwrap();
        // Demand-zero text decodes as `halt`: nothing of the old code runs.
        assert_eq!(run_r1(&mut s, TEXT), 0);
        s.write_bytes(TEXT, &set_r1(2)).unwrap();
        assert_eq!(run_r1(&mut s, TEXT), 2);
    }

    #[test]
    fn cow_armed_store_into_text_keeps_the_pre_image() {
        let mut s = text_space(1);
        s.write_bytes(TEXT, &set_r1(1)).unwrap();
        assert_eq!(run_r1(&mut s, TEXT), 1);
        let frozen = s.clone();
        s.cow_arm();
        s.write_bytes(TEXT, &set_r1(2)).unwrap();
        assert_eq!(run_r1(&mut s, TEXT), 2, "the CPU runs the new code");
        assert_snapshot_matches(&s, &frozen);
    }

    /// `len` bytes of `movi r1, 99`: decodable filler, so a fetch from the
    /// wrong offset runs something and shows.
    fn filler(len: u64) -> Vec<u8> {
        let inst = Inst::Movi { rd: R1, imm: 99 }.encode();
        inst.iter().copied().cycle().take(len as usize).collect()
    }

    /// Runs the same bytes on `FlatMem` (the reference `fetch`) and on an
    /// address space mapping the same range; returns both CPUs.
    fn run_both(code: &[u8], entry: u64) -> (Cpu, Cpu) {
        let mut flat = FlatMem::new((TEXT + 2 * PAGE_SIZE) as usize);
        flat.store(TEXT, code).unwrap();
        let mut s = text_space(2);
        s.write_bytes(TEXT, code).unwrap();
        let (mut a, mut b) = (Cpu::new(entry), Cpu::new(entry));
        assert_eq!(a.run(&mut flat, 100), b.run(&mut s, 100));
        (a, b)
    }

    #[test]
    fn unaligned_jmpr_target_matches_the_reference() {
        let target = TEXT + 0x100 + 3;
        let mut a = Asm::new(TEXT);
        a.movi(R2, target as i64);
        a.jmp_r(R2);
        let mut code = a.assemble().unwrap();
        code.extend(filler(target - TEXT - code.len() as u64));
        code.extend_from_slice(&set_r1(5));
        let (flat, space) = run_both(&code, TEXT);
        assert_eq!(space.reg(R1), 5);
        assert!(space.is_halted());
        assert_eq!(flat, space);
    }

    #[test]
    fn instruction_straddling_two_pages_matches_the_reference() {
        let entry = TEXT + PAGE_SIZE - 8;
        let mut code = filler(entry - TEXT);
        code.extend_from_slice(&set_r1(6));
        let (flat, space) = run_both(&code, entry);
        assert_eq!(space.reg(R1), 6);
        assert_eq!(flat, space);
    }

    #[test]
    fn shared_code_rewritten_through_another_attachment_runs_new_code() {
        let seg = SharedSeg::new(1, PAGE_SIZE as usize);
        let mut runner = AddressSpace::new();
        let mut writer = AddressSpace::new();
        runner.map_shared(TEXT, seg.clone(), "shm").unwrap();
        writer.map_shared(0x8_0000, seg, "shm").unwrap();
        writer.write_bytes(0x8_0000, &set_r1(1)).unwrap();
        assert_eq!(run_r1(&mut runner, TEXT), 1);
        writer.write_bytes(0x8_0000, &set_r1(2)).unwrap();
        assert_eq!(run_r1(&mut runner, TEXT), 2);
    }
}
