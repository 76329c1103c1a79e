//! The store's decoders trust no record count. A checksum-valid chunk
//! manifest whose record count reads `u32::MAX`, and a checksum-valid
//! `CRZL` put record whose blob count does, must decode to nothing —
//! and neither may make the decoder reserve memory in proportion to the
//! count rather than to the bytes. A counting global allocator records
//! the largest single allocation each decode asks for (per thread, so the
//! harness's threads do not count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cruz::chunk::ChunkId;
use cruz::digest;
use cruz::replog::{encode_record, read_log, LogOp, REPLOG_MAGIC, REPLOG_VERSION};
use cruz::store::{CheckpointStore, PreparedPut, StoreConfig};
use simos::fs::NetFs;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every call forwards unchanged to the system allocator; the
// record is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Runs `f`, returning its result and the largest single allocation it
/// requested.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Well past anything the test inputs need, far below what a
/// count-sized reservation (gigabytes) would ask for.
const BOUND: usize = 1 << 20;

#[test]
fn manifest_max_count_is_none_not_a_huge_allocation() {
    let fs = NetFs::new();
    let store = CheckpointStore::new(fs.clone(), "job");
    let raw: Vec<u8> = (0..4096u32).map(|i| (i / 256) as u8).collect();
    let prep = store.prepare_chunked(&raw, &[], &StoreConfig::dedup());
    store.put_prepared("pod", 1, PreparedPut::Chunked(prep));
    let path = store.manifest_path("pod", 1);
    let good = fs.read_file(&path).unwrap();
    assert_eq!(store.image_len("pod", 1), Some(4096));

    // Pinned input: the record count (after magic, version and raw
    // length: bytes 14..18) set to u32::MAX, checksum re-sealed.
    let mut body = good[..good.len() - 8].to_vec();
    body[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    let sum = digest::fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    fs.write_file(&path, body);

    let (len, largest) = measured(|| store.image_len("pod", 1));
    assert_eq!(len, None);
    assert!(largest < BOUND, "manifest decode reserved {largest} bytes");
    let (image, largest) = measured(|| store.get_image("pod", 1));
    assert_eq!(image, None);
    assert!(largest < BOUND, "image read reserved {largest} bytes");
}

#[test]
fn log_blob_max_count_is_no_op_not_a_huge_allocation() {
    let put = LogOp::PutChunked {
        pod: "pod".into(),
        epoch: 1,
        manifest: vec![7; 8],
        image: ChunkId(1, 2),
        blobs: Vec::new(),
    };
    // A put with no blobs ends its payload with the blob count: set it to
    // u32::MAX and re-seal the record checksum over tag ++ payload.
    let mut rec = encode_record(&put);
    let end = rec.len() - 8;
    rec[end - 4..end].copy_from_slice(&u32::MAX.to_le_bytes());
    let sum = digest::fold(digest::OFFSET, &rec[4..end]);
    rec[end..].copy_from_slice(&sum.to_le_bytes());

    let fs = NetFs::new();
    let mut log = REPLOG_MAGIC.to_le_bytes().to_vec();
    log.extend_from_slice(&REPLOG_VERSION.to_le_bytes());
    log.extend_from_slice(&encode_record(&LogOp::Commit { epoch: 1 }));
    let header_and_commit = log.len() as u64;
    log.extend_from_slice(&rec);
    fs.write_file("/replog/job.log", log);

    let ((ops, valid), largest) = measured(|| read_log(&fs, "/replog/job.log"));
    assert_eq!(ops, vec![LogOp::Commit { epoch: 1 }]);
    assert_eq!(valid, header_and_commit);
    assert!(largest < BOUND, "log decode reserved {largest} bytes");
}
