//! Shared fixture and kernels for the parallel capture/restore scaling
//! benchmark (`bench_parallel`).
//!
//! The subject is `cruz::parpool`: the capture prepare (`split_ranges` →
//! chunk-id fold → compress) and the restore reassembly (manifest-ordered
//! chunk decompress) shard across a worker pool with an ordered merge.
//! The contract the bench enforces on every run — before any throughput
//! number is reported — is **byte-identity**: the manifests, the persisted
//! store files, and the reconstructed images must be equal at every thread
//! count, with `threads == 1` (the pool's serial path) as the reference
//! oracle.

use cruz::store::{CheckpointStore, PreparedChunked, PreparedPut, StoreConfig};
use des::digest;
use simos::fs::NetFs;

/// Page size the synthetic images use (matches the guest page size).
pub const PAGE: usize = 4096;

/// The thread counts the scaling sweep measures.
pub const SWEEP_THREADS: &[usize] = &[1, 2, 4, 8];

/// Deterministic xorshift64* stream for reproducible page contents.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A capture-sized image plus its page cuts and base store config. Unlike
/// the hot-path fixture (which is zero-page heavy to showcase the zero
/// shortcut), this mix is dominated by pages that genuinely need hashing
/// and compression — the work the pool exists to shard.
pub struct ParallelFixture {
    /// The serialized image.
    pub raw: Vec<u8>,
    /// One cut per page, `(offset, len)`.
    pub cuts: Vec<(usize, usize)>,
    /// Chunking/codec settings; `threads` is overridden per run.
    pub cfg: StoreConfig,
}

/// Builds the fixture: `pages` pages — 1/8 zero, the rest an even spread
/// of text-like, sparse-counter, and incompressible payloads — between a
/// small metadata header and trailer.
pub fn fixture(pages: usize) -> ParallelFixture {
    let mut raw = vec![0xA5u8; 64];
    let mut cuts = Vec::with_capacity(pages);
    for i in 0..pages {
        cuts.push((raw.len(), PAGE));
        let mut page = vec![0u8; PAGE];
        let mut s = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        match i % 8 {
            6 => {} // zero page
            0 | 3 => {
                const TEXT: &[u8] = b"coordinated checkpoint of live tcp state ";
                for (j, b) in page.iter_mut().enumerate() {
                    *b = TEXT[(j + i) % TEXT.len()];
                }
            }
            1 | 4 => {
                for j in (0..PAGE).step_by(32) {
                    page[j] = (xorshift(&mut s) & 0xff) as u8;
                }
            }
            _ => {
                for b in page.iter_mut() {
                    *b = (xorshift(&mut s) & 0xff) as u8;
                }
            }
        }
        raw.extend_from_slice(&page);
    }
    raw.extend_from_slice(&[0x5A; 32]);
    ParallelFixture {
        raw,
        cuts,
        cfg: StoreConfig {
            chunk_bytes: 1024,
            dedup: true,
            compress: true,
            threads: 1,
            replicas: 1,
        },
    }
}

/// One capture prepare at the given thread count, against a fresh (empty)
/// store so novelty accounting is identical every call.
pub fn capture_prepared(f: &ParallelFixture, threads: usize) -> PreparedChunked {
    let store = CheckpointStore::new(NetFs::new(), "par");
    let cfg = StoreConfig { threads, ..f.cfg };
    store.prepare_chunked(&f.raw, &f.cuts, &cfg)
}

/// Prepares and persists the fixture into a fresh store at the given
/// thread count, then folds **every persisted file** (path and content,
/// in path order) into one digest — the strongest byte-identity witness:
/// chunk containers, manifest, and layout all pinned.
pub fn capture_store_checksum(f: &ParallelFixture, threads: usize) -> u64 {
    let fs = NetFs::new();
    let store = CheckpointStore::new(fs.clone(), "par");
    let cfg = StoreConfig { threads, ..f.cfg };
    let put = store.prepare_chunked(&f.raw, &f.cuts, &cfg);
    store.put_prepared("p", 1, PreparedPut::Chunked(put));
    let mut h = digest::OFFSET;
    for path in fs.list("/ckpt/") {
        let bytes = fs.read_file(&path).expect("listed file exists");
        h = digest::fold(h, path.as_bytes());
        h = digest::fold(h, &bytes);
    }
    h
}

/// Persists the fixture once through the serial reference path and returns
/// the backing filesystem; [`restore_bytes`] reads it back at any width.
pub fn restore_setup(f: &ParallelFixture) -> NetFs {
    let fs = NetFs::new();
    let store = CheckpointStore::new(fs.clone(), "par").with_threads(1);
    let put = store.prepare_chunked(&f.raw, &f.cuts, &f.cfg);
    store.put_prepared("p", 1, PreparedPut::Chunked(put));
    fs
}

/// Reconstructs the persisted image with a pool of the given width.
pub fn restore_bytes(fs: &NetFs, threads: usize) -> Option<Vec<u8>> {
    CheckpointStore::new(fs.clone(), "par")
        .with_threads(threads)
        .get_image("p", 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_and_restore_are_byte_identical_across_widths() {
        let f = fixture(48);
        let serial = capture_prepared(&f, 1);
        let store_serial = capture_store_checksum(&f, 1);
        let fs = restore_setup(&f);
        let image_serial = restore_bytes(&fs, 1).expect("serial restore");
        assert_eq!(image_serial, f.raw, "restore round-trips the image");
        for &t in SWEEP_THREADS {
            let p = capture_prepared(&f, t);
            assert_eq!(p.manifest(), serial.manifest(), "manifest at threads={t}");
            assert_eq!(p.novel_count(), serial.novel_count());
            assert_eq!(
                capture_store_checksum(&f, t),
                store_serial,
                "persisted store bytes at threads={t}"
            );
            assert_eq!(
                restore_bytes(&fs, t).expect("pooled restore"),
                image_serial,
                "restored image at threads={t}"
            );
        }
    }
}
