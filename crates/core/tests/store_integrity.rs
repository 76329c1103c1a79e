//! End-to-end read-integrity and replay-idempotency tests for the
//! checkpoint store.
//!
//! The store must never hand back bytes it cannot prove are the ones that
//! were written: every read re-verifies the manifest against the epoch's
//! digest sidecar (the image root) and every chunk body against its
//! content address, and fails closed (returns `None`) on any mismatch.
//! The mutation paths must also be idempotent under operation-log replay:
//! re-applying a put or a discard after a replica crash must leave
//! refcounts and on-disk state exactly as a single application would.

use cruz::store::{CheckpointStore, PreparedPut, StoreConfig};
use simos::fs::NetFs;
use zap::image::{ImageReader, ImageWriter};

/// A toy "image": `reps` distinct page-sized blocks of periodic
/// (compressible) content, with block `hot` overwritten by `fill`.
fn toy_image(reps: usize, hot: usize, fill: u8) -> (Vec<u8>, Vec<(usize, usize)>) {
    let block = 256usize;
    let mut raw = Vec::with_capacity(reps * block);
    let mut cuts = Vec::new();
    for b in 0..reps {
        cuts.push((raw.len(), block));
        if b == hot {
            raw.extend(std::iter::repeat(fill).take(block));
        } else {
            raw.extend((0..block).map(|i| (((b * 31) + (i % 7)) % 251) as u8 | 1));
        }
    }
    (raw, cuts)
}

fn cfg() -> StoreConfig {
    StoreConfig {
        chunk_bytes: 256,
        dedup: true,
        compress: true,
        ..StoreConfig::default()
    }
}

fn put_chunked(s: &CheckpointStore, pod: &str, epoch: u64, raw: &[u8], cuts: &[(usize, usize)]) {
    let prep = s.prepare_chunked(raw, cuts, &cfg());
    s.put_prepared(pod, epoch, PreparedPut::Chunked(prep));
}

/// Stores `raw` as one image with no page cuts.
fn put(s: &CheckpointStore, pod: &str, epoch: u64, raw: &[u8]) {
    put_chunked(s, pod, epoch, raw, &[]);
}

/// One manifest record: `(id_lo, id_hi, seg_len, stored_len)`.
type Record = (u64, u64, u32, u32);

/// Decodes a manifest, lets `edit` rewrite its `raw_len` and records, and
/// re-encodes it with a valid checksum — a torn manifest that still decodes
/// cleanly, which only the image root can reject.
fn resealed(manifest: &[u8], edit: impl FnOnce(&mut u64, &mut Vec<Record>)) -> Vec<u8> {
    let mut r = ImageReader::verify(manifest).unwrap();
    let (magic, version) = (r.u32().unwrap(), r.u16().unwrap());
    let mut raw_len = r.u64().unwrap();
    let n = r.u32().unwrap();
    let mut recs: Vec<Record> = (0..n)
        .map(|_| {
            (
                r.u64().unwrap(),
                r.u64().unwrap(),
                r.u32().unwrap(),
                r.u32().unwrap(),
            )
        })
        .collect();
    edit(&mut raw_len, &mut recs);
    let mut w = ImageWriter::new();
    w.u32(magic);
    w.u16(version);
    w.u64(raw_len);
    w.u32(recs.len() as u32);
    for (lo, hi, seg_len, stored_len) in recs {
        w.u64(lo);
        w.u64(hi);
        w.u32(seg_len);
        w.u32(stored_len);
    }
    w.finish()
}

// ---- lifecycle (public API) -------------------------------------------------

#[test]
fn commit_gating() {
    let s = CheckpointStore::new(NetFs::new(), "job1");
    put(&s, "pod0", 1, &[1, 2, 3]);
    assert!(!s.is_committed(1));
    assert_eq!(s.latest_committed_epoch(), None, "uncommitted is invisible");
    s.commit(1);
    assert!(s.is_committed(1));
    assert_eq!(s.latest_committed_epoch(), Some(1));
    assert_eq!(s.get_image("pod0", 1), Some(vec![1, 2, 3]));
}

#[test]
fn latest_epoch_wins() {
    let s = CheckpointStore::new(NetFs::new(), "j");
    for e in [3u64, 1, 7, 5] {
        put(&s, "p", e, &[e as u8]);
        s.commit(e);
    }
    assert_eq!(s.latest_committed_epoch(), Some(7));
}

#[test]
fn pods_in_epoch_lists_images() {
    let s = CheckpointStore::new(NetFs::new(), "j");
    put(&s, "x", 4, &[]);
    put(&s, "y", 4, &[]);
    s.commit(4);
    let mut pods = s.pods_in_epoch(4);
    pods.sort();
    assert_eq!(pods, vec!["x".to_string(), "y".to_string()]);
}

#[test]
fn jobs_are_isolated() {
    let fs = NetFs::new();
    let a = CheckpointStore::new(fs.clone(), "a");
    let b = CheckpointStore::new(fs, "b");
    put(&a, "p", 1, &[]);
    a.commit(1);
    assert_eq!(b.latest_committed_epoch(), None);
}

// ---- read integrity: every path verifies, every mismatch fails closed -------

#[test]
fn corrupted_plain_image_is_rejected() {
    let fs = NetFs::new();
    let s = CheckpointStore::new(fs.clone(), "j");
    // Stored uncompressed, so a flipped body byte still decodes.
    let plain = StoreConfig {
        compress: false,
        ..cfg()
    };
    let raw: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
    let prep = s.prepare_chunked(&raw, &[], &plain);
    s.put_prepared("p", 1, PreparedPut::Chunked(prep));
    s.commit(1);
    assert!(s.get_image("p", 1).is_some(), "clean read succeeds");

    // Flip one byte in the middle of a stored chunk: same length, same
    // structure, silently wrong content — only the content address can
    // catch it.
    let id = *s.chunks_referenced_by(1).iter().next().unwrap();
    let mut bytes = fs.read_file(&s.chunk_path(id)).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs.write_file(&s.chunk_path(id), bytes);
    assert_eq!(s.get_image("p", 1), None, "bit rot must not be served");
    assert!(
        s.image_len("p", 1).is_some(),
        "the manifest itself is still there — only the verified read refuses"
    );
}

#[test]
fn swapped_manifest_that_still_decodes_is_rejected() {
    let fs = NetFs::new();
    let s = CheckpointStore::new(fs.clone(), "j");
    let (raw_a, cuts_a) = toy_image(16, 3, 0xaa);
    let (raw_b, cuts_b) = toy_image(16, 5, 0x55);
    put_chunked(&s, "a", 1, &raw_a, &cuts_a);
    put_chunked(&s, "b", 1, &raw_b, &cuts_b);
    s.commit(1);

    // Each input is a perfectly well-formed manifest (magic, version,
    // checksum, resolvable chunks) that describes the WRONG image.
    // Structural decode cannot catch these — only the image root in the
    // digest sidecar can.
    let own = fs.read_file(&s.manifest_path("b", 1)).unwrap();
    let torn = [
        // a's manifest under b's name.
        ("stolen", fs.read_file(&s.manifest_path("a", 1)).unwrap()),
        // Two records of equal length swapped: every chunk still verifies.
        ("swapped", resealed(&own, |_, recs| recs.swap(0, 1))),
        ("raw_len", resealed(&own, |raw_len, _| *raw_len += 1)),
        ("seg_len", resealed(&own, |_, recs| recs[0].2 -= 1)),
    ];
    for (what, manifest) in torn {
        assert_ne!(manifest, own, "{what}: input must differ");
        fs.write_file(&s.manifest_path("b", 1), manifest);
        assert_eq!(s.get_image("b", 1), None, "{what}: torn manifest rejected");
    }
    // Control: resealing without an edit is byte-identical and reads.
    assert_eq!(resealed(&own, |_, _| {}), own);
    fs.write_file(&s.manifest_path("b", 1), own);
    assert_eq!(s.get_image("b", 1), Some(raw_b));
    assert_eq!(
        s.get_image("a", 1),
        Some(raw_a),
        "the donor pod still reads"
    );
}

#[test]
fn corrupt_chunk_body_is_rejected_by_content_address() {
    let fs = NetFs::new();
    let s = CheckpointStore::new(fs.clone(), "j");
    let (raw, cuts) = toy_image(8, 2, 0xee);
    put_chunked(&s, "p", 1, &raw, &cuts);
    s.commit(1);

    // Overwrite one chunk's body with another chunk's: the container
    // still decodes cleanly, but the content no longer matches the
    // chunk's address.
    let ids: Vec<_> = s.chunks_referenced_by(1).into_iter().collect();
    assert!(ids.len() >= 2, "toy image must span several chunks");
    let donor = fs.read_file(&s.chunk_path(ids[0])).unwrap();
    fs.write_file(&s.chunk_path(ids[1]), donor);
    assert_eq!(s.get_image("p", 1), None, "content-address mismatch");
}

#[test]
fn missing_digest_sidecar_fails_closed() {
    let fs = NetFs::new();
    let s = CheckpointStore::new(fs.clone(), "j");
    put(&s, "plain", 1, &[1, 2, 3]);
    let (raw, cuts) = toy_image(4, 0, 0x11);
    put_chunked(&s, "chunked", 1, &raw, &cuts);
    s.commit(1);

    // A read with no digest sidecar cannot be verified, so it must not be
    // served — trusting the raw bytes is exactly the hole this closes.
    assert!(fs.remove(&s.digest_path("plain", 1)));
    assert!(fs.remove(&s.digest_path("chunked", 1)));
    assert_eq!(s.get_image("plain", 1), None);
    assert_eq!(s.get_image("chunked", 1), None);
}

// ---- replay idempotency -----------------------------------------------------

#[test]
fn replayed_put_takes_chunk_refs_once() {
    let s = CheckpointStore::new(NetFs::new(), "j");
    let (raw, cuts) = toy_image(8, 1, 0x3c);
    // The same logical put applied twice (an operation-log replay after a
    // replica crash): the second application sees its identical manifest
    // already on disk and must not bump refcounts again.
    put_chunked(&s, "p", 1, &raw, &cuts);
    put_chunked(&s, "p", 1, &raw, &cuts);
    s.commit(1);
    assert_eq!(s.get_image("p", 1), Some(raw));

    s.discard_epoch(1);
    // A double-counted put would leave every chunk at refcount 1 after the
    // discard, stranding the files forever; a single count drops them to
    // zero and deletes them on the spot.
    assert!(
        s.live_chunks().is_empty(),
        "one discard must zero the refs a single put took"
    );
    assert_eq!(s.gc_orphan_chunks(), 0, "nothing left to reclaim");
}

#[test]
fn replayed_discard_is_a_no_op() {
    let s = CheckpointStore::new(NetFs::new(), "j");
    let (raw1, cuts) = toy_image(8, 1, 0x3c);
    let (raw2, _) = toy_image(8, 1, 0x99);
    put_chunked(&s, "p", 1, &raw1, &cuts);
    s.commit(1);
    put_chunked(&s, "p", 2, &raw2, &cuts);
    s.commit(2);

    let epoch1_chunks = s.chunks_referenced_by(1);
    s.discard_epoch(2);
    s.discard_epoch(2); // replayed: files already gone, refs must not drop again
    let live: std::collections::BTreeSet<_> = s.live_chunks().into_iter().collect();
    assert_eq!(
        live, epoch1_chunks,
        "the surviving epoch's refs are untouched by the replay"
    );
    assert_eq!(s.get_image("p", 1), Some(raw1), "epoch 1 still restores");
    assert_eq!(s.gc_orphan_chunks(), 0, "no strays: discard cleaned up");
}
