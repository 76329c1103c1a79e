//! `PodImage::decode` trusts no record count. A checksum-valid image whose
//! count reads `u32::MAX` must decode to `Err`, and no count may make the
//! decoder reserve memory in proportion to the count rather than to the
//! image. A counting global allocator records the largest single
//! allocation each decode asks for (per thread, so the harness's threads
//! do not count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use des::digest::fnv1a;
use simnet::addr::{IpAddr, MacAddr, SockAddr};
use zap::image::{
    AreaImage, DescImage, GroupImage, ImageError, MacMode, PipeImage, ProcImage, RunStateImage,
    SemImage, ShmImage, SockImage,
};
use zap::PodImage;

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

/// An image with at least one record behind every count.
fn image(shm: Vec<ShmImage>) -> PodImage {
    let addr = SockAddr::new(IpAddr::from_octets([10, 0, 0, 9]), 53);
    PodImage {
        name: "pod".into(),
        ip: IpAddr::from_octets([10, 0, 0, 50]),
        mac_mode: MacMode::Dedicated(MacAddr::from_index(7)),
        next_vpid: 2,
        shm,
        sems: vec![SemImage {
            key: 9,
            values: vec![1, -1],
        }],
        pipes: vec![PipeImage {
            data: b"buffered".to_vec(),
            readers: 1,
            writers: 1,
        }],
        sockets: vec![
            SockImage::Udp {
                bound: Some(addr),
                queue: vec![(addr, vec![9; 3])],
            },
            SockImage::Fresh { bound: None },
        ],
        groups: vec![GroupImage {
            areas: vec![AreaImage {
                start: 0x1000,
                len: 0x1000,
                tag: "data".into(),
                shm_index: None,
            }],
            pages: vec![(0x1000, vec![0xaa; 64])],
            fds: vec![(0, DescImage::Console)],
        }],
        procs: vec![ProcImage {
            vpid: 1,
            parent_vpid: 0,
            group: 0,
            regs: [7; 16],
            pc: 0x1040,
            halted: false,
            pending: None,
            run_state: RunStateImage::Ready,
            console: vec!["hello".into()],
        }],
    }
}

/// Re-seals a mutated body with a valid trailing checksum, so it reaches
/// the structural decoder.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Decodes `bytes`, returning the result and the largest single
/// allocation the decode requested.
fn decode_measured(bytes: &[u8]) -> (Result<PodImage, ImageError>, usize) {
    LARGEST.with(|m| m.set(0));
    let result = PodImage::decode(bytes);
    (result, LARGEST.with(Cell::get))
}

/// Well past anything the test images need, far below what a
/// count-sized reservation (gigabytes) would ask for.
const BOUND: usize = 1 << 20;

#[test]
fn max_count_is_an_error_not_a_huge_allocation() {
    // Pinned input: the shm count — the first byte where an image with no
    // shm segment and one with a segment differ — set to u32::MAX.
    let empty = image(vec![]).encode();
    let one = image(vec![ShmImage {
        key: 1,
        data: vec![2],
    }])
    .encode();
    let at = empty.iter().zip(&one).position(|(a, b)| a != b).unwrap();
    let mut body = empty[..empty.len() - 8].to_vec();
    body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let (result, largest) = decode_measured(&sealed(body));
    assert_eq!(result, Err(ImageError::Truncated));
    assert!(largest < BOUND, "decode reserved {largest} bytes");
}

#[test]
fn no_count_reserves_beyond_the_image() {
    // Every offset in turn reads u32::MAX: whichever count it lands on,
    // the decode stays bounded by the image.
    let full = image(vec![ShmImage {
        key: 1,
        data: vec![2; 16],
    }])
    .encode();
    let body = &full[..full.len() - 8];
    assert!(PodImage::decode(&full).is_ok());
    for at in 0..=body.len() - 4 {
        let mut mutated = body.to_vec();
        mutated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (_, largest) = decode_measured(&sealed(mutated));
        assert!(
            largest < BOUND,
            "offset {at}: decode reserved {largest} bytes"
        );
    }
}
