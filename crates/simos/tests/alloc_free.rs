//! The interpreter's memory path allocates nothing once warm: after the
//! first pass has decoded the loop and made its pages resident,
//! `AddressSpace::{fetch, load, store}` run 10 000 guest steps of a
//! load/store loop without one heap allocation. A counting global
//! allocator, per thread so the test harness's own threads do not count,
//! enforces it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simcpu::asm::Asm;
use simcpu::cpu::{Cpu, StepOutcome};
use simcpu::isa::{R1, R2, R3, R4, SP};
use simos::mem::{AddressSpace, PAGE_SIZE};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TEXT: u64 = 0x1_0000;
const DATA: u64 = 0x10_0000;
const STACK_TOP: u64 = 0x20_0000;

#[test]
fn warm_load_store_loop_does_not_allocate() {
    // Each iteration: a load and a store inside one data page, a store and
    // a load that straddle two data pages (the multi-page path), and a
    // push/pop on the stack.
    let mut a = Asm::new(TEXT);
    a.movi(R1, DATA as i64);
    a.movi(R2, (DATA + PAGE_SIZE - 4) as i64);
    let top = a.label();
    a.bind(top);
    a.ld(R3, R1, 0);
    a.addi(R3, R3, 1);
    a.st(R1, R3, 0);
    a.st(R2, R3, 0);
    a.ld(R4, R2, 0);
    a.push(R4);
    a.pop(R4);
    a.jmp(top);
    let code = a.assemble().unwrap();

    let mut space = AddressSpace::new();
    space.map(TEXT, PAGE_SIZE, "text").unwrap();
    space.map(DATA, 2 * PAGE_SIZE, "data").unwrap();
    space
        .map(STACK_TOP - PAGE_SIZE, PAGE_SIZE, "stack")
        .unwrap();
    space.write_bytes(TEXT, &code).unwrap();
    let mut cpu = Cpu::new(TEXT);
    cpu.set_reg(SP, STACK_TOP);

    // Warm: decode the loop once and make every page it touches resident.
    assert_eq!(
        cpu.run(&mut space, 100).unwrap(),
        (100, StepOutcome::Continue)
    );
    let before = ALLOCS.with(Cell::get);
    let run = cpu.run(&mut space, 10_000);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(run.unwrap(), (10_000, StepOutcome::Continue));
    assert_eq!(allocs, 0, "warm guest steps allocated");
    assert!(cpu.reg(R3) > 1_000, "the loop ran");
}
