//! The address space's cached instruction fetch is invisible: the same
//! bytes run on [`FlatMem`], whose `fetch` loads and decodes every time,
//! and on an [`AddressSpace`], which serves aligned fetches from decoded
//! per-page tables, retire the same instructions with the same outcome or
//! fault, registers, `pc` and memory after every `run` call — including
//! when the program stores over its own code.

use proptest::prelude::*;
use simcpu::cpu::{Cpu, CpuFault, StepOutcome};
use simcpu::isa::{Inst, INST_SIZE};
use simcpu::mem::{FlatMem, MemFault, Memory};
use simos::mem::{AddressSpace, SharedSeg, PAGE_SIZE};

const SIZE: u64 = 2 * PAGE_SIZE;
const SLOTS: usize = (SIZE / INST_SIZE) as usize;

/// Every opcode byte that decodes, except `halt` (which zero bytes and
/// the arbitrary slots still supply), so programs run for a while.
fn valid_opcodes() -> Vec<u8> {
    (1..=u8::MAX)
        .filter(|&op| {
            let mut raw = [0u8; 16];
            raw[0] = op;
            Inst::decode(&raw).is_ok()
        })
        .collect()
}

/// One 16-byte slot: mostly a valid opcode with an immediate that lands
/// inside memory (so jumps, loads and stores hit code and data, aligned or
/// not), sometimes arbitrary bytes.
fn slot() -> impl Strategy<Value = [u8; 16]> {
    let ops = valid_opcodes();
    let inst = (0..ops.len(), proptest::array::uniform4(any::<u8>()), addr()).prop_map(
        move |(op, regs, imm)| {
            let mut raw = [0u8; 16];
            raw[0] = ops[op];
            raw[1..4].copy_from_slice(&regs[..3]);
            raw[4..12].copy_from_slice(&imm.to_le_bytes());
            raw
        },
    );
    prop_oneof![19 => inst, 1 => proptest::array::uniform16(any::<u8>())]
}

/// A 32-instruction window across the page boundary that most jumps and
/// stores aim at, so code runs repeatedly (cache hits), gets overwritten
/// after it ran (invalidation), and spans both pages.
const HOT: u64 = PAGE_SIZE - 16 * INST_SIZE;

/// Addresses (jump targets, offsets, register values) inside memory,
/// mostly on an instruction boundary so the decoded tables see use.
fn addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => (0..32u64).prop_map(|k| HOT + k * INST_SIZE),
        2 => (0..SLOTS as u64).prop_map(|k| k * INST_SIZE),
        1 => 0..SIZE + 32,
    ]
}

/// `AddressSpace` names the first unmapped byte of a faulting access,
/// `FlatMem` the access's first byte; everything else must match exactly.
fn normalize(r: Result<(u64, StepOutcome), CpuFault>) -> Result<(u64, StepOutcome), CpuFault> {
    r.map_err(|f| match f {
        CpuFault::Mem(MemFault { addr, write }) => CpuFault::Mem(MemFault {
            addr: addr.max(SIZE),
            write,
        }),
        other => other,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn cached_fetch_matches_the_reference(
        slots in proptest::collection::vec(slot(), SLOTS),
        entry in prop_oneof![3 => addr(), 1 => 0..SIZE],
        regs in proptest::array::uniform16(addr()),
        shared_second_page in any::<bool>(),
        budgets in proptest::collection::vec(1u64..400, 1..24),
    ) {
        let bytes: Vec<u8> = slots.concat();
        let mut flat = FlatMem::new(SIZE as usize);
        flat.store(0, &bytes).unwrap();
        let mut space = AddressSpace::new();
        if shared_second_page {
            space.map(0, PAGE_SIZE, "text").unwrap();
            let seg = SharedSeg::new(1, PAGE_SIZE as usize);
            space.map_shared(PAGE_SIZE, seg, "shm").unwrap();
        } else {
            space.map(0, SIZE, "text").unwrap();
        }
        space.write_bytes(0, &bytes).unwrap();

        let (mut reference, mut cached) = (Cpu::new(entry), Cpu::new(entry));
        reference.set_regs(regs);
        cached.set_regs(regs);
        for budget in budgets {
            let want = normalize(reference.run(&mut flat, budget));
            let got = cached.run(&mut space, budget);
            prop_assert_eq!(got, want);
            prop_assert_eq!(cached.regs(), reference.regs());
            prop_assert_eq!(cached.pc(), reference.pc());
            prop_assert_eq!(cached.is_halted(), reference.is_halted());
            prop_assert_eq!(space.read_bytes(0, SIZE as usize).unwrap(), flat.as_bytes());
            if want.is_err() {
                break;
            }
        }
    }
}
