//! The guest CPU interpreter.

use std::fmt;

use crate::isa::{AluOp, CmpOp, FaluOp, FcmpOp, Inst, Reg, INST_SIZE, SP};
use crate::mem::{MemFault, Memory};

/// Why the CPU stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An ordinary instruction retired; execution can continue.
    Continue,
    /// A `syscall` instruction retired. The PC already points at the next
    /// instruction; the kernel should read `r0..=r5` and eventually write the
    /// result into `r0`.
    Syscall,
    /// A `halt` instruction retired; the CPU will not run again.
    Halted,
}

/// A fault raised by the executing program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuFault {
    /// A memory access failed.
    Mem(MemFault),
    /// The bytes at the PC did not decode to an instruction.
    BadInstruction {
        /// The PC of the undecodable instruction.
        pc: u64,
        /// The offending opcode byte.
        opcode: u8,
    },
    /// Integer division or remainder by zero.
    DivByZero {
        /// The PC of the faulting instruction.
        pc: u64,
    },
}

impl fmt::Display for CpuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuFault::Mem(m) => write!(f, "{m}"),
            CpuFault::BadInstruction { pc, opcode } => {
                write!(
                    f,
                    "undecodable instruction at {pc:#x} (opcode {opcode:#04x})"
                )
            }
            CpuFault::DivByZero { pc } => write!(f, "division by zero at {pc:#x}"),
        }
    }
}

impl std::error::Error for CpuFault {}

impl From<MemFault> for CpuFault {
    fn from(m: MemFault) -> Self {
        CpuFault::Mem(m)
    }
}

/// The architectural state of a guest CPU: sixteen 64-bit registers and a
/// program counter.
///
/// The whole execution state of a program is this struct plus the address
/// space it runs in, which is exactly what a checkpoint captures.
///
/// # Examples
///
/// ```
/// use simcpu::asm::Asm;
/// use simcpu::cpu::{Cpu, StepOutcome};
/// use simcpu::isa::R1;
/// use simcpu::mem::FlatMem;
///
/// let mut asm = Asm::new(0);
/// asm.movi(R1, 41);
/// asm.addi(R1, R1, 1);
/// asm.halt();
/// let mut mem = FlatMem::new(4096);
/// asm.load_into(&mut mem).unwrap();
///
/// let mut cpu = Cpu::new(0);
/// let (_, outcome) = cpu.run(&mut mem, 100).unwrap();
/// assert_eq!(outcome, StepOutcome::Halted);
/// assert_eq!(cpu.reg(R1), 42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    regs: [u64; Reg::COUNT],
    pc: u64,
    halted: bool,
}

impl Cpu {
    /// Creates a CPU with all registers zero and the PC at `entry`.
    pub fn new(entry: u64) -> Self {
        Cpu {
            regs: [0; Reg::COUNT],
            pc: entry,
            halted: false,
        }
    }

    /// Reconstructs a CPU from checkpointed architectural state.
    pub fn restore(regs: [u64; Reg::COUNT], pc: u64, halted: bool) -> Self {
        Cpu { regs, pc, halted }
    }

    /// Returns a register value.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Sets a register value.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// Returns the program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Returns true once a `halt` instruction has retired.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Returns the full register file, for checkpointing.
    pub fn regs(&self) -> &[u64; Reg::COUNT] {
        &self.regs
    }

    /// Restores the full register file, for restart.
    pub fn set_regs(&mut self, regs: [u64; Reg::COUNT]) {
        self.regs = regs;
    }

    /// Clears the halted flag (used when reusing a CPU slot).
    pub fn reset(&mut self, entry: u64) {
        self.regs = [0; Reg::COUNT];
        self.pc = entry;
        self.halted = false;
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`CpuFault`] for memory faults, undecodable instructions and
    /// division by zero. The PC is left at the faulting instruction.
    pub fn step<M: Memory + ?Sized>(&mut self, mem: &mut M) -> Result<StepOutcome, CpuFault> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let inst = mem.fetch(pc)?;
        let next = pc + INST_SIZE;
        self.pc = next;
        match inst {
            Inst::Halt => {
                self.halted = true;
                return Ok(StepOutcome::Halted);
            }
            Inst::Nop => {}
            Inst::Syscall => return Ok(StepOutcome::Syscall),
            Inst::Movi { rd, imm } => self.set_reg(rd, imm as u64),
            Inst::Mov { rd, rs } => self.set_reg(rd, self.reg(rs)),
            Inst::Alu { op, rd, rs, rt } => {
                let v = self.alu(op, self.reg(rs), self.reg(rt), pc)?;
                self.set_reg(rd, v);
            }
            Inst::Alui { op, rd, rs, imm } => {
                let v = self.alu(op, self.reg(rs), imm as u64, pc)?;
                self.set_reg(rd, v);
            }
            Inst::Cmp { op, rd, rs, rt } => {
                let a = self.reg(rs);
                let b = self.reg(rt);
                let v = match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::LtU => a < b,
                    CmpOp::LtS => (a as i64) < (b as i64),
                    CmpOp::LeU => a <= b,
                    CmpOp::LeS => (a as i64) <= (b as i64),
                };
                self.set_reg(rd, v as u64);
            }
            Inst::Falu { op, rd, rs, rt } => {
                let a = f64::from_bits(self.reg(rs));
                let b = f64::from_bits(self.reg(rt));
                let v = match op {
                    FaluOp::Add => a + b,
                    FaluOp::Sub => a - b,
                    FaluOp::Mul => a * b,
                    FaluOp::Div => a / b,
                };
                self.set_reg(rd, v.to_bits());
            }
            Inst::Fcmp { op, rd, rs, rt } => {
                let a = f64::from_bits(self.reg(rs));
                let b = f64::from_bits(self.reg(rt));
                let v = match op {
                    FcmpOp::Lt => a < b,
                    FcmpOp::Le => a <= b,
                    FcmpOp::Eq => a == b,
                };
                self.set_reg(rd, v as u64);
            }
            Inst::Fsqrt { rd, rs } => {
                let v = f64::from_bits(self.reg(rs)).sqrt();
                self.set_reg(rd, v.to_bits());
            }
            Inst::I2f { rd, rs } => {
                self.set_reg(rd, ((self.reg(rs) as i64) as f64).to_bits());
            }
            Inst::F2i { rd, rs } => {
                self.set_reg(rd, (f64::from_bits(self.reg(rs)) as i64) as u64);
            }
            Inst::Ld { rd, base, off } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                let v = mem.load_u64(addr)?;
                self.set_reg(rd, v);
            }
            Inst::St { base, src, off } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                mem.store_u64(addr, self.reg(src))?;
            }
            Inst::Ldb { rd, base, off } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                let v = mem.load_u8(addr)?;
                self.set_reg(rd, v as u64);
            }
            Inst::Stb { base, src, off } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                mem.store_u8(addr, self.reg(src) as u8)?;
            }
            Inst::Jmp { target } => self.pc = target,
            Inst::Jz { rs, target } => {
                if self.reg(rs) == 0 {
                    self.pc = target;
                }
            }
            Inst::Jnz { rs, target } => {
                if self.reg(rs) != 0 {
                    self.pc = target;
                }
            }
            Inst::JmpR { rs } => self.pc = self.reg(rs),
            Inst::Call { target } => {
                let sp = self.reg(SP).wrapping_sub(8);
                mem.store_u64(sp, next)?;
                self.set_reg(SP, sp);
                self.pc = target;
            }
            Inst::Ret => {
                let sp = self.reg(SP);
                let ret = mem.load_u64(sp)?;
                self.set_reg(SP, sp + 8);
                self.pc = ret;
            }
            Inst::Push { rs } => {
                let sp = self.reg(SP).wrapping_sub(8);
                mem.store_u64(sp, self.reg(rs))?;
                self.set_reg(SP, sp);
            }
            Inst::Pop { rd } => {
                let sp = self.reg(SP);
                let v = mem.load_u64(sp)?;
                self.set_reg(SP, sp + 8);
                self.set_reg(rd, v);
            }
        }
        Ok(StepOutcome::Continue)
    }

    /// Runs up to `max_steps` instructions, stopping early on a syscall or
    /// halt. Returns the number of instructions retired and the reason for
    /// stopping ([`StepOutcome::Continue`] means the step budget ran out).
    ///
    /// # Errors
    ///
    /// Returns the first [`CpuFault`] encountered; the count of retired
    /// instructions before the fault is lost (callers treat faults as fatal
    /// to the process).
    pub fn run<M: Memory + ?Sized>(
        &mut self,
        mem: &mut M,
        max_steps: u64,
    ) -> Result<(u64, StepOutcome), CpuFault> {
        let mut steps = 0;
        while steps < max_steps {
            let outcome = self.step(mem)?;
            steps += 1;
            match outcome {
                StepOutcome::Continue => {}
                other => return Ok((steps, other)),
            }
        }
        Ok((steps, StepOutcome::Continue))
    }

    fn alu(&self, op: AluOp, a: u64, b: u64, pc: u64) -> Result<u64, CpuFault> {
        Ok(match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Divu => a.checked_div(b).ok_or(CpuFault::DivByZero { pc })?,
            AluOp::Remu => a.checked_rem(b).ok_or(CpuFault::DivByZero { pc })?,
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32),
            AluOp::Shr => a.wrapping_shr(b as u32),
            AluOp::Sar => ((a as i64).wrapping_shr(b as u32)) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::{R0, R1, R2, R3};
    use crate::mem::FlatMem;

    fn run_asm(asm: Asm, max: u64) -> (Cpu, FlatMem, StepOutcome) {
        let mut mem = FlatMem::new(1 << 16);
        let entry = asm.base();
        asm.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(entry);
        cpu.set_reg(SP, 1 << 15);
        let (_, outcome) = cpu.run(&mut mem, max).unwrap();
        (cpu, mem, outcome)
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10
        let mut a = Asm::new(0);
        a.movi(R1, 0); // acc
        a.movi(R2, 1); // i
        a.movi(R3, 10);
        let top = a.label();
        a.bind(top);
        a.add(R1, R1, R2);
        a.addi(R2, R2, 1);
        let done = a.label();
        a.cmp_gt_jump(R2, R3, done);
        a.jmp(top);
        a.bind(done);
        a.halt();
        let (cpu, _, outcome) = run_asm(a, 1000);
        assert_eq!(outcome, StepOutcome::Halted);
        assert_eq!(cpu.reg(R1), 55);
    }

    #[test]
    fn call_ret_push_pop() {
        let mut a = Asm::new(0);
        let func = a.label();
        a.movi(R1, 5);
        a.call_label(func);
        a.halt();
        a.bind(func);
        a.push(R1);
        a.movi(R1, 9);
        a.pop(R2);
        a.ret();
        let (cpu, _, outcome) = run_asm(a, 100);
        assert_eq!(outcome, StepOutcome::Halted);
        assert_eq!(cpu.reg(R1), 9);
        assert_eq!(cpu.reg(R2), 5);
    }

    #[test]
    fn loads_and_stores() {
        let mut a = Asm::new(0);
        a.movi(R1, 0x8000);
        a.movi(R2, 0xabcd);
        a.st(R1, R2, 8);
        a.ld(R3, R1, 8);
        a.stb(R1, R2, 0);
        a.ldb(R0, R1, 0);
        a.halt();
        let (cpu, mem, _) = run_asm(a, 100);
        assert_eq!(cpu.reg(R3), 0xabcd);
        assert_eq!(cpu.reg(R0), 0xcd);
        assert_eq!(mem.as_bytes()[0x8000], 0xcd);
    }

    #[test]
    fn float_ops() {
        let mut a = Asm::new(0);
        a.movi(R1, 9);
        a.i2f(R1, R1);
        a.fsqrt(R2, R1);
        a.f2i(R3, R2);
        a.halt();
        let (cpu, _, _) = run_asm(a, 100);
        assert_eq!(cpu.reg(R3), 3);
        assert_eq!(f64::from_bits(cpu.reg(R2)), 3.0);
    }

    #[test]
    fn syscall_stops_and_resumes() {
        let mut a = Asm::new(0);
        a.movi(R0, 7);
        a.syscall();
        a.mov(R2, R0);
        a.halt();
        let mut mem = FlatMem::new(4096);
        a.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(0);
        let (_, out) = cpu.run(&mut mem, 100).unwrap();
        assert_eq!(out, StepOutcome::Syscall);
        assert_eq!(cpu.reg(R0), 7);
        // kernel writes result
        cpu.set_reg(R0, 1234);
        let (_, out) = cpu.run(&mut mem, 100).unwrap();
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(cpu.reg(R2), 1234);
    }

    #[test]
    fn div_by_zero_faults() {
        let mut a = Asm::new(0);
        a.movi(R1, 1);
        a.movi(R2, 0);
        a.div(R3, R1, R2);
        let mut mem = FlatMem::new(4096);
        a.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(0);
        let err = cpu.run(&mut mem, 10).unwrap_err();
        assert!(matches!(err, CpuFault::DivByZero { .. }));
    }

    #[test]
    fn bad_instruction_faults() {
        let mut mem = FlatMem::new(4096);
        mem.store(0, &[0xff; 16]).unwrap();
        let mut cpu = Cpu::new(0);
        let err = cpu.step(&mut mem).unwrap_err();
        assert!(matches!(
            err,
            CpuFault::BadInstruction {
                pc: 0,
                opcode: 0xff
            }
        ));
    }

    #[test]
    fn halted_cpu_stays_halted() {
        let mut a = Asm::new(0);
        a.halt();
        let mut mem = FlatMem::new(4096);
        a.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(0);
        assert_eq!(cpu.step(&mut mem).unwrap(), StepOutcome::Halted);
        assert!(cpu.is_halted());
        assert_eq!(cpu.step(&mut mem).unwrap(), StepOutcome::Halted);
    }

    #[test]
    fn checkpointable_state_round_trip() {
        let mut cpu = Cpu::new(0x40);
        cpu.set_reg(R3, 99);
        let regs = *cpu.regs();
        let pc = cpu.pc();
        let mut restored = Cpu::new(0);
        restored.set_regs(regs);
        restored.set_pc(pc);
        assert_eq!(cpu, restored);
    }
}
