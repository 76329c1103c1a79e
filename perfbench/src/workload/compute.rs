//! `guest_compute`: an ALU loop and a seeded memory loop, run to exit
//! across two checkpoints and a restart.

use cluster::{CkptOptions, JobSpec, PodSpec};
use des::{SimDuration, SimRng};
use simcpu::asm::Asm;
use simcpu::isa::{R1, R11, R12, R13, R14, R5, R9};
use simnet::addr::{IpAddr, MacAddr};
use simos::guest::AsmOs;
use simos::mem::PAGE_SIZE;
use simos::program::{Program, CODE_BASE, DATA_BASE};
use simos::syscall::nr;
use workloads::ComputeConfig;
use zap::image::MacMode;

use super::{Runner, Scale};

/// Guest address of the memory loop's page table (one word address per
/// working-set page, in seeded visiting order).
const TABLE_ADDR: u64 = DATA_BASE;
/// Guest address of the memory loop's working-set region.
const WS_BASE: u64 = 0x0400_0000;
/// Pages in the working-set region; the seed picks which are visited.
const WS_REGION_PAGES: u64 = 256;

pub(super) struct ComputePlan {
    pub(super) alu: ComputeConfig,
    /// Word addresses the memory loop visits, in order (one per page).
    table: Vec<u64>,
    /// Initial contents of the working-set region.
    region: Vec<u8>,
    /// Memory-loop iterations.
    pub(super) iters: u64,
}

impl ComputePlan {
    pub(super) fn new(scale: Scale, seed: u64) -> Self {
        let (outer, iters, pages) = match scale {
            Scale::Full => (1_600, 600_000, 48),
            Scale::Small => (40, 15_000, 16),
        };
        let mut rng = SimRng::from_seed(seed);
        let mut region = vec![0u8; (WS_REGION_PAGES * PAGE_SIZE) as usize];
        for b in region.chunks_mut(8) {
            b.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        // A seeded choice of distinct pages and of one word in each.
        let mut order: Vec<u64> = (0..WS_REGION_PAGES).collect();
        for i in (1..order.len()).rev() {
            let j = rng.range(0, i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let table = order[..pages]
            .iter()
            .map(|&p| WS_BASE + p * PAGE_SIZE + rng.range(0, PAGE_SIZE / 8) * 8)
            .collect();
        ComputePlan {
            alu: ComputeConfig {
                outer,
                inner: 1_000,
            },
            table,
            region,
            iters,
        }
    }

    /// The memory loop: `iters` times add the iteration index to the next
    /// table word (one load and one store per iteration), then exit with
    /// the sum of the visited words mod 251.
    pub(super) fn mem_program(&self) -> Program {
        let n = self.table.len() as i64;
        let mut a = Asm::new(CODE_BASE);
        a.movi(R9, 0);
        let top = a.label();
        a.bind(top);
        a.mov(R11, R9);
        a.remi(R11, R11, n);
        a.shli(R11, R11, 3);
        a.addi(R11, R11, TABLE_ADDR as i64);
        a.ld(R12, R11, 0);
        a.ld(R13, R12, 0);
        a.add(R13, R13, R9);
        a.st(R12, R13, 0);
        a.addi(R9, R9, 1);
        a.movi(R5, self.iters as i64);
        a.cltu(R14, R9, R5);
        a.jnz(R14, top);
        // Checksum pass over the table.
        a.movi(R9, 0);
        a.movi(R13, 0);
        let sum = a.label();
        a.bind(sum);
        a.mov(R11, R9);
        a.shli(R11, R11, 3);
        a.addi(R11, R11, TABLE_ADDR as i64);
        a.ld(R12, R11, 0);
        a.ld(R12, R12, 0);
        a.add(R13, R13, R12);
        a.addi(R9, R9, 1);
        a.movi(R5, n);
        a.cltu(R14, R9, R5);
        a.jnz(R14, sum);
        a.remi(R1, R13, 251);
        a.sys(nr::EXIT);
        let table: Vec<u8> = self.table.iter().flat_map(|a| a.to_le_bytes()).collect();
        Program::from_asm(&a)
            .expect("memory loop assembles")
            .with_data(TABLE_ADDR, table)
            .with_data(WS_BASE, self.region.clone())
    }

    /// The ALU loop's exit code, from its loop bounds.
    fn alu_expected(&self) -> u64 {
        let inner = self.alu.inner;
        (self.alu.outer * (inner * (inner - 1) / 2)) % 251
    }

    /// The memory loop's exit code, computed on the host.
    fn mem_expected(&self) -> u64 {
        let mut words: Vec<u64> = self
            .table
            .iter()
            .map(|&a| {
                let off = (a - WS_BASE) as usize;
                u64::from_le_bytes(self.region[off..off + 8].try_into().unwrap_or([0; 8]))
            })
            .collect();
        let n = words.len() as u64;
        for i in 0..self.iters {
            let j = (i % n) as usize;
            words[j] = words[j].wrapping_add(i);
        }
        words.iter().fold(0u64, |s, &w| s.wrapping_add(w)) % 251
    }

    /// Guest instructions of both loops (bounds the simulated run length).
    fn approx_insts(&self) -> u64 {
        (self.alu.outer * self.alu.inner * 5).max(self.iters * 12)
    }

    pub(super) fn job_spec(&self) -> JobSpec {
        let pod = |name: &str, i: u8, program: Program| PodSpec {
            name: name.into(),
            ip: IpAddr::from_octets([10, 0, 3, i]),
            mac_mode: MacMode::Dedicated(MacAddr::from_index(2300 + i as u32)),
            node: i as usize - 1,
            programs: vec![program],
        };
        JobSpec {
            name: "gc".into(),
            coordinator_node: 2,
            pods: vec![
                pod("alu", 1, self.alu.program()),
                pod("mem", 2, self.mem_program()),
            ],
        }
    }
}

pub(super) fn script(d: &mut Runner<'_>, p: &ComputePlan) {
    // Checkpoints at ≈25 % and ≈50 % of the run, crash at ≈60 %; the
    // restored pods then run to exit on the spares.
    let quarter = SimDuration::from_nanos(p.approx_insts() / 4);
    let opts = CkptOptions::default();
    d.app(quarter);
    d.checkpoint(opts);
    d.app(quarter);
    let Some(epoch) = d.checkpoint(opts) else {
        return;
    };
    d.app(quarter / 2);
    d.crash(&[0, 1]);
    let pods = ["alu".to_owned(), "mem".to_owned()];
    if !d.restart(epoch, &Runner::placement(&pods, 3)) {
        return;
    }
    let exited = d.app_to_exit();
    let want = [p.alu_expected(), p.mem_expected()];
    d.verify(|w| {
        let got: Vec<u64> = pods
            .iter()
            .map(|pod| w.pod_exit_code("gc", pod, 1))
            .collect::<Option<_>>()?;
        (exited && got == want).then_some(got)
    });
}
