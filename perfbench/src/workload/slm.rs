//! `slm_steady` and `churn_restore`: the `slm` ring with mostly clean
//! pages, and with seeded random state injected before every epoch.

use std::collections::BTreeMap;

use cluster::CkptOptions;
use cruz::chunk::ChunkId;
use des::{SimDuration, SimRng};
use simos::mem::PAGE_SIZE;
use workloads::slm::{SlmConfig, ITER_COUNTER_ADDR, STATE_BASE};

use super::{Runner, Scale};

pub(super) struct SlmPlan {
    pub(super) slm: SlmConfig,
    pub(super) cycles: usize,
    ckpts_per_cycle: usize,
}

impl SlmPlan {
    pub(super) fn new(scale: Scale) -> Self {
        let (state_bytes, cycles, ckpts_per_cycle) = match scale {
            Scale::Full => (8 << 20, 2, 3),
            Scale::Small => (256 << 10, 1, 2),
        };
        SlmPlan {
            slm: slm_config(4, state_bytes),
            cycles,
            ckpts_per_cycle,
        }
    }
}

fn slm_config(ranks: usize, state_bytes: u64) -> SlmConfig {
    SlmConfig {
        ranks,
        state_bytes,
        iters: u64::MAX / 2,
        compute_ns: 5_000_000,
        halo_bytes: 8 * 1024,
        port: 7100,
        state_step_bytes: 0,
    }
}

fn rank_names(ranks: usize) -> Vec<String> {
    (0..ranks).map(|r| format!("rank{r}")).collect()
}

/// Sum over ranks of the ring's iteration counters.
fn iter_sum(d: &Runner<'_>, ranks: &[String]) -> Option<u64> {
    ranks.iter().map(|r| d.peek_u64(r, ITER_COUNTER_ADDR)).sum()
}

pub(super) fn steady_script(d: &mut Runner<'_>, p: &SlmPlan) {
    let ranks = rank_names(p.slm.ranks);
    let start_iters = iter_sum(d, &ranks).unwrap_or(0);
    let mut rolled_back = 0u64;
    for cycle in 0..p.cycles {
        let mut epoch = None;
        for _ in 0..p.ckpts_per_cycle {
            d.app(SimDuration::from_millis(100));
            epoch = d.checkpoint(CkptOptions::default()).or(epoch);
        }
        let Some(epoch) = epoch else {
            return;
        };
        let store = d.w.store("slm");
        let before: Vec<Option<ChunkId>> = ranks
            .iter()
            .map(|r| store.get_image(r, epoch).map(|b| ChunkId::of(&b)))
            .collect();
        let pre_crash = iter_sum(d, &ranks).unwrap_or(0);
        let n = p.slm.ranks;
        d.crash(&(cycle * n..(cycle + 1) * n).collect::<Vec<_>>());
        if !d.restart(epoch, &Runner::placement(&ranks, (cycle + 1) * n)) {
            return;
        }
        let restored = iter_sum(d, &ranks).unwrap_or(0);
        rolled_back += pre_crash.saturating_sub(restored);
        d.app(SimDuration::from_millis(100));
        let advanced = iter_sum(d, &ranks).unwrap_or(0);
        d.verify(|w| {
            let store = w.store("slm");
            let after: Vec<Option<ChunkId>> = ranks
                .iter()
                .map(|r| store.get_image(r, epoch).map(|b| ChunkId::of(&b)))
                .collect();
            let same = before.iter().all(Option::is_some) && after == before;
            (same && advanced > restored).then(|| {
                let mut v: Vec<u64> = after.iter().flatten().map(|id| id.0).collect();
                v.push(advanced);
                v
            })
        });
    }
    let end_iters = iter_sum(d, &ranks).unwrap_or(0);
    d.rep.model.rx_bytes = (end_iters + rolled_back).saturating_sub(start_iters) * p.slm.halo_bytes;
}

pub(super) struct ChurnPlan {
    pub(super) slm: SlmConfig,
    pub(super) epochs: usize,
    seed: u64,
}

impl ChurnPlan {
    pub(super) fn new(scale: Scale, seed: u64) -> Self {
        let (state_bytes, epochs) = match scale {
            Scale::Full => (8 << 20, 3),
            Scale::Small => (128 << 10, 2),
        };
        ChurnPlan {
            slm: slm_config(2, state_bytes),
            epochs,
            seed,
        }
    }

    /// The bytes injected into `rank`'s state before `epoch`.
    fn churn_bytes(&self, epoch: usize, rank: usize) -> Vec<u8> {
        let mut rng = SimRng::from_seed(
            self.seed ^ ((epoch as u64) << 32) ^ (rank as u64).wrapping_mul(0x9e37_79b9),
        );
        let mut out = vec![0u8; self.slm.state_bytes as usize];
        for b in out.chunks_mut(8) {
            b.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        out
    }
}

/// True if `got` equals `want` everywhere but the first word of each page
/// (the only state bytes the `slm` loop itself writes).
fn state_matches(got: &[u8], want: &[u8]) -> bool {
    got.len() == want.len()
        && got
            .chunks(PAGE_SIZE as usize)
            .zip(want.chunks(PAGE_SIZE as usize))
            .all(|(g, w)| g[8..] == w[8..])
}

pub(super) fn churn_script(d: &mut Runner<'_>, p: &ChurnPlan) {
    let ranks = rank_names(p.slm.ranks);
    let n = p.slm.ranks;
    let start_iters = iter_sum(d, &ranks).unwrap_or(0);
    let mut rolled_back = 0u64;
    for e in 0..p.epochs {
        d.app(SimDuration::from_millis(50));
        let injected: BTreeMap<String, Vec<u8>> = ranks
            .iter()
            .enumerate()
            .map(|(r, name)| (name.clone(), p.churn_bytes(e, r)))
            .collect();
        d.rec.open("inject");
        let mut wrote = true;
        for (name, node, pid) in d.pod_pids() {
            let bytes = &injected[&name];
            wrote &= d.w.kernel(node).write_guest(pid, STATE_BASE, bytes).is_ok();
        }
        d.rec.close();
        if !wrote {
            d.rep.attempted += 1;
            d.rep.failed += 1;
            return;
        }
        let Some(epoch) = d.checkpoint(CkptOptions::default()) else {
            return;
        };
        let pre_crash = iter_sum(d, &ranks).unwrap_or(0);
        d.crash(&(e * n..(e + 1) * n).collect::<Vec<_>>());
        if !d.restart(epoch, &Runner::placement(&ranks, (e + 1) * n)) {
            return;
        }
        rolled_back += pre_crash.saturating_sub(iter_sum(d, &ranks).unwrap_or(0));
        let len = p.slm.state_bytes as usize;
        d.verify(|w| {
            let mut digests = Vec::new();
            for name in &ranks {
                let got = w.peek_guest("slm", name, 1, STATE_BASE, len)?;
                if !state_matches(&got, &injected[name]) {
                    return None;
                }
                digests.push(ChunkId::of(&got[8..]).0);
            }
            Some(digests)
        });
    }
    d.app(SimDuration::from_millis(50));
    let end_iters = iter_sum(d, &ranks).unwrap_or(0);
    d.rep.model.rx_bytes = (end_iters + rolled_back).saturating_sub(start_iters) * p.slm.halo_bytes;
}
