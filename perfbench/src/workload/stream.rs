//! `tcp_stream`: the Fig. 6 gigabit stream across checkpoints and a
//! crash + restart of both pods.

use cluster::{CkptOptions, JobSpec, PodSpec};
use des::{SimDuration, SimTime};
use simnet::addr::{IpAddr, MacAddr};
use simos::program::Program;
use workloads::streaming::{StreamingConfig, RECV_COUNTER_ADDR};
use zap::image::MacMode;

use super::{Runner, Scale};

pub(super) struct StreamPlan {
    cfg: StreamingConfig,
    /// Checkpoint interval before the crash.
    interval: SimDuration,
    /// Checkpoints before the crash.
    ckpts_before: usize,
    /// Simulated time after the restart (covers the RTO backoff).
    after: SimDuration,
}

/// Rate sampling step and sliding window of the stream timeline.
const STEP: SimDuration = SimDuration::from_millis(2);
const WINDOW: SimDuration = SimDuration::from_millis(10);

impl StreamPlan {
    pub(super) fn new(scale: Scale) -> Self {
        let (interval, ckpts_before, after) = match scale {
            Scale::Full => (400, 2, 1_600),
            Scale::Small => (60, 1, 1_300),
        };
        StreamPlan {
            cfg: StreamingConfig {
                receiver_ip: IpAddr::from_octets([10, 0, 1, 2]),
                port: 7200,
                total_bytes: None,
                state_bytes: 4096,
            },
            interval: SimDuration::from_millis(interval),
            ckpts_before,
            after: SimDuration::from_millis(after),
        }
    }

    pub(super) fn job_spec(&self) -> JobSpec {
        let pod = |name: &str, i: u8, program: Program| PodSpec {
            name: name.into(),
            ip: IpAddr::from_octets([10, 0, 1, i]),
            mac_mode: MacMode::Dedicated(MacAddr::from_index(2100 + i as u32)),
            node: i as usize - 1,
            programs: vec![program],
        };
        JobSpec {
            name: "stream".into(),
            coordinator_node: 2,
            pods: vec![
                pod("sender", 1, self.cfg.sender_program()),
                pod("receiver", 2, self.cfg.receiver_program()),
            ],
        }
    }
}

/// Samples the receiver counter every [`STEP`] until `t`.
fn stream_until(d: &mut Runner<'_>, t: SimTime, history: &mut Vec<(SimTime, u64)>) {
    while d.w.now < t {
        let next = (d.w.now + STEP).min(t);
        d.app_until(next);
        let c = d.peek_u64("receiver", RECV_COUNTER_ADDR).unwrap_or(0);
        history.push((d.w.now, c));
    }
}

/// Bytes received over the [`WINDOW`] ending at sample `i`, as bits/s.
fn window_rate(history: &[(SimTime, u64)], i: usize) -> u64 {
    let (at, bytes) = history[i];
    let from = history[..i]
        .iter()
        .rev()
        .find(|(t, _)| at.duration_since(*t) >= WINDOW)
        .copied()
        .unwrap_or(history[0]);
    let dt = at.duration_since(from.0).as_nanos();
    if dt == 0 {
        return 0;
    }
    // Saturating: a restart rolls the counter back to its checkpoint.
    (bytes.saturating_sub(from.1) as u128 * 8 * 1_000_000_000 / dt as u128) as u64
}

pub(super) fn script(d: &mut Runner<'_>, p: &StreamPlan) {
    let t_start = d.w.now;
    let c_start = d.peek_u64("receiver", RECV_COUNTER_ADDR).unwrap_or(0);
    let mut history = vec![(t_start, c_start)];
    let mut epoch = None;
    for k in 0..p.ckpts_before {
        stream_until(
            d,
            t_start + p.interval / 2 + p.interval * k as u64,
            &mut history,
        );
        epoch = d.checkpoint(CkptOptions::default()).or(epoch);
    }
    // The pre-checkpoint rate: every full window before the first op.
    let first_op = t_start + p.interval / 2;
    let pre: Vec<u64> = (0..history.len())
        .filter(|&i| history[i].0.duration_since(t_start) >= WINDOW && history[i].0 <= first_op)
        .map(|i| window_rate(&history, i))
        .collect();
    let pre_rate = pre.iter().sum::<u64>() / pre.len().max(1) as u64;
    let crash_at = t_start + p.interval * p.ckpts_before as u64;
    stream_until(d, crash_at, &mut history);
    let pre_crash = d.peek_u64("receiver", RECV_COUNTER_ADDR).unwrap_or(0);
    let Some(epoch) = epoch else {
        return;
    };
    d.crash(&[0, 1]);
    let pods = ["sender".to_owned(), "receiver".to_owned()];
    if !d.restart(epoch, &Runner::placement(&pods, 3)) {
        return;
    }
    let t_restored = d.w.now;
    let restored = d.peek_u64("receiver", RECV_COUNTER_ADDR).unwrap_or(0);
    history.push((t_restored, restored));
    let i_restored = history.len() - 1;
    // One more checkpoint of the restored connection, then the tail.
    stream_until(d, t_restored + p.after * 3 / 4, &mut history);
    d.checkpoint(CkptOptions::default());
    stream_until(d, t_restored + p.after, &mut history);
    let end = d.peek_u64("receiver", RECV_COUNTER_ADDR).unwrap_or(0);
    let recovered = (i_restored + 1..history.len())
        .find(|&i| {
            history[i].0.duration_since(t_restored) > WINDOW
                && window_rate(&history, i) * 2 >= pre_rate
        })
        .map(|i| history[i].0.duration_since(t_restored).as_nanos());
    d.verify(|_| {
        let resumed = restored <= pre_crash && end > restored;
        (resumed && recovered.is_some()).then_some(vec![pre_crash, restored, end])
    });
    let m = &mut d.rep.model;
    let sim = d.w.now.duration_since(t_start).as_nanos().max(1);
    let delivered = end.saturating_sub(c_start) + pre_crash.saturating_sub(restored);
    m.rx_bytes = delivered;
    m.stream_goodput_bps =
        (end.saturating_sub(c_start) as u128 * 8 * 1_000_000_000 / sim as u128) as u64;
    m.stream_recovery_ns = recovered.unwrap_or(0);
}
