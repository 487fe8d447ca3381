//! Deterministic, seeded fault injection for the simulated device.
//!
//! The ODIN replay-driven-simulation line of work motivates testing
//! failure handling against *reproducible* fault schedules rather than
//! random chaos: a schedule derived from a seed can be replayed
//! bit-for-bit, so a CPU-fallback bug found under seed 17 stays
//! debuggable. A [`FaultPlan`] is such a schedule: a list of one-shot
//! [`Fault`]s addressed by deterministic device counters (the Nth
//! allocation, the Kth kernel launch, the Nth stream operation). The
//! plan is installed at runtime with [`Device::set_fault_plan`] and is
//! **off by default** — a device without a plan never injects anything
//! and pays one relaxed atomic load per operation.
//!
//! [`Device::set_fault_plan`]: crate::Device::set_fault_plan

/// One injected fault. Every fault fires at most once (it is consumed
/// by the operation it hits), which models transient failures and
/// guarantees that a retry loop with enough attempts eventually runs
/// fault-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the `nth` stream-ordered allocation (0-based, device-wide)
    /// with [`XpuError::Oom`](crate::XpuError::Oom).
    AllocOom {
        /// Which allocation to fail.
        nth: u64,
    },
    /// Fail the `nth` host/device transfer (0-based, uploads and
    /// downloads share the counter) with [`XpuError::TransferError`](crate::XpuError::TransferError).
    TransferFail {
        /// Which transfer to fail.
        nth: u64,
    },
    /// Panic in the `kernel`-th launch (0-based, device-wide) inside
    /// the SPMD thread with global id `thread`. The panic is raised in
    /// the worker and caught by the launch, surfacing as
    /// [`XpuError::KernelPanic`](crate::XpuError::KernelPanic). A `thread` beyond the launch's useful
    /// thread count never fires (the fault is discarded).
    KernelPanic {
        /// Launch ordinal to hit.
        kernel: u64,
        /// Global thread id that panics.
        thread: usize,
    },
    /// Stall the `nth` data operation of a stream (0-based,
    /// device-wide) past the watchdog, surfacing as
    /// [`XpuError::StreamTimeout`](crate::XpuError::StreamTimeout).
    StreamStall {
        /// Which stream operation to stall.
        nth: u64,
    },
    /// Fail the `nth` *shard-load* allocation (0-based, device-wide).
    /// Shard loads are the host-side scene builds of the out-of-core
    /// checker, consulted via [`Device::fault_shard_load`]; a fired
    /// fault makes the shard pool treat the build as an allocation
    /// failure and exercise its evict/degrade path without real memory
    /// pressure.
    ///
    /// [`Device::fault_shard_load`]: crate::Device::fault_shard_load
    AllocFail {
        /// Which shard load to fail.
        nth: u64,
    },
    /// Report the `nth` *shard completion* (0-based, device-wide) as the
    /// point where the process dies. Shard completions are the journaled
    /// `(rule, shard)` units of the out-of-core checker, consulted via
    /// [`Device::fault_shard_done`] right after the journal record; the
    /// checker aborts the process when it fires — a deterministic
    /// SIGKILL between shards, driving the kill/resume coverage (the
    /// hidden `odrc --chaos-kill-at-shard K` flag). Not part of
    /// [`FaultPlan::from_seed`] schedules: a seeded sweep must survive
    /// its own faults.
    ///
    /// [`Device::fault_shard_done`]: crate::Device::fault_shard_done
    ShardKill {
        /// Which shard completion to die after.
        nth: u64,
    },
    /// Genuinely hang the `nth` stream data operation (0-based,
    /// device-wide) for `millis` of real wall-clock time before letting
    /// it proceed. Unlike [`Fault::StreamStall`] — which *reports* a
    /// timeout without wasting any time — a hang only becomes an error
    /// if a watchdog is armed ([`Device::set_watchdog`]) and the hang
    /// outlives it; this is how the watchdog's genuine-stall detection
    /// is tested end to end. Not part of [`FaultPlan::from_seed`]
    /// schedules (seeded schedules stay wall-clock-free and
    /// reproducible across machines).
    ///
    /// [`Device::set_watchdog`]: crate::Device::set_watchdog
    StreamHang {
        /// Which stream operation to hang.
        nth: u64,
        /// How long the operation sleeps, in milliseconds.
        millis: u64,
    },
}

/// A deterministic schedule of one-shot faults.
///
/// # Examples
///
/// ```
/// use odrc_xpu::{Device, Fault, FaultPlan, XpuError};
///
/// let device = Device::new(2);
/// device.set_fault_plan(Some(FaultPlan::new().with(Fault::AllocOom { nth: 0 })));
/// let stream = device.stream();
/// assert!(matches!(
///     stream.try_alloc::<u64>(10),
///     Err(XpuError::Oom { .. })
/// ));
/// // The fault was consumed: the retry succeeds.
/// assert!(stream.try_alloc::<u64>(10).is_ok());
/// assert_eq!(device.faults_injected(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub(crate) faults: Vec<Fault>,
}

/// SplitMix64: a tiny, high-quality step function used to derive fault
/// schedules from a seed without depending on an RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds one fault to the schedule.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Derives a pseudo-random schedule of `n_faults` faults from a
    /// seed. The same `(seed, n_faults)` pair always produces the same
    /// schedule, making failures reproducible by quoting the seed.
    ///
    /// Counters are drawn from small ranges (allocations/transfers/
    /// stream ops in `0..64`, kernels in `0..32`, threads in `0..2048`,
    /// shard loads in `0..16`) so schedules are likely to actually fire
    /// on realistic workloads; faults addressing operations a run never
    /// reaches simply stay dormant.
    pub fn from_seed(seed: u64, n_faults: usize) -> FaultPlan {
        let mut state = seed_state(seed);
        let mut faults = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let kind = splitmix64(&mut state) % 5;
            let fault = match kind {
                0 => Fault::AllocOom {
                    nth: splitmix64(&mut state) % 64,
                },
                1 => Fault::TransferFail {
                    nth: splitmix64(&mut state) % 64,
                },
                2 => Fault::KernelPanic {
                    kernel: splitmix64(&mut state) % 32,
                    thread: (splitmix64(&mut state) % 2048) as usize,
                },
                3 => Fault::StreamStall {
                    nth: splitmix64(&mut state) % 64,
                },
                _ => Fault::AllocFail {
                    nth: splitmix64(&mut state) % 16,
                },
            };
            faults.push(fault);
        }
        FaultPlan { faults }
    }

    /// Number of faults still pending in the schedule.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the schedule holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Salts the seed so `from_seed(0, ..)` is not the all-zero SplitMix64
/// stream.
fn seed_state(seed: u64) -> u64 {
    seed ^ 0x0dcc_5eed_fa17_0001
}

/// Mutable injector state owned by the device: the remaining schedule
/// plus a count of faults actually delivered.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    remaining: Vec<Fault>,
    injected: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            remaining: plan.faults,
            injected: 0,
        }
    }

    pub(crate) fn injected(&self) -> u64 {
        self.injected
    }

    /// Consumes a matching alloc fault for allocation ordinal `n`.
    pub(crate) fn take_alloc(&mut self, n: u64) -> bool {
        self.take(|f| matches!(f, Fault::AllocOom { nth } if *nth == n))
    }

    /// Consumes a matching transfer fault for transfer ordinal `n`.
    pub(crate) fn take_transfer(&mut self, n: u64) -> bool {
        self.take(|f| matches!(f, Fault::TransferFail { nth } if *nth == n))
    }

    /// Consumes a matching stream-stall fault for op ordinal `n`.
    pub(crate) fn take_stream_op(&mut self, n: u64) -> bool {
        self.take(|f| matches!(f, Fault::StreamStall { nth } if *nth == n))
    }

    /// Consumes a matching shard-load fault for load ordinal `n`.
    pub(crate) fn take_shard_load(&mut self, n: u64) -> bool {
        self.take(|f| matches!(f, Fault::AllocFail { nth } if *nth == n))
    }

    /// Consumes a matching shard-kill fault for completion ordinal `n`.
    pub(crate) fn take_shard_done(&mut self, n: u64) -> bool {
        self.take(|f| matches!(f, Fault::ShardKill { nth } if *nth == n))
    }

    /// Consumes a matching stream-hang fault for op ordinal `n`,
    /// returning the hang duration in milliseconds.
    pub(crate) fn take_stream_hang(&mut self, n: u64) -> Option<u64> {
        let idx = self
            .remaining
            .iter()
            .position(|f| matches!(f, Fault::StreamHang { nth, .. } if *nth == n))?;
        let Fault::StreamHang { millis, .. } = self.remaining.swap_remove(idx) else {
            unreachable!("position matched a StreamHang");
        };
        self.injected += 1;
        Some(millis)
    }

    /// Consumes a kernel-panic fault for launch ordinal `k`, returning
    /// the global thread id that must panic. Faults whose thread id
    /// falls outside the launch's `useful_threads` are discarded
    /// without counting as injected (they can never fire: launch
    /// ordinals are unique).
    pub(crate) fn take_kernel(&mut self, k: u64, useful_threads: usize) -> Option<usize> {
        let idx = self
            .remaining
            .iter()
            .position(|f| matches!(f, Fault::KernelPanic { kernel, .. } if *kernel == k))?;
        let Fault::KernelPanic { thread, .. } = self.remaining.swap_remove(idx) else {
            unreachable!("position matched a KernelPanic");
        };
        if thread < useful_threads {
            self.injected += 1;
            Some(thread)
        } else {
            None
        }
    }

    fn take(&mut self, pred: impl Fn(&Fault) -> bool) -> bool {
        if let Some(idx) = self.remaining.iter().position(pred) {
            self.remaining.swap_remove(idx);
            self.injected += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        let a = FaultPlan::from_seed(17, 8);
        let b = FaultPlan::from_seed(17, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let c = FaultPlan::from_seed(18, 8);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn faults_fire_once() {
        let plan = FaultPlan::new()
            .with(Fault::AllocOom { nth: 2 })
            .with(Fault::StreamStall { nth: 0 });
        let mut state = FaultState::new(plan);
        assert!(!state.take_alloc(0));
        assert!(!state.take_alloc(1));
        assert!(state.take_alloc(2));
        assert!(!state.take_alloc(2), "consumed faults never refire");
        assert!(state.take_stream_op(0));
        assert_eq!(state.injected(), 2);
    }

    #[test]
    fn stream_hang_fires_once_with_duration() {
        let plan = FaultPlan::new().with(Fault::StreamHang { nth: 3, millis: 25 });
        let mut state = FaultState::new(plan);
        assert_eq!(state.take_stream_hang(2), None);
        assert_eq!(state.take_stream_hang(3), Some(25));
        assert_eq!(state.take_stream_hang(3), None, "consumed, never refires");
        assert_eq!(state.injected(), 1);
        // Hangs and stalls use separate matchers on the shared ordinal.
        assert!(!state.take_stream_op(3));
    }

    #[test]
    fn kernel_fault_masked_by_thread_count() {
        let plan = FaultPlan::new().with(Fault::KernelPanic {
            kernel: 1,
            thread: 100,
        });
        let mut state = FaultState::new(plan);
        assert_eq!(state.take_kernel(0, 1000), None);
        // Thread 100 is outside a 10-thread launch: discarded silently.
        assert_eq!(state.take_kernel(1, 10), None);
        assert_eq!(state.injected(), 0);
        // And it does not linger for later launches.
        assert_eq!(state.take_kernel(1, 1000), None);
    }

    #[test]
    fn kernel_fault_fires_in_range() {
        let plan = FaultPlan::new().with(Fault::KernelPanic {
            kernel: 3,
            thread: 7,
        });
        let mut state = FaultState::new(plan);
        assert_eq!(state.take_kernel(3, 64), Some(7));
        assert_eq!(state.injected(), 1);
    }

    #[test]
    fn seed_state_salts_zero() {
        assert_ne!(seed_state(0), 0);
    }

    #[test]
    fn shard_load_faults_fire_once() {
        let plan = FaultPlan::new().with(Fault::AllocFail { nth: 1 });
        let mut state = FaultState::new(plan);
        assert!(!state.take_shard_load(0));
        assert!(state.take_shard_load(1));
        assert!(!state.take_shard_load(1), "consumed, never refires");
        assert_eq!(state.injected(), 1);
        // Shard loads and device allocations use separate matchers.
        let mut state = FaultState::new(FaultPlan::new().with(Fault::AllocOom { nth: 0 }));
        assert!(!state.take_shard_load(0));
        // Shard completions are a third ordinal with its own matcher.
        let mut state = FaultState::new(FaultPlan::new().with(Fault::ShardKill { nth: 2 }));
        assert!(!state.take_shard_load(2));
        assert!(!state.take_shard_done(1));
        assert!(state.take_shard_done(2));
        assert!(!state.take_shard_done(2), "consumed, never refires");
    }

    #[test]
    fn seeded_schedules_draw_shard_load_faults() {
        // With five kinds in the draw, a modest sweep of seeds must
        // produce at least one AllocFail (probabilistic only in the
        // sense that the fixed seeds below are known to cover it).
        let any = (0..32).any(|seed| {
            FaultPlan::from_seed(seed, 8)
                .faults
                .iter()
                .any(|f| matches!(f, Fault::AllocFail { .. }))
        });
        assert!(any, "seeded sweeps must exercise the shard-load fault");
    }
}
