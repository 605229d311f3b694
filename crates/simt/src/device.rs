//! The simulated device: kernel launches, buffer binding, and the trace.

use crate::batch::{BatchState, BatchSummary};
use crate::block::Block;
use crate::buffer::GBuf;
use crate::inject::{ArmedFault, DeathMode, DeathState, Fault};
use crate::lane::{Lane, WarpAcc, WarpTotals};
use crate::profile::DeviceProfile;
use crate::stats::{DeviceTrace, KernelStats, LaunchRecord};
use crate::timing::TimingModel;
use crate::{pool, WARP_SIZE};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Below this many warps a launch runs on the calling thread; above it,
/// warps are distributed over the persistent host-thread pool. Purely a
/// host-side execution detail — modeled time is identical either way.
const PARALLEL_WARP_THRESHOLD: usize = 64;

thread_local! {
    /// Per-thread slot accumulators of the warp in flight; their vectors
    /// keep their capacity across launches, so the steady-state hot loop
    /// accounts lane accesses without touching the heap.
    static WARP_SCRATCH: RefCell<WarpAcc> = const { RefCell::new(WarpAcc::new()) };
    /// Per-thread counter accumulator for the launch in flight.
    static LOCAL_STATS: RefCell<KernelStats> = const { RefCell::new(KernelStats::new()) };
}

/// The launch trace, its modeled seconds so far, and the open phase. The
/// total is added to in push order from the empty sum, i.e. it is the same
/// left fold as [`DeviceTrace::total_seconds`] and equal to it bit for bit,
/// without walking the records on every [`Device::modeled_seconds`] call.
struct TraceLog {
    trace: DeviceTrace,
    seconds: f64,
    phase: &'static str,
}

impl TraceLog {
    fn new(phase: &'static str) -> TraceLog {
        let trace = DeviceTrace::default();
        let seconds = trace.total_seconds();
        TraceLog {
            trace,
            seconds,
            phase,
        }
    }

    fn push(&mut self, name: &'static str, stats: KernelStats, seconds: f64) {
        self.seconds += seconds;
        let phase = self.phase;
        self.trace.records.push(LaunchRecord {
            name,
            phase,
            stats,
            seconds,
        });
    }
}

/// A simulated GPU (or the serial-CPU baseline platform).
///
/// The device owns a [`DeviceProfile`], a [`TimingModel`] and a trace of
/// every kernel launched since the last reset. Kernels execute for real on
/// the host; the trace carries their architectural counters and modeled
/// times.
pub struct Device {
    profile: DeviceProfile,
    model: TimingModel,
    check_conflicts: bool,
    trace: Mutex<TraceLog>,
    batch: Mutex<Option<BatchState>>,
    next_base: AtomicU64,
    epoch: AtomicU32,
    faults: Mutex<Vec<ArmedFault>>,
    death: Mutex<DeathState>,
}

impl Device {
    /// Creates a device with the given hardware profile and the default
    /// timing model.
    pub fn new(profile: DeviceProfile) -> Self {
        Device {
            profile,
            model: TimingModel::default(),
            check_conflicts: false,
            trace: Mutex::new(TraceLog::new("")),
            batch: Mutex::new(None),
            next_base: AtomicU64::new(1 << 12),
            epoch: AtomicU32::new(0),
            faults: Mutex::new(Vec::new()),
            death: Mutex::new(DeathState::default()),
        }
    }

    /// Arms or disarms the global-memory write-conflict detector for
    /// buffers bound *after* this call. See the crate docs.
    pub fn with_conflict_checking(mut self, on: bool) -> Self {
        self.check_conflicts = on;
        self
    }

    /// Replaces the timing model.
    pub fn with_timing_model(mut self, model: TimingModel) -> Self {
        self.model = model;
        self
    }

    /// The device's hardware profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The device's timing model.
    pub fn model(&self) -> &TimingModel {
        &self.model
    }

    /// Binds a host slice as a read-write device buffer.
    pub fn bind<'a, T: Copy + Send>(&self, slice: &'a mut [T]) -> GBuf<'a, T> {
        let bytes = std::mem::size_of_val(slice) as u64;
        let base = self.alloc_base(bytes);
        GBuf::new_rw(slice, base, self.check_conflicts)
    }

    /// Binds a host slice as a read-only device buffer.
    pub fn bind_ro<'a, T: Copy + Send>(&self, slice: &'a [T]) -> GBuf<'a, T> {
        let bytes = std::mem::size_of_val(slice) as u64;
        let base = self.alloc_base(bytes);
        GBuf::new_ro(slice, base)
    }

    fn alloc_base(&self, bytes: u64) -> u64 {
        let rounded = (bytes + 255) & !127; // pad and 128-align
        self.next_base
            .fetch_add(rounded.max(128), Ordering::Relaxed)
    }

    /// Launches a per-thread kernel: `f` runs once per simulated thread.
    ///
    /// Returns the launch's architectural counters (also appended to the
    /// device trace together with its modeled time).
    ///
    /// ```
    /// use dda_simt::{Device, DeviceProfile};
    ///
    /// let dev = Device::new(DeviceProfile::tesla_k40());
    /// let x = vec![1.0f64; 1024];
    /// let mut y = vec![0.0f64; 1024];
    /// let bx = dev.bind_ro(&x);
    /// let by = dev.bind(&mut y);
    /// let stats = dev.launch("double", 1024, |lane| {
    ///     let v = lane.ld(&bx, lane.gid);
    ///     lane.flop(1);
    ///     lane.st(&by, lane.gid, 2.0 * v);
    /// });
    /// drop(by);
    /// assert_eq!(y[7], 2.0);
    /// assert_eq!(stats.flops, 1024);
    /// assert!(dev.modeled_seconds() > 0.0);
    /// ```
    pub fn launch<F>(&self, name: &'static str, threads: usize, f: F) -> KernelStats
    where
        F: Fn(&mut Lane) + Sync,
    {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let n_warps = threads.div_ceil(WARP_SIZE);

        let run_warp = |w: usize, acc: &mut WarpAcc, stats: &mut KernelStats| {
            let first = w * WARP_SIZE;
            let mut totals = WarpTotals::default();
            acc.begin();
            for gid in first..threads.min(first + WARP_SIZE) {
                let mut lane = Lane::new(gid, epoch, acc);
                f(&mut lane);
                lane.retire(&mut totals);
            }
            acc.finish(totals, stats);
        };

        let mut stats = if n_warps <= PARALLEL_WARP_THRESHOLD {
            WARP_SCRATCH.with(|cell| {
                let mut acc = cell.borrow_mut();
                let mut stats = KernelStats::default();
                for w in 0..n_warps {
                    run_warp(w, &mut acc, &mut stats);
                }
                stats
            })
        } else {
            let total = Mutex::new(KernelStats::default());
            let task = |w: usize| {
                WARP_SCRATCH.with(|cell| {
                    LOCAL_STATS.with(|stats| {
                        run_warp(w, &mut cell.borrow_mut(), &mut stats.borrow_mut());
                    });
                });
            };
            let finish = || {
                let local = LOCAL_STATS.with(|stats| std::mem::take(&mut *stats.borrow_mut()));
                total.lock().unwrap().merge(&local);
            };
            pool::global().run(n_warps, &task, &finish);
            total.into_inner().unwrap()
        };

        stats.launches = 1;
        stats.threads = threads as u64;
        stats.warps = n_warps as u64;
        self.record(name, stats);
        stats
    }

    /// Launches a block-granular cooperative kernel: `f` runs once per
    /// thread block with a [`Block`] context of `block_size` threads.
    pub fn launch_blocks<F>(
        &self,
        name: &'static str,
        blocks: usize,
        block_size: usize,
        f: F,
    ) -> KernelStats
    where
        F: Fn(&mut Block) + Sync,
    {
        assert!(
            block_size > 0 && block_size.is_multiple_of(WARP_SIZE),
            "block size must be a positive multiple of {WARP_SIZE}"
        );
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;

        let mut stats = if blocks <= 8 {
            let mut stats = KernelStats::default();
            for b in 0..blocks {
                let mut blk = Block::new(b, block_size, epoch);
                f(&mut blk);
                stats.merge(&blk.stats);
            }
            stats
        } else {
            let total = Mutex::new(KernelStats::default());
            let task = |b: usize| {
                let mut blk = Block::new(b, block_size, epoch);
                f(&mut blk);
                LOCAL_STATS.with(|stats| stats.borrow_mut().merge(&blk.stats));
            };
            let finish = || {
                let local = LOCAL_STATS.with(|stats| std::mem::take(&mut *stats.borrow_mut()));
                total.lock().unwrap().merge(&local);
            };
            pool::global().run(blocks, &task, &finish);
            total.into_inner().unwrap()
        };

        stats.launches = 1;
        stats.threads = (blocks * block_size) as u64;
        stats.warps = (blocks * block_size.div_ceil(WARP_SIZE)) as u64;
        self.record(name, stats);
        stats
    }

    /// Records an externally-assembled report (used by serial reference
    /// code that models the E5620 baseline without simulated warps).
    pub fn record_external(&self, name: &'static str, stats: KernelStats) -> f64 {
        self.record(name, stats)
    }

    fn record(&self, name: &'static str, stats: KernelStats) -> f64 {
        if let Some(batch) = self.batch.lock().unwrap().as_mut() {
            // Inside a batch region the launch is parked for merging; its
            // modeled time is attributed when the region closes.
            batch.push(name, stats);
            return 0.0;
        }
        let seconds = self.model.seconds(&stats, &self.profile);
        self.trace.lock().unwrap().push(name, stats, seconds);
        seconds
    }

    /// Runs `f` with every launch it records tagged `phase` (a pipeline
    /// module, say): direct launches, [`Device::record_external`] and the
    /// merged records of a batch region closed inside it. The enclosing
    /// phase (empty outside any) is restored after. The phase outlives
    /// [`Device::reset_trace`] and [`Device::take_trace`].
    pub fn in_phase<R>(&self, phase: &'static str, f: impl FnOnce() -> R) -> R {
        let outer = std::mem::replace(&mut self.trace.lock().unwrap().phase, phase);
        let out = f();
        self.trace.lock().unwrap().phase = outer;
        out
    }

    /// Opens a batch region over `n_segments` independent work streams
    /// (e.g. scenes). Until [`Device::batch_end`], launches are *parked*
    /// instead of priced: matching kernels from different segments are
    /// merged into single launch records, modeling the fused kernel a real
    /// batched implementation would issue. Call [`Device::batch_segment`]
    /// before each segment's launches. Panics if a region is already open.
    pub fn batch_begin(&self, n_segments: usize) {
        let mut batch = self.batch.lock().unwrap();
        assert!(batch.is_none(), "nested batch regions are not supported");
        *batch = Some(BatchState::new(n_segments));
    }

    /// Declares which segment subsequent launches belong to. Panics if no
    /// batch region is open or `i` is out of range.
    pub fn batch_segment(&self, i: usize) {
        self.batch
            .lock()
            .unwrap()
            .as_mut()
            .expect("batch_segment() outside a batch region")
            .set_segment(i);
    }

    /// Closes the batch region: merged launch records are priced and
    /// appended to the trace under the open [`Device::in_phase`], and the
    /// accounting (launches in/out, seconds, per-segment attribution) is
    /// returned. Panics if no region is open.
    pub fn batch_end(&self) -> BatchSummary {
        let state = self
            .batch
            .lock()
            .unwrap()
            .take()
            .expect("batch_end() without batch_begin()");
        let (records, summary) = state.finish(&self.model, &self.profile);
        let mut log = self.trace.lock().unwrap();
        for (name, stats, seconds) in records {
            log.push(name, stats, seconds);
        }
        summary
    }

    /// Arms `fault` against batch segment `segment` for the next `times`
    /// firings (`usize::MAX` = every opportunity). Deterministic: firings
    /// are consumed in program order at the instrumented call sites.
    pub fn arm_fault(&self, segment: usize, fault: Fault, times: usize) {
        self.faults.lock().unwrap().push(ArmedFault {
            segment,
            fault,
            remaining: times,
        });
    }

    /// Arms a device death: after `after_polls` further calls to
    /// [`Device::poll_step_boundary`] the device dies in `mode`
    /// ([`DeathMode::Crash`] fail-stop or [`DeathMode::Hang`]
    /// fail-silent). Re-arming replaces a previously armed (but not yet
    /// fired) death.
    pub fn arm_device_death(&self, mode: DeathMode, after_polls: usize) {
        self.death.lock().unwrap().armed = Some((mode, after_polls));
    }

    /// Polls whether `fault` is armed for the *current batch segment*,
    /// consuming one firing when it is. With nothing armed, outside a
    /// batch region, or for an unarmed segment this is always false, so
    /// instrumented call sites are inert unless a caller arms them.
    pub fn fault_fires(&self, fault: Fault) -> bool {
        let mut faults = self.faults.lock().unwrap();
        if faults.is_empty() {
            return false;
        }
        let Some(seg) = self
            .batch
            .lock()
            .unwrap()
            .as_ref()
            .and_then(|b| b.current_segment())
        else {
            return false;
        };
        for f in faults.iter_mut() {
            if f.fault == fault && f.segment == seg && f.remaining > 0 {
                if f.remaining != usize::MAX {
                    f.remaining -= 1;
                }
                return true;
            }
        }
        false
    }

    /// Disarms every fault.
    pub fn disarm_faults(&self) {
        self.faults.lock().unwrap().clear();
    }

    /// Step-boundary liveness poll. A fleet router calls this once per
    /// step boundary before dispatching work; each call consumes one tick
    /// of a death armed with [`Device::arm_device_death`], and the death
    /// fires (permanently) when the countdown reaches zero. With nothing
    /// armed this is a no-op, so liveness polling never perturbs a
    /// healthy run.
    pub fn poll_step_boundary(&self) {
        let mut d = self.death.lock().unwrap();
        if let Some((mode, remaining)) = d.armed {
            if remaining == 0 {
                d.armed = None;
                d.dead = Some(mode);
            } else {
                d.armed = Some((mode, remaining - 1));
            }
        }
    }

    /// Whether the device admits to being functional. `false` only after
    /// a fail-stop [`DeathMode::Crash`] fired: a crashed device's driver
    /// calls return errors, so callers learn of the death at the next
    /// step boundary. A hung device still *claims* to be alive — see
    /// [`Device::is_responsive`]. Always `true` unless a death was armed
    /// with [`Device::arm_device_death`].
    pub fn is_alive(&self) -> bool {
        self.death.lock().unwrap().dead != Some(DeathMode::Crash)
    }

    /// Whether work dispatched to the device would complete. `false` once
    /// *any* death fired — crash or hang. A router models a launch on an
    /// unresponsive device as a timed-out step that makes no progress;
    /// distinguishing a hang from slow progress is the router's watchdog
    /// budget, not a device-side query a real driver could answer.
    /// Always `true` unless a death was armed with
    /// [`Device::arm_device_death`].
    pub fn is_responsive(&self) -> bool {
        self.death.lock().unwrap().dead.is_none()
    }

    /// Wake a hung device back up: the "zombie" scenario, where a kernel
    /// that wedged long enough for the caller's watchdog to declare the
    /// device dead eventually returns and the device resumes stepping as
    /// if nothing happened. Clears only a fired [`DeathMode::Hang`] —
    /// returns `true` if it did — because a fail-stop crash is permanent
    /// (the device fell off the bus; there is nothing to wake). The fleet
    /// tests use this to prove epoch fencing: a revived zombie may step,
    /// but its stale outcomes must never be journaled.
    pub fn revive(&self) -> bool {
        let mut d = self.death.lock().unwrap();
        if d.dead == Some(DeathMode::Hang) {
            d.dead = None;
            true
        } else {
            false
        }
    }

    /// Snapshot of the launch trace.
    pub fn trace(&self) -> DeviceTrace {
        self.trace.lock().unwrap().trace.clone()
    }

    /// Total modeled seconds since the last reset.
    pub fn modeled_seconds(&self) -> f64 {
        self.trace.lock().unwrap().seconds
    }

    /// Clears the launch trace (retaining its capacity, so a warmed device
    /// records subsequent launches without reallocating).
    pub fn reset_trace(&self) {
        let mut log = self.trace.lock().unwrap();
        log.trace.records.clear();
        log.seconds = log.trace.total_seconds();
    }

    /// Takes the launch trace, leaving it empty.
    pub fn take_trace(&self) -> DeviceTrace {
        let mut log = self.trace.lock().unwrap();
        let phase = log.phase;
        std::mem::replace(&mut *log, TraceLog::new(phase)).trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k40() -> Device {
        Device::new(DeviceProfile::tesla_k40())
    }

    #[test]
    fn saxpy_computes_and_accounts() {
        let dev = k40();
        let n = 10_000;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y: Vec<f64> = vec![1.0; n];
        let bx = dev.bind_ro(&x);
        let by = dev.bind(&mut y);
        let stats = dev.launch("saxpy", n, |lane| {
            let xv = lane.ld(&bx, lane.gid);
            let yv = lane.ld(&by, lane.gid);
            lane.flop(2);
            lane.st(&by, lane.gid, 2.0 * xv + yv);
        });
        drop(by);
        assert_eq!(y[3], 7.0);
        assert_eq!(y[n - 1], 2.0 * (n as f64 - 1.0) + 1.0);
        assert_eq!(stats.threads, n as u64);
        assert_eq!(stats.flops, 2 * n as u64);
        // Perfectly coalesced: 3 streams of n f64.
        assert_eq!(stats.gmem_bytes, 3 * 8 * n as u64);
        assert!(stats.overfetch() < 1.1);
        assert_eq!(dev.trace().len(), 1);
        assert!(dev.modeled_seconds() > 0.0);
    }

    #[test]
    fn parallel_and_serial_paths_agree() {
        // A launch big enough to take the rayon path must produce identical
        // counters to the sequential path.
        let n = PARALLEL_WARP_THRESHOLD * WARP_SIZE * 4;
        let x: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();

        let run = |force_serial: bool| -> (KernelStats, Vec<f64>) {
            let dev = k40();
            let mut out = vec![0.0; n];
            let bx = dev.bind_ro(&x);
            let bo = dev.bind(&mut out);
            // Launch in one call or split into small sequential chunks.
            let stats = if force_serial {
                let mut acc = KernelStats::default();
                let chunk = PARALLEL_WARP_THRESHOLD * WARP_SIZE;
                for c in 0..(n / chunk) {
                    let s = dev.launch("sq", chunk, |lane| {
                        let g = c * chunk + lane.gid;
                        let v = lane.ld(&bx, g);
                        lane.flop(1);
                        lane.st(&bo, g, v * v);
                    });
                    acc.merge(&s);
                }
                acc
            } else {
                dev.launch("sq", n, |lane| {
                    let v = lane.ld(&bx, lane.gid);
                    lane.flop(1);
                    lane.st(&bo, lane.gid, v * v);
                })
            };
            drop(bo);
            (stats, out)
        };

        let (s_par, out_par) = run(false);
        let (s_ser, out_ser) = run(true);
        assert_eq!(out_par, out_ser);
        assert_eq!(s_par.flops, s_ser.flops);
        assert_eq!(s_par.gmem_transactions, s_ser.gmem_transactions);
    }

    #[test]
    fn conflict_checker_catches_racing_stores() {
        let dev = k40().with_conflict_checking(true);
        let mut out = vec![0.0f64; 4];
        let bo = dev.bind(&mut out);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Every lane writes element 0: a classic assembly write conflict.
            dev.launch("conflict", 32, |lane| {
                lane.st(&bo, 0, lane.gid as f64);
            });
        }));
        assert!(result.is_err(), "conflicting stores must be detected");
    }

    #[test]
    fn conflict_checker_passes_disjoint_stores() {
        let dev = k40().with_conflict_checking(true);
        let mut out = vec![0.0f64; 64];
        let bo = dev.bind(&mut out);
        dev.launch("disjoint", 64, |lane| {
            lane.st(&bo, lane.gid, 1.0);
        });
        // Re-writing the same elements in a *new* launch is fine.
        dev.launch("disjoint2", 64, |lane| {
            lane.st(&bo, lane.gid, 2.0);
        });
        drop(bo);
        assert!(out.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn block_launch_records_and_computes() {
        let dev = k40();
        let n = 1024;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut block_sums = vec![0.0f64; n / 256];
        let bx = dev.bind_ro(&x);
        let bs = dev.bind(&mut block_sums);
        dev.launch_blocks("block_sum", n / 256, 256, |blk| {
            let vals = blk.gld_range(&bx, blk.block_id * 256, 256);
            blk.flop_all(1);
            blk.shfl_reduce_cost(256, 32);
            let sum: f64 = vals.iter().sum();
            blk.gst_one(&bs, blk.block_id, sum);
        });
        drop(bs);
        let expected: f64 = (0..256).map(|i| i as f64).sum();
        assert_eq!(block_sums[0], expected);
        let trace = dev.trace();
        assert_eq!(trace.len(), 1);
        assert!(trace.records[0].stats.shuffles > 0);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn block_size_must_be_warp_multiple() {
        let dev = k40();
        dev.launch_blocks("bad", 1, 48, |_| {});
    }

    #[test]
    fn trace_reset_and_take() {
        let dev = k40();
        dev.launch("nop", 32, |_| {});
        assert_eq!(dev.trace().len(), 1);
        let t = dev.take_trace();
        assert_eq!(t.len(), 1);
        assert!(dev.trace().is_empty());
        dev.launch("nop", 32, |_| {});
        dev.reset_trace();
        assert!(dev.trace().is_empty());
    }

    #[test]
    fn records_carry_the_open_phase() {
        let dev = k40();
        let phases = |dev: &Device| -> Vec<_> {
            let t = dev.take_trace();
            t.records.iter().map(|r| (r.phase, r.name)).collect()
        };
        // Outside any phase a launch is untagged.
        dev.launch("outside", 32, |_| {});
        assert_eq!(phases(&dev), [("", "outside")]);
        dev.in_phase("solve", || {
            dev.launch("direct", 32, |_| {});
            dev.record_external("external", KernelStats::default());
            // A batch region's merged records carry the phase it ran in.
            dev.batch_begin(2);
            for s in 0..2 {
                dev.batch_segment(s);
                dev.launch("merged", 32, |_| {});
            }
            dev.batch_end();
            dev.in_phase("check", || dev.launch("nested", 32, |_| {}));
            dev.launch("restored", 32, |_| {});
            assert_eq!(
                phases(&dev),
                [
                    ("solve", "direct"),
                    ("solve", "external"),
                    ("solve", "merged"),
                    ("check", "nested"),
                    ("solve", "restored"),
                ]
            );
            // The phase outlives the trace it tagged.
            dev.reset_trace();
            dev.launch("after_reset", 32, |_| {});
            assert_eq!(phases(&dev), [("solve", "after_reset")]);
            dev.launch("after_take", 32, |_| {});
            assert_eq!(phases(&dev), [("solve", "after_take")]);
        });
        dev.launch("closed", 32, |_| {});
        assert_eq!(phases(&dev), [("", "closed")]);
    }

    #[test]
    fn modeled_seconds_is_the_trace_total_bit_for_bit() {
        let dev = k40();
        let check = |what: &str| {
            assert_eq!(
                dev.modeled_seconds().to_bits(),
                dev.trace().total_seconds().to_bits(),
                "{what}"
            );
        };
        let x: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let bx = dev.bind_ro(&x);
        let work = |n: usize| {
            dev.launch("ld", n, |lane| {
                let v = lane.ld(&bx, lane.gid);
                lane.flop(3);
                std::hint::black_box(v);
            });
            dev.launch_blocks("blk", n.div_ceil(256), 256, |blk| blk.flop_all(7));
        };
        check("empty");
        for n in [33, 700, 4096, 95] {
            work(n);
            check("after launches");
        }
        dev.batch_begin(3);
        for s in 0..3 {
            dev.batch_segment(s);
            work(100 * (s + 1));
            check("inside a batch region");
        }
        dev.batch_end();
        check("after the batch region");
        dev.reset_trace();
        check("after reset");
        work(1000);
        check("after reset + launches");
        let taken = dev.take_trace();
        assert_eq!(taken.len(), 2);
        check("after take");
        work(64);
        check("after take + launches");
    }

    #[test]
    fn custom_timing_model_changes_modeled_time() {
        use crate::timing::TimingModel;
        let slow_launch = TimingModel {
            alu_efficiency: 0.35,
            bw_efficiency: 0.65,
            divergence_window: 24.0,
            smem_flop_equiv: 1.0,
            shfl_flop_equiv: 1.0,
            sync_flop_equiv: 32.0,
            min_utilization: 0.15,
            tex_miss_rate: 0.25,
        };
        let d1 = Device::new(DeviceProfile::tesla_k40());
        let d2 = Device::new(DeviceProfile::tesla_k40()).with_timing_model(TimingModel {
            min_utilization: 1.0, // no occupancy penalty at all
            ..slow_launch
        });
        let run = |d: &Device| {
            d.launch("tiny", 32, |lane| lane.flop(100));
            d.modeled_seconds()
        };
        assert!(run(&d1) > run(&d2));
    }

    #[test]
    fn launches_are_deterministic() {
        // Two identical launches produce identical counters and results —
        // the reproducibility contract the harness relies on.
        let run = || {
            let d = k40();
            let x: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
            let mut y = vec![0.0f64; 4096];
            let bx = d.bind_ro(&x);
            let by = d.bind(&mut y);
            let stats = d.launch("det", 4096, |lane| {
                let v = lane.ld(&bx, lane.gid);
                if lane.branch(0, v > 0.0) {
                    lane.flop(3);
                }
                lane.st(&by, lane.gid, v * 2.0);
            });
            drop(by);
            (stats, y)
        };
        let (s1, y1) = run();
        let (s2, y2) = run();
        assert_eq!(s1, s2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn batch_region_merges_matching_launches() {
        let dev = k40();
        let n_seg = 4;
        let x: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let bx = dev.bind_ro(&x);

        // Solo baseline: the same launches outside a region.
        for _ in 0..n_seg {
            dev.launch("phase_a", 256, |lane| {
                let v = lane.ld(&bx, lane.gid);
                lane.flop(1);
                std::hint::black_box(v);
            });
            dev.launch("phase_b", 256, |lane| lane.flop(2));
        }
        let solo = dev.take_trace();
        assert_eq!(solo.len(), 2 * n_seg);
        let solo_seconds = solo.total_seconds();

        dev.batch_begin(n_seg);
        for s in 0..n_seg {
            dev.batch_segment(s);
            dev.launch("phase_a", 256, |lane| {
                let v = lane.ld(&bx, lane.gid);
                lane.flop(1);
                std::hint::black_box(v);
            });
            dev.launch("phase_b", 256, |lane| lane.flop(2));
        }
        let summary = dev.batch_end();
        let batched = dev.take_trace();

        // 8 launches in, 2 merged out ("phase_a" and "phase_b").
        assert_eq!(summary.launches_in, 2 * n_seg as u64);
        assert_eq!(summary.launches_out, 2);
        assert_eq!(batched.len(), 2);
        assert_eq!(batched.records[0].name, "phase_a");
        assert_eq!(batched.records[1].name, "phase_b");
        assert_eq!(batched.records[0].stats.launches, 1);
        // The merged record carries all segments' work.
        assert_eq!(batched.records[0].stats.threads, 256 * n_seg as u64);
        // Amortized launch overhead: batched must be cheaper than solo.
        assert!(
            summary.seconds < solo_seconds,
            "batched {} vs solo {}",
            summary.seconds,
            solo_seconds
        );
        assert_eq!(summary.seconds, batched.total_seconds());
    }

    #[test]
    fn batch_attribution_sums_to_total() {
        let dev = k40();
        dev.batch_begin(3);
        for s in 0..3 {
            dev.batch_segment(s);
            // Unequal work: segment s does (s+1)× the flops.
            dev.launch("work", 32 * (s + 1), |lane| lane.flop(10));
        }
        let summary = dev.batch_end();
        let attributed: f64 = summary.per_segment_seconds.iter().sum();
        assert!((attributed - summary.seconds).abs() < 1e-15 + 1e-9 * summary.seconds);
        // Heavier segments are billed at least as much as lighter ones.
        assert!(summary.per_segment_seconds[2] >= summary.per_segment_seconds[0]);
    }

    #[test]
    fn batch_aligns_repeating_cycles_per_iteration() {
        // Segment 0 runs 3 iterations of a 2-kernel cycle, segment 1 only
        // 2 (early convergence): the tail iteration stays unmerged.
        let dev = k40();
        dev.batch_begin(2);
        dev.batch_segment(0);
        for _ in 0..3 {
            dev.launch("spmv", 32, |lane| lane.flop(1));
            dev.launch("axpy", 32, |lane| lane.flop(1));
        }
        dev.batch_segment(1);
        for _ in 0..2 {
            dev.launch("spmv", 32, |lane| lane.flop(1));
            dev.launch("axpy", 32, |lane| lane.flop(1));
        }
        let summary = dev.batch_end();
        let trace = dev.take_trace();
        assert_eq!(summary.launches_in, 10);
        // Iterations 1–2 merge pairwise; iteration 3 is segment 0 alone.
        assert_eq!(summary.launches_out, 6);
        let merged: Vec<u64> = trace.records.iter().map(|r| r.stats.threads / 32).collect();
        assert_eq!(merged, vec![2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn batch_intercepts_external_records() {
        let dev = k40();
        dev.batch_begin(2);
        for s in 0..2 {
            dev.batch_segment(s);
            let stats = KernelStats {
                launches: 2,
                gmem_bytes: 1 << 20,
                gmem_transactions: 1 << 13,
                ..Default::default()
            };
            dev.record_external("format.refill", stats);
        }
        let summary = dev.batch_end();
        assert_eq!(summary.launches_in, 4);
        // A record modeling 2 sequential launches still needs 2 when
        // batched — the merge removes the *per-segment* duplication only.
        assert_eq!(summary.launches_out, 2);
        let trace = dev.take_trace();
        assert_eq!(trace.records[0].stats.gmem_bytes, 2 << 20);
        assert_eq!(trace.records[0].stats.launches, 2);
    }

    #[test]
    fn nested_batch_begin_panics() {
        let dev = k40();
        dev.batch_begin(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.batch_begin(1);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn batch_launch_without_segment_panics() {
        let dev = k40();
        dev.batch_begin(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch("orphan", 32, |_| {});
        }));
        assert!(result.is_err(), "launch before batch_segment must panic");
    }

    #[test]
    fn batch_results_identical_to_solo() {
        // The batch region only changes accounting — kernel execution and
        // results are untouched.
        let run = |batched: bool| -> Vec<f64> {
            let dev = k40();
            let x: Vec<f64> = (0..128).map(|i| (i as f64).cos()).collect();
            let mut y = vec![0.0f64; 128];
            let bx = dev.bind_ro(&x);
            let by = dev.bind(&mut y);
            if batched {
                dev.batch_begin(1);
                dev.batch_segment(0);
            }
            dev.launch("scale", 128, |lane| {
                let v = lane.ld(&bx, lane.gid);
                lane.flop(1);
                lane.st(&by, lane.gid, 3.0 * v);
            });
            if batched {
                dev.batch_end();
            }
            drop(by);
            y
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn liveness_defaults_to_alive() {
        let dev = k40();
        dev.poll_step_boundary();
        assert!(dev.is_alive());
        assert!(dev.is_responsive());
    }

    #[test]
    fn armed_crash_fires_after_countdown() {
        let dev = k40();
        dev.arm_device_death(DeathMode::Crash, 2);
        dev.poll_step_boundary(); // 2 -> 1
        dev.poll_step_boundary(); // 1 -> 0
        assert!(dev.is_alive(), "countdown not yet exhausted");
        dev.poll_step_boundary(); // fires
        assert!(!dev.is_alive());
        assert!(!dev.is_responsive());

        // Hang mode: claims alive, stops responding.
        let dev = k40();
        dev.arm_device_death(DeathMode::Hang, 0);
        dev.poll_step_boundary();
        assert!(dev.is_alive());
        assert!(!dev.is_responsive());
    }

    #[test]
    fn distinct_buffers_get_distinct_address_ranges() {
        let dev = k40();
        let a = vec![0u8; 100];
        let b = vec![0u8; 100];
        let ba = dev.bind_ro(&a);
        let bb = dev.bind_ro(&b);
        // Address ranges must not overlap for the coalescing model.
        let a_end = ba.addr(99);
        let b_start = bb.addr(0);
        assert!(b_start > a_end);
    }
}
