//! Property-based tests for the OS model's invariants.

use proptest::prelude::*;
use sim_core::{CpuId, SimRng, SimTime, TaskId};
use sim_os::{CpuMask, Scheduler, SchedulerConfig, SpinLock, SpinLockCosts, TimerWheel};
use std::collections::HashSet;

proptest! {
    /// CpuMask behaves like a set of small integers.
    #[test]
    fn cpumask_matches_reference_set(cpus in prop::collection::vec(0u32..64, 0..64)) {
        let mut mask = CpuMask::EMPTY;
        let mut reference = HashSet::new();
        for &c in &cpus {
            mask = mask.with(CpuId::new(c));
            reference.insert(c);
        }
        prop_assert_eq!(mask.count() as usize, reference.len());
        for c in 0..64u32 {
            prop_assert_eq!(mask.contains(CpuId::new(c)), reference.contains(&c));
        }
        let collected: Vec<u32> = mask.iter().map(|c| c.raw()).collect();
        let mut sorted: Vec<u32> = reference.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(collected, sorted);
    }

    /// Mask set operations distribute like bitwise ops.
    #[test]
    fn cpumask_set_algebra(a: u64, b: u64) {
        let (ma, mb) = (CpuMask::from_bits(a), CpuMask::from_bits(b));
        prop_assert_eq!(ma.and(mb).bits(), a & b);
        prop_assert_eq!(ma.or(mb).bits(), a | b);
        prop_assert_eq!(ma.and(mb).count() + ma.or(mb).count(), ma.count() + mb.count());
    }

    /// Wakeups always place tasks inside their affinity mask, and tasks
    /// are conserved (queued+running+blocked == spawned).
    #[test]
    fn scheduler_respects_affinity_and_conserves_tasks(
        masks in prop::collection::vec(1u64..16, 1..12),
        ops in prop::collection::vec((0usize..12, 0u32..4, any::<bool>()), 0..200),
    ) {
        let cpus = 4;
        let mut s = Scheduler::new(SchedulerConfig::new(cpus));
        let tasks: Vec<TaskId> = masks
            .iter()
            .enumerate()
            .map(|(i, &m)| s.spawn(format!("t{i}"), CpuMask::from_bits(m)).unwrap())
            .collect();
        for (ti, cpu, affine) in ops {
            let task = tasks[ti % tasks.len()];
            let from = CpuId::new(cpu);
            let placement = s.wake(task, from, affine).unwrap();
            let mask = s.task(task).unwrap().affinity;
            prop_assert!(
                mask.contains(placement.cpu),
                "task placed outside its mask"
            );
            // Drain sometimes to exercise pick/block.
            if affine && s.current(from).is_none() && s.pick_next(from).is_some() {
                s.block_current(from);
            }
        }
        // Conservation: every task is exactly one of queued/running/blocked.
        let queued_running: usize = (0..cpus)
            .map(|c| s.load(CpuId::new(c as u32)))
            .sum();
        let blocked = s
            .tasks()
            .filter(|t| t.state == sim_os::TaskState::Blocked)
            .count();
        prop_assert_eq!(queued_running + blocked, tasks.len());
    }

    /// Stealing never violates affinity.
    #[test]
    fn steal_respects_affinity(masks in prop::collection::vec(1u64..4, 2..10)) {
        let mut s = Scheduler::new(SchedulerConfig::new(2));
        for (i, &m) in masks.iter().enumerate() {
            let t = s.spawn(format!("t{i}"), CpuMask::from_bits(m)).unwrap();
            s.wake(t, CpuId::new(0), false).unwrap();
        }
        let thief = CpuId::new(1);
        while s.pick_next(thief).is_some() {
            s.block_current(thief);
        }
        if let Some(stolen) = s.steal_into(thief) {
            prop_assert!(s.task(stolen).unwrap().affinity.contains(thief));
        }
    }

    /// Timers fire in deadline order and cancelled timers never fire.
    #[test]
    fn timer_wheel_ordering_and_cancellation(
        deadlines in prop::collection::vec(0u64..1000, 1..100),
        cancel_every in 1usize..5,
    ) {
        let mut w = TimerWheel::new();
        let mut cancelled = HashSet::new();
        let ids: Vec<_> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| (i, w.arm(SimTime::from_cycles(d), i)))
            .collect();
        for &(i, id) in &ids {
            if i % cancel_every == 0 {
                w.cancel(id);
                cancelled.insert(i);
            }
        }
        let fired = w.expire(SimTime::from_cycles(1_000_000));
        let mut last = 0u64;
        for &payload in &fired {
            prop_assert!(!cancelled.contains(&payload), "cancelled timer fired");
            let d = deadlines[payload];
            prop_assert!(d >= last, "fired out of order");
            last = d;
        }
        prop_assert_eq!(fired.len(), deadlines.len() - cancelled.len());
    }

    /// Spinlock accounting identities for arbitrary contention patterns.
    #[test]
    fn spinlock_accounting(seed: u64, pattern in prop::collection::vec(any::<bool>(), 1..100)) {
        let mut lock = SpinLock::new();
        let costs = SpinLockCosts::default();
        let mut rng = SimRng::new(seed);
        let mut contended_n = 0u64;
        for &contended in &pattern {
            let a = lock.acquire(&costs, contended, &mut rng);
            prop_assert!(a.instructions >= 2);
            prop_assert!(a.branches >= 1);
            prop_assert!(a.mispredicts <= a.branches);
            if contended {
                contended_n += 1;
                prop_assert!(a.spin_iterations > 0);
            } else {
                prop_assert_eq!(a.spin_iterations, 0);
            }
        }
        let s = lock.stats();
        prop_assert_eq!(s.acquisitions, pattern.len() as u64);
        prop_assert_eq!(s.contended, contended_n);
    }
}
