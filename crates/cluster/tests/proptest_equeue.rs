//! Differential property tests: the calendar queue must reproduce the
//! reference `BinaryHeap` order exactly — including `(time, seq)`
//! tie-breaks — under arbitrary interleavings of pushes and pops, and its
//! canonical sorted export must round-trip losslessly (the checkpoint
//! path).

use edm_cluster::equeue::{CalendarQueue, EventQueue, HeapQueue};
use proptest::prelude::*;

/// One scripted operation: push a delta/payload, or pop.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `last_pop_time + delta` (keeps time monotone like the engine).
    Push {
        delta: u64,
        item: u32,
    },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..5_000, any::<u32>()).prop_map(|(delta, item)| Op::Push { delta, item }),
        1 => (100_000_000u64..200_000_000, any::<u32>())
            .prop_map(|(delta, item)| Op::Push { delta, item }),
        2 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calendar_matches_heap_under_any_interleaving(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Push { delta, item } => {
                    seq += 1;
                    cal.push(now + delta, seq, item);
                    heap.push(now + delta, seq, item);
                }
                Op::Pop => {
                    let a = cal.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b);
                    if let Some((at, _, _)) = a {
                        now = at;
                    }
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Drain whatever is left: tails must agree element-for-element.
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn equal_times_break_ties_by_seq(n in 1usize..64, at in 0u64..1_000_000) {
        let mut cal = CalendarQueue::new();
        for seq in 0..n as u64 {
            cal.push(at, seq, seq as u32);
        }
        for want in 0..n as u64 {
            prop_assert_eq!(cal.pop(), Some((at, want, want as u32)));
        }
        prop_assert!(cal.pop().is_none());
    }

    #[test]
    fn sorted_export_roundtrips_queue_state(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Push { delta, item } => {
                    seq += 1;
                    cal.push(now + delta, seq, item);
                }
                Op::Pop => {
                    if let Some((at, _, _)) = cal.pop() {
                        now = at;
                    }
                }
            }
        }
        // Export ascending (snapshot encoding), rebuild, and compare the
        // full pop order against the original.
        let exported = cal.to_sorted_vec();
        prop_assert!(exported.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut rebuilt = CalendarQueue::new();
        for &(at, s, item) in &exported {
            rebuilt.push(at, s, item);
        }
        loop {
            let a = cal.pop();
            let b = rebuilt.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// The simulator's hot-loop shape, at a length the proptest cases do not
/// reach: a steady population of 4096 pending events where each pop
/// schedules a successor a short, skewed distance ahead (90 % completion
/// hops of 1–64, 10 % tick-like hops of up to 4096), so the calendar's
/// rolling window stays loaded the way a replay loads it. Both queues
/// must pop the identical stream.
#[test]
fn calendar_matches_heap_on_a_replay_shaped_stream() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    let mut seq = 0u64;
    for i in 0..4096u64 {
        cal.push(i % 97, seq, i);
        heap.push(i % 97, seq, i);
        seq += 1;
    }
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..200_000 {
        let popped = cal.pop();
        assert_eq!(popped, heap.pop());
        let (at, _, v) = popped.expect("population is steady");
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let delta = if (x >> 33) % 10 < 9 {
            (x >> 40) % 64 + 1
        } else {
            (x >> 40) % 4096 + 1
        };
        cal.push(at + delta, seq, v);
        heap.push(at + delta, seq, v);
        seq += 1;
    }
    assert_eq!(cal.len(), heap.len());
}
