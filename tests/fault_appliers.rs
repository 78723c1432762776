//! One fault plan, two appliers: where the simulator's choke point and
//! the real runtime's socket nemesis are meant to agree, they do.
//!
//! Both hosts apply the same `FaultPlan` value. Their probabilistic
//! draws differ by design (one XorShift stream in event order vs. a pure
//! per-frame hash), but every deterministic verdict must match: a
//! partition drops in both directions and only inside its window, the
//! fault window opens at its start and closes at its end for loss,
//! duplication and delay alike, and certain loss drops everything inside
//! it.

use std::rc::Rc;

use nice::rt::{Ipv4, Mac, Nemesis, Packet, Time, Verdict};
use nice::sim::fault::{FaultState, Verdict as SimVerdict};
use nice::sim::FaultPlan;

const A: Ipv4 = Ipv4::new(10, 0, 0, 1);
const B: Ipv4 = Ipv4::new(10, 0, 0, 2);
const C: Ipv4 = Ipv4::new(10, 0, 0, 3);
const D: Ipv4 = Ipv4::new(10, 0, 0, 4);

fn pkt(src: Ipv4, dst: Ipv4) -> Packet {
    Packet::udp(src, Mac(1), dst, 7000, 7000, 100, Rc::new(0u32))
}

#[test]
fn deterministic_verdicts_agree_across_hosts() {
    let plan = FaultPlan::new(5)
        .partition(vec![A], vec![B], Time::from_ms(10), Time::from_ms(20))
        .loss(1.0)
        .window(Time::from_ms(30), Time::from_ms(40));
    let ms = Time::from_ms;
    let cases = [
        // The partition: both directions, inclusive start, exclusive end.
        (ms(9), A, B, false),
        (ms(10), A, B, true),
        (ms(10), B, A, true),
        (ms(19), B, A, true),
        (ms(20), A, B, false),
        // An unrelated pair inside the cut's window.
        (ms(15), C, D, false),
        (ms(15), A, C, false),
        // The loss window: every pair, inclusive start, exclusive end.
        (ms(29), C, D, false),
        (ms(30), C, D, true),
        (ms(30), A, B, true),
        (ms(39), D, C, true),
        (ms(40), C, D, false),
    ];
    // One sim state across every case, so its counters must add up too.
    let mut sim = FaultState::new(plan.clone());
    let rt = Nemesis::new(plan);
    for (at, src, dst, dropped) in cases {
        let sim_drop = sim.judge(at, &pkt(src, dst)).copies == 0;
        let rt_drop = rt.verdict(at, src, dst, b"frame") == Verdict::Drop;
        assert_eq!(sim_drop, dropped, "sim at {at:?} {src}->{dst}");
        assert_eq!(rt_drop, dropped, "runtime at {at:?} {src}->{dst}");
    }
    let st = sim.stats();
    assert_eq!(st.inspected, cases.len() as u64);
    assert_eq!(st.partitioned, 3, "only in-window packets across the cut");
    assert_eq!(st.lost, 3, "only in-window packets");
}

#[test]
fn duplication_and_delay_are_confined_to_the_window_on_both_hosts() {
    let ms = Time::from_ms;
    let plans = [
        FaultPlan::new(11).duplication(1.0),
        FaultPlan::new(12).extra_delay(1.0, ms(1)),
        FaultPlan::new(13).duplication(1.0).extra_delay(1.0, ms(1)),
    ];
    let edges = [
        Time::ZERO,
        ms(29),
        ms(30),
        ms(39),
        ms(40),
        Time::from_secs(3600),
    ];
    for plan in plans {
        let plan = plan.window(ms(30), ms(40));
        let mut sim = FaultState::new(plan.clone());
        let rt = Nemesis::new(plan.clone());
        let mut open_judged = 0;
        for at in edges {
            let open = plan.window.contains(&at);
            open_judged += u64::from(open);
            let clean = sim.judge(at, &pkt(A, B)) == SimVerdict::CLEAN;
            assert_eq!(clean, !open, "sim at {at:?} under {plan:?}");
            // The runtime draws per frame: every frame must agree.
            for frame in 0..64u32 {
                let v = rt.verdict(at, A, B, &frame.to_be_bytes());
                assert_eq!(
                    v == Verdict::Deliver,
                    !open,
                    "runtime at {at:?} under {plan:?}"
                );
            }
        }
        let st = sim.stats();
        let expect = |p: f64| if p > 0.0 { open_judged } else { 0 };
        assert_eq!(st.duplicated, expect(plan.dup), "{plan:?}");
        assert_eq!(st.delayed, expect(plan.delay_prob), "{plan:?}");
    }
}

#[test]
fn a_plan_without_a_window_is_active_on_both_hosts() {
    let plan = FaultPlan::new(9).loss(1.0);
    let mut sim = FaultState::new(plan.clone());
    let rt = Nemesis::new(plan);
    for at in [Time::ZERO, Time::from_ms(1), Time::from_secs(3600)] {
        assert_eq!(sim.judge(at, &pkt(A, B)).copies, 0, "sim at {at:?}");
        assert_eq!(
            rt.verdict(at, A, B, b"frame"),
            Verdict::Drop,
            "runtime at {at:?}"
        );
    }
}
