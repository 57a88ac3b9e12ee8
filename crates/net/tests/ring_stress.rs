//! Randomized-timing stress for the SPSC ring, the wake gate, and the
//! sender-side batcher: the delivery substrate under the native
//! backend's fabric. Producers inject records under pseudo-random pacing
//! (bursts, stalls, yields, mid-stream flushes) while a consumer drains
//! with the same spin-then-park discipline the native node loop uses.
//! The assertions are the delivery contract itself:
//!
//!   * **exactly-once** — every record sent before the final flush is
//!     popped exactly once, none duplicated, none invented;
//!   * **FIFO per directed pair** — each producer's sequence numbers
//!     arrive in order (cross-pair order is unconstrained);
//!   * **no lost wake** — the consumer never parks through a pending
//!     record; the test completing (rather than hanging until the CI
//!     timeout) is the theorem, and a bounded-stall check makes the
//!     failure mode a named assertion instead of a timeout.
//!
//! Timing is randomized from fixed seeds via a local xorshift, so runs
//! explore different interleavings across platforms while staying
//! reproducible enough to talk about. The suite is also a TSan target
//! (see `.github/workflows/ci.yml`): the unsafe ring internals get their
//! happens-before edges checked under real contention.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oam_net::{spsc, BatchTx, RingRx, WakeGate};

/// Small deterministic PRNG so stress timing is seed-reproducible
/// without pulling in a dependency.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    /// Uniform-ish draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A record tagged with its producer and per-producer sequence number.
#[derive(Clone, Copy)]
struct Tagged {
    producer: usize,
    seq: u64,
}

/// Run `producers` threads, each batching `per_producer` records through
/// its own small ring into one consumer, under pseudo-random pacing
/// seeded by `seed`. Returns (per-producer received counts, consumer
/// wake count).
fn stress_round(
    producers: usize,
    per_producer: u64,
    ring_cap: usize,
    high_water: usize,
    seed: u64,
) -> (Vec<u64>, u64) {
    let gate = Arc::new(WakeGate::new());
    let stop = Arc::new(AtomicBool::new(false));
    let mut txs = Vec::new();
    let mut rxs: Vec<RingRx<Tagged>> = Vec::new();
    for _ in 0..producers {
        let (tx, rx) = spsc::<Tagged>(ring_cap);
        txs.push(BatchTx::new(tx, Arc::clone(&gate), high_water));
        rxs.push(rx);
    }

    let counts = std::thread::scope(|scope| {
        for (p, mut tx) in txs.into_iter().enumerate() {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut rng = XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + p as u64);
                let abandoned = || stop.load(Ordering::Acquire);
                for seq in 0..per_producer {
                    tx.send(Tagged { producer: p, seq }, &abandoned);
                    // Randomized pacing: mostly tight bursts, sometimes a
                    // mid-stream flush, a yield, or a longer stall so the
                    // consumer gets a chance to park and must be woken.
                    match rng.below(100) {
                        0..=79 => {}
                        80..=89 => tx.flush(&abandoned),
                        90..=96 => std::thread::yield_now(),
                        _ => std::thread::sleep(Duration::from_micros(rng.below(200))),
                    }
                }
                tx.flush(&abandoned);
                assert!(!tx.is_dirty(), "final flush left producer {p} dirty");
                assert_eq!(tx.deposits, per_producer, "producer {p} deposit count");
            });
        }

        // Consumer: the native node loop's discipline — drain everything,
        // then park unless a record is pending, bounded so a genuinely
        // lost wake surfaces as a named assertion rather than a hang.
        gate.register();
        let mut counts = vec![0u64; producers];
        let mut expected_seq = vec![0u64; producers];
        let total = per_producer * producers as u64;
        let mut received = 0u64;
        let mut rng = XorShift::new(seed ^ 0xC0FF_EE00);
        let deadline = Instant::now() + Duration::from_secs(60);
        while received < total {
            let mut drained_any = false;
            for rx in rxs.iter_mut() {
                while let Some(m) = rx.pop() {
                    drained_any = true;
                    assert_eq!(
                        m.seq, expected_seq[m.producer],
                        "producer {} records out of order",
                        m.producer
                    );
                    expected_seq[m.producer] += 1;
                    counts[m.producer] += 1;
                    received += 1;
                }
            }
            if !drained_any {
                assert!(
                    Instant::now() < deadline,
                    "consumer stalled at {received}/{total}: lost wake or lost record"
                );
                let pending = || rxs.iter().any(RingRx::has_records);
                gate.park_unless(pending, Duration::from_millis(5));
            } else if rng.below(16) == 0 {
                // Occasionally yield mid-drain so producers can overtake
                // and refill rings under the consumer's feet.
                std::thread::yield_now();
            }
        }
        counts
    });
    stop.store(true, Ordering::Release);
    (counts, gate.wakes())
}

/// Bursty producers over roomy rings: exactly-once and per-pair FIFO
/// under the default batch size.
#[test]
fn stress_exactly_once_fifo_bursty() {
    for seed in [3u64, 17, 92] {
        let (counts, _) = stress_round(4, 20_000, 256, 32, seed);
        assert!(counts.iter().all(|&c| c == 20_000), "seed {seed}: counts {counts:?}");
    }
}

/// Tiny rings force the producers through the full-ring spin path on
/// nearly every flush; nothing may be dropped or reordered.
#[test]
fn stress_survives_constant_ring_pressure() {
    for seed in [5u64, 29] {
        let (counts, _) = stress_round(3, 8_000, 8, 16, seed);
        assert!(counts.iter().all(|&c| c == 8_000), "seed {seed}: counts {counts:?}");
    }
}

/// Naive per-message mode (`high_water = 1`): every send publishes and
/// signals. This is the reference path the batched mode is differential-
/// tested against, and it must uphold the same contract.
#[test]
fn stress_naive_per_message_path() {
    let (counts, wakes) = stress_round(2, 10_000, 64, 1, 11);
    assert!(counts.iter().all(|&c| c == 10_000), "counts {counts:?}");
    // Wakes only fire when the consumer actually parked, so no exact
    // bound — but the counter must be wired at all on this path.
    let _ = wakes;
}

/// Slow trickle: long producer stalls guarantee the consumer parks
/// between records, exercising the park/notify handshake on every
/// message. A lost wake here means each record costs a full 5 ms park
/// timeout and the stall assertion fires.
#[test]
fn stress_parked_consumer_is_woken_per_record() {
    let gate = Arc::new(WakeGate::new());
    let stop = AtomicBool::new(false);
    let (tx, mut rx) = spsc::<u64>(64);
    let mut tx = BatchTx::new(tx, Arc::clone(&gate), 1);
    let n = 200u64;
    std::thread::scope(|scope| {
        let stop = &stop;
        scope.spawn(move || {
            let abandoned = || stop.load(Ordering::Acquire);
            for i in 0..n {
                std::thread::sleep(Duration::from_micros(300));
                tx.send(i, &abandoned);
            }
        });
        gate.register();
        let started = Instant::now();
        let mut got = 0u64;
        while got < n {
            while let Some(v) = rx.pop() {
                assert_eq!(v, got, "trickle out of order");
                got += 1;
            }
            if got < n {
                gate.park_unless(|| rx.has_records(), Duration::from_secs(5));
            }
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "trickle stalled at {got}/{n}: park/notify handshake lost a wake"
            );
        }
    });
}

/// Publish counting, producer side only: with a registered consumer that
/// parks on the gate whenever its ring is empty, and a ring roomy enough
/// that no flush waits, a burst of `n` records costs exactly
/// ⌈n / high_water⌉ publishes (wake signals issued), whatever the host
/// timing. The consumer then drains the whole burst in order.
#[test]
fn burst_publishes_once_per_high_water_mark() {
    const N: u64 = 1_000;
    for (high_water, publishes) in [(32usize, N.div_ceil(32)), (1, N)] {
        let gate = Arc::new(WakeGate::new());
        let (tx, mut rx) = spsc::<u64>(N as usize);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let consumer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.register();
                ready_tx.send(()).expect("producer waits for registration");
                let mut got = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(30);
                while (got.len() as u64) < N {
                    while let Some(v) = rx.pop() {
                        got.push(v);
                    }
                    assert!(Instant::now() < deadline, "consumer stalled at {}/{N}", got.len());
                    gate.park_unless(|| rx.has_records(), Duration::from_millis(50));
                }
                got
            })
        };
        ready_rx.recv().expect("consumer registered");
        let mut tx = BatchTx::new(tx, Arc::clone(&gate), high_water);
        let never = || false;
        for i in 0..N {
            tx.send(i, &never);
        }
        tx.flush(&never);
        assert_eq!(tx.deposits, N, "high water {high_water}: deposits");
        assert_eq!(tx.batches, publishes, "high water {high_water}: publishes");
        let got = consumer.join().expect("consumer thread");
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "high water {high_water}: order");
    }
}
