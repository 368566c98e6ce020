//! Integration tests of the fec-obs observability layer: the determinism
//! contract of Count-class metrics (byte-identical `render_counts()` for
//! any worker count × decode batch size with the real fixed-point WiMAX
//! codec in the loop) and the zero-cost contract of [`NoopRecorder`] (a
//! steady-state decode with the recorder disabled allocates nothing beyond
//! the outcomes it returns).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fec_channel::sim::{EngineConfig, SimulationEngine};
use fec_channel::StopRule;
use fec_obs::{ManualClock, NoopRecorder, Registry};
use wimax_ldpc::decoder::{DecodeOutcome, FixedLayeredConfig, FixedLayeredDecoder, FrameInput};
use wimax_ldpc::{CodeRate, QcLdpcCode, QuantizedLayeredLdpcCodec};

/// Counts the heap allocations (and bytes) made on a thread while that
/// thread has switched counting on, so tests running on other threads of
/// the same process never leak into a measurement.
struct CountingAllocator;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// `(allocations, bytes)` counted on this thread.
    static COUNTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: delegates verbatim to the system allocator.  The bookkeeping
// touches only const-initialised thread-locals without destructors, which
// never allocate, and `try_with` tolerates access during thread teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = COUNTED.try_with(|c| {
                let (n, bytes) = c.get();
                c.set((n + 1, bytes + layout.size() as u64));
            });
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns the `(allocations, bytes)` it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    COUNTED.with(|c| c.set((0, 0)));
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    (COUNTED.with(Cell::get), value)
}

fn quantized_codec() -> QuantizedLayeredLdpcCodec {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length");
    QuantizedLayeredLdpcCodec::new(&code, FixedLayeredConfig::default())
}

fn observed_engine(workers: usize, batch: usize) -> SimulationEngine {
    SimulationEngine::new(
        EngineConfig {
            shards: 16,
            frames_per_shard_round: 2,
            seed: 2012,
            stop_rule: StopRule::FixedBudget {
                max_frames: 60,
                target_frame_errors: 10,
                min_frames: 20,
            },
            ..EngineConfig::default()
        }
        .with_workers(workers)
        .with_batch_frames(batch),
    )
}

/// The headline determinism contract of the observability layer: every
/// Count-class metric is byte-identical for any (workers, batch_frames)
/// combination, with the real fixed-point WiMAX codec — the most deeply
/// instrumented datapath (`codec.*`, `fixed.*`, `engine.*` families) — in
/// the loop.  Execution/timing sections are deliberately not compared.
#[test]
fn observed_counts_are_byte_identical_for_any_worker_and_batch_size() {
    let codec = quantized_codec();
    let snrs = [1.0, 2.0];
    let clock = ManualClock::default();

    let mut reference = Registry::new();
    let ref_curve = observed_engine(1, 1).run_curve_observed(&codec, &snrs, &clock, &mut reference);
    let ref_counts = reference.render_counts();
    assert!(
        ref_counts.contains("codec.frames") && ref_counts.contains("fixed.iterations"),
        "reference counts must cover the codec and fixed families:\n{ref_counts}"
    );
    assert!(
        ref_counts.contains("engine.p1.rounds"),
        "per-point engine counters must be present:\n{ref_counts}"
    );

    for workers in [1, 2, 8] {
        for batch in [1, 8] {
            let mut obs = Registry::new();
            let curve =
                observed_engine(workers, batch).run_curve_observed(&codec, &snrs, &clock, &mut obs);
            assert_eq!(curve, ref_curve, "workers = {workers}, batch = {batch}");
            assert_eq!(
                obs.render_counts(),
                ref_counts,
                "Count metrics must be byte-identical at workers = {workers}, batch = {batch}"
            );
        }
    }
}

/// The zero-cost contract of [`NoopRecorder`]: a steady-state decode of one
/// frame through `decode_into` makes exactly the allocations its returned
/// outcome owns — the result vector, the hard decisions and the posterior
/// — because every instrumentation site is gated on the recorder's
/// `const ENABLED` and folds away, and the working buffers live in the
/// thread's reused scratch.  Measured after a warm-up decode so one-time
/// lazy initialisation does not count.
#[test]
fn noop_recorder_adds_zero_allocations_to_decode_quantized() {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length");
    let decoder = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
    // Weak LLRs with every seventh bit flipped do not converge instantly,
    // so the decode loop actually runs.
    let quantized: Vec<i16> = (0..576).map(|v| if v % 7 == 0 { -1 } else { 2 }).collect();
    let input = FrameInput::Quantized {
        frames: &quantized,
        batch: 1,
    };

    let warm = decoder.decode_into(input, &mut NoopRecorder);
    let ((allocs, bytes), out) = allocations(|| decoder.decode_into(input, &mut NoopRecorder));

    assert_eq!(out, warm);
    assert!(
        out[0].iterations > 1,
        "the decode loop must run: {} iteration(s)",
        out[0].iterations
    );
    let owned = std::mem::size_of::<DecodeOutcome>() * out.capacity()
        + out[0].hard_bits.capacity()
        + std::mem::size_of::<f64>() * out[0].posterior.capacity();
    assert_eq!(
        (allocs, bytes),
        (3, owned as u64),
        "a disabled recorder must allocate only the returned outcome"
    );
}
