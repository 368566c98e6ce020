//! The BER-curve workloads (`ber_waterfall`, `ber_high_snr`) and the BER
//! half of the per-layer ledger.
//!
//! The end-to-end run times `SimulationEngine::run_curve` on the n576 R½ q7
//! codec.  The ledger replays the engine's public call sequence on one
//! thread (source → encode → modulate → AWGN → LLR → decode → tally), reads
//! the pool spans and lockstep counters from `run_curve_observed`, and
//! checks the replayed stage sum against the pool's task time per frame.

use decoder_bench::quantized_ldpc_codec;
use fec_channel::sim::{BerCurve, DecodedFrame, EngineConfig, FecCodec, SimulationEngine};
use fec_channel::{AwgnChannel, BpskModulator, EbN0, ErrorCounter};
use fec_fixed::Llr;
use fec_json::{Json, ToJson};
use fec_obs::{MetricValue, Registry, WallClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc::count_single_threaded;
use crate::trace::Tracer;
use crate::util::{median, now_ns, peak_rss_mb, timed, Summary};
use crate::Report;

/// WiMAX block length of every BER workload.
pub const N: usize = 576;
/// λ width of the fixed-point datapath.
pub const LAMBDA_BITS: u32 = 7;
/// Pool workers (sized for a 2-core machine).
pub const WORKERS: usize = 2;
/// Frames per lockstep decode call on the BER workloads.
pub const BATCH: usize = 8;
/// RNG shards per point.
pub const SHARDS: usize = 16;
/// The seed whose counts are committed in `golden.json`.
pub const GOLDEN_SEED: u64 = 1;
/// Codec builds timed for `code-tables.codec_build_ms`.
const SETUP_REPEATS: usize = 9;
/// Plain and observed curves each in the traced engine comparison.
const LEDGER_CURVES: usize = 7;
/// Single-thread replays of the frame loop in the traced run.
const REPLAYS: usize = 3;
/// Range the replayed stage sum must fall in, as a share of the pool's
/// task time per frame: a frame costs more inside the 2-worker pool than
/// alone (shared caches, the other worker), but the stages explain most of
/// it, and they cannot cost much more alone than inside a task.
const STAGE_TO_TASK: (f64, f64) = (0.4, 1.1);

/// One BER configuration: a codec, an SNR grid and the engine shape.
#[derive(Debug, Clone)]
pub struct BerConfig {
    /// Eb/N0 grid in dB.
    pub snrs: Vec<f64>,
    /// Frames per lockstep decode call.
    pub batch: usize,
    /// Pool workers.
    pub workers: usize,
    /// RNG shards per point.
    pub shards: usize,
    /// Fixed frame budget per point.
    pub frames_per_point: u64,
}

impl BerConfig {
    /// The curve of a BER workload, or `None` for an unknown name.
    pub fn for_workload(workload: &str) -> Option<Self> {
        // Frames per shard and point (whole batches of 8) are sized so a
        // curve takes about 0.1 s on the reference machine: with shorter
        // curves one stalled virtual CPU stretches a large share of them
        // and swings the percentiles from run to run.
        let (snrs, per_shard) = match workload {
            // The waterfall: ~7.6 decoder iterations per frame, so the
            // decode kernel dominates frame time.
            "ber_waterfall" => (vec![1.0, 1.2, 1.4, 1.6, 1.8, 2.0], 8),
            // Past the waterfall: ~2.5 iterations, so source, encode,
            // channel and tally carry a much larger share.
            "ber_high_snr" => (vec![3.0, 3.25, 3.5, 3.75, 4.0, 4.25], 16),
            _ => return None,
        };
        Some(BerConfig {
            snrs,
            batch: BATCH,
            workers: WORKERS,
            shards: SHARDS,
            frames_per_point: per_shard * SHARDS as u64,
        })
    }

    fn engine(&self, seed: u64) -> SimulationEngine {
        self.engine_with(seed, self.workers, self.batch)
    }

    fn engine_with(&self, seed: u64, workers: usize, batch: usize) -> SimulationEngine {
        SimulationEngine::new(
            EngineConfig::fixed_frames(self.frames_per_point, seed)
                .with_shards(self.shards)
                .with_workers(workers)
                .with_batch_frames(batch),
        )
    }

    fn frames_per_curve(&self) -> u64 {
        self.frames_per_point * self.snrs.len() as u64
    }
}

/// Builds the workload codec.
pub fn build_codec() -> Box<dyn FecCodec> {
    quantized_ldpc_codec(N, LAMBDA_BITS)
}

/// The one place the benchmark calls a `FecCodec` decode method, mirroring
/// the engine: `decode` for a single frame, `decode_batch` otherwise.
fn decode_frames(codec: &dyn FecCodec, frames: &[&[Llr]]) -> Vec<DecodedFrame> {
    if let [frame] = frames {
        vec![codec.decode(frame)]
    } else {
        codec.decode_batch(frames)
    }
}

/// Per-point JSON renderings: the byte-exact form compared across runs.
fn curve_points(curve: &BerCurve) -> Vec<String> {
    curve
        .points
        .iter()
        .map(|p| p.to_json().to_string())
        .collect()
}

/// Committed counts for [`GOLDEN_SEED`], keyed by workload.
fn golden_points(workload: &str) -> Option<Vec<String>> {
    let golden = Json::parse(include_str!("../golden.json")).expect("golden.json parses");
    let points = golden.get(workload)?.as_array()?;
    Some(points.iter().map(Json::to_string).collect())
}

/// Counts how many points of `got` differ from `want`.
fn mismatches(got: &[String], want: &[String]) -> u64 {
    if got.len() != want.len() {
        return want.len().max(got.len()) as u64;
    }
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

/// One set-up: codec construction plus engine creation.  Returns both
/// with the set-up and codec-build times in ns.
fn setup(cfg: &BerConfig, seed: u64) -> (Box<dyn FecCodec>, SimulationEngine, u64, u64) {
    let start = now_ns();
    let (codec, build_ns) = timed(build_codec);
    let engine = cfg.engine(seed);
    (codec, engine, now_ns() - start, build_ns)
}

/// The untraced end-to-end run of a BER workload: repeated `run_curve`
/// calls for `seconds`, each checked against the reference counts.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Report {
    let cfg = BerConfig::for_workload(workload).expect("BER workload");
    let mut report = Report::default();
    let (codec, engine, setup_ns, _) = setup(&cfg, seed);
    // More set-ups, one between consecutive curves, so a passing slowdown
    // of the machine moves few of the samples `setup_s` is the median of.
    let mut setup_s = vec![setup_ns as f64 * 1e-9];

    // The reference: the committed golden for the golden seed, otherwise a
    // warm-up curve whose counts every later curve must repeat.  Either way
    // the warm-up fills caches and lazy state before timing starts.
    let warmup = curve_points(&engine.run_curve(codec.as_ref(), &cfg.snrs));
    let reference = match (seed == GOLDEN_SEED, golden_points(workload)) {
        (true, Some(golden)) => golden,
        _ => warmup.clone(),
    };
    report.check(cfg.snrs.len() as u64, mismatches(&warmup, &reference));

    let mut latency_ms = Vec::new();
    let mut rate = Vec::new();
    let start = now_ns();
    while (now_ns() - start) as f64 * 1e-9 < seconds {
        let (curve, ns) = timed(|| engine.run_curve(codec.as_ref(), &cfg.snrs));
        let frames: u64 = curve.points.iter().map(|p| p.frames).sum();
        latency_ms.push(ns as f64 * 1e-6);
        rate.push(frames as f64 / (ns as f64 * 1e-9));
        report.check(
            cfg.snrs.len() as u64,
            mismatches(&curve_points(&curve), &reference),
        );
        let (_, _, ns, _) = setup(&cfg, seed);
        setup_s.push(ns as f64 * 1e-9);
    }

    // The determinism contract: one worker at batch size 1 must reproduce
    // the same counts.
    let serial = cfg.engine_with(seed, 1, 1);
    let serial_points = curve_points(&serial.run_curve(codec.as_ref(), &cfg.snrs));
    report.check(
        cfg.snrs.len() as u64,
        mismatches(&serial_points, &reference),
    );

    let latency = Summary::of(&latency_ms);
    report.metric("setup_s", "s", median(&setup_s), setup_s.len());
    report.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
    report.metric("frames_per_s", "1/s", median(&rate), rate.len());
    report.line(format!(
        "curve: {} points x {} frames, {} workers, batch {}; latency_ms p50 {:.3} p90 {:.3} (n={}, {} beyond p90)",
        cfg.snrs.len(),
        cfg.frames_per_point,
        cfg.workers,
        cfg.batch,
        latency.p50,
        latency.p90,
        latency.n,
        latency.beyond_p90()
    ));
    report.extra(
        "latency_samples_ms",
        Json::arr(latency_ms.iter().map(|x| Json::from(*x))),
    );
    report.extra(
        "points",
        Json::arr(
            reference
                .iter()
                .map(|p| Json::parse(p).expect("point json")),
        ),
    );
    report
}

/// Stage costs of one single-thread replay, ns summed over all frames.
#[derive(Debug, Default, Clone, Copy)]
struct StageTotals {
    source: u64,
    encode: u64,
    modulate: u64,
    awgn: u64,
    llr: u64,
    decode: u64,
    tally: u64,
    frames: u64,
    iterations: u64,
}

/// Replays the engine's per-frame call sequence on this thread, recording
/// point → batch → stage spans.  The RNG is consumed in the engine's order
/// (all of a batch's frames are generated before its decode).
fn replay(
    cfg: &BerConfig,
    codec: &dyn FecCodec,
    seed: u64,
    tracer: &mut Tracer,
    parent: u64,
) -> StageTotals {
    let modulator = BpskModulator::new();
    let mut t = StageTotals::default();
    let mut counter = ErrorCounter::new();
    let k = codec.info_bits();
    for (p, &ebn0) in cfg.snrs.iter().enumerate() {
        let channel = AwgnChannel::for_code_rate(EbN0::from_db(ebn0), codec.rate());
        let mut rng = StdRng::seed_from_u64(seed ^ ((p as u64 + 1) << 32));
        let point = tracer.open("ber.point", parent, 0);
        let mut left = cfg.frames_per_point as usize;
        while left > 0 {
            let b = left.min(cfg.batch);
            left -= b;
            let batch = tracer.open("ber.batch", point, 0);
            let mut infos = Vec::with_capacity(b);
            let mut llr_frames = Vec::with_capacity(b);
            for _ in 0..b {
                let t0 = now_ns();
                let info: Vec<u8> = (0..k).map(|_| rng.gen_range(0..=1)).collect();
                let t1 = now_ns();
                let codeword = codec.encode(&info);
                let t2 = now_ns();
                let symbols = modulator.modulate(&codeword);
                let t3 = now_ns();
                let received = channel.transmit(&symbols, &mut rng);
                let t4 = now_ns();
                let llrs = channel.llrs(&received);
                let t5 = now_ns();
                tracer.record("rand.source", batch, 0, t0, t1);
                tracer.record("wimax-ldpc.encode", batch, 0, t1, t2);
                tracer.record("fec-channel.modulate", batch, 0, t2, t3);
                tracer.record("fec-channel.awgn", batch, 0, t3, t4);
                tracer.record("fec-channel.llr", batch, 0, t4, t5);
                t.source += t1 - t0;
                t.encode += t2 - t1;
                t.modulate += t3 - t2;
                t.awgn += t4 - t3;
                t.llr += t5 - t4;
                infos.push(info);
                llr_frames.push(llrs);
            }
            let t0 = now_ns();
            let frames: Vec<&[Llr]> = llr_frames.iter().map(Vec::as_slice).collect();
            let decoded = decode_frames(codec, &frames);
            let t1 = now_ns();
            for (info, frame) in infos.iter().zip(&decoded) {
                counter.record_frame(info, &frame.info_bits);
                t.iterations += frame.iterations as u64;
            }
            let t2 = now_ns();
            tracer.record("wimax-ldpc.decode", batch, 0, t0, t1);
            tracer.record("fec-channel.tally", batch, 0, t1, t2);
            t.decode += t1 - t0;
            t.tally += t2 - t1;
            t.frames += b as u64;
            tracer.close(batch);
        }
        tracer.close(point);
    }
    std::hint::black_box(counter);
    t
}

fn timing_mean_ns(reg: &Registry, name: &str) -> Option<(f64, u64)> {
    match reg.get(name).map(|m| &m.value) {
        Some(MetricValue::Timing(stat)) => {
            Some((stat.total_ns as f64 / stat.count as f64, stat.total_ns))
        }
        _ => None,
    }
}

fn histogram_sum(reg: &Registry, name: &str) -> u64 {
    match reg.get(name).map(|m| &m.value) {
        Some(MetricValue::Histogram(h)) => h.sum(),
        _ => 0,
    }
}

/// The BER half of the per-layer ledger for `cfg` (see the module docs).
/// Adds every BER per-layer metric to `report` and counts a failure when a
/// curve's counts change between plain and observed runs or the ledger
/// does not reconcile.
pub fn ledger(cfg: &BerConfig, seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let build_ms = median(
        &(0..SETUP_REPEATS)
            .map(|_| setup(cfg, seed).3 as f64 * 1e-6)
            .collect::<Vec<_>>(),
    );
    let (codec, engine, _, _) = setup(cfg, seed);
    let codec = codec.as_ref();
    let root = tracer.open("ber.ledger", 0, 0);

    // Single-thread replay; the allocation count is taken on the last,
    // warm replay and only when no other thread is alive.
    let mut replays = Vec::new();
    let mut allocs_per_frame = f64::NAN;
    for r in 0..REPLAYS {
        let (totals, allocs) = count_single_threaded(|| replay(cfg, codec, seed, tracer, root));
        if r == REPLAYS - 1 {
            match allocs {
                Some(a) => allocs_per_frame = a as f64 / totals.frames as f64,
                None => report.line("allocation count skipped: another thread was alive".into()),
            }
            report.check(1, u64::from(allocs.is_none()));
        }
        replays.push(totals);
    }
    let per_frame = |f: fn(&StageTotals) -> u64| {
        median(
            &replays
                .iter()
                .map(|t| f(t) as f64 / t.frames as f64)
                .collect::<Vec<_>>(),
        )
    };
    let stages: [(&'static str, f64); 7] = [
        ("rand.source_ns_per_frame", per_frame(|t| t.source)),
        ("wimax-ldpc.encode_ns_per_frame", per_frame(|t| t.encode)),
        (
            "fec-channel.modulate_ns_per_frame",
            per_frame(|t| t.modulate),
        ),
        ("fec-channel.awgn_ns_per_frame", per_frame(|t| t.awgn)),
        ("fec-channel.llr_ns_per_frame", per_frame(|t| t.llr)),
        ("wimax-ldpc.decode_ns_per_frame", per_frame(|t| t.decode)),
        ("fec-channel.tally_ns_per_frame", per_frame(|t| t.tally)),
    ];
    let iterations = replays[0].iterations as f64 / replays[0].frames as f64;
    let replay_iterations_repeat = replays
        .iter()
        .all(|t| t.iterations == replays[0].iterations);
    report.check(1, u64::from(!replay_iterations_repeat));

    // Plain and observed curves, interleaved so drift hits both alike.
    let reference = curve_points(&engine.run_curve(codec, &cfg.snrs));
    let mut plain_ns = Vec::new();
    let mut observed_ns = Vec::new();
    let mut wait_ns = Vec::new();
    let mut run_ns = Vec::new();
    let mut run_total_ns = Vec::new();
    let mut tasks = 0u64;
    let mut useful_share = 1.0;
    for _ in 0..LEDGER_CURVES {
        let span = tracer.open("fec-channel.run_curve", root, 0);
        let (curve, ns) = timed(|| engine.run_curve(codec, &cfg.snrs));
        tracer.close(span);
        plain_ns.push(ns as f64);
        report.check(
            cfg.snrs.len() as u64,
            mismatches(&curve_points(&curve), &reference),
        );

        let clock = WallClock::new();
        let mut reg = Registry::new();
        let span = tracer.open("fec-channel.run_curve_observed", root, 0);
        let (curve, ns) = timed(|| engine.run_curve_observed(codec, &cfg.snrs, &clock, &mut reg));
        tracer.close(span);
        observed_ns.push(ns as f64);
        report.check(
            cfg.snrs.len() as u64,
            mismatches(&curve_points(&curve), &reference),
        );
        if let Some((mean, _)) = timing_mean_ns(&reg, "pool.task_wait_ns") {
            wait_ns.push(mean);
        }
        if let Some((mean, total)) = timing_mean_ns(&reg, "pool.task_run_ns") {
            run_ns.push(mean);
            run_total_ns.push(total as f64);
        }
        tasks = reg.counter("pool.tasks").unwrap_or(0);
        // Lane iterations over executed batch iterations (lanes × the
        // batch's loop count); 1 when no lockstep batch ran.
        let lane = histogram_sum(&reg, "fixed.lane_iterations");
        let overwork = reg.counter("fixed.overwork_iters").unwrap_or(0);
        if lane + overwork > 0 {
            useful_share = lane as f64 / (lane + overwork) as f64;
        }
    }
    tracer.close(root);

    let stage_sum: f64 = stages.iter().map(|(_, v)| v).sum();
    let frames = cfg.frames_per_curve() as f64;
    let workers = engine.config().workers.max(1) as f64;
    let wall = median(&plain_ns);
    let engine_cost = workers * wall / frames;
    let unattributed = 1.0 - stage_sum / engine_cost;
    let observed_cost = workers * median(&observed_ns) / frames;
    let pool_idle = 1.0 - median(&run_total_ns) / (workers * median(&observed_ns));
    let in_task = median(&run_total_ns) / frames / observed_cost - stage_sum / observed_cost;

    for (name, value) in stages {
        report.metric(name, "ns", value, REPLAYS);
    }
    report.metric(
        "wimax-ldpc.decode_ns_per_iteration",
        "ns",
        per_frame(|t| t.decode) / iterations,
        REPLAYS,
    );
    report.metric(
        "wimax-ldpc.iterations_per_frame",
        "count",
        iterations,
        REPLAYS,
    );
    report.metric("fec-channel.allocs_per_frame", "count", allocs_per_frame, 1);
    report.metric(
        "fec-sched.task_wait_ns.p50",
        "ns",
        median(&wait_ns),
        wait_ns.len(),
    );
    report.metric(
        "fec-sched.task_run_ns.p50",
        "ns",
        median(&run_ns),
        run_ns.len(),
    );
    report.metric("fec-sched.tasks", "count", tasks as f64, 1);
    report.metric("fec-fixed.lockstep_useful_share", "share", useful_share, 1);
    report.metric(
        "fec-channel.unattributed_share",
        "share",
        unattributed,
        LEDGER_CURVES,
    );
    report.metric(
        "fec-obs.trace_overhead_share",
        "share",
        median(&observed_ns) / wall - 1.0,
        LEDGER_CURVES,
    );
    report.metric("code-tables.codec_build_ms", "ms", build_ms, SETUP_REPEATS);

    // The ledger: stage costs measured alone on one thread, against the
    // engine's per-frame cost (workers × wall ÷ frames).  The residual
    // splits into worker time outside tasks (pool idle, merges) and task
    // time the stages do not explain.
    report.line(format!(
        "ledger: engine {:.0} ns/frame ({} workers x {:.2} ms / {} frames), {:.2} iterations/frame",
        engine_cost,
        workers,
        wall * 1e-6,
        frames,
        iterations
    ));
    for (name, value) in stages {
        report.line(format!(
            "  {name:<36} {value:>9.0} ns/frame {:>6.1}%",
            100.0 * value / engine_cost
        ));
    }
    report.line(format!(
        "  {:<36} {:>9.0} ns/frame {:>6.1}%  (pool idle {:.1}% + in-task residual {:.1}% of the observed run)",
        "fec-channel.unattributed",
        engine_cost - stage_sum,
        100.0 * unattributed,
        100.0 * pool_idle,
        100.0 * in_task
    ));
    // The replayed stages against the task time the pool measured per
    // frame in the observed curves: the same work, alone on one thread and
    // inside the pool.
    let task_per_frame = median(&run_total_ns) / frames;
    let stage_to_task = stage_sum / task_per_frame;
    report.line(format!(
        "  replayed stages {stage_sum:.0} ns/frame = {:.1}% of the pool's task time {task_per_frame:.0} ns/frame \
         (reconciles within {:.0}-{:.0}%)",
        100.0 * stage_to_task,
        100.0 * STAGE_TO_TASK.0,
        100.0 * STAGE_TO_TASK.1
    ));
    // Worker time can neither exceed workers × wall nor fall below what
    // the same stages cost alone by more than timer noise, and the stages
    // must account for most of a task.
    let reconciles = pool_idle > -0.02
        && in_task > -0.10
        && (STAGE_TO_TASK.0..=STAGE_TO_TASK.1).contains(&stage_to_task);
    if !reconciles {
        report.line(format!(
            "ledger does not reconcile: pool idle {pool_idle:.3}, in-task {in_task:.3}, stages/task {stage_to_task:.3}"
        ));
    }
    report.check(1, u64::from(!reconciles));
}
