//! The `svc_mixed` workload and the daemon half of the per-layer ledger.
//!
//! An in-process `fec_svc::Service` with 2 pool workers receives an
//! open-loop schedule: seeded arrivals at [`OFFERED_RATE`], sent by one
//! load-generator thread at their scheduled times whether or not earlier
//! jobs have finished.  Every latency is measured from the scheduled send
//! time, so a stall also delays the requests queued behind it.  The same
//! requests are then sent again in parts, each part at once to a fresh
//! service; the median over the parts of BER frames ÷ drain time is the
//! workload's `frames_per_s`, a rate the daemon sets rather than the
//! offered load.  A benchmark-side [`EventSink`] timestamps every event
//! and never calls back into the service.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use code_tables::Standard;
use decoder_bench::{
    dvb_rcs_turbo_codec, ldpc_codec, lte_turbo_codec, quantized_ldpc_codec, standard_snrs,
    wifi_ldpc_codec, wran_ldpc_codec, LdpcFlavor,
};
use fec_channel::sim::FecCodec;
use fec_json::Json;
use fec_svc::protocol::{self, as_u64};
use fec_svc::{run_unit, EventSink, Service, ServiceConfig, Unit};
use noc_decoder::compliance::ComplianceScope;
use noc_decoder::evaluation::evaluate_standard_code;
use noc_decoder::DecoderConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimax_turbo::ExtrinsicExchange;

use crate::ber::BerConfig;
use crate::trace::Tracer;
use crate::util::{median, now_ns, open_fds, peak_rss_mb, timed, Summary};
use crate::Report;

/// Offered load in requests per second: about 30 % of the rate a burst of
/// this mix drains at on two workers, low enough that a slow spell of a
/// shared machine does not build a backlog (see `README.md`).
pub const OFFERED_RATE: f64 = 28.0;
/// Latency limit on the interactive p90, as `BENCHMARK.json` states it.
/// It is informational: a run over it is reported, not counted as failed.
pub const INTERACTIVE_P90_LIMIT_MS: f64 = 250.0;
/// Daemon pool workers.
pub const WORKERS: usize = 2;
/// Schedule blocks per burst part: five, so that every part holds each
/// standard's compliance corners twice and costs what the others do.
const PART_BLOCKS: usize = 5;
/// Units re-run for the reference rows between two timed set-ups.
const UNITS_PER_SETUP_SAMPLE: usize = 20;
/// Frames per point of a batch BER job.
const BATCH_FRAMES: u64 = 20;
/// Longest wait for the last job after the schedule ends.
const DRAIN_TIMEOUT_NS: u64 = 120_000_000_000;

/// A batch BER family of the mix: one daemon codec per standard, at the
/// daemon's default `batch_frames` 1.
struct Family {
    /// `submit` fields naming the codec.
    fields: &'static str,
    standard: Standard,
    frames: u64,
    build: fn() -> Box<dyn FecCodec>,
}

/// The batch BER families: the f64 and q7 LDPC datapaths on WiMAX, the
/// 802.11n and 802.22 LDPC codes, the LTE turbo code and the DVB-RCS CTC
/// (turbo blocks sized so a job costs about as much as an LDPC job).
const FAMILIES: [Family; 6] = [
    Family {
        fields: r#""standard":"wimax","codec":"layered""#,
        standard: Standard::Wimax,
        frames: BATCH_FRAMES,
        build: || ldpc_codec(576, LdpcFlavor::Layered),
    },
    Family {
        fields: r#""standard":"wimax","codec":"quantized""#,
        standard: Standard::Wimax,
        frames: BATCH_FRAMES,
        build: || quantized_ldpc_codec(576, 7),
    },
    Family {
        fields: r#""standard":"80211n","codec":"layered""#,
        standard: Standard::Wifi80211n,
        frames: BATCH_FRAMES,
        build: || wifi_ldpc_codec(648, LdpcFlavor::Layered),
    },
    Family {
        fields: r#""standard":"80222","codec":"layered""#,
        standard: Standard::Wran80222,
        frames: BATCH_FRAMES,
        build: || wran_ldpc_codec(480, LdpcFlavor::Layered),
    },
    Family {
        fields: r#""standard":"lte","block":256"#,
        standard: Standard::Lte,
        frames: 6,
        build: || lte_turbo_codec(256),
    },
    Family {
        fields: r#""standard":"dvbrcs","codec":"turbo-bit","block":48"#,
        standard: Standard::DvbRcs,
        frames: BATCH_FRAMES,
        build: || dvb_rcs_turbo_codec(48, ExtrinsicExchange::BitLevel),
    },
];

/// The BER configuration the ledger replays for `svc_mixed`: the daemon's
/// q7 WiMAX unit (one worker, batch size 1, default shards) on its grid.
pub fn ber_config() -> BerConfig {
    BerConfig {
        snrs: standard_snrs(Standard::Wimax).to_vec(),
        batch: 1,
        workers: 1,
        shards: 32,
        frames_per_point: 64,
    }
}

/// What a scheduled request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// High priority: compliance corners of one standard.
    Corners,
    /// High priority: a 4-frame, one-point BER job.
    Tiny,
    /// Normal or low priority: a multi-point BER job.
    Batch,
    /// A low-priority 8-point BER job, cancelled right after acceptance.
    CancelTarget,
    /// `resume` from row 0 of a finished batch job.
    Resume,
}

impl Kind {
    fn interactive(self) -> bool {
        matches!(self, Kind::Corners | Kind::Tiny)
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Request {
    at_ns: u64,
    kind: Kind,
    /// The `submit` line (empty for resumes).
    line: String,
    /// Whether `line` repeats an earlier submit verbatim.
    repeat: bool,
    /// Seeded draw that picks a resume's target among finished jobs.
    pick: u64,
}

/// The request kinds of one schedule block, shuffled per block by the seed.
/// Exact proportions per block keep every seed's mix the same: two
/// compliance-corners jobs (the standards taken in turn, so five blocks
/// cover each standard twice), eight tiny BER jobs, each batch family once,
/// one resume and one cancel.
const BLOCK: [Kind; 18] = [
    Kind::Corners,
    Kind::Corners,
    Kind::Tiny,
    Kind::Tiny,
    Kind::Tiny,
    Kind::Tiny,
    Kind::Tiny,
    Kind::Tiny,
    Kind::Tiny,
    Kind::Tiny,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Resume,
    Kind::CancelTarget,
];
/// Tiny submits per block, and how many of them and of the batch submits
/// repeat an earlier spec.
const TINY_PER_BLOCK: usize = 8;
const REPEATS_PER_BLOCK: (usize, usize) = (2, 2);

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Builds the seeded open-loop schedule for `seconds`: blocks of
/// [`BLOCK`] in seeded order, sent at gaps uniform in 0.75–1.25 ×
/// `1 / OFFERED_RATE`.
fn schedule(seed: u64, seconds: f64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5356_434D_4958_4544);
    let horizon = (seconds * 1e9) as u64;
    let mut out: Vec<Request> = Vec::new();
    // Fresh specs so far, per tiny codec and per batch family.
    let mut fresh_tiny: Vec<String> = Vec::new();
    let mut fresh_batch: Vec<Vec<String>> = vec![Vec::new(); FAMILIES.len()];
    let mut fresh = 0u64;
    let mut t = 0u64;
    let mut standards = Standard::all();
    shuffle(&mut standards, &mut rng);
    let mut corners = 0;
    loop {
        let mut kinds = BLOCK;
        shuffle(&mut kinds, &mut rng);
        let mut families: Vec<usize> = (0..FAMILIES.len()).collect();
        shuffle(&mut families, &mut rng);
        let mut tiny_repeat = [false; TINY_PER_BLOCK];
        tiny_repeat[..REPEATS_PER_BLOCK.0].fill(true);
        shuffle(&mut tiny_repeat, &mut rng);
        let mut batch_repeat = [false; FAMILIES.len()];
        batch_repeat[..REPEATS_PER_BLOCK.1].fill(true);
        shuffle(&mut batch_repeat, &mut rng);
        let mut low = [false, false, false, true, true, true];
        shuffle(&mut low, &mut rng);
        let (mut tiny, mut batch) = (0, 0);
        for kind in kinds {
            t += ((0.75 + 0.5 * rng.gen::<f64>()) / OFFERED_RATE * 1e9) as u64;
            if t >= horizon {
                return out;
            }
            // A per-spec SNR offset in millionths of a dB keeps every
            // fresh spec distinct from all earlier ones, and stays far too
            // small to change the work: the schedule's last spec costs what
            // its first one does.
            fresh += 1;
            let offset = fresh as f64 * 1e-6;
            let (line, repeat) = match kind {
                Kind::Corners => {
                    let line = format!(
                        r#"{{"type":"submit","job":"compliance","standard":"{}","scope":"corners","priority":"high"}}"#,
                        standards[corners % standards.len()].flag()
                    );
                    corners += 1;
                    (line, false)
                }
                Kind::Tiny => {
                    tiny += 1;
                    if tiny_repeat[tiny - 1] && !fresh_tiny.is_empty() {
                        let pick = rng.gen_range(0..fresh_tiny.len());
                        (fresh_tiny[pick].clone(), true)
                    } else {
                        let codec = if rng.gen::<bool>() {
                            "layered"
                        } else {
                            "quantized"
                        };
                        let line = format!(
                            r#"{{"type":"submit","job":"ber","standard":"wimax","codec":"{codec}","frames":4,"snrs":[{:.6}],"priority":"high"}}"#,
                            2.0 + offset
                        );
                        fresh_tiny.push(line.clone());
                        (line, false)
                    }
                }
                Kind::Batch => {
                    batch += 1;
                    let f = families[batch - 1];
                    let family = &FAMILIES[f];
                    let earlier = &fresh_batch[f];
                    if batch_repeat[batch - 1] && !earlier.is_empty() {
                        let pick = rng.gen_range(0..earlier.len());
                        (earlier[pick].clone(), true)
                    } else {
                        let priority = if low[batch - 1] { "low" } else { "normal" };
                        let snrs: Vec<String> = standard_snrs(family.standard)
                            .iter()
                            .map(|s| format!("{:.6}", s + offset))
                            .collect();
                        let line = format!(
                            r#"{{"type":"submit","job":"ber",{},"frames":{},"snrs":[{}],"priority":"{priority}"}}"#,
                            family.fields,
                            family.frames,
                            snrs.join(",")
                        );
                        fresh_batch[f].push(line.clone());
                        (line, false)
                    }
                }
                Kind::CancelTarget => {
                    let snrs: Vec<String> = (0..8)
                        .map(|i| format!("{:.6}", 1.0 + 0.25 * f64::from(i) + offset))
                        .collect();
                    let line = format!(
                        r#"{{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":{BATCH_FRAMES},"snrs":[{}],"priority":"low"}}"#,
                        snrs.join(",")
                    );
                    (line, false)
                }
                Kind::Resume => (String::new(), false),
            };
            out.push(Request {
                at_ns: t,
                kind,
                line,
                repeat,
                pick: rng.gen::<u64>(),
            });
        }
    }
}

/// One delivered event: the request whose sink received it, when, and the
/// line.
#[derive(Debug)]
struct Event {
    req: usize,
    t_ns: u64,
    line: String,
}

#[derive(Debug, Default)]
struct Captured {
    events: Vec<Event>,
    /// Requests whose sink has seen a `done` event, in arrival order.
    done: Vec<usize>,
}

/// The benchmark's event sink: stamps and stores each line.  It takes one
/// short lock and never calls back into the service.
#[derive(Debug, Clone)]
struct Capture {
    req: usize,
    store: Arc<Mutex<Captured>>,
}

impl EventSink for Capture {
    fn deliver(&mut self, line: &str) -> bool {
        let t_ns = now_ns();
        let mut store = self.store.lock().expect("capture store poisoned");
        if line.starts_with(r#"{"type":"done""#) {
            store.done.push(self.req);
        }
        store.events.push(Event {
            req: self.req,
            t_ns,
            line: line.to_string(),
        });
        true
    }
}

/// What the generator did with each request.
#[derive(Debug, Clone, Default)]
struct Sent {
    /// Scheduled send time, benchmark clock.
    due_ns: u64,
    /// How late the generator sent it.
    late_ns: u64,
    /// Duration of `handle_line` (the submit, or the resume).
    handle_ns: u64,
    /// Job id of an accepted submit.
    job: Option<u64>,
    /// Request index of the job a resume replays.
    target: Option<usize>,
    sent: bool,
}

/// Everything one load run produced.
struct LoadRun {
    sent: Vec<Sent>,
    captured: Captured,
    first_due_ns: u64,
    drained: bool,
    log_bytes: u64,
    fd_growth: i64,
}

fn job_id_of(line: &str) -> Option<u64> {
    Json::parse(line).ok()?.get("job_id").and_then(as_u64)
}

/// Sends `requests` on schedule into `service` (its scheduler loop runs on
/// a second thread) and waits until every accepted job is done.
fn drive(service: &Service, log_dir: &Path, requests: &[Request], fds_before: usize) -> LoadRun {
    let store = Arc::new(Mutex::new(Captured::default()));
    let mut sent = vec![Sent::default(); requests.len()];
    let mut drained = false;
    let mut fd_growth = 0;
    let mut log_bytes = 0;
    let start = now_ns() + 5_000_000;
    std::thread::scope(|scope| {
        scope.spawn(|| service.run());
        for (i, req) in requests.iter().enumerate() {
            let due = start + req.at_ns;
            let now = now_ns();
            if now < due {
                std::thread::sleep(std::time::Duration::from_nanos(due - now));
            }
            let sink = Capture {
                req: i,
                store: Arc::clone(&store),
            };
            sent[i].due_ns = due;
            sent[i].late_ns = now_ns().saturating_sub(due);
            match req.kind {
                Kind::Resume => {
                    // A finished batch job, chosen by the schedule's draw
                    // among those whose `done` has arrived.
                    let finished: Vec<usize> = {
                        let store = store.lock().expect("capture store poisoned");
                        store
                            .done
                            .iter()
                            .copied()
                            .filter(|&r| matches!(requests[r].kind, Kind::Batch))
                            .collect()
                    };
                    if finished.is_empty() {
                        continue;
                    }
                    let target = finished[(req.pick % finished.len() as u64) as usize];
                    let Some(job) = sent[target].job else {
                        continue;
                    };
                    let line = format!(r#"{{"type":"resume","job_id":{job},"from_row":0}}"#);
                    let (_, ns) = timed(|| service.handle_line(&line, &sink));
                    sent[i].handle_ns = ns;
                    sent[i].target = Some(target);
                    sent[i].sent = true;
                }
                _ => {
                    let (_, ns) = timed(|| service.handle_line(&req.line, &sink));
                    sent[i].handle_ns = ns;
                    sent[i].sent = true;
                    let accepted = {
                        let store = store.lock().expect("capture store poisoned");
                        store
                            .events
                            .iter()
                            .rev()
                            .find(|e| e.req == i && e.line.starts_with(r#"{"type":"accepted""#))
                            .map(|e| e.line.clone())
                    };
                    sent[i].job = accepted.as_deref().and_then(job_id_of);
                    if req.kind == Kind::CancelTarget {
                        if let Some(job) = sent[i].job {
                            let line = format!(r#"{{"type":"cancel","job_id":{job}}}"#);
                            service.handle_line(&line, &sink);
                        }
                    }
                }
            }
        }
        let jobs = sent.iter().filter(|s| s.job.is_some()).count();
        let deadline = now_ns() + DRAIN_TIMEOUT_NS;
        while now_ns() < deadline {
            let done_jobs = {
                let store = store.lock().expect("capture store poisoned");
                store
                    .done
                    .iter()
                    .filter(|&&r| sent[r].job.is_some() && sent[r].target.is_none())
                    .count()
            };
            if done_jobs >= jobs {
                drained = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Retained per-job state, measured while the service still holds it.
        fd_growth = open_fds() as i64 - fds_before as i64;
        log_bytes = replay_log_bytes(log_dir);
        service.request_shutdown();
    });
    let captured = std::mem::take(&mut *store.lock().expect("capture store poisoned"));
    LoadRun {
        sent,
        captured,
        first_due_ns: start,
        drained,
        log_bytes,
        fd_growth,
    }
}

/// Bytes in the per-job replay logs (`job_<id>.ndjson`).
fn replay_log_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("job_") && name.ends_with(".ndjson")
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One set-up: every codec of the mix built once, plus `Service` creation
/// with its log directory `dir`.  Returns the service and the seconds.
fn setup(dir: &Path) -> (Service, f64) {
    let start = now_ns();
    for family in &FAMILIES {
        std::hint::black_box((family.build)());
    }
    let service = Service::new(ServiceConfig {
        workers: WORKERS,
        // Admission never refuses a job of this schedule: the point is to
        // carry every job's retained state, not to cap it.
        max_jobs: usize::MAX,
        log_dir: dir.to_path_buf(),
    });
    (service, (now_ns() - start) as f64 * 1e-9)
}

/// A unit's reference rows (or its error) and its run time in ms.
type UnitRun = (Result<Vec<String>, String>, f64);

/// The distinct work units of the schedule's submits, keyed by
/// `(submit line, unit index)`, with the class each belongs to.
fn distinct_units(requests: &[Request]) -> Vec<(String, usize, Unit, &'static str)> {
    let mut lines: Vec<&str> = requests
        .iter()
        .filter(|r| !r.line.is_empty())
        .map(|r| r.line.as_str())
        .collect();
    lines.sort_unstable();
    lines.dedup();
    let mut units = Vec::new();
    for line in lines {
        let request = Json::parse(line).expect("schedule lines are JSON");
        let spec = fec_svc::job::parse(&request).expect("schedule lines are valid submits");
        let class = if spec.kind == "compliance" {
            "compliance"
        } else if line.contains(r#""standard":"lte""#) || line.contains(r#""standard":"dvbrcs""#) {
            "ber-turbo"
        } else {
            "ber-ldpc"
        };
        for (i, unit) in spec.units.into_iter().enumerate() {
            units.push((line.to_string(), i, unit, class));
        }
    }
    units
}

/// Reference rows of `units`, computed with `run_unit` on this thread,
/// with each unit's run time in ms.
fn reference_rows(units: &[(String, usize, Unit, &'static str)]) -> Vec<UnitRun> {
    units
        .iter()
        .map(|(_, _, unit, _)| {
            let (rows, ns) = timed(|| run_unit(unit));
            let rows = rows.map(|rows| rows.iter().map(Json::to_string).collect());
            (rows, ns as f64 * 1e-6)
        })
        .collect()
}

/// Per-job results of checking the run.
#[derive(Debug, Default)]
struct Checked {
    failed: Vec<String>,
    attempted: u64,
    interactive_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    first_row_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    /// First-row latency minus the run time of the unit that produced it.
    queue_wait_ms: Vec<f64>,
    /// Frames of the BER rows delivered, and the last `done` time.
    frames: u64,
    last_done_ns: u64,
    /// Row payloads delivered, for the row-encode probe.
    rows: Vec<(u64, u64, Json)>,
}

/// Checks every request's events against the reference rows and collects
/// the latencies.  A job fails when it was rejected, failed, has no `done`
/// or a wrong status, or when a row is missing, duplicated or differs from
/// `run_unit`'s bytes; a resume fails unless it replays exactly the job's
/// rows.
fn check(
    requests: &[Request],
    load: &LoadRun,
    units: &[(String, usize, Unit, &'static str)],
    reference: &[UnitRun],
) -> Checked {
    let mut out = Checked::default();
    let mut per_req: Vec<Vec<(u64, Json)>> = vec![Vec::new(); requests.len()];
    for e in &load.captured.events {
        match Json::parse(&e.line) {
            Ok(json) => per_req[e.req].push((e.t_ns, json)),
            Err(_) => out
                .failed
                .push(format!("request {}: unparsable event {}", e.req, e.line)),
        }
    }
    // The expected rows of a submit line, with the unit run time of each.
    let expected = |line: &str| -> Vec<(String, f64)> {
        let mut rows = Vec::new();
        for ((l, _, _, _), (result, ms)) in units.iter().zip(reference) {
            if l == line {
                match result {
                    Ok(unit_rows) => rows.extend(unit_rows.iter().map(|r| (r.clone(), *ms))),
                    Err(e) => rows.push((format!("unit failed: {e}"), *ms)),
                }
            }
        }
        rows
    };
    let ty = |j: &Json| {
        j.get("type")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    // Rows each submit delivered: (row index, data bytes).
    let mut delivered: Vec<Vec<(u64, String)>> = vec![Vec::new(); requests.len()];

    for (i, req) in requests.iter().enumerate() {
        let s = &load.sent[i];
        if !s.sent || matches!(req.kind, Kind::Resume) {
            continue;
        }
        out.attempted += 1;
        let events = &per_req[i];
        let mut problems = Vec::new();
        if s.job.is_none() {
            problems.push("not accepted".to_string());
        }
        let mut rows = Vec::new();
        let mut done = None;
        for (t, e) in events {
            match ty(e).as_str() {
                "accepted" | "cancelling" => {}
                "row" => {
                    let index = e.get("row").and_then(as_u64).unwrap_or(u64::MAX);
                    let data = e.get("data").cloned().unwrap_or(Json::Null);
                    rows.push((*t, index, data));
                }
                "done" => {
                    if done.is_some() {
                        problems.push("two done events".to_string());
                    }
                    done = Some((*t, e.clone()));
                }
                other => problems.push(format!("unexpected {other} event")),
            }
        }
        let want_status = if req.kind == Kind::CancelTarget {
            "cancelled"
        } else {
            "completed"
        };
        match &done {
            None => problems.push("no done event".to_string()),
            Some((_, d)) => {
                let status = d.get("status").and_then(Json::as_str).unwrap_or("");
                if status != want_status {
                    problems.push(format!("status {status}, expected {want_status}"));
                }
                if d.get("rows").and_then(as_u64) != Some(rows.len() as u64) {
                    problems.push("done row count differs from rows delivered".to_string());
                }
            }
        }
        let mut want = expected(&req.line);
        for (pos, (_, index, data)) in rows.iter().enumerate() {
            if *index != pos as u64 {
                problems.push(format!("row index {index} at position {pos}"));
            }
            let bytes = data.to_string();
            match want.iter().position(|(w, _)| *w == bytes) {
                Some(k) => {
                    want.swap_remove(k);
                }
                None => problems.push(format!(
                    "row {index} is missing from, duplicated in or differs from run_unit output"
                )),
            }
            delivered[i].push((*index, bytes));
            out.rows.push((s.job.unwrap_or(0), *index, data.clone()));
        }
        if req.kind != Kind::CancelTarget && !want.is_empty() {
            problems.push(format!("{} rows missing", want.len()));
        }
        if !problems.is_empty() {
            out.failed.push(format!(
                "request {i} ({}): {}",
                req.line,
                problems.join("; ")
            ));
            continue;
        }
        let Some((done_t, _)) = done else { continue };
        out.last_done_ns = out.last_done_ns.max(done_t);
        if req.kind == Kind::CancelTarget {
            continue;
        }
        let ms = |t: u64| t.saturating_sub(s.due_ns) as f64 * 1e-6;
        if req.kind.interactive() {
            out.interactive_ms.push(ms(done_t));
        } else {
            out.batch_ms.push(ms(done_t));
        }
        if let Some((first_t, _, data)) = rows.first() {
            out.first_row_ms.push(ms(*first_t));
            let bytes = data.to_string();
            if let Some((_, unit_ms)) = expected(&req.line).into_iter().find(|(w, _)| *w == bytes) {
                out.queue_wait_ms.push(ms(*first_t) - unit_ms);
            }
        }
        for (_, _, data) in &rows {
            if let Some(frames) = data
                .get("point")
                .and_then(|p| p.get("frames"))
                .and_then(as_u64)
            {
                out.frames += frames;
            }
        }
    }

    for (i, req) in requests.iter().enumerate() {
        let s = &load.sent[i];
        if !s.sent || !matches!(req.kind, Kind::Resume) {
            continue;
        }
        out.attempted += 1;
        let target = s.target.expect("a sent resume has a target");
        let mut replayed = Vec::new();
        let mut last_row_t = None;
        let mut problems = Vec::new();
        for (t, e) in &per_req[i] {
            match ty(e).as_str() {
                "accepted" | "done" | "cancelling" => {}
                "row" => {
                    let index = e.get("row").and_then(as_u64).unwrap_or(u64::MAX);
                    let data = e.get("data").map(Json::to_string).unwrap_or_default();
                    replayed.push((index, data));
                    last_row_t = Some(*t);
                }
                other => problems.push(format!("unexpected {other} event")),
            }
        }
        if replayed != delivered[target] {
            problems.push("replayed rows differ from the rows the job delivered".to_string());
        }
        match (problems.is_empty(), last_row_t) {
            (true, Some(t)) => out.resume_ms.push(t.saturating_sub(s.due_ns) as f64 * 1e-6),
            (true, None) => {}
            (false, _) => out.failed.push(format!(
                "resume {i} of request {target}: {}",
                problems.join("; ")
            )),
        }
    }
    out
}

/// Output directory for the service's logs of this process.
fn log_base() -> PathBuf {
    Path::new(".bench_out").join(format!("svc-{}", std::process::id()))
}

/// One part of the burst: its load and its checks.
struct Burst {
    load: LoadRun,
    checked: Checked,
}

impl Burst {
    /// BER frames of the delivered rows, and requests sent, per second
    /// from the burst's start to its last `done`.
    fn rates(&self) -> (f64, f64) {
        let window_s = self
            .checked
            .last_done_ns
            .saturating_sub(self.load.first_due_ns) as f64
            * 1e-9;
        let sent = self.load.sent.iter().filter(|s| s.sent).count();
        (
            self.checked.frames as f64 / window_s,
            sent as f64 / window_s,
        )
    }
}

/// One run of the schedule: set-up, the open-loop load, reference rows,
/// the same schedule again in bursts of [`PART_BLOCKS`] blocks, checks.
struct Outcome {
    requests: Vec<Request>,
    setup_s: Vec<f64>,
    load: LoadRun,
    bursts: Vec<Burst>,
    units: Vec<(String, usize, Unit, &'static str)>,
    reference: Vec<UnitRun>,
    checked: Checked,
    peak_rss_mb: f64,
}

impl Outcome {
    /// The medians over the bursts of [`Burst::rates`].
    fn burst_rates(&self) -> (f64, f64) {
        let (frames, requests): (Vec<f64>, Vec<f64>) = self.bursts.iter().map(Burst::rates).unzip();
        (median(&frames), median(&requests))
    }

    /// Requests sent in all bursts.
    fn burst_sent(&self) -> usize {
        self.bursts
            .iter()
            .map(|b| b.load.sent.iter().filter(|s| s.sent).count())
            .sum()
    }
}

fn run_once(seed: u64, seconds: f64) -> Outcome {
    let requests = schedule(seed, seconds);
    let base = log_base();
    let fds_before = open_fds();
    let dir = base.join("load");
    let (service, first_setup) = setup(&dir);
    let load = drive(&service, &dir, &requests, fds_before);
    let peak_rss_mb = peak_rss_mb();
    drop(service);
    // More set-ups, one after every few reference units, so the samples
    // spread over seconds like the BER workloads' samples between curves
    // (the machine's speed drifts on that scale).  They reuse an existing
    // log directory, as a restarted daemon does: creating directories on
    // this disk takes anywhere from 15 µs to over a millisecond.
    let units = distinct_units(&requests);
    let mut setup_s = vec![first_setup];
    let mut reference = Vec::with_capacity(units.len());
    let again = base.join("setup");
    drop(setup(&again).0);
    for chunk in units.chunks(UNITS_PER_SETUP_SAMPLE) {
        reference.extend(reference_rows(chunk));
        let (service, s) = setup(&again);
        setup_s.push(s);
        drop(service);
    }
    // The same requests, in parts of whole blocks, each sent at once to a
    // fresh service: the time until a part's last job is done is set by
    // the daemon, not by the offered rate.  Requests past the last whole
    // part are not sent again.
    let part = (PART_BLOCKS * BLOCK.len()).min(requests.len()).max(1);
    let mut bursts = Vec::new();
    for (k, chunk) in requests.chunks_exact(part).enumerate() {
        let burst: Vec<Request> = chunk
            .iter()
            .map(|r| Request {
                at_ns: 0,
                ..r.clone()
            })
            .collect();
        let dir = base.join(format!("burst{k}"));
        let (service, _) = setup(&dir);
        let load = drive(&service, &dir, &burst, open_fds());
        drop(service);
        bursts.push((burst, load));
    }
    let _ = std::fs::remove_dir_all(&base);
    let checked = check(&requests, &load, &units, &reference);
    let bursts = bursts
        .into_iter()
        .map(|(requests, load)| Burst {
            checked: check(&requests, &load, &units, &reference),
            load,
        })
        .collect();
    Outcome {
        requests,
        setup_s,
        load,
        bursts,
        units,
        reference,
        checked,
        peak_rss_mb,
    }
}

fn book(report: &mut Report, o: &Outcome) {
    let bursts = o.bursts.iter().map(|b| ("burst", &b.load, &b.checked));
    for (what, load, checked) in std::iter::once(("open-loop", &o.load, &o.checked)).chain(bursts) {
        report.check(
            checked.attempted + 1,
            checked.failed.len() as u64 + u64::from(!load.drained),
        );
        if !load.drained {
            report.line(format!(
                "the daemon did not finish every {what} job before the drain timeout"
            ));
        }
        for f in checked.failed.iter().take(10) {
            report.line(format!("FAILED {what} {f}"));
        }
    }
}

/// The untraced end-to-end run of `svc_mixed`.
pub fn run(seed: u64, seconds: f64) -> Report {
    let o = run_once(seed, seconds);
    let mut report = Report::default();
    book(&mut report, &o);
    let c = &o.checked;
    let jobs: Vec<f64> = c
        .interactive_ms
        .iter()
        .chain(&c.batch_ms)
        .copied()
        .collect();
    let (burst_frames_per_s, burst_requests_per_s) = o.burst_rates();
    let burst_jobs: usize = o
        .bursts
        .iter()
        .map(|b| b.checked.interactive_ms.len() + b.checked.batch_ms.len())
        .sum();
    report.metric("setup_s", "s", median(&o.setup_s), o.setup_s.len());
    report.metric("peak_rss_mb", "MB", o.peak_rss_mb, 1);
    report.metric("frames_per_s", "1/s", burst_frames_per_s, burst_jobs);
    let samples = [
        ("job_ms", &jobs),
        ("interactive_ms", &c.interactive_ms),
        ("batch_ms", &c.batch_ms),
        ("first_row_ms", &c.first_row_ms),
        ("resume_ms", &c.resume_ms),
    ];
    report.extra(
        "latency_samples_ms",
        Json::obj(
            samples
                .iter()
                .map(|(name, v)| (*name, Json::arr(v.iter().map(|x| Json::from(*x))))),
        ),
    );
    let summaries = samples.map(|(name, v)| (name, Summary::of(v)));
    let late = Summary::of(
        &o.load
            .sent
            .iter()
            .filter(|s| s.sent)
            .map(|s| s.late_ns as f64 * 1e-6)
            .collect::<Vec<_>>(),
    );
    report.line(format!(
        "offered {OFFERED_RATE} requests/s open loop for {seconds} s: {} requests sent, generator late p90 {:.3} ms",
        o.load.sent.iter().filter(|s| s.sent).count(),
        late.p90
    ));
    for (name, s) in summaries {
        report.line(format!(
            "{name:<16} p50 {:>9.3} ms  p90 {:>9.3} ms  (n={}, {} beyond p90)",
            s.p50,
            s.p90,
            s.n,
            s.beyond_p90()
        ));
        report.extra(
            name,
            Json::obj([
                ("p50", Json::from(s.p50)),
                ("p90", Json::from(s.p90)),
                ("n", Json::from(s.n)),
            ]),
        );
    }
    let interactive = Summary::of(&c.interactive_ms);
    report.line(format!(
        "interactive p90 {:.1} ms, informational limit {INTERACTIVE_P90_LIMIT_MS} ms{}",
        interactive.p90,
        if interactive.p90 <= INTERACTIVE_P90_LIMIT_MS {
            ""
        } else {
            " exceeded (not counted as a failure)"
        }
    ));
    report.line(format!(
        "bursts: the same {} requests, {} parts each sent at once, drain at {burst_requests_per_s:.1} requests/s \
         and {burst_frames_per_s:.1} BER frames/s (medians; frames_per_s); offered {OFFERED_RATE} is {:.0}% of the burst rate",
        o.burst_sent(),
        o.bursts.len(),
        100.0 * OFFERED_RATE / burst_requests_per_s
    ));
    for b in &o.bursts {
        let (f, r) = b.rates();
        report.line(format!(
            "  burst part: {} frames, {r:.1} requests/s, {f:.1} frames/s",
            b.checked.frames
        ));
    }
    report.line(format!(
        "failed_share {:.4} ({} of {} requests)",
        c.failed.len() as f64 / c.attempted.max(1) as f64,
        c.failed.len(),
        c.attempted
    ));
    report.extra("offered_rate_per_s", Json::from(OFFERED_RATE));
    report.extra("burst_requests_per_s", Json::from(burst_requests_per_s));
    report.extra(
        "setup_samples_s",
        Json::arr(o.setup_s.iter().map(|x| Json::from(*x))),
    );
    report
}

/// The daemon half of the per-layer ledger: the same schedule and seed as
/// the untraced run, with `handle_line`, `run_unit`, codec builds, NoC
/// evaluation and row encoding timed from the benchmark's side.
pub fn ledger(seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let o = run_once(seed, seconds);
    book(report, &o);
    let c = &o.checked;
    let root = tracer.open("svc.ledger", 0, 0);

    // Request spans, keyed by job id: send → handle_line return, and the
    // job's life from its scheduled send to its done event.
    for (i, s) in o.load.sent.iter().enumerate() {
        if !s.sent {
            continue;
        }
        let job = s
            .job
            .or_else(|| s.target.and_then(|t| o.load.sent[t].job))
            .unwrap_or(0);
        let name = match o.requests[i].kind {
            Kind::Resume => "fec-svc.handle_line.resume",
            _ => "fec-svc.handle_line.submit",
        };
        let send = s.due_ns + s.late_ns;
        tracer.record(name, root, job, send, send + s.handle_ns);
    }
    for e in &o.load.captured.events {
        if e.line.starts_with(r#"{"type":"done""#) || e.line.starts_with(r#"{"type":"row""#) {
            let s = &o.load.sent[e.req];
            let job = s
                .job
                .or_else(|| s.target.and_then(|t| o.load.sent[t].job))
                .unwrap_or(0);
            let name = if e.line.starts_with(r#"{"type":"done""#) {
                "fec-svc.job.done"
            } else {
                "fec-svc.job.row"
            };
            tracer.record(name, root, job, s.due_ns, e.t_ns);
        }
    }

    let us = |ns: u64| ns as f64 * 1e-3;
    let handle = |resume: bool| -> Vec<f64> {
        o.load
            .sent
            .iter()
            .zip(&o.requests)
            .filter(|(s, r)| s.sent && matches!(r.kind, Kind::Resume) == resume)
            .map(|(s, _)| us(s.handle_ns))
            .collect()
    };
    let submit = Summary::of(&handle(false));
    let resume = Summary::of(&handle(true));
    let unit_ms = |class: &str| -> Vec<f64> {
        o.units
            .iter()
            .zip(&o.reference)
            .filter(|(u, _)| u.3 == class)
            .map(|(_, (_, ms))| *ms)
            .collect()
    };
    let ber_ldpc = unit_ms("ber-ldpc");
    let ber_turbo = unit_ms("ber-turbo");
    let compliance = unit_ms("compliance");
    let queue = Summary::of(&c.queue_wait_ms);

    // Codec construction as every daemon BER unit repeats it.
    let span = tracer.open("code-tables.codec_build", root, 0);
    let mut build_us = Vec::new();
    for family in &FAMILIES {
        for _ in 0..5 {
            let (codec, ns) = timed(family.build);
            std::hint::black_box(codec);
            build_us.push(us(ns));
        }
    }
    tracer.close(span);

    // NoC evaluation of every compliance corner code.
    let span = tracer.open("noc-decoder.evaluate", root, 0);
    let config = DecoderConfig::paper_design_point();
    let mut evaluate_ms = Vec::new();
    for standard in Standard::all() {
        for code in ComplianceScope::corners(standard).codes() {
            let (result, ns) = timed(|| evaluate_standard_code(&config, code));
            report.check(1, u64::from(result.is_err()));
            evaluate_ms.push(ns as f64 * 1e-6);
        }
    }
    tracer.close(span);

    // Row events as the service renders them.
    let span = tracer.open("fec-json.row_encode", root, 0);
    let row_us: Vec<f64> = c
        .rows
        .iter()
        .map(|(job, row, data)| {
            let event = protocol::row(*job, *row, data.clone());
            let (line, ns) = timed(|| event.to_string());
            std::hint::black_box(line);
            us(ns)
        })
        .collect();
    tracer.close(span);
    tracer.close(root);

    let ber_submits: Vec<&Request> = o
        .requests
        .iter()
        .filter(|r| matches!(r.kind, Kind::Tiny | Kind::Batch))
        .collect();
    let repeat_share =
        ber_submits.iter().filter(|r| r.repeat).count() as f64 / ber_submits.len().max(1) as f64;
    let late = Summary::of(
        &o.load
            .sent
            .iter()
            .filter(|s| s.sent)
            .map(|s| s.late_ns as f64 * 1e-6)
            .collect::<Vec<_>>(),
    );

    report.metric("fec-svc.submit_us.p50", "us", submit.p50, submit.n);
    report.metric("fec-svc.submit_us.p90", "us", submit.p90, submit.n);
    report.metric("fec-svc.resume_us.p50", "us", resume.p50, resume.n);
    report.metric(
        "fec-svc.unit_ms.ber-ldpc.p50",
        "ms",
        median(&ber_ldpc),
        ber_ldpc.len(),
    );
    report.metric(
        "fec-svc.unit_ms.ber-turbo.p50",
        "ms",
        median(&ber_turbo),
        ber_turbo.len(),
    );
    report.metric(
        "fec-svc.unit_ms.compliance.p50",
        "ms",
        median(&compliance),
        compliance.len(),
    );
    report.metric("fec-svc.queue_wait_ms.p50", "ms", queue.p50, queue.n);
    report.metric("fec-svc.queue_wait_ms.p90", "ms", queue.p90, queue.n);
    report.metric(
        "code-tables.codec_build_us.p50",
        "us",
        median(&build_us),
        build_us.len(),
    );
    report.metric(
        "noc-decoder.evaluate_ms.p50",
        "ms",
        median(&evaluate_ms),
        evaluate_ms.len(),
    );
    report.metric(
        "fec-json.row_encode_us.p50",
        "us",
        median(&row_us),
        row_us.len(),
    );
    report.metric("fec-svc.log_bytes", "bytes", o.load.log_bytes as f64, 1);
    report.metric("fec-svc.open_fds", "count", o.load.fd_growth as f64, 1);
    report.metric(
        "fec-svc.repeat_share",
        "share",
        repeat_share,
        ber_submits.len(),
    );
    report.metric("svc.generator_late_ms.p90", "ms", late.p90, late.n);

    let (_, burst_requests_per_s) = o.burst_rates();
    report.line(format!(
        "daemon: bursts of the schedule drain at {burst_requests_per_s:.1} requests/s (median of {} parts); \
         offered {OFFERED_RATE} ({:.0}% of the burst rate)",
        o.bursts.len(),
        100.0 * OFFERED_RATE / burst_requests_per_s
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(7, 2.0);
        let b = schedule(7, 2.0);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at_ns == y.at_ns && x.line == y.line));
        assert!(schedule(8, 2.0)
            .iter()
            .zip(&a)
            .any(|(x, y)| x.line != y.line));
    }

    #[test]
    fn every_scheduled_submit_is_valid() {
        for r in schedule(3, 3.0) {
            if !r.line.is_empty() {
                let request = Json::parse(&r.line).unwrap();
                assert!(fec_svc::job::parse(&request).is_ok(), "{}", r.line);
            }
        }
    }
}
