//! BER studies backing the paper's algorithmic statements, now per
//! standard:
//!
//! * `--standard wimax` (default) — layered vs two-phase LDPC scheduling
//!   (Section II.B) and bit-level vs symbol-level turbo extrinsic exchange
//!   (Section IV.B) on the 802.16e codes;
//! * `--standard 80211n` — the 802.11n LDPC codes on both decode datapaths
//!   (f64 layered reference and the fixed-point hardware model) plus the
//!   flooding baseline;
//! * `--standard lte` — the LTE rate-1/3 binary turbo code at two block
//!   sizes;
//! * `--standard 80222` — the 802.22 WRAN LDPC codes on both decode
//!   datapaths (f64 layered reference and the fixed-point q7 hardware
//!   model) plus the flooding baseline;
//! * `--standard dvbrcs` — the DVB-RCS duo-binary CTC (ATM and signalling
//!   frame sizes) with bit- and symbol-level extrinsic exchange.
//!
//! The curves of each study are one table of [`decoder_bench::CodecSpec`]s
//! ([`decoder_bench::study_sections`]) — the same specs the `fec-svc`
//! daemon builds its BER jobs from — and all of them run on the unified
//! parallel simulation engine.
//!
//! Usage: `cargo run -p decoder-bench --bin ber_study --release --
//! [frames] [--standard wimax|80211n|lte|80222|dvbrcs] [--quantized]
//! [--lambda-bits <n>] [--workers <n>] [--batch-frames <n>]
//! [--adaptive] [--target-rel-width <f>] [--confidence <f>]
//! [--json <path>] [--metrics <path>] [--metrics-report]`
//!
//! `--quantized` adds the fixed-point layered LDPC curve (the hardware
//! datapath model) next to the floating-point reference, quantizing channel
//! LLRs to `--lambda-bits` bits (default 7, the paper's λ width).  The
//! 802.11n and 802.22 studies always run that curve at 7 bits; LTE and
//! DVB-RCS have no LDPC code.  Both flags are validated like a daemon job's
//! `codec: "quantized"` / `lambda_bits`, and an invalid combination exits
//! with status 2 and the daemon's reason before any curve runs.
//!
//! `--workers` sets the worker count of the shared simulation pool (default
//! one per core); every curve schedules its `(point, shard)` work units
//! onto one pool, and the counts are bit-identical for any worker count.
//!
//! `--batch-frames` hands that many frames per call to the codecs'
//! lockstep batch decoder (default 1, one frame per call).  Channel noise is
//! drawn frame by frame before decoding and batch decodes are bit-identical
//! per frame, so every count — and the `--json` output — is byte-for-byte
//! independent of the batch size.
//!
//! `--adaptive` switches every curve to the confidence-targeted stop rule:
//! a point keeps running continuation rounds until the Wilson relative
//! half-width of its frame-error-rate estimate is at most
//! `--target-rel-width` (default 0.2) at the two-sided `--confidence` level
//! (default 0.95), capped by `[frames]` — which becomes the per-point
//! budget instead of the exact frame count.  Round sizes are a pure
//! function of the merged counts, so adaptive outputs too are
//! byte-identical for any `--workers`/`--batch-frames` combination.
//!
//! `--metrics` writes the observability registry of the whole study (codec,
//! fixed-datapath, engine and pool metrics) as an `OBS_*.json` export; its
//! `counts` section is byte-identical for any `--workers`/`--batch-frames`
//! combination.  `--metrics-report` prints the ASCII report instead of (or
//! next to) the file.

use code_tables::{Decoder, Standard};
use decoder_bench::{
    print_curve, run_curve_maybe_observed, standard_snrs, study_engine_config, study_sections,
    write_json, CodecSpec, CommonFlags, ObsCollector,
};
use fec_channel::sim::SimulationEngine;
use fec_json::{Json, ToJson};

fn main() {
    let flags = CommonFlags::parse(std::env::args().skip(1));
    let CommonFlags {
        json: json_path,
        metrics,
        standard,
        workers,
        batch_frames: batch,
        adaptive,
        rest,
    } = flags;
    let standard = standard.unwrap_or(Standard::Wimax);
    let mut quantized = None;
    let mut frames: u64 = 60;
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quantized" => {
                quantized.get_or_insert(Decoder::Q7);
            }
            "--lambda-bits" => {
                let value = rest.next().expect("--lambda-bits requires a bit width");
                let lambda_bits = value.parse().expect("--lambda-bits takes an integer");
                quantized = Some(Decoder::Quantized { lambda_bits });
            }
            other => {
                frames = other
                    .parse()
                    .unwrap_or_else(|_| panic!("unrecognised argument: {other}"));
            }
        }
    }
    // The fixed-point flags name a codec like a daemon job does, so they
    // are validated (and rejected) with the daemon's reasons.
    let quantized = quantized.map(|decoder| {
        CodecSpec::new(standard, decoder, None).unwrap_or_else(|reason| {
            eprintln!("ber_study: {reason}");
            std::process::exit(2);
        })
    });

    if let Some(a) = adaptive {
        println!(
            "adaptive stop rule: target relative half-width {} at {}% confidence, \
             cap {frames} frames per point\n",
            a.target_rel_width,
            100.0 * a.confidence
        );
    }
    let mut obs = metrics.enabled().then(ObsCollector::new);
    let snrs = standard_snrs(standard);
    let mut curves = Vec::new();
    for (heading, section) in study_sections(standard, quantized) {
        println!("{heading} ({frames} frames per point)\n");
        for (spec, title) in section {
            // The same engine assembly and seed as the daemon's BER job for
            // this spec, so CLI and daemon rows are byte-identical.
            let engine = SimulationEngine::new(study_engine_config(
                frames,
                workers,
                batch,
                adaptive,
                spec.seed(),
            ));
            let curve = run_curve_maybe_observed(&engine, spec.build().as_ref(), snrs, &mut obs);
            print_curve(&title, &curve.points);
            curves.push(curve);
        }
    }
    if let Some(collector) = &obs {
        metrics.emit(&collector.registry);
    }

    if let Some(path) = json_path {
        let mut pairs = vec![
            ("study", Json::str("ber_study")),
            ("standard", Json::str(standard.name())),
            ("frames_per_point", Json::from(frames)),
            (
                "stop_rule",
                Json::str(if adaptive.is_some() {
                    "relative_width"
                } else {
                    "fixed_budget"
                }),
            ),
        ];
        if let Some(a) = adaptive {
            pairs.push(("target_rel_width", Json::from(a.target_rel_width)));
            pairs.push(("confidence", Json::from(a.confidence)));
        }
        pairs.push(("curves", Json::arr(curves.iter().map(ToJson::to_json))));
        let json = Json::obj(pairs);
        write_json(&path, &json);
    }
}
