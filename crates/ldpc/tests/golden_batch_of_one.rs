//! Golden pins for single-frame (batch of one) decoding on both layered
//! datapaths.
//!
//! The lane-versus-single-frame tests compare two ways of decoding the same
//! frame, which proves nothing once both ways run the same kernel.  This
//! file pins the absolute B=1 output of `LayeredDecoder::decode` (f64) and
//! `FixedLayeredDecoder::decode` (q7 default widths and the paper's 5-bit
//! `R` memory) instead: for every frame, a hash of the hard bits, the
//! iteration count, the convergence flag and a hash of the posterior bit
//! patterns (`f64::to_bits`, so NaN lanes are compared exactly).
//!
//! The noise uses only IEEE arithmetic (a 12-uniform Irwin–Hall sum, no
//! `ln`/`cos`), so the frames — and the pins — do not depend on the
//! platform's libm.

use fec_fixed::Llr;
use fec_obs::NoopRecorder;
use rand::{Rng, SeedableRng};
use wimax_ldpc::decoder::{
    DecodeOutcome, FixedLayeredConfig, FixedLayeredDecoder, FrameInput, LayeredConfig,
    LayeredDecoder,
};
use wimax_ldpc::{CodeRate, QcEncoder, QcLdpcCode};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(hard-bit hash, iterations, converged, posterior-bits hash)`.
type Pin = (u64, usize, bool, u64);

fn pin(out: &DecodeOutcome) -> Pin {
    (
        fnv1a(out.hard_bits.iter().copied()),
        out.iterations,
        out.converged,
        fnv1a(out.posterior.iter().flat_map(|p| p.to_bits().to_le_bytes())),
    )
}

/// Approximately standard normal, from IEEE `+`/`-` only.
fn gaussian(rng: &mut impl Rng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

/// BPSK + AWGN channel LLRs of a random codeword.
fn noisy_codeword(code: &QcLdpcCode, sigma: f64, seed: u64) -> Vec<Llr> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1u8)).collect();
    let cw = QcEncoder::new(code).encode(&info).unwrap();
    cw.iter()
        .map(|&b| {
            let s = if b == 0 { 1.0 } else { -1.0 };
            Llr::new(2.0 * (s + sigma * gaussian(&mut rng)) / (sigma * sigma))
        })
        .collect()
}

/// Eleven channel frames: clean, moderate and heavy noise, one pure-noise
/// frame that cannot converge, and one NaN-bearing frame.
fn frames(code: &QcLdpcCode) -> Vec<Vec<Llr>> {
    let mut frames = vec![noisy_codeword(code, 0.35, 1)];
    for seed in 2..6 {
        frames.push(noisy_codeword(code, 0.8, seed));
    }
    for seed in 6..10 {
        frames.push(noisy_codeword(code, 0.88, seed));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    frames.push(
        (0..code.n())
            .map(|_| Llr::new(rng.gen_range(-1.0..1.0)))
            .collect(),
    );
    let mut with_nan = noisy_codeword(code, 0.8, 11);
    with_nan[37] = Llr::new(f64::NAN);
    with_nan[401] = Llr::new(f64::NAN);
    frames.push(with_nan);
    frames
}

/// The twelfth frame: already-quantized values in ±300, far outside the
/// 7-bit λ range, so the input clamp and every saturation rail are hit.
fn saturating_frame(code: &QcLdpcCode) -> Vec<i16> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    (0..code.n())
        .map(|_| rng.gen_range(-300i16..=300))
        .collect()
}

fn f64_pins(code: &QcLdpcCode) -> Vec<Pin> {
    let dec = LayeredDecoder::new(code, LayeredConfig::default());
    let mut pins: Vec<Pin> = frames(code).iter().map(|f| pin(&dec.decode(f))).collect();
    // The f64 counterpart of the saturating frame (one fractional bit).
    let wide: Vec<Llr> = saturating_frame(code)
        .iter()
        .map(|&q| Llr::new(f64::from(q) / 2.0))
        .collect();
    pins.push(pin(&dec.decode(&wide)));
    pins
}

fn fixed_pins(code: &QcLdpcCode, config: FixedLayeredConfig) -> Vec<Pin> {
    let dec = FixedLayeredDecoder::new(code, config);
    let mut pins: Vec<Pin> = frames(code).iter().map(|f| pin(&dec.decode(f))).collect();
    let q = saturating_frame(code);
    let input = FrameInput::Quantized {
        frames: &q,
        batch: 1,
    };
    let outcomes = dec.decode_into(input, &mut NoopRecorder);
    assert_eq!(outcomes.len(), 1);
    pins.push(pin(&outcomes[0]));
    pins
}

fn code() -> QcLdpcCode {
    QcLdpcCode::wimax(576, CodeRate::R12).unwrap()
}

/// The frame set must keep exercising what it claims to: instant, late and
/// failed convergence.
fn assert_frame_set_is_mixed(pins: &[Pin]) {
    assert!(pins.iter().any(|p| p.2), "some frame must converge");
    assert!(pins.iter().any(|p| !p.2), "some frame must fail");
    let iters: Vec<usize> = pins.iter().map(|p| p.1).collect();
    assert!(iters.contains(&1), "{iters:?}");
    assert!(iters.iter().any(|&i| i > 2 && i < 10), "{iters:?}");
}

#[test]
fn f64_layered_batch_of_one_matches_golden_pins() {
    let pins = f64_pins(&code());
    assert_frame_set_is_mixed(&pins);
    assert_eq!(pins, GOLDEN_F64);
}

#[test]
fn fixed_layered_batch_of_one_matches_golden_pins() {
    let pins = fixed_pins(&code(), FixedLayeredConfig::default());
    assert_frame_set_is_mixed(&pins);
    assert_eq!(pins, GOLDEN_FIXED_Q7);
}

#[test]
fn fixed_layered_paper_widths_batch_of_one_matches_golden_pins() {
    let pins = fixed_pins(&code(), FixedLayeredConfig::paper());
    assert_eq!(pins, GOLDEN_FIXED_PAPER);
}

// Taken from decoders that still had a separate single-frame kernel per
// datapath, so the pins also hold the lockstep kernel at B=1 to that
// kernel's outputs.
const GOLDEN_F64: [Pin; 12] = [
    (0x4224e9f56161cde8, 1, true, 0x7d1b62cd4ac50b78),
    (0x1f70984662fe36c8, 5, true, 0xdf09f2ed6c17b6b2),
    (0x70767e087329de57, 5, true, 0xaa795e7e1c793174),
    (0x0666d219f7c60081, 4, true, 0x2536ff421879f507),
    (0xfede3cd46a5f162d, 3, true, 0x5253938878eb9da1),
    (0xf682191321afe974, 5, true, 0x0753ca867179e8a4),
    (0xf8db36de434a6d01, 7, true, 0x766379ec90be4a74),
    (0x10ced3ea90ed3f84, 5, true, 0xfcd0e24b7ba01f2d),
    (0xad9e4b929536301a, 10, false, 0xfd6d41174f1a7dc3),
    (0xc6d0cba603c8007f, 10, false, 0x1400359da9d28bce),
    (0x6d6a9111f124a304, 10, false, 0x2953150c4da687ed),
    (0x4bba8de5362f728d, 10, false, 0x10989b54be06a421),
];
const GOLDEN_FIXED_Q7: [Pin; 12] = [
    (0x4224e9f56161cde8, 1, true, 0xffba56191f8050de),
    (0x1f70984662fe36c8, 5, true, 0x17346f5d4ca59ee9),
    (0x70767e087329de57, 6, true, 0x543cc16fbf31cb18),
    (0x0666d219f7c60081, 4, true, 0xcbfbf5e0970edac3),
    (0xfede3cd46a5f162d, 3, true, 0x9284e199fc81acac),
    (0xf682191321afe974, 4, true, 0x58958945d33386a5),
    (0xf8db36de434a6d01, 9, true, 0x4d3b2ddfaaa602f0),
    (0x10ced3ea90ed3f84, 5, true, 0x479ce2ab889ef83d),
    (0xd2e005bc1ced0a18, 10, false, 0xdd177ce69884d3bf),
    (0x47085caafbf88d2a, 10, false, 0xd195d464ef01f295),
    (0x60e114001cbfda66, 6, true, 0xe140218f1f1f073e),
    (0x8b3e0990bb9df374, 10, false, 0xef7dde05a19d894b),
];
const GOLDEN_FIXED_PAPER: [Pin; 12] = [
    (0x4224e9f56161cde8, 1, true, 0x624c2e0488eaa300),
    (0x1f70984662fe36c8, 5, true, 0xd7d98b9d178c6418),
    (0x70767e087329de57, 6, true, 0x82c96c33349073de),
    (0x0666d219f7c60081, 4, true, 0xbe612e2ab9d97843),
    (0xfede3cd46a5f162d, 3, true, 0x8e6d0204679c4a69),
    (0xf682191321afe974, 4, true, 0x58958945d33386a5),
    (0xf8db36de434a6d01, 9, true, 0x4d3b2ddfaaa602f0),
    (0x10ced3ea90ed3f84, 5, true, 0x57a9775c03c53275),
    (0xd2e005bc1ced0a18, 10, false, 0x943e115f4b023a48),
    (0x47085caafbf88d2a, 10, false, 0xd195d464ef01f295),
    (0x60e114001cbfda66, 6, true, 0x247b1159da2e9da9),
    (0x1dd8d29181be388b, 10, false, 0x42e4f9e5bd62aeef),
];
