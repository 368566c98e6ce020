//! [`CodecSpec`]: the one validated description of "which codec" shared by
//! every front end — `ber_study` curves, the `fec-svc` daemon's BER jobs
//! and the codec builders of [`crate::ber`].
//!
//! A spec is a standard, a [`Decoder`] and a block size.  [`CodecSpec::new`]
//! is the only check of the standard/decoder combination, the block and
//! the λ width; [`CodecSpec::build`] is the only map from a spec to its
//! codec (via [`StandardCode::codec_for`], which owns the labels); and
//! [`CodecSpec::seed`] is the fixed study seed of the spec's family, so a
//! daemon job and a `ber_study` curve built from equal specs are
//! byte-identical.

use code_tables::{
    dvb_rcs_ctc, wifi_ldpc, wran_ldpc, Decoder, LteTurboCode, Standard, StandardCode,
};
use fec_channel::sim::FecCodec;
use wimax_ldpc::{CodeRate, QcLdpcCode};
use wimax_turbo::{CtcCode, ExtrinsicExchange};

/// Rejection reason for a λ width on anything but the WiMAX quantized
/// codec.
pub const LAMBDA_ONLY_WIMAX: &str =
    "\"lambda_bits\" is only meaningful for the wimax quantized codec";

/// A validated `(standard, decoder, block)` triple: the rate-1/2 code of
/// `standard` (rate 1/3 for LTE) with `block` = LDPC length `n`, LTE info
/// bits `k` or CTC couples, decoded by `decoder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecSpec {
    standard: Standard,
    decoder: Decoder,
    block: usize,
}

impl CodecSpec {
    /// Validates a spec; `block: None` picks the family's default block
    /// (the one `ber_study` runs first).
    ///
    /// # Errors
    ///
    /// Returns the rejection reason when `decoder` does not run on
    /// `standard`, the block is not in the standard's table, or a
    /// quantized λ width is outside `2..=15` (or not the paper's 7 bits on
    /// a standard other than WiMAX).
    pub fn new(standard: Standard, decoder: Decoder, block: Option<usize>) -> Result<Self, String> {
        let available = match standard {
            Standard::Wimax => decoder != Decoder::Turbo,
            Standard::Wifi80211n | Standard::Wran80222 => {
                !matches!(decoder, Decoder::Turbo | Decoder::Ctc(_))
            }
            Standard::Lte => decoder == Decoder::Turbo,
            Standard::DvbRcs => matches!(decoder, Decoder::Ctc(_)),
        };
        if !available {
            return Err(format!(
                "codec is not available for standard {}",
                standard.flag()
            ));
        }
        let spec = CodecSpec {
            standard,
            decoder,
            block: block.unwrap_or(family(standard, decoder).0),
        };
        spec.code()?;
        if let Decoder::Quantized { lambda_bits } = decoder {
            if !(2..=15).contains(&lambda_bits) {
                return Err("\"lambda_bits\" must be in 2..=15".to_string());
            }
            if standard != Standard::Wimax && decoder != Decoder::Q7 {
                return Err(LAMBDA_ONLY_WIMAX.to_string());
            }
        }
        Ok(spec)
    }

    /// A spec the caller vouches for: the [`crate::ber`] builders keep
    /// their historical panic-on-bad-block contract and construct the code
    /// once, in [`CodecSpec::build`].
    pub(crate) fn unchecked(standard: Standard, decoder: Decoder, block: usize) -> Self {
        CodecSpec {
            standard,
            decoder,
            block,
        }
    }

    /// The decoder.
    pub fn decoder(&self) -> Decoder {
        self.decoder
    }

    /// The block size: LDPC length `n`, LTE info bits `k` or CTC couples.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The fixed study RNG seed of the spec's `(standard, code family)`:
    /// 11 / 13 for WiMAX LDPC / CTC, 17 for 802.11n, 19 for LTE, 23 for
    /// 802.22 and 29 for DVB-RCS.
    pub fn seed(&self) -> u64 {
        family(self.standard, self.decoder).1
    }

    /// Builds the codec (its [`FecCodec::name`] is the curve and job label).
    ///
    /// # Panics
    ///
    /// Panics if the block is not in the standard's table, which a spec
    /// from [`CodecSpec::new`] never is.
    pub fn build(&self) -> Box<dyn FecCodec> {
        let code = self.code().unwrap_or_else(|e| panic!("{e}"));
        code.codec_for(self.decoder)
            .expect("the decoder runs its standard's code")
    }

    /// The spec's code, or the invalid-block rejection reason.
    fn code(&self) -> Result<StandardCode, String> {
        fn reason(e: impl std::fmt::Debug) -> String {
            format!("{e:?}")
        }
        let (standard, block) = (self.standard, self.block);
        let ldpc = |code: QcLdpcCode| StandardCode::Ldpc { standard, code };
        let code = match (standard, self.decoder) {
            (Standard::Wimax, Decoder::Ctc(_)) => CtcCode::wimax(block)
                .map(|code| StandardCode::WimaxTurbo { code })
                .map_err(reason),
            (Standard::Wimax, _) => QcLdpcCode::wimax(block, CodeRate::R12)
                .map(ldpc)
                .map_err(reason),
            (Standard::Wifi80211n, _) => wifi_ldpc(block, CodeRate::R12).map(ldpc).map_err(reason),
            (Standard::Wran80222, _) => wran_ldpc(block, CodeRate::R12).map(ldpc).map_err(reason),
            (Standard::Lte, _) => LteTurboCode::new(block)
                .map(|code| StandardCode::LteTurbo { code })
                .map_err(reason),
            (Standard::DvbRcs, _) => dvb_rcs_ctc(block)
                .map(|code| StandardCode::DvbRcsTurbo { code })
                .map_err(reason),
        };
        code.map_err(|e| format!("invalid block {block} for {}: {e}", standard.flag()))
    }
}

/// The decoder a standard's BER job runs when none is named: the f64
/// layered LDPC datapath, or the standard's turbo decoder (bit-level
/// exchange for the DVB-RCS CTC).
pub fn default_decoder(standard: Standard) -> Decoder {
    match standard {
        Standard::Lte => Decoder::Turbo,
        Standard::DvbRcs => Decoder::Ctc(ExtrinsicExchange::BitLevel),
        _ => Decoder::Layered,
    }
}

/// The `(default block, study seed)` of a `(standard, code family)`.
fn family(standard: Standard, decoder: Decoder) -> (usize, u64) {
    match (standard, decoder) {
        (Standard::Wimax, Decoder::Ctc(_)) => (240, 13),
        (Standard::Wimax, _) => (576, 11),
        (Standard::Wifi80211n, _) => (648, 17),
        (Standard::Lte, _) => (1024, 19),
        (Standard::Wran80222, _) => (480, 23),
        (Standard::DvbRcs, _) => (212, 29),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(standard: Standard, decoder: Decoder) -> CodecSpec {
        CodecSpec::new(standard, decoder, None).unwrap()
    }

    #[test]
    fn study_seeds_are_the_documented_per_family_constants() {
        let symbol = Decoder::Ctc(ExtrinsicExchange::SymbolLevel);
        assert_eq!(spec(Standard::Wimax, Decoder::Layered).seed(), 11);
        assert_eq!(spec(Standard::Wimax, Decoder::Q7).seed(), 11);
        assert_eq!(spec(Standard::Wimax, symbol).seed(), 13);
        assert_eq!(spec(Standard::Wifi80211n, Decoder::Flooding).seed(), 17);
        assert_eq!(spec(Standard::Lte, Decoder::Turbo).seed(), 19);
        assert_eq!(spec(Standard::Wran80222, Decoder::Layered).seed(), 23);
        assert_eq!(spec(Standard::DvbRcs, symbol).seed(), 29);
    }

    #[test]
    fn default_blocks_and_decoders_name_the_study_codes() {
        let names: Vec<String> = Standard::all()
            .iter()
            .map(|&s| spec(s, default_decoder(s)).build().name())
            .collect();
        assert_eq!(
            names,
            [
                "wimax-ldpc-n576-layered",
                "80211n-ldpc-n648-layered",
                "lte-turbo-k1024",
                "80222-ldpc-n480-layered",
                "dvbrcs-ctc-212c-bit",
            ]
        );
        let ctc = spec(Standard::Wimax, Decoder::Ctc(ExtrinsicExchange::BitLevel));
        assert_eq!(ctc.block(), 240);
        assert_eq!(ctc.build().name(), "wimax-ctc-240c-bit");
    }
}
