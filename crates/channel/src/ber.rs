//! Monte-Carlo bit/frame error-rate measurement.

use crate::source::hamming_distance;
use crate::stats::{normal_quantile, wilson_interval};

/// Accumulates bit and frame error counts over a Monte-Carlo run.
///
/// # Example
///
/// ```
/// use fec_channel::ErrorCounter;
///
/// let mut c = ErrorCounter::new();
/// c.record_frame(&[0, 0, 1, 1], &[0, 0, 1, 0]);
/// c.record_frame(&[0, 1], &[0, 1]);
/// assert_eq!(c.bit_errors(), 1);
/// assert_eq!(c.frame_errors(), 1);
/// assert_eq!(c.frames(), 2);
/// assert!((c.ber() - 1.0 / 6.0).abs() < 1e-12);
/// assert!((c.fer() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorCounter {
    bit_errors: u64,
    bits: u64,
    frame_errors: u64,
    frames: u64,
}

impl ErrorCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decoded frame against the transmitted reference.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn record_frame(&mut self, reference: &[u8], decoded: &[u8]) {
        let errs = hamming_distance(reference, decoded) as u64;
        self.bit_errors += errs;
        self.bits += reference.len() as u64;
        self.frames += 1;
        if errs > 0 {
            self.frame_errors += 1;
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &ErrorCounter) {
        self.bit_errors += other.bit_errors;
        self.bits += other.bits;
        self.frame_errors += other.frame_errors;
        self.frames += other.frames;
    }

    /// Total bit errors observed.
    pub fn bit_errors(&self) -> u64 {
        self.bit_errors
    }

    /// Total bits compared.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Total erroneous frames observed.
    pub fn frame_errors(&self) -> u64 {
        self.frame_errors
    }

    /// Total frames compared.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bit error rate (0 if no bits were recorded).
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }

    /// Frame error rate (0 if no frames were recorded).
    pub fn fer(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.frame_errors as f64 / self.frames as f64
        }
    }
}

/// How the simulation engine decides that a curve point has simulated
/// enough frames.
///
/// The classic mode is [`FixedBudget`]: a point runs until `max_frames`
/// frames, or stops early once `target_frame_errors` frame errors have been
/// seen after at least `min_frames` frames.  Its outputs are byte-identical
/// to every release that predates the adaptive mode.
///
/// [`RelativeWidth`] is the adaptive mode: a point keeps running
/// continuation rounds until the Wilson-score confidence interval of its
/// frame error rate is narrow *relative to the estimate* —
/// `half_width / center <= target_rel_width` at the configured two-sided
/// `confidence` — capped by a hard per-point budget of `max_frames`.  Points
/// that reach the target release their budget immediately; points that never
/// see an error have a relative half-width pinned at 1 (see
/// [`crate::stats::wilson_interval`]) and run to the cap.  Round sizes are a
/// pure function of the merged counts, so the adaptive schedule is
/// bit-identical at any worker count and decode batch size.
///
/// [`FixedBudget`]: StopRule::FixedBudget
/// [`RelativeWidth`]: StopRule::RelativeWidth
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Fixed frame budget with optional frame-error early stop.
    FixedBudget {
        /// Stop after this many frames regardless of the error count.
        max_frames: u64,
        /// Stop early once this many frame errors have been observed (gives
        /// a controlled relative confidence on the FER estimate).
        target_frame_errors: u64,
        /// Minimum number of frames to simulate even if the error target is
        /// hit.
        min_frames: u64,
    },
    /// Confidence-targeted adaptive sampling.
    RelativeWidth {
        /// Stop once the Wilson relative half-width of the FER estimate is
        /// at or below this value.  Must lie strictly inside `(0, 1)`: a
        /// target of 1 or more would stop before the first error, and 0 can
        /// never be reached.
        target_rel_width: f64,
        /// Two-sided confidence level of the interval, strictly inside
        /// `(0.5, 1)` (e.g. `0.95`).
        confidence: f64,
        /// Hard per-point frame cap; the point stops here even if the width
        /// target was never reached (e.g. zero observed errors).
        max_frames: u64,
        /// Minimum number of frames before the width target may stop a
        /// point.
        min_frames: u64,
    },
}

impl Default for StopRule {
    fn default() -> Self {
        StopRule::FixedBudget {
            max_frames: 10_000,
            target_frame_errors: 50,
            min_frames: 20,
        }
    }
}

impl StopRule {
    /// `true` for the adaptive [`RelativeWidth`](StopRule::RelativeWidth)
    /// mode.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, StopRule::RelativeWidth { .. })
    }

    /// The per-point frame budget (the hard cap in adaptive mode).
    pub(crate) fn max_frames(&self) -> u64 {
        match *self {
            StopRule::FixedBudget { max_frames, .. }
            | StopRule::RelativeWidth { max_frames, .. } => max_frames,
        }
    }

    /// Normal quantile of the adaptive confidence level (`0` for a fixed
    /// budget, which has no interval).
    pub(crate) fn z(&self) -> f64 {
        match *self {
            StopRule::FixedBudget { .. } => 0.0,
            StopRule::RelativeWidth { confidence, .. } => normal_quantile(0.5 + confidence / 2.0),
        }
    }

    /// Checks the rule for degenerate settings, naming the offending field.
    ///
    /// A fixed budget rejects a zero frame budget (a run could never record
    /// anything) and `min_frames > max_frames` (the budget always wins, which
    /// would contradict the `min_frames` documentation).  The adaptive rule
    /// rejects `target_rel_width` outside `(0, 1)`, `confidence` outside
    /// `(0.5, 1)`, a zero frame cap and a minimum above the cap.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            StopRule::FixedBudget {
                max_frames,
                min_frames,
                ..
            } => {
                if max_frames == 0 {
                    return Err("max_frames must be at least 1".into());
                }
                if min_frames > max_frames {
                    return Err(format!(
                        "min_frames ({min_frames}) exceeds max_frames ({max_frames}): the minimum \
                         could never be honoured"
                    ));
                }
                Ok(())
            }
            StopRule::RelativeWidth {
                target_rel_width,
                confidence,
                max_frames,
                min_frames,
            } => {
                if !(target_rel_width > 0.0 && target_rel_width < 1.0) {
                    return Err(format!(
                        "target_rel_width must lie strictly inside (0, 1), got \
                         {target_rel_width} (zero-error points have relative half-width 1, \
                         so a target of 1 or more would stop before the first error)"
                    ));
                }
                if !(confidence > 0.5 && confidence < 1.0) {
                    return Err(format!(
                        "confidence must lie strictly inside (0.5, 1), got {confidence}"
                    ));
                }
                if max_frames == 0 {
                    return Err(
                        "adaptive max_frames (the per-point frame cap) must be at least 1".into(),
                    );
                }
                if min_frames > max_frames {
                    return Err(format!(
                        "min_frames ({min_frames}) exceeds the adaptive max_frames cap \
                         ({max_frames}): the minimum could never be honoured"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Returns `true` when a point with the given counter state is done.
    pub(crate) fn should_stop(&self, counter: &ErrorCounter) -> bool {
        let frames = counter.frames();
        match *self {
            StopRule::FixedBudget {
                max_frames,
                target_frame_errors,
                min_frames,
            } => {
                frames >= max_frames
                    || (frames >= min_frames && counter.frame_errors() >= target_frame_errors)
            }
            StopRule::RelativeWidth {
                target_rel_width,
                max_frames,
                min_frames,
                ..
            } => {
                if frames >= max_frames {
                    return true;
                }
                let rhw =
                    wilson_interval(counter.frame_errors(), frames, self.z()).relative_half_width();
                frames >= min_frames && rhw <= target_rel_width
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = ErrorCounter::new();
        c.record_frame(&[0, 0, 0, 0], &[0, 0, 0, 0]);
        c.record_frame(&[1, 1, 1, 1], &[1, 0, 1, 0]);
        assert_eq!(c.bits(), 8);
        assert_eq!(c.bit_errors(), 2);
        assert_eq!(c.frames(), 2);
        assert_eq!(c.frame_errors(), 1);
    }

    #[test]
    fn empty_counter_rates_are_zero() {
        let c = ErrorCounter::new();
        assert_eq!(c.ber(), 0.0);
        assert_eq!(c.fer(), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = ErrorCounter::new();
        a.record_frame(&[0, 0], &[0, 1]);
        let mut b = ErrorCounter::new();
        b.record_frame(&[0, 0], &[0, 0]);
        a.merge(&b);
        assert_eq!(a.frames(), 2);
        assert_eq!(a.bit_errors(), 1);
    }

    /// A fixed budget with the given `(max_frames, target_frame_errors,
    /// min_frames)`.
    fn fixed(max_frames: u64, target_frame_errors: u64, min_frames: u64) -> StopRule {
        StopRule::FixedBudget {
            max_frames,
            target_frame_errors,
            min_frames,
        }
    }

    /// Records frames from `frame` until `rule` says stop, the way the
    /// engine drives one point.
    fn drive(rule: StopRule, frame: impl Fn() -> (Vec<u8>, Vec<u8>)) -> ErrorCounter {
        let mut counter = ErrorCounter::new();
        while !rule.should_stop(&counter) {
            let (reference, decoded) = frame();
            counter.record_frame(&reference, &decoded);
        }
        counter
    }

    #[test]
    fn stopping_rules() {
        let rule = fixed(10, 2, 3);
        let mut c = ErrorCounter::new();
        c.record_frame(&[0], &[1]);
        c.record_frame(&[0], &[1]);
        // error target hit but min_frames not reached yet
        assert!(!rule.should_stop(&c));
        c.record_frame(&[0], &[0]);
        assert!(rule.should_stop(&c));
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_inconsistency() {
        assert!(StopRule::default().validate().is_ok());
        let err = fixed(10, 5, 11).validate().unwrap_err();
        assert_eq!(
            err,
            "min_frames (11) exceeds max_frames (10): the minimum could never be honoured"
        );
        let err = fixed(0, 5, 0).validate().unwrap_err();
        assert_eq!(err, "max_frames must be at least 1");
    }

    #[test]
    fn stop_rule_validate_rejects_degenerate_adaptive_settings() {
        let adaptive =
            |target_rel_width, confidence, max_frames, min_frames| StopRule::RelativeWidth {
                target_rel_width,
                confidence,
                max_frames,
                min_frames,
            };
        assert!(!StopRule::default().is_adaptive());
        let good = adaptive(0.2, 0.95, 1_000, 32);
        assert!(good.is_adaptive());
        assert!(good.validate().is_ok());

        for bad_target in [0.0, -0.1, 1.0, 1.5, f64::NAN] {
            let err = adaptive(bad_target, 0.95, 1_000, 32)
                .validate()
                .unwrap_err();
            assert!(err.contains("target_rel_width"), "{bad_target}: {err}");
        }
        for bad_confidence in [0.5, 0.2, 1.0, 1.5, f64::NAN] {
            let err = adaptive(0.2, bad_confidence, 1_000, 32)
                .validate()
                .unwrap_err();
            assert!(err.contains("confidence"), "{bad_confidence}: {err}");
        }
        let err = adaptive(0.2, 0.95, 0, 0).validate().unwrap_err();
        assert!(err.contains("max_frames"), "{err}");
        let err = adaptive(0.2, 0.95, 100, 101).validate().unwrap_err();
        assert_eq!(
            err,
            "min_frames (101) exceeds the adaptive max_frames cap (100): the minimum could \
             never be honoured"
        );
    }

    #[test]
    fn adaptive_rule_stops_on_width_but_not_before_min_frames() {
        let rule = StopRule::RelativeWidth {
            target_rel_width: 0.3,
            confidence: 0.9,
            max_frames: 10_000,
            min_frames: 100,
        };
        // Every frame errs, so the width target is met within a few frames;
        // the minimum still holds the point open until frame 100.
        let counter = drive(rule, || (vec![0u8; 4], vec![1u8, 0, 0, 0]));
        assert_eq!(counter.frames(), 100);
        // Error-free frames never narrow the relative width: the cap stops.
        let rule = StopRule::RelativeWidth {
            target_rel_width: 0.3,
            confidence: 0.9,
            max_frames: 77,
            min_frames: 1,
        };
        assert_eq!(drive(rule, || (vec![0u8; 4], vec![0u8; 4])).frames(), 77);
    }

    #[test]
    fn max_frames_always_stops() {
        let rule = fixed(2, 100, 1);
        let mut c = ErrorCounter::new();
        c.record_frame(&[0], &[0]);
        c.record_frame(&[0], &[0]);
        assert!(rule.should_stop(&c));
    }

    #[test]
    fn run_driver_honours_error_target() {
        let counter = drive(fixed(1_000, 7, 1), || (vec![0u8; 4], vec![1u8, 0, 0, 0]));
        assert_eq!(counter.frame_errors(), 7);
        assert_eq!(counter.frames(), 7);
    }

    #[test]
    fn run_driver_honours_max_frames() {
        let counter = drive(fixed(13, 1_000, 1), || (vec![0u8; 4], vec![0u8; 4]));
        assert_eq!(counter.frames(), 13);
        assert_eq!(counter.frame_errors(), 0);
    }
}
