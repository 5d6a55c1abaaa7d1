//! Rauch–Tung–Striebel (RTS) fixed-interval smoothing for the gradient
//! EKF.
//!
//! The paper's filter runs forward only, so its gradient estimate lags
//! every gradient change by the filter's time constant — a penalty that
//! simple *acausal* baselines (central differences over the same data) do
//! not pay. Since the batch pipeline scores a completed trip anyway, the
//! standard fix is a backward RTS pass over the stored filter history:
//!
//! ```text
//! C_k  = P_f(k) · F_kᵀ · P_p(k+1)⁻¹
//! x_s(k) = x_f(k) + C_k · (x_s(k+1) − x_p(k+1))
//! P_s(k) = P_f(k) + C_k · (P_s(k+1) − P_p(k+1)) · C_kᵀ
//! ```
//!
//! The streaming estimator ([`crate::online`]) cannot use this — that is
//! precisely the causal/batch trade the `extended_baselines` experiment
//! quantifies.

use gradest_math::{Mat2, Vec2};
use serde::{Deserialize, Serialize};

/// One forward-pass step recorded for smoothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RtsStep {
    /// Predicted state at this step (before measurement updates).
    pub x_pred: Vec2,
    /// Predicted covariance.
    pub p_pred: Mat2,
    /// Filtered state (after this step's measurement updates).
    pub x_filt: Vec2,
    /// Filtered covariance.
    pub p_filt: Mat2,
    /// Process Jacobian of the *previous* filtered state into this step's
    /// prediction.
    pub f: Mat2,
}

/// One backward RTS step: smooths `step` given the next step's record
/// and its smoothed `(x_s, P_s)`. A singular predicted covariance at
/// `next` yields the filtered estimate unchanged (no smoothing gain).
#[inline]
fn rts_step(step: &RtsStep, next: &RtsStep, (x_s_next, p_s_next): (Vec2, Mat2)) -> (Vec2, Mat2) {
    let Ok(p_pred_inv) = next.p_pred.inverse() else {
        return (step.x_filt, step.p_filt);
    };
    let c = step.p_filt * next.f.transpose() * p_pred_inv;
    let x = step.x_filt + c * (x_s_next - next.x_pred);
    let mut p = step.p_filt + c * (p_s_next - next.p_pred) * c.transpose();
    p.symmetrize();
    // Guard the diagonal against numerically negative variances.
    p.m[0][0] = p.m[0][0].max(1e-12);
    p.m[1][1] = p.m[1][1].max(1e-12);
    (x, p)
}

/// Runs the backward RTS recursion straight into a gradient track's
/// columns: `theta[k]` receives the smoothed θ of step `k` and
/// `variance[k]` its `max(P_θθ, 1e-12)`. The running smoothed state
/// lives in locals, so the pass needs no buffer at all. See
/// [`rts_smooth`] for semantics.
///
/// The columns hold one entry per history step; if they are shorter,
/// only the history prefix they cover is smoothed.
pub fn rts_smooth_into(history: &[RtsStep], theta: &mut [f64], variance: &mut [f64]) {
    let mut next: Option<(&RtsStep, (Vec2, Mat2))> = None;
    for ((step, th), var) in history.iter().zip(theta.iter_mut()).zip(variance.iter_mut()).rev() {
        let smoothed = match next {
            Some((next_step, s_next)) => rts_step(step, next_step, s_next),
            None => (step.x_filt, step.p_filt),
        };
        *th = smoothed.0.y;
        *var = smoothed.1.m[1][1].max(1e-12);
        next = Some((step, smoothed));
    }
}

/// Four [`rts_smooth_into`] passes with their backward recursions
/// interleaved: step `k` of every lane is computed before stepping to
/// `k − 1`, so the four independent dependency chains (each serialized
/// on a `Mat2` inverse and three small matrix products) overlap instead
/// of running back to back. Per lane the operation sequence is exactly
/// [`rts_smooth_into`]'s, so results are bit-identical.
///
/// `tracks[l]` is lane `l`'s `(theta, variance)` column pair. The
/// interleave requires every history and column to have the same
/// length (the fused pipeline records one step and one track sample per
/// IMU sample per lane, so they always match there); otherwise it falls
/// back to four sequential passes.
pub fn rts_smooth_lanes_into(
    histories: [&[RtsStep]; 4],
    mut tracks: [(&mut [f64], &mut [f64]); 4],
) {
    let n = histories[0].len();
    let equal = histories.iter().all(|h| h.len() == n)
        && tracks.iter().all(|(th, var)| th.len() == n && var.len() == n);
    if !equal {
        for (history, (theta, variance)) in histories.into_iter().zip(tracks) {
            rts_smooth_into(history, theta, variance);
        }
        return;
    }
    let Some(last) = n.checked_sub(1) else {
        return;
    };
    let mut state = histories.map(|h| (h[last].x_filt, h[last].p_filt));
    for ((theta, variance), &(x, p)) in tracks.iter_mut().zip(&state) {
        theta[last] = x.y;
        variance[last] = p.m[1][1].max(1e-12);
    }
    for k in (0..last).rev() {
        for ((history, (theta, variance)), s) in
            histories.iter().zip(tracks.iter_mut()).zip(state.iter_mut())
        {
            // lint:allow(hot-index) k < n - 1 from the loop range
            *s = rts_step(&history[k], &history[k + 1], *s);
            theta[k] = s.0.y;
            variance[k] = s.1.m[1][1].max(1e-12);
        }
    }
}

/// Runs the backward RTS recursion over a forward history, returning the
/// smoothed `(state, covariance)` per step.
///
/// Near-singular predicted covariances fall back to the filtered estimate
/// for that step (no smoothing gain), so the pass never fails.
pub fn rts_smooth(history: &[RtsStep]) -> Vec<(Vec2, Mat2)> {
    let mut out: Vec<(Vec2, Mat2)> = history.iter().map(|s| (s.x_filt, s.p_filt)).collect();
    let mut next: Option<(&RtsStep, (Vec2, Mat2))> = None;
    for (step, smoothed) in history.iter().zip(out.iter_mut()).rev() {
        if let Some((next_step, s_next)) = next {
            *smoothed = rts_step(step, next_step, s_next);
        }
        next = Some((step, *smoothed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ekf::{EkfConfig, GradientEkf};
    use gradest_math::GRAVITY;

    /// Runs the EKF over a gradient step change, recording RTS history.
    fn run_with_history(theta_of_t: impl Fn(f64) -> f64, seconds: f64) -> (Vec<RtsStep>, Vec<f64>) {
        let dt = 0.02;
        let mut ekf = GradientEkf::new(EkfConfig::default(), 15.0);
        let mut history = Vec::new();
        let mut truth = Vec::new();
        let steps = (seconds / dt) as usize;
        for i in 0..steps {
            let t = i as f64 * dt;
            let theta = theta_of_t(t);
            truth.push(theta);
            let a = GRAVITY * theta.sin();
            let f = ekf.predict_returning_jacobian(a, dt);
            let x_pred = gradest_math::Vec2::new(ekf.velocity(), ekf.theta());
            let p_pred = ekf.covariance();
            if i % 5 == 0 {
                ekf.update(15.0, 0.05);
            }
            history.push(RtsStep {
                x_pred,
                p_pred,
                x_filt: gradest_math::Vec2::new(ekf.velocity(), ekf.theta()),
                p_filt: ekf.covariance(),
                f,
            });
        }
        (history, truth)
    }

    #[test]
    fn smoothing_reduces_step_response_lag() {
        // Gradient steps from +2° to −2° mid-run: the smoothed estimate
        // must track the transition much more tightly than the filter.
        let theta_of_t = |t: f64| if t < 30.0 { 0.035 } else { -0.035 };
        let (history, truth) = run_with_history(theta_of_t, 60.0);
        let smoothed = rts_smooth(&history);
        let err = |estimates: &dyn Fn(usize) -> f64| {
            let mut total = 0.0;
            for (i, th) in truth.iter().enumerate() {
                total += (estimates(i) - th).abs();
            }
            total / truth.len() as f64
        };
        let filt_err = err(&|i| history[i].x_filt.y);
        let smooth_err = err(&|i| smoothed[i].0.y);
        assert!(smooth_err < 0.6 * filt_err, "smoothed {smooth_err} vs filtered {filt_err}");
    }

    #[test]
    fn smoothed_covariance_never_exceeds_filtered() {
        let (history, _) = run_with_history(|_| 0.02, 30.0);
        let smoothed = rts_smooth(&history);
        for (step, (_, p_s)) in history.iter().zip(&smoothed) {
            assert!(p_s.m[1][1] <= step.p_filt.m[1][1] + 1e-12);
            assert!(p_s.m[1][1] > 0.0);
            assert!(p_s.is_finite());
        }
    }

    #[test]
    fn constant_gradient_is_unchanged_in_the_interior() {
        let (history, truth) = run_with_history(|_| 0.03, 40.0);
        let smoothed = rts_smooth(&history);
        // Once converged, filter and smoother agree on a constant road.
        let n = history.len();
        for i in (n / 2)..(n - 100) {
            assert!(
                (smoothed[i].0.y - truth[i]).abs() < 3e-3,
                "i={i}: {} vs {}",
                smoothed[i].0.y,
                truth[i]
            );
        }
    }

    /// The `(θ, max(P_θθ, 1e-12))` columns of [`rts_smooth`]'s output:
    /// what the pipeline copied into its tracks before the pass wrote
    /// them directly.
    fn columns(smoothed: &[(gradest_math::Vec2, gradest_math::Mat2)]) -> (Vec<f64>, Vec<f64>) {
        smoothed.iter().map(|(x, p)| (x.y, p.m[1][1].max(1e-12))).unzip()
    }

    /// Runs [`rts_smooth_lanes_into`] into fresh columns, one pair per
    /// history.
    fn lanes(hists: [&[RtsStep]; 4]) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut cols: Vec<(Vec<f64>, Vec<f64>)> =
            hists.iter().map(|h| (vec![f64::NAN; h.len()], vec![f64::NAN; h.len()])).collect();
        let [a, b, c, d] = &mut cols[..] else { unreachable!() };
        rts_smooth_lanes_into(
            hists,
            [
                (&mut a.0, &mut a.1),
                (&mut b.0, &mut b.1),
                (&mut c.0, &mut c.1),
                (&mut d.0, &mut d.1),
            ],
        );
        cols
    }

    #[test]
    fn interleaved_lanes_match_sequential_passes() {
        // Four different drives, equal history lengths: the interleaved
        // backward pass must reproduce each sequential pass bit for bit.
        let hists: Vec<Vec<RtsStep>> = [0.02f64, -0.035, 0.0, 0.05]
            .iter()
            .map(|&th| run_with_history(|t| if t < 15.0 { th } else { -th }, 30.0).0)
            .collect();
        let mut expected: Vec<(Vec<f64>, Vec<f64>)> =
            hists.iter().map(|h| columns(&rts_smooth(h))).collect();
        assert_eq!(lanes([&hists[0], &hists[1], &hists[2], &hists[3]]), expected);

        // Unequal lengths take the sequential fallback — same results.
        let short: Vec<RtsStep> = hists[3][..hists[3].len() / 2].to_vec();
        expected[3] = columns(&rts_smooth(&short));
        assert_eq!(lanes([&hists[0], &hists[1], &hists[2], &short]), expected);

        // All-empty histories leave empty columns and return.
        assert!(lanes([&[], &[], &[], &[]])
            .iter()
            .all(|(th, var)| th.is_empty() && var.is_empty()));
    }

    #[test]
    fn direct_pass_through_singular_prediction_matches_buffered_copy() {
        // The buffer-then-copy pass the direct one replaced: fill a
        // `(x, P)` buffer with the filtered values, smooth it backward,
        // skipping steps whose successor's prediction is singular, then
        // copy θ and the clamped variance out.
        fn buffered(history: &[RtsStep]) -> (Vec<f64>, Vec<f64>) {
            let n = history.len();
            let mut out: Vec<_> = history.iter().map(|s| (s.x_filt, s.p_filt)).collect();
            for k in (0..n.saturating_sub(1)).rev() {
                let next = &history[k + 1];
                let Ok(p_pred_inv) = next.p_pred.inverse() else {
                    continue;
                };
                let c = history[k].p_filt * next.f.transpose() * p_pred_inv;
                let (x_s_next, p_s_next) = out[k + 1];
                let x = history[k].x_filt + c * (x_s_next - next.x_pred);
                let mut p = history[k].p_filt + c * (p_s_next - next.p_pred) * c.transpose();
                p.symmetrize();
                p.m[0][0] = p.m[0][0].max(1e-12);
                p.m[1][1] = p.m[1][1].max(1e-12);
                out[k] = (x, p);
            }
            columns(&out)
        }

        let (mut history, _) = run_with_history(|t| if t < 10.0 { 0.03 } else { -0.01 }, 20.0);
        // Singular predictions mid-run and right before the last step,
        // plus a filtered covariance whose θθ entry needs the clamp.
        for k in [history.len() / 3, history.len() / 2, history.len() - 1] {
            history[k].p_pred = gradest_math::Mat2::ZERO;
        }
        let k = history.len() / 2 - 1;
        history[k].p_filt.m[1][1] = -1.0;
        assert!(history[k + 1].p_pred.inverse().is_err());
        let expected = buffered(&history);

        let mut theta = vec![f64::NAN; history.len()];
        let mut variance = vec![f64::NAN; history.len()];
        rts_smooth_into(&history, &mut theta, &mut variance);
        assert_eq!((theta, variance), expected);
        assert_eq!(expected.1[k], 1e-12, "the clamp applies to a skipped step");
        assert_eq!(columns(&rts_smooth(&history)), expected);

        // The interleaved pass hits the same singular steps on one lane
        // while the other lanes smooth normally.
        let (clean, _) = run_with_history(|_| 0.02, 20.0);
        let got = lanes([&clean, &history, &clean, &clean]);
        assert_eq!(got[1], expected);
        assert_eq!(got[0], buffered(&clean));
    }

    #[test]
    fn empty_and_single_step_histories() {
        assert!(rts_smooth(&[]).is_empty());
        let (history, _) = run_with_history(|_| 0.01, 0.04);
        let out = rts_smooth(&history[..1]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, history[0].x_filt);
    }
}
