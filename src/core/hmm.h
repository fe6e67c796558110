// Two-state hidden Markov model over detector scores.
//
// The paper observes a plateau in its ROC curves and attributes it to
// magnified background dynamics, suggesting "to model the static profiles as
// well, e.g. via hidden Markov models [27]" (Sec. V-B1). This module is that
// extension: states {empty, occupied} with log-normal score emissions, the
// empty state fitted from calibration scores, plus forward-backward
// smoothing, Viterbi decoding, and an online filter for streaming use.
//
// Occupancy changes on the human timescale (seconds), while score outliers
// from interference bursts last one window — the transition prior lets the
// model absorb isolated outliers that a memoryless threshold converts
// straight into false positives.
#pragma once

#include <vector>

namespace mulink::core {

struct HmmConfig {
  // Per-window probability of the room changing occupancy state. (Each
  // state's emission also carries a fixed heavy-tail outlier mixture; see
  // hmm.cpp.)
  double transition_prob = 0.02;
  // Occupied-state emission: mean log-score sits this many empty-state
  // sigmas above the empty mean...
  double occupied_shift_sigmas = 4.0;
  // ...with this much wider spread (people at different spots score over a
  // wide range).
  double occupied_sigma_scale = 2.5;
};

class PresenceHmm {
 public:
  // Stationary prior probability of occupancy.
  static constexpr double kOccupancyPrior = 0.5;

  // Fit the empty-state emission from calibration-window scores (>= 2,
  // non-negative; emissions are Gaussian in log-score). The occupied state
  // is placed occupied_shift_sigmas above the empty mean.
  static PresenceHmm FitFromEmptyScores(const std::vector<double>& empty_scores,
                                        const HmmConfig& config = {});

  // Semi-supervised variant: fit BOTH emissions from labelled score sets
  // (e.g. empty-room windows plus a few calibration walk-throughs). Ignores
  // config.occupied_shift_sigmas / occupied_sigma_scale.
  static PresenceHmm FitFromLabelledScores(
      const std::vector<double>& empty_scores,
      const std::vector<double>& occupied_scores, const HmmConfig& config = {});

  // Posterior P(occupied | all scores) per window via forward-backward.
  std::vector<double> PosteriorOccupied(const std::vector<double>& scores) const;

  // Most likely state sequence via Viterbi (true = occupied).
  std::vector<bool> Decode(const std::vector<double>& scores) const;

  // Online (causal) filter: P(occupied | scores seen so far).
  class Filter {
   public:
    explicit Filter(const PresenceHmm& hmm);
    // Feed one window score, get the updated posterior.
    double Update(double score);
    double posterior() const { return posterior_; }
    void Reset();

   private:
    const PresenceHmm& hmm_;
    double posterior_;
  };

  // Online recalibration hook (core/calibration): re-centre the empty-state
  // emission on the adapted quiet-score log statistics and re-derive the
  // occupied state per config (shift/scale) — the same construction
  // FitFromEmptyScores uses, including its sigma floor. Transitions, the
  // outlier mixture and any live Filter posterior are untouched, so the
  // filter rides through a profile swap without losing temporal state.
  // (A labelled occupied fit from FitFromLabelledScores is overwritten by
  // the shift-derived one; streaming links fit from empty scores only.)
  void RefitEmptyEmission(double log_mean, double log_sigma);

  double empty_log_mean() const { return empty_log_mean_; }
  double empty_log_sigma() const { return empty_log_sigma_; }
  double occupied_log_mean() const { return occupied_log_mean_; }
  double occupied_log_sigma() const { return occupied_log_sigma_; }
  const HmmConfig& config() const { return config_; }

 private:
  PresenceHmm(double empty_mean, double empty_sigma, double occupied_mean,
              double occupied_sigma, const HmmConfig& config);

  // Emission log-likelihoods for a score.
  double LogLikelihoodEmpty(double score) const;
  double LogLikelihoodOccupied(double score) const;

  double empty_log_mean_ = 0.0;
  double empty_log_sigma_ = 1.0;
  double occupied_log_mean_ = 0.0;
  double occupied_log_sigma_ = 1.0;
  HmmConfig config_;
};

}  // namespace mulink::core
