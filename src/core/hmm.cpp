#include "core/hmm.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/assert.h"
#include "dsp/stats.h"

namespace mulink::core {

namespace {

constexpr double kScoreFloor = 1e-12;

double GaussianLogPdf(double x, double mean, double sigma) {
  const double z = (x - mean) / sigma;
  return -0.5 * z * z - std::log(sigma) - 0.9189385332046727;  // ln sqrt(2 pi)
}

// log(exp(a) + exp(b)) without overflow.
double LogSumExp(double a, double b) {
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

// Heavy-tail emission: each state's Gaussian log-likelihood `gauss` mixed
// as (1 - kOutlierProb) * Gaussian + kOutlierProb * Uniform over
// [kOutlierLogMin, kOutlierLogMax] in log-score. This is what lets the
// model attribute a single interference-burst window to "outlier" rather
// than to an occupancy change.
double WithOutlierMixture(double gauss) {
  constexpr double kOutlierProb = 0.02;
  constexpr double kOutlierLogMin = -12.0;
  constexpr double kOutlierLogMax = 4.0;
  const double outlier = -std::log(kOutlierLogMax - kOutlierLogMin);
  return LogSumExp(std::log1p(-kOutlierProb) + gauss,
                   std::log(kOutlierProb) + outlier);
}

}  // namespace

namespace {

// Fitted (mean, sigma) of log-scores with a sigma floor.
std::pair<double, double> FitLogGaussian(const std::vector<double>& scores) {
  std::vector<double> logs;
  // mulink-lint: allow(alloc): HMM fit, calibration path
  logs.reserve(scores.size());
  for (double s : scores) {
    MULINK_REQUIRE(s >= 0.0, "PresenceHmm: scores must be non-negative");
    // mulink-lint: allow(alloc): HMM fit, calibration path
    logs.push_back(std::log(std::max(s, kScoreFloor)));
  }
  return {dsp::Mean(logs), std::max(dsp::StdDev(logs), 0.05)};
}

}  // namespace

PresenceHmm::PresenceHmm(double empty_mean, double empty_sigma,
                         double occupied_mean, double occupied_sigma,
                         const HmmConfig& config)
    : empty_log_mean_(empty_mean),
      empty_log_sigma_(empty_sigma),
      occupied_log_mean_(occupied_mean),
      occupied_log_sigma_(occupied_sigma),
      config_(config) {}

PresenceHmm PresenceHmm::FitFromLabelledScores(
    const std::vector<double>& empty_scores,
    const std::vector<double>& occupied_scores, const HmmConfig& config) {
  MULINK_REQUIRE(empty_scores.size() >= 2 && occupied_scores.size() >= 2,
                 "PresenceHmm: need >= 2 scores per state to fit");
  MULINK_REQUIRE(config.transition_prob > 0.0 && config.transition_prob < 1.0,
                 "PresenceHmm: transition prob must be in (0,1)");
  const auto [empty_mean, empty_sigma] = FitLogGaussian(empty_scores);
  const auto [occ_mean, occ_sigma] = FitLogGaussian(occupied_scores);
  return PresenceHmm(empty_mean, empty_sigma, occ_mean, occ_sigma, config);
}

PresenceHmm PresenceHmm::FitFromEmptyScores(
    const std::vector<double>& empty_scores, const HmmConfig& config) {
  MULINK_REQUIRE(empty_scores.size() >= 2,
                 "PresenceHmm: need >= 2 empty scores to fit");
  MULINK_REQUIRE(config.transition_prob > 0.0 && config.transition_prob < 1.0,
                 "PresenceHmm: transition prob must be in (0,1)");
  MULINK_REQUIRE(config.occupied_shift_sigmas > 0.0,
                 "PresenceHmm: occupied shift must be > 0");
  MULINK_REQUIRE(config.occupied_sigma_scale >= 1.0,
                 "PresenceHmm: occupied sigma scale must be >= 1");
  const auto [mean, sigma] = FitLogGaussian(empty_scores);
  return PresenceHmm(mean, sigma,
                     mean + config.occupied_shift_sigmas * sigma,
                     config.occupied_sigma_scale * sigma, config);
}

void PresenceHmm::RefitEmptyEmission(double log_mean, double log_sigma) {
  empty_log_mean_ = log_mean;
  empty_log_sigma_ = std::max(log_sigma, 0.05);  // FitLogGaussian's floor
  occupied_log_mean_ =
      empty_log_mean_ + config_.occupied_shift_sigmas * empty_log_sigma_;
  occupied_log_sigma_ = config_.occupied_sigma_scale * empty_log_sigma_;
}

double PresenceHmm::LogLikelihoodEmpty(double score) const {
  const double x = std::log(std::max(score, kScoreFloor));
  return WithOutlierMixture(
      GaussianLogPdf(x, empty_log_mean_, empty_log_sigma_));
}

double PresenceHmm::LogLikelihoodOccupied(double score) const {
  const double x = std::log(std::max(score, kScoreFloor));
  return WithOutlierMixture(
      GaussianLogPdf(x, occupied_log_mean_, occupied_log_sigma_));
}

std::vector<double> PresenceHmm::PosteriorOccupied(
    const std::vector<double>& scores) const {
  MULINK_REQUIRE(!scores.empty(), "PresenceHmm: empty score sequence");
  const std::size_t n = scores.size();
  const double log_stay = std::log1p(-config_.transition_prob);
  const double log_switch = std::log(config_.transition_prob);

  // Forward pass in log domain: alpha[t][s].
  std::vector<std::array<double, 2>> alpha(n), beta(n);
  alpha[0][0] = std::log(1.0 - kOccupancyPrior) +
                LogLikelihoodEmpty(scores[0]);
  alpha[0][1] =
      std::log(kOccupancyPrior) + LogLikelihoodOccupied(scores[0]);
  for (std::size_t t = 1; t < n; ++t) {
    const double to_empty =
        LogSumExp(alpha[t - 1][0] + log_stay, alpha[t - 1][1] + log_switch);
    const double to_occupied =
        LogSumExp(alpha[t - 1][1] + log_stay, alpha[t - 1][0] + log_switch);
    alpha[t][0] = to_empty + LogLikelihoodEmpty(scores[t]);
    alpha[t][1] = to_occupied + LogLikelihoodOccupied(scores[t]);
  }

  // Backward pass.
  beta[n - 1][0] = 0.0;
  beta[n - 1][1] = 0.0;
  for (std::size_t ti = n - 1; ti > 0; --ti) {
    const std::size_t t = ti - 1;
    const double from_empty_next =
        LogLikelihoodEmpty(scores[t + 1]) + beta[t + 1][0];
    const double from_occ_next =
        LogLikelihoodOccupied(scores[t + 1]) + beta[t + 1][1];
    beta[t][0] = LogSumExp(log_stay + from_empty_next,
                           log_switch + from_occ_next);
    beta[t][1] = LogSumExp(log_stay + from_occ_next,
                           log_switch + from_empty_next);
  }

  std::vector<double> posterior(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double log_empty = alpha[t][0] + beta[t][0];
    const double log_occ = alpha[t][1] + beta[t][1];
    const double log_z = LogSumExp(log_empty, log_occ);
    posterior[t] = std::exp(log_occ - log_z);
  }
  return posterior;
}

std::vector<bool> PresenceHmm::Decode(const std::vector<double>& scores) const {
  MULINK_REQUIRE(!scores.empty(), "PresenceHmm: empty score sequence");
  const std::size_t n = scores.size();
  const double log_stay = std::log1p(-config_.transition_prob);
  const double log_switch = std::log(config_.transition_prob);

  std::vector<std::array<double, 2>> delta(n);
  std::vector<std::array<int, 2>> backpointer(n);
  delta[0][0] = std::log(1.0 - kOccupancyPrior) +
                LogLikelihoodEmpty(scores[0]);
  delta[0][1] =
      std::log(kOccupancyPrior) + LogLikelihoodOccupied(scores[0]);
  for (std::size_t t = 1; t < n; ++t) {
    for (int s = 0; s < 2; ++s) {
      const double from_same = delta[t - 1][static_cast<std::size_t>(s)] +
                               log_stay;
      const double from_other =
          delta[t - 1][static_cast<std::size_t>(1 - s)] + log_switch;
      const bool stay = from_same >= from_other;
      const double emit = s == 0 ? LogLikelihoodEmpty(scores[t])
                                 : LogLikelihoodOccupied(scores[t]);
      delta[t][static_cast<std::size_t>(s)] =
          (stay ? from_same : from_other) + emit;
      backpointer[t][static_cast<std::size_t>(s)] = stay ? s : 1 - s;
    }
  }

  std::vector<bool> states(n);
  int current = delta[n - 1][1] > delta[n - 1][0] ? 1 : 0;
  states[n - 1] = current == 1;
  for (std::size_t ti = n - 1; ti > 0; --ti) {
    current = backpointer[ti][static_cast<std::size_t>(current)];
    states[ti - 1] = current == 1;
  }
  return states;
}

PresenceHmm::Filter::Filter(const PresenceHmm& hmm)
    : hmm_(hmm), posterior_(kOccupancyPrior) {}

void PresenceHmm::Filter::Reset() {
  posterior_ = kOccupancyPrior;
}

double PresenceHmm::Filter::Update(double score) {
  const double p = hmm_.config().transition_prob;
  // Predict.
  const double prior_occ = posterior_ * (1.0 - p) + (1.0 - posterior_) * p;
  // Update.
  const double like_occ = std::exp(hmm_.LogLikelihoodOccupied(score));
  const double like_empty = std::exp(hmm_.LogLikelihoodEmpty(score));
  const double numerator = prior_occ * like_occ;
  const double denominator =
      numerator + (1.0 - prior_occ) * like_empty;
  posterior_ = denominator > 0.0 ? numerator / denominator : prior_occ;
  return posterior_;
}

}  // namespace mulink::core
