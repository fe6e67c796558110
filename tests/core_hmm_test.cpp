#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "core/hmm.h"

namespace mulink::core {
namespace {

// Synthetic empty-room scores: log-normal around 0.1.
std::vector<double> EmptyScores(Rng& rng, std::size_t n, double log_mean = -2.3,
                                double log_sigma = 0.3) {
  std::vector<double> scores;
  for (std::size_t i = 0; i < n; ++i) {
    scores.push_back(std::exp(rng.Gaussian(log_mean, log_sigma)));
  }
  return scores;
}

TEST(Hmm, FitRecoversEmptyStatistics) {
  Rng rng(3);
  const auto hmm = PresenceHmm::FitFromEmptyScores(EmptyScores(rng, 5000));
  EXPECT_NEAR(hmm.empty_log_mean(), -2.3, 0.05);
  EXPECT_NEAR(hmm.empty_log_sigma(), 0.3, 0.05);
}

TEST(Hmm, PosteriorLowOnEmptyHighOnOccupied) {
  Rng rng(5);
  const auto hmm = PresenceHmm::FitFromEmptyScores(EmptyScores(rng, 500));
  // Occupied-like scores: ~e^(-2.3 + 4*0.3) ~ 0.33 and above.
  std::vector<double> sequence;
  for (int i = 0; i < 10; ++i) sequence.push_back(0.1);
  for (int i = 0; i < 10; ++i) sequence.push_back(0.5);
  const auto posterior = hmm.PosteriorOccupied(sequence);
  ASSERT_EQ(posterior.size(), 20u);
  for (int i = 2; i < 8; ++i) EXPECT_LT(posterior[i], 0.2) << i;
  for (int i = 12; i < 18; ++i) EXPECT_GT(posterior[i], 0.8) << i;
}

TEST(Hmm, AbsorbsIsolatedOutlier) {
  // One interference-burst window in an otherwise empty stream: the
  // memoryless threshold would alarm; the HMM posterior stays below 0.5.
  Rng rng(7);
  const auto hmm = PresenceHmm::FitFromEmptyScores(EmptyScores(rng, 500));
  std::vector<double> sequence(21, 0.1);
  sequence[10] = 0.6;  // way above any sane threshold
  const auto posterior = hmm.PosteriorOccupied(sequence);
  EXPECT_LT(posterior[10], 0.5);
  const auto states = hmm.Decode(sequence);
  EXPECT_FALSE(states[10]);
}

TEST(Hmm, SustainedEvidenceWins) {
  // Three consecutive hot windows should flip the state even though one
  // does not.
  Rng rng(9);
  const auto hmm = PresenceHmm::FitFromEmptyScores(EmptyScores(rng, 500));
  std::vector<double> sequence(20, 0.1);
  for (int i = 9; i < 14; ++i) sequence[static_cast<std::size_t>(i)] = 0.6;
  const auto states = hmm.Decode(sequence);
  EXPECT_TRUE(states[11]);
  EXPECT_FALSE(states[2]);
  EXPECT_FALSE(states[18]);
}

TEST(Hmm, ViterbiAgreesWithPosteriorOnClearSequences) {
  Rng rng(11);
  const auto hmm = PresenceHmm::FitFromEmptyScores(EmptyScores(rng, 500));
  std::vector<double> sequence;
  for (int i = 0; i < 15; ++i) sequence.push_back(0.08);
  for (int i = 0; i < 15; ++i) sequence.push_back(0.7);
  const auto posterior = hmm.PosteriorOccupied(sequence);
  const auto states = hmm.Decode(sequence);
  for (std::size_t t = 2; t + 2 < sequence.size(); ++t) {
    if (t < 13) {
      EXPECT_FALSE(states[t]) << t;
      EXPECT_LT(posterior[t], 0.5) << t;
    } else if (t > 16) {
      EXPECT_TRUE(states[t]) << t;
      EXPECT_GT(posterior[t], 0.5) << t;
    }
  }
}

TEST(Hmm, OnlineFilterTracksOccupancy) {
  Rng rng(13);
  const auto hmm = PresenceHmm::FitFromEmptyScores(EmptyScores(rng, 500));
  PresenceHmm::Filter filter(hmm);
  // Feed empty windows: posterior decays low.
  double p = 0.0;
  for (int i = 0; i < 10; ++i) p = filter.Update(0.1);
  EXPECT_LT(p, 0.2);
  // Feed occupied windows: posterior rises.
  for (int i = 0; i < 3; ++i) p = filter.Update(0.6);
  EXPECT_GT(p, 0.8);
  // Reset restores the prior.
  filter.Reset();
  EXPECT_NEAR(filter.posterior(), PresenceHmm::kOccupancyPrior, 1e-12);
}

TEST(Hmm, FilterIsCausalPosteriorIsNot) {
  // The smoother can use future evidence the filter cannot: right before a
  // long occupied run begins, the smoothed posterior anticipates it.
  Rng rng(15);
  const auto hmm = PresenceHmm::FitFromEmptyScores(EmptyScores(rng, 500));
  std::vector<double> sequence(10, 0.1);
  for (int i = 0; i < 10; ++i) sequence.push_back(0.7);

  PresenceHmm::Filter filter(hmm);
  std::vector<double> causal;
  for (double s : sequence) causal.push_back(filter.Update(s));
  const auto smoothed = hmm.PosteriorOccupied(sequence);
  // At the boundary window (first hot one), the smoother is at least as
  // confident as the causal filter.
  EXPECT_GE(smoothed[10] + 1e-9, causal[10]);
}

TEST(Hmm, ValidatesArguments) {
  EXPECT_THROW(PresenceHmm::FitFromEmptyScores({0.1}), PreconditionError);
  EXPECT_THROW(PresenceHmm::FitFromEmptyScores({0.1, -0.2}),
               PreconditionError);
  HmmConfig bad;
  bad.transition_prob = 0.0;
  EXPECT_THROW(PresenceHmm::FitFromEmptyScores({0.1, 0.2}, bad),
               PreconditionError);
  Rng rng(17);
  const auto hmm = PresenceHmm::FitFromEmptyScores(EmptyScores(rng, 100));
  EXPECT_THROW(hmm.PosteriorOccupied({}), PreconditionError);
  EXPECT_THROW(hmm.Decode({}), PreconditionError);
}

TEST(Hmm, DegenerateConstantScoresStillFit) {
  // All-identical calibration scores: sigma floor keeps the model sane.
  const auto hmm = PresenceHmm::FitFromEmptyScores({0.1, 0.1, 0.1, 0.1});
  EXPECT_GE(hmm.empty_log_sigma(), 0.05);
  const auto posterior = hmm.PosteriorOccupied({0.1, 0.1});
  for (double p : posterior) EXPECT_LT(p, 0.5);
}

}  // namespace
}  // namespace mulink::core
