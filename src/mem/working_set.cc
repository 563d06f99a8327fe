#include "src/mem/working_set.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace oasis {
namespace {

double NormalPdf(double x) { return std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI); }

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// Moments of a normal(mu, sigma) truncated below at `floor`.
void TruncatedMoments(double mu, double sigma, double floor, double* mean, double* sd) {
  double alpha = (floor - mu) / sigma;
  double z = 1.0 - NormalCdf(alpha);
  if (z < 1e-12) {
    *mean = floor;
    *sd = 0.0;
    return;
  }
  double lambda = NormalPdf(alpha) / z;
  *mean = mu + sigma * lambda;
  double factor = 1.0 + alpha * lambda - lambda * lambda;
  *sd = sigma * std::sqrt(std::max(factor, 1e-9));
}

// Fixed-point solve for the underlying normal whose floor-truncation has the
// configured moments (the paper reports the *observed* 165.63 ± 91.38, which
// already includes the physical floor).
void SolveUnderlyingOnce(const WorkingSetDistribution& dist, double* mu, double* sigma) {
  *mu = dist.mean_mib;
  *sigma = dist.stddev_mib;
  for (int iter = 0; iter < 60; ++iter) {
    double m;
    double s;
    TruncatedMoments(*mu, *sigma, dist.floor_mib, &m, &s);
    if (s <= 0.0) {
      break;
    }
    *mu += dist.mean_mib - m;
    *sigma *= dist.stddev_mib / s;
    *sigma = std::clamp(*sigma, 1e-3, 10.0 * dist.stddev_mib + 1.0);
  }
}

// The solve above. Every cluster validates and samples the default
// distribution, so its solve is kept for the process; any other is solved
// on the spot.
void SolveUnderlying(const WorkingSetDistribution& dist, double* mu, double* sigma) {
  if (dist != WorkingSetDistribution{}) {
    SolveUnderlyingOnce(dist, mu, sigma);
    return;
  }
  static const std::pair<double, double> solved = [] {
    std::pair<double, double> out;
    SolveUnderlyingOnce(WorkingSetDistribution{}, &out.first, &out.second);
    return out;
  }();
  *mu = solved.first;
  *sigma = solved.second;
}

}  // namespace

Status ValidateWorkingSet(const WorkingSetDistribution& dist, uint64_t ceiling_bytes) {
  if (!std::isfinite(dist.mean_mib) || !std::isfinite(dist.stddev_mib) ||
      !std::isfinite(dist.floor_mib) || dist.mean_mib < 0.0 || dist.floor_mib < 0.0 ||
      dist.stddev_mib <= 0.0) {
    return Status::InvalidArgument(
        "working_set needs finite parameters, mean and floor >= 0 and stddev > 0");
  }
  const double ceiling_mib = ToMiB(ceiling_bytes);
  if (ceiling_mib <= dist.floor_mib) {
    return Status::InvalidArgument("VM memory (" + FormatBytes(ceiling_bytes) +
                                   ") must exceed the working-set floor (" +
                                   std::to_string(dist.floor_mib) + " MiB)");
  }
  double mu;
  double sigma;
  SolveUnderlying(dist, &mu, &sigma);
  const double accept = NormalCdf((ceiling_mib - mu) / sigma) -
                        NormalCdf((dist.floor_mib - mu) / sigma);
  if (!(accept >= 1e-6)) {
    return Status::InvalidArgument(
        "working-set draws almost never land between the floor and the VM memory (" +
        FormatBytes(ceiling_bytes) + ")");
  }
  return Status::Ok();
}

WorkingSetSampler::WorkingSetSampler(const WorkingSetDistribution& dist, uint64_t ceiling_bytes,
                                     uint64_t seed)
    : rng_(seed), kernel_(working_set_kernel::Select()) {
  assert(ValidateWorkingSet(dist, ceiling_bytes).ok());
  SolveUnderlying(dist, &params_.mu, &params_.sigma);
  params_.floor_mib = dist.floor_mib;
  params_.ceiling_mib = ToMiB(ceiling_bytes);
  params_.margin_mib = working_set_kernel::MarginMiB(params_.mu, params_.sigma);
}

void WorkingSetSampler::Refill() {
  constexpr size_t kPairs = working_set_kernel::kBlockPairs;
  alignas(32) double u1[kPairs];
  alignas(32) double u2[kPairs];
  alignas(32) int64_t verdicts[2 * kPairs];
  uint32_t accepted = 0;
  while (accepted == 0) {
    // Rng::NextGaussian's draw order: u1 (redrawn while 0), then u2.
    for (size_t i = 0; i < kPairs; ++i) {
      double u;
      do {
        u = rng_.NextDouble();
      } while (u <= 0.0);
      u1[i] = u;
      u2[i] = rng_.NextDouble();
    }
    kernel_(u1, u2, kPairs, params_, verdicts);
    for (size_t i = 0; i < 2 * kPairs; ++i) {
      int64_t verdict = verdicts[i];
      if (verdict == working_set_kernel::kUncertain) [[unlikely]] {
        verdict = working_set_kernel::Exact(u1[i / 2], u2[i / 2], (i & 1) != 0, params_);
        ++exact_recomputes_;
      }
      block_[accepted] = static_cast<uint64_t>(verdict);
      accepted += verdict >= 0 ? 1 : 0;
    }
  }
  next_ = 0;
  end_ = accepted;
}

void WorkingSetSamplerPeer::SetKernel(WorkingSetSampler& sampler, working_set_kernel::Fn fn) {
  sampler.kernel_ = fn;
}

uint64_t WorkingSetSamplerPeer::exact_recomputes(const WorkingSetSampler& sampler) {
  return sampler.exact_recomputes_;
}

const working_set_kernel::Params& WorkingSetSamplerPeer::params(
    const WorkingSetSampler& sampler) {
  return sampler.params_;
}

void WorkingSetSamplerPeer::Refill(WorkingSetSampler& sampler) { sampler.Refill(); }

}  // namespace oasis
