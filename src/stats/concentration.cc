#include "stats/concentration.h"

#include <math.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace asti {

double CoverageLowerBound(double coverage, double a) {
  ASM_CHECK(coverage >= 0.0 && a > 0.0);
  const double root = std::sqrt(coverage + 2.0 * a / 9.0) - std::sqrt(a / 2.0);
  const double bound = root * root - a / 18.0;
  return std::max(0.0, bound);
}

double CoverageUpperBound(double coverage, double a) {
  ASM_CHECK(coverage >= 0.0 && a > 0.0);
  const double root = std::sqrt(coverage + a / 2.0) + std::sqrt(a / 2.0);
  return root * root;
}

double ChernoffUpperTail(double expectation_mean, double lambda, size_t trials) {
  ASM_CHECK(expectation_mean >= 0.0 && lambda >= 0.0 && trials > 0);
  if (lambda == 0.0) return 1.0;
  const double exponent = -(lambda * lambda * static_cast<double>(trials)) /
                          (2.0 * expectation_mean + 2.0 * lambda / 3.0);
  return std::exp(exponent);
}

double ChernoffLowerTail(double expectation_mean, double lambda, size_t trials) {
  ASM_CHECK(expectation_mean >= 0.0 && lambda >= 0.0 && trials > 0);
  if (lambda == 0.0) return 1.0;
  if (expectation_mean == 0.0) return 0.0;
  const double exponent =
      -(lambda * lambda * static_cast<double>(trials)) / (2.0 * expectation_mean);
  return std::exp(exponent);
}

namespace {

// POSIX lgamma writes the process-global `signgam`, making concurrent
// callers (SeedMinEngine requests sharing nothing else) race; the _r
// variant takes the sign out-parameter instead. All arguments here are
// positive, so the sign is always +1 and is discarded. lgamma_r is not
// ISO C++, so it is used only where its declaration is certain (glibc —
// the platform CI and the TSAN job run on). Elsewhere the std::lgamma
// fallback may still touch signgam on POSIX libms; extend the guard when
// porting to such a platform rather than assuming the fallback is clean.
double LGamma(double x) {
#if defined(__GLIBC__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double LogBinomial(double n, double k) {
  ASM_CHECK(n >= k && k >= 0.0);
  if (k == 0.0 || k == n) return 0.0;
  if (k == 1.0) return std::log(n);  // exact; lgamma is off in the last bits
  return LGamma(n + 1.0) - LGamma(k + 1.0) - LGamma(n - k + 1.0);
}

size_t DoublingLadderSets(size_t theta_zero, size_t iteration) {
  if (iteration == 0) return 0;
  size_t sets = theta_zero;
  for (size_t t = 1; t < iteration; ++t) {
    if (sets > SIZE_MAX / 2) return SIZE_MAX;  // saturate, never wrap
    sets *= 2;
  }
  return sets;
}

size_t DoublingLadderIterations(size_t theta_zero, double theta_max) {
  ASM_CHECK(theta_zero >= 1);
  if (theta_max <= static_cast<double>(theta_zero)) return 1;
  return static_cast<size_t>(
             std::ceil(std::log2(theta_max / static_cast<double>(theta_zero)))) +
         1;
}

}  // namespace asti
