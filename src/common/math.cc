#include "common/math.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace hdldp {

double NormalPdf(double x) { return std::exp(-0.5 * x * x) / kSqrt2Pi; }

double NormalPdf(double x, double mean, double stddev) {
  assert(stddev > 0.0);
  const double z = (x - mean) / stddev;
  return std::exp(-0.5 * z * z) / (kSqrt2Pi * stddev);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / kSqrt2); }

double NormalCdf(double x, double mean, double stddev) {
  assert(stddev > 0.0);
  return NormalCdf((x - mean) / stddev);
}

double NormalIntervalProb(double lo, double hi, double mean, double stddev) {
  assert(stddev > 0.0);
  if (hi <= lo) return 0.0;
  const double zlo = (lo - mean) / stddev;
  const double zhi = (hi - mean) / stddev;
  // Subtract in whichever tail representation loses less cancellation:
  // for an interval entirely in the right tail use the survival function.
  if (zlo >= 0.0) {
    return 0.5 * (std::erfc(zlo / kSqrt2) - std::erfc(zhi / kSqrt2));
  }
  if (zhi <= 0.0) {
    return 0.5 * (std::erfc(-zhi / kSqrt2) - std::erfc(-zlo / kSqrt2));
  }
  return NormalCdf(zhi) - NormalCdf(zlo);
}

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement against the true CDF.
  const double e = NormalCdf(x) - p;
  const double u = e * kSqrt2Pi * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

namespace {

struct SimpsonState {
  const std::function<double(double)>* f;
  std::size_t evaluations = 0;
  double error = 0.0;
  int max_depth;
};

double SimpsonRecurse(SimpsonState* state, double a, double b, double fa,
                      double fm, double fb, double whole, double tol,
                      int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = (*state->f)(lm);
  const double frm = (*state->f)(rm);
  state->evaluations += 2;
  const double h = b - a;
  const double left = h / 12.0 * (fa + 4.0 * flm + fm);
  const double right = h / 12.0 * (fm + 4.0 * frm + fb);
  const double delta = left + right - whole;
  if (depth >= state->max_depth || std::abs(delta) <= 15.0 * tol) {
    state->error += std::abs(delta) / 15.0;
    return left + right + delta / 15.0;  // Richardson extrapolation.
  }
  return SimpsonRecurse(state, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) +
         SimpsonRecurse(state, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1);
}

}  // namespace

QuadratureResult AdaptiveSimpson(const std::function<double(double)>& f,
                                 double a, double b,
                                 const QuadratureOptions& options) {
  QuadratureResult out;
  if (a == b) return out;
  double sign = 1.0;
  if (a > b) {
    std::swap(a, b);
    sign = -1.0;
  }
  SimpsonState state;
  state.f = &f;
  state.max_depth = options.max_depth;
  const double fa = f(a);
  const double fb = f(b);
  const double m = 0.5 * (a + b);
  const double fm = f(m);
  state.evaluations = 3;
  const double whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
  out.value = sign * SimpsonRecurse(&state, a, b, fa, fm, fb, whole,
                                    options.abs_tolerance, 0);
  out.error = state.error;
  out.evaluations = state.evaluations;
  return out;
}

namespace {
// 32 positive nodes/weights of the 64-point Gauss-Legendre rule on [-1, 1].
constexpr double kGL64Nodes[32] = {
    0.0243502926634244325089558, 0.0729931217877990394495429,
    0.1214628192961205544703765, 0.1696444204239928180373136,
    0.2174236437400070841496487, 0.2646871622087674163739642,
    0.3113228719902109561575127, 0.3572201583376681159504426,
    0.4022701579639916036957668, 0.4463660172534640879849477,
    0.4894031457070529574785263, 0.5312794640198945456580139,
    0.5718956462026340342838781, 0.6111553551723932502488530,
    0.6489654712546573398577612, 0.6852363130542332425635584,
    0.7198818501716108268489402, 0.7528199072605318966118638,
    0.7839723589433414076102205, 0.8132653151227975597419233,
    0.8406292962525803627516915, 0.8659993981540928197607834,
    0.8893154459951141058534040, 0.9105221370785028057563807,
    0.9295691721319395758214902, 0.9464113748584028160624815,
    0.9610087996520537189186141, 0.9733268277899109637418535,
    0.9833362538846259569312993, 0.9910133714767443207393824,
    0.9963401167719552793469245, 0.9993050417357721394569056};
constexpr double kGL64Weights[32] = {
    0.0486909570091397203833654, 0.0485754674415034269347991,
    0.0483447622348029571697695, 0.0479993885964583077281262,
    0.0475401657148303086622822, 0.0469681828162100173253263,
    0.0462847965813144172959532, 0.0454916279274181444797710,
    0.0445905581637565630601347, 0.0435837245293234533768279,
    0.0424735151236535890073398, 0.0412625632426235286101563,
    0.0399537411327203413866569, 0.0385501531786156291289625,
    0.0370551285402400460404151, 0.0354722132568823838106931,
    0.0338051618371416093915655, 0.0320579283548515535854675,
    0.0302346570724024788679741, 0.0283396726142594832275113,
    0.0263774697150546586716918, 0.0243527025687108733381776,
    0.0222701738083832541592983, 0.0201348231535302093723403,
    0.0179517157756973430850453, 0.0157260304760247193219660,
    0.0134630478967186425980608, 0.0111681394601311288185905,
    0.0088467598263639477230309, 0.0065044579689783628561174,
    0.0041470332605624676352875, 0.0017832807216964329472961};
}  // namespace

double GaussLegendre64(const std::function<double(double)>& f, double a,
                       double b) {
  const double center = 0.5 * (a + b);
  const double half = 0.5 * (b - a);
  NeumaierSum acc;
  for (int i = 0; i < 32; ++i) {
    const double dx = half * kGL64Nodes[i];
    acc.Add(kGL64Weights[i] * (f(center + dx) + f(center - dx)));
  }
  return half * acc.Total();
}

Result<double> IntegrateSegments(const std::function<double(double)>& f,
                                 const std::vector<double>& breaks,
                                 const QuadratureOptions& options) {
  if (breaks.size() < 2) {
    return Status::InvalidArgument("IntegrateSegments needs >= 2 breakpoints");
  }
  if (!std::is_sorted(breaks.begin(), breaks.end())) {
    return Status::InvalidArgument("IntegrateSegments breakpoints not sorted");
  }
  NeumaierSum acc;
  for (std::size_t i = 0; i + 1 < breaks.size(); ++i) {
    acc.Add(AdaptiveSimpson(f, breaks[i], breaks[i + 1], options).value);
  }
  return acc.Total();
}

double StableSum(const double* data, std::size_t n) {
  NeumaierSum acc;
  for (std::size_t i = 0; i < n; ++i) acc.Add(data[i]);
  return acc.Total();
}

void NeumaierColumns::AddRows(std::span<const double> rows) {
  const std::size_t d = sums_.size();
  double* __restrict sums = sums_.data();
  double* __restrict compensations = compensations_.data();
  for (std::size_t k = 0; k < rows.size(); k += d) {
    const double* __restrict row = rows.data() + k;
    for (std::size_t j = 0; j < d; ++j) {
      NeumaierStep(row[j], &sums[j], &compensations[j]);
    }
  }
}

void NeumaierColumns::MergeState(const NeumaierColumns& other) {
  for (std::size_t j = 0; j < sums_.size(); ++j) {
    NeumaierSum column;
    column.RestoreRaw(sums_[j], compensations_[j]);
    NeumaierSum part;
    part.RestoreRaw(other.sums_[j], other.compensations_[j]);
    column.MergeState(part);
    sums_[j] = column.RawSum();
    compensations_[j] = column.Compensation();
  }
}

void NeumaierColumns::Reset() {
  std::fill(sums_.begin(), sums_.end(), 0.0);
  std::fill(compensations_.begin(), compensations_.end(), 0.0);
}

std::vector<double> NeumaierColumns::Mean(std::size_t count) const {
  std::vector<double> mean(sums_.size());
  for (std::size_t j = 0; j < mean.size(); ++j) {
    mean[j] = Total(j) / static_cast<double>(count);
  }
  return mean;
}

}  // namespace hdldp
