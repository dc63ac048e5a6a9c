#include "ml/dataset.h"

#include <array>
#include <cmath>

#include "common/error.h"

namespace cosmic::ml {

int64_t
DatasetGenerator::recordWords(const Workload &w, double scale)
{
    switch (w.algorithm) {
      case Algorithm::Backpropagation:
        return w.scaled1(scale) + w.scaled3(scale);
      case Algorithm::LinearRegression:
      case Algorithm::LogisticRegression:
      case Algorithm::Svm:
        return w.scaled1(scale) + 1;
      case Algorithm::CollaborativeFiltering:
        return w.scaled1(scale);
    }
    COSMIC_FATAL("unknown algorithm");
}

int64_t
DatasetGenerator::modelWords(const Workload &w, double scale)
{
    switch (w.algorithm) {
      case Algorithm::Backpropagation:
        return w.scaled1(scale) * w.scaled2(scale) +
               w.scaled2(scale) * w.scaled3(scale);
      case Algorithm::LinearRegression:
      case Algorithm::LogisticRegression:
      case Algorithm::Svm:
        return w.scaled1(scale);
      case Algorithm::CollaborativeFiltering:
        return w.scaled1(scale) * w.scaled2(scale);
    }
    COSMIC_FATAL("unknown algorithm");
}

namespace {

/** Stream id of a dataset's teacher (and of an initial model); record
 *  r uses id r, so the teacher cannot collide with a record. */
constexpr uint64_t kTeacherStream = ~0ULL;

constexpr int kLayers = 128;
/** Area of each layer under exp(-x^2/2) for R = kTailEdge. */
constexpr double kLayerArea = 9.91256303526217e-3;

double
density(double x)
{
    return std::exp(-0.5 * x * x);
}

/**
 * Layer edges of the ziggurat over the unnormalized density
 * f(x) = exp(-x^2/2). Layer i covers heights [f(x[i]), f(x[i+1])]
 * and widths [0, x[i]]; its part left of x[i+1] lies under the curve.
 * Layer 0 is the base strip: the rectangle up to R plus the tail,
 * folded into a pseudo-width x[0] = V / f(R).
 */
struct Ziggurat
{
    std::array<double, kLayers + 1> x{};
    std::array<double, kLayers + 1> f{};
    /** x[i] / 2^53: scales a 54-bit signed draw onto layer i. */
    std::array<double, kLayers> w{};

    Ziggurat()
    {
        constexpr double r = SynthStream::kTailEdge;
        x[0] = kLayerArea / density(r);
        x[1] = r;
        for (int i = 1; i < kLayers - 1; ++i)
            x[i + 1] =
                std::sqrt(-2.0 * std::log(kLayerArea / x[i] +
                                          density(x[i])));
        x[kLayers] = 0.0;
        for (int i = 0; i <= kLayers; ++i)
            f[i] = density(x[i]);
        for (int i = 0; i < kLayers; ++i)
            w[i] = x[i] * 0x1p-53;
    }
};

const Ziggurat &
ziggurat()
{
    static const Ziggurat table;
    return table;
}

/** The ziggurat's rare branches for a point @p x of layer @p i that
 *  missed the layer's rectangle: the tail, or a wedge test. */
[[gnu::noinline]] double gaussianSlow(SynthStream &s, int i, double x,
                                      const Ziggurat &z);

/**
 * One standard normal from @p s. Bits 0-6 of a draw pick the layer;
 * bits 10-63, read as a signed 54-bit integer, give the signed
 * position within it.
 */
inline double
gaussian(SynthStream &s, const Ziggurat &z)
{
    const uint64_t b = s.bits();
    const int i = static_cast<int>(b & (kLayers - 1));
    const double x =
        static_cast<double>(static_cast<int64_t>(b) >> 10) * z.w[i];
    if (std::abs(x) < z.x[i + 1]) [[likely]]
        return x;
    return gaussianSlow(s, i, x, z);
}

double
gaussianSlow(SynthStream &s, int i, double x, const Ziggurat &z)
{
    if (i == 0) {
        // Marsaglia's tail: exact for |x| > R.
        constexpr double r = SynthStream::kTailEdge;
        double a, t;
        do {
            a = -std::log(s.uniform()) / r;
            t = -std::log(s.uniform());
        } while (t + t < a * a);
        return x < 0.0 ? -(r + a) : r + a;
    }
    // Wedge between the layer's rectangle and the curve; a rejected
    // point starts over with a fresh draw.
    if (z.f[i] + s.uniform() * (z.f[i + 1] - z.f[i]) < density(x))
        return x;
    return gaussian(s, z);
}

} // namespace

double
SynthStream::gaussian()
{
    return ml::gaussian(*this, ziggurat());
}

Teacher::Teacher(const Workload &w, double scale, uint64_t key)
    : algorithm_(w.algorithm), key_(key), n_(w.scaled1(scale)),
      inner_(0), outputs_(0),
      recordWords_(DatasetGenerator::recordWords(w, scale))
{
    const double xscale = 1.0 / std::sqrt(static_cast<double>(n_));
    const Ziggurat &z = ziggurat();
    SynthStream s(key_, kTeacherStream);
    switch (algorithm_) {
      case Algorithm::LinearRegression:
      case Algorithm::LogisticRegression:
      case Algorithm::Svm:
        // Hidden linear teacher.
        w1_.resize(n_);
        for (auto &v : w1_)
            v = gaussian(s, z);
        break;
      case Algorithm::Backpropagation:
        // Hidden two-layer teacher network.
        inner_ = w.scaled2(scale);
        outputs_ = w.scaled3(scale);
        w1_.resize(n_ * inner_);
        w2_.resize(inner_ * outputs_);
        for (auto &v : w1_)
            v = gaussian(s, z) * xscale;
        for (auto &v : w2_)
            v = gaussian(s, z) / std::sqrt(static_cast<double>(inner_));
        break;
      case Algorithm::CollaborativeFiltering:
        // Low-rank ground truth: x = V* z + noise.
        inner_ = w.scaled2(scale);
        w1_.resize(n_ * inner_);
        for (auto &v : w1_)
            v = gaussian(s, z) * xscale;
        break;
    }
}

Dataset
Teacher::records(int64_t first, int64_t count) const
{
    COSMIC_ASSERT(first >= 0 && count >= 0,
                  "bad record range [" << first << ", +" << count << ")");
    Dataset ds;
    ds.recordWords = recordWords_;
    ds.count = count;
    ds.data.resize(recordWords_ * count);

    const Ziggurat &z = ziggurat();
    const int64_t n = n_;
    const double xscale = 1.0 / std::sqrt(static_cast<double>(n));
    std::vector<double> scratch(inner_);
    for (int64_t r = 0; r < count; ++r) {
        double *rec = ds.data.data() + r * recordWords_;
        SynthStream s(key_, static_cast<uint64_t>(first + r));
        switch (algorithm_) {
          case Algorithm::LinearRegression:
          case Algorithm::LogisticRegression:
          case Algorithm::Svm: {
            double dot = 0.0;
            for (int64_t i = 0; i < n; ++i) {
                rec[i] = gaussian(s, z) * xscale;
                dot += w1_[i] * rec[i];
            }
            if (algorithm_ == Algorithm::LinearRegression)
                rec[n] = dot + 0.01 * gaussian(s, z);
            else if (algorithm_ == Algorithm::LogisticRegression)
                rec[n] = s.uniform() < 1.0 / (1.0 + std::exp(-4.0 * dot))
                             ? 1.0 : 0.0;
            else
                rec[n] = dot >= 0.0 ? 1.0 : -1.0;
            break;
          }
          case Algorithm::Backpropagation: {
            std::vector<double> &hidden = scratch;
            for (int64_t i = 0; i < n; ++i)
                rec[i] = gaussian(s, z);
            for (int64_t j = 0; j < inner_; ++j) {
                double sum = 0.0;
                for (int64_t i = 0; i < n; ++i)
                    sum += w1_[i * inner_ + j] * rec[i];
                hidden[j] = 1.0 / (1.0 + std::exp(-sum));
            }
            for (int64_t k = 0; k < outputs_; ++k) {
                double sum = 0.0;
                for (int64_t j = 0; j < inner_; ++j)
                    sum += w2_[j * outputs_ + k] * hidden[j];
                rec[n + k] = 1.0 / (1.0 + std::exp(-sum));
            }
            break;
          }
          case Algorithm::CollaborativeFiltering: {
            std::vector<double> &latent = scratch;
            for (auto &v : latent)
                v = gaussian(s, z);
            for (int64_t i = 0; i < n; ++i) {
                double sum = 0.0;
                for (int64_t k = 0; k < inner_; ++k)
                    sum += w1_[i * inner_ + k] * latent[k];
                rec[i] = sum + 0.01 * gaussian(s, z);
            }
            break;
          }
        }
    }
    return ds;
}

uint64_t
DatasetGenerator::drawKey(Rng &rng)
{
    return rng.engine()();
}

std::vector<double>
DatasetGenerator::initialModel(const Workload &w, double scale, Rng &rng)
{
    std::vector<double> model(modelWords(w, scale));
    const Ziggurat &z = ziggurat();
    SynthStream s(drawKey(rng), kTeacherStream);
    // Small symmetric init keeps sigmoids in their active region.
    for (auto &v : model)
        v = 0.1 * gaussian(s, z);
    return model;
}

Dataset
DatasetGenerator::generate(const Workload &w, double scale,
                           int64_t count, Rng &rng)
{
    return Teacher(w, scale, drawKey(rng)).records(0, count);
}

} // namespace cosmic::ml
