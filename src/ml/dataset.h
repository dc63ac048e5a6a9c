/**
 * @file
 * Synthetic, learnable dataset generation for the benchmark suite.
 *
 * The paper's datasets (MNIST, Netflix Prize, gene-expression
 * microarrays, tick-level finance data) are proprietary or large, so we
 * synthesize datasets with identical shapes from known ground-truth
 * models plus noise: training must demonstrably reduce the loss, which
 * is what the convergence tests assert. Records are laid out exactly as
 * the Translation's record stream (inputs then outputs), so the same
 * buffer feeds the interpreter, the runtime, and the reference code.
 *
 * Synthesis is counter-based. A dataset is named by one 64-bit key.
 * Its hidden teacher model is drawn from the stream (key, teacher),
 * and record r from its own stream (key, r), so a record depends on
 * the workload, the scale, the key and its global index r, and on
 * nothing else. Any range of records can therefore be synthesized on
 * its own: records [first, first+count) of a ranged call are bit-equal
 * to the same slice of one call over the whole dataset. Each node of a
 * cluster generates its own partition, and the holdout is generated
 * apart from both.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/splitmix.h"
#include "ml/workloads.h"

namespace cosmic::ml {

/** An in-memory dataset of fixed-width records. */
struct Dataset
{
    int64_t recordWords = 0;
    int64_t count = 0;
    /** count x recordWords, row-major. */
    std::vector<double> data;

    std::span<const double>
    record(int64_t i) const
    {
        return std::span<const double>(data).subspan(i * recordWords,
                                                     recordWords);
    }

    /** A contiguous slice of records [first, first+n). */
    std::span<const double>
    slice(int64_t first, int64_t n) const
    {
        return std::span<const double>(data).subspan(
            first * recordWords, n * recordWords);
    }

    /** An owned copy of records [first, first+n). */
    Dataset
    partition(int64_t first, int64_t n) const
    {
        Dataset out;
        out.recordWords = recordWords;
        out.count = n;
        auto s = slice(first, n);
        out.data.assign(s.begin(), s.end());
        return out;
    }
};

/**
 * One counter-based random stream: SplitMix64's finalizer over a Weyl
 * counter whose start is hashed from (key, id). Streams of different
 * ids start at unrelated points of the counter's 2^64 cycle, so they
 * do not overlap at dataset sizes.
 */
class SynthStream
{
  public:
    SynthStream(uint64_t key, uint64_t id)
        : state_(splitmix64(key ^ splitmix64(id)))
    {}

    /** The next 64 random bits. */
    uint64_t
    bits()
    {
        uint64_t x = state_;
        state_ += kSplitMixGamma;
        return splitmix64(x);
    }

    /** Uniform in the open interval (0, 1). */
    double
    uniform()
    {
        return (static_cast<double>(bits() >> 11) + 0.5) * 0x1p-53;
    }

    /**
     * Standard normal, by a 128-layer Marsaglia–Tsang ziggurat: one
     * 64-bit draw and one table compare on about 97% of calls, the
     * wedge and tail branches on the rest.
     */
    double gaussian();

    /** Right edge R of the ziggurat's base layer: every draw with
     *  |x| > R comes from the tail branch. */
    static constexpr double kTailEdge = 3.442619855899;

  private:
    uint64_t state_;
};

/**
 * The hidden ground truth of one synthetic dataset, built once from
 * the stream (key, teacher), and the synthesizer of its records.
 */
class Teacher
{
  public:
    Teacher(const Workload &workload, double scale, uint64_t key);

    /**
     * Records [first, first+count): record r comes from the stream
     * (key, r), so the result is bit-equal to that slice of any other
     * call that covers it.
     */
    Dataset records(int64_t first, int64_t count) const;

  private:
    Algorithm algorithm_;
    uint64_t key_;
    /** Features per record (scaled d1). */
    int64_t n_;
    /** Hidden units (backprop) or rank (collaborative filtering). */
    int64_t inner_;
    /** Output units (backprop). */
    int64_t outputs_;
    int64_t recordWords_;
    /** Linear truth, first-layer weights, or low-rank factors. */
    std::vector<double> w1_;
    /** Second-layer weights (backprop). */
    std::vector<double> w2_;
};

/** Generates datasets and initial models for a workload. */
class DatasetGenerator
{
  public:
    /** Draws a dataset key from @p rng: exactly one engine output. */
    static uint64_t drawKey(Rng &rng);

    /**
     * Records [0, count) of the dataset keyed by drawKey(@p rng):
     * Teacher(workload, scale, drawKey(rng)).records(0, count).
     * Inputs are standard normal (scaled for stable dot products);
     * outputs come from the hidden teacher model plus mild noise.
     */
    static Dataset generate(const Workload &workload, double scale,
                            int64_t count, Rng &rng);

    /** Small random initial model matching the translation layout,
     *  drawn from the stream keyed by drawKey(@p rng). */
    static std::vector<double> initialModel(const Workload &workload,
                                            double scale, Rng &rng);

    /** Words per record for the workload at the given scale. */
    static int64_t recordWords(const Workload &workload, double scale);

    /** Words in the flattened model at the given scale. */
    static int64_t modelWords(const Workload &workload, double scale);
};

} // namespace cosmic::ml
