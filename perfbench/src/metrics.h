/**
 * @file
 * Metric bookkeeping for the performance benchmark: validated metric
 * names, the percentile rule, and the one-line JSON result.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** True when @p name is non-empty, at most 64 characters, starts
 *  with a letter or digit, and uses only [A-Za-z0-9_.-]. */
bool validMetricName(const std::string &name);

/** Samples strictly beyond the nearest-rank @p p quantile of @p n
 *  samples (p in (0, 1)). */
int64_t samplesBeyond(size_t n, double p);

/**
 * Nearest-rank @p p quantile (p in (0, 1)) of @p samples. Refuses —
 * throws std::invalid_argument — unless at least 10 samples lie
 * beyond it, so a tail figure always rests on a tail.
 */
double percentile(std::vector<double> samples, double p);

/** Median (mean of the two middle values for even counts). Throws
 *  std::invalid_argument on an empty sample. */
double median(std::vector<double> samples);

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The outcome of one benchmark run. */
struct Result
{
    /** Every output check passed. */
    bool correct = true;
    /** Units of work checked (iterations, compiles or jobs). */
    int64_t attempted = 0;
    /** Units whose output check failed. */
    int64_t failed = 0;
    std::vector<Metric> metrics;
    /** Failed-check descriptions (printed, never silently dropped). */
    std::vector<std::string> errors;
    /** Sample counts and similar context for the printed table. */
    std::vector<std::string> notes;

    /** Appends a metric; throws std::invalid_argument on an invalid or
     *  repeated name. */
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Records a failed check: clears `correct` and keeps @p what. */
    void fail(const std::string &what);
    /** Notes that @p metric is the @p p quantile (or, with p = 0.5,
     *  the median) of @p n samples. */
    void noteSamples(const std::string &metric, double p, size_t n,
                     const std::string &what);
    /** The metric called @p name; throws std::out_of_range. */
    double value(const std::string &name) const;

    /** `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with
     *  every value printed to full precision. */
    std::string json() const;
    /** Human-readable table, one metric per line. */
    std::string table() const;
};

} // namespace perfbench
