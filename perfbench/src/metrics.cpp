#include "metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

namespace {

/** 0-based index of the nearest-rank @p p quantile of @p n samples. */
size_t
nearestRank(size_t n, double p)
{
    const double rank = std::ceil(p * static_cast<double>(n));
    return static_cast<size_t>(std::max(rank, 1.0)) - 1;
}

std::string
fullPrecision(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int64_t
samplesBeyond(size_t n, double p)
{
    if (n == 0)
        return 0;
    return static_cast<int64_t>(n) -
           static_cast<int64_t>(nearestRank(n, p)) - 1;
}

double
percentile(std::vector<double> samples, double p)
{
    if (!(p > 0.0 && p < 1.0))
        throw std::invalid_argument("percentile: p must lie in (0, 1)");
    if (samplesBeyond(samples.size(), p) < 10)
        throw std::invalid_argument(
            "percentile: p" + fullPrecision(100.0 * p) + " of " +
            std::to_string(samples.size()) +
            " samples has fewer than 10 samples beyond it");
    const size_t idx = nearestRank(samples.size(), p);
    std::nth_element(samples.begin(), samples.begin() + idx,
                     samples.end());
    return samples[idx];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    if (!validMetricName(name))
        throw std::invalid_argument("invalid metric name '" + name + "'");
    for (const auto &m : metrics)
        if (m.name == name)
            throw std::invalid_argument("metric '" + name +
                                        "' reported twice");
    metrics.push_back({name, value, unit});
}

void
Result::fail(const std::string &what)
{
    correct = false;
    errors.push_back(what);
}

void
Result::noteSamples(const std::string &metric, double p, size_t n,
                    const std::string &what)
{
    std::ostringstream out;
    out << metric << ": p" << 100.0 * p << " of " << n << " " << what;
    if (p != 0.5)
        out << " (" << samplesBeyond(n, p) << " beyond)";
    notes.push_back(out.str());
}

double
Result::value(const std::string &name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return m.value;
    throw std::out_of_range("no metric '" + name + "'");
}

std::string
Result::json() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        // JSON has no NaN/inf: a non-finite figure is a bug upstream,
        // and null makes the consumer refuse it instead of guessing.
        out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << (std::isfinite(m.value) ? fullPrecision(m.value) : "null")
            << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    return out.str();
}

std::string
Result::table() const
{
    std::ostringstream out;
    for (const auto &m : metrics) {
        char line[160];
        std::snprintf(line, sizeof(line), "  %-40s %16.6g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        out << line;
    }
    for (const auto &n : notes)
        out << "  " << n << "\n";
    for (const auto &e : errors)
        out << "  CHECK FAILED: " << e << "\n";
    return out.str();
}

} // namespace perfbench
