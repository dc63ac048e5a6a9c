#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

namespace {

/** This thread's open spans, innermost last. One enabled tracer is
 *  live per process, so the stack needs no tracer key. */
thread_local std::vector<int> openSpans;

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::threadId()
{
    const auto [it, fresh] = tids_.try_emplace(
        std::this_thread::get_id(), static_cast<int>(tids_.size()));
    (void)fresh;
    return it->second;
}

int
Tracer::begin(const std::string &name, uint64_t runId)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = openSpans.empty() ? -1 : openSpans.back();
    s.runId = runId;
    std::lock_guard<std::mutex> lock(mu_);
    s.tid = threadId();
    s.startNs = now();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    openSpans.push_back(index);
    return index;
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    // RAII scopes close innermost-first; anything else would be a
    // benchmark bug, and the reconciliation check reports it.
    if (!openSpans.empty() && openSpans.back() == index)
        openSpans.pop_back();
    const int64_t t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].endNs = t;
}

void
Tracer::record(const std::string &name, int64_t startNs, int64_t endNs,
               int parent, uint64_t runId)
{
    if (!enabled_)
        return;
    Span s{name, startNs, endNs, parent, runId, 0};
    std::lock_guard<std::mutex> lock(mu_);
    s.tid = threadId();
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("trace: cannot write " + path);
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
    const std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
            << ", \"ts\": " << s.startNs / 1e3
            << ", \"dur\": " << (s.endNs - s.startNs) / 1e3
            << ", \"args\": {\"id\": " << i << ", \"parent\": "
            << s.parent << ", \"run\": " << s.runId << "}}";
    }
    out << "\n]}\n";
}

TraceSummary
summarize(const std::vector<Span> &spans)
{
    const size_t n = spans.size();
    std::vector<std::vector<int>> children(n);
    for (size_t i = 0; i < n; ++i) {
        const int p = spans[i].parent;
        if (p >= static_cast<int>(i))
            throw std::logic_error("trace: parent recorded after child");
        if (p >= 0)
            children[p].push_back(static_cast<int>(i));
    }

    TraceSummary out;
    std::vector<double> treeSelfMs(n, 0.0);
    std::vector<int> root(n, -1);
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (int c : children[i])
            iv.emplace_back(std::max(spans[c].startNs, s.startNs),
                            std::min(spans[c].endNs, s.endNs));
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, reach = s.startNs;
        for (const auto &[a, b] : iv) {
            const int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        // Self time: the span's duration minus what its children cover.
        const double durMs = (s.endNs - s.startNs) / 1e6;
        const double selfMs = durMs - covered / 1e6;
        out.totalMs[s.name] += durMs;

        root[i] = s.parent < 0 ? static_cast<int>(i) : root[s.parent];
        treeSelfMs[root[i]] += selfMs;
        if (s.parent < 0) {
            out.rootWallMs += durMs;
            out.unattributedMs += selfMs;
        }
    }
    // Self times add up to the root's wall exactly when every child
    // lies inside its parent and no two siblings overlap; time counted
    // twice (overlap) or outside a parent shows as an excess.
    for (size_t i = 0; i < n; ++i)
        if (spans[i].parent < 0)
            out.maxReconcileErrorMs = std::max(
                out.maxReconcileErrorMs,
                std::abs(treeSelfMs[i] -
                         (spans[i].endNs - spans[i].startNs) / 1e6));
    return out;
}

} // namespace perfbench
