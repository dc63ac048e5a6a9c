#include "system/training_node.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.h"
#include "system/fault.h"

namespace cosmic::sys {

TrainingNode::TrainingNode(const dfg::Tape &tape, ml::Dataset partition,
                           const NodeComputeConfig &config)
    : tr_(tape.translation()), partition_(std::move(partition)),
      config_(config), tape_(tape),
      pool_(config.acceleratorThreads)
{
    COSMIC_ASSERT(config_.acceleratorThreads > 0,
                  "node needs at least one worker thread");
    COSMIC_ASSERT(config_.sgdShards >= 0,
                  "shard count cannot be negative");
    COSMIC_ASSERT(partition_.recordWords == tr_.recordWords,
                  "partition record width " << partition_.recordWords
                  << " does not match the program's " << tr_.recordWords);
    COSMIC_ASSERT(tr_.gradientWords == tr_.modelWords,
                  "local SGD requires one gradient element per model "
                  "parameter (declare gradients in model order)");
    shards_ = config_.sgdShards > 0 ? config_.sgdShards
                                    : config_.acceleratorThreads;
    workers_.resize(config_.acceleratorThreads);
    for (auto &w : workers_) {
        w.exec = std::make_unique<dfg::TapeExecutor>(tape_);
        w.grad.resize(tr_.gradientWords, 0.0);
    }
    shardModels_.resize(shards_);
    for (auto &m : shardModels_)
        m.resize(tr_.modelWords, 0.0);
}

int
TrainingNode::shardSegments(int s, int shard_count,
                            int64_t batch_records, Segment segs[2]) const
{
    const int64_t per =
        (batch_records + shard_count - 1) / shard_count;
    int64_t first = cursor_ + s * per;
    const int64_t last =
        std::min<int64_t>(cursor_ + batch_records, first + per);
    int count = 0;
    while (first < last && count < 2) {
        int64_t start = first % partition_.count;
        int64_t n = std::min(last - first, partition_.count - start);
        segs[count].records =
            partition_.data.data() + start * partition_.recordWords;
        segs[count].count = n;
        ++count;
        first += n;
    }
    return count;
}

void
TrainingNode::sweepShardRange(int t, int s0, int s1,
                              int64_t batch_records,
                              const std::vector<double> &model)
{
    Worker &w = workers_[t];
    // Each shard is an independent plain-SGD sweep over its records
    // (at most two segments when the batch wraps the partition).
    for (int s = s0; s < s1; ++s) {
        std::vector<double> &shard_model = shardModels_[s];
        std::copy(model.begin(), model.end(), shard_model.begin());
        Segment segs[2];
        const int count = shardSegments(s, shards_, batch_records, segs);
        for (int k = 0; k < count; ++k)
            w.exec->sgdSweep(
                {segs[k].records, static_cast<size_t>(
                                      segs[k].count * tr_.recordWords)},
                segs[k].count, shard_model, config_.learningRate);
    }
}

void
TrainingNode::maybeStall()
{
    const uint64_t iteration = iteration_++;
    if (!injector_)
        return;
    double ms = injector_->stragglerDelayMs(nodeId_, iteration);
    if (ms > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
}

void
TrainingNode::computeLocalUpdate(const std::vector<double> &model,
                                 int64_t batch_records,
                                 std::vector<double> &update)
{
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) == tr_.modelWords,
                  "model width mismatch");
    maybeStall();
    const int threads = config_.acceleratorThreads;
    batch_records = std::min<int64_t>(batch_records, partition_.count);

    // Divide the batch into equal sub-partitions (Fig. 1), one per SGD
    // shard; each shard performs plain SGD on its preallocated private
    // model copy (parallelized SGD, Eq. 3a). Threads own contiguous
    // shard groups.
    const int per_thread = (shards_ + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
        const int s0 = t * per_thread;
        const int s1 = std::min(shards_, s0 + per_thread);
        if (s0 >= s1)
            break;
        pool_.submit([this, t, s0, s1, batch_records, &model] {
            sweepShardRange(t, s0, s1, batch_records, model);
        });
    }
    pool_.waitIdle();
    cursor_ = (cursor_ + batch_records) % partition_.count;
    recordsProcessed_ += batch_records;

    // The accelerator's local aggregation across SGD shards.
    update.assign(model.size(), 0.0);
    for (const auto &m : shardModels_)
        for (size_t i = 0; i < update.size(); ++i)
            update[i] += m[i];
    for (auto &v : update)
        v /= shards_;
}

void
TrainingNode::computeGradientSum(const std::vector<double> &model,
                                 int64_t batch_records,
                                 std::vector<double> &grad)
{
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) == tr_.modelWords,
                  "model width mismatch");
    maybeStall();
    const int workers = config_.acceleratorThreads;
    batch_records = std::min<int64_t>(batch_records, partition_.count);

    for (int t = 0; t < workers; ++t) {
        pool_.submit([this, t, workers, &model, batch_records] {
            Worker &w = workers_[t];
            std::fill(w.grad.begin(), w.grad.end(), 0.0);
            Segment segs[2];
            const int n = shardSegments(t, workers, batch_records,
                                        segs);
            for (int i = 0; i < n; ++i)
                w.exec->runBatch(
                    {segs[i].records,
                     static_cast<size_t>(segs[i].count *
                                         partition_.recordWords)},
                    segs[i].count, model, w.grad);
        });
    }
    pool_.waitIdle();
    cursor_ = (cursor_ + batch_records) % partition_.count;
    recordsProcessed_ += batch_records;

    // Local aggregation: plain summation over worker threads.
    grad.assign(tr_.gradientWords, 0.0);
    for (const auto &w : workers_)
        for (int64_t i = 0; i < tr_.gradientWords; ++i)
            grad[i] += w.grad[i];
}

} // namespace cosmic::sys
