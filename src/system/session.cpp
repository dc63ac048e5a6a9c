#include "system/session.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/error.h"
#include "compiler/pipeline.h"
#include "ml/dataset.h"

namespace cosmic::sys {

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Preparing:
        return "preparing";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    case JobState::Cancelled:
        return "cancelled";
    case JobState::Rejected:
        return "rejected";
    }
    return "unknown";
}

namespace {

/** Strict numeric parsing: the whole token must be consumed. A front
 *  door that guessed at "4x" or "" would train the wrong cluster. */
int64_t
parseInt(const std::string &key, const std::string &value)
{
    if (value.empty())
        COSMIC_FATAL("job spec: " << key << " needs a value");
    char *end = nullptr;
    const long long parsed = std::strtoll(value.c_str(), &end, 0);
    if (end != value.c_str() + value.size())
        COSMIC_FATAL("job spec: malformed " << key << " value '"
                     << value << "'");
    return parsed;
}

double
parseDouble(const std::string &key, const std::string &value)
{
    if (value.empty())
        COSMIC_FATAL("job spec: " << key << " needs a value");
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size())
        COSMIC_FATAL("job spec: malformed " << key << " value '"
                     << value << "'");
    return parsed;
}

} // namespace

std::string
JobSpec::toText() const
{
    std::ostringstream out;
    out << "name=" << name << "\n";
    out << "workload=" << workload << "\n";
    out << "scale=" << scale << "\n";
    out << "epochs=" << epochs << "\n";
    out << "nodes=" << cluster.nodes << "\n";
    out << "groups=" << cluster.groups << "\n";
    out << "threads=" << cluster.acceleratorThreadsPerNode << "\n";
    out << "shards=" << cluster.sgdShardsPerNode << "\n";
    out << "minibatch=" << cluster.minibatchPerNode << "\n";
    out << "records=" << cluster.recordsPerNode << "\n";
    out << "lr=" << cluster.learningRate << "\n";
    out << "seed=" << cluster.seed << "\n";
    out << "mode="
        << (cluster.mode == TrainingMode::BatchedGradient ? "batch"
                                                          : "avg")
        << "\n";
    out << "payload=" << accel::numericName(cluster.transport.payload)
        << "\n";
    out << "deterministic=" << (cluster.aggregation.deterministic ? 1 : 0)
        << "\n";
    out << "overlap=" << (cluster.overlapIterations ? 1 : 0) << "\n";
    out << "staleness=" << cluster.maxStaleness << "\n";
    if (!source.empty())
        out << "---\n" << source;
    return out.str();
}

JobSpec
JobSpec::fromText(const std::string &text)
{
    JobSpec spec;
    spec.workload.clear(); // required key: no silent default program

    // The header ends at the first "---" line; everything after the
    // newline that follows it is the raw DSL source, verbatim.
    std::string header = text;
    const std::string marker = "---\n";
    size_t cut = std::string::npos;
    if (text.rfind(marker, 0) == 0)
        cut = 0;
    else if ((cut = text.find("\n" + marker)) != std::string::npos)
        cut += 1;
    if (cut != std::string::npos) {
        header = text.substr(0, cut);
        spec.source = text.substr(cut + marker.size());
    }

    std::istringstream lines(header);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            COSMIC_FATAL("job spec: malformed line '" << line
                         << "' (expected key=value)");
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        if (key == "name") {
            spec.name = value;
        } else if (key == "workload") {
            spec.workload = value;
        } else if (key == "scale") {
            spec.scale = parseDouble(key, value);
        } else if (key == "epochs") {
            spec.epochs = static_cast<int>(parseInt(key, value));
        } else if (key == "nodes") {
            spec.cluster.nodes = static_cast<int>(parseInt(key, value));
        } else if (key == "groups") {
            spec.cluster.groups =
                static_cast<int>(parseInt(key, value));
        } else if (key == "threads") {
            spec.cluster.acceleratorThreadsPerNode =
                static_cast<int>(parseInt(key, value));
        } else if (key == "shards") {
            spec.cluster.sgdShardsPerNode =
                static_cast<int>(parseInt(key, value));
        } else if (key == "minibatch") {
            spec.cluster.minibatchPerNode = parseInt(key, value);
        } else if (key == "records") {
            spec.cluster.recordsPerNode = parseInt(key, value);
        } else if (key == "lr") {
            spec.cluster.learningRate = parseDouble(key, value);
        } else if (key == "seed") {
            spec.cluster.seed =
                static_cast<uint64_t>(parseInt(key, value));
        } else if (key == "mode") {
            if (value == "avg")
                spec.cluster.mode = TrainingMode::ModelAveraging;
            else if (value == "batch")
                spec.cluster.mode = TrainingMode::BatchedGradient;
            else
                COSMIC_FATAL("job spec: unknown mode '" << value
                             << "' (avg|batch)");
        } else if (key == "payload") {
            const auto payload = accel::parseNumeric(value);
            if (!payload)
                COSMIC_FATAL("job spec: unknown payload '" << value
                             << "' (f64|q16)");
            spec.cluster.transport.payload = *payload;
        } else if (key == "deterministic") {
            spec.cluster.aggregation.deterministic =
                parseInt(key, value) != 0;
        } else if (key == "overlap") {
            spec.cluster.overlapIterations = parseInt(key, value) != 0;
        } else if (key == "staleness") {
            spec.cluster.maxStaleness =
                static_cast<int>(parseInt(key, value));
        } else {
            COSMIC_FATAL("job spec: unknown key '" << key << "'");
        }
    }
    if (spec.workload.empty())
        COSMIC_FATAL("job spec: missing required key 'workload'");
    if (spec.epochs <= 0)
        COSMIC_FATAL("job spec: epochs must be positive (got "
                     << spec.epochs << ")");
    if (spec.scale <= 0.0 || !std::isfinite(spec.scale))
        COSMIC_FATAL("job spec: scale must be positive (got "
                     << spec.scale << ")");
    if (spec.name.empty())
        spec.name = spec.workload;
    return spec;
}

Session::Session(JobSpec spec) : spec_(std::move(spec))
{
    if (spec_.name.empty())
        spec_.name = spec_.workload;
    progress_.totalEpochs = spec_.epochs;
}

Session::~Session() = default;

void
Session::setProgressSink(ProgressFn sink)
{
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = std::move(sink);
}

void
Session::emit(const JobProgress &snapshot)
{
    ProgressFn sink;
    {
        std::lock_guard<std::mutex> lock(mu_);
        sink = sink_;
    }
    if (sink)
        sink(snapshot);
}

void
Session::transition(JobState state)
{
    JobProgress snapshot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        progress_.state = state;
        snapshot = progress_;
    }
    emit(snapshot);
}

void
Session::prepare()
{
    if (runtime_)
        return;
    COSMIC_ASSERT(!released_,
                  "Session::prepare after releaseRuntime() on job '"
                      << spec_.name << "'");
    transition(JobState::Preparing);
    try {
        const ml::Workload &workload =
            ml::Workload::byName(spec_.workload);
        const std::string source = spec_.source.empty()
                                       ? workload.dslSource(spec_.scale)
                                       : spec_.source;
        // The shared, content-hashed frontend: tenants submitting the
        // same program reuse one compiled artifact.
        frontend_ =
            compile::translateCached(source, spec_.cluster.compile);
        const int64_t expected =
            ml::DatasetGenerator::modelWords(workload, spec_.scale);
        if (frontend_->translation.modelWords != expected)
            COSMIC_FATAL("job '"
                         << spec_.name << "': program trains a "
                         << frontend_->translation.modelWords
                         << "-word model but the dataset descriptor ("
                         << spec_.workload << " @ " << spec_.scale
                         << ") expects " << expected);
        runtime_ = std::make_unique<ClusterRuntime>(
            workload, spec_.scale, spec_.cluster, frontend_);
    } catch (const std::exception &e) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            progress_.state = JobState::Failed;
            progress_.error = e.what();
        }
        emit(progress());
        throw;
    }
}

const TrainingReport &
Session::run()
{
    if (control_.cancel.load()) {
        transition(JobState::Cancelled);
        return report_;
    }
    prepare();
    control_.onEpoch = [this](int epochs_done, double loss,
                              uint64_t iterations) {
        JobProgress snapshot;
        {
            std::lock_guard<std::mutex> lock(mu_);
            progress_.epochsDone = epochs_done;
            progress_.lastLoss = loss;
            progress_.iterations = iterations;
            snapshot = progress_;
        }
        emit(snapshot);
    };
    transition(JobState::Running);
    try {
        report_ = runtime_->train(spec_.epochs, &control_);
    } catch (const std::exception &e) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            progress_.state = JobState::Failed;
            progress_.error = e.what();
        }
        emit(progress());
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        progress_.iterations =
            static_cast<uint64_t>(report_.iterations);
        if (!report_.epochLoss.empty())
            progress_.lastLoss = report_.epochLoss.back();
    }
    transition(report_.cancelled ? JobState::Cancelled
                                 : JobState::Done);
    return report_;
}

void
Session::releaseRuntime()
{
    runtime_.reset();
    released_ = true;
}

const ClusterRuntime &
Session::runtime() const
{
    COSMIC_ASSERT(runtime_, "Session::runtime() on job '"
                                << spec_.name << "' "
                                << (released_ ? "after releaseRuntime()"
                                              : "before prepare()"));
    return *runtime_;
}

void
Session::cancel()
{
    control_.cancel.store(true);
}

JobProgress
Session::progress() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return progress_;
}

const dfg::Translation &
Session::translation() const
{
    COSMIC_ASSERT(frontend_, "Session::translation before prepare()");
    return frontend_->translation;
}

void
Session::setQueueWait(double seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    progress_.queueWaitSec = seconds;
}

void
Session::reject(const std::string &reason)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        progress_.state = JobState::Rejected;
        progress_.error = reason;
    }
    emit(progress());
}

} // namespace cosmic::sys
