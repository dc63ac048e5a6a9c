/**
 * @file
 * cosmicd — one OS process per Sigma/Delta node, over real TCP.
 *
 * The same compiled tape + hierarchical aggregation that
 * ClusterRuntime drives in-process, deployed as the paper intends:
 * each node is its own process with its own network thread, and
 * partial updates/model broadcasts cross actual sockets through the
 * CoSMIC wire protocol.
 *
 * Four ways to run it:
 *
 *   # Multi-process on loopback: fork N local node processes.
 *   cosmicd --launch 4 --workload stock --epochs 2
 *
 *   # One node of a real cluster: every machine runs one of these
 *   # with the same rendezvous list (node i listens on the i-th).
 *   cosmicd --node 0 --peers 10.0.0.1:7000,10.0.0.2:7000 ...
 *
 *   # Multi-tenant training service: accept DSL programs + dataset
 *   # descriptors over the wire protocol, schedule them FIFO over a
 *   # node budget (see src/system/service.h). Runs until SIGTERM.
 *   cosmicd --serve 127.0.0.1:7100 --service-nodes 8 --max-concurrent 2
 *
 *   # Submit one job to a running service and stream its progress.
 *   cosmicd --submit 127.0.0.1:7100 --workload stock --epochs 2
 *
 * `--launch N --verify` additionally runs the identical training
 * in-process and asserts the final models match bit for bit — the
 * multi-process smoke test in CI is exactly this. Verification works
 * because cosmicd always runs deterministic aggregation (sender-id
 * fold order) and, in Q16 mode, the master quantizes the model before
 * broadcasting, so the trajectory is a pure function of the
 * configuration, not of which fabric carried the bytes.
 *
 * Fork discipline: the parent stays single-threaded until every child
 * is forked (it only parses arguments and binds the listening
 * sockets, which the children inherit), so the fork-without-exec is
 * safe under TSan and no rendezvous race exists — every port is bound
 * before any process dials.
 */
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/error.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "ml/dataset.h"
#include "ml/reference.h"
#include "ml/workloads.h"
#include "net/socket.h"
#include "net/transport.h"
#include "system/cluster_runtime.h"
#include "system/node_runtime.h"
#include "system/service.h"

using namespace cosmic;

namespace {

struct Options
{
    int launch = 0;
    bool verify = false;
    int node = -1;
    std::vector<std::string> peers;
    std::string workload = "stock";
    double scale = 16.0;
    int epochs = 2;
    int groups = 0;
    int threads = 2;
    int shards = 0;
    int64_t minibatch = 32;
    int64_t records = 128;
    double lr = 0.05;
    sys::TrainingMode mode = sys::TrainingMode::ModelAveraging;
    net::PayloadKind payload = net::PayloadKind::F64;
    uint64_t seed = 0x5eed;
    std::string out;

    // Service front-door mode (--serve) and its scheduler budget.
    std::string serve;
    std::string portFile;
    int serviceNodes = 8;
    int maxConcurrent = 2;
    int maxQueued = 16;
    int peThreads = 0;

    // Client mode (--submit): ship one job to a running service.
    std::string submit;
    int nodes = 2;
};

void
usage()
{
    std::fprintf(
        stderr,
        "cosmicd — multi-process CoSMIC scale-out training over TCP\n"
        "\n"
        "  --launch N            fork N node processes on loopback\n"
        "  --verify              (with --launch) also train in-process\n"
        "                        and require a bit-identical model\n"
        "  --node I --peers L    run node I; L = host:port,... (one\n"
        "                        per node, shared by all processes)\n"
        "  --serve HOST:PORT     multi-tenant training service (port 0\n"
        "                        = ephemeral; runs until SIGTERM)\n"
        "  --port-file FILE      (with --serve) write the bound port\n"
        "  --service-nodes N     service node-slot budget (default 8)\n"
        "  --max-concurrent C    jobs training at once (default 2)\n"
        "  --max-queued Q        wait-queue depth (default 16)\n"
        "  --pe-threads T        per-node PE-thread budget to carve\n"
        "                        across tenants (0 = off)\n"
        "  --submit HOST:PORT    submit one job to a service, stream\n"
        "                        progress, exit 0 when it completes\n"
        "  --nodes N             (with --submit) job node count\n"
        "  --workload NAME       benchmark workload (default stock)\n"
        "  --scale S             dimension scale-down (default 16)\n"
        "  --epochs E            training epochs (default 2)\n"
        "  --groups G            aggregation groups (0 = auto)\n"
        "  --minibatch B         minibatch per node (default 32)\n"
        "  --records R           records per node (default 128)\n"
        "  --lr RATE             learning rate (default 0.05)\n"
        "  --mode avg|batch      model averaging | batched gradient\n"
        "  --payload f64|q16     wire payload encoding (default f64)\n"
        "  --threads T           accelerator threads/node (default 2)\n"
        "  --seed S              dataset/model seed\n"
        "  --out FILE            master writes the final model (hex\n"
        "                        floats, one per line)\n");
}

/** Strict numeric parsing: the whole argument must be consumed —
 *  "4x" or "" never silently trains the wrong cluster. */
bool
parseIntArg(const char *flag, const char *value, long long &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(value, &end, 0);
    if (*value == '\0' || end == value || *end != '\0' ||
        errno == ERANGE) {
        std::fprintf(stderr,
                     "cosmicd: malformed value '%s' for %s\n", value,
                     flag);
        return false;
    }
    return true;
}

bool
parseDoubleArg(const char *flag, const char *value, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(value, &end);
    if (*value == '\0' || end == value || *end != '\0' ||
        errno == ERANGE || !std::isfinite(out)) {
        std::fprintf(stderr,
                     "cosmicd: malformed value '%s' for %s\n", value,
                     flag);
        return false;
    }
    return true;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "cosmicd: %s needs a value\n",
                         argv[i]);
            return nullptr;
        }
        return argv[++i];
    };
    long long n = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *v = nullptr;
        if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--launch") {
            if (!(v = need(i)) || !parseIntArg("--launch", v, n))
                return false;
            opt.launch = static_cast<int>(n);
        } else if (arg == "--node") {
            if (!(v = need(i)) || !parseIntArg("--node", v, n))
                return false;
            opt.node = static_cast<int>(n);
        } else if (arg == "--peers") {
            if (!(v = need(i)))
                return false;
            opt.peers = splitList(v);
            if (opt.peers.empty()) {
                std::fprintf(stderr, "cosmicd: --peers is empty\n");
                return false;
            }
            // Validate every endpoint now: a malformed peer must be
            // a usage error, not a mid-rendezvous exception.
            for (const auto &peer : opt.peers) {
                try {
                    net::parseHostPort(peer);
                } catch (const std::exception &e) {
                    std::fprintf(stderr,
                                 "cosmicd: bad --peers entry '%s': "
                                 "%s\n",
                                 peer.c_str(), e.what());
                    return false;
                }
            }
        } else if (arg == "--workload") {
            if (!(v = need(i)))
                return false;
            opt.workload = v;
        } else if (arg == "--scale") {
            if (!(v = need(i)) || !parseDoubleArg("--scale", v,
                                                  opt.scale))
                return false;
        } else if (arg == "--epochs") {
            if (!(v = need(i)) || !parseIntArg("--epochs", v, n))
                return false;
            opt.epochs = static_cast<int>(n);
        } else if (arg == "--groups") {
            if (!(v = need(i)) || !parseIntArg("--groups", v, n))
                return false;
            opt.groups = static_cast<int>(n);
        } else if (arg == "--minibatch") {
            if (!(v = need(i)) || !parseIntArg("--minibatch", v, n))
                return false;
            opt.minibatch = n;
        } else if (arg == "--records") {
            if (!(v = need(i)) || !parseIntArg("--records", v, n))
                return false;
            opt.records = n;
        } else if (arg == "--lr") {
            if (!(v = need(i)) || !parseDoubleArg("--lr", v, opt.lr))
                return false;
        } else if (arg == "--threads") {
            if (!(v = need(i)) || !parseIntArg("--threads", v, n))
                return false;
            opt.threads = static_cast<int>(n);
        } else if (arg == "--seed") {
            if (!(v = need(i)) || !parseIntArg("--seed", v, n))
                return false;
            opt.seed = static_cast<uint64_t>(n);
        } else if (arg == "--serve") {
            if (!(v = need(i)))
                return false;
            opt.serve = v;
        } else if (arg == "--port-file") {
            if (!(v = need(i)))
                return false;
            opt.portFile = v;
        } else if (arg == "--service-nodes") {
            if (!(v = need(i)) ||
                !parseIntArg("--service-nodes", v, n))
                return false;
            opt.serviceNodes = static_cast<int>(n);
        } else if (arg == "--max-concurrent") {
            if (!(v = need(i)) ||
                !parseIntArg("--max-concurrent", v, n))
                return false;
            opt.maxConcurrent = static_cast<int>(n);
        } else if (arg == "--max-queued") {
            if (!(v = need(i)) ||
                !parseIntArg("--max-queued", v, n))
                return false;
            opt.maxQueued = static_cast<int>(n);
        } else if (arg == "--pe-threads") {
            if (!(v = need(i)) ||
                !parseIntArg("--pe-threads", v, n))
                return false;
            opt.peThreads = static_cast<int>(n);
        } else if (arg == "--submit") {
            if (!(v = need(i)))
                return false;
            opt.submit = v;
        } else if (arg == "--nodes") {
            if (!(v = need(i)) || !parseIntArg("--nodes", v, n))
                return false;
            opt.nodes = static_cast<int>(n);
        } else if (arg == "--out") {
            if (!(v = need(i)))
                return false;
            opt.out = v;
        } else if (arg == "--mode") {
            if (!(v = need(i)))
                return false;
            if (std::string(v) == "avg")
                opt.mode = sys::TrainingMode::ModelAveraging;
            else if (std::string(v) == "batch")
                opt.mode = sys::TrainingMode::BatchedGradient;
            else {
                std::fprintf(stderr, "cosmicd: bad --mode %s\n", v);
                return false;
            }
        } else if (arg == "--payload") {
            if (!(v = need(i)))
                return false;
            if (std::string(v) == "f64")
                opt.payload = net::PayloadKind::F64;
            else if (std::string(v) == "q16")
                opt.payload = net::PayloadKind::Q16;
            else {
                std::fprintf(stderr, "cosmicd: bad --payload %s\n", v);
                return false;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            std::fprintf(stderr, "cosmicd: unknown argument %s\n",
                         argv[i]);
            return false;
        }
    }
    for (const std::string &endpoint : {opt.serve, opt.submit}) {
        if (endpoint.empty())
            continue;
        try {
            net::parseHostPort(endpoint);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cosmicd: bad endpoint '%s': %s\n",
                         endpoint.c_str(), e.what());
            return false;
        }
    }
    const int modes = (opt.launch > 0) + (opt.node >= 0) +
                      !opt.serve.empty() + !opt.submit.empty();
    if (modes > 1) {
        std::fprintf(stderr,
                     "cosmicd: --launch, --node, --serve and "
                     "--submit are mutually exclusive\n");
        return false;
    }
    return true;
}

/** The in-process mirror of one cosmicd deployment's configuration
 *  (used by --verify; deterministic aggregation on both sides). */
sys::ClusterConfig
clusterConfigOf(const Options &opt, int nodes)
{
    sys::ClusterConfig cfg;
    cfg.mode = opt.mode;
    cfg.nodes = nodes;
    cfg.groups = opt.groups;
    cfg.acceleratorThreadsPerNode = opt.threads;
    cfg.sgdShardsPerNode = opt.shards;
    cfg.learningRate = opt.lr;
    cfg.minibatchPerNode = opt.minibatch;
    cfg.recordsPerNode = opt.records;
    cfg.seed = opt.seed;
    cfg.aggregation.deterministic = true;
    cfg.transport.payload = opt.payload;
    return cfg;
}

/**
 * Runs node @p self of an @p hostPorts.size()-node cluster to
 * completion: the whole training loop of ClusterRuntime::train, but
 * executing only this node's role each iteration and adopting the
 * master's broadcast as the next model.
 */
int
runNode(const Options &opt, int self,
        const std::vector<std::string> &hostPorts, int listener_fd)
{
    const int nodes = static_cast<int>(hostPorts.size());
    const auto &workload = ml::Workload::byName(opt.workload);
    const sys::ClusterConfig cfg = clusterConfigOf(opt, nodes);

    dfg::Translation translation =
        compile::translateCached(workload.dslSource(opt.scale),
                                 cfg.compile)
            ->translation;
    sys::ClusterTopology topo = sys::SystemDirector::assign(
        nodes, cfg.groups > 0
                   ? cfg.groups
                   : sys::SystemDirector::defaultGroups(nodes));
    const sys::NodeAssignment assign = topo.nodes[self];
    const bool is_master = assign.role == sys::NodeRole::MasterSigma;

    // Same synthesis as the in-process runtime: one teacher keyed by
    // the cluster seed, so every partition shares the hidden ground
    // truth; this process synthesizes and trains on partition `self`
    // only.
    Rng rng(cfg.seed);
    const ml::Teacher teacher(workload, opt.scale,
                              ml::DatasetGenerator::drawKey(rng));

    sys::NodeComputeConfig node_config;
    node_config.acceleratorThreads = cfg.acceleratorThreadsPerNode;
    node_config.sgdShards = cfg.sgdShardsPerNode;
    node_config.learningRate = cfg.learningRate;
    sys::TrainingNode node(
        translation,
        teacher.records(self * cfg.recordsPerNode, cfg.recordsPerNode),
        node_config);

    auto pool = std::make_shared<sys::BufferPool>();

    net::TransportConfig tcfg;
    tcfg.kind = net::TransportKind::Tcp;
    tcfg.payload = opt.payload;
    tcfg.hostPorts = hostPorts;
    auto transport = net::makeTcpEndpoint(tcfg, self, nodes,
                                          pool.get(), listener_fd);

    std::unique_ptr<sys::AggregationEngine> engine;
    if (assign.role != sys::NodeRole::Delta) {
        sys::AggregationConfig agg = cfg.aggregation;
        agg.pool = pool;
        engine = std::make_unique<sys::AggregationEngine>(agg);
    }

    sys::NodeRuntimeConfig nc;
    nc.mode = cfg.mode;
    nc.learningRate = cfg.learningRate;
    nc.minibatchPerNode = cfg.minibatchPerNode;
    nc.adoptBroadcast = true; // the broadcast IS our next model
    nc.payload = opt.payload;
    sys::NodeRuntime runtime(translation, nc, node, *transport,
                             engine.get(), *pool);

    // The master mirrors ClusterRuntime::train's reporting.
    ml::Reference reference(workload, opt.scale);
    ml::Dataset holdout;
    if (is_master) {
        holdout = teacher.records(nodes * cfg.recordsPerNode,
                                  std::min<int64_t>(128,
                                                    cfg.recordsPerNode));
        std::printf("cosmicd: %d nodes, workload %s, %s, %s payload\n",
                    nodes, workload.name.c_str(),
                    opt.mode == sys::TrainingMode::ModelAveraging
                        ? "model averaging"
                        : "batched gradient",
                    opt.payload == net::PayloadKind::F64 ? "f64"
                                                         : "q16");
    }

    Rng model_rng(cfg.seed + 1);
    std::vector<double> model = ml::DatasetGenerator::initialModel(
        workload, opt.scale, model_rng);
    if (is_master)
        std::printf("  epoch 0: holdout loss %.4f\n",
                    reference.meanLoss(holdout.data, holdout.count,
                                       model));

    const int64_t iters_per_epoch =
        (cfg.recordsPerNode + cfg.minibatchPerNode - 1) /
        cfg.minibatchPerNode;
    uint64_t seq = 0;
    for (int e = 0; e < opt.epochs; ++e) {
        for (int64_t i = 0; i < iters_per_epoch; ++i) {
            std::vector<double> next;
            runtime.runRole(assign, topo, model, seq++, next);
            COSMIC_ASSERT(!next.empty(),
                          "node " << self
                          << " finished an iteration with no model");
            pool->release(std::move(model));
            model = std::move(next);
        }
        if (is_master)
            std::printf("  epoch %d: holdout loss %.4f\n", e + 1,
                        reference.meanLoss(holdout.data,
                                           holdout.count, model));
    }

    if (is_master && !opt.out.empty()) {
        std::FILE *f = std::fopen(opt.out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cosmicd: cannot write %s\n",
                         opt.out.c_str());
            return 1;
        }
        // Hex floats round-trip doubles exactly — the dump carries
        // the bits, not a decimal approximation.
        for (double v : model)
            std::fprintf(f, "%la\n", v);
        std::fclose(f);
    }
    if (is_master) {
        net::NetStats s = transport->stats();
        std::printf("  wire: %" PRIu64 " B out, %" PRIu64
                    " B in, %" PRIu64 " frames out, %" PRIu64
                    " wakeups (master endpoint)\n",
                    s.bytesSent, s.bytesReceived, s.framesSent,
                    s.wakeups);
    }
    transport->shutdown();
    return 0;
}

std::vector<double>
readModelDump(const std::string &path)
{
    std::vector<double> model;
    std::FILE *f = std::fopen(path.c_str(), "r");
    COSMIC_ASSERT(f, "cannot read model dump " << path);
    char line[128];
    while (std::fgets(line, sizeof(line), f))
        model.push_back(std::strtod(line, nullptr));
    std::fclose(f);
    return model;
}

/** Forks one process per node on pre-bound loopback listeners; with
 *  --verify, trains the same cluster in-process and compares. */
int
runLaunch(const Options &opt)
{
    const int nodes = opt.launch;

    // Bind every listener before the first fork: children inherit
    // their fd, so no process can dial a port nobody owns. The parent
    // is still single-threaded here, keeping fork-without-exec safe.
    std::vector<int> listeners;
    std::vector<std::string> host_ports;
    for (int i = 0; i < nodes; ++i) {
        listeners.push_back(
            net::listenTcp(net::HostPort{"127.0.0.1", 0}));
        host_ports.push_back(
            "127.0.0.1:" +
            std::to_string(net::localPort(listeners.back())));
    }

    std::string out = opt.out;
    if (out.empty() && opt.verify)
        out = "cosmicd_model_" + std::to_string(::getpid()) + ".txt";

    std::vector<pid_t> children;
    for (int i = 0; i < nodes; ++i) {
        const pid_t pid = ::fork();
        COSMIC_ASSERT(pid >= 0, "fork failed");
        if (pid == 0) {
            // Child: keep only our own listener.
            for (int j = 0; j < nodes; ++j)
                if (j != i)
                    ::close(listeners[j]);
            Options child_opt = opt;
            child_opt.out = out;
            int rc = 1;
            try {
                rc = runNode(child_opt, i, host_ports, listeners[i]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "cosmicd node %d: %s\n", i,
                             e.what());
            }
            // _Exit skips atexit/static destruction (safe after
            // fork), so flush what the node printed first.
            std::fflush(stdout);
            std::fflush(stderr);
            std::_Exit(rc);
        }
        children.push_back(pid);
    }
    for (int fd : listeners)
        ::close(fd);

    bool ok = true;
    for (int i = 0; i < nodes; ++i) {
        int status = 0;
        ::waitpid(children[i], &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "cosmicd: node %d failed\n", i);
            ok = false;
        }
    }
    if (!ok)
        return 1;

    if (opt.verify) {
        // The in-process control run: same config, same seeds, the
        // channel fabric instead of TCP. Bit-identical or bust.
        const auto &workload = ml::Workload::byName(opt.workload);
        sys::ClusterRuntime control(workload, opt.scale,
                                    clusterConfigOf(opt, nodes));
        auto report = control.train(opt.epochs);
        std::vector<double> tcp_model = readModelDump(out);
        if (opt.out.empty())
            std::remove(out.c_str());
        if (tcp_model.size() != report.finalModel.size()) {
            std::fprintf(stderr,
                         "cosmicd: VERIFY FAILED — model widths "
                         "differ (%zu vs %zu)\n",
                         tcp_model.size(), report.finalModel.size());
            return 1;
        }
        for (size_t i = 0; i < tcp_model.size(); ++i) {
            if (std::memcmp(&tcp_model[i], &report.finalModel[i],
                            sizeof(double)) != 0) {
                std::fprintf(
                    stderr,
                    "cosmicd: VERIFY FAILED — word %zu differs "
                    "(%la over TCP vs %la in-process)\n",
                    i, tcp_model[i], report.finalModel[i]);
                return 1;
            }
        }
        std::printf("cosmicd: VERIFY OK — %zu-word model bit-identical"
                    " to the in-process run\n",
                    tcp_model.size());
    }
    return 0;
}

volatile std::sig_atomic_t g_stop_serving = 0;

void
onStopSignal(int)
{
    g_stop_serving = 1;
}

/** The service front door: accept jobs over the wire until SIGTERM
 *  (or SIGINT), then drain-free stop and report the tally. */
int
runServe(const Options &opt)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = opt.serviceNodes;
    cfg.maxConcurrent = opt.maxConcurrent;
    cfg.maxQueued = opt.maxQueued;
    cfg.peThreadsPerNode = opt.peThreads;

    sys::ServiceFrontDoor door(cfg, opt.serve);
    std::printf("cosmicd: serving on port %u (%d node slots, %d "
                "concurrent, queue %d)\n",
                door.port(), cfg.totalNodes, cfg.maxConcurrent,
                cfg.maxQueued);
    std::fflush(stdout);
    if (!opt.portFile.empty()) {
        // The port file is the rendezvous for scripted clients: write
        // to a temp name and rename so a reader never sees a partial
        // write.
        const std::string tmp = opt.portFile + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cosmicd: cannot write %s\n",
                         opt.portFile.c_str());
            return 1;
        }
        std::fprintf(f, "%u\n", door.port());
        std::fclose(f);
        std::rename(tmp.c_str(), opt.portFile.c_str());
    }

    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);
    while (!g_stop_serving)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    door.stop();
    const sys::SchedulerStats stats = door.scheduler().stats();
    std::printf("cosmicd: served %" PRIu64 " jobs (%" PRIu64
                " completed, %" PRIu64 " failed, %" PRIu64
                " cancelled, %" PRIu64 " rejected)\n",
                stats.submitted, stats.completed, stats.failed,
                stats.cancelled, stats.rejected);
    return 0;
}

/** Ships one job to a running service, streams its progress, and
 *  exits 0 only when the job completes. */
int
runSubmit(const Options &opt)
{
    sys::JobSpec spec;
    spec.workload = opt.workload;
    spec.scale = opt.scale;
    spec.epochs = opt.epochs;
    spec.cluster = clusterConfigOf(opt, opt.nodes);

    sys::ServiceClient client(opt.submit);
    sys::JobProgress ack;
    const uint64_t id = client.submit(spec, &ack);
    if (ack.state == sys::JobState::Rejected) {
        std::fprintf(stderr, "cosmicd: job rejected: %s\n",
                     ack.error.c_str());
        return 1;
    }
    std::printf("cosmicd: job %" PRIu64 " (%s, %d nodes, %s) %s\n",
                id, opt.workload.c_str(), opt.nodes,
                opt.payload == net::PayloadKind::F64 ? "f64" : "q16",
                sys::jobStateName(ack.state));

    int last_epoch = -1;
    const sys::JobProgress done = client.wait(
        id, [&](const sys::JobProgress &p) {
            if (p.epochsDone != last_epoch && p.epochsDone > 0 &&
                p.state == sys::JobState::Running) {
                std::printf("  epoch %d/%d: loss %.4f\n",
                            p.epochsDone, p.totalEpochs, p.lastLoss);
                last_epoch = p.epochsDone;
            }
        });
    if (done.state != sys::JobState::Done) {
        std::fprintf(stderr, "cosmicd: job %" PRIu64 " %s%s%s\n", id,
                     sys::jobStateName(done.state),
                     done.error.empty() ? "" : ": ",
                     done.error.c_str());
        return 1;
    }
    const std::vector<double> model = client.result(id);
    std::printf("cosmicd: job %" PRIu64 " done — %zu-word model, "
                "final loss %.4f, queue wait %.3fs\n",
                id, model.size(), done.lastLoss, done.queueWaitSec);
    if (!opt.out.empty()) {
        std::FILE *f = std::fopen(opt.out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cosmicd: cannot write %s\n",
                         opt.out.c_str());
            return 1;
        }
        for (double v : model)
            std::fprintf(f, "%la\n", v);
        std::fclose(f);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    try {
        if (!opt.serve.empty())
            return runServe(opt);
        if (!opt.submit.empty())
            return runSubmit(opt);
        if (opt.launch > 0)
            return runLaunch(opt);
        if (opt.node >= 0) {
            COSMIC_ASSERT(!opt.peers.empty(),
                          "--node needs --peers host:port,...");
            COSMIC_ASSERT(opt.node <
                              static_cast<int>(opt.peers.size()),
                          "--node " << opt.node << " out of range for "
                          << opt.peers.size() << " peers");
            return runNode(opt, opt.node, opt.peers, -1);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cosmicd: %s\n", e.what());
        return 1;
    }
    usage();
    return 2;
}
