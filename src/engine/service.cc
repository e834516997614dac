#include "service.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>

#include "engine/eventlog.hh"
#include "engine/json.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "obs/build_info.hh"
#include "relation/error.hh"
#include "runtime/thread_pool.hh"

namespace mixedproxy::engine {

namespace {

json::Value
errorResponse(const json::Value *id, const std::string &message)
{
    json::Value response = json::Value::makeObject();
    if (id)
        response.object["id"] = *id;
    response.object["ok"] = json::Value::makeBool(false);
    response.object["error"] = json::Value::makeString(message);
    return response;
}

/**
 * Writes responses strictly in request order: completions arrive in
 * any order, the next-in-line completion drains everything ready. The
 * worker holding the lock does the writing, so no dedicated writer
 * thread exists and the output stream needs no other synchronization.
 */
class OrderedWriter
{
  public:
    explicit OrderedWriter(std::ostream &out) : out(out) {}

    void complete(std::uint64_t seq, std::string text)
    {
        std::lock_guard lock(mutex);
        ready[seq] = std::move(text);
        bool wrote = false;
        for (auto it = ready.find(nextSeq); it != ready.end();
             it = ready.find(nextSeq)) {
            out << it->second << '\n';
            ready.erase(it);
            nextSeq++;
            wrote = true;
        }
        if (wrote)
            out.flush();
    }

  private:
    std::ostream &out;
    std::mutex mutex;
    std::map<std::uint64_t, std::string> ready;
    std::uint64_t nextSeq = 0;
};

/** A std::streambuf over a connected socket fd (unbuffered writes). */
class FdStreambuf : public std::streambuf
{
  public:
    explicit FdStreambuf(int fd) : fd(fd)
    {
        setg(inBuffer, inBuffer, inBuffer);
    }

  protected:
    int_type underflow() override
    {
        ssize_t got = ::read(fd, inBuffer, sizeof inBuffer);
        if (got <= 0)
            return traits_type::eof();
        setg(inBuffer, inBuffer, inBuffer + got);
        return traits_type::to_int_type(inBuffer[0]);
    }

    int_type overflow(int_type ch) override
    {
        if (ch == traits_type::eof())
            return traits_type::eof();
        char c = traits_type::to_char_type(ch);
        return writeAll(&c, 1) ? ch : traits_type::eof();
    }

    std::streamsize xsputn(const char *data,
                           std::streamsize count) override
    {
        return writeAll(data, static_cast<std::size_t>(count))
                   ? count
                   : 0;
    }

  private:
    bool writeAll(const char *data, std::size_t count)
    {
        while (count > 0) {
            ssize_t put = ::write(fd, data, count);
            if (put <= 0)
                return false;
            data += put;
            count -= static_cast<std::size_t>(put);
        }
        return true;
    }

    int fd;
    char inBuffer[4096];
};

int
serveStream(Engine &engine, const ServeOptions &options,
            std::istream &in, std::ostream &out, std::ostream &err,
            bool *shutdownRequested, ServiceState &state,
            EventLog *log, std::uint64_t *nextRequestId)
{
    obs::Session *parent = options.session;
    std::mutex mergeMutex;
    std::atomic<bool> shutdown{false};

    OrderedWriter writer(out);
    int code = 0;
    {
        runtime::ThreadPool pool(std::max<std::size_t>(1, options.jobs));
        std::uint64_t seq = 0;
        std::string line;
        while (!shutdown.load(std::memory_order_relaxed) &&
               std::getline(in, line)) {
            if (line.empty())
                continue;
            const std::uint64_t mySeq = seq++;
            // Request ids are monotonic across a daemon's lifetime
            // (serveSocket threads one counter through every
            // connection), assigned in arrival order.
            const std::uint64_t requestId = ++*nextRequestId;
            pool.submit([&engine, &writer, &shutdown, &mergeMutex,
                         &state, parent, log, mySeq, requestId,
                         myLine = line] {
                state.requestStarted();
                if (log) {
                    log->log("info", "request.start",
                             {{"request_id",
                               json::Value::makeUint(requestId)}});
                }

                // Every request records into its own session — always
                // enabled, so per-op latency and engine.cache.* reach
                // the live metrics registry even when the CLI has no
                // observability sinks. The trace merges (and keeps
                // accumulating memory) only when a parent listens.
                obs::Session session;
                if (parent && parent->enabled())
                    session.enableWithOrigin(parent->origin());
                else
                    session.enable();
                session.requestId = requestId;

                bool wantsShutdown = false;
                RequestOutcome outcome;
                std::string response;
                const auto begin = std::chrono::steady_clock::now();
                {
                    obs::ScopedSession bind(&session);
                    response = handleRequestLine(engine, myLine,
                                                 &wantsShutdown, &state,
                                                 &outcome);
                }
                const double seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin)
                        .count();

                session.disable();
                state.mergeMetrics(session.metrics);
                state.requestFinished(outcome.op, seconds, outcome.ok);
                if (parent && parent->enabled()) {
                    std::lock_guard lock(mergeMutex);
                    parent->metrics.mergeFrom(session.metrics);
                    parent->tracer.append(session.tracer);
                }

                if (log) {
                    if (outcome.cacheHit) {
                        log->log("info", "request.cache_hit",
                                 {{"request_id",
                                   json::Value::makeUint(requestId)}});
                    }
                    std::vector<std::pair<std::string, json::Value>>
                        fields = {
                            {"request_id",
                             json::Value::makeUint(requestId)},
                            {"op", json::Value::makeString(outcome.op)},
                            {"duration_ms", json::Value::makeDouble(
                                                seconds * 1e3)},
                            {"cache_hit",
                             json::Value::makeBool(outcome.cacheHit)},
                        };
                    if (outcome.ok) {
                        log->log("info", "request.finish", fields);
                    } else {
                        fields.emplace_back(
                            "error",
                            json::Value::makeString(outcome.error));
                        log->log("error", "request.error", fields);
                    }
                }
                if (wantsShutdown)
                    shutdown.store(true, std::memory_order_relaxed);
                writer.complete(mySeq, std::move(response));
            });
        }
        try {
            pool.wait();
        } catch (const std::exception &e) {
            err << "nvlitmus: serve: " << e.what() << "\n";
            code = 2;
        }
    }
    if (shutdownRequested)
        *shutdownRequested = shutdown.load();
    return code;
}

} // namespace

std::string
handleRequestLine(Engine &engine, const std::string &line,
                  bool *shutdown, const ServiceState *state,
                  RequestOutcome *outcome)
{
    RequestOutcome localOutcome;
    RequestOutcome &result = outcome ? *outcome : localOutcome;
    auto failed = [&result](const json::Value *id,
                            const std::string &message) {
        result.op = "error";
        result.ok = false;
        result.error = message;
        return errorResponse(id, message).dump();
    };

    std::string parseError;
    std::unique_ptr<json::Value> doc = json::parse(line, &parseError);
    if (!doc || !doc->isObject()) {
        return failed(nullptr, "bad request: " +
                                   (parseError.empty()
                                        ? "not a JSON object"
                                        : parseError));
    }
    const json::Value *id = doc->find("id");

    // "cmd" is the historical admin-command field; "op" is accepted as
    // an alias (docs/service.md).
    std::string cmd = doc->stringOr("cmd", "");
    if (cmd.empty())
        cmd = doc->stringOr("op", "");
    if (cmd == "ping") {
        result.op = "ping";
        result.ok = true;
        json::Value response = json::Value::makeObject();
        if (id)
            response.object["id"] = *id;
        response.object["ok"] = json::Value::makeBool(true);
        response.object["pong"] = json::Value::makeBool(true);
        return response.dump();
    }
    if (cmd == "shutdown") {
        if (shutdown)
            *shutdown = true;
        result.op = "shutdown";
        result.ok = true;
        json::Value response = json::Value::makeObject();
        if (id)
            response.object["id"] = *id;
        response.object["ok"] = json::Value::makeBool(true);
        response.object["shutdown"] = json::Value::makeBool(true);
        return response.dump();
    }
    if (cmd == "metrics") {
        if (!state)
            return failed(id, "metrics not available on this transport");
        result.op = "metrics";
        result.ok = true;
        ServiceSnapshot snap = state->snapshot();

        json::Value response = json::Value::makeObject();
        if (id)
            response.object["id"] = *id;
        response.object["ok"] = json::Value::makeBool(true);
        response.object["uptime_ms"] =
            json::Value::makeDouble(snap.uptimeMs);
        response.object["requests_total"] =
            json::Value::makeUint(snap.requestsTotal);
        response.object["errors_total"] =
            json::Value::makeUint(snap.errorsTotal);
        response.object["in_flight"] = json::Value::makeUint(
            static_cast<std::uint64_t>(
                snap.inFlight < 0 ? 0 : snap.inFlight));

        const obs::BuildInfo &info = obs::buildInfo();
        json::Value build = json::Value::makeObject();
        build.object["git_sha"] = json::Value::makeString(info.gitSha);
        build.object["compiler"] =
            json::Value::makeString(info.compiler);
        build.object["build_type"] =
            json::Value::makeString(info.buildType);
        response.object["build"] = std::move(build);

        json::Value counters = json::Value::makeObject();
        for (const auto &[name, value] : snap.metrics.counters())
            counters.object[name] = json::Value::makeUint(value);
        response.object["counters"] = std::move(counters);

        // Per-op latency histogram summaries ("service.op.<op>").
        json::Value ops = json::Value::makeObject();
        for (const std::string &name : snap.metrics.timerNames()) {
            const std::string prefix = "service.op.";
            if (name.compare(0, prefix.size(), prefix) != 0)
                continue;
            obs::TimerSummary t = snap.metrics.timer(name);
            json::Value summary = json::Value::makeObject();
            summary.object["count"] = json::Value::makeUint(t.count);
            summary.object["total_ms"] =
                json::Value::makeDouble(t.total * 1e3);
            summary.object["mean_ms"] =
                json::Value::makeDouble(t.mean * 1e3);
            summary.object["p50_ms"] =
                json::Value::makeDouble(t.p50 * 1e3);
            summary.object["p95_ms"] =
                json::Value::makeDouble(t.p95 * 1e3);
            summary.object["max_ms"] =
                json::Value::makeDouble(t.max * 1e3);
            ops.object[name.substr(prefix.size())] = std::move(summary);
        }
        response.object["ops"] = std::move(ops);
        return response.dump();
    }
    if (cmd == "conform") {
        // Trace-conformance op (docs/trace_conformance.md): the trace
        // arrives as a file path or as inline JSONL text, so a client
        // without a shared filesystem can still submit recordings.
        try {
            Request request;
            request.kind = RequestKind::Conform;
            if (const json::Value *path = doc->find("path")) {
                if (!path->isString())
                    fatal("'path' must be a string");
                request.conform.path = path->string;
            } else if (const json::Value *trace = doc->find("trace")) {
                if (!trace->isString())
                    fatal("'trace' must be a string");
                request.conform.traceText = trace->string;
            } else {
                fatal("conform needs 'path' (trace file) or 'trace' "
                      "(inline JSONL)");
            }
            request.conform.window = static_cast<std::size_t>(
                doc->uintOr("window", request.conform.window));
            request.conform.maxViolations = static_cast<std::size_t>(
                doc->uintOr("max_violations",
                            request.conform.maxViolations));

            Verdict verdict = engine.submit(request);
            const conform::ConformReport &report = *verdict.conform;
            result.op = "conform";
            result.ok = true;
            json::Value response = json::Value::makeObject();
            if (id)
                response.object["id"] = *id;
            response.object["ok"] = json::Value::makeBool(true);
            response.object["conformant"] =
                json::Value::makeBool(report.conformant());
            response.object["test"] =
                json::Value::makeString(report.test);
            response.object["events"] =
                json::Value::makeUint(report.stats.events);
            response.object["violations"] = json::Value::makeUint(
                report.stats.totalViolations());
            json::Value byKind = json::Value::makeObject();
            for (std::size_t k = 0; k < conform::kViolationKinds; k++) {
                if (report.stats.byKind[k] == 0)
                    continue;
                byKind.object[conform::toString(
                    static_cast<conform::ViolationKind>(k))] =
                    json::Value::makeUint(report.stats.byKind[k]);
            }
            response.object["violations_by_kind"] = std::move(byKind);
            response.object["report"] = json::Value::makeString(
                renderReport(request, verdict));
            return response.dump();
        } catch (const FatalError &e) {
            return failed(id, e.what());
        }
    }
    if (!cmd.empty())
        return failed(id, "unknown cmd '" + cmd + "'");

    Request request;
    try {
        if (const json::Value *source = doc->find("litmus")) {
            if (!source->isString())
                fatal("'litmus' must be a string");
            request.test = litmus::parseTest(source->string);
        } else if (const json::Value *name = doc->find("test")) {
            if (!name->isString())
                fatal("'test' must be a string");
            if (!litmus::hasTest(name->string))
                fatal("unknown built-in test '", name->string, "'");
            request.test = litmus::testByName(name->string);
        } else {
            fatal("request needs 'litmus' (source text) or 'test' "
                  "(built-in name)");
        }

        const std::string mode = doc->stringOr("mode", "ptx75");
        if (mode == "ptx75") {
            request.check.mode = model::ProxyMode::Ptx75;
        } else if (mode == "ptx60") {
            request.check.mode = model::ProxyMode::Ptx60;
        } else {
            fatal("unknown model '", mode, "'");
        }

        request.check.showWitnesses = doc->boolOr("witness", false);
        request.check.dot = doc->boolOr("dot", false);
        request.check.compareModels = doc->boolOr("compare", false);
        request.check.maxExecutions = doc->uintOr(
            "max_executions", request.check.maxExecutions);
        const std::string presolve = doc->stringOr("presolve", "off");
        if (auto policy = model::presolvePolicyFromString(presolve)) {
            request.check.presolve = *policy;
        } else {
            fatal("unknown presolve policy '", presolve,
                  "' (want off|on|only)");
        }
        request.lint.enabled = doc->boolOr("lint", false);
        request.lint.lintOnly = doc->boolOr("lint_only", false);
        request.sim.enabled = doc->boolOr("sim", false);
        request.sim.iterations = static_cast<std::size_t>(doc->uintOr(
            "sim_iterations", request.sim.iterations));

        Verdict verdict = engine.submit(request);

        result.op = "check";
        result.ok = true;
        result.cacheHit = verdict.cacheHit;
        json::Value response = json::Value::makeObject();
        if (id)
            response.object["id"] = *id;
        response.object["ok"] = json::Value::makeBool(true);
        response.object["passed"] =
            json::Value::makeBool(verdict.passed());
        response.object["cache_hit"] =
            json::Value::makeBool(verdict.cacheHit);
        response.object["report"] =
            json::Value::makeString(renderReport(request, verdict));
        return response.dump();
    } catch (const FatalError &e) {
        return failed(id, e.what());
    }
}

int
serve(Engine &engine, const ServeOptions &options, std::istream &in,
      std::ostream &out, std::ostream &err)
{
    ServiceState state;
    EventLog log;
    if (!options.logJsonPath.empty() &&
        !log.open(options.logJsonPath)) {
        err << "nvlitmus: cannot open --log-json "
            << options.logJsonPath << "\n";
        return 2;
    }
    if (log.active())
        log.log("info", "server.start",
                {{"jobs", json::Value::makeUint(options.jobs)}});
    std::uint64_t nextRequestId = 0;
    return serveStream(engine, options, in, out, err, nullptr, state,
                       log.active() ? &log : nullptr, &nextRequestId);
}

int
serveSocket(Engine &engine, const ServeOptions &options,
            std::ostream &err)
{
    const std::string &path = options.socketPath;
    if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
        err << "nvlitmus: bad socket path\n";
        return 2;
    }

    // A dead client mid-write must be a failed write, not SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        err << "nvlitmus: socket: " << std::strerror(errno) << "\n";
        return 2;
    }
    ::unlink(path.c_str());
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, path.c_str(),
                 sizeof(address.sun_path) - 1);
    if (::bind(listener, reinterpret_cast<sockaddr *>(&address),
               sizeof address) < 0 ||
        ::listen(listener, 8) < 0) {
        err << "nvlitmus: bind " << path << ": "
            << std::strerror(errno) << "\n";
        ::close(listener);
        return 2;
    }

    // One ServiceState, event log and request-id counter span every
    // connection: the metrics op reports daemon-lifetime uptime and
    // totals, and request ids never restart mid-daemon.
    ServiceState state;
    EventLog log;
    if (!options.logJsonPath.empty() &&
        !log.open(options.logJsonPath)) {
        err << "nvlitmus: cannot open --log-json "
            << options.logJsonPath << "\n";
        ::close(listener);
        ::unlink(path.c_str());
        return 2;
    }
    if (log.active())
        log.log("info", "server.start",
                {{"jobs", json::Value::makeUint(options.jobs)},
                 {"socket", json::Value::makeString(path)}});
    std::uint64_t nextRequestId = 0;

    int code = 0;
    bool shutdown = false;
    while (!shutdown) {
        int connection = ::accept(listener, nullptr, nullptr);
        if (connection < 0) {
            if (errno == EINTR)
                continue;
            err << "nvlitmus: accept: " << std::strerror(errno) << "\n";
            code = 2;
            break;
        }
        FdStreambuf buffer(connection);
        std::istream in(&buffer);
        std::ostream out(&buffer);
        serveStream(engine, options, in, out, err, &shutdown, state,
                    log.active() ? &log : nullptr, &nextRequestId);
        ::close(connection);
    }
    ::close(listener);
    ::unlink(path.c_str());
    return code;
}

} // namespace mixedproxy::engine
