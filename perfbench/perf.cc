/**
 * @file
 * cloudmc benchmark driver: runs one benchmark workload against the
 * simulator library through its public entry points, checks that the
 * outputs are correct, and prints every metric by name with its unit.
 *
 * Workloads (Table 2 baseline unless stated: FR-FCFS, open-adaptive,
 * DDR3-1600, 1 channel, event kernel):
 *  - ws_core     Web Search, 16 cores: core, cache and generator bound.
 *  - q6_ctrl     TPC-H Q6, 16 cores: controller bound.
 *  - ms_rw_tier  Media Streaming with its DMA engine on the tiered
 *                backend (hotness_based): reads and writes, two queues.
 *  - fig_sweep   Figure 1-7 scheduler study: 5 schedulers x 6
 *                CloudSuite presets through ExperimentRunner::runAll on
 *                2 workers into a fresh results cache, then a warm
 *                reload.
 *
 * A single-run workload repeats fixed-length passes (set-up, warm-up
 * and measure, advanced in fixed windows) on one thread until the time
 * budget is spent; fig_sweep repeats cold sweeps. Every pass and sweep
 * of one seed is deterministic, so each is checked against the
 * untimed reference results (System::run with a JEDEC referee on every
 * queue, and the event kernel against the reference kernel).
 *
 * With --trace 1 the same loop runs twice, untraced then traced; the
 * traced half records spans in memory (written at exit as Chrome
 * trace-event JSON), wraps the generator in a timing decorator where
 * that reproduces the untimed results bit for bit, counts DRAM
 * commands, and then runs the per-layer probes.
 *
 * The last stdout line is "PERF_RESULT {json}" with every metric the
 * run measured; perfbench/run.py turns it into the benchmark result.
 *
 * Usage: cloudmc_perf --workload NAME [--seed N] [--seconds S]
 *                     [--trace 0|1] [--trace-out PATH] [--work-dir DIR]
 *                     [--tiny]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cpu/hierarchy.hh"
#include "dram/timing_checker.hh"
#include "mem/backend.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

using Clock = std::chrono::steady_clock;
using Point = ExperimentRunner::Point;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- options

/** A seed nobody tunes against: later claims are re-checked on it. */
constexpr std::uint64_t kHeldOutSeed = 7919;

struct Options
{
    std::string workload;
    /** 0 keeps each preset's calibrated seed. */
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut = "perf_trace.json";
    std::string workDir = ".";
    bool tiny = false;
};

/** Simulated lengths, in core cycles. */
struct Sizes
{
    std::uint64_t window = 10'000;   ///< One timed advance() window.
    std::uint64_t passWarmup = 300'000;
    std::uint64_t passMeasure = 3'000'000;
    std::uint64_t checkWarmup = 20'000; ///< Event-vs-reference window.
    std::uint64_t checkMeasure = 60'000;
    /** One fig_sweep point; ExperimentRunner measures at least 100k
     *  cycles whatever the config asks. */
    std::uint64_t pointWarmup = 20'000;
    std::uint64_t pointMeasure = 100'000;
    std::size_t probeAccesses = 1'500'000; ///< CPU probe length.
    std::size_t probeRequests = 40'000;    ///< Memory probe length.
    /** Extra set-ups timed per repetition (a System takes ~20 ms to
     *  build, an empty ExperimentRunner microseconds). */
    std::size_t setupRepeats = 2;
    std::size_t sweepSetupRepeats = 20;
    unsigned sweepWorkers = 2;
};

Sizes
tinySizes()
{
    Sizes s;
    s.window = 5'000;
    s.passWarmup = 20'000;
    s.passMeasure = 60'000;
    s.checkWarmup = 5'000;
    s.checkMeasure = 20'000;
    s.pointWarmup = 5'000;
    s.probeAccesses = 50'000;
    s.probeRequests = 2'000;
    s.setupRepeats = 1;
    s.sweepSetupRepeats = 5;
    return s;
}

// ------------------------------------------------------------- statistics

/** Linear-interpolation quantile of @p v (q in [0,1]); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

// ------------------------------------------------------------- tracing

/**
 * In-memory span recorder. Spans nest by call order; each carries the
 * run id and its parent span. Disabled recorders cost one branch.
 */
class Tracer
{
  public:
    explicit Tracer(std::string runId) : runId_(std::move(runId)) {}

    void setEnabled(bool on) { on_ = on; }
    bool enabled() const { return on_; }

    std::size_t
    open(const char *name)
    {
        if (!on_)
            return 0;
        spans_.push_back({name, nowUs(), 0.0,
                          stack_.empty() ? 0 : stack_.back(), ""});
        stack_.push_back(spans_.size());
        return spans_.size();
    }

    void
    close(std::size_t id, std::string args = "")
    {
        if (id == 0)
            return;
        spans_[id - 1].endUs = nowUs();
        spans_[id - 1].args = std::move(args);
        stack_.pop_back();
    }

    std::size_t size() const { return spans_.size(); }

    /** Write Chrome trace-event JSON ("X" complete events). */
    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":"
                        "{\"run_id\":\"%s\"},\"traceEvents\":[",
                     runId_.c_str());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"cloudmc_perf\","
                         "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run_id\":"
                         "\"%s\",\"span_id\":%zu,\"parent_id\":%zu%s%s}}",
                         i ? "," : "", s.name, s.startUs,
                         s.endUs - s.startUs, runId_.c_str(), i + 1,
                         s.parent, s.args.empty() ? "" : ",",
                         s.args.c_str());
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        std::size_t parent;
        std::string args;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    std::string runId_;
    bool on_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** Scoped span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name) : t_(t), id_(t.open(name)) {}
    ~SpanScope() { t_.close(id_, std::move(args)); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::string args;

  private:
    Tracer &t_;
    std::size_t id_;
};

// ------------------------------------------------------------- report

struct Metric
{
    std::string name;
    std::string unit;
    double value;
    std::string note;
    std::vector<double> samples; ///< Within-run samples, when any.
};

class Report
{
  public:
    void
    add(std::string name, std::string unit, double value,
        std::string note = "", std::vector<double> samples = {})
    {
        metrics_.push_back({std::move(name), std::move(unit), value,
                            std::move(note), std::move(samples)});
    }

    void
    print() const
    {
        for (const Metric &m : metrics_) {
            std::printf("metric %-36s %14.6g %-10s", m.name.c_str(),
                        m.value, m.unit.c_str());
            if (!m.samples.empty()) {
                std::printf(" [min %.6g  q1 %.6g  median %.6g  q3 %.6g  "
                            "max %.6g  n=%zu]",
                            quantile(m.samples, 0.0),
                            quantile(m.samples, 0.25), median(m.samples),
                            quantile(m.samples, 0.75),
                            quantile(m.samples, 1.0), m.samples.size());
            }
            if (!m.note.empty())
                std::printf("  # %s", m.note.c_str());
            std::printf("\n");
        }
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(17);
        os << '{';
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            // JSON has no NaN or infinity; a non-finite value is a
            // benchmark bug that run.py reports as a missing metric.
            if (!std::isfinite(metrics_[i].value))
                continue;
            os << (i ? "," : "") << '"' << metrics_[i].name
               << "\":{\"value\":" << metrics_[i].value << ",\"unit\":\""
               << metrics_[i].unit << "\"}";
        }
        os << '}';
        return os.str();
    }

  private:
    std::vector<Metric> metrics_;
};

// ------------------------------------------------------------- correctness

/** Counts attempted and failed simulations; prints each failure. */
struct Gate
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool
    record(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("FAIL: %s\n", what.c_str());
        }
        return ok;
    }
};

/** FNV-1a over every field of a MetricSet, bit for bit. */
class Digest
{
  public:
    template <class T>
    void
    add(const T &v)
    {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b) {
            h_ ^= c;
            h_ *= 1099511628211ull;
        }
    }

    template <class T>
    void
    addAll(const std::vector<T> &v)
    {
        add(v.size());
        for (const T &x : v)
            add(x);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t
digestOf(const MetricSet &m)
{
    Digest d;
    for (double v :
         {m.userIpc, m.avgReadLatency, m.readLatencyP50, m.readLatencyP95,
          m.readLatencyP99, m.rowHitRatePct, m.l2Mpki, m.avgReadQueue,
          m.avgWriteQueue, m.bwUtilPct, m.sameGroupCasPct,
          m.singleAccessPct, m.ipcDisparity, m.weightedSpeedup,
          m.harmonicSpeedup, m.maxSlowdown, m.dramEnergyNj,
          m.dramAvgPowerMw, m.vaultQueueImbalance, m.fastTierHitPct,
          m.slowTierReadLatencyP99}) {
        d.add(v);
    }
    for (std::uint64_t v :
         {m.remapMigrations, m.remapMigratedRows, m.tierMigrations,
          m.tierMigratedRows, m.committedInstructions, m.measuredCycles,
          m.memReads, m.memWrites}) {
        d.add(v);
    }
    d.addAll(m.perCoreIpc);
    d.addAll(m.perCoreCommitted);
    d.addAll(m.perCoreCycles);
    d.addAll(m.perCoreSlowdown);
    d.addAll(m.perVaultReadQueue);
    return d.value();
}

/** @p v after the results cache's text round trip. */
double
cacheRoundTrip(double v)
{
    std::ostringstream os;
    os << v;
    return std::strtod(os.str().c_str(), nullptr);
}

/** True when a warm-cache row reproduces the cold result it stored. */
bool
reloadMatches(const MetricSet &cold, const MetricSet &warm)
{
    for (auto [a, b] :
         {std::pair{cold.userIpc, warm.userIpc},
          {cold.avgReadLatency, warm.avgReadLatency},
          {cold.rowHitRatePct, warm.rowHitRatePct},
          {cold.l2Mpki, warm.l2Mpki},
          {cold.avgReadQueue, warm.avgReadQueue},
          {cold.avgWriteQueue, warm.avgWriteQueue},
          {cold.bwUtilPct, warm.bwUtilPct},
          {cold.singleAccessPct, warm.singleAccessPct},
          {cold.readLatencyP99, warm.readLatencyP99},
          {cold.fastTierHitPct, warm.fastTierHitPct}}) {
        if (cacheRoundTrip(a) != b)
            return false;
    }
    return cold.committedInstructions == warm.committedInstructions &&
           cold.measuredCycles == warm.measuredCycles &&
           cold.memReads == warm.memReads &&
           cold.memWrites == warm.memWrites &&
           cold.tierMigrations == warm.tierMigrations;
}

/** One issued DRAM command, for the cross-kernel trace comparison. */
struct TraceEntry
{
    std::uint32_t queue;
    DramCommand cmd;
    Tick tick;

    bool
    operator==(const TraceEntry &o) const
    {
        return queue == o.queue && cmd.type == o.cmd.type &&
               cmd.rank == o.cmd.rank && cmd.bank == o.cmd.bank &&
               cmd.row == o.cmd.row && cmd.column == o.cmd.column &&
               tick == o.tick;
    }
};

/**
 * Command-hook observer on every queue of a System: a TimingChecker
 * built from each channel's own geometry, timings and clocks, a
 * command counter, and (optionally) the command trace.
 */
class Referee
{
  public:
    Referee(System &sys, bool check, bool capture)
    {
        for (std::uint32_t q = 0; q < sys.numControllers(); ++q) {
            Channel &ch = sys.controller(q).channel();
            TimingChecker *chk = nullptr;
            if (check) {
                checkers_.push_back(std::make_unique<TimingChecker>(
                    ch.geometry(), ch.timings(), ch.clocks()));
                chk = checkers_.back().get();
            }
            ch.setCommandHook([this, chk, capture, q](const DramCommand &cmd,
                                                      Tick now) {
                ++commands;
                if (capture)
                    trace.push_back({q, cmd, now});
                if (chk) {
                    const std::string err = chk->check(cmd, now);
                    if (!err.empty() && violations++ == 0) {
                        firstViolation = "queue " + std::to_string(q) +
                                         " tick " +
                                         std::to_string(now.count()) +
                                         ": " + err;
                    }
                }
            });
        }
    }
    Referee(const Referee &) = delete;
    Referee &operator=(const Referee &) = delete;

    std::uint64_t commands = 0;
    std::uint64_t violations = 0;
    std::string firstViolation;
    std::vector<TraceEntry> trace;

  private:
    std::vector<std::unique_ptr<TimingChecker>> checkers_;
};

/** Empty when equal; otherwise the first differing DRAM command. */
std::string
firstTraceDivergence(const std::vector<TraceEntry> &a,
                     const std::vector<TraceEntry> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] == b[i])
            continue;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "command %zu: event kernel %s queue %u tick %" PRIu64
                      ", reference kernel %s queue %u tick %" PRIu64,
                      i, dramCommandName(a[i].cmd.type), a[i].queue,
                      a[i].tick.count(), dramCommandName(b[i].cmd.type),
                      b[i].queue, b[i].tick.count());
        return buf;
    }
    if (a.size() != b.size()) {
        return "command counts differ: event " + std::to_string(a.size()) +
               ", reference " + std::to_string(b.size());
    }
    return "";
}

// ------------------------------------------------------------- workloads

struct WorkloadSpec
{
    const char *name;
    WorkloadId preset;
    bool tiered;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"ws_core", WorkloadId::WS, false},
    {"q6_ctrl", WorkloadId::TPCHQ6, false},
    {"ms_rw_tier", WorkloadId::MS, true},
    {"fig_sweep", WorkloadId::WS, false},
};

SimConfig
configFor(const WorkloadSpec &w, std::uint64_t warmup,
          std::uint64_t measure,
          SchedulerKind sched = SchedulerKind::FrFcfs)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.scheduler = sched;
    if (w.tiered) {
        cfg.tier.enabled = true;
        cfg.tier.policy = TierPolicy::HotnessBased;
    }
    cfg.warmupCoreCycles = warmup;
    cfg.measureCoreCycles = measure;
    return cfg;
}

WorkloadParams
presetFor(const WorkloadSpec &w, std::uint64_t seed)
{
    WorkloadParams p = workloadPreset(w.preset);
    if (seed)
        p.seed = seed;
    return p;
}

/**
 * Generator decorator: forwards every call and accumulates the host
 * time spent behind the generator seam.
 */
class TimedGenerator final : public WorkloadGenerator
{
  public:
    explicit TimedGenerator(WorkloadGenerator &inner) : inner_(inner) {}

    const char *name() const override { return inner_.name(); }

    Op
    nextOp(CoreId core) override
    {
        const auto t0 = Clock::now();
        const Op op = inner_.nextOp(core);
        ns += nsSince(t0);
        ++ops;
        return op;
    }

    bool
    tryNextOpLocal(CoreId core, Op &out) override
    {
        const auto t0 = Clock::now();
        const bool ok = inner_.tryNextOpLocal(core, out);
        ns += nsSince(t0);
        ++localTries;
        localHits += ok;
        return ok;
    }

    Addr
    nextFetchBlock(CoreId core) override
    {
        const auto t0 = Clock::now();
        const Addr a = inner_.nextFetchBlock(core);
        ns += nsSince(t0);
        ++fetches;
        return a;
    }

    std::uint64_t calls() const { return ops + localTries + fetches; }

    double ns = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t localTries = 0;
    std::uint64_t localHits = 0;
    std::uint64_t fetches = 0;

  private:
    static double
    nsSince(Clock::time_point t0)
    {
        return std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    }

    WorkloadGenerator &inner_;
};

/** One fixed-length simulation, advanced in fixed windows. */
struct PassResult
{
    MetricSet metrics;
    KernelStats kernel;
    double setupS = 0.0;
    double advanceS = 0.0;
    double wallS = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t dramCycles = 0;
    std::uint32_t queues = 0;
    std::uint32_t cores = 0;
    std::vector<double> windowMs;
    // Traced passes only.
    bool decorated = false;
    double genNs = 0.0;
    std::uint64_t genCalls = 0;
    std::uint64_t genLocalHits = 0;
    std::uint64_t genOpPulls = 0;
    std::uint64_t commands = 0;
    std::uint64_t loadStallCycles = 0;
    std::uint64_t fetchStallCycles = 0;
    std::uint64_t coreCycles = 0;
    std::uint64_t activates = 0;
    std::uint64_t cas = 0;
    std::uint64_t refreshes = 0;
};

/**
 * Build the workload's System and advance it through warm-up and
 * measurement in windows of sizes.window core cycles. With the tracer
 * on, non-IO presets run behind a TimedGenerator (the IO engine only
 * exists on the preset constructor) and every queue counts commands.
 */
PassResult
runPass(const WorkloadSpec &w, std::uint64_t seed, const Sizes &sz,
        std::uint64_t warmup, std::uint64_t measure, Tracer &tr)
{
    PassResult r;
    SpanScope pass(tr, "pass");
    const auto t0 = Clock::now();
    std::unique_ptr<SyntheticWorkload> gen;
    std::unique_ptr<TimedGenerator> timed;
    std::unique_ptr<System> sys;
    {
        SpanScope setup(tr, "setup");
        SimConfig cfg = configFor(w, warmup, measure);
        const WorkloadParams params = presetFor(w, seed);
        if (tr.enabled() && params.ioWindow == 0) {
            cfg.core.mlpWindow = params.mlpWindow;
            cfg.core.storeBufferEntries = params.storeBufferEntries;
            const std::uint64_t capacity =
                makeMemBackend(cfg, params.cores)->capacityBytes();
            gen = std::make_unique<SyntheticWorkload>(params, capacity);
            timed = std::make_unique<TimedGenerator>(*gen);
            sys = std::make_unique<System>(cfg, *timed, params.cores);
        } else {
            sys = std::make_unique<System>(cfg, params);
        }
    }
    r.setupS = secondsSince(t0);
    std::unique_ptr<Referee> counter;
    if (tr.enabled())
        counter = std::make_unique<Referee>(*sys, false, false);

    auto windows = [&](std::uint64_t cycles) {
        for (std::uint64_t done = 0; done < cycles; done += sz.window) {
            const std::uint64_t n = std::min(sz.window, cycles - done);
            SpanScope span(tr, "window");
            const double gen0 = timed ? timed->ns : 0.0;
            const auto tw = Clock::now();
            sys->advance(n);
            const double s = secondsSince(tw);
            r.advanceS += s;
            r.windowMs.push_back(s * 1e3);
            if (tr.enabled()) {
                const double genNs = timed ? timed->ns - gen0 : 0.0;
                span.args = "\"cycles\":" + std::to_string(n) +
                            ",\"gen_ns\":" + std::to_string(genNs) +
                            ",\"self_ns\":" +
                            std::to_string(s * 1e9 - genNs);
            }
        }
    };
    windows(warmup);
    sys->resetStats();
    windows(measure);
    r.metrics = sys->collect();
    r.wallS = secondsSince(t0);
    r.kernel = sys->kernelStats();
    r.cycles = warmup + measure;
    r.dramCycles = sys->now().count() / sys->clocks().ticksPerDram.count();
    r.queues = sys->numControllers();
    r.cores = sys->numCores();
    if (timed) {
        r.decorated = true;
        r.genNs = timed->ns;
        r.genCalls = timed->calls();
        r.genLocalHits = timed->localHits;
        r.genOpPulls = timed->localHits + timed->ops;
    }
    if (counter)
        r.commands = counter->commands;
    for (std::uint32_t c = 0; c < sys->numCores(); ++c) {
        const CoreStats &cs = sys->core(c).stats();
        r.loadStallCycles += cs.loadMissStallCycles;
        r.fetchStallCycles += cs.fetchStallCycles;
        r.coreCycles += cs.cycles;
    }
    for (std::uint32_t q = 0; q < sys->numControllers(); ++q) {
        const ChannelStats &cs = sys->controller(q).channel().stats();
        r.activates += cs.activates;
        r.cas += cs.reads + cs.writes;
        r.refreshes += cs.refreshes;
    }
    return r;
}

/** Referee totals over every checked simulation of a run. */
struct RefereeTally
{
    std::uint64_t commands = 0;
    std::uint64_t violations = 0;
};

/** System::run() with the referee on every queue. */
struct CheckedRun
{
    MetricSet metrics;
    std::vector<TraceEntry> trace;
};

CheckedRun
checkedRun(const SimConfig &cfg, const WorkloadParams &params,
           bool reference, bool capture, RefereeTally &tally, Gate &gate,
           const std::string &what)
{
    System sys(cfg, params);
    sys.useReferenceKernel(reference);
    Referee ref(sys, true, capture);
    CheckedRun r;
    r.metrics = sys.run();
    r.trace = std::move(ref.trace);
    tally.commands += ref.commands;
    tally.violations += ref.violations;
    gate.record(ref.violations == 0,
                what + ": " + std::to_string(ref.violations) +
                    " referee violations, first at " + ref.firstViolation);
    return r;
}

/** Event kernel vs reference kernel on a short window: metrics and
 *  command traces must agree exactly. */
void
kernelCheck(const WorkloadSpec &w, const WorkloadParams &params,
            const Sizes &sz, SchedulerKind sched, RefereeTally &tally,
            Gate &gate)
{
    const SimConfig cfg =
        configFor(w, sz.checkWarmup, sz.checkMeasure, sched);
    const std::string what = std::string(w.name) + "/" +
                             schedulerKindName(sched) + " check window";
    const CheckedRun ev = checkedRun(cfg, params, false, true, tally, gate,
                                     what + " (event)");
    const CheckedRun ref = checkedRun(cfg, params, true, true, tally, gate,
                                      what + " (reference)");
    const std::string div = firstTraceDivergence(ev.trace, ref.trace);
    gate.record(div.empty(), what + " command traces differ at " + div);
    gate.record(digestOf(ev.metrics) == digestOf(ref.metrics),
                what + ": event and reference MetricSets differ");
}

// ------------------------------------------------------------- layer probes

struct MissRecord
{
    CoreId core;
    Addr addr;
    bool isWrite;
};

struct CpuProbe
{
    double nsPerOp = 0.0;     ///< Generator calls (workload layer).
    double nsPerAccess = 0.0; ///< Hierarchy accesses (cpu layer).
    double missPerKAccess = 0.0;
    std::vector<MissRecord> misses;
};

/**
 * Standalone generator and cache-hierarchy probe. The preset's op
 * stream is drawn first (timed as the workload layer), then fed to a
 * fresh CacheHierarchy whose misses are answered at once (timed as
 * the cpu layer); the resulting miss and writeback stream feeds the
 * memory-side probe.
 */
CpuProbe
probeCpu(const SimConfig &cfg, const WorkloadParams &params,
         std::size_t accesses, Tracer &tr)
{
    SpanScope span(tr, "probe.cpu");
    CpuProbe out;
    enum class Kind : std::uint8_t { Load, Store, Fetch };
    struct Access
    {
        Kind kind;
        CoreId core;
        Addr addr;
    };
    const std::uint64_t capacity =
        makeMemBackend(cfg, params.cores)->capacityBytes();
    SyntheticWorkload gen(params, capacity);
    std::vector<Access> stream;
    stream.reserve(accesses + params.cores);
    std::vector<std::uint32_t> fetchCredit(params.cores, 0);
    std::uint64_t calls = 0;
    {
        SpanScope g(tr, "probe.workload");
        const auto t0 = Clock::now();
        for (CoreId c = 0; stream.size() < accesses;
             c = (c + 1) % params.cores) {
            if (fetchCredit[c] == 0) {
                stream.push_back({Kind::Fetch, c, gen.nextFetchBlock(c)});
                fetchCredit[c] = cfg.core.instrsPerFetchBlock;
                ++calls;
            }
            Op op;
            if (!gen.tryNextOpLocal(c, op)) {
                op = gen.nextOp(c);
                ++calls;
            }
            ++calls;
            const std::uint32_t instrs =
                op.kind == Op::Kind::Compute ? op.length : 1;
            fetchCredit[c] -= std::min(fetchCredit[c], instrs);
            if (op.kind != Op::Kind::Compute) {
                stream.push_back({op.kind == Op::Kind::Load ? Kind::Load
                                                            : Kind::Store,
                                  c, op.addr});
            }
        }
        out.nsPerOp = secondsSince(t0) * 1e9 / static_cast<double>(calls);
    }

    CacheHierarchy h(params.cores, cfg.hierarchy);
    std::vector<MissRecord> pending;
    h.setSendMemRead([&](CoreId c, Addr a) {
        out.misses.push_back({c, a, false});
        pending.push_back({c, a, false});
    });
    h.setSendMemWrite(
        [&](CoreId c, Addr a) { out.misses.push_back({c, a, true}); });
    h.setWake([](CoreId, MissKind) {});
    out.misses.reserve(accesses / 4);
    {
        SpanScope c(tr, "probe.cache");
        const auto t0 = Clock::now();
        for (const Access &a : stream) {
            switch (a.kind) {
              case Kind::Load: (void)h.load(a.core, a.addr); break;
              case Kind::Store: (void)h.store(a.core, a.addr); break;
              case Kind::Fetch: (void)h.ifetch(a.core, a.addr); break;
            }
            while (!pending.empty()) {
                const MissRecord m = pending.back();
                pending.pop_back();
                h.onMemResponse(m.core, m.addr);
            }
        }
        out.nsPerAccess =
            secondsSince(t0) * 1e9 / static_cast<double>(stream.size());
    }
    out.missPerKAccess = 1000.0 * static_cast<double>(out.misses.size()) /
                         static_cast<double>(stream.size());
    return out;
}

struct MemProbe
{
    double nsPerTick = 0.0;    ///< Inside MemController::tick only.
    double nsPerRequest = 0.0; ///< Whole replay per request.
    bool complete = false;
};

/**
 * Memory-side probe: makeMemBackend(cfg) replays the miss stream
 * through route -> queue(i).enqueue -> tick, keeping @p depth requests
 * outstanding. A queue ticks when it is due or has just received a
 * request, as in the event kernel.
 */
MemProbe
probeMem(const SimConfig &cfg, std::uint32_t cores,
         const std::vector<MissRecord> &misses, std::size_t depth)
{
    MemProbe out;
    auto be = makeMemBackend(cfg, cores);
    const std::uint32_t nq = be->numQueues();
    std::vector<std::unique_ptr<Request>> storage;
    std::vector<Request *> freeList;
    std::size_t outstanding = 0;
    std::size_t done = 0;
    for (std::uint32_t q = 0; q < nq; ++q) {
        be->queue(q).setCompletionCallback([&](Request *r, Tick) {
            freeList.push_back(r);
            --outstanding;
            ++done;
        });
    }
    const std::uint64_t perDram = cfg.clocks.ticksPerDram.count();
    std::vector<std::uint64_t> due(nq, 0);
    std::uint64_t now = 0;
    std::uint64_t ticks = 0;
    std::size_t next = 0;
    double tickNs = 0.0;
    // A stuck queue must not hang the benchmark.
    const std::uint64_t limit = now + perDram * (misses.size() + 1) * 4096;
    const auto t0 = Clock::now();
    while (done < misses.size() && now < limit) {
        const Tick tnow{now};
        while (outstanding < depth && next < misses.size()) {
            Request *r;
            if (freeList.empty()) {
                storage.push_back(std::make_unique<Request>());
                r = storage.back().get();
            } else {
                r = freeList.back();
                freeList.pop_back();
            }
            *r = Request{};
            r->id = next + 1;
            r->core = misses[next].core;
            r->addr = misses[next].addr;
            r->isWrite = misses[next].isWrite;
            be->route(*r, tnow);
            be->queue(r->coord.channel).enqueue(r, tnow);
            due[r->coord.channel] = now;
            ++outstanding;
            ++next;
        }
        std::uint64_t nextDue = UINT64_MAX;
        for (std::uint32_t q = 0; q < nq; ++q) {
            if (due[q] <= now) {
                const auto tt = Clock::now();
                due[q] = be->queue(q).tick(tnow).count();
                tickNs += std::chrono::duration<double, std::nano>(
                              Clock::now() - tt)
                              .count();
                ++ticks;
            }
            nextDue = std::min(nextDue, due[q]);
        }
        std::uint64_t step = perDram;
        if (outstanding >= depth || next >= misses.size()) {
            // Nothing arrives before the earliest due queue: skip to it.
            if (nextDue != UINT64_MAX && nextDue > now + perDram)
                step = (nextDue - now + perDram - 1) / perDram * perDram;
        }
        now += step;
    }
    const double ns = secondsSince(t0) * 1e9;
    out.complete = done == misses.size();
    out.nsPerTick = ticks ? tickNs / static_cast<double>(ticks) : 0.0;
    out.nsPerRequest =
        misses.empty() ? 0.0 : ns / static_cast<double>(misses.size());
    return out;
}

/** Host ns per MemBackend::route over the miss stream. */
double
probeRoute(const SimConfig &cfg, std::uint32_t cores,
           const std::vector<MissRecord> &misses)
{
    auto be = makeMemBackend(cfg, cores);
    const std::uint64_t perDram = cfg.clocks.ticksPerDram.count();
    Request r;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < misses.size(); ++i) {
        r = Request{};
        r.core = misses[i].core;
        r.addr = misses[i].addr;
        r.isWrite = misses[i].isWrite;
        be->route(r, Tick{i * perDram});
    }
    const double ns = secondsSince(t0) * 1e9;
    return misses.empty() ? 0.0 : ns / static_cast<double>(misses.size());
}

struct ExperimentProbe
{
    double simsRun = 0.0;
    double warmHits = 0.0;
    std::vector<double> cacheLoadS;
};

struct SweepRun
{
    std::vector<MetricSet> cold;
    std::vector<double> batchMs; ///< Per runAll batch of `workers` points.
    double setupS = 0.0;         ///< Runner construction on an empty cache.
    double coldS = 0.0;          ///< All cold batches.
};

/**
 * Cold runAll into a fresh cache at @p path, in batches of one point
 * per worker, then a warm reload that must hit every point and
 * reproduce each stored result.
 */
SweepRun
coldThenWarm(const std::vector<Point> &points, const std::string &path,
             unsigned workers, Gate &gate, ExperimentProbe &exp, Tracer &tr)
{
    std::filesystem::remove(path);
    SweepRun out;
    {
        const auto t0 = Clock::now();
        std::unique_ptr<ExperimentRunner> runner;
        {
            SpanScope s(tr, "sweep.setup");
            runner = std::make_unique<ExperimentRunner>(path);
        }
        out.setupS = secondsSince(t0);
        const auto tc = Clock::now();
        for (std::size_t i = 0; i < points.size(); i += workers) {
            const std::vector<Point> sub(
                points.begin() + static_cast<std::ptrdiff_t>(i),
                points.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(i + workers, points.size())));
            SpanScope s(tr, "sweep.batch");
            const auto tb = Clock::now();
            const auto res = runner->runAll(sub, workers);
            out.batchMs.push_back(secondsSince(tb) * 1e3);
            out.cold.insert(out.cold.end(), res.begin(), res.end());
        }
        out.coldS = secondsSince(tc);
        gate.record(runner->simulationsRun() == points.size(),
                    "cold sweep simulated " +
                        std::to_string(runner->simulationsRun()) + " of " +
                        std::to_string(points.size()) + " points");
        exp.simsRun = static_cast<double>(runner->simulationsRun());
    }
    {
        SpanScope s(tr, "sweep.warm_reload");
        const auto t0 = Clock::now();
        ExperimentRunner warm(path);
        exp.cacheLoadS.push_back(secondsSince(t0));
        const auto res = warm.runAll(points, workers);
        bool same = res.size() == out.cold.size();
        for (std::size_t i = 0; same && i < res.size(); ++i)
            same = reloadMatches(out.cold[i], res[i]);
        gate.record(warm.simulationsRun() == 0 &&
                        warm.cacheHits() == points.size() && same,
                    "warm reload missed or changed a point");
        exp.warmHits = static_cast<double>(warm.cacheHits());
    }
    std::filesystem::remove(path);
    return out;
}

// ------------------------------------------------------------- driver

/** The CloudSuite presets of the Figure 1-7 scheduler study. */
const std::vector<WorkloadId> kSweepPresets =
    workloadsInCategory(WorkloadCategory::ScaleOut);

static_assert(kPaperSchedulers[0] == SchedulerKind::FrFcfs &&
                  kPaperSchedulers[1] == SchedulerKind::FcfsBanks,
              "sweepIndex() callers name FR-FCFS 0 and FCFS-banks 1");

/** Index of (paper scheduler @p sched, preset @p wl) in sweepPoints(). */
std::size_t
sweepIndex(std::size_t sched, WorkloadId wl)
{
    const auto at = std::find(kSweepPresets.begin(), kSweepPresets.end(), wl);
    return sched * kSweepPresets.size() +
           static_cast<std::size_t>(at - kSweepPresets.begin());
}

/** Every paper scheduler on every CloudSuite preset, scheduler-major
 *  as the figure benches order it. */
std::vector<Point>
sweepPoints(const WorkloadSpec &w, const Sizes &sz)
{
    std::vector<Point> points;
    for (SchedulerKind s : kPaperSchedulers) {
        for (WorkloadId wl : kSweepPresets)
            points.emplace_back(
                wl, configFor(w, sz.pointWarmup, sz.pointMeasure, s));
    }
    return points;
}

std::string
workerPath(const Options &o, const char *tag)
{
    return o.workDir + "/" + o.workload + "-" + tag + "-" +
           std::to_string(::getpid()) + ".csv";
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
pct(double num, double den)
{
    return den > 0.0 ? 100.0 * num / den : 0.0;
}

/** Timed-loop samples shared by both workload kinds. */
struct Timed
{
    std::vector<double> mcyclesPerS; ///< Per repetition.
    std::vector<double> pointsPerS;  ///< Per repetition.
    std::vector<double> setupS;
    std::vector<double> windowMs;
    // Totals over the untraced repetitions.
    double cycles = 0.0; ///< Simulated core cycles.
    double points = 0.0; ///< Simulation points completed.
    double simS = 0.0;   ///< Host time simulating those cycles.
    double pointS = 0.0; ///< Host time completing those points.
    /** Controller ticks run in simS, for mem.ctl.est_host_pct. */
    std::uint64_t ctlTicks = 0;
};

/** Throughputs are total work over total host time; the per-repetition
 *  samples give their quartiles. */
void
addEndToEnd(Report &rep, const Timed &t, bool sweep)
{
    rep.add("sim_mcycles_per_s", "Mcycles/s", t.cycles / t.simS / 1e6,
            "simulated core cycles per host second", t.mcyclesPerS);
    const double beyond =
        std::floor(static_cast<double>(t.windowMs.size()) * 0.05);
    rep.add("window_ms_p50", "ms", quantile(t.windowMs, 0.5),
            sweep ? "host time per sweep batch (one point per worker)"
                  : "host time per advance() window",
            t.windowMs);
    rep.add("window_ms_p95", "ms", quantile(t.windowMs, 0.95),
            std::to_string(t.windowMs.size()) + " windows, " +
                std::to_string(static_cast<long>(beyond)) + " beyond p95");
    rep.add("sweep_points_per_s", "points/s", t.points / t.pointS,
            sweep ? "cold points through runAll on 2 workers"
                  : "single-thread points: set-up, warm-up, measure",
            t.pointsPerS);
    rep.add("setup_s", "s", median(t.setupS),
            "host time before the first simulated cycle, median", t.setupS);
    rep.add("peak_rss_mb", "MiB", peakRssMb(), "peak resident memory");
}

/** Per-layer metrics drawn from one traced pass and the probes. */
void
addLayerMetrics(Report &rep, const WorkloadSpec &w, const PassResult &p,
                const MetricSet &model, std::uint64_t seed,
                const Sizes &sz, double ctlNsPerTickScale, Tracer &tr,
                Gate &gate, double fcfsIpcPct)
{
    const double coreSlots = static_cast<double>(p.cycles) * p.cores;
    rep.add("sim.kernel.core_ticks_run_frac", "ratio",
            static_cast<double>(p.kernel.coreTicksRun) / coreSlots);
    rep.add("sim.kernel.cycles_batched_frac", "ratio",
            static_cast<double>(p.kernel.coreCyclesBatched) / coreSlots);
    rep.add("sim.kernel.batch_runs", "count",
            static_cast<double>(p.kernel.coreBatchRuns));
    rep.add("sim.kernel.ctl_ticks_run_frac", "ratio",
            static_cast<double>(p.kernel.ctlTicksRun) /
                (static_cast<double>(p.dramCycles) * p.queues));

    const char *io = p.decorated ? "" : "n/a: IO preset, no decorator";
    rep.add("workload.calls_per_kcycle", "calls/kcycle",
            static_cast<double>(p.genCalls) * 1000.0 /
                static_cast<double>(p.cycles),
            io);
    rep.add("workload.local_pull_pct", "%",
            pct(static_cast<double>(p.genLocalHits),
                static_cast<double>(p.genOpPulls)),
            io);
    rep.add("workload.host_pct", "%", pct(p.genNs, p.advanceS * 1e9),
            p.decorated ? "includes clock-read overhead" : io);

    const SimConfig cfg = configFor(w, sz.passWarmup, sz.passMeasure);
    const WorkloadParams params = presetFor(w, seed);
    const CpuProbe cpu = probeCpu(cfg, params, sz.probeAccesses, tr);
    rep.add("workload.ns_per_op", "ns", cpu.nsPerOp,
            "standalone generator loop");
    rep.add("cpu.ns_per_access", "ns", cpu.nsPerAccess,
            "standalone CacheHierarchy probe");
    rep.add("cpu.miss_per_kaccess", "count/kaccess", cpu.missPerKAccess);
    rep.add("cpu.load_stall_pct", "%",
            pct(static_cast<double>(p.loadStallCycles),
                static_cast<double>(p.coreCycles)));
    rep.add("cpu.fetch_stall_pct", "%",
            pct(static_cast<double>(p.fetchStallCycles),
                static_cast<double>(p.coreCycles)));

    std::vector<MissRecord> misses = cpu.misses;
    // Skip the cold-cache start: replay steady-state misses.
    if (misses.size() > sz.probeRequests) {
        misses.erase(misses.begin(),
                     misses.end() -
                         static_cast<std::ptrdiff_t>(sz.probeRequests));
    }
    const std::size_t depth = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(model.avgReadQueue + model.avgWriteQueue)));
    double frfcfsNsPerTick = 0.0;
    for (SchedulerKind s : kPaperSchedulers) {
        SimConfig c = cfg;
        c.scheduler = s;
        SpanScope span(tr, "probe.mem");
        span.args = std::string("\"scheduler\":\"") + schedulerKindName(s) +
                    "\"";
        const MemProbe mp = probeMem(c, params.cores, misses, depth);
        gate.record(mp.complete, std::string("memory probe under ") +
                                     schedulerKindName(s) +
                                     " did not drain");
        if (s == SchedulerKind::FrFcfs) {
            frfcfsNsPerTick = mp.nsPerTick;
            rep.add("mem.ctl.ns_per_tick", "ns", mp.nsPerTick,
                    "FR-FCFS, queue depth " + std::to_string(depth));
            rep.add("mem.ctl.ns_per_request", "ns", mp.nsPerRequest);
        } else {
            std::string n = schedulerKindName(s);
            std::transform(n.begin(), n.end(), n.begin(), [](char ch) {
                return std::isalnum(static_cast<unsigned char>(ch))
                           ? static_cast<char>(std::tolower(ch))
                           : '_';
            });
            rep.add("mem.ctl.ns_per_tick." + n, "ns", mp.nsPerTick);
        }
    }
    rep.add("mem.ctl.est_host_pct", "%",
            frfcfsNsPerTick * ctlNsPerTickScale * 100.0,
            "probe ns/tick x in-system controller ticks / timed wall");
    rep.add("mem.ctl.cmds_per_tick", "ratio",
            static_cast<double>(p.commands) /
                static_cast<double>(p.kernel.ctlTicksRun));
    rep.add("mem.ctl.read_queue_avg", "requests", model.avgReadQueue);
    rep.add("mem.ctl.write_queue_avg", "requests", model.avgWriteQueue);
    rep.add("mem.ctl.read_lat_p99_cycles", "cycles", model.readLatencyP99);
    {
        SpanScope span(tr, "probe.route");
        rep.add("mem.backend.ns_per_route", "ns",
                probeRoute(cfg, params.cores, misses));
    }
    rep.add("mem.backend.migrations", "count",
            static_cast<double>(model.tierMigrations));
    rep.add("mem.backend.fast_tier_hit_pct", "%", model.fastTierHitPct,
            w.tiered ? "" : "flat backend");
    rep.add("dram.cmds_per_kcycle", "cmds/kcycle",
            static_cast<double>(p.commands) * 1000.0 /
                static_cast<double>(p.cycles));
    rep.add("dram.cas_per_act", "ratio",
            p.activates ? static_cast<double>(p.cas) /
                              static_cast<double>(p.activates)
                        : 0.0);
    rep.add("dram.refreshes", "count", static_cast<double>(p.refreshes));

    rep.add("model.user_ipc", "IPC", model.userIpc);
    rep.add("model.row_hit_pct", "%", model.rowHitRatePct);
    rep.add("model.single_access_pct", "%", model.singleAccessPct,
            "paper: 77-90% of activations see a single access");
    rep.add("model.bw_util_pct", "%", model.bwUtilPct);
    rep.add("model.fcfs_vs_frfcfs_ipc_pct", "%", fcfsIpcPct,
            "FCFS-banks IPC vs FR-FCFS; paper: within 1% for most "
            "workloads");
}

int
runBenchmark(const Options &o)
{
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads) {
        if (o.workload == w.name)
            spec = &w;
    }
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
        return 2;
    }
    const Sizes sz = o.tiny ? tinySizes() : Sizes{};
    const bool sweep = o.workload == "fig_sweep";
    // fig_sweep runs the calibrated presets whatever the seed.
    const std::uint64_t seed = sweep ? 0 : o.seed;
    Tracer tr(o.workload + "-" + std::to_string(o.seed) + "-" +
              std::to_string(::getpid()));
    Gate gate;
    Report rep;

    std::printf("workload %s  seed %" PRIu64 "%s  seconds %.0f  trace %d%s\n",
                spec->name, o.seed,
                sweep ? " (ignored: calibrated presets)" : "", o.seconds,
                o.trace ? 1 : 0, o.tiny ? "  tiny" : "");
    std::printf("held-out seed for re-checking claims: %" PRIu64 "\n",
                kHeldOutSeed);

    // ---- untimed reference results
    const WorkloadParams params = presetFor(*spec, seed);
    RefereeTally referee;
    MetricSet reference; ///< What every timed pass must reproduce.
    double fcfsIpcPct = 0.0;
    std::vector<Point> points;
    if (sweep) {
        for (SchedulerKind s : kPaperSchedulers)
            kernelCheck(*spec, params, sz, s, referee, gate);
        points = sweepPoints(*spec, sz);
    } else {
        kernelCheck(*spec, params, sz, SchedulerKind::FrFcfs, referee, gate);
        reference = checkedRun(configFor(*spec, sz.passWarmup,
                                         sz.passMeasure),
                               params, false, false, referee, gate,
                               std::string(spec->name) + " System::run")
                        .metrics;
        if (o.trace) {
            const CheckedRun fcfs = checkedRun(
                configFor(*spec, sz.passWarmup, sz.passMeasure,
                          SchedulerKind::FcfsBanks),
                params, false, false, referee, gate,
                std::string(spec->name) + " FCFS-banks System::run");
            fcfsIpcPct =
                100.0 * (fcfs.metrics.userIpc / reference.userIpc - 1.0);
        }
    }

    // Extra set-ups timed after every repetition, so the set-up samples
    // spread over the whole run like the windows do.
    Timed t;
    auto timeSetups = [&]() {
        const std::size_t n =
            sweep ? sz.sweepSetupRepeats : sz.setupRepeats;
        const std::string path = workerPath(o, "setup");
        for (std::size_t i = 0; i < n; ++i) {
            if (sweep) {
                std::filesystem::remove(path);
                const auto t0 = Clock::now();
                ExperimentRunner runner(path);
                const std::vector<Point> pts = sweepPoints(*spec, sz);
                t.setupS.push_back(secondsSince(t0));
            } else {
                const auto t0 = Clock::now();
                System sys(configFor(*spec, sz.passWarmup, sz.passMeasure),
                           presetFor(*spec, seed));
                t.setupS.push_back(secondsSince(t0));
            }
        }
        std::filesystem::remove(path);
    };

    // ---- timed loop (untraced; with --trace 1 a traced half follows)
    ExperimentProbe exp;
    std::vector<MetricSet> firstSweep;
    PassResult lastPass;
    MetricSet lastResult; ///< The last timed repetition's result.
    std::size_t totalReps = 0;
    std::vector<double> untracedWindowMs;
    const int halves = o.trace ? 2 : 1;
    for (int half = 0; half < halves; ++half) {
        const bool traced = half == 1;
        tr.setEnabled(traced);
        if (traced) {
            untracedWindowMs = t.windowMs;
            t.windowMs.clear();
        }
        const double budget = o.seconds / halves;
        const auto start = Clock::now();
        std::size_t reps = 0;
        while (reps < 2 || secondsSince(start) < budget) {
            ++reps;
            ++totalReps;
            if (sweep) {
                const SweepRun run =
                    coldThenWarm(points, workerPath(o, "sweep"),
                                 sz.sweepWorkers, gate, exp, tr);
                const std::vector<MetricSet> &cold = run.cold;
                lastResult = cold[sweepIndex(0, WorkloadId::WS)];
                if (firstSweep.empty()) {
                    firstSweep = cold;
                } else {
                    bool same = cold.size() == firstSweep.size();
                    for (std::size_t i = 0; same && i < cold.size(); ++i)
                        same = digestOf(cold[i]) == digestOf(firstSweep[i]);
                    gate.record(same, "repeated cold sweep changed a point");
                }
                const double cycles = static_cast<double>(
                    points.size() * (sz.pointWarmup + sz.pointMeasure));
                t.mcyclesPerS.push_back(cycles / run.coldS / 1e6);
                t.pointsPerS.push_back(
                    static_cast<double>(points.size()) / run.coldS);
                t.setupS.push_back(run.setupS);
                t.windowMs.insert(t.windowMs.end(), run.batchMs.begin(),
                                  run.batchMs.end());
                if (!traced) {
                    t.cycles += cycles;
                    t.simS += run.coldS;
                    t.points += static_cast<double>(points.size());
                    t.pointS += run.coldS;
                }
            } else {
                PassResult p = runPass(*spec, seed, sz, sz.passWarmup,
                                       sz.passMeasure, tr);
                gate.record(digestOf(p.metrics) == digestOf(reference),
                            std::string(traced ? "traced" : "untraced") +
                                " chunked pass differs from System::run");
                t.mcyclesPerS.push_back(static_cast<double>(p.cycles) /
                                        p.advanceS / 1e6);
                t.pointsPerS.push_back(1.0 / p.wallS);
                t.setupS.push_back(p.setupS);
                t.windowMs.insert(t.windowMs.end(), p.windowMs.begin(),
                                  p.windowMs.end());
                if (!traced) {
                    t.cycles += static_cast<double>(p.cycles);
                    t.simS += p.advanceS;
                    t.points += 1.0;
                    t.pointS += p.wallS;
                    t.ctlTicks += p.kernel.ctlTicksRun;
                }
                lastResult = p.metrics;
                lastPass = std::move(p);
            }
            if (!traced)
                timeSetups();
        }
        if (!traced) {
            addEndToEnd(rep, t, sweep);
        }
    }

    if (sweep) {
        // The sweep's WS x FR-FCFS point must equal a chunked advance().
        const PassResult p = runPass(*spec, 0, sz, sz.pointWarmup,
                                     sz.pointMeasure, tr);
        reference = firstSweep[sweepIndex(0, WorkloadId::WS)];
        gate.record(digestOf(p.metrics) == digestOf(reference),
                    "chunked WS point differs from its runAll result");
        auto fcfsPct = [&](WorkloadId wl) {
            return 100.0 * (firstSweep[sweepIndex(1, wl)].userIpc /
                                firstSweep[sweepIndex(0, wl)].userIpc -
                            1.0);
        };
        fcfsIpcPct = fcfsPct(WorkloadId::WS);
        std::printf("fig_sweep FCFS-banks vs FR-FCFS user IPC:");
        for (WorkloadId wl : kSweepPresets)
            std::printf(" %s %+.2f%%", workloadAcronym(wl), fcfsPct(wl));
        std::printf("\n");
    }

    if (o.trace) {
        tr.setEnabled(true);
        // Layer pass: the single-run workload's own traced pass, or for
        // fig_sweep a traced ws-sized pass of its WS x FR-FCFS point.
        if (sweep) {
            Tracer off("");
            const PassResult untraced =
                runPass(*spec, 0, sz, sz.passWarmup, sz.passMeasure, off);
            lastPass = runPass(*spec, 0, sz, sz.passWarmup, sz.passMeasure,
                               tr);
            gate.record(digestOf(lastPass.metrics) ==
                            digestOf(untraced.metrics),
                        "traced WS pass differs from the untraced one");
            t.simS = untraced.advanceS;
            t.ctlTicks = untraced.kernel.ctlTicksRun;
        }
        const MetricSet &model = reference;
        if (!sweep) {
            // One calibrated-preset point of this workload through the
            // experiment layer, cold then warm.
            SpanScope s(tr, "probe.experiment");
            std::vector<Point> one{Point(
                spec->preset,
                configFor(*spec, sz.pointWarmup, sz.pointMeasure))};
            coldThenWarm(one, workerPath(o, "exp"), 1, gate, exp, tr);
        }
        const double ctlScale =
            static_cast<double>(t.ctlTicks) / (t.simS * 1e9);
        addLayerMetrics(rep, *spec, lastPass, model, seed, sz, ctlScale, tr,
                        gate, fcfsIpcPct);
        rep.add("dram.referee_violations", "count",
                static_cast<double>(referee.violations),
                std::to_string(referee.commands) + " commands checked");
        rep.add("sim.experiment.sims_run", "count", exp.simsRun);
        rep.add("sim.experiment.warm_hits", "count", exp.warmHits);
        rep.add("sim.experiment.cache_load_s", "s", median(exp.cacheLoadS),
                "", exp.cacheLoadS);
        const double overhead =
            100.0 * (median(t.windowMs) / median(untracedWindowMs) - 1.0);
        rep.add("trace.overhead_pct", "%", overhead,
                "traced vs untraced median window time");
        if (!tr.write(o.traceOut)) {
            gate.record(false, "cannot write trace " + o.traceOut);
        } else {
            std::printf("trace written: %s (%zu spans)\n",
                        o.traceOut.c_str(), tr.size());
        }
    }
    rep.add("ops_failed_frac", "ratio",
            gate.attempted ? static_cast<double>(gate.failed) /
                                 static_cast<double>(gate.attempted)
                           : 0.0,
            "failed / attempted simulations and checks");

    const MetricSet &m = reference;
    std::printf("repetitions %zu\n", totalReps);
    std::printf("metricset_digest %016" PRIx64 "\n", digestOf(lastResult));
    std::printf("model (simulated; unvalidated: the repository holds no "
                "hardware reference, so no error figure is given)\n");
    std::printf("  user_ipc %.4f  row_hit %.2f%%  single_access %.2f%% "
                "(paper 77-90%%)  bw_util %.2f%%  fcfs_vs_frfcfs_ipc "
                "%+.2f%% (paper: within 1%% for most workloads)\n",
                m.userIpc, m.rowHitRatePct, m.singleAccessPct, m.bwUtilPct,
                fcfsIpcPct);
    std::printf("referee: %" PRIu64 " violations in %" PRIu64
                " commands\n",
                referee.violations, referee.commands);
    rep.print();
    std::printf("PERF_RESULT {\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"metrics\":%s}\n",
                gate.attempted, gate.failed, rep.json().c_str());
    return 0;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::strtoull(value(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value(), nullptr);
        } else if (a == "--trace") {
            o.trace = std::strtol(value(), nullptr, 10) != 0;
        } else if (a == "--trace-out") {
            o.traceOut = value();
        } else if (a == "--work-dir") {
            o.workDir = value();
        } else if (a == "--tiny") {
            o.tiny = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
            return false;
        }
    }
    return !o.workload.empty() && o.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: cloudmc_perf --workload NAME [--seed N] "
                     "[--seconds S] [--trace 0|1] [--trace-out PATH] "
                     "[--work-dir DIR] [--tiny]\n");
        return 2;
    }
    std::printf("stamp: build %s  compiler %s  nproc %u\n",
                CLOUDMC_PERF_BUILD_TYPE, CLOUDMC_PERF_COMPILER,
                std::thread::hardware_concurrency());
    return runBenchmark(o);
}
