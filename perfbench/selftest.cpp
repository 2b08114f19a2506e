/**
 * @file
 * Self-tests of the benchmark's own arithmetic and instruments, run at
 * the start of every benchmark run (a failure counts as a failed
 * operation) and alone by `mapsbench --selftest`.
 */
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cache/policy_belady.hpp"
#include "layers.hpp"
#include "offline/oracle.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace mapsbench {

namespace {

using maps::operator""_KiB;
using maps::operator""_MiB;

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol;
}

/** Self time is the span minus the union of its children, clipped. */
bool
testSelfTimeArithmetic()
{
    const std::vector<SpanRecord> spans = {
        {Site::Rep, 0, 0, 100, 1, 0, 1},
        {Site::Setup, 0, 10, 30, 2, 1, 1},   // overlaps the next child
        {Site::Setup, 0, 20, 50, 3, 1, 1},
        {Site::Setup, 0, 90, 120, 4, 1, 1},  // runs past the parent
        {Site::Setup, 0, 25, 28, 5, 2, 1},   // grandchild of span 1
        {Site::Rep, 1, 0, 100, 1, 0, 2},     // other thread, no children
    };
    const auto self = selfTimes(spans);
    return self[0] == 100 - 40 - 10 && self[1] == 20 - 3 &&
           self[2] == 30 && self[3] == 30 && self[4] == 3 &&
           self[5] == 100;
}

/** The live tracer's self times agree with the span arithmetic. */
bool
testTracerSelfTimes()
{
    Tracer &tracer = Tracer::get();
    tracer.reset(1, 1000);
    volatile std::uint64_t sink = 0;
    const auto spin = [&sink](int n) {
        for (int i = 0; i < n; ++i)
            sink = sink + static_cast<std::uint64_t>(i);
    };
    {
        const Span rep(Site::Rep);
        spin(2000);
        for (int k = 0; k < 3; ++k) {
            const Span batch(Site::AccessBatch);
            spin(1000);
            const Span req(Site::SecmemRead);
            spin(500);
            const Span mem(Site::MemAccess);
            spin(200);
        }
    }
    const ThreadTrace &t = *tracer.threads().front();
    const auto self = selfTimes(t.spans);
    std::vector<std::uint64_t> by_site(kSites, 0);
    for (std::size_t i = 0; i < t.spans.size(); ++i)
        by_site[static_cast<unsigned>(t.spans[i].site)] += self[i];
    bool ok = t.spans.size() == 10 && t.stack.empty();
    for (unsigned s = 0; s < kSites; ++s)
        ok = ok && by_site[s] == t.sites[s].selfNs;
    // Spans of one batch share its id; the root has its own.
    ok = ok && t.spans.back().site == Site::Rep;
    for (std::size_t i = 0; i + 1 < t.spans.size(); i += 3)
        ok = ok && t.spans[i].id == t.spans[i + 2].id &&
             t.spans[i].id != t.spans.back().id;
    tracer.reset(64, 0);
    return ok;
}

/** Tail percentile: the highest with at least ten samples beyond. */
bool
testPercentileRule()
{
    bool ok = tailPercentile(99) == 0.0 && tailPercentile(100) == 90.0 &&
              tailPercentile(999) == 90.0 && tailPercentile(1000) == 99.0 &&
              tailPercentile(10'000) == 99.9 &&
              tailPercentile(100'000) == 99.99 &&
              tailPercentile(50'000'000) == 99.99;
    Histogram small;
    for (std::uint64_t v = 1; v <= 60; ++v)
        small.add(v);
    ok = ok && small.quantile(0.5) == 30.0 && small.quantile(1.0) == 60.0;
    Histogram big;
    for (std::uint64_t v = 1; v <= 100'000; ++v)
        big.add(v);
    for (const double q : {0.5, 0.9, 0.99, 0.999})
        ok = ok && std::fabs(big.quantile(q) - q * 100'000) <=
                       q * 100'000 / 32.0;
    return ok && big.count() == 100'000;
}

/** Runner schedule figures on a hand-made two-worker schedule. */
bool
testScheduleStats()
{
    const std::vector<CellTiming> cells = {
        {0, 0.0, 4.0}, {1, 0.0, 6.0}, {0, 4.0, 10.0}};
    const ScheduleStats two = scheduleStats(cells, 0.0, 10.0, 2);
    const ScheduleStats three = scheduleStats(cells, 0.0, 10.0, 3);
    return near(two.busy, 16.0) && near(two.idleFrac, 0.2) &&
           near(two.tail, 4.0) && near(two.queueWait, 4.0) &&
           near(two.longest, 6.0) && near(three.idleFrac, 1.0 - 16.0 / 30.0) &&
           near(three.tail, 10.0);
}

maps::SimConfig
smallConfig(const std::string &benchmark)
{
    maps::SimConfig cfg;
    cfg.benchmark = benchmark;
    cfg.seed = 5;
    cfg.warmupRefs = 20'000;
    cfg.measureRefs = 60'000;
    cfg.secure.layout.protectedBytes = 256_MiB;
    cfg.secure.cache.sizeBytes = 16_KiB;
    return cfg;
}

/**
 * Decorator transparency: the timed policy and memory wrappers (and
 * the traced pipeline built from them) leave every statistic as the
 * unwrapped SecureMemorySim produces it.
 */
bool
testDecoratorTransparency()
{
    bool ok = true;
    for (const char *benchmark : {"canneal", "libquantum"}) {
        const auto cfg = smallConfig(benchmark);
        for (const char *policy : {"plru", "lru"}) {
            const auto plain =
                maps::SecureMemorySim(cfg, maps::makeReplacementPolicy(policy))
                    .run();
            const auto wrapped =
                maps::SecureMemorySim(cfg,
                                      std::make_unique<TimedPolicy>(
                                          maps::makeReplacementPolicy(policy)))
                    .run();
            const auto piped =
                PipelineSim(cfg, maps::makeReplacementPolicy(policy)).run();
            ok = ok && digestReport(plain) == digestReport(wrapped) &&
                 digestReport(plain) == digestReport(piped) &&
                 plain.refs == cfg.measureRefs;
        }
        // The metadata tap sees the same stream, warmup included.
        std::vector<maps::Addr> a, b;
        maps::SecureMemorySim sim(cfg);
        sim.setMetadataTap([&a](const maps::MetadataAccess &m) {
            a.push_back(m.addr);
        }, true);
        sim.run();
        PipelineSim pipe(cfg, nullptr);
        pipe.setMetadataTap([&b](const maps::MetadataAccess &m) {
            b.push_back(m.addr);
        }, true);
        pipe.run();
        ok = ok && !a.empty() && a == b;

        // Belady reads the per-set line view, which the wrapper must
        // keep asking the cache for.
        maps::TraceOracle plain_oracle(a), wrapped_oracle(a);
        const auto plain_min =
            maps::SecureMemorySim(
                cfg, std::make_unique<maps::BeladyPolicy>(plain_oracle))
                .run();
        const auto wrapped_min =
            maps::SecureMemorySim(
                cfg, std::make_unique<TimedPolicy>(
                         std::make_unique<maps::BeladyPolicy>(wrapped_oracle)))
                .run();
        ok = ok && digestReport(plain_min) == digestReport(wrapped_min);
    }
    return ok;
}

} // namespace

std::vector<std::pair<std::string, bool>>
runSelfTests()
{
    const std::vector<std::pair<std::string, std::function<bool()>>> tests = {
        {"self_time_arithmetic", testSelfTimeArithmetic},
        {"tracer_self_times", testTracerSelfTimes},
        {"percentile_rule", testPercentileRule},
        {"schedule_stats", testScheduleStats},
        {"decorator_transparency", testDecoratorTransparency},
    };
    std::vector<std::pair<std::string, bool>> out;
    for (const auto &[name, fn] : tests)
        out.emplace_back(name, fn());
    return out;
}

} // namespace mapsbench
