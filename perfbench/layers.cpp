#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "metrics/derived.hpp"

namespace mapsbench {

using namespace maps;

namespace {

Site
victimSiteOf(const std::string &policy)
{
    if (policy == "min")
        return Site::VictimMin;
    if (policy == "lru")
        return Site::VictimLru;
    return Site::VictimOther;
}

} // namespace

TimedPolicy::TimedPolicy(std::unique_ptr<ReplacementPolicy> inner)
    : inner_(std::move(inner)), victimSite_(victimSiteOf(inner_->name()))
{
}

PipelineSim::PipelineSim(SimConfig cfg,
                         std::unique_ptr<ReplacementPolicy> md_policy)
    : cfg_(std::move(cfg))
{
    if (!cfg_.useDram || !cfg_.secureEnabled || cfg_.sample.enabled ||
        cfg_.skipRefs != 0 || cfg_.batchRefs <= 1)
        throw std::invalid_argument(
            "PipelineSim: configuration outside the traced pipeline");
    generator_ = makeBenchmark(cfg_.benchmark, cfg_.seed);
    if (!md_policy)
        md_policy = makeReplacementPolicy(cfg_.secure.cache.policy,
                                          cfg_.secure.cache.seed);
    controller_ = std::make_unique<SecureMemoryController>(
        cfg_.secure, memory_,
        std::make_unique<TimedPolicy>(std::move(md_policy)), &arena_);
    hierarchy_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy, &arena_);
    hierarchy_->setRequestSink(
        [this](const MemoryRequest &req) { serviceRequest(req); });
    // Same registration order as SecureMemorySim.
    hierarchy_->attachMetrics(registry_);
    registry_.attach(memory_.name(), memory_.statsMut());
    controller_->attachMetrics(registry_);
}

void
PipelineSim::setMetadataTap(SecureMemoryController::MetadataTap tap,
                            bool include_warmup)
{
    userTap_ = std::move(tap);
    tapIncludeWarmup_ = include_warmup;
    controller_->setMetadataTap([this](const MetadataAccess &acc) {
        if (measuring_ || tapIncludeWarmup_)
            userTap_(acc);
    });
}

void
PipelineSim::serviceRequest(const MemoryRequest &req)
{
    const Span span(req.isWrite() ? Site::SecmemWrite : Site::SecmemRead);
    const RequestOutcome outcome = controller_->handleRequest(req, cycles_);
    // Reads stall the core; posted writes do not.
    if (req.kind == RequestKind::Read)
        cycles_ += outcome.latency;
}

void
PipelineSim::stream(std::uint64_t refs, Cycles *core_cycles)
{
    // SecureMemorySim clamps its batch to the 32k heartbeat cadence.
    const std::uint64_t batch =
        std::min<std::uint64_t>(cfg_.batchRefs, 32 * 1024);
    batch_.resize(batch);
    for (std::uint64_t i = 0; i < refs;) {
        const std::uint64_t n = std::min(batch, refs - i);
        {
            const Span span(Site::NextBatch);
            generator_->nextBatch(batch_.data(), n);
        }
        {
            const Span span(Site::AccessBatch);
            hierarchy_->accessBatch(batch_.data(), n, core_cycles);
        }
        i += n;
    }
}

RunReport
PipelineSim::run()
{
    measuring_ = false;
    stream(cfg_.warmupRefs, nullptr);
    registry_.beginPhase(metrics::Phase::Measure);
    cycles_ = 0;
    measuring_ = true;
    stream(cfg_.measureRefs, &cycles_);
    measuring_ = false;

    RunReport report;
    report.benchmark = cfg_.benchmark;
    report.hierarchy = registry_.measureView("hierarchy", hierarchy_->stats());
    report.instructions = report.hierarchy.instructions;
    report.refs = report.hierarchy.refs;
    report.memory = registry_.measureView(memory_.name(), memory_.stats());
    report.llcMpki = report.hierarchy.llcMpki();
    report.controller =
        registry_.measureView("secmem", controller_->stats());
    report.mdCache = registry_.measureView(
        "secmem.mdcache", controller_->metadataCache().stats());
    report.metadataMpki = report.mdCache.mpki(report.instructions);
    report.memAccessesPerRequest = metrics::ratioOrZero(
        report.controller.totalMemAccesses(), report.controller.requests());
    report.cycles = cycles_;
    return report;
}

} // namespace mapsbench
