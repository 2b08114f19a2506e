/**
 * @file
 * The traced simulation pipeline: the benchmark's own composition of
 * the public maps parts, with a span at every layer boundary.
 *
 *   AccessGenerator::nextBatch -> CacheHierarchy::accessBatch
 *     -> request sink -> SecureMemoryController::handleRequest
 *          -> TimedMemory (around DramModel)
 *          -> TimedPolicy (around the metadata-cache policy)
 *
 * PipelineSim mirrors SecureMemorySim::run for the configurations the
 * workloads use (banked DRAM, secure memory on, batched loop, no
 * sampling); its counters must equal SecureMemorySim's for the same
 * config, which every traced run checks.
 */
#ifndef MAPSBENCH_LAYERS_HPP
#define MAPSBENCH_LAYERS_HPP

#include <memory>
#include <vector>

#include "core/simulator.hpp"
#include "tracing.hpp"

namespace mapsbench {

/** Times victim() of the wrapped policy; forwards everything else. */
class TimedPolicy : public maps::ReplacementPolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<maps::ReplacementPolicy> inner);

    void init(std::uint32_t sets, std::uint32_t ways) override
    {
        inner_->init(sets, ways);
    }
    void touch(std::uint32_t set, std::uint32_t way,
               const maps::ReplContext &ctx) override
    {
        inner_->touch(set, way, ctx);
    }
    void insert(std::uint32_t set, std::uint32_t way,
                const maps::ReplContext &ctx) override
    {
        inner_->insert(set, way, ctx);
    }
    std::uint32_t victim(std::uint32_t set, const maps::ReplLineInfo *lines,
                         std::uint64_t allowed_mask,
                         const maps::ReplContext &ctx) override
    {
        const Span span(victimSite_);
        return inner_->victim(set, lines, allowed_mask, ctx);
    }
    bool victimReadsLineInfo() const override
    {
        return inner_->victimReadsLineInfo();
    }
    void invalidate(std::uint32_t set, std::uint32_t way) override
    {
        inner_->invalidate(set, way);
    }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<maps::ReplacementPolicy> inner_;
    Site victimSite_;
};

/** Times access() of the wrapped memory model. */
class TimedMemory : public maps::MemoryModel
{
  public:
    explicit TimedMemory(maps::MemoryModel &inner) : inner_(inner) {}

    maps::MemAccessResult access(maps::Addr addr, bool write,
                                 maps::Cycles now) override
    {
        const Span span(Site::MemAccess);
        return inner_.access(addr, write, now);
    }
    const maps::MemoryStats &stats() const override
    {
        return inner_.stats();
    }
    maps::MemoryStats &statsMut() override { return inner_.statsMut(); }
    std::string name() const override { return inner_.name(); }

  private:
    maps::MemoryModel &inner_;
};

/** The traced counterpart of SecureMemorySim (see file comment). */
class PipelineSim
{
  public:
    /** @param md_policy metadata-cache policy; nullptr = the config's. */
    PipelineSim(maps::SimConfig cfg,
                std::unique_ptr<maps::ReplacementPolicy> md_policy);

    /** Same contract as SecureMemorySim::setMetadataTap. */
    void setMetadataTap(maps::SecureMemoryController::MetadataTap tap,
                        bool include_warmup);

    /** Warmup + measurement; fills the counter fields of the report. */
    maps::RunReport run();

    /** Measure-window value of a registry counter. */
    std::uint64_t measured(std::string_view name) const
    {
        return registry_.measure(name);
    }

  private:
    maps::SimConfig cfg_;
    maps::Arena arena_;
    std::unique_ptr<maps::AccessGenerator> generator_;
    maps::DramModel dram_;
    TimedMemory memory_{dram_};
    std::unique_ptr<maps::SecureMemoryController> controller_;
    std::unique_ptr<maps::CacheHierarchy> hierarchy_;
    maps::metrics::Registry registry_;
    std::vector<maps::MemRef> batch_;
    maps::Cycles cycles_ = 0;
    bool measuring_ = false;
    maps::SecureMemoryController::MetadataTap userTap_;
    bool tapIncludeWarmup_ = false;

    void serviceRequest(const maps::MemoryRequest &req);
    void stream(std::uint64_t refs, maps::Cycles *core_cycles);
};

} // namespace mapsbench

#endif // MAPSBENCH_LAYERS_HPP
