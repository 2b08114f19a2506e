#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <functional>
#include <limits>
#include <thread>
#include <unordered_map>

#include "core/estimator.hpp"
#include "core/runner.hpp"
#include "layers.hpp"
#include "metrics/derived.hpp"
#include "offline/csopt.hpp"
#include "offline/itermin.hpp"
#include "secmem/layout.hpp"

namespace mapsbench {

using namespace maps;

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    for (const unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
}

namespace {

template <typename S>
void
addCounters(Digest &d, S stats)
{
    forEachCounter(stats, [&](std::string_view, std::uint64_t &v) {
        d.add(v);
    });
}

} // namespace

std::uint64_t
digestReport(const RunReport &r)
{
    Digest d;
    d.add(r.refs);
    d.add(r.instructions);
    addCounters(d, r.hierarchy);
    addCounters(d, r.controller);
    addCounters(d, r.mdCache);
    addCounters(d, r.memory);
    d.add(static_cast<std::uint64_t>(r.cycles));
    d.add(r.llcMpki);
    d.add(r.metadataMpki);
    d.add(r.memAccessesPerRequest);
    d.add(static_cast<std::uint64_t>(r.estimator.enabled));
    d.add(r.estimator.tier);
    for (const auto &b : r.estimator.bounds) {
        d.add(b.name);
        d.add(b.estimate);
        d.add(b.tolerance);
    }
    d.add(static_cast<std::uint64_t>(r.sampling.enabled));
    d.add(r.sampling.simulatedRefs);
    for (const auto &b : r.sampling.bounds) {
        d.add(b.name);
        d.add(b.estimate);
        d.add(b.bound);
    }
    return d.value();
}

double
exactValueOf(const RunReport &r, const std::string &name)
{
    if (name == "hierarchy.llc.misses")
        return static_cast<double>(r.hierarchy.llcMisses);
    if (name == "derived.llc.mpki")
        return r.llcMpki;
    if (name == "derived.metadata.mpki")
        return r.metadataMpki;
    if (name == "derived.mem.accesses_per_request")
        return r.memAccessesPerRequest;
    if (name == "derived.cycles")
        return static_cast<double>(r.cycles);
    if (name == "derived.ed2")
        return r.ed2;
    if (name == "secmem.mem.metadata_accesses") {
        // Counter, hash and tree traffic (categories 1..3).
        double acc = 0.0;
        for (unsigned c = 1; c <= 3; ++c)
            acc += static_cast<double>(r.controller.memReads[c] +
                                       r.controller.memWrites[c]);
        return acc;
    }
    if (name.size() > 9 &&
        name.compare(name.size() - 9, 9, ".accesses") == 0)
        return static_cast<double>(r.memory.accesses());
    return std::numeric_limits<double>::quiet_NaN();
}

std::map<std::string, double>
exactValues(const RunReport &r)
{
    std::map<std::string, double> out;
    for (const char *name :
         {"hierarchy.llc.misses", "derived.llc.mpki",
          "derived.metadata.mpki", "derived.mem.accesses_per_request",
          "derived.cycles", "derived.ed2", "secmem.mem.metadata_accesses",
          "dram.accesses"})
        out[name] = exactValueOf(r, name);
    return out;
}

void
SimCounts::merge(const SimCounts &o)
{
    refs += o.refs;
    llcRequests += o.llcRequests;
    llcMisses += o.llcMisses;
    llcLookups += o.llcLookups;
    mdHits += o.mdHits;
    mdLookups += o.mdLookups;
    memPerReqNum += o.memPerReqNum;
    requests += o.requests;
    dramAccesses += o.dramAccesses;
    rowHits += o.rowHits;
}

void
LayerCounts::merge(const LayerCounts &o)
{
    simRuns += o.simRuns;
    csoptStates += o.csoptStates;
    estCalls += o.estCalls;
    estAnalytic += o.estAnalytic;
    profiledRefs += o.profiledRefs;
    anchorRefs += o.anchorRefs;
    sampledRuns += o.sampledRuns;
    sampledSimRefs += o.sampledSimRefs;
    sampledFullRefs += o.sampledFullRefs;
    boundMisses += o.boundMisses;
    errMaxPct = std::max(errMaxPct, o.errMaxPct);
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

namespace {

double
seconds(std::uint64_t ns)
{
    return 1e-9 * static_cast<double>(ns);
}

/**
 * The figure drivers' Table I operating point: 256 MiB protected,
 * banked DRAM, reference counts at the given driver scale.
 */
SimConfig
tableIConfig(const std::string &benchmark, std::uint64_t seed,
             double scale, std::uint64_t measure_base,
             std::uint64_t warmup_base)
{
    const auto refs = [scale](std::uint64_t base) {
        const auto scaled = static_cast<std::uint64_t>(
            static_cast<double>(base) * scale);
        return std::max<std::uint64_t>(scaled, 10'000);
    };
    SimConfig cfg;
    cfg.benchmark = benchmark;
    cfg.seed = seed;
    cfg.warmupRefs = refs(warmup_base);
    cfg.measureRefs = refs(measure_base);
    cfg.secure.layout.protectedBytes = 256_MiB;
    cfg.useDram = true;
    return cfg;
}

/** A finished simulation and what it cost to set up. */
struct SimRun
{
    RunReport report;
    double setupS = 0.0;
};

/**
 * One exact simulation: through SecureMemorySim when untraced, through
 * the traced PipelineSim otherwise (adding its counts to @p counts).
 */
SimRun
simulate(const SimConfig &cfg, std::unique_ptr<ReplacementPolicy> policy,
         bool traced, SimCounts *counts,
         SecureMemoryController::MetadataTap tap = {},
         bool tap_warmup = false)
{
    SimRun out;
    if (!traced) {
        const std::uint64_t t0 = nowNs();
        SecureMemorySim sim(cfg, std::move(policy));
        out.setupS = seconds(nowNs() - t0);
        if (tap)
            sim.setMetadataTap(std::move(tap), tap_warmup);
        out.report = sim.run();
        return out;
    }
    const std::uint64_t t0 = nowNs();
    std::unique_ptr<PipelineSim> sim;
    {
        const Span span(Site::Setup);
        sim = std::make_unique<PipelineSim>(cfg, std::move(policy));
    }
    out.setupS = seconds(nowNs() - t0);
    if (tap)
        sim->setMetadataTap(std::move(tap), tap_warmup);
    out.report = sim->run();
    if (counts) {
        const RunReport &r = out.report;
        SimCounts c;
        c.refs = static_cast<double>(cfg.warmupRefs + cfg.measureRefs);
        c.llcRequests = static_cast<double>(r.hierarchy.llcMisses +
                                            r.hierarchy.llcWritebacks);
        c.llcMisses = static_cast<double>(sim->measured("llc.misses"));
        c.llcLookups = c.llcMisses +
                       static_cast<double>(sim->measured("llc.hits"));
        for (unsigned t = 0; t < kNumMetadataTypes; ++t) {
            c.mdHits += static_cast<double>(r.mdCache.hits[t]);
            c.mdLookups += static_cast<double>(r.mdCache.accesses[t] -
                                               r.mdCache.bypasses[t]);
        }
        c.memPerReqNum =
            static_cast<double>(r.controller.totalMemAccesses());
        c.requests = static_cast<double>(r.controller.requests());
        c.dramAccesses = static_cast<double>(r.memory.accesses());
        c.rowHits = static_cast<double>(r.memory.rowHits);
        counts->merge(c);
    }
    return out;
}

/** Invariants every exact run satisfies. */
std::string
checkExactRun(const SimConfig &cfg, const RunReport &r)
{
    if (r.refs != cfg.measureRefs)
        return "measured refs " + std::to_string(r.refs) + " != " +
               std::to_string(cfg.measureRefs);
    if (r.controller.requests() !=
        r.hierarchy.llcMisses + r.hierarchy.llcWritebacks)
        return "controller requests != LLC misses + writebacks";
    return {};
}

/** Measures one repetition's wall and CPU time. */
class RepClock
{
  public:
    RepClock() : wall0_(nowNs()), cpu0_(processCpuSeconds()) {}
    void stop(RepResult &r) const
    {
        r.wallS = seconds(nowNs() - wall0_);
        r.cpuS = processCpuSeconds() - cpu0_;
    }

  private:
    std::uint64_t wall0_;
    double cpu0_;
};

// ---------------------------------------------------------------------------
// sim_read / sim_write
// ---------------------------------------------------------------------------

class SimSeries : public Workload
{
  public:
    SimSeries(std::vector<std::string> benchmarks, std::uint64_t seed)
    {
        for (const auto &b : benchmarks)
            configs_.push_back(tableIConfig(b, seed, 1.0, 800'000, 250'000));
    }

    RepResult rep(bool traced, bool) override
    {
        RepResult r;
        std::vector<SimRun> runs;
        const RepClock clock;
        {
            const Span span(Site::Rep);
            for (const auto &cfg : configs_)
                runs.push_back(simulate(cfg, nullptr, traced, &r.sim));
        }
        clock.stop(r);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const SimConfig &cfg = configs_[i];
            r.setupS += runs[i].setupS;
            r.refs += static_cast<double>(cfg.warmupRefs + cfg.measureRefs);
            r.ops.push_back({cfg.benchmark, digestReport(runs[i].report),
                             checkExactRun(cfg, runs[i].report)});
        }
        return r;
    }

  private:
    std::vector<SimConfig> configs_;
};

// ---------------------------------------------------------------------------
// policy_grid
// ---------------------------------------------------------------------------

/** The drivers' --quick sweep size. */
constexpr double kGridScale = 0.25;

/** What one cell leaves behind for the repetition. */
struct CellSlot
{
    OpResult op;
    double setupS = 0.0;
    double refs = 0.0;
    SimCounts sim;
    LayerCounts layer;
    CellTiming timing;
    std::thread::id thread;
};

/** abl_csopt's realized cost of LRU or MIN on a fixed trace. */
std::uint64_t
fixedTraceCost(const std::vector<CsOptAccess> &trace, std::uint32_t sets,
               std::uint32_t ways, bool use_min)
{
    std::vector<std::vector<CsOptAccess>> per_set(sets);
    for (const auto &acc : trace)
        per_set[blockIndex(acc.block) % sets].push_back(acc);
    std::uint64_t total = 0;
    for (const auto &t : per_set) {
        if (use_min) {
            std::vector<std::uint64_t> next_use(t.size());
            std::unordered_map<Addr, std::uint64_t> upcoming;
            for (std::size_t i = t.size(); i-- > 0;) {
                const auto it = upcoming.find(t[i].block);
                next_use[i] = it == upcoming.end() ? ~std::uint64_t{0}
                                                   : it->second;
                upcoming[t[i].block] = i;
            }
            std::unordered_map<Addr, std::uint64_t> resident;
            for (std::size_t i = 0; i < t.size(); ++i) {
                const auto it = resident.find(t[i].block);
                if (it != resident.end()) {
                    it->second = next_use[i];
                    continue;
                }
                total += t[i].missCost;
                if (resident.size() >= ways) {
                    auto victim = resident.begin();
                    for (auto c = resident.begin(); c != resident.end(); ++c)
                        if (c->second > victim->second)
                            victim = c;
                    resident.erase(victim);
                }
                resident.emplace(t[i].block, next_use[i]);
            }
        } else {
            std::vector<Addr> order; // MRU at back
            for (const auto &acc : t) {
                const auto pos =
                    std::find(order.begin(), order.end(), acc.block);
                if (pos != order.end()) {
                    order.erase(pos);
                    order.push_back(acc.block);
                    continue;
                }
                total += acc.missCost;
                if (order.size() >= ways)
                    order.erase(order.begin());
                order.push_back(acc.block);
            }
        }
    }
    return total;
}

class PolicyGrid : public Workload
{
  public:
    PolicyGrid(std::uint64_t seed, unsigned jobs) : seed_(seed), jobs_(jobs) {}

    RepResult rep(bool traced, bool check_order) override
    {
        const std::vector<std::string> fig6{"canneal",    "cactusADM", "fft",
                                            "leslie3d",   "libquantum",
                                            "mcf",        "barnes"};
        const std::vector<std::string> csopt{"perl", "gcc", "libquantum",
                                             "canneal"};
        const unsigned jobs = !check_order ? jobs_ : jobs_ > 3 ? jobs_ / 2 : 1;
        Tracer::get().setWorkerWeight(1.0 / jobs);

        // One ExperimentRunner::run over both grids, each in its
        // declaration order, abl_csopt's cells first. CSOPT's work
        // depends on the seed's trace (3.96-7.01 M expanded states over
        // seeds 1-10); started first, its canneal cell ends while
        // fig6's canneal cell, the longest, still runs, so the seed
        // moves cpu_s but not wall_s.
        std::vector<CellSlot> slots(csopt.size() + fig6.size());
        std::vector<runner::Cell> cells;
        for (std::size_t i = 0; i < csopt.size(); ++i)
            cells.push_back(makeCell("abl_csopt/" + csopt[i], slots[i], traced,
                                     [=, this](CellSlot &s) {
                                         csoptCell(csopt[i], traced, s);
                                     }));
        for (std::size_t i = 0; i < fig6.size(); ++i)
            cells.push_back(makeCell("fig6/" + fig6[i],
                                     slots[csopt.size() + i], traced,
                                     [=, this](CellSlot &s) {
                                         fig6Cell(fig6[i], traced, s);
                                     }));
        if (check_order)
            std::reverse(cells.begin(), cells.end());

        RepResult r;
        std::vector<std::string> failures;
        runner::Options opts;
        opts.seed = seed_;
        opts.jobs = jobs;
        opts.progress = false;
        RunnerPhase phase;
        phase.workers =
            static_cast<unsigned>(std::min<std::size_t>(jobs, cells.size()));
        const RepClock clock;
        {
            const Span span(Site::Rep);
            phase.start = seconds(nowNs());
            runner::ExperimentRunner runner(opts);
            {
                const Span run_span(Site::RunnerRun);
                runner.run(cells);
            }
            phase.end = seconds(nowNs());
            for (const auto &f : runner.failures())
                failures.push_back(f.id + ": " + f.error);
        }
        clock.stop(r);

        // Dense worker indices, in order of first start.
        std::vector<std::size_t> order(slots.size());
        for (std::size_t k = 0; k < order.size(); ++k)
            order[k] = k;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return slots[a].timing.start < slots[b].timing.start;
                  });
        std::vector<std::thread::id> seen;
        for (const std::size_t k : order) {
            auto it = std::find(seen.begin(), seen.end(), slots[k].thread);
            if (it == seen.end()) {
                seen.push_back(slots[k].thread);
                it = seen.end() - 1;
            }
            slots[k].timing.worker =
                static_cast<std::uint32_t>(it - seen.begin());
            phase.cells.push_back(slots[k].timing);
        }
        r.phases.push_back(std::move(phase));
        for (auto &s : slots) {
            r.setupS += s.setupS;
            r.refs += s.refs;
            r.sim.merge(s.sim);
            r.layer.merge(s.layer);
            r.ops.push_back(std::move(s.op));
        }
        for (const auto &f : failures)
            r.ops.push_back({"runner", 0, "cell failed: " + f});
        return r;
    }

  private:
    std::uint64_t seed_;
    unsigned jobs_;

    static runner::Cell makeCell(const std::string &id, CellSlot &slot,
                                 bool traced,
                                 std::function<void(CellSlot &)> body)
    {
        return {id, 0, [&slot, id, traced, body](const runner::Cell &) {
                    slot.thread = std::this_thread::get_id();
                    slot.op.id = id;
                    slot.timing.start = seconds(nowNs());
                    if (traced) {
                        const Span span(Site::Cell);
                        body(slot);
                    } else {
                        body(slot);
                    }
                    slot.timing.end = seconds(nowNs());
                    return runner::CellOutput{};
                }};
    }

    void fig6Cell(const std::string &benchmark, bool traced, CellSlot &s)
    {
        SimConfig base =
            tableIConfig(benchmark, seed_, kGridScale, 1'000'000, 300'000);
        base.secure.cache.sizeBytes = 64_KiB;
        Digest d;
        const auto account = [&](const SimRun &run) {
            s.setupS += run.setupS;
            s.refs += static_cast<double>(base.warmupRefs + base.measureRefs);
            s.layer.simRuns += 1;
            d.add(digestReport(run.report));
            if (s.op.error.empty())
                s.op.error = checkExactRun(base, run.report);
        };
        for (const char *policy : {"plru", "eva", "lru", "srrip", "eva-typed"})
            account(simulate(base, makeReplacementPolicy(policy), traced,
                             &s.sim));

        // LRU profiling run, then MIN and iterMIN (fig6's chain).
        IterMinDriver driver;
        const auto sim_fn = [&](std::unique_ptr<ReplacementPolicy> policy,
                                std::vector<Addr> &trace_out) {
            const SimRun run = simulate(
                base, std::move(policy), traced, &s.sim,
                [&trace_out](const MetadataAccess &a) {
                    trace_out.push_back(a.addr);
                },
                /*tap_warmup=*/true);
            account(run);
            return run.report.mdCache.totalMisses();
        };
        IterMinResult iter;
        if (traced) {
            const Span span(Site::IterMin);
            iter = driver.run(sim_fn, "lru", 3);
        } else {
            iter = driver.run(sim_fn, "lru", 3);
        }
        for (const auto m : iter.missesPerIteration)
            d.add(m);
        for (const auto v : iter.divergencesPerIteration)
            d.add(v);
        d.add(static_cast<std::uint64_t>(iter.converged));
        s.op.digest = d.value();
    }

    void csoptCell(const std::string &benchmark, bool traced, CellSlot &s)
    {
        SimConfig cfg =
            tableIConfig(benchmark, seed_, kGridScale, 300'000, 100'000);
        cfg.secure.cacheEnabled = false; // capture the raw stream
        std::vector<MetadataAccess> stream;
        const SimRun run = simulate(
            cfg, nullptr, traced, &s.sim,
            [&stream](const MetadataAccess &a) { stream.push_back(a); });
        s.setupS += run.setupS;
        s.refs += static_cast<double>(cfg.warmupRefs + cfg.measureRefs);
        s.layer.simRuns += 1;

        // abl_csopt: 16 sets x 4 ways over a capped trace, a counter
        // miss costing a full tree walk.
        const std::size_t trace_cap = static_cast<std::size_t>(
            10'000 * kGridScale < 2'000 ? 2'000 : 10'000 * kGridScale);
        if (stream.size() > trace_cap)
            stream.resize(trace_cap);
        const auto tree_levels =
            MetadataLayout(cfg.secure.layout).numTreeLevels();
        std::vector<CsOptAccess> trace;
        for (const auto &acc : stream)
            trace.push_back({acc.addr, acc.type == MetadataType::Counter
                                           ? 1u + tree_levels
                                           : 1u});
        const auto lru_cost = fixedTraceCost(trace, 16, 4, false);
        const auto min_cost = fixedTraceCost(trace, 16, 4, true);
        CsOptResult csopt;
        if (traced) {
            const Span span(Site::CsOpt);
            csopt = solveCsOptSetAssociative(trace, 16, 4, 1u << 12);
        } else {
            csopt = solveCsOptSetAssociative(trace, 16, 4, 1u << 12);
        }
        s.layer.csoptStates += static_cast<double>(csopt.expansions);

        Digest d;
        d.add(digestReport(run.report));
        d.add(static_cast<std::uint64_t>(trace.size()));
        d.add(lru_cost);
        d.add(min_cost);
        d.add(csopt.minCost);
        d.add(csopt.misses);
        d.add(static_cast<std::uint64_t>(csopt.peakStates));
        d.add(csopt.expansions);
        d.add(static_cast<std::uint64_t>(csopt.exact));
        s.op.digest = d.value();
        s.op.error = checkExactRun(cfg, run.report);
        if (s.op.error.empty() && min_cost > lru_cost)
            s.op.error = "MIN cost " + std::to_string(min_cost) +
                         " > LRU cost " + std::to_string(lru_cost);
        if (s.op.error.empty() && csopt.minCost > min_cost)
            s.op.error = "CSOPT cost " + std::to_string(csopt.minCost) +
                         " > MIN cost " + std::to_string(min_cost);
    }
};

// ---------------------------------------------------------------------------
// estimate_grid
// ---------------------------------------------------------------------------

class EstimateGrid : public Workload
{
  public:
    EstimateGrid(std::uint64_t seed, const References &refs)
        : seed_(seed), refs_(refs)
    {
    }

    RepResult rep(bool, bool) override
    {
        RepResult r;
        std::vector<Call> analytic, autos, sampled;
        const RepClock clock;
        {
            const Span span(Site::Rep);
            analytic = pass(estimator::Mode::Analytic, r);
            autos = pass(estimator::Mode::Auto, r);
            for (const auto &b : kBenchmarks) {
                SimConfig cfg = cellConfig(b, kLlc.front(), kMd.front());
                sampling::SampleSpec::parse("auto", cfg.sample);
                Call c{b, cellId(b, kLlc.front(), kMd.front()), {}};
                const std::uint64_t t0 = nowNs();
                SecureMemorySim sim(cfg);
                r.setupS += seconds(nowNs() - t0);
                {
                    const Span call_span(Site::SampledRun);
                    c.report = sim.run();
                }
                sampled.push_back(std::move(c));
            }
        }
        clock.stop(r);
        check(analytic, autos, sampled, r);
        return r;
    }

    std::map<std::string, std::map<std::string, double>> exactGrid() override
    {
        std::map<std::string, std::map<std::string, double>> out;
        for (const auto &b : kBenchmarks)
            for (const auto llc : kLlc)
                for (const auto md : kMd)
                    out[cellId(b, llc, md)] = exactValues(
                        estimator::runWithMode(cellConfig(b, llc, md),
                                               estimator::Mode::Sim));
        return out;
    }

  private:
    // check_estimator's workloads on fig2's LLC x metadata-cache grid.
    static inline const std::vector<std::string> kBenchmarks{
        "canneal", "libquantum", "fft", "leslie3d"};
    static inline const std::vector<std::uint64_t> kLlc{512_KiB, 1_MiB,
                                                        2_MiB, 4_MiB};
    static inline const std::vector<std::uint64_t> kMd{
        16_KiB, 64_KiB, 256_KiB, 512_KiB, 1_MiB, 2_MiB};

    struct Call
    {
        std::string benchmark;
        std::string cell;
        RunReport report;
    };

    std::uint64_t seed_;
    const References &refs_;

    static std::string cellId(const std::string &b, std::uint64_t llc,
                              std::uint64_t md)
    {
        return b + "/" + std::to_string(llc >> 10) + "K+" +
               std::to_string(md >> 10) + "K";
    }

    static bool isCorner(std::uint64_t llc, std::uint64_t md)
    {
        return (llc == kLlc.front() || llc == kLlc.back()) &&
               (md == kMd.front() || md == kMd.back());
    }

    SimConfig cellConfig(const std::string &b, std::uint64_t llc,
                         std::uint64_t md) const
    {
        SimConfig cfg = tableIConfig(b, seed_, 1.0, 350'000, 140'000);
        cfg.hierarchy.llcBytes = llc;
        cfg.secure.cache.sizeBytes = md;
        return cfg;
    }

    /** One driver invocation's worth of cells, from a cold cache. */
    std::vector<Call> pass(estimator::Mode mode, RepResult &r)
    {
        std::vector<Call> calls;
        estimator::resetCacheForTests();
        for (const auto &b : kBenchmarks) {
            bool cold = true;
            for (const auto llc : kLlc)
                for (const auto md : kMd) {
                    const SimConfig cfg = cellConfig(b, llc, md);
                    const auto kind = mode == estimator::Mode::Auto &&
                                              isCorner(llc, md)
                                          ? estimator::CellKind::Corner
                                          : estimator::CellKind::Interior;
                    Call c{b, cellId(b, llc, md), {}};
                    {
                        Span span(Site::EstimatorWarm);
                        c.report = estimator::runWithMode(cfg, mode, kind);
                        if (c.report.estimator.tier != "analytic")
                            span.relabel(Site::EstimatorSim);
                        else if (cold)
                            span.relabel(Site::EstimatorCold);
                    }
                    const auto &e = c.report.estimator;
                    r.layer.estCalls += 1;
                    if (e.tier == "analytic") {
                        r.layer.estAnalytic += 1;
                        if (cold) {
                            r.layer.profiledRefs +=
                                static_cast<double>(e.profiledRefs);
                            r.layer.anchorRefs +=
                                static_cast<double>(e.anchorRefs);
                        }
                        cold = false;
                    }
                    r.refs +=
                        static_cast<double>(cfg.warmupRefs + cfg.measureRefs);
                    calls.push_back(std::move(c));
                }
        }
        return calls;
    }

    /** Containment of one exact value by a disclosed relative tolerance. */
    static std::string checkTolerance(const std::string &name, double est,
                                      double tol, double exact,
                                      double &err_max)
    {
        if (std::isnan(exact))
            return "no exact value for " + name;
        if (exact != 0.0)
            err_max = std::max(err_max,
                               100.0 * std::fabs(est - exact) / std::fabs(exact));
        if (std::fabs(est - exact) >
            tol * std::max(std::fabs(exact), std::fabs(est)))
            return name + " estimate " + std::to_string(est) + " +- " +
                   std::to_string(tol * 100.0) + "% misses exact " +
                   std::to_string(exact);
        return {};
    }

    void check(const std::vector<Call> &analytic,
               const std::vector<Call> &autos,
               const std::vector<Call> &sampled, RepResult &r) const
    {
        double err_max = -1.0;
        // Exact values: Auto's simulated corners on every seed, and
        // the recorded grid when the seed has references.
        std::map<std::string, const RunReport *> exact_corner;
        for (const auto &c : autos)
            if (c.report.estimator.tier != "analytic")
                exact_corner[c.cell] = &c.report;
        const auto exact_of = [&](const std::string &cell,
                                  const std::string &name) {
            if (const auto it = exact_corner.find(cell);
                it != exact_corner.end())
                return exactValueOf(*it->second, name);
            const auto rec = refs_.exact.find(cell);
            if (rec == refs_.exact.end())
                return std::numeric_limits<double>::quiet_NaN();
            auto v = rec->second.find(name);
            if (v == rec->second.end() && name.size() > 9 &&
                name.compare(name.size() - 9, 9, ".accesses") == 0)
                v = rec->second.find("dram.accesses");
            return v == rec->second.end()
                       ? std::numeric_limits<double>::quiet_NaN()
                       : v->second;
        };
        const auto has_exact = [&](const std::string &cell) {
            return exact_corner.count(cell) || refs_.exact.count(cell);
        };

        for (std::size_t i = 0; i < analytic.size(); ++i) {
            const Call &a = analytic[i];
            OpResult op{"analytic/" + a.cell, digestReport(a.report), {}};
            if (a.report.estimator.tier != "analytic" ||
                a.report.estimator.bounds.empty())
                op.error = "analytic call did not take the analytic tier";
            else if (has_exact(a.cell))
                for (const auto &b : a.report.estimator.bounds) {
                    const std::string e =
                        checkTolerance(b.name, b.estimate, b.tolerance,
                                       exact_of(a.cell, b.name), err_max);
                    r.layer.boundMisses += e.empty() ? 0 : 1;
                    if (op.error.empty())
                        op.error = e;
                }
            r.ops.push_back(std::move(op));

            // Auto estimates an interior exactly as Analytic does.
            const Call &u = autos[i];
            OpResult uop{"auto/" + u.cell, digestReport(u.report), {}};
            if (u.report.estimator.tier == "analytic") {
                if (uop.digest != op.digest)
                    uop.error = "auto interior differs from analytic";
            } else if (!exact_corner.count(u.cell)) {
                uop.error = "auto simulated a non-corner cell";
            } else {
                // Every grid cell measures the same reference count.
                uop.error = checkExactRun(
                    cellConfig(u.benchmark, kLlc.front(), kMd.front()),
                    u.report);
            }
            r.ops.push_back(std::move(uop));
        }
        for (const auto &s : sampled) {
            OpResult op{"sampled/" + s.benchmark, digestReport(s.report), {}};
            const auto &smp = s.report.sampling;
            if (!smp.enabled || smp.bounds.empty())
                op.error = "sampled run did not sample";
            for (const auto &b : smp.bounds) {
                const double exact = exact_of(s.cell, b.name);
                if (std::isnan(exact)) {
                    op.error = "no exact value for " + b.name;
                    continue;
                }
                if (exact != 0.0)
                    err_max = std::max(err_max, 100.0 *
                                                    std::fabs(b.estimate - exact) /
                                                    std::fabs(exact));
                if (std::fabs(b.estimate - exact) <= b.bound)
                    continue;
                r.layer.boundMisses += 1;
                if (op.error.empty())
                    op.error = b.name + " estimate " +
                               std::to_string(b.estimate) + " +- " +
                               std::to_string(b.bound) + " misses exact " +
                               std::to_string(exact);
            }
            r.layer.sampledRuns += 1;
            r.layer.sampledSimRefs += static_cast<double>(smp.simulatedRefs);
            r.layer.sampledFullRefs += static_cast<double>(smp.fullRefs);
            r.refs += static_cast<double>(smp.fullRefs);
            r.ops.push_back(std::move(op));
        }
        r.layer.errMaxPct = err_max;
    }
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"sim_read", "sim_write",
                                                "policy_grid",
                                                "estimate_grid"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, unsigned jobs,
             const References &refs)
{
    if (name == "sim_read")
        return std::make_unique<SimSeries>(
            std::vector<std::string>{"canneal", "mcf", "barnes"}, seed);
    if (name == "sim_write")
        return std::make_unique<SimSeries>(
            std::vector<std::string>{"libquantum", "lbm", "fft"}, seed);
    if (name == "policy_grid")
        return std::make_unique<PolicyGrid>(seed, jobs);
    if (name == "estimate_grid")
        return std::make_unique<EstimateGrid>(seed, refs);
    return nullptr;
}

} // namespace mapsbench
