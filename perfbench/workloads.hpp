/**
 * @file
 * The four benchmark workloads and the per-operation results they
 * report. Each repetition runs a fixed amount of work to completion
 * (a closed loop); main.cpp repeats it for the run's duration.
 *
 *   sim_read       exact simulation of canneal, mcf, barnes in series
 *   sim_write      the same for libquantum, lbm, fft
 *   policy_grid    the fig6 and abl_csopt cell grids, through
 *                  runner::ExperimentRunner at min(4, nproc) jobs
 *   estimate_grid  a fig2-class LLC x metadata-cache grid through
 *                  estimator::runWithMode (analytic, auto) plus
 *                  sampled runs, each pass from a cold profile cache
 */
#ifndef MAPSBENCH_WORKLOADS_HPP
#define MAPSBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "tracing.hpp"

namespace mapsbench {

/** FNV-1a over the exact bits of everything added. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/**
 * Digest of a run's simulated statistics: hierarchy, controller,
 * metadata cache and DRAM counters (measure window), cycles, and any
 * disclosed estimates with their bounds.
 */
std::uint64_t digestReport(const maps::RunReport &r);

/** Exact value of a disclosed metric name in a simulated report. */
double exactValueOf(const maps::RunReport &r, const std::string &name);

/** Every metric an estimate may disclose, from an exact report. */
std::map<std::string, double> exactValues(const maps::RunReport &r);

/** One checked operation of a repetition. */
struct OpResult
{
    std::string id;
    std::uint64_t digest = 0;
    /** Empty when every invariant on the operation held. */
    std::string error;
};

/** Simulated counts of the traced pipeline (measure window). */
struct SimCounts
{
    double refs = 0, llcRequests = 0, llcMisses = 0, llcLookups = 0;
    double mdHits = 0, mdLookups = 0, memPerReqNum = 0, requests = 0;
    double dramAccesses = 0, rowHits = 0;
    void merge(const SimCounts &o);
};

/** Work counts of the offline and estimator layers. */
struct LayerCounts
{
    double simRuns = 0, csoptStates = 0;
    double estCalls = 0, estAnalytic = 0, profiledRefs = 0,
           anchorRefs = 0;
    double sampledRuns = 0, sampledSimRefs = 0, sampledFullRefs = 0;
    /** Estimates whose disclosed bound misses the exact value. */
    double boundMisses = 0;
    /** Largest |estimate - exact| / exact, percent; < 0 when none. */
    double errMaxPct = -1.0;
    void merge(const LayerCounts &o);
};

/** One ExperimentRunner::run call. */
struct RunnerPhase
{
    double start = 0.0, end = 0.0;
    unsigned workers = 1;
    std::vector<CellTiming> cells;
};

/** Everything one repetition produced. */
struct RepResult
{
    double wallS = 0.0, cpuS = 0.0, setupS = 0.0;
    /** Simulated references the repetition's results represent. */
    double refs = 0.0;
    std::vector<OpResult> ops;
    SimCounts sim;
    LayerCounts layer;
    std::vector<RunnerPhase> phases;
};

/** Recorded references of one (workload, seed). */
struct References
{
    bool present = false;
    std::map<std::string, std::uint64_t> digests;
    /** estimate_grid: cell id -> exact metric values. */
    std::map<std::string, std::map<std::string, double>> exact;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /**
     * Run the fixed work once. @p traced routes every simulation
     * through the traced pipeline; @p check_order (policy_grid) runs
     * the cells in reverse declaration order on fewer jobs: half of
     * them from four up, otherwise one.
     */
    virtual RepResult rep(bool traced, bool check_order) = 0;
    /** estimate_grid: exact values of every cell, for recording. */
    virtual std::map<std::string, std::map<std::string, double>>
    exactGrid()
    {
        return {};
    }
};

const std::vector<std::string> &workloadNames();

/** nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, unsigned jobs,
                                       const References &refs);

/** Process CPU time (all threads), seconds. */
double processCpuSeconds();

} // namespace mapsbench

#endif // MAPSBENCH_WORKLOADS_HPP
