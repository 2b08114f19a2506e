/**
 * @file
 * Call-boundary timing for the benchmark: a log-linear latency
 * histogram, the percentile-reporting rule, a per-thread span tracer,
 * and the pure arithmetic (self time, runner schedule) the self-tests
 * check.
 *
 * Every traced call is timed and counted; full span records are kept
 * for one in N trace ids only, stay in memory, and are written once at
 * the end of a run.
 */
#ifndef MAPSBENCH_TRACING_HPP
#define MAPSBENCH_TRACING_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mapsbench {

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Histogram of non-negative integer durations: exact below 64, then 32
 * buckets per power of two (bucket width <= 1/32 of its lower bound).
 */
class Histogram
{
  public:
    static constexpr unsigned kLinear = 64;
    static constexpr unsigned kSub = 32;
    static constexpr unsigned kBuckets = kLinear + (64 - 6) * kSub;

    static unsigned bucketOf(std::uint64_t v);
    /** Midpoint of bucket @p i (the exact value below kLinear). */
    static double bucketMid(unsigned i);

    void add(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        ++count_;
    }
    void merge(const Histogram &o);
    std::uint64_t count() const { return count_; }
    /** Nearest-rank quantile, q in (0, 1]; 0 when empty. */
    double quantile(double q) const;

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
};

/**
 * The highest of p90/p99/p99.9/p99.99 that leaves at least ten of
 * @p samples above it; 0 when even p90 does not (fewer than 100).
 */
double tailPercentile(std::uint64_t samples);

/** A traced call boundary. */
enum class Site : std::uint8_t
{
    Rep,           ///< one repetition of a workload (root)
    Setup,         ///< building simulation objects before the first ref
    NextBatch,     ///< AccessGenerator::nextBatch
    AccessBatch,   ///< CacheHierarchy::accessBatch
    SecmemRead,    ///< SecureMemoryController::handleRequest, reads
    SecmemWrite,   ///< SecureMemoryController::handleRequest, writebacks
    MemAccess,     ///< MemoryModel::access
    VictimMin,     ///< ReplacementPolicy::victim, Belady (TraceOracle)
    VictimLru,     ///< ReplacementPolicy::victim, true LRU
    VictimOther,   ///< ReplacementPolicy::victim, other online policies
    IterMin,       ///< IterMinDriver::run
    CsOpt,         ///< solveCsOptSetAssociative
    RunnerRun,     ///< ExperimentRunner::run (main thread)
    Cell,          ///< one cell body on a runner worker
    EstimatorCold, ///< estimator::runWithMode, first analytic call
    EstimatorWarm, ///< estimator::runWithMode, later analytic calls
    EstimatorSim,  ///< estimator::runWithMode pinned to simulation
    SampledRun,    ///< SecureMemorySim::run with SimConfig::sample
    kCount
};
inline constexpr unsigned kSites = static_cast<unsigned>(Site::kCount);

/** Span name of a site. */
const char *siteName(Site s);
/** Module whose self time the site's self time is charged to. */
const char *siteLayer(Site s);
/**
 * Containers (repetitions, cells, whole estimator or solver calls) are
 * few and always recorded; their children start their own trace id.
 */
bool siteIsContainer(Site s);

/** One recorded span (times in ns on the steady clock). */
struct SpanRecord
{
    Site site = Site::Rep;
    std::uint32_t thread = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    /** Per-thread sequence number; parent == 0 for a root. */
    std::uint64_t seq = 0;
    std::uint64_t parent = 0;
    /** Shared by every span of one request or batch. */
    std::uint64_t id = 0;
};

/**
 * Self time of each span in @p spans: its duration minus the part of
 * it that its direct children (same thread, parent == seq) cover.
 * Children may overlap each other; their union counts once.
 */
std::vector<std::uint64_t> selfTimes(const std::vector<SpanRecord> &spans);

/** Per-site totals of one thread. */
struct SiteTotals
{
    std::uint64_t calls = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
};

/** Everything one thread recorded. */
struct ThreadTrace
{
    std::uint32_t index = 0;
    /** The thread that reset the tracer (runs the repetitions). */
    bool isMain = false;
    /**
     * Share of wall time one second of this thread's self time stands
     * for in the wall breakdown: 1 on the main thread, 1/jobs on a
     * runner worker.
     */
    double weight = 1.0;
    std::array<SiteTotals, kSites> sites{};
    std::array<Histogram, kSites> hist{};
    std::vector<SpanRecord> spans;
    std::uint64_t droppedSpans = 0;

    struct Frame
    {
        Site site;
        std::uint64_t start;
        std::uint64_t childNs;
        std::uint64_t seq;
        std::uint64_t id;
    };
    std::vector<Frame> stack;
    std::uint64_t nextSeq = 1;
    std::uint64_t nextId = 1;
};

/** The process-wide collection of thread traces. */
class Tracer
{
  public:
    static Tracer &get();

    /** Drop all recorded data and set the sampling (1 in @p every). */
    void reset(std::uint64_t sample_every, std::size_t span_cap);

    void enter(Site s);
    /** Close the innermost span, relabelled as @p as. */
    void exit(Site as);

    /** Valid once every traced thread has stopped. */
    const std::vector<std::unique_ptr<ThreadTrace>> &threads() const
    {
        return threads_;
    }

    void setWorkerWeight(double w) { workerWeight_ = w; }

  private:
    /** The calling thread's trace (registered on first use). */
    ThreadTrace &local();

    std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadTrace>> threads_;
    std::uint64_t generation_ = 1;
    std::uint64_t sampleEvery_ = 64;
    std::size_t spanCap_ = 0;
    double workerWeight_ = 1.0;
};

/** RAII span around one call into a layer. */
class Span
{
  public:
    explicit Span(Site s) : site_(s) { Tracer::get().enter(s); }
    ~Span() { Tracer::get().exit(site_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Charge the span to another site (decided after the call). */
    void relabel(Site s) { site_ = s; }

  private:
    Site site_;
};

/** One cell's execution on a runner worker (seconds, any origin). */
struct CellTiming
{
    std::uint32_t worker = 0;
    double start = 0.0;
    double end = 0.0;
};

/** Closed-loop schedule figures of one runner phase. */
struct ScheduleStats
{
    /** Sum of cell durations. */
    double busy = 0.0;
    /** Sum over cells of start minus phase start. */
    double queueWait = 0.0;
    /** 1 - busy / (workers * phase duration). */
    double idleFrac = 0.0;
    /** Phase end minus the earliest time a worker ran out of cells. */
    double tail = 0.0;
    double longest = 0.0;
};

/**
 * @param workers the number of worker threads the runner used; a
 *        worker that ran no cell is idle from @p run_start.
 */
ScheduleStats scheduleStats(const std::vector<CellTiming> &cells,
                            double run_start, double run_end,
                            unsigned workers);

} // namespace mapsbench

#endif // MAPSBENCH_TRACING_HPP
