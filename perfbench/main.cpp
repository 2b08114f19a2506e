/**
 * @file
 * mapsbench: runs one benchmark workload for a fixed time and prints
 * every metric by name with its unit; the last stdout line is one JSON
 * object {correct, attempted, failed, metrics}. See README.md.
 *
 *   mapsbench --workload W --seed N --seconds S --trace 0|1
 *             --references DIR [--trace-out FILE] [--git-sha SHA]
 *             [--src-sha256 HASH]
 *   mapsbench --record --workload W --seed N --references DIR
 *   mapsbench --selftest
 */
#include <sys/resource.h>

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tracing.hpp"
#include "workloads.hpp"

namespace mapsbench {
/** Runs the self-tests; returns (name, passed) per test. */
std::vector<std::pair<std::string, bool>> runSelfTests();
} // namespace mapsbench

using namespace mapsbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    bool selftest = false;
    std::string references;
    std::string traceOut;
    std::string gitSha = "unknown";
    std::string srcSha = "unknown";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "mapsbench: " << error << "\n"
              << "usage: mapsbench --workload W --seed N --seconds S "
                 "--trace 0|1 --references DIR [--trace-out FILE]\n"
                 "       mapsbench --record --workload W --seed N "
                 "--references DIR\n"
                 "       mapsbench --selftest\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + k);
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = value();
            else if (k == "--seed")
                a.seed = std::stoull(value());
            else if (k == "--seconds")
                a.seconds = std::stod(value());
            else if (k == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (k == "--references")
                a.references = value();
            else if (k == "--trace-out")
                a.traceOut = value();
            else if (k == "--git-sha")
                a.gitSha = value();
            else if (k == "--src-sha256")
                a.srcSha = value();
            else if (k == "--record")
                a.record = true;
            else if (k == "--selftest")
                a.selftest = true;
            else
                usage("unknown argument " + k);
        } catch (const std::exception &) {
            usage("bad value for " + k);
        }
    }
    if (!a.selftest) {
        const auto &names = workloadNames();
        if (std::find(names.begin(), names.end(), a.workload) == names.end())
            usage("unknown workload '" + a.workload + "'");
        if (a.references.empty())
            usage("--references is required");
        if (!(a.seconds > 0.0))
            usage("--seconds must be positive");
    }
    return a;
}

unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------------
// References: "<seed> digest <op> <hex>" and "<seed> exact <cell>
// <metric> <value>" lines in <dir>/<workload>.txt.
// ---------------------------------------------------------------------------

std::string
referencePath(const Args &a)
{
    return a.references + "/" + a.workload + ".txt";
}

References
loadReferences(const Args &a)
{
    References refs;
    std::ifstream in(referencePath(a));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::uint64_t seed = 0;
        std::string kind;
        ls >> seed >> kind;
        if (seed != a.seed)
            continue;
        if (kind == "digest") {
            std::string op, hex;
            ls >> op >> hex;
            refs.digests[op] = std::stoull(hex, nullptr, 16);
            refs.present = true;
        } else if (kind == "exact") {
            std::string cell, metric;
            double v = 0.0;
            ls >> cell >> metric >> v;
            refs.exact[cell][metric] = v;
        }
    }
    return refs;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------------
// Operation checks.
// ---------------------------------------------------------------------------

/**
 * Operations are counted by id: one attempted per distinct operation
 * (and self-test), failed when any execution of it failed. The counts
 * therefore do not grow with the number of repetitions a run fits.
 */
struct Tally
{
    std::map<std::string, bool> failedById;
    /** Digest of each operation's first execution. */
    std::map<std::string, std::uint64_t> baseline;
    std::vector<std::string> messages;

    void count(const std::string &id) { failedById.emplace(id, false); }
    void fail(const std::string &id, const std::string &what)
    {
        bool &failed = failedById[id];
        if (!failed && messages.size() < 20)
            messages.push_back(id + ": " + what);
        failed = true;
    }
    std::uint64_t attempted() const { return failedById.size(); }
    std::uint64_t failed() const
    {
        std::uint64_t n = 0;
        for (const auto &[id, f] : failedById)
            n += f ? 1 : 0;
        return n;
    }
};

/**
 * Check every operation of a repetition: its own invariants, the
 * recorded reference digest (when the seed has references) and the
 * digest its first execution produced (traced and untraced alike).
 */
void
checkOps(const RepResult &r, const References &refs, Tally &tally)
{
    for (const OpResult &op : r.ops) {
        tally.count(op.id);
        if (!op.error.empty()) {
            tally.fail(op.id, op.error);
            continue;
        }
        if (refs.present) {
            const auto it = refs.digests.find(op.id);
            if (it == refs.digests.end()) {
                tally.fail(op.id, "no recorded reference");
                continue;
            }
            if (it->second != op.digest) {
                tally.fail(op.id, "digest " + hex(op.digest) +
                                      " != reference " + hex(it->second));
                continue;
            }
        }
        const auto [it, fresh] = tally.baseline.emplace(op.id, op.digest);
        if (!fresh && it->second != op.digest)
            tally.fail(op.id, "digest differs between repetitions");
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const std::vector<Metric> &metrics, const Tally &tally)
{
    std::cout << "\n";
    for (const auto &m : metrics) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%-34s %16.6g %s", m.name.c_str(),
                      m.value, m.unit.c_str());
        std::cout << buf << "\n";
    }
    std::cout << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted()
              << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << jsonString(metrics[i].name)
                  << ": {\"value\": " << jsonNumber(metrics[i].value)
                  << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// Per-layer report (traced run).
// ---------------------------------------------------------------------------

struct SiteAgg
{
    std::uint64_t calls = 0, totalNs = 0, selfNs = 0;
    Histogram hist;
};

/** Nanoseconds as a JSON number of microseconds. */
std::string
micros(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

std::vector<Metric>
layerMetrics(const std::vector<RepResult> &reps, double untraced_wall,
             const std::string &trace_out)
{
    const Tracer &tracer = Tracer::get();
    std::vector<SiteAgg> agg(kSites);
    std::map<std::string, double> wall_share;
    double runner_main_ns = 0.0, worker_root_weighted_ns = 0.0;
    std::uint64_t recorded = 0, dropped = 0;
    for (const auto &t : tracer.threads()) {
        recorded += t->spans.size();
        dropped += t->droppedSpans;
        for (unsigned s = 0; s < kSites; ++s) {
            const auto &st = t->sites[s];
            agg[s].calls += st.calls;
            agg[s].totalNs += st.totalNs;
            agg[s].selfNs += st.selfNs;
            agg[s].hist.merge(t->hist[s]);
            const Site site = static_cast<Site>(s);
            if (site == Site::RunnerRun && t->isMain) {
                // The main thread blocks here; its share is split below
                // into the workers' weighted self times and idle time.
                runner_main_ns += static_cast<double>(st.selfNs);
                continue;
            }
            wall_share[siteLayer(site)] +=
                t->weight * static_cast<double>(st.selfNs);
            if (site == Site::Cell && !t->isMain)
                worker_root_weighted_ns +=
                    t->weight * static_cast<double>(st.totalNs);
        }
    }
    wall_share["runner.idle"] += runner_main_ns - worker_root_weighted_ns;

    const double n = std::max<double>(1.0, static_cast<double>(reps.size()));
    const auto at = [&](Site s) -> SiteAgg & {
        return agg[static_cast<unsigned>(s)];
    };
    const auto per_rep_s = [&](std::uint64_t ns) {
        return 1e-9 * static_cast<double>(ns) / n;
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    SimCounts sim;
    LayerCounts layer;
    std::vector<double> walls;
    double sched_busy = 0, sched_capacity = 0, queue_wait = 0, tail = 0,
           longest = 0, cells = 0;
    for (const auto &r : reps) {
        sim.merge(r.sim);
        layer.merge(r.layer);
        walls.push_back(r.wallS);
        for (const auto &p : r.phases) {
            const ScheduleStats st =
                scheduleStats(p.cells, p.start, p.end, p.workers);
            sched_busy += st.busy;
            sched_capacity += (p.end - p.start) * p.workers;
            queue_wait += st.queueWait;
            tail += st.tail;
            longest = std::max(longest, st.longest);
            cells += static_cast<double>(p.cells.size());
        }
    }
    const double traced_wall = median(walls);
    if (!reps.empty())
        for (std::size_t p = 0; p < reps.back().phases.size(); ++p) {
            const RunnerPhase &ph = reps.back().phases[p];
            const ScheduleStats st =
                scheduleStats(ph.cells, ph.start, ph.end, ph.workers);
            std::printf("runner phase %zu (last repetition): %zu cells, wall "
                        "%.3f s, busy %.3f s, longest cell %.3f s, tail "
                        "%.3f s\n",
                        p, ph.cells.size(), ph.end - ph.start, st.busy,
                        st.longest, st.tail);
        }

    std::vector<Metric> m;
    const auto add = [&](const std::string &name, double v,
                         const std::string &unit) {
        m.push_back({name, v, unit});
    };
    // Per-call timing: median, the tail percentile with >= 10 samples
    // beyond it (chosen from the calls of one repetition), and count.
    const auto timing = [&](const std::string &name, Site s,
                            const std::string &unit, double scale) {
        const SiteAgg &a = at(s);
        const double per_rep = static_cast<double>(a.calls) / n;
        const double p = tailPercentile(static_cast<std::uint64_t>(per_rep));
        add(name + ".p50", a.hist.quantile(0.5) * scale, unit);
        add(name + ".tail", p > 0 ? a.hist.quantile(p / 100.0) * scale : 0.0,
            unit);
        add(name + ".tail_pct", p, "%");
        add(name + ".n", per_rep, "count");
    };

    const double refs = sim.refs / n;
    add("workloads.refs", refs, "count");
    add("workloads.busy_s", per_rep_s(at(Site::NextBatch).totalNs), "s");
    add("workloads.ns_per_ref",
        ratio(static_cast<double>(at(Site::NextBatch).totalNs), sim.refs),
        "ns");
    add("hierarchy.refs", refs, "count");
    add("hierarchy.self_s", per_rep_s(at(Site::AccessBatch).selfNs), "s");
    add("hierarchy.ns_per_ref",
        ratio(static_cast<double>(at(Site::AccessBatch).selfNs), sim.refs),
        "ns");
    add("hierarchy.llc_requests", sim.llcRequests / n, "count");
    add("hierarchy.llc_miss_ratio", ratio(sim.llcMisses, sim.llcLookups),
        "ratio");
    add("secmem.reads", static_cast<double>(at(Site::SecmemRead).calls) / n,
        "count");
    add("secmem.writes", static_cast<double>(at(Site::SecmemWrite).calls) / n,
        "count");
    add("secmem.self_s",
        per_rep_s(at(Site::SecmemRead).selfNs + at(Site::SecmemWrite).selfNs),
        "s");
    timing("secmem.read_ns", Site::SecmemRead, "ns", 1.0);
    timing("secmem.write_ns", Site::SecmemWrite, "ns", 1.0);
    add("secmem.mdcache.hit_ratio", ratio(sim.mdHits, sim.mdLookups), "ratio");
    add("secmem.mem_per_request", ratio(sim.memPerReqNum, sim.requests),
        "ratio");
    add("mem.accesses", static_cast<double>(at(Site::MemAccess).calls) / n,
        "count");
    add("mem.busy_s", per_rep_s(at(Site::MemAccess).totalNs), "s");
    add("mem.ns_per_access",
        ratio(static_cast<double>(at(Site::MemAccess).totalNs),
              static_cast<double>(at(Site::MemAccess).calls)),
        "ns");
    add("mem.row_hit_ratio", ratio(sim.rowHits, sim.dramAccesses), "ratio");
    add("cache.victim_calls",
        static_cast<double>(at(Site::VictimLru).calls +
                            at(Site::VictimOther).calls) /
            n,
        "count");
    add("cache.victim_s",
        per_rep_s(at(Site::VictimLru).totalNs + at(Site::VictimOther).totalNs),
        "s");
    add("offline.sim_runs", layer.simRuns / n, "count");
    add("offline.oracle_build_s", per_rep_s(at(Site::IterMin).selfNs), "s");
    add("offline.victim_calls",
        static_cast<double>(at(Site::VictimMin).calls) / n, "count");
    add("offline.belady_victim_s", per_rep_s(at(Site::VictimMin).totalNs), "s");
    timing("offline.belady_victim_ns", Site::VictimMin, "ns", 1.0);
    timing("offline.lru_victim_ns", Site::VictimLru, "ns", 1.0);
    add("offline.itermin_s", per_rep_s(at(Site::IterMin).totalNs), "s");
    add("offline.csopt_s", per_rep_s(at(Site::CsOpt).totalNs), "s");
    add("offline.csopt_states", layer.csoptStates / n, "count");
    add("offline.csopt_ns_per_state",
        ratio(static_cast<double>(at(Site::CsOpt).totalNs), layer.csoptStates),
        "ns");
    add("runner.cells", cells / n, "count");
    add("runner.busy_s", sched_busy / n, "s");
    add("runner.queue_wait_s", queue_wait / n, "s");
    add("runner.idle_frac",
        sched_capacity > 0 ? 1.0 - sched_busy / sched_capacity : 0.0,
        "ratio");
    add("runner.tail_s", tail / n, "s");
    add("runner.longest_cell_s", longest, "s");
    add("estimator.cells", layer.estCalls / n, "count");
    add("estimator.analytic_frac", ratio(layer.estAnalytic, layer.estCalls),
        "ratio");
    add("estimator.cold_call_s", per_rep_s(at(Site::EstimatorCold).totalNs),
        "s");
    add("estimator.sim_call_s", per_rep_s(at(Site::EstimatorSim).totalNs),
        "s");
    timing("estimator.warm_call_us", Site::EstimatorWarm, "us", 1e-3);
    add("estimator.profiled_refs", layer.profiledRefs / n, "count");
    add("estimator.anchor_refs", layer.anchorRefs / n, "count");
    add("estimator.err_max_pct", std::max(0.0, layer.errMaxPct), "%");
    add("estimator.bound_misses", layer.boundMisses / n, "count");
    add("sampling.runs", layer.sampledRuns / n, "count");
    add("sampling.call_s", per_rep_s(at(Site::SampledRun).totalNs), "s");
    add("sampling.sim_frac", ratio(layer.sampledSimRefs, layer.sampledFullRefs),
        "ratio");
    add("setup.self_s", per_rep_s(at(Site::Setup).selfNs), "s");
    add("process.peak_rss_mb", peakRssMb(), "MB");
    add("trace.wall_s", traced_wall, "s");
    add("trace.untraced_wall_s", untraced_wall, "s");
    add("trace.overhead_frac",
        untraced_wall > 0 ? traced_wall / untraced_wall - 1.0 : 0.0, "ratio");
    add("trace.unattributed_s", per_rep_s(at(Site::Rep).selfNs), "s");
    add("trace.reps", static_cast<double>(reps.size()), "count");

    // Wall breakdown: weighted self time per module plus the
    // unattributed remainder sums to the traced wall time.
    const double wall_total = static_cast<double>(at(Site::Rep).totalNs);
    double sum = 0.0;
    std::cout << "\nwall-time breakdown per repetition (self time; runner "
                 "workers weighted 1/jobs):\n";
    for (const auto &[name, ns] : wall_share) {
        sum += ns;
        char buf[128];
        std::snprintf(buf, sizeof buf, "  %-14s %12.6f s  %6.2f%%\n",
                      name.c_str(), 1e-9 * ns / n,
                      wall_total > 0 ? 100.0 * ns / wall_total : 0.0);
        std::cout << buf;
    }
    std::printf("  %-14s %12.6f s  (traced wall %.6f s, difference %.3g s)\n",
                "sum", 1e-9 * sum / n, 1e-9 * wall_total / n,
                1e-9 * (sum - wall_total) / n);
    std::fflush(stdout);
    m.push_back({"trace.breakdown_gap_s", 1e-9 * (sum - wall_total) / n, "s"});

    if (!trace_out.empty()) {
        std::ofstream os(trace_out);
        os << "{\"traceEvents\": [";
        bool first = true;
        for (const auto &t : tracer.threads())
            for (const SpanRecord &s : t->spans) {
                os << (first ? "" : ",\n") << "{\"name\": \""
                   << siteName(s.site) << "\", \"cat\": \""
                   << siteLayer(s.site) << "\", \"ph\": \"X\", \"pid\": 1, "
                   << "\"tid\": " << s.thread << ", \"ts\": "
                   << micros(s.start) << ", \"dur\": "
                   << micros(s.end - s.start)
                   << ", \"args\": {\"seq\": " << s.seq
                   << ", \"parent\": " << s.parent << ", \"id\": " << s.id
                   << "}}";
                first = false;
            }
        os << "],\n\"spans_recorded\": " << recorded
           << ", \"spans_dropped\": " << dropped << "}\n";
        std::cout << "spans: " << recorded << " recorded, " << dropped
                  << " over the cap, written to " << trace_out << "\n";
    }
    return m;
}

int
record(const Args &a)
{
    const unsigned jobs = std::min(4u, cpuCount());
    // estimate_grid records the exact value of every cell first, so the
    // recorded repetition checks every estimate against it.
    References refs;
    refs.exact = makeWorkload(a.workload, a.seed, jobs, refs)->exactGrid();
    const auto &exact = refs.exact;
    // policy_grid is recorded on one job in reverse order, so every
    // later run also checks that its results do not depend on either.
    const RepResult r = makeWorkload(a.workload, a.seed, jobs, refs)
                            ->rep(false, a.workload == "policy_grid");
    // Invariant failures are recorded as they are: the references pin
    // what the program computes, and every later run reports the
    // failures again.
    for (const auto &op : r.ops)
        if (!op.error.empty())
            std::cerr << "mapsbench: invariant fails at record time, "
                      << op.id << ": " << op.error << "\n";

    const std::string path = referencePath(a);
    std::vector<std::string> kept;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream ls(line);
            std::uint64_t seed = 0;
            if (line.empty() ||
                (line[0] != '#' && (!(ls >> seed) || seed == a.seed)))
                continue;
            kept.push_back(line);
        }
    }
    if (kept.empty())
        kept.push_back("# mapsbench references for " + a.workload +
                       "; re-record with: python3 perfbench/run.py --record "
                       "--workload " + a.workload + " --seed N");
    std::set<std::string> ids;
    for (const auto &op : r.ops) {
        if (!ids.insert(op.id).second) {
            std::cerr << "mapsbench: duplicate operation id " << op.id << "\n";
            return 1;
        }
        kept.push_back(std::to_string(a.seed) + " digest " + op.id + " " +
                       hex(op.digest));
    }
    for (const auto &[cell, values] : exact)
        for (const auto &[metric, v] : values) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            kept.push_back(std::to_string(a.seed) + " exact " + cell + " " +
                           metric + " " + buf);
        }
    // Comments first, then by seed; lines of one seed keep their order.
    const auto seed_of = [](const std::string &line) {
        return line[0] == '#' ? 0 : std::stoull(line) + 1;
    };
    std::stable_sort(kept.begin(), kept.end(),
                     [&](const std::string &x, const std::string &y) {
                         return seed_of(x) < seed_of(y);
                     });
    std::ofstream out(path);
    for (const auto &line : kept)
        out << line << "\n";
    std::cout << "recorded " << r.ops.size() << " digests"
              << (exact.empty() ? "" : " and the exact grid") << " for "
              << a.workload << " seed " << a.seed << " in " << path << "\n";
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);

#ifndef __OPTIMIZE__
    std::cerr << "mapsbench: refusing to report timings from an "
                 "unoptimised build (" MAPSBENCH_BUILD_TYPE ")\n";
    return 3;
#endif

    Tally tally;
    for (const auto &[name, ok] : runSelfTests()) {
        tally.count("self-test/" + name);
        if (!ok)
            tally.fail("self-test/" + name, "failed");
    }
    if (a.selftest) {
        for (const auto &msg : tally.messages)
            std::cerr << "FAILED " << msg << "\n";
        std::cout << "self-tests: " << tally.attempted() - tally.failed()
                  << "/" << tally.attempted() << " passed\n";
        return tally.failed() ? 1 : 0;
    }
    if (a.record)
        return record(a);

    const unsigned nproc = cpuCount();
    const unsigned jobs = std::min(4u, nproc);
    const References refs = loadReferences(a);
    std::cout << "provenance {\"git_sha\": " << jsonString(a.gitSha)
              << ", \"src_sha256\": " << jsonString(a.srcSha)
              << ", \"build_type\": " << jsonString(MAPSBENCH_BUILD_TYPE)
              << ", \"compiler\": " << jsonString(MAPSBENCH_COMPILER)
              << ", \"flags\": " << jsonString(MAPSBENCH_CXX_FLAGS)
              << ", \"workload\": " << jsonString(a.workload)
              << ", \"seed\": " << a.seed << ", \"trace\": " << a.trace
              << ", \"nproc\": " << nproc << ", \"jobs\": " << jobs
              << ", \"cpu_model\": " << jsonString(cpuModel()) << "}\n";
    std::cout << (refs.present
                      ? "references: recorded for this seed; digests and "
                        "invariants checked\n"
                      : "references: none recorded for this seed; "
                        "invariant checks only\n")
              << std::flush;

    auto wl = makeWorkload(a.workload, a.seed, jobs, refs);

    // policy_grid first runs an untimed repetition on half the jobs in
    // reverse cell order, so the timed repetitions (min(4, nproc) jobs,
    // declaration order) also check order and jobs independence. Other
    // workloads run no warm-up; the reported medians absorb a slower
    // first repetition.
    if (a.workload == "policy_grid" && !a.trace)
        checkOps(wl->rep(false, true), refs, tally);
    double untraced_wall = 0.0;
    if (a.trace) {
        // Untimed warm-up, then the untraced baseline for the overhead.
        checkOps(wl->rep(false, false), refs, tally);
        const RepResult base = wl->rep(false, false);
        checkOps(base, refs, tally);
        untraced_wall = base.wallS;
        Tracer::get().reset(/*sample_every=*/256, /*span_cap=*/100'000);
    }

    std::vector<RepResult> reps;
    const std::uint64_t t0 = nowNs();
    do {
        reps.push_back(wl->rep(a.trace, false));
        checkOps(reps.back(), refs, tally);
    } while (1e-9 * static_cast<double>(nowNs() - t0) < a.seconds);

    for (const auto &msg : tally.messages)
        std::cerr << "FAILED " << msg << "\n";

    std::vector<Metric> metrics;
    if (a.trace) {
        metrics = layerMetrics(reps, untraced_wall, a.traceOut);
    } else {
        // Each figure is the median over the run's repetitions, which
        // repeat the same fixed, deterministic work (see README.md,
        // "Steadiness").
        std::vector<double> wall, cpu, rate, setup;
        for (const auto &r : reps) {
            wall.push_back(r.wallS);
            cpu.push_back(r.cpuS);
            rate.push_back(r.wallS > 0 ? r.refs / r.wallS : 0.0);
            setup.push_back(r.setupS);
        }
        metrics = {{"wall_s", median(wall), "s"},
                   {"cpu_s", median(cpu), "s"},
                   {"refs_per_s", median(rate), "1/s"},
                   {"setup_s", median(setup), "s"}};
        const double tail = tailPercentile(wall.size());
        std::vector<double> sorted = wall;
        std::sort(sorted.begin(), sorted.end());
        std::cout << "\nrepetition wall_s:";
        for (const double w : wall)
            std::cout << " " << w;
        std::cout << "\nrepetition wall_s summary: n " << wall.size()
                  << ", min " << sorted.front() << ", median " << median(wall);
        if (tail > 0)
            std::cout << ", p" << tail << " "
                      << sorted[static_cast<std::size_t>(
                             std::ceil(tail / 100.0 * sorted.size())) - 1];
        std::cout << ", max " << sorted.back() << "\nrepetitions: "
                  << reps.size() << "\npeak_rss_mb: " << peakRssMb()
                  << "\nops: " << tally.attempted()
                  << "\nfailed_frac: "
                  << static_cast<double>(tally.failed()) /
                         static_cast<double>(tally.attempted())
                  << "\n";
    }
    printResult(metrics, tally);
    return 0;
}
