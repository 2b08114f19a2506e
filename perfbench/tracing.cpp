#include "tracing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>

namespace mapsbench {

unsigned
Histogram::bucketOf(std::uint64_t v)
{
    if (v < kLinear)
        return static_cast<unsigned>(v);
    const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned sub = static_cast<unsigned>(v >> (e - 5)) & (kSub - 1);
    return kLinear + (e - 6) * kSub + sub;
}

double
Histogram::bucketMid(unsigned i)
{
    if (i < kLinear)
        return static_cast<double>(i);
    const unsigned e = (i - kLinear) / kSub + 6;
    const unsigned sub = (i - kLinear) % kSub;
    const double width = std::ldexp(1.0, static_cast<int>(e) - 5);
    return (kSub + sub) * width + width / 2.0;
}

void
Histogram::merge(const Histogram &o)
{
    for (unsigned i = 0; i < kBuckets; ++i)
        buckets_[i] += o.buckets_[i];
    count_ += o.count_;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count_) - 1e-9)));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return bucketMid(i);
    }
    return bucketMid(kBuckets - 1);
}

double
tailPercentile(std::uint64_t samples)
{
    for (const double p : {99.99, 99.9, 99.0, 90.0}) {
        if (static_cast<double>(samples) * (100.0 - p) / 100.0 >=
            10.0 - 1e-9)
            return p;
    }
    return 0.0;
}

namespace {

struct SiteInfo
{
    const char *name;
    const char *layer;
    bool container;
};

constexpr SiteInfo kSiteInfo[kSites] = {
    {"rep", "unattributed", true},
    {"setup", "setup", false},
    {"workloads.nextBatch", "workloads", false},
    {"hierarchy.accessBatch", "hierarchy", false},
    {"secmem.read", "secmem", false},
    {"secmem.write", "secmem", false},
    {"mem.access", "mem", false},
    {"offline.belady_victim", "offline", false},
    {"cache.lru_victim", "cache", false},
    {"cache.victim", "cache", false},
    {"offline.itermin", "offline", true},
    {"offline.csopt", "offline", true},
    {"runner.run", "runner", true},
    {"runner.cell", "runner", true},
    {"estimator.cold_call", "estimator", true},
    {"estimator.warm_call", "estimator", true},
    {"estimator.sim_call", "estimator", true},
    {"sampling.run", "sampling", true},
};

} // namespace

const char *
siteName(Site s)
{
    return kSiteInfo[static_cast<unsigned>(s)].name;
}

const char *
siteLayer(Site s)
{
    return kSiteInfo[static_cast<unsigned>(s)].layer;
}

bool
siteIsContainer(Site s)
{
    return kSiteInfo[static_cast<unsigned>(s)].container;
}

std::vector<std::uint64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<std::uint64_t> self(spans.size(), 0);
    for (std::size_t p = 0; p < spans.size(); ++p) {
        const SpanRecord &parent = spans[p];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
        for (const SpanRecord &c : spans) {
            if (c.thread != parent.thread || c.parent != parent.seq ||
                c.parent == 0)
                continue;
            const std::uint64_t lo = std::max(c.start, parent.start);
            const std::uint64_t hi = std::min(c.end, parent.end);
            if (hi > lo)
                kids.emplace_back(lo, hi);
        }
        std::sort(kids.begin(), kids.end());
        std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (const auto &[lo, hi] : kids) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[p] = (parent.end - parent.start) - covered;
    }
    return self;
}

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

namespace {

struct LocalSlot
{
    ThreadTrace *trace = nullptr;
    std::uint64_t generation = 0;
};
thread_local LocalSlot tlsSlot;
std::thread::id g_mainThread;

} // namespace

void
Tracer::reset(std::uint64_t sample_every, std::size_t span_cap)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    threads_.clear();
    ++generation_;
    sampleEvery_ = std::max<std::uint64_t>(1, sample_every);
    spanCap_ = span_cap;
    workerWeight_ = 1.0;
    g_mainThread = std::this_thread::get_id();
}

ThreadTrace &
Tracer::local()
{
    if (tlsSlot.generation != generation_ || !tlsSlot.trace) {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto t = std::make_unique<ThreadTrace>();
        t->index = static_cast<std::uint32_t>(threads_.size());
        t->isMain = std::this_thread::get_id() == g_mainThread;
        t->weight = t->isMain ? 1.0 : workerWeight_;
        t->spans.reserve(std::min<std::size_t>(spanCap_, 1u << 16));
        tlsSlot.trace = t.get();
        tlsSlot.generation = generation_;
        threads_.push_back(std::move(t));
    }
    return *tlsSlot.trace;
}

void
Tracer::enter(Site s)
{
    ThreadTrace &t = local();
    std::uint64_t id;
    if (t.stack.empty() || siteIsContainer(t.stack.back().site))
        id = (static_cast<std::uint64_t>(t.index) << 40) | t.nextId++;
    else
        id = t.stack.back().id;
    t.stack.push_back({s, 0, 0, t.nextSeq++, id});
    t.stack.back().start = nowNs();
}

void
Tracer::exit(Site as)
{
    const std::uint64_t end = nowNs();
    ThreadTrace &t = *tlsSlot.trace;
    const ThreadTrace::Frame f = t.stack.back();
    t.stack.pop_back();
    const std::uint64_t dur = end - f.start;
    SiteTotals &st = t.sites[static_cast<unsigned>(as)];
    ++st.calls;
    st.totalNs += dur;
    st.selfNs += dur - std::min(dur, f.childNs);
    t.hist[static_cast<unsigned>(as)].add(dur);
    std::uint64_t parent = 0;
    if (!t.stack.empty()) {
        t.stack.back().childNs += dur;
        parent = t.stack.back().seq;
    }
    // Containers are few and always kept; other spans are kept for one
    // trace id in sampleEvery_, up to the cap.
    const bool container = siteIsContainer(as);
    if (container || (f.id & ((1ull << 40) - 1)) % sampleEvery_ == 0) {
        if (container || t.spans.size() < spanCap_)
            t.spans.push_back({as, t.index, f.start, end, f.seq, parent, f.id});
        else
            ++t.droppedSpans;
    }
}

ScheduleStats
scheduleStats(const std::vector<CellTiming> &cells, double run_start,
              double run_end, unsigned workers)
{
    ScheduleStats s;
    std::vector<double> last_end(std::max(workers, 1u), run_start);
    for (const CellTiming &c : cells) {
        const double d = c.end - c.start;
        s.busy += d;
        s.queueWait += c.start - run_start;
        s.longest = std::max(s.longest, d);
        if (c.worker < last_end.size())
            last_end[c.worker] = std::max(last_end[c.worker], c.end);
    }
    const double span = run_end - run_start;
    s.idleFrac = span > 0.0 ? 1.0 - s.busy / (span * last_end.size()) : 0.0;
    s.tail = run_end - *std::min_element(last_end.begin(), last_end.end());
    return s;
}

} // namespace mapsbench
