#include "harness.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <queue>
#include <unordered_map>

namespace rcbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

std::uint64_t
referenceWork()
{
    constexpr std::size_t kWays = 8;
    constexpr unsigned kSetBits = 16; // 4 MB of tags
    constexpr std::size_t kSets = std::size_t{1} << kSetBits;
    constexpr unsigned kSteps = 200000;
    // Allocated once, so a sample times no page faults.
    static std::vector<std::uint64_t> tags(kSets * kWays);
    std::fill(tags.begin(), tags.end(), ~0ull);
    std::unordered_map<std::uint64_t, unsigned> misses;
    using Event = std::pair<std::uint64_t, std::uint64_t>; // time, line
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::uint64_t rng = 0x2545f4914f6cdd1dull, sum = 0;
    for (std::uint64_t i = 0; i < 1024; ++i)
        events.push({i, i * 977});
    for (unsigned step = 0; step < kSteps; ++step) {
        const auto [time, line] = events.top();
        events.pop();
        std::uint64_t *set =
            &tags[(line * 0x9e3779b97f4a7c15ull >> (64 - kSetBits)) * kWays];
        bool hit = false;
        for (std::size_t w = 0; w < kWays && !hit; ++w)
            hit = set[w] == line;
        if (!hit) {
            set[time % kWays] = line;
            if (++misses[line >> 4] > 2)
                misses.erase(line >> 4);
            if (misses.size() > 4096)
                misses.clear();
        }
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const std::uint64_t next =
            rng & 1 ? line + 1 : (rng >> 8) & ((1ull << 24) - 1);
        events.push({time + (hit ? 3 : 100 + (rng >> 58)), next});
        sum += hit ? time : line;
    }
    return sum + misses.size();
}

int
Tracer::open(const std::string &name, const std::string &layer,
             int point)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.start = secondsSince(origin_);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.point = point;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = secondsSince(origin_);
    // Scopes close in reverse order of opening.
    stack_.pop_back();
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

std::map<std::string, double>
Tracer::selfTimes(const std::string &root) const
{
    std::vector<double> self(spans_.size());
    // Parents precede their children, so one forward sweep finds
    // every span's root.
    std::vector<std::size_t> rootOf(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self[i] = s.end - s.start;
        rootOf[i] = i;
        if (s.parent >= 0) {
            const auto p = static_cast<std::size_t>(s.parent);
            self[p] -= s.end - s.start;
            rootOf[i] = rootOf[p];
        }
    }
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[rootOf[i]].name == root)
            byLayer[spans_[i].layer] += self[i];
    }
    return byLayer;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                      "\"point\": %d}\n",
                      s.start, s.end, s.parent, s.point);
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"layer\": \"" << s.layer << "\", " << buf;
    }
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(const std::string &s)
{
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ull;
    }
    add(std::uint64_t{s.size()});
}

void
Digest::add(double v)
{
    add(std::bit_cast<std::uint64_t>(v));
}

void
Digest::add(rcnvm::Tick ticks, const rcnvm::util::StatsMap &stats)
{
    add(std::uint64_t{ticks.value()});
    for (const auto &[name, entry] : stats.entries()) {
        add(name);
        add(entry.value);
    }
}

void
LayerCounts::add(rcnvm::Tick run_ticks,
                 const rcnvm::util::StatsMap &stats)
{
    static const char *const kCounters[] = {
        "cpu.memOps",          "cpu.retries",
        "cpu.retryStallTicks", "cache.accesses",
        "cache.l1Hits",        "cache.l2Hits",
        "cache.l3Hits",        "cache.llcMisses",
        "cache.mshrCoalesced", "cache.retries",
        "cache.cohInvalidations", "cache.synonymProbes",
        "cache.writebacks",    "mem.requests",
        "mem.writes",          "mem.bufferHits",
        "mem.bufferMisses",    "mem.orientationSwitches",
        "mem.rejectedIssues",
    };
    for (const char *name : kCounters)
        sums[name] += stats.get(name);
    const double t = static_cast<double>(run_ticks.value());
    queueWaitWeighted +=
        stats.get("mem.avgQueueWaitTicks") * stats.get("mem.requests");
    busUtilWeighted += stats.get("mem.busUtilization") * t;
    ticks += t;
}

double
LayerCounts::get(const std::string &name) const
{
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
}

} // namespace rcbench
