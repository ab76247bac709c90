/**
 * @file
 * trace_rw_mix: a 4-core binary trace generated from the seed at
 * set-up, replayed on RC-NVM through MmapTraceReader -> TraceDemux
 * -> Machine::runSources. Row loads/stores hit random lines of a
 * 1 GB footprint while column loads/stores stream through per-core
 * regions of the same footprint, so both orientations touch the same
 * lines: the write-heavy, synonym-heavy use of the cache and
 * controller layers. The only workload on the trace frontend.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>

#include "core/presets.hh"
#include "harness.hh"
#include "trace/trace_binary.hh"
#include "trace/trace_demux.hh"
#include "trace/trace_reader.hh"
#include "util/random.hh"

namespace rcbench {

namespace {

using namespace rcnvm;

constexpr unsigned kCores = 4;
constexpr std::uint64_t kFootprint = 1ull << 30;
constexpr double kColumnShare = 0.5;
constexpr double kStoreShare = 0.4;
/** One record in this many is a compute delay, not a memory op. */
constexpr std::uint64_t kComputeEvery = 8;

class TraceRwMix final : public Workload
{
  public:
    explicit TraceRwMix(const Options &opts)
        : opts_(opts), records_(opts.tiny ? 20000 : 1000000),
          path_(opts.workDir + "/trace_rw_mix." +
                std::to_string(::getpid()) + ".rtb")
    {
    }

    ~TraceRwMix() override { std::remove(path_.c_str()); }

    void
    setup(Tracer *tracer) override
    {
        Scope s(tracer, "trace_write", "trace");
        util::Random rng(opts_.seed);
        trace::BinaryTraceWriter writer(path_, kCores);
        const std::uint64_t region = kFootprint / kCores;
        std::uint64_t cursor[kCores] = {};
        memRecords_ = 0;
        for (std::uint64_t i = 0; i < records_; ++i) {
            const unsigned c = static_cast<unsigned>(i % kCores);
            if (rng.nextBounded(kComputeEvery) == 0) {
                writer.append(
                    c, cpu::MemOp::compute(
                           static_cast<std::uint32_t>(rng.nextBounded(32))));
                continue;
            }
            const bool store = rng.nextBool(kStoreShare);
            if (rng.nextBool(kColumnShare)) {
                const Addr a = c * region + cursor[c];
                cursor[c] = (cursor[c] + 64) % region;
                writer.append(c, store ? cpu::MemOp::cstore(a)
                                       : cpu::MemOp::cload(a));
            } else {
                const Addr a = rng.nextBounded(kFootprint / 64) * 64;
                writer.append(c, store ? cpu::MemOp::store(a)
                                       : cpu::MemOp::load(a));
            }
            ++memRecords_;
        }
        writer.finalize();
    }

    /** A traced run drains the trace once, untimed, for the
     *  reader's standalone cost (trace.scan_s). */
    void
    prepareChecks(Tracer *tracer, std::uint64_t &, std::uint64_t &) override
    {
        if (!tracer)
            return;
        Scope s(tracer, "scan", "trace");
        trace::MmapTraceReader scan(path_);
        trace::TraceRecord rec;
        std::uint64_t n = 0;
        while (scan.next(rec))
            ++n;
        scanned_ = n;
    }

    PassResult
    pass(Tracer *tracer, const Pause &) override
    {
        PassResult r;
        const cpu::MachineConfig config =
            core::table1Machine(mem::DeviceKind::RcNvm);
        std::unique_ptr<cpu::Machine> machine;
        {
            Scope s(tracer, "machine_build", "cpu");
            machine = std::make_unique<cpu::Machine>(config);
        }
        trace::MmapTraceReader reader(path_);
        trace::TraceDemux demux(reader);
        cpu::RunResult run;
        {
            Scope s(tracer, "simulate", "cpu");
            run = machine->runSources(demux.sources());
        }
        r.counts.events = machine->eventQueue().executed();
        r.counts.add(run.ticks, run.stats);
        Digest digest;
        digest.add(run.ticks, run.stats);
        r.digest = digest.value();
        remaps_ = reader.remaps();

        // A record fails when it is not retired: not consumed from
        // the file, or (for memory records) not issued by a core.
        const std::uint64_t written =
            records_ + (opts_.injectFailure ? 1 : 0);
        const std::uint64_t consumed = reader.consumed();
        const auto memOps =
            static_cast<std::uint64_t>(run.stats.get("cpu.memOps"));
        r.attempted = records_;
        r.failed = (written > consumed ? written - consumed : 0) +
                   (memRecords_ > memOps ? memRecords_ - memOps
                                         : memOps - memRecords_);
        return r;
    }

    std::vector<Metric>
    resultMetrics() const override
    {
        return {};
    }

    std::vector<Metric>
    layerMetrics(const Tracer &tracer, unsigned setups,
                 unsigned) const override
    {
        return {
            {"trace.write_s", tracer.total("trace_write") / setups, "s"},
            {"trace.scan_s", tracer.total("scan"), "s"},
            {"trace.records", static_cast<double>(scanned_), "count"},
            {"trace.remaps", static_cast<double>(remaps_), "count"},
        };
    }

  private:
    Options opts_;
    std::uint64_t records_;
    std::string path_;
    std::uint64_t memRecords_ = 0;
    std::uint64_t scanned_ = 0;
    std::uint64_t remaps_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeTraceRwMix(const Options &opts)
{
    return std::make_unique<TraceRwMix>(opts);
}

} // namespace rcbench
