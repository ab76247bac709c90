/**
 * @file
 * olxp_serve: one ServeScheduler run on RC-NVM with the serve16
 * machine and the read-priority policy: Poisson OLTP arrivals (20%
 * updates, open loop in simulated time), 1024 backfill streams on
 * shared cursors and a token-metered maintenance tenant, SLO loop
 * on. The only workload on the olxp layer and the 16-core/8-channel
 * machine; it compiles no query plans.
 */

#include <memory>

#include "core/presets.hh"
#include "harness.hh"
#include "olxp/serve/serve_scheduler.hh"
#include "workload/queries.hh"
#include "workload/tables.hh"

namespace rcbench {

namespace {

using namespace rcnvm;
namespace serve = olxp::serve;

constexpr unsigned kStreams = 1024;

class OlxpServe final : public Workload
{
  public:
    explicit OlxpServe(const Options &opts)
        // Table-a must exceed the serve16 machine's 16 MB LLC (128 B
        // tuples) or backfill never reaches memory.
        : opts_(opts), tuples_(opts.tiny ? 16384 : 393216),
          seed_(opts.seed * 0x9e3779b97f4a7c15ull + 1)
    {
        serve::TenantConfig oltp;
        oltp.name = "oltp";
        oltp.cls = serve::TenantClass::OltpLatency;
        oltp.oltpInterArrival = Tick{100000};
        oltp.oltpUpdateFraction = 0.2;

        olap_.name = "olap";
        olap_.cls = serve::TenantClass::OlapThroughput;
        olap_.streams = kStreams * 7 / 10;
        olap_.segmentTuples = 128;
        olap_.segmentParallelism = 12;

        maint_.name = "maint";
        maint_.cls = serve::TenantClass::Background;
        maint_.streams = kStreams - olap_.streams;
        maint_.segmentTuples = 64;
        maint_.segmentParallelism = 4;
        maint_.tokensPerMTick = 1.0;
        maint_.tokenBurst = 4.0;

        // 10 ms of simulated time (1 ms at the test scale): a few
        // host seconds, so a run holds several passes.
        config_.horizon = Tick{opts.tiny ? 1000000000ull : 10000000000ull};
        config_.measureFrom = Tick{config_.horizon.value() / 2};
        config_.runQueueCapacity = 256;
        config_.seed = seed_;
        config_.tenants = {oltp, olap_, maint_};
        config_.slo = true;
        config_.sloTarget = Tick{200000};
        config_.sloPeriod = Tick{1000000};
    }

    void
    setup(Tracer *tracer) override
    {
        pd_ = {};
        workload_.reset(); // holds a pointer into tables_
        {
            Scope s(tracer, "tables", "workload");
            tables_ = workload::TableSet::standard(tuples_, 1024,
                                                   opts_.seed);
            workload_ =
                std::make_unique<workload::QueryWorkload>(tables_);
        }
        Scope s(tracer, "place", "imdb");
        pd_ = workload_->place(mem::DeviceKind::RcNvm, map_);
    }

    /** The optimizer on/off result-identity pair of ext_olxp_serve:
     *  the same capped segment sequence must checksum identically
     *  while the optimizer prunes. Counts as one operation. */
    void
    prepareChecks(Tracer *, std::uint64_t &attempted,
                  std::uint64_t &failed) override
    {
        serve::ServeConfig ci = config_;
        ci.tenants = {olap_, maint_};
        ci.slo = false;
        ci.horizon = Tick{1000000000000};
        ci.measureFrom = Tick{0};
        ci.maxSegmentsPerGroup = 8;
        const serve::ServeResult on = serveOnce(ci, nullptr, nullptr);
        ci.optimizer = false;
        const serve::ServeResult off = serveOnce(ci, nullptr, nullptr);
        ++attempted;
        if (!(on.scanChecksum == off.scanChecksum) ||
            on.segmentsCompleted != off.segmentsCompleted ||
            on.chunksPruned == 0)
            ++failed;
    }

    PassResult
    pass(Tracer *tracer, const Pause &) override
    {
        PassResult r;
        last_ = serveOnce(config_, tracer, &r.counts.events);
        Digest digest;
        digest.add(last_.run.ticks, last_.run.stats);
        digest.add(last_.oltpP50);
        digest.add(last_.oltpP99);
        digest.add(last_.scanChecksum.matches);
        digest.add(static_cast<std::uint64_t>(last_.scanChecksum.sum));
        r.digest = digest.value();
        r.counts.add(last_.run.ticks, last_.run.stats);

        // Every generated request either completes or is rejected;
        // rejected and lost requests are the failed operations.
        const std::uint64_t accounted = last_.oltpCompleted +
                                        last_.oltpRejected +
                                        (opts_.injectFailure ? 1 : 0);
        const std::uint64_t lost = accounted > last_.oltpGenerated
                                       ? accounted - last_.oltpGenerated
                                       : last_.oltpGenerated - accounted;
        r.attempted = last_.oltpGenerated;
        r.failed = last_.oltpRejected + lost;
        return r;
    }

    std::vector<Metric>
    resultMetrics() const override
    {
        return {
            {"sim_oltp_p99_ns", last_.oltpP99 / 1000.0, "ns"},
            {"sim_backfill_seg_per_us", last_.backfillThroughput(),
             "seg/us"},
        };
    }

    std::vector<Metric>
    layerMetrics(const Tracer &tracer, unsigned setups,
                 unsigned traced_passes) const override
    {
        const double scanned = static_cast<double>(last_.chunksScanned);
        const double pruned = static_cast<double>(last_.chunksPruned);
        return {
            {"workload.tables_s", tracer.total("tables") / setups, "s"},
            {"imdb.place_s", tracer.total("place") / setups, "s"},
            {"olxp.scheduler_build_s",
             tracer.total("scheduler_build") / traced_passes, "s"},
            {"olxp.oltp_generated",
             static_cast<double>(last_.oltpGenerated), "count"},
            {"olxp.oltp_rejected",
             static_cast<double>(last_.oltpRejected), "count"},
            {"olxp.segments",
             static_cast<double>(last_.segmentsCompleted), "count"},
            {"olxp.stream_scans", static_cast<double>(last_.streamScans),
             "count"},
            {"olxp.prune_ratio",
             scanned + pruned > 0 ? pruned / (scanned + pruned) : 0,
             "ratio"},
            {"olxp.slo_breaches", static_cast<double>(last_.sloBreaches),
             "count"},
        };
    }

  private:
    serve::ServeResult
    serveOnce(const serve::ServeConfig &cfg, Tracer *tracer,
              std::uint64_t *events)
    {
        cpu::MachineConfig mc = core::serve16Machine(mem::DeviceKind::RcNvm);
        mc.seed = seed_;
        mc.schedPolicy = mem::SchedPolicyKind::ReadPriority;
        std::unique_ptr<cpu::Machine> machine;
        {
            Scope s(tracer, "machine_build", "cpu");
            machine = std::make_unique<cpu::Machine>(mc);
        }
        std::unique_ptr<serve::ServeScheduler> scheduler;
        {
            Scope s(tracer, "scheduler_build", "olxp");
            scheduler =
                std::make_unique<serve::ServeScheduler>(*machine, pd_, cfg);
        }
        serve::ServeResult result;
        {
            Scope s(tracer, "simulate", "cpu");
            result = scheduler->run();
        }
        if (events)
            *events += machine->eventQueue().executed();
        return result;
    }

    Options opts_;
    std::uint64_t tuples_;
    std::uint64_t seed_;
    serve::TenantConfig olap_, maint_;
    serve::ServeConfig config_;
    const mem::AddressMap map_{mem::geometryFor(mem::DeviceKind::RcNvm)};
    workload::TableSet tables_;
    std::unique_ptr<workload::QueryWorkload> workload_;
    workload::PlacedDatabase pd_;
    serve::ServeResult last_;
};

} // namespace

std::unique_ptr<Workload>
makeOlxpServe(const Options &opts)
{
    return std::make_unique<OlxpServe>(opts);
}

} // namespace rcbench
