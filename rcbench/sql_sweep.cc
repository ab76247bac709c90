/**
 * @file
 * sql_sweep: Table-2 Q1-Q13 on all four devices on the Table-1
 * machine, through core::runQuery. The paper's headline experiment
 * (Figs 18-21 share it); the only workload that compiles plans, and
 * the one that carries the accuracy metric.
 */

#include <cmath>
#include <memory>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "harness.hh"
#include "workload/queries.hh"
#include "workload/tables.hh"

namespace rcbench {

namespace {

using namespace rcnvm;

/** fig18_queries' column order. */
const mem::DeviceKind kDevices[] = {
    mem::DeviceKind::RcNvm,
    mem::DeviceKind::Rram,
    mem::DeviceKind::GsDram,
    mem::DeviceKind::Dram,
};
constexpr unsigned kDeviceCount = 4;

/** Fig-18 aggregate anchors the paper reports. */
constexpr double kPaperReductionVsRram = 0.71;
constexpr double kPaperReductionVsDram = 0.67;
constexpr double kPaperGsDramRatio = 2.37;

std::uint64_t
memoryOps(const workload::CompiledQuery &query)
{
    std::uint64_t n = 0;
    for (const auto &phase : query.phases) {
        for (const cpu::AccessPlan &plan : phase) {
            for (const cpu::MemOp &op : plan)
                n += op.isMemory() ? 1 : 0;
        }
    }
    return n;
}

class SqlSweep final : public Workload
{
  public:
    explicit SqlSweep(const Options &opts)
        : opts_(opts), tuples_(opts.tiny ? 4096 : 131072)
    {
    }

    void
    setup(Tracer *tracer) override
    {
        Scope s(tracer, "tables", "workload");
        workload_.reset(); // holds a pointer into tables_
        tables_ = workload::TableSet::standard(tuples_, 32768,
                                               opts_.seed);
        workload_ = std::make_unique<workload::QueryWorkload>(tables_);
    }

    void
    prepareChecks(Tracer *, std::uint64_t &, std::uint64_t &) override
    {
        expected_.clear();
        for (const mem::DeviceKind kind : kDevices) {
            const mem::AddressMap map(mem::geometryFor(kind));
            const workload::PlacedDatabase pd =
                workload_->place(kind, map);
            const unsigned cores =
                core::table1Machine(kind).hierarchy.cores;
            for (unsigned q = 0; q < workload::kTimedQueryCount; ++q) {
                expected_.push_back(static_cast<double>(memoryOps(
                    workload_->compile(workload::allQueries()[q].id, pd,
                                       cores))));
            }
        }
        if (opts_.injectFailure)
            expected_[0] += 1;
    }

    PassResult
    pass(Tracer *tracer, const Pause &pause) override
    {
        PassResult r;
        Digest digest;
        double ticks[kDeviceCount] = {};
        if (tracer)
            compiledOps_ = 0;
        for (unsigned q = 0; q < workload::kTimedQueryCount; ++q) {
            const workload::QueryId id = workload::allQueries()[q].id;
            for (unsigned d = 0; d < kDeviceCount; ++d) {
                const int point = static_cast<int>(q * kDeviceCount + d);
                const core::ExperimentResult er =
                    tracer ? tracedPoint(*tracer, kDevices[d], id, point,
                                         r.counts)
                           : core::runQuery(kDevices[d], *workload_, id);
                digest.add(er.ticks, er.stats);
                r.counts.add(er.ticks, er.stats);
                ticks[d] += static_cast<double>(er.ticks.value());
                ++r.attempted;
                // expected_ is device-major, the sweep query-major.
                if (er.stats.get("cpu.memOps") !=
                    expected_[d * workload::kTimedQueryCount + q])
                    ++r.failed;
                pause();
            }
        }
        r.digest = digest.value();
        const double rc = ticks[0], rram = ticks[1], gs = ticks[2],
                     dram = ticks[3];
        reductionVsRram_ = 1.0 - rc / rram;
        reductionVsDram_ = 1.0 - rc / dram;
        gsRatio_ = gs / rc;
        return r;
    }

    std::vector<Metric>
    resultMetrics() const override
    {
        const double err =
            (std::abs(reductionVsRram_ / kPaperReductionVsRram - 1) +
             std::abs(reductionVsDram_ / kPaperReductionVsDram - 1) +
             std::abs(gsRatio_ / kPaperGsDramRatio - 1)) /
            3.0;
        return {
            {"fig18_anchor_err", err, "ratio"},
            {"sim_reduction_vs_rram", reductionVsRram_, "ratio"},
            {"sim_reduction_vs_dram", reductionVsDram_, "ratio"},
            {"sim_gsdram_over_rcnvm", gsRatio_, "ratio"},
        };
    }

    std::vector<Metric>
    layerMetrics(const Tracer &tracer, unsigned setups,
                 unsigned traced_passes) const override
    {
        const double compile = tracer.total("compile") / traced_passes;
        const double ops = static_cast<double>(compiledOps_);
        return {
            {"workload.tables_s", tracer.total("tables") / setups, "s"},
            {"workload.compile_s", compile, "s"},
            {"workload.compiled_ops", ops, "count"},
            {"workload.compile_ns_per_op", ops > 0 ? compile * 1e9 / ops : 0,
             "ns"},
            {"imdb.place_s", tracer.total("place") / traced_passes, "s"},
        };
    }

  private:
    /**
     * core::runQuery taken apart at its layer boundaries (place,
     * compile, machine build, simulate) so each gets a span and the
     * machine's event count can be read. The digest check holds it
     * to the same results as runQuery. Unlike core::runCompiled it
     * skips the RCNVM_EPOCH_TICKS override (refused by main.cc)
     * and the epoch-series copy (empty without it), so its host
     * cost can differ slightly from an untraced point's.
     */
    core::ExperimentResult
    tracedPoint(Tracer &tracer, mem::DeviceKind kind,
                workload::QueryId id, int point, LayerCounts &counts)
    {
        Scope ps(&tracer, "point", "bench", point);
        const cpu::MachineConfig config = core::table1Machine(kind);
        const mem::AddressMap map(mem::geometryFor(kind));
        workload::PlacedDatabase pd;
        {
            Scope s(&tracer, "place", "imdb", point);
            pd = workload_->place(kind, map);
        }
        workload::CompiledQuery query;
        {
            Scope s(&tracer, "compile", "workload", point);
            query = workload_->compile(id, pd, config.hierarchy.cores);
        }
        compiledOps_ += query.totalOps();
        std::unique_ptr<cpu::Machine> machine;
        {
            Scope s(&tracer, "machine_build", "cpu", point);
            machine = std::make_unique<cpu::Machine>(config);
        }
        core::ExperimentResult result;
        {
            Scope s(&tracer, "simulate", "cpu", point);
            cpu::RunResult last;
            for (const auto &phase : query.phases) {
                last = machine->run(phase);
                result.ticks += last.ticks;
            }
            result.stats = std::move(last.stats);
        }
        counts.events += machine->eventQueue().executed();
        return result;
    }

    Options opts_;
    std::uint64_t tuples_;
    workload::TableSet tables_;
    std::unique_ptr<workload::QueryWorkload> workload_;
    /** Memory ops of each point's compiled plan, device-major. */
    std::vector<double> expected_;
    std::uint64_t compiledOps_ = 0;
    double reductionVsRram_ = 0, reductionVsDram_ = 0, gsRatio_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSqlSweep(const Options &opts)
{
    return std::make_unique<SqlSweep>(opts);
}

} // namespace rcbench
