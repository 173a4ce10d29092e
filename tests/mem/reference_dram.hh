/**
 * @file
 * Reference DRAM timing model: the plain division-based access walk
 * that mem::DramModel replaced with shift/mask indexing.
 *
 * Port, bank and row come from `/` and `%` by the runtime geometry,
 * and every access recomputes its transfer time through a double
 * division -- the obvious code, kept as the executable specification.
 * The DRAM fuzz test drives it and the production model with
 * identical access streams and demands identical completion ticks
 * and counters.
 *
 * Test-only; nothing under src/ includes it.
 */

#ifndef MERCURY_TESTS_MEM_REFERENCE_DRAM_HH
#define MERCURY_TESTS_MEM_REFERENCE_DRAM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/dram.hh"

namespace mercury::mem
{

class ReferenceDram
{
  public:
    explicit ReferenceDram(const DramParams &params)
        : params_(params),
          portSize_(params.capacity / params.numPorts),
          bankSize_(portSize_ / params.banksPerPort),
          ports_(params.numPorts)
    {
        for (auto &port : ports_)
            port.banks.resize(params_.banksPerPort);
    }

    Tick
    access(AccessType type, Addr addr, unsigned size, Tick now)
    {
        addr %= params_.capacity;

        Port &port = ports_[(addr / portSize_) % params_.numPorts];
        Bank &bank = port.banks[(addr / bankSize_) % params_.banksPerPort];

        Tick start = std::max(now, bank.busyUntil);
        if (params_.modelRefresh) {
            const Tick within = start % params_.refreshInterval;
            if (within < params_.refreshDuration) {
                const Tick delay = params_.refreshDuration - within;
                start += delay;
                refreshStallTicks += static_cast<double>(delay);
            }
        }

        Tick array_latency;
        const auto row = static_cast<std::int64_t>(addr / params_.rowBytes);
        if (params_.pagePolicy == PagePolicy::Open && bank.openRow == row) {
            array_latency = params_.rowHitLatency;
            ++rowHits;
        } else {
            array_latency = params_.arrayLatency;
            ++rowMisses;
            bank.openRow =
                params_.pagePolicy == PagePolicy::Open ? row : -1;
        }

        const double seconds =
            static_cast<double>(size) / params_.portBandwidth;
        const Tick transfer = std::max<Tick>(1, secondsToTicks(seconds));
        const Tick transfer_start =
            std::max(start + array_latency, port.busyUntil);
        const Tick done = transfer_start + transfer;
        portQueueTicks += static_cast<double>(transfer_start - now);

        bank.busyUntil = done;
        port.busyUntil = done;

        if (type == AccessType::Read) {
            ++reads;
            bytesRead += static_cast<double>(size);
        } else {
            ++writes;
            bytesWritten += static_cast<double>(size);
        }
        return done;
    }

    /** The model's counters, accumulated as the model's stats are. */
    double reads = 0;
    double writes = 0;
    double bytesRead = 0;
    double bytesWritten = 0;
    double rowHits = 0;
    double rowMisses = 0;
    double portQueueTicks = 0;
    double refreshStallTicks = 0;

  private:
    struct Bank
    {
        Tick busyUntil = 0;
        std::int64_t openRow = -1;
    };

    struct Port
    {
        Tick busyUntil = 0;
        std::vector<Bank> banks;
    };

    DramParams params_;
    std::uint64_t portSize_;
    std::uint64_t bankSize_;
    std::vector<Port> ports_;
};

} // namespace mercury::mem

#endif // MERCURY_TESTS_MEM_REFERENCE_DRAM_HH
