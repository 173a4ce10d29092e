/**
 * @file
 * Shared --datapath=kernel|bypass / --nic-cache-mb=MB flag parsing
 * for the design-space benches (fig7, table3, datapath_sweep).
 *
 * Both flags default off, so a bench that declares them emits
 * byte-identical output to one that never had them until the user
 * opts in; banner() below makes a non-default choice visible in the
 * output so re-runs are self-describing.
 */

#ifndef MERCURY_BENCH_DATAPATH_FLAGS_HH
#define MERCURY_BENCH_DATAPATH_FLAGS_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hh"

#include "net/datapath.hh"

namespace mercury::bench
{

/** Parsed datapath choice for a design-space bench. */
struct DatapathFlags
{
    net::DatapathParams datapath{};
    /** On-NIC GET-cache SRAM per stack (MB), charged to the
     * physical model; entries are derived by the perf oracle. */
    double nicCacheMB = 0.0;

    bool
    nonDefault() const
    {
        return datapath.bypass() || nicCacheMB > 0.0;
    }

    /** One line describing a non-default choice; "" when default. */
    std::string
    banner() const
    {
        if (!nonDefault())
            return "";
        std::string out = "[datapath: ";
        out += datapath.bypass() ? "bypass" : "kernel";
        if (datapath.bypass()) {
            out += " rx/tx batch " +
                   std::to_string(datapath.rxBatch);
        }
        if (nicCacheMB > 0.0) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), ", NIC cache %.2f MB",
                          nicCacheMB);
            out += buf;
        }
        out += "]\n\n";
        return out;
    }
};

/** The FlagSpecs to declare on the Session (whitelists the flags
 * and adds them to --help). */
inline std::vector<Session::FlagSpec>
datapathFlagSpecs()
{
    return {
        {"--datapath", "KIND",
         "modeled datapath: kernel (default) or bypass "
         "(batched poll-mode driver, rx/tx batch 32)"},
        {"--nic-cache-mb", "MB",
         "on-NIC GET-cache SRAM per stack in MB (default 0 = "
         "no cache; charged area and power)"},
    };
}

/** A finite, non-negative MB budget whose derived entry count fits
 * an unsigned; anything else (non-numeric, trailing garbage, a sign,
 * inf/nan, an overflowing budget) fails fast with exit 2. */
inline double
parseNicCacheMB(const std::string &value,
                const net::DatapathParams &datapath)
{
    char *end = nullptr;
    const double mb = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !std::isfinite(mb) ||
        mb < 0.0 ||
        datapath.nicCacheEntriesFor(mb) >
            std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr,
                     "invalid --nic-cache-mb value '%s'; see --help\n",
                     value.c_str());
        std::exit(2);
    }
    return mb;
}

/** Consume the two flags from the Session's leftover argv. */
inline DatapathFlags
parseDatapathFlags(int &argc, char **argv)
{
    DatapathFlags flags;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--datapath=", 0) == 0) {
            const std::string kind = arg.substr(11);
            if (kind == "bypass") {
                flags.datapath.kind = net::DatapathKind::Bypass;
                flags.datapath.rxBatch = 32;
                flags.datapath.txBatch = 32;
            } else if (kind != "kernel") {
                std::fprintf(stderr,
                             "--datapath wants kernel|bypass, got "
                             "'%s'\n",
                             kind.c_str());
                std::exit(2);
            }
        } else if (arg.rfind("--nic-cache-mb=", 0) == 0) {
            flags.nicCacheMB =
                parseNicCacheMB(arg.substr(15), flags.datapath);
        } else {
            argv[out++] = argv[i];
            continue;
        }
    }
    argc = out;
    argv[argc] = nullptr;
    return flags;
}

} // namespace mercury::bench

#endif // MERCURY_BENCH_DATAPATH_FLAGS_HH
