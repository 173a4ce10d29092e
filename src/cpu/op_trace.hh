/**
 * @file
 * Operation traces: the unit of work executed by core timing models.
 *
 * Request processing is synthesized as a sequence of operations at
 * cache-line granularity: bulk compute (instruction execution with no
 * interesting memory behaviour), instruction fetches streaming through
 * code regions, and data loads/stores. The server module's trace
 * generator produces these from calibrated per-phase costs plus the
 * functional key-value store's actual probe walks.
 *
 * A code pass is stored run-length encoded as one CodePass op; the
 * core expands it line by line while it walks the trace.
 */

#ifndef MERCURY_CPU_OP_TRACE_HH
#define MERCURY_CPU_OP_TRACE_HH

#include <cstdint>
#include <vector>

#include "sim/contract.hh"
#include "sim/types.hh"

namespace mercury::cpu
{

/** Access pattern hint used for memory-level-parallelism modelling. */
enum class Stream
{
    /** Independent random accesses; OoO cores overlap a few. */
    Random,
    /** Streaming/strided; prefetchable and easy to overlap. */
    Sequential,
    /** Dependent pointer chase; serializes on every machine. */
    Dependent,
};

/** Line size of every synthesized trace stream. */
constexpr unsigned traceLineBytes = 64;

/** One operation in a trace. */
struct Op
{
    enum class Kind : std::uint8_t
    {
        Compute,
        IFetch,
        Load,
        Store,
        CodePass,
    };

    Kind kind;
    Stream stream = Stream::Sequential;
    /** Instruction count for Compute ops; the pass total for
     * CodePass ops. */
    std::uint64_t instructions = 0;
    /** Line-aligned address for memory ops; the region base for
     * CodePass ops. */
    Addr addr = 0;
    /** Lines fetched by a CodePass op (always >= 1). */
    std::uint64_t lines = 0;

    static Op
    compute(std::uint64_t instructions)
    {
        Op op;
        op.kind = Kind::Compute;
        op.instructions = instructions;
        return op;
    }

    static Op
    ifetch(Addr addr, Stream stream = Stream::Sequential)
    {
        Op op;
        op.kind = Kind::IFetch;
        op.addr = addr;
        op.stream = stream;
        return op;
    }

    /**
     * A sequential instruction-fetch sweep of @p lines lines from
     * @p base, with @p instructions spread over them: every line
     * executes instructions / lines, and the first
     * instructions % lines lines execute one more.
     */
    static Op
    codePass(Addr base, std::uint64_t lines, std::uint64_t instructions)
    {
        MERCURY_EXPECTS(lines > 0, "a code pass covers at least a line");
        Op op;
        op.kind = Kind::CodePass;
        op.addr = base;
        op.lines = lines;
        op.instructions = instructions;
        return op;
    }

    static Op
    load(Addr addr, Stream stream = Stream::Random)
    {
        Op op;
        op.kind = Kind::Load;
        op.addr = addr;
        op.stream = stream;
        return op;
    }

    static Op
    store(Addr addr, Stream stream = Stream::Random)
    {
        Op op;
        op.kind = Kind::Store;
        op.addr = addr;
        op.stream = stream;
        return op;
    }
};

using OpTrace = std::vector<Op>;

/** Helpers for building common access patterns. */
class TraceBuilder
{
  public:
    explicit TraceBuilder(OpTrace &trace) : trace_(trace) {}

    TraceBuilder &
    compute(std::uint64_t instructions)
    {
        if (instructions > 0)
            trace_.push_back(Op::compute(instructions));
        return *this;
    }

    /** Stream instruction fetches across a code region once,
     * interleaving the given instruction count as compute. */
    TraceBuilder &codePass(Addr base, std::uint64_t region_bytes,
                           std::uint64_t instructions);

    /** Sequentially read a buffer at line granularity. */
    TraceBuilder &streamRead(Addr base, std::uint64_t bytes);

    /** A dependent load (pointer chase step); serializes. */
    TraceBuilder &
    chaseLoad(Addr addr)
    {
        trace_.push_back(Op::load(addr, Stream::Dependent));
        return *this;
    }

    TraceBuilder &
    randomStore(Addr addr)
    {
        trace_.push_back(Op::store(addr, Stream::Random));
        return *this;
    }

  private:
    OpTrace &trace_;
};

} // namespace mercury::cpu

#endif // MERCURY_CPU_OP_TRACE_HH
