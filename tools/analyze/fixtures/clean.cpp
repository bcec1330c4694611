// Fixture: well-behaved code; the analyzer must report nothing here.

#include <cstdint>

namespace fixture {

struct StripeLockTable
{
    bool acquire(long stripe);
    void release(long stripe);
};

struct Op;

/** A flow table: the critical section's exit, chosen by the caller. */
struct Flow
{
    void (*finish)(Op *op);
};

struct Op
{
    StripeLockTable *locks;
    long stripe;
    const Flow *flow;
};

// A lock step runs the step it is given; the step runs the op's flow.
// Nothing in withStripe / flowStep / startFlow releases, but useFlow
// installs a table whose hook does, so the chain ends.
void
withStripe(Op *op, void (*step)(Op *))
{
    if (op->locks->acquire(op->stripe))
        step(op);
}

void
flowStep(Op *op)
{
    op->flow->finish(op);
}

void
startFlow(Op *op, const Flow &flow)
{
    op->flow = &flow;
    withStripe(op, &flowStep);
}

void
finishFlow(Op *op)
{
    op->locks->release(op->stripe);
}

const Flow kFinishFlow{&finishFlow};

void
useFlow(Op *op)
{
    startFlow(op, kFinishFlow);
}

inline std::uint64_t
checksum(const std::uint64_t *values, int count)
{
    std::uint64_t acc = 0;
    for (int i = 0; i < count; ++i)
        acc ^= values[i];
    return acc;
}

} // namespace fixture
