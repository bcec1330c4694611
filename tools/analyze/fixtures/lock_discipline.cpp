// Fixture: stripe-lock discipline violations — an acquire whose
// continuation chain contains no release (the critical section can
// never end), the same fault behind a lock step (the release must be
// reachable from the step's call site), and a straight-line double
// release.
// EXPECT-ANALYZE: lock-discipline

namespace fixture {

struct StripeLockTable
{
    bool acquire(long stripe);
    void release(long stripe);
};

void
pinStripeForever(StripeLockTable &locks, long stripe)
{
    locks.acquire(stripe);
}

void
lockStep(StripeLockTable &locks, long stripe, void (*step)(long))
{
    if (locks.acquire(stripe))
        step(stripe);
}

void
spinForever(long)
{
}

void
enterForever(StripeLockTable &locks, long stripe)
{
    lockStep(locks, stripe, &spinForever); // EXPECT-ANALYZE: lock-discipline
}

void
doubleRelease(StripeLockTable &locks, long stripe)
{
    locks.release(stripe);
    locks.release(stripe);
}

} // namespace fixture
