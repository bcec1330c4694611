// Fixture: allocation, container growth, and std::function conversion
// reachable from a DECLUST_HOT_PATH root. logEntry has no annotation of
// its own — it is dragged into the hot closure by the call edge from
// submitEntry, which is what the reachability analysis must prove.
// growEntries is reached only through the kHooks function-pointer
// table: a table is an edge to every function it names.
// EXPECT-ANALYZE: hot-path-alloc
// EXPECT-ANALYZE: hot-path-growth
// EXPECT-ANALYZE: hot-path-function

#include <functional>
#include <memory>
#include <vector>

namespace fixture {

struct Batch
{
    std::vector<int> entries;
    std::function<void()> done;
};

void
logEntry(Batch &batch, int v)
{
    batch.entries.push_back(v);
}

struct Hooks
{
    void (*grow)(Batch &batch);
};

void
growEntries(Batch &batch)
{
    batch.entries.reserve(64); // EXPECT-ANALYZE: hot-path-growth
}

const Hooks kHooks{&growEntries};

DECLUST_HOT_PATH
void
submitEntry(Batch &batch, int v)
{
    auto *node = new int(v);
    auto boxed = std::make_unique<int>(v);
    auto slab = std::make_unique_for_overwrite<int[]>(8); // EXPECT-ANALYZE: hot-path-alloc
    batch.done = std::function<void()>([] {});
    logEntry(batch, *node + *boxed);
    kHooks.grow(batch);
}

} // namespace fixture
