// Fixture: ad-hoc pending sets kept outside src/sim/ — a second
// priority queue would dispatch events outside EventQueue's
// (when, seq) contract.
// EXPECT-ANALYZE: event-core-priority-queue

#include <algorithm>
#include <queue>
#include <vector>

namespace fixture {

struct PendingIo
{
    unsigned long when;
    int id;
};

struct LaterFirst
{
    bool
    operator()(const PendingIo &a, const PendingIo &b) const
    {
        return a.when > b.when;
    }
};

int
drainAdHocQueue()
{
    std::priority_queue<PendingIo, std::vector<PendingIo>, LaterFirst> q; // EXPECT-ANALYZE: event-core-priority-queue
    q.push(PendingIo{10, 1});
    const int id = q.top().id;
    q.pop();
    return id;
}

int
drainRawHeap(std::vector<PendingIo> &pending)
{
    std::make_heap(pending.begin(), pending.end(), LaterFirst{}); // EXPECT-ANALYZE: event-core-priority-queue
    std::pop_heap(pending.begin(), pending.end(), LaterFirst{}); // EXPECT-ANALYZE: event-core-priority-queue
    const int id = pending.back().id;
    pending.pop_back();
    return id;
}

// Mentioning pop_heap in a comment must NOT fire, nor inside a string:
inline const char *kNote = "ordered via make_heap at set-up";

} // namespace fixture
