#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
Tracer::laneOfThisThread()
{
    const std::size_t key =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    for (std::size_t i = 0; i < laneKeys_.size(); ++i)
        if (laneKeys_[i] == key)
            return static_cast<int>(i);
    laneKeys_.push_back(key);
    return static_cast<int>(laneKeys_.size() - 1);
}

int
Tracer::open(const char *name, int parent, int trial)
{
    if (!on_)
        return -1;
    const double t = nowSec();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.start = t;
    s.end = t;
    s.parent = parent;
    s.trial = trial;
    s.lane = laneOfThisThread();
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    const double t = nowSec();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
}

int
Tracer::record(const char *name, double start, double end, int parent,
               int trial)
{
    if (!on_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.trial = trial;
    s.lane = laneOfThisThread();
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    const std::size_t n = spans.size();
    std::vector<int> depth(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (int p = spans[i].parent; p >= 0;
             p = spans[static_cast<std::size_t>(p)].parent)
            ++depth[i];

    // Name index per span, so the sweep works on small integers.
    std::vector<std::string> names;
    std::vector<int> nameOf(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto it =
            std::find(names.begin(), names.end(), spans[i].name);
        nameOf[i] = static_cast<int>(it - names.begin());
        if (it == names.end())
            names.emplace_back(spans[i].name);
    }

    // Boundary points; at equal times ends go first, deepest first, and
    // starts go shallowest first, so a child never outlives its parent.
    struct Point
    {
        double t;
        bool start;
        int depth;
        int span;
    };
    std::vector<Point> points;
    points.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const int id = static_cast<int>(i);
        points.push_back({spans[i].start, true, depth[i], id});
        points.push_back({spans[i].end, false, depth[i], id});
    }
    std::sort(points.begin(), points.end(),
              [](const Point &a, const Point &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  if (a.start != b.start)
                      return !a.start;
                  return a.start ? a.depth < b.depth : a.depth > b.depth;
              });

    std::vector<int> activeKids(n, 0);
    std::vector<bool> active(n, false);
    std::vector<int> leavesByName(names.size(), 0);
    std::vector<double> self(names.size(), 0.0);
    int leaves = 0;
    auto setLeaf = [&](int span, int delta) {
        leavesByName[static_cast<std::size_t>(
            nameOf[static_cast<std::size_t>(span)])] += delta;
        leaves += delta;
    };

    double prev = points.empty() ? 0.0 : points.front().t;
    for (const Point &pt : points) {
        const double dt = pt.t - prev;
        if (dt > 0.0 && leaves > 0)
            for (std::size_t k = 0; k < names.size(); ++k)
                if (leavesByName[k] > 0)
                    self[k] += dt * leavesByName[k] / leaves;
        prev = pt.t;

        const auto s = static_cast<std::size_t>(pt.span);
        const int parent = spans[s].parent;
        const bool parentActive =
            parent >= 0 && active[static_cast<std::size_t>(parent)];
        if (pt.start) {
            active[s] = true;
            if (parentActive &&
                activeKids[static_cast<std::size_t>(parent)]++ == 0)
                setLeaf(parent, -1);
            setLeaf(pt.span, +1);
        } else {
            active[s] = false;
            if (activeKids[s] == 0)
                setLeaf(pt.span, -1);
            if (parentActive &&
                --activeKids[static_cast<std::size_t>(parent)] == 0)
                setLeaf(parent, +1);
        }
    }

    std::map<std::string, double> out;
    for (std::size_t k = 0; k < names.size(); ++k)
        out[names[k]] = self[k];
    return out;
}

bool
writeChromeTrace(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream file(path);
    if (!file)
        return false;
    const double t0 = spans.empty() ? 0.0 : spans.front().start;
    file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[320];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,\"trial\":%d}}\n",
                      i ? "," : "", s.name,
                      static_cast<int>(std::strcspn(s.name, ".")), s.name,
                      (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                      s.lane, i, s.parent, s.trial);
        file << buf;
    }
    file << "]}\n";
    return static_cast<bool>(file);
}

} // namespace perfbench
