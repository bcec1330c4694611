/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark opens a span around each of its calls into a library
 * layer (name prefixed with the layer: "core.recon", "cluster.advance",
 * ...). Spans are kept in memory and written out once, after the run,
 * as a Chrome trace-event file that opens in Perfetto or
 * chrome://tracing.
 *
 * Self time is wall-apportioned so that it adds up to the traced wall
 * even when spans run on several threads at once: every instant of the
 * root span is split evenly across the innermost spans active at that
 * instant (spans with no active child). A span's self time is therefore
 * its share of the wall clock, and a layer's self time is the sum over
 * its spans.
 */
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock, seconds. */
double nowSec();

/** One recorded interval on one thread. */
struct Span
{
    /** Layer-prefixed static name, e.g. "core.recon". */
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    /** Index of the span that caused this one (-1 for the root). */
    int parent = -1;
    /** Sweep cell or array index the span worked on (-1 for none). */
    int trial = -1;
    /** Small per-thread index, stable for the tracer's lifetime. */
    int lane = 0;
};

/** Thread-safe span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    void setEnabled(bool on) { on_ = on; }
    bool enabled() const { return on_; }

    /** Open a span now; returns its id (-1 when disabled). */
    int open(const char *name, int parent, int trial);
    /** Close span @p id now (ignores -1). */
    void close(int id);
    /** Record an already-finished span (-1 when disabled). */
    int record(const char *name, double start, double end, int parent,
               int trial);

    /** Drop every recorded span. */
    void clear();

    /** Copy of the recorded spans (call once recording has stopped). */
    std::vector<Span> spans() const;

  private:
    int laneOfThisThread();

    bool on_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<std::size_t> laneKeys_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, int parent = -1,
               int trial = -1)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.open(name, parent, trial) : -1)
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/** Wall-apportioned self seconds per span name (see file header). */
std::map<std::string, double> selfTimes(const std::vector<Span> &spans);

/** Write @p spans as a Chrome trace-event JSON file. */
bool writeChromeTrace(const std::vector<Span> &spans,
                      const std::string &path);

} // namespace perfbench
