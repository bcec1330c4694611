/**
 * @file
 * Throughput bench for the erasure-code kernels: measured GB/s per
 * (kernel, tier, buffer size), printed as a table and emitted as the
 * BENCH_7 JSON record, plus the cost of one verify-mode
 * DataPlane::checkCombine (expand every survivor's byte image, XOR,
 * compare) in ns per call at group sizes G = 4 and 21. The numbers
 * price real parity math against the simulator's 1 us tick: a 4 KB
 * unit XORs in well under one tick on every tier, so simulated XOR
 * cost stays the explicit --xor-ms knob.
 *
 *   build/bench/bench_ec_kernels --json BENCH_7.json
 *
 * Each cell streams a pair of pooled 64-byte-aligned buffers through
 * the kernel until the target measurement time elapses (self-timed;
 * this is an operator-facing tool, not simulation code). A running
 * byte checksum keeps the work observable, and every measurement is
 * cross-checked against the scalar reference before it is timed, so a
 * kernel that got fast by being wrong fails loudly here too.
 *
 * DECLUST_EC_FORCE_TIER does not restrict the kernel table: it measures
 * every tier the CPU supports, so one run yields the full dispatch
 * table. The checkCombine row runs on the dispatched tier, which the
 * variable does select, as it does in a simulation.
 */
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "ec/buffer_pool.hpp"
#include "ec/data_plane.hpp"
#include "ec/gf256.hpp"
#include "ec/kernels.hpp"
#include "harness/json_writer.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace declust;

/** Deterministic fill so runs are comparable; xorshift64. */
void
fill(std::uint8_t *p, std::size_t n, std::uint64_t seed)
{
    std::uint64_t s = seed | 1;
    for (std::size_t i = 0; i < n; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        p[i] = static_cast<std::uint8_t>(s);
    }
}

enum class Kind { Xor, GfMul, GfMulAdd, Expand };

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::Xor:
        return "xor";
    case Kind::GfMul:
        return "gf_mul";
    case Kind::GfMulAdd:
        return "gf_mul_add";
    case Kind::Expand:
        return "expand";
    }
    return "?";
}

/** One kernel pass over the buffers; c is the GF coefficient (and,
 * spread over 64 bits, the value expand writes the image of). */
void
runKernel(const ec::Kernels &k, Kind kind, std::uint8_t *dst,
          const std::uint8_t *src, std::uint8_t c, std::size_t n)
{
    switch (kind) {
    case Kind::Xor:
        k.xorInto(dst, src, n);
        break;
    case Kind::GfMul:
        k.gfMul(dst, src, c, n);
        break;
    case Kind::GfMulAdd:
        k.gfMulAdd(dst, src, c, n);
        break;
    case Kind::Expand:
        k.expand(dst, (0x0101010101010101ull * c) ^ 0x9e3779b97f4a7c15ull,
                 n);
        break;
    }
}

/** Cross-check @p tier against the scalar reference on this size. */
void
verifyTier(const ec::Kernels &k, Kind kind, std::size_t n)
{
    std::vector<std::uint8_t> src(n), got(n), want(n);
    fill(src.data(), n, 0x5eed);
    fill(got.data(), n, 0xd1ce);
    std::memcpy(want.data(), got.data(), n);
    const std::uint8_t c = 0x8e;
    runKernel(k, kind, got.data(), src.data(), c, n);
    runKernel(ec::kernelsFor(ec::Tier::Scalar), kind, want.data(),
              src.data(), c, n);
    if (std::memcmp(got.data(), want.data(), n) != 0) {
        std::cerr << "kernel mismatch: " << kindName(kind) << " tier "
                  << ec::tierName(k.tier) << " size " << n << "\n";
        std::exit(1);
    }
}

/**
 * Seconds per call of @p pass, timed until @p targetMs elapses after
 * a short warm-up (faults the pages, primes the GF tables and caches).
 */
template <class Pass>
double
secondsPerPass(Pass &&pass, double targetMs)
{
    for (int i = 0; i < 8; ++i)
        pass();

    using Clock = std::chrono::steady_clock;
    std::uint64_t passes = 0;
    double sec = 0.0;
    // Batches between clock reads, sized so each batch is ~1/16 of the
    // target: the clock overhead stays negligible at small n.
    std::uint64_t batch = 1;
    const auto start = Clock::now();
    for (;;) {
        for (std::uint64_t i = 0; i < batch; ++i)
            pass();
        passes += batch;
        sec = std::chrono::duration<double>(Clock::now() - start).count();
        if (sec * 1000.0 >= targetMs)
            break;
        const double perPass = sec / static_cast<double>(passes);
        const double remaining = targetMs / 1000.0 / 16.0;
        batch = perPass > 0.0
                    ? static_cast<std::uint64_t>(remaining / perPass) + 1
                    : batch * 2;
    }
    return sec / static_cast<double>(passes);
}

/** Measured throughput of one (kernel, tier, size) cell, GB/s. */
double
measure(const ec::Kernels &k, Kind kind, std::size_t n, double targetMs,
        std::uint64_t *checksum)
{
    ec::BufferPool pool(n, 4);
    ec::BufferLease dst(pool), src(pool);
    fill(src.get(), n, 0x5eed);
    fill(dst.get(), n, 0xd1ce);
    const std::uint8_t c = 0x8e;
    const double perPass = secondsPerPass(
        [&] { runKernel(k, kind, dst.get(), src.get(), c, n); }, targetMs);
    *checksum += dst.get()[n / 2];
    return static_cast<double>(n) / perPass / 1e9;
}

/** Unit size the checkCombine row is priced at: the 4 KB stripe unit
 * of the paper's array. */
constexpr std::size_t kCombineUnitBytes = 4096;

/** Cost of one verify-mode checkCombine over a G-disk stripe's G-1
 * survivors, ns per call. */
double
measureCheckCombine(int g, double targetMs)
{
    ec::DataPlane plane(ec::DataPlaneMode::Verify, kCombineUnitBytes);
    std::vector<std::uint64_t> vals(static_cast<std::size_t>(g - 1));
    fill(reinterpret_cast<std::uint8_t *>(vals.data()),
         vals.size() * sizeof(std::uint64_t), 0xc0de);
    std::uint64_t expected = 0;
    for (std::uint64_t v : vals)
        expected ^= v;
    return secondsPerPass(
               [&] {
                   plane.checkCombine("bench", vals.data(), g - 1,
                                      expected);
               },
               targetMs) *
           1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("Measure XOR/GF(256) kernel throughput per dispatch "
                 "tier and buffer size");
    opts.add("sizes", "1024,4096,16384,65536,262144",
             "comma-separated buffer sizes in bytes");
    opts.add("target-ms", "200",
             "measurement time per (kernel, tier, size) cell, ms");
    opts.add("json", "",
             "write the machine-readable calibration record (BENCH_7)");
    opts.addFlag("csv", "emit csv");
    if (!opts.parse(argc, argv))
        return 1;

    std::vector<std::size_t> sizes;
    {
        const std::string text = opts.getString("sizes");
        std::size_t pos = 0;
        while (pos <= text.size()) {
            std::size_t comma = text.find(',', pos);
            if (comma == std::string::npos)
                comma = text.size();
            const std::string token = text.substr(pos, comma - pos);
            pos = comma + 1;
            if (!token.empty())
                sizes.push_back(
                    static_cast<std::size_t>(std::stoull(token)));
        }
    }
    const double targetMs =
        static_cast<double>(opts.getInt("target-ms"));

    std::vector<ec::Tier> tiers;
    for (int t = 0; t < ec::kTierCount; ++t)
        if (ec::tierSupported(static_cast<ec::Tier>(t)))
            tiers.push_back(static_cast<ec::Tier>(t));

    std::cout << "cpu features: " << ec::cpuFeatureString()
              << "   dispatched tier: "
              << ec::tierName(ec::activeTier()) << "\n";

    std::vector<std::string> header{"kernel", "tier"};
    for (std::size_t n : sizes)
        header.push_back(std::to_string(n) + "B GB/s");
    TablePrinter table(header);

    JsonObject results;
    std::uint64_t checksum = 0;
    const Kind kinds[] = {Kind::Xor, Kind::GfMul, Kind::GfMulAdd,
                          Kind::Expand};
    for (Kind kind : kinds) {
        for (ec::Tier tier : tiers) {
            const ec::Kernels &k = ec::kernelsFor(tier);
            std::vector<std::string> row{kindName(kind),
                                         ec::tierName(tier)};
            JsonObject perTier;
            for (std::size_t n : sizes) {
                verifyTier(k, kind, n);
                const double gbps =
                    measure(k, kind, n, targetMs, &checksum);
                char buf[32];
                std::snprintf(buf, sizeof buf, "%.2f", gbps);
                row.push_back(buf);
                perTier.set(std::to_string(n), gbps);
            }
            table.addRow(std::move(row));
            results.set(std::string(kindName(kind)) + "/" +
                            ec::tierName(tier),
                        std::move(perTier));
        }
    }
    TablePrinter combineTable({"checkCombine", "tier", "G", "ns/call"});
    JsonObject combineNs;
    for (int g : {4, 21}) {
        const double ns = measureCheckCombine(g, targetMs);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f", ns);
        combineTable.addRow({std::to_string(kCombineUnitBytes) + "B",
                             ec::tierName(ec::activeTier()),
                             std::to_string(g), buf});
        combineNs.set(std::to_string(g), ns);
    }
    if (opts.getFlag("csv")) {
        table.printCsv(std::cout);
        combineTable.printCsv(std::cout);
    } else {
        table.print(std::cout);
        std::cout << "\n";
        combineTable.print(std::cout);
    }

    const std::string path = opts.getString("json");
    if (!path.empty()) {
        JsonObject record;
        record.set("bench", "bench_ec_kernels")
            .set("cpu_features", ec::cpuFeatureString())
            .set("ec_tier", ec::tierName(ec::activeTier()))
            .set("gf_poly", static_cast<std::int64_t>(ec::kGfPoly))
            .set("target_ms", targetMs)
            .set("checksum", checksum)
            .set("gbps", std::move(results))
            .set("check_combine_unit_bytes",
                 static_cast<std::int64_t>(kCombineUnitBytes))
            .set("check_combine_ns", std::move(combineNs));
        std::ofstream file(path);
        if (!file) {
            std::cerr << "bench_ec_kernels: cannot write " << path
                      << "\n";
            return 1;
        }
        record.write(file);
    }
    return 0;
}
