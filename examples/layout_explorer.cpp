/**
 * @file
 * Layout explorer: prints the parity layout of a small array the way
 * the paper's figures 2-1/2-3/4-2 do, audits it against the six layout
 * criteria of section 4.1, and shows which block design the selection
 * policy picked.
 *
 * Usage: layout_explorer [C] [G] [rows]
 *   C     number of disks (default 5)
 *   G     parity stripe size, G <= C; G == C prints RAID 5 (default 4)
 *   rows  stripe-unit offsets to print (default 8)
 */
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/array_sim.hpp"
#include "designs/select.hpp"
#include "layout/criteria.hpp"
#include "layout/declustered.hpp"
#include "layout/left_symmetric.hpp"
#include "util/table.hpp"

namespace {

using namespace declust;

std::string
cellFor(const Layout &lay, int disk, int offset)
{
    const auto su = lay.invert(disk, offset);
    if (!su)
        return "--";
    const bool parity = su->pos == lay.stripeWidth() - 1;
    std::string cell(parity ? "P" : "D");
    cell += std::to_string(su->stripe);
    if (!parity) {
        cell += '.';
        cell += std::to_string(su->pos);
    }
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    const int C = argc > 1 ? std::atoi(argv[1]) : 5;
    const int G = argc > 2 ? std::atoi(argv[2]) : 4;
    const int rows = argc > 3 ? std::atoi(argv[3]) : 8;

    if (C < 3 || G < 3 || G > C) {
        std::cerr << "need 3 <= G <= C\n";
        return 1;
    }

    std::unique_ptr<Layout> lay;
    if (G == C) {
        std::cout << "left-symmetric RAID 5, C = G = " << C << "\n\n";
        lay = std::make_unique<LeftSymmetricLayout>(C, 1024);
    } else {
        const SelectedDesign sel = selectDesign(C, G);
        const BlockDesign &d = sel.design;
        std::cout << "design: " << d.name() << " via " << toString(sel.source)
                  << "  (b=" << d.b() << ", v=" << d.v() << ", k=" << d.k()
                  << ", r=" << d.r() << ", lambda=" << d.lambda()
                  << ", alpha=" << fmtDouble(d.alpha(), 3) << ")\n\n";
        lay = std::make_unique<DeclusteredLayout>(d, 1024);
    }

    // Print the layout table, figure-2-3 style.
    std::vector<std::string> headers = {"Offset"};
    for (int disk = 0; disk < C; ++disk)
        headers.push_back("DISK" + std::to_string(disk));
    TablePrinter table(std::move(headers));
    for (int off = 0; off < rows; ++off) {
        std::vector<std::string> row = {std::to_string(off)};
        for (int disk = 0; disk < C; ++disk)
            row.push_back(cellFor(*lay, disk, off));
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    // Audit against the paper's layout criteria.
    std::cout << "\nlayout criteria audit (section 4.1):\n"
              << auditLayout(*lay, 0.15).summary();
    return 0;
}
