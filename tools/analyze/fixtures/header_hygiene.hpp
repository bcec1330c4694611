// Fixture: header hygiene. No pragma-once directive anywhere in this
// file, so the file-level rule fires (on line 1) too.
// EXPECT-ANALYZE: header-pragma-once

#include "../sim/time.hpp" // EXPECT-ANALYZE: include-relative

using namespace std; // EXPECT-ANALYZE: header-using-namespace

namespace fixture {

inline int
fixtureValue()
{
    return 42;
}

} // namespace fixture
