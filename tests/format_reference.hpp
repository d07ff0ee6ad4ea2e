// Oracle for common/format.hpp: the shortest-round-trip formatter as it
// was first written -- print with printf's %.*g at precision 6, read the
// string back with scanf, and step the precision up until the value comes
// back exactly (17 digits always does for a finite double). It costs a
// dozen libc calls per number, which is why the library no longer uses
// it, and it is obviously correct, which is why it is the reference.
// tests/format_round_trip_test.cpp holds the library's formatter to these
// bytes.
#pragma once

#include <cstdio>
#include <string>

namespace treesat::reference {

inline std::string shortest_round_trip(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

}  // namespace treesat::reference
