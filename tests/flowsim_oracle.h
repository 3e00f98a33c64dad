#ifndef GNNPART_TESTS_FLOWSIM_ORACLE_H_
#define GNNPART_TESTS_FLOWSIM_ORACLE_H_

#include <vector>

#include "net/flowsim.h"
#include "net/topology.h"

namespace gnnpart {
namespace net {
namespace oracle {

/// Reference max-min fair-share engine: same contract as
/// net::SimulateFlows (flowsim.h), computed by rescanning every active
/// flow in each water-fill round. Slow, simple, and the bit-exact
/// definition the indexed engine must reproduce.
std::vector<double> SimulateFlows(const Fabric& fabric,
                                  const std::vector<Flow>& flows,
                                  LinkUsage* usage, PhaseLog* log = nullptr);

}  // namespace oracle
}  // namespace net
}  // namespace gnnpart

#endif  // GNNPART_TESTS_FLOWSIM_ORACLE_H_
