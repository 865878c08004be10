// Simulated time: seconds on the cluster simulator's clock (docs/DESIGN.md
// §2), as opposed to wall time on the host running the simulation.
#pragma once

namespace s2c2::sim {

using Time = double;

}  // namespace s2c2::sim
