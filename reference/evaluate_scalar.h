// Frozen scalar references for the placement evaluators.
//
// Verbatim copies of place::true_total_delay / estimated_total_delay as they
// stood before the performance layer (heap-allocating, pointer-chasing,
// sequential). The equivalence tests and bench/micro_perf pin the fast
// paths against them: byte-identical totals at one thread, 1e-9 relative
// agreement across thread counts. Same contracts as placement/evaluate.h.
// Do not "optimize" these.
#pragma once

#include <vector>

#include "placement/types.h"

namespace geored::place {

double true_total_delay_scalar(const topo::Topology& topology, const Placement& placement,
                               const std::vector<ClientRecord>& clients,
                               std::size_t quorum = 1);
double estimated_total_delay_scalar(const Placement& placement,
                                    const std::vector<CandidateInfo>& candidates,
                                    const std::vector<ClientRecord>& clients,
                                    std::size_t quorum = 1);

}  // namespace geored::place
