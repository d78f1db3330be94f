#pragma once

#include <string>
#include <vector>

#include "analysis/context_graph.hpp"
#include "wcet/ipet.hpp"

namespace ucp::wcet {

/// A dual solution of the Li/Malik IPET's LP relaxation (DESIGN.md §9.5):
/// a potential per context node and a price per loop instance. With it, a
/// WcetResult's τ_w is proved optimal in linear time and exact integer
/// arithmetic, without a solver.
///
/// Every edge u -> v pays the weight of v, the potential difference
/// h_v - h_u and a loop price: a back edge into the REST header of
/// instance i pays -β_i, any other edge into that header (a FIRST-to-REST
/// entry) earns (bound_i - 2)·β_i. Halt nodes have h >= 0, and the
/// virtual source arc pays the entry's weight. The bound rows
/// n(rest) <= (bound-1)·n(first) get the price 0.
struct IpetCertificate {
  /// h_v per context node: the longest priced tail from v to a halt node.
  std::vector<__int128> potential;
  /// β_i per loop instance (graph.loop_instances() order): its largest
  /// priced REST cycle; 0 for an instance without a REST node.
  std::vector<__int128> loop_price;
};

/// The first Li/Malik IPET constraint `result`'s flow violates, or "" when
/// it is a feasible integral flow: node counts equal inflows, flow is
/// conserved (one unit from the source into the entry, out through the
/// halt nodes' sink arcs), every VIVU loop bound and anti-circulation row
/// holds, and Σ ref_cycles · node_counts reproduces tau_mem exactly.
std::string ipet_flow_violation(const analysis::ContextGraph& graph,
                                const WcetResult& result);

/// The certificate behind `result`, built from the graph and the result's
/// weights alone (it never looks at the counts or at how they were found).
/// Linear in the graph per loop-nesting level; a result that is not ok
/// gets an empty certificate, which certificate_violation rejects.
IpetCertificate make_certificate(const analysis::ContextGraph& graph,
                                 const WcetResult& result);

/// "" when `cert` proves `result` optimal, else the first failed check:
///  - the counts are a feasible flow of value τ_w (ipet_flow_violation);
///  - every β_i >= 0, every halt node's h >= 0, and every edge's reduced
///    cost w_to + h_to - h_from + price is <= 0;
///  - w_entry + h_entry == τ_w.
/// The last two bound every feasible flow of the LP relaxation by
/// w_entry + h_entry (weak duality), so a feasible flow that reaches it is
/// optimal, for the ILP as well. All arithmetic is exact (__int128).
std::string certificate_violation(const analysis::ContextGraph& graph,
                                  const WcetResult& result,
                                  const IpetCertificate& cert);

}  // namespace ucp::wcet
