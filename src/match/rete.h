// ReteMatcher: incremental production matching via a Rete network
// [FORG82], in the style of Doorenbos' "Production Matching for Large
// Learning Systems".
//
// Structure
//   * Alpha network: per relation, shared alpha memories holding the WMEs
//     that pass a condition element's constant and intra-WME tests.
//   * Beta network: a left-deep chain per rule. Positive CEs contribute a
//     JoinNode (variable-consistency tests against earlier CEs) feeding a
//     BetaMemory of tokens; negated CEs contribute a NegativeNode that
//     stores tokens with their "blocking" join results and only propagates
//     tokens with zero results. A ProductionNode at the end of each chain
//     maintains the rule's instantiations in the conflict set.
//   * Hashed alpha memories (Doorenbos ch. 2): when a join or negative
//     node has an equality test `field == <var bound earlier>`, its alpha
//     memory keeps a hash index on that field (alpha_index.h), and a left
//     activation visits only the bucket of the token's value for the
//     first such test. Nodes with no equality test scan the whole memory.
//     Either way every beta test is evaluated, so the index changes the
//     cost of a match, never its result.
//   * Tokens (Doorenbos ch. 2): each token sits on three intrusive
//     doubly-linked lists — its holder's tokens, its WME's tokens and its
//     parent's children — so deleting one unlinks it in O(1). Lists keep
//     creation order and subtrees are deleted from the back, which fixes
//     the activation order (and with it kFifo/kRandom picks). A dead
//     token goes on the network's free list for MakeToken to reuse; a
//     token that reached a production node carries the Instantiation it
//     put in the conflict set, and withdraws it when it dies.
//
// Incrementality: ApplyChange feeds individual WME version removals and
// additions; tokens are created/deleted along the way. A left activation
// costs the size of the probed bucket (or of the alpha memory, for the
// scan fallback); a right activation scans the node's left tokens, which
// have no index.

#ifndef DBPS_MATCH_RETE_H_
#define DBPS_MATCH_RETE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "match/matcher.h"

namespace dbps {
namespace rete {
class Network;
}  // namespace rete

class ReteMatcher : public Matcher {
 public:
  ReteMatcher();
  ~ReteMatcher() override;

  Status Initialize(RuleSetPtr rules, const WorkingMemory& wm) override;
  Status InitializeAt(RuleSetPtr rules, const WmSnapshot& snap) override;
  void ApplyChange(const WmChange& change) override;
  void ApplyChanges(const std::vector<WmChange>& changes) override;

  /// Network shape / size counters (for tests and benches).
  struct Stats {
    size_t alpha_memories = 0;
    size_t beta_memories = 0;
    size_t join_nodes = 0;
    size_t negative_nodes = 0;
    /// Join/negative nodes whose left activations probe an alpha-memory
    /// hash index instead of scanning the memory.
    size_t indexed_nodes = 0;
    size_t production_nodes = 0;
    size_t tokens = 0;
    size_t wmes = 0;
  };
  Stats GetStats() const;

  std::string ToDot() const;  ///< Graphviz dump of the network shape.

 private:
  std::unique_ptr<rete::Network> network_;
};

}  // namespace dbps

#endif  // DBPS_MATCH_RETE_H_
