#include "match/rete.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "match/alpha_index.h"
#include "match/naive_matcher.h"
#include "match/treat.h"
#include "util/logging.h"

namespace dbps {
namespace rete {

struct Token;
struct WmeInfo;
class TokenHolder;
class NegativeNode;

/// A test an alpha memory applies to a single WME.
struct AlphaTest {
  enum class Kind : uint8_t { kConstant, kIntraField, kMember };
  Kind kind;
  size_t field;
  TestPredicate pred = TestPredicate::kEq;  // kConstant / kIntraField
  Value value;                              // kConstant
  size_t other_field = 0;                   // kIntraField
  std::vector<Value> members;               // kMember

  bool Eval(const Wme& wme) const {
    switch (kind) {
      case Kind::kConstant:
        return EvalPredicate(pred, wme.value(field), value);
      case Kind::kIntraField:
        return EvalPredicate(pred, wme.value(field),
                             wme.value(other_field));
      case Kind::kMember:
        for (const auto& candidate : members) {
          if (wme.value(field) == candidate) return true;
        }
        return false;
    }
    return false;
  }

  std::string Key() const {
    std::string out = std::to_string(field);
    switch (kind) {
      case Kind::kConstant:
        out += TestPredicateToString(pred);
        out += "c" + value.ToString();
        break;
      case Kind::kIntraField:
        out += TestPredicateToString(pred);
        out += "f" + std::to_string(other_field);
        break;
      case Kind::kMember:
        out += "in{";
        for (const auto& candidate : members) {
          out += candidate.ToString() + ",";
        }
        out += "}";
        break;
    }
    return out;
  }
};

/// A variable-consistency test a join/negative node applies between the
/// candidate WME and an earlier token's WME.
struct BetaTest {
  size_t field;       // field of the candidate WME
  TestPredicate pred;
  size_t levels_up;   // parent steps from the *left token* to the other WME
  size_t other_field;
};

/// Right-input listener: joins and negative nodes.
class AlphaSuccessor {
 public:
  virtual ~AlphaSuccessor() = default;
  virtual void OnWmeAdded(WmeInfo* info) = 0;
};

struct AlphaMemory {
  std::vector<AlphaTest> tests;
  SymbolId relation;
  /// Items currently passing the tests, with their network bookkeeping.
  std::unordered_map<const Wme*, WmeInfo*> items;
  /// One hash index per field an equality join test probes; declared by
  /// Network::Build before any WME arrives, kept in step with `items`.
  std::deque<AlphaIndex> indexes;
  /// Descendant-first order (deeper nodes first) — required so a shared
  /// alpha memory does not produce duplicate matches within one rule.
  std::vector<AlphaSuccessor*> successors;

  bool Matches(const Wme& wme) const {
    for (const auto& test : tests) {
      if (!test.Eval(wme)) return false;
    }
    return true;
  }

  AlphaIndex* IndexOn(size_t field) {
    for (AlphaIndex& index : indexes) {
      if (index.field() == field) return &index;
    }
    DBPS_CHECK(items.empty()) << "index declared after WMEs arrived";
    return &indexes.emplace_back(field);
  }
};

struct NegJoinResult {
  Token* owner;
  WmeInfo* blocker;
};

/// A token's place in one intrusive list.
struct TokenLinks {
  Token* prev = nullptr;
  Token* next = nullptr;
};

/// An intrusive doubly-linked list of tokens threaded through the
/// `kLinks` member of each token (Doorenbos ch. 2): append and unlink are
/// O(1) and keep the order of the remaining tokens, so a list walks in
/// creation order exactly as the vectors it replaced did.
template <TokenLinks Token::*kLinks>
class TokenList {
 public:
  class Iterator {
   public:
    explicit Iterator(Token* t) : t_(t) {}
    Token* operator*() const { return t_; }
    Iterator& operator++() {
      t_ = (t_->*kLinks).next;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return t_ != other.t_; }

   private:
    Token* t_;
  };

  bool empty() const { return head_ == nullptr; }
  Token* back() const { return tail_; }
  Iterator begin() const { return Iterator(head_); }
  Iterator end() const { return Iterator(nullptr); }

  void PushBack(Token* t) {
    TokenLinks& links = t->*kLinks;
    links.prev = tail_;
    links.next = nullptr;
    (tail_ != nullptr ? (tail_->*kLinks).next : head_) = t;
    tail_ = t;
  }

  void Erase(Token* t) {
    TokenLinks& links = t->*kLinks;
    (links.prev != nullptr ? (links.prev->*kLinks).next : head_) =
        links.next;
    (links.next != nullptr ? (links.next->*kLinks).prev : tail_) =
        links.prev;
  }

  size_t size() const {  // walks the list: for stats only
    size_t n = 0;
    for (Token* t = head_; t != nullptr; t = (t->*kLinks).next) ++n;
    return n;
  }

 private:
  Token* head_ = nullptr;
  Token* tail_ = nullptr;
};

struct Token {
  Token* parent = nullptr;
  /// Null for the dummy token and negative-node tokens. `info` keeps the
  /// version alive: a WME's tokens die before its WmeInfo does.
  const Wme* wme = nullptr;
  WmeInfo* info = nullptr;
  TokenHolder* holder = nullptr;
  TokenLinks holder_links;  // in holder->tokens; the free list when dead
  TokenLinks wme_links;     // in info->tokens
  TokenLinks child_links;   // in parent->children
  TokenList<&Token::child_links> children;
  /// Only for negative-node tokens: the WMEs currently blocking them.
  std::vector<NegJoinResult*> join_results;
  /// Only for tokens that reached a production node: the instantiation
  /// it put in the conflict set, withdrawn when the token leaves.
  InstPtr inst;
};

/// Left-input listener: joins, negative nodes, production nodes.
class Successor {
 public:
  virtual ~Successor() = default;
  /// `t` was added to (and is active in) the upstream holder.
  virtual void OnTokenAdded(Token* t) = 0;
  /// `t` is leaving the upstream holder (or became blocked).
  virtual void OnTokenRemoved(Token* t) = 0;
};

/// Common base of BetaMemory and NegativeNode: stores tokens and forwards
/// activation events to successors.
class TokenHolder {
 public:
  virtual ~TokenHolder() = default;

  /// True iff `t` currently propagates downstream (negative nodes block
  /// tokens that have join results).
  virtual bool TokenActive(const Token* t) const {
    (void)t;
    return true;
  }

  TokenList<&Token::holder_links> tokens;
  std::vector<Successor*> successors;
};

class BetaMemory : public TokenHolder {};

/// Per-WME bookkeeping; owned by Network::wme_infos_, whose nodes do not
/// move, so alpha memories and tokens point at it directly.
struct WmeInfo {
  WmePtr wme;
  std::vector<AlphaMemory*> amems;
  TokenList<&Token::wme_links> tokens;      // BM tokens whose wme this is
  std::vector<NegJoinResult*> neg_results;  // results blocking neg tokens
};

/// Erases `result` from `v`, searching from the back: join results mostly
/// die in reverse order of creation.
inline void EraseFromBack(std::vector<NegJoinResult*>* v,
                          NegJoinResult* result) {
  auto it = std::find(v->rbegin(), v->rend(), result);
  DBPS_DCHECK(it != v->rend());
  v->erase(std::next(it).base());
}

class Network {
 public:
  ~Network();

  /// `catalog` only names index key fields in ToDot.
  Status Build(RuleSetPtr rules, ConflictSet* conflict_set,
               const Catalog& catalog);
  void AddWme(const WmePtr& wme);
  void RemoveWme(const Wme* wme);
  /// Sizes the alpha memories and indexes over `relation` for `rows`
  /// WMEs before the initial load, so they do not rehash while filling.
  void Reserve(SymbolId relation, size_t rows);

  ReteMatcher::Stats GetStats() const;
  std::string ToDot() const;

  // --- token plumbing (used by the node classes) ---

  /// Takes a dead token from the free list, or allocates one.
  Token* MakeToken(TokenHolder* holder, Token* parent, WmeInfo* info) {
    Token* t = free_tokens_;
    if (t != nullptr) {
      free_tokens_ = t->holder_links.next;
    } else {
      t = new Token();
    }
    t->parent = parent;
    t->holder = holder;
    if (parent != nullptr) parent->children.PushBack(t);
    holder->tokens.PushBack(t);
    t->wme = info != nullptr ? info->wme.get() : nullptr;
    t->info = info;
    if (info != nullptr) info->tokens.PushBack(t);
    return t;
  }

  void AddNegJoinResult(Token* owner, WmeInfo* blocker) {
    auto* result = new NegJoinResult{owner, blocker};
    owner->join_results.push_back(result);
    blocker->neg_results.push_back(result);
  }

  /// Deletes t and its whole subtree, notifying production nodes.
  void DeleteToken(Token* t) {
    DeleteDescendants(t);
    for (Successor* s : t->holder->successors) s->OnTokenRemoved(t);
    CleanupToken(t);
  }

  /// Deletes only t's descendants (used when a negative token becomes
  /// blocked: the token itself stays, its downstream matches die).
  void DeleteDescendants(Token* t) {
    while (!t->children.empty()) DeleteToken(t->children.back());
  }

 private:
  /// Unlinks t (whose subtree is already gone) and puts it on the free
  /// list; join_results keeps its capacity for the next owner.
  void CleanupToken(Token* t) {
    DBPS_DCHECK(t->children.empty() && t->inst == nullptr);
    for (NegJoinResult* result : t->join_results) {
      EraseFromBack(&result->blocker->neg_results, result);
      delete result;
    }
    t->join_results.clear();
    t->holder->tokens.Erase(t);
    if (t->info != nullptr) t->info->tokens.Erase(t);
    if (t->parent != nullptr) t->parent->children.Erase(t);
    t->holder_links.next = free_tokens_;
    free_tokens_ = t;
  }

  AlphaMemory* GetOrCreateAlphaMemory(SymbolId relation,
                                      std::vector<AlphaTest> tests);

  RuleSetPtr rules_;
  BetaMemory* dummy_bm_ = nullptr;
  Token* dummy_token_ = nullptr;
  /// Dead tokens, linked through holder_links.next, reused by MakeToken.
  Token* free_tokens_ = nullptr;

  std::vector<std::unique_ptr<AlphaMemory>> alpha_memories_;
  std::unordered_map<SymbolId, std::vector<AlphaMemory*>> alpha_by_relation_;
  std::unordered_map<std::string, AlphaMemory*> alpha_by_key_;

  std::vector<std::unique_ptr<BetaMemory>> beta_memories_;
  std::vector<std::unique_ptr<class JoinNode>> join_nodes_;
  std::vector<std::unique_ptr<NegativeNode>> negative_nodes_;
  std::vector<std::unique_ptr<class ProductionNode>> production_nodes_;

  std::unordered_map<const Wme*, WmeInfo> wme_infos_;

  friend class ReteMatcherTestPeer;
};

/// Walks `n` parent links up from `t`.
inline const Token* WalkUp(const Token* t, size_t n) {
  while (n-- > 0) {
    DBPS_DCHECK(t->parent != nullptr);
    t = t->parent;
  }
  return t;
}

/// Evaluates beta tests for candidate `wme` against the chain ending in
/// left token `t`.
inline bool PassesBetaTests(const std::vector<BetaTest>& tests,
                            const Token* t, const Wme& wme) {
  for (const auto& test : tests) {
    const Token* other = WalkUp(t, test.levels_up);
    DBPS_DCHECK(other->wme != nullptr);
    if (!EvalPredicate(test.pred, wme.value(test.field),
                       other->wme->value(test.other_field))) {
      return false;
    }
  }
  return true;
}

/// The right input of a join or negative node: an alpha memory and the
/// beta tests a candidate WME must pass against a left token. With an
/// index, a left activation visits only the bucket of the first kEq
/// test's value; without one (no equality test) it scans the memory.
struct RightInput {
  AlphaMemory* amem = nullptr;
  std::vector<BetaTest> tests;
  AlphaIndex* index = nullptr;  // keyed on tests[key].field, or null
  size_t key = 0;
  std::string index_label;  // "relation.field" of the index, for ToDot

  /// Calls fn(info) for every WME in the memory that passes the tests
  /// against the chain ending in `t`.
  template <typename Fn>
  void ForEachMatch(const Token* t, Fn&& fn) const {
    if (index == nullptr) {
      for (const auto& [raw, info] : amem->items) {
        if (PassesBetaTests(tests, t, *raw)) fn(info);
      }
      return;
    }
    const BetaTest& probe = tests[key];
    const Value& value =
        WalkUp(t, probe.levels_up)->wme->value(probe.other_field);
    for (const Wme* raw : index->Probe(value)) {
      if (PassesBetaTests(tests, t, *raw)) fn(amem->items.at(raw));
    }
  }
};

class JoinNode : public Successor, public AlphaSuccessor {
 public:
  JoinNode(Network* network, TokenHolder* left, RightInput right,
           BetaMemory* child)
      : network_(network),
        left_(left),
        right_(std::move(right)),
        child_(child) {}

  void OnTokenAdded(Token* t) override {
    right_.ForEachMatch(t, [&](WmeInfo* info) { Emit(t, info); });
  }

  void OnTokenRemoved(Token* t) override {
    (void)t;  // subtree deletion removes the child tokens directly
  }

  void OnWmeAdded(WmeInfo* info) override {
    for (Token* t : left_->tokens) {
      if (left_->TokenActive(t) &&
          PassesBetaTests(right_.tests, t, *info->wme)) {
        Emit(t, info);
      }
    }
  }

  TokenHolder* left() const { return left_; }
  BetaMemory* child() const { return child_; }
  const RightInput& right() const { return right_; }

 private:
  void Emit(Token* t, WmeInfo* info) {
    Token* child_token = network_->MakeToken(child_, t, info);
    for (Successor* s : child_->successors) s->OnTokenAdded(child_token);
  }

  Network* network_;
  TokenHolder* left_;
  RightInput right_;
  BetaMemory* child_;
};

class NegativeNode : public TokenHolder,
                     public Successor,
                     public AlphaSuccessor {
 public:
  NegativeNode(Network* network, RightInput right)
      : network_(network), right_(std::move(right)) {}

  bool TokenActive(const Token* t) const override {
    return t->join_results.empty();
  }

  // Left activation: upstream produced token `left`; store our own token
  // and propagate it iff nothing in the alpha memory blocks it.
  void OnTokenAdded(Token* left) override {
    Token* t = network_->MakeToken(this, left, nullptr);
    right_.ForEachMatch(
        t, [&](WmeInfo* info) { network_->AddNegJoinResult(t, info); });
    if (t->join_results.empty()) {
      for (Successor* s : successors) s->OnTokenAdded(t);
    }
  }

  void OnTokenRemoved(Token* t) override {
    (void)t;  // subtree deletion handles our tokens
  }

  // Right activation: a WME entered the alpha memory; newly blocked
  // tokens lose their downstream matches.
  void OnWmeAdded(WmeInfo* info) override {
    for (Token* t : tokens) {
      if (!PassesBetaTests(right_.tests, t, *info->wme)) continue;
      const bool was_active = t->join_results.empty();
      network_->AddNegJoinResult(t, info);
      if (was_active) {
        network_->DeleteDescendants(t);
        for (Successor* s : successors) s->OnTokenRemoved(t);
      }
    }
  }

  /// Called by the network when a blocking WME vanished and `t` has no
  /// join results left: the token becomes visible downstream again.
  void Reactivate(Token* t) {
    for (Successor* s : successors) s->OnTokenAdded(t);
  }

  const RightInput& right() const { return right_; }

 private:
  Network* network_;
  RightInput right_;
};

class ProductionNode : public Successor {
 public:
  ProductionNode(RulePtr rule, ConflictSet* conflict_set,
                 std::vector<size_t> positive_levels)
      : rule_(std::move(rule)),
        conflict_set_(conflict_set),
        positive_levels_(std::move(positive_levels)) {}

  void OnTokenAdded(Token* t) override {
    // Collect the positive-CE WMEs along the chain. positive_levels_[i]
    // is the number of parent steps from t to positive CE i's token.
    std::vector<WmePtr> matched;
    matched.reserve(positive_levels_.size());
    for (size_t levels : positive_levels_) {
      const Token* holder_token = WalkUp(t, levels);
      DBPS_DCHECK(holder_token->info != nullptr);
      matched.push_back(holder_token->info->wme);
    }
    t->inst = std::make_shared<Instantiation>(rule_, std::move(matched));
    conflict_set_->Activate(t->inst);
  }

  void OnTokenRemoved(Token* t) override {
    if (t->inst == nullptr) return;  // token never reached us (blocked)
    conflict_set_->Deactivate(t->inst->key());
    t->inst.reset();
  }

 private:
  RulePtr rule_;
  ConflictSet* conflict_set_;
  std::vector<size_t> positive_levels_;
};

Network::~Network() {
  if (dummy_token_ != nullptr) {
    DeleteDescendants(dummy_token_);
    CleanupToken(dummy_token_);
  }
  while (free_tokens_ != nullptr) {
    Token* t = free_tokens_;
    free_tokens_ = t->holder_links.next;
    delete t;
  }
}

AlphaMemory* Network::GetOrCreateAlphaMemory(SymbolId relation,
                                             std::vector<AlphaTest> tests) {
  // Canonicalize so structurally equal CEs share one memory.
  std::sort(tests.begin(), tests.end(),
            [](const AlphaTest& a, const AlphaTest& b) {
              return a.Key() < b.Key();
            });
  std::string key = SymName(relation);
  for (const auto& test : tests) key += "|" + test.Key();
  auto it = alpha_by_key_.find(key);
  if (it != alpha_by_key_.end()) return it->second;

  auto amem = std::make_unique<AlphaMemory>();
  amem->relation = relation;
  amem->tests = std::move(tests);
  AlphaMemory* raw = amem.get();
  alpha_memories_.push_back(std::move(amem));
  alpha_by_relation_[relation].push_back(raw);
  alpha_by_key_.emplace(std::move(key), raw);
  return raw;
}

Status Network::Build(RuleSetPtr rules, ConflictSet* conflict_set,
                      const Catalog& catalog) {
  rules_ = std::move(rules);

  auto dummy = std::make_unique<BetaMemory>();
  dummy_bm_ = dummy.get();
  beta_memories_.push_back(std::move(dummy));
  dummy_token_ = MakeToken(dummy_bm_, nullptr, nullptr);

  for (const auto& rule : rules_->rules()) {
    TokenHolder* current = dummy_bm_;
    size_t chain_len = 0;                     // tokens below dummy so far
    std::vector<size_t> positive_chain_pos;   // chain index per positive CE
    // A rule that *starts* with negated CEs needs its first negative
    // node left-activated with the dummy token once the whole chain is
    // built (joins find existing left tokens lazily; negative nodes do
    // not).
    NegativeNode* leading_negative = nullptr;

    for (const auto& cond : rule->conditions()) {
      // Alpha part: constant + intra tests.
      std::vector<AlphaTest> alpha_tests;
      for (const auto& test : cond.constant_tests) {
        alpha_tests.push_back(AlphaTest{AlphaTest::Kind::kConstant,
                                        test.field, test.pred, test.value,
                                        0,
                                        {}});
      }
      for (const auto& test : cond.intra_tests) {
        alpha_tests.push_back(AlphaTest{AlphaTest::Kind::kIntraField,
                                        test.field, test.pred,
                                        Value::Nil(), test.other_field,
                                        {}});
      }
      for (const auto& test : cond.member_tests) {
        alpha_tests.push_back(AlphaTest{AlphaTest::Kind::kMember,
                                        test.field, TestPredicate::kEq,
                                        Value::Nil(), 0, test.values});
      }
      AlphaMemory* amem =
          GetOrCreateAlphaMemory(cond.relation, std::move(alpha_tests));

      // Beta part: join tests with levels_up computed from the left token
      // (which represents the chain of length `chain_len`) for joins, or
      // from the negative node's own token (length chain_len+1) for
      // negations.
      const size_t left_len = cond.negated ? chain_len + 1 : chain_len;
      std::vector<BetaTest> beta_tests;
      for (const auto& test : cond.join_tests) {
        DBPS_CHECK_LT(test.other_ce, positive_chain_pos.size());
        size_t levels_up = left_len - 1 - positive_chain_pos[test.other_ce];
        beta_tests.push_back(
            BetaTest{test.field, test.pred, levels_up, test.other_field});
      }
      RightInput right;
      right.amem = amem;
      right.tests = std::move(beta_tests);
      right.key = FirstEqTest(right.tests);
      if (right.key < right.tests.size()) {
        const size_t field = right.tests[right.key].field;
        right.index = amem->IndexOn(field);
        right.index_label = SymName(cond.relation) + ".";
        auto schema = catalog.GetRelation(cond.relation);
        right.index_label +=
            schema.ok() && field < schema.ValueOrDie()->arity()
                ? SymName(schema.ValueOrDie()->attrs()[field].name)
                : std::to_string(field);
      }

      if (cond.negated) {
        auto neg = std::make_unique<NegativeNode>(this, std::move(right));
        NegativeNode* raw = neg.get();
        negative_nodes_.push_back(std::move(neg));
        current->successors.push_back(raw);
        amem->successors.insert(amem->successors.begin(), raw);
        if (current == dummy_bm_) leading_negative = raw;
        current = raw;
        ++chain_len;
      } else {
        auto bm = std::make_unique<BetaMemory>();
        BetaMemory* bm_raw = bm.get();
        beta_memories_.push_back(std::move(bm));
        auto join = std::make_unique<JoinNode>(this, current,
                                               std::move(right), bm_raw);
        JoinNode* join_raw = join.get();
        join_nodes_.push_back(std::move(join));
        current->successors.push_back(join_raw);
        amem->successors.insert(amem->successors.begin(), join_raw);
        positive_chain_pos.push_back(chain_len);
        current = bm_raw;
        ++chain_len;
      }
    }

    // Production node: levels from the final token to each positive CE.
    std::vector<size_t> positive_levels;
    positive_levels.reserve(positive_chain_pos.size());
    for (size_t pos : positive_chain_pos) {
      positive_levels.push_back(chain_len - 1 - pos);
    }
    auto pnode = std::make_unique<ProductionNode>(
        rule, conflict_set, std::move(positive_levels));
    current->successors.push_back(pnode.get());
    production_nodes_.push_back(std::move(pnode));

    if (leading_negative != nullptr) {
      leading_negative->OnTokenAdded(dummy_token_);
    }
  }
  return Status::OK();
}

void Network::AddWme(const WmePtr& wme) {
  auto [it, inserted] =
      wme_infos_.emplace(wme.get(), WmeInfo{wme, {}, {}, {}});
  DBPS_CHECK(inserted) << "WME version added twice: " << wme->ToString();
  WmeInfo* info = &it->second;
  auto rel_it = alpha_by_relation_.find(wme->relation());
  if (rel_it == alpha_by_relation_.end()) return;
  for (AlphaMemory* amem : rel_it->second) {
    if (!amem->Matches(*wme)) continue;
    amem->items.emplace(wme.get(), info);
    for (AlphaIndex& index : amem->indexes) index.Insert(wme.get());
    info->amems.push_back(amem);
    for (AlphaSuccessor* s : amem->successors) s->OnWmeAdded(info);
  }
}

void Network::RemoveWme(const Wme* wme) {
  auto it = wme_infos_.find(wme);
  if (it == wme_infos_.end()) return;  // never matched anything

  // (1) Make the WME invisible to all joins/negations first, so token
  //     reactivations below cannot re-match it.
  for (AlphaMemory* amem : it->second.amems) {
    amem->items.erase(wme);
    for (AlphaIndex& index : amem->indexes) index.Erase(wme);
  }

  // (2) Kill every token built on this WME (and their subtrees).
  while (!it->second.tokens.empty()) {
    DeleteToken(it->second.tokens.back());
  }

  // (3) Unblock negative tokens this WME was blocking. The token list is
  //     re-read because step 2 may have cleaned some results already.
  while (!it->second.neg_results.empty()) {
    NegJoinResult* result = it->second.neg_results.back();
    it->second.neg_results.pop_back();
    Token* owner = result->owner;
    auto& owned = owner->join_results;
    owned.erase(std::find(owned.begin(), owned.end(), result));
    delete result;
    if (owned.empty()) {
      static_cast<NegativeNode*>(owner->holder)->Reactivate(owner);
    }
  }

  wme_infos_.erase(it);
}

void Network::Reserve(SymbolId relation, size_t rows) {
  auto it = alpha_by_relation_.find(relation);
  if (it == alpha_by_relation_.end()) return;
  for (AlphaMemory* amem : it->second) {
    amem->items.reserve(rows);
    for (AlphaIndex& index : amem->indexes) index.Reserve(rows);
  }
}

ReteMatcher::Stats Network::GetStats() const {
  ReteMatcher::Stats stats;
  stats.alpha_memories = alpha_memories_.size();
  stats.beta_memories = beta_memories_.size();
  stats.join_nodes = join_nodes_.size();
  stats.negative_nodes = negative_nodes_.size();
  stats.production_nodes = production_nodes_.size();
  for (const auto& join : join_nodes_) {
    stats.indexed_nodes += join->right().index != nullptr;
  }
  for (const auto& neg : negative_nodes_) {
    stats.indexed_nodes += neg->right().index != nullptr;
  }
  for (const auto& bm : beta_memories_) stats.tokens += bm->tokens.size();
  for (const auto& neg : negative_nodes_) stats.tokens += neg->tokens.size();
  stats.wmes = wme_infos_.size();
  return stats;
}

std::string Network::ToDot() const {
  std::ostringstream out;
  out << "digraph rete {\n  rankdir=TB;\n";
  std::unordered_map<const void*, std::string> names;
  auto name_of = [&](const void* node, const std::string& prefix) {
    auto it = names.find(node);
    if (it != names.end()) return it->second;
    std::string name = prefix + std::to_string(names.size());
    names.emplace(node, name);
    return name;
  };
  for (const auto& amem : alpha_memories_) {
    std::string name = name_of(amem.get(), "alpha");
    out << "  " << name << " [shape=box,label=\"alpha "
        << SymName(amem->relation) << " (" << amem->tests.size()
        << " tests)\"];\n";
    for (const AlphaSuccessor* s : amem->successors) {
      out << "  " << name << " -> " << name_of(s, "n")
          << " [style=dashed];\n";
    }
  }
  for (const auto& bm : beta_memories_) {
    out << "  " << name_of(bm.get(), "n")
        << " [shape=ellipse,label=\"beta\"];\n";
    for (const Successor* s : bm->successors) {
      out << "  " << name_of(bm.get(), "n") << " -> " << name_of(s, "n")
          << ";\n";
    }
  }
  // An indexed node's label names the field its alpha memory is probed
  // on: "join [guest.hobby]".
  auto label = [](const char* kind, const RightInput& right) {
    std::string out = kind;
    if (right.index != nullptr) out += " [" + right.index_label + "]";
    return out;
  };
  for (const auto& join : join_nodes_) {
    out << "  " << name_of(join.get(), "n") << " [shape=diamond,label=\""
        << label("join", join->right()) << "\"];\n";
    out << "  " << name_of(join.get(), "n") << " -> "
        << name_of(join->child(), "n") << ";\n";
  }
  for (const auto& neg : negative_nodes_) {
    out << "  " << name_of(neg.get(), "n") << " [shape=diamond,label=\""
        << label("neg", neg->right()) << "\"];\n";
    for (const Successor* s : neg->successors) {
      out << "  " << name_of(neg.get(), "n") << " -> " << name_of(s, "n")
          << ";\n";
    }
  }
  for (const auto& pnode : production_nodes_) {
    out << "  " << name_of(pnode.get(), "n")
        << " [shape=doublecircle,label=\"prod\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace rete

ReteMatcher::ReteMatcher() : network_(std::make_unique<rete::Network>()) {}
ReteMatcher::~ReteMatcher() = default;

Status ReteMatcher::Initialize(RuleSetPtr rules, const WorkingMemory& wm) {
  return InitializeAt(std::move(rules), wm.SnapshotAt());
}

Status ReteMatcher::InitializeAt(RuleSetPtr rules, const WmSnapshot& snap) {
  DBPS_RETURN_NOT_OK(
      network_->Build(std::move(rules), &conflict_set_, snap.catalog()));
  for (SymbolId relation : snap.catalog().relation_names()) {
    const std::vector<WmePtr> rows = snap.Scan(relation);
    network_->Reserve(relation, rows.size());
    for (const WmePtr& wme : rows) network_->AddWme(wme);
  }
  return Status::OK();
}

void ReteMatcher::ApplyChange(const WmChange& change) {
  for (const WmePtr& wme : change.removed) network_->RemoveWme(wme.get());
  for (const WmePtr& wme : change.added) network_->AddWme(wme);
}

void ReteMatcher::ApplyChanges(const std::vector<WmChange>& changes) {
  // One pass: every removal leaves the network before any addition joins,
  // so an added WME never pairs with a dying version from a sibling
  // change. Sound because batch members are pairwise disjoint (no change
  // removes a version another adds); within one change the removed/added
  // pairing of a modify is preserved as in ApplyChange.
  for (const WmChange& change : changes) {
    for (const WmePtr& wme : change.removed) network_->RemoveWme(wme.get());
  }
  for (const WmChange& change : changes) {
    for (const WmePtr& wme : change.added) network_->AddWme(wme);
  }
}

ReteMatcher::Stats ReteMatcher::GetStats() const {
  return network_->GetStats();
}

std::string ReteMatcher::ToDot() const { return network_->ToDot(); }

const char* MatcherKindToString(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kRete:
      return "rete";
    case MatcherKind::kNaive:
      return "naive";
    case MatcherKind::kTreat:
      return "treat";
  }
  return "?";
}

std::unique_ptr<Matcher> CreateMatcher(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kRete:
      return std::make_unique<ReteMatcher>();
    case MatcherKind::kNaive:
      return std::make_unique<NaiveMatcher>();
    case MatcherKind::kTreat:
      return std::make_unique<TreatMatcher>();
  }
  return nullptr;
}

}  // namespace dbps
