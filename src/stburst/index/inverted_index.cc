#include "stburst/index/inverted_index.h"

#include <algorithm>

#include "stburst/common/logging.h"

namespace stburst {

const std::vector<Posting> InvertedIndex::kEmpty;

namespace {

bool ScoreOrder(const Posting& a, const Posting& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

bool DocOrder(const Posting& a, const Posting& b) { return a.doc < b.doc; }

}  // namespace

std::shared_ptr<const TermList> TermList::Freeze(
    std::vector<Posting> postings) {
  if (postings.empty()) return nullptr;
  auto list = std::make_shared<TermList>(Key{});
  // The doc-ordered arrays first, while the input may still be in DocId
  // order; only out-of-order input pays a second sort.
  if (!std::is_sorted(postings.begin(), postings.end(), DocOrder)) {
    std::sort(postings.begin(), postings.end(), DocOrder);
  }
  list->docs_.reserve(postings.size());
  list->doc_scores_.reserve(postings.size());
  for (const Posting& p : postings) {
    list->docs_.push_back(p.doc);
    list->doc_scores_.push_back(p.score);
  }
  std::sort(postings.begin(), postings.end(), ScoreOrder);
  list->by_score_ = std::move(postings);
  return list;
}

std::shared_ptr<const TermList> TermList::DropBefore(DocId min_doc) const {
  const auto first = std::lower_bound(docs_.begin(), docs_.end(), min_doc);
  if (first == docs_.end()) return nullptr;
  // Survivors keep their relative order in both arrays: no re-sort.
  auto kept = std::make_shared<TermList>(Key{});
  kept->docs_.assign(first, docs_.end());
  kept->doc_scores_.assign(doc_scores_.begin() + (first - docs_.begin()),
                           doc_scores_.end());
  kept->by_score_.reserve(kept->docs_.size());
  for (const Posting& p : by_score_) {
    if (p.doc >= min_doc) kept->by_score_.push_back(p);
  }
  return kept;
}

bool TermList::Score(DocId doc, double* score) const {
  // Branchless lower bound: TA probes lists at unpredictable DocIds, so a
  // conditional move per halving beats std::lower_bound's mispredicted
  // branches. Invariant: the lower bound lies in [base, base + n].
  const DocId* base = docs_.data();
  size_t n = docs_.size();
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half] < doc ? base + half : base;
    n -= half;
  }
  const size_t pos = static_cast<size_t>(base - docs_.data()) +
                     (*base < doc ? 1 : 0);
  if (pos == docs_.size() || docs_[pos] != doc) return false;
  *score = doc_scores_[pos];
  return true;
}

void InvertedIndex::Add(TermId term, DocId doc, double score) {
  STB_CHECK(!finalized_) << "Add after Finalize";
  if (term >= pending_.size()) pending_.resize(term + 1);
  pending_[term].push_back(Posting{doc, score});
  ++total_postings_;
}

void InvertedIndex::Finalize() {
  if (finalized_) return;
  lists_.resize(pending_.size());
  for (size_t t = 0; t < pending_.size(); ++t) {
    lists_[t] = TermList::Freeze(std::move(pending_[t]));
  }
  pending_.clear();
  pending_.shrink_to_fit();
  finalized_ = true;
  generation_ = 1;
}

InvertedIndex InvertedIndex::Successor(
    std::span<const TermId> terms,
    std::vector<std::shared_ptr<const TermList>> lists) const {
  STB_CHECK(pending_.empty()) << "Successor of an index with unfrozen Add()s";
  STB_CHECK(terms.size() == lists.size()) << "terms and lists must align";
  InvertedIndex next;
  next.lists_ = lists_;
  next.total_postings_ = total_postings_;
  for (size_t i = 0; i < terms.size(); ++i) {
    const TermId t = terms[i];
    if (t >= next.lists_.size()) next.lists_.resize(t + 1);
    std::shared_ptr<const TermList>& slot = next.lists_[t];
    if (slot != nullptr) next.total_postings_ -= slot->size();
    slot = std::move(lists[i]);
    if (slot != nullptr) next.total_postings_ += slot->size();
  }
  next.finalized_ = true;
  next.generation_ = generation_ + 1;
  return next;
}

const TermList* InvertedIndex::list(TermId term) const {
  STB_CHECK(finalized_) << "list before Finalize";
  return term < lists_.size() ? lists_[term].get() : nullptr;
}

const std::vector<Posting>& InvertedIndex::postings(TermId term) const {
  const TermList* l = list(term);
  return l != nullptr ? l->by_score() : kEmpty;
}

bool InvertedIndex::Score(TermId term, DocId doc, double* score) const {
  const TermList* l = list(term);
  return l != nullptr && l->Score(doc, score);
}

}  // namespace stburst
