#include "stburst/index/threshold_algorithm.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "stburst/common/logging.h"

namespace stburst {

namespace {

std::vector<TermId> DedupeQuery(const std::vector<TermId>& query) {
  std::vector<TermId> terms = query;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

std::vector<ScoredDoc> SortAndTruncate(
    std::unordered_map<DocId, double>&& scores, size_t k) {
  std::vector<ScoredDoc> docs;
  docs.reserve(scores.size());
  for (const auto& [doc, score] : scores) {
    if (score > 0.0) docs.push_back(ScoredDoc{doc, score});
  }
  std::sort(docs.begin(), docs.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (docs.size() > k) docs.resize(k);
  return docs;
}

}  // namespace

TopKResult ThresholdTopK(const InvertedIndex& index,
                         const std::vector<TermId>& query, size_t k) {
  TopKResult result;
  result.generation = index.generation();
  if (k == 0) return result;
  std::vector<TermId> terms = DedupeQuery(query);
  if (terms.empty()) return result;

  // Resolve each term's frozen list once: random accesses then go straight
  // to its binary search.
  std::vector<const TermList*> term_lists;
  std::vector<const std::vector<Posting>*> lists;
  term_lists.reserve(terms.size());
  lists.reserve(terms.size());
  for (TermId t : terms) {
    term_lists.push_back(index.list(t));
    lists.push_back(&index.postings(t));
  }

  std::vector<size_t> pos(lists.size(), 0);
  std::unordered_map<DocId, double> candidates;
  size_t expected = 0;
  for (const auto* list : lists) expected += list->size();
  candidates.reserve(std::min(expected, size_t{1} << 16));

  // Bounded min-heap over the current top-k scores: O(log k) per offer with
  // contiguous storage, versus the node-per-score multiset it replaces.
  std::priority_queue<double, std::vector<double>, std::greater<double>> best_k;

  auto offer = [&](double score) {
    if (best_k.size() < k) {
      best_k.push(score);
    } else if (score > best_k.top()) {
      best_k.pop();
      best_k.push(score);
    }
  };

  for (;;) {
    bool advanced = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] >= lists[i]->size()) continue;
      const Posting& p = (*lists[i])[pos[i]];
      ++pos[i];
      ++result.sorted_accesses;
      advanced = true;
      if (candidates.find(p.doc) != candidates.end()) continue;
      // Complete the document's aggregate with random accesses.
      double total = 0.0;
      for (size_t j = 0; j < lists.size(); ++j) {
        double s = 0.0;
        if (j == i) {
          s = p.score;
        } else {
          ++result.random_accesses;
          if (term_lists[j] == nullptr || !term_lists[j]->Score(p.doc, &s)) {
            s = 0.0;
          }
        }
        total += s;
      }
      candidates.emplace(p.doc, total);
      offer(total);
    }
    if (!advanced) break;  // every list exhausted: exact result

    // Threshold from the new frontier. Exhausted lists contribute 0 (a doc
    // absent from a list scores 0 there).
    double threshold = 0.0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i]->size()) threshold += (*lists[i])[pos[i]].score;
    }
    // Strictly greater: an unseen document can still tie the k-th score
    // when it equals the threshold, and a smaller DocId then wins the tie.
    if (best_k.size() == k && best_k.top() > threshold) {
      result.early_terminated = true;
      break;
    }
    if (threshold <= 0.0 && best_k.size() == k) {
      result.early_terminated = true;
      break;
    }
  }

  result.docs = SortAndTruncate(std::move(candidates), k);
  return result;
}

TopKResult ShardedThresholdTopK(const std::vector<ShardedTermList>& lists,
                                size_t k, uint64_t generation) {
  TopKResult result;
  result.generation = generation;
  if (k == 0 || lists.empty()) return result;

  static const std::vector<Posting> kNoPostings;
  std::vector<const TermList*> term_lists;
  std::vector<const std::vector<Posting>*> postings;
  term_lists.reserve(lists.size());
  postings.reserve(lists.size());
  for (const ShardedTermList& l : lists) {
    term_lists.push_back(l.index != nullptr ? l.index->list(l.term) : nullptr);
    postings.push_back(term_lists.back() != nullptr
                           ? &term_lists.back()->by_score()
                           : &kNoPostings);
  }

  // Global id of a shard-local posting: O(1) through the ascending doc map.
  const auto to_global = [&](size_t i, DocId local) {
    const ShardedTermList& l = lists[i];
    return (*l.doc_map)[static_cast<size_t>(local - l.local_base)];
  };
  // Shard-local id of a global doc in list j's shard, or false when the
  // document was never routed there (it then carries none of that shard's
  // terms, so it scores 0 for the term — the same 0 the unsharded index
  // reports for a doc with no posting).
  const auto to_local = [&](size_t j, DocId global, DocId* local) {
    const ShardedTermList& l = lists[j];
    if (l.doc_map == nullptr) return false;
    const auto it =
        std::lower_bound(l.doc_map->begin(), l.doc_map->end(), global);
    if (it == l.doc_map->end() || *it != global) return false;
    *local = l.local_base +
             static_cast<DocId>(std::distance(l.doc_map->begin(), it));
    return true;
  };

  std::vector<size_t> pos(lists.size(), 0);
  std::unordered_map<DocId, double> candidates;
  size_t expected = 0;
  for (const auto* list : postings) expected += list->size();
  candidates.reserve(std::min(expected, size_t{1} << 16));

  std::priority_queue<double, std::vector<double>, std::greater<double>> best_k;
  auto offer = [&](double score) {
    if (best_k.size() < k) {
      best_k.push(score);
    } else if (score > best_k.top()) {
      best_k.pop();
      best_k.push(score);
    }
  };

  // The ThresholdTopK loop verbatim, over translated ids. The per-shard
  // frontier scores compose the global threshold by plain summation in list
  // order — the property that lets a distributed coordinator bound global
  // termination from per-shard partial thresholds without ever merging full
  // lists — and summing in list order keeps the floats bit-identical to the
  // unsharded run.
  for (;;) {
    bool advanced = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] >= postings[i]->size()) continue;
      const Posting& p = (*postings[i])[pos[i]];
      ++pos[i];
      ++result.sorted_accesses;
      advanced = true;
      const DocId global = to_global(i, p.doc);
      if (candidates.find(global) != candidates.end()) continue;
      double total = 0.0;
      for (size_t j = 0; j < lists.size(); ++j) {
        double s = 0.0;
        if (j == i) {
          s = p.score;
        } else {
          ++result.random_accesses;
          DocId local = 0;
          if (term_lists[j] == nullptr || !to_local(j, global, &local) ||
              !term_lists[j]->Score(local, &s)) {
            s = 0.0;
          }
        }
        total += s;
      }
      candidates.emplace(global, total);
      offer(total);
    }
    if (!advanced) break;

    double threshold = 0.0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < postings[i]->size()) {
        threshold += (*postings[i])[pos[i]].score;
      }
    }
    // Strictly greater: an unseen document can still tie the k-th score
    // when it equals the threshold, and a smaller DocId then wins the tie.
    if (best_k.size() == k && best_k.top() > threshold) {
      result.early_terminated = true;
      break;
    }
    if (threshold <= 0.0 && best_k.size() == k) {
      result.early_terminated = true;
      break;
    }
  }

  result.docs = SortAndTruncate(std::move(candidates), k);
  return result;
}

TopKResult ExhaustiveTopK(const InvertedIndex& index,
                          const std::vector<TermId>& query, size_t k) {
  TopKResult result;
  result.generation = index.generation();
  if (k == 0) return result;
  std::vector<TermId> terms = DedupeQuery(query);
  std::unordered_map<DocId, double> scores;
  size_t expected = 0;
  for (TermId t : terms) expected += index.postings(t).size();
  scores.reserve(std::min(expected, size_t{1} << 16));
  for (TermId t : terms) {
    for (const Posting& p : index.postings(t)) {
      scores[p.doc] += p.score;
      ++result.sorted_accesses;
    }
  }
  result.docs = SortAndTruncate(std::move(scores), k);
  return result;
}

}  // namespace stburst
