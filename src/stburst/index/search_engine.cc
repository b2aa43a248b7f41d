#include "stburst/index/search_engine.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "stburst/common/logging.h"

namespace stburst {

double Relevance(double term_frequency) { return std::log(term_frequency + 1.0); }

BurstySearchEngine::BurstySearchEngine(const Collection* collection,
                                       SearchEngineOptions options)
    : collection_(collection), options_(options) {}

BurstySearchEngine BurstySearchEngine::Build(const Collection& collection,
                                             const PatternIndex& patterns,
                                             SearchEngineOptions options) {
  BurstySearchEngine engine(&collection, options);

  std::vector<TermId> distinct;
  for (const Document& doc : collection.documents()) {
    // Distinct terms of the document with their frequencies.
    distinct = doc.tokens;
    std::sort(distinct.begin(), distinct.end());
    for (size_t i = 0; i < distinct.size();) {
      size_t j = i;
      while (j < distinct.size() && distinct[j] == distinct[i]) ++j;
      TermId term = distinct[i];
      double burst_score;
      if (patterns.MaxOverlapScore(term, doc.stream, doc.time, &burst_score)) {
        double entry = Relevance(static_cast<double>(j - i)) * burst_score;
        if (entry > 0.0) engine.index_.Add(term, doc.id, entry);
      }
      i = j;
    }
  }
  engine.index_.Finalize();
  return engine;
}

void AppendDocPostings(const Collection& collection, DocId first,
                       std::vector<std::vector<DocCount>>* lists) {
  std::vector<TermId> distinct;
  const DocId base = collection.doc_id_base();
  for (size_t i = static_cast<size_t>(first - base);
       i < collection.num_documents(); ++i) {
    const Document& doc = collection.documents()[i];
    distinct = doc.tokens;
    std::sort(distinct.begin(), distinct.end());
    for (size_t a = 0; a < distinct.size();) {
      size_t b = a;
      while (b < distinct.size() && distinct[b] == distinct[a]) ++b;
      const TermId term = distinct[a];
      if (term >= lists->size()) lists->resize(term + 1);
      (*lists)[term].push_back(
          DocCount{doc.id, static_cast<uint32_t>(b - a)});
      a = b;
    }
  }
}

DocCellTable DocCellTable::Build(const Collection& collection) {
  DocCellTable table;
  table.base = collection.doc_id_base();
  table.cells.reserve(collection.num_documents());
  for (const Document& doc : collection.documents()) {
    table.cells.push_back(DocCell{doc.stream, doc.time});
  }
  return table;
}

template <typename Pattern>
void StreamPatternIndex::ResetImpl(std::span<const Pattern> patterns) {
  if (++stamp_ == 0) {  // wrapped: stale stamps could alias the new one
    for (StreamSlot& slot : slots_) slot.stamp = 0;
    stamp_ = 1;
  }
  touched_.clear();
  entries_.clear();
  // Pass 1: per-stream entry counts (parked in `end`) and timeframe hulls.
  for (const Pattern& p : patterns) {
    if (!p.timeframe.valid()) continue;
    for (const StreamId s : p.streams) {
      if (s >= slots_.size()) slots_.resize(static_cast<size_t>(s) + 1);
      StreamSlot& slot = slots_[s];
      if (slot.stamp != stamp_) {
        slot = StreamSlot{stamp_, 0, 0, p.timeframe.start, p.timeframe.end};
        touched_.push_back(s);
      }
      ++slot.end;
      slot.lo = std::min(slot.lo, p.timeframe.start);
      slot.hi = std::max(slot.hi, p.timeframe.end);
    }
  }
  // Counts to ranges, then pass 2 fills each range in pattern order.
  uint32_t offset = 0;
  for (const StreamId s : touched_) {
    StreamSlot& slot = slots_[s];
    const uint32_t count = slot.end;
    slot.begin = offset;
    slot.end = offset;
    offset += count;
  }
  entries_.resize(offset);
  for (const Pattern& p : patterns) {
    if (!p.timeframe.valid()) continue;
    for (const StreamId s : p.streams) {
      entries_[slots_[s].end++] =
          Entry{p.timeframe.start, p.timeframe.end, p.score};
    }
  }
}

void StreamPatternIndex::Reset(std::span<const CombinatorialPattern> patterns) {
  ResetImpl(patterns);
}

void StreamPatternIndex::Reset(std::span<const SpatiotemporalWindow> patterns) {
  ResetImpl(patterns);
}

bool StreamPatternIndex::MaxOverlapScore(StreamId stream, Timestamp time,
                                         double* score) const {
  if (stream >= slots_.size()) return false;
  const StreamSlot& slot = slots_[stream];
  if (slot.stamp != stamp_ || time < slot.lo || time > slot.hi) return false;
  // The same fold as stburst::MaxOverlapScore over the patterns listing
  // this stream, in their list order.
  bool any = false;
  double best = 0.0;
  for (uint32_t i = slot.begin; i < slot.end; ++i) {
    const Entry& e = entries_[i];
    if (time < e.start || time > e.end) continue;
    if (!any || e.score > best) best = e.score;
    any = true;
  }
  if (any) *score = best;
  return any;
}

namespace {

// Relevance of the small counts nearly every doc-level entry carries, from
// the same Relevance call (std::log at run time) that Build makes per
// document, so every product stays bit-identical (the parity tests compare
// them) while the kernel skips a log per posting.
constexpr uint32_t kSmallCounts = 64;

const std::array<double, kSmallCounts>& SmallCountRelevance() {
  static const std::array<double, kSmallCounts> table = [] {
    std::array<double, kSmallCounts> t{};
    for (uint32_t c = 0; c < kSmallCounts; ++c) {
      t[c] = Relevance(static_cast<double>(c));
    }
    return t;
  }();
  return table;
}

}  // namespace

void ScoreDocPostings(const DocCellTable& cells, std::span<const DocCount> docs,
                      const StreamPatternIndex& patterns,
                      std::vector<Posting>* out) {
  if (patterns.empty()) return;  // no pattern can overlap: no postings
  const std::array<double, kSmallCounts>& small = SmallCountRelevance();
  const auto live = std::lower_bound(
      docs.begin(), docs.end(), cells.base,
      [](const DocCount& e, DocId doc) { return e.doc < doc; });
  // Entries are in DocId order, so the documents of one (stream, time) cell
  // that carry the term are usually adjacent: reuse the last cell's overlap
  // score.
  DocCell last{kInvalidStream, 0};
  bool cell_hit = false;
  double burst_score = 0.0;
  for (auto it = live; it != docs.end(); ++it) {
    STB_DCHECK(it->doc - cells.base < cells.cells.size())
        << "doc-level entry past the cell table";
    const DocCell& cell = cells.cells[it->doc - cells.base];
    if (cell.stream != last.stream || cell.time != last.time) {
      last = cell;
      cell_hit = patterns.MaxOverlapScore(cell.stream, cell.time, &burst_score);
    }
    if (!cell_hit) continue;
    const double relevance = it->count < kSmallCounts
                                 ? small[it->count]
                                 : Relevance(static_cast<double>(it->count));
    const double score = relevance * burst_score;
    if (score > 0.0) out->push_back(Posting{it->doc, score});
  }
}

TopKResult BurstySearchEngine::Search(const std::string& query, size_t k) const {
  return Search(tokenizer_.TokenizeFrozen(query, collection_->vocabulary()), k);
}

TopKResult BurstySearchEngine::Search(const std::vector<TermId>& query,
                                      size_t k) const {
  if (options_.use_threshold_algorithm) {
    return ThresholdTopK(index_, query, k);
  }
  return ExhaustiveTopK(index_, query, k);
}

}  // namespace stburst
