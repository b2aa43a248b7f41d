#include "feed.h"

#include <cstring>
#include <utility>

#include "stburst/common/string_util.h"

namespace perfbench {

using stburst::Collection;
using stburst::DocId;
using stburst::Snapshot;
using stburst::SnapshotDocument;
using stburst::Status;
using stburst::StatusOr;
using stburst::StreamId;
using stburst::TermId;
using stburst::Timestamp;

stburst::TopixOptions CorpusOptions(uint64_t seed) {
  stburst::TopixOptions o;
  o.seed = seed;
  o.mean_docs_per_week = 6.0;
  o.background_vocab = 20000;
  o.use_mds = true;
  return o;
}

StatusOr<Collection> TimeSortedPrefix(const Collection& corpus,
                                      Timestamp weeks) {
  STB_ASSIGN_OR_RETURN(Collection out, Collection::Create(weeks));
  for (const auto& info : corpus.streams()) {
    out.AddStream(info.name, info.geo, info.position);
  }
  for (size_t t = 0; t < corpus.vocabulary().size(); ++t) {
    out.mutable_vocabulary()->Intern(
        corpus.vocabulary().TermOf(static_cast<TermId>(t)));
  }
  for (Timestamp w = 0; w < weeks; ++w) {
    for (StreamId s = 0; s < corpus.num_streams(); ++s) {
      for (DocId id : corpus.DocumentsAt(s, w)) {
        const stburst::Document& d = corpus.document(id);
        STB_ASSIGN_OR_RETURN(DocId added,
                             out.AddDocument(s, w, d.tokens, d.event_id));
        (void)added;
      }
    }
  }
  return out;
}

Snapshot PackedSnapshot::Unpack() const {
  Snapshot snap(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    snap[i].stream = streams[i];
    snap[i].tokens.assign(tokens.begin() + offsets[i],
                          tokens.begin() + offsets[i + 1]);
  }
  return snap;
}

PackedSnapshot WeekSnapshot(const Collection& corpus, Timestamp week) {
  PackedSnapshot packed;
  for (StreamId s = 0; s < corpus.num_streams(); ++s) {
    for (DocId id : corpus.DocumentsAt(s, week)) {
      const std::vector<TermId>& tokens = corpus.document(id).tokens;
      packed.streams.push_back(s);
      packed.tokens.insert(packed.tokens.end(), tokens.begin(), tokens.end());
      packed.offsets.push_back(static_cast<uint32_t>(packed.tokens.size()));
    }
  }
  return packed;
}

namespace {

Status CheckSameShape(const Collection& base, const Collection& other,
                      uint64_t seed) {
  const std::string where = stburst::StringPrintf(
      "corpus(seed %llu) ", static_cast<unsigned long long>(seed));
  if (other.vocabulary().size() != base.vocabulary().size()) {
    return Status::Internal(where + "vocabulary size differs");
  }
  for (size_t t = 0; t < base.vocabulary().size(); ++t) {
    const TermId id = static_cast<TermId>(t);
    if (other.vocabulary().TermOf(id) != base.vocabulary().TermOf(id)) {
      return Status::Internal(where + "vocabulary id differs: " +
                              base.vocabulary().TermOf(id));
    }
  }
  if (other.num_streams() != base.num_streams()) {
    return Status::Internal(where + "stream count differs");
  }
  for (StreamId s = 0; s < base.num_streams(); ++s) {
    if (other.stream(s).name != base.stream(s).name) {
      return Status::Internal(where + "stream differs: " +
                              base.stream(s).name);
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<ReplayFeed> BuildReplayFeed(uint64_t seed, size_t min_ticks) {
  STB_ASSIGN_OR_RETURN(stburst::TopixSimulator first,
                       stburst::TopixSimulator::Generate(CorpusOptions(seed)));
  const Collection& base = first.collection();
  STB_ASSIGN_OR_RETURN(Collection history,
                       TimeSortedPrefix(base, kHistoryWeeks));
  ReplayFeed feed{std::move(history), {}, {}};
  for (size_t e = 0; e < first.events().size(); ++e) {
    feed.event_queries.push_back(first.QueryTerms(e));
  }
  for (Timestamp w = kHistoryWeeks; w < base.timeline_length(); ++w) {
    feed.ticks.push_back(WeekSnapshot(base, w));
  }
  for (uint64_t next = seed + 1; feed.ticks.size() < min_ticks; ++next) {
    STB_ASSIGN_OR_RETURN(
        stburst::TopixSimulator sim,
        stburst::TopixSimulator::Generate(CorpusOptions(next)));
    STB_RETURN_NOT_OK(CheckSameShape(base, sim.collection(), next));
    for (Timestamp w = 0; w < sim.collection().timeline_length(); ++w) {
      feed.ticks.push_back(WeekSnapshot(sim.collection(), w));
    }
  }
  return feed;
}

namespace {

template <typename T>
void Put(std::string* out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

void PutString(std::string* out, const std::string& s) {
  Put<uint64_t>(out, s.size());
  out->append(s);
}

void PutTerms(std::string* out, const std::vector<TermId>& terms) {
  Put<uint64_t>(out, terms.size());
  for (TermId t : terms) Put(out, t);
}

}  // namespace

std::string SerializeFeed(const ReplayFeed& feed) {
  std::string out;
  const Collection& h = feed.history;
  Put<uint64_t>(&out, h.num_streams());
  for (const auto& info : h.streams()) {
    PutString(&out, info.name);
    Put(&out, info.geo.lat_deg);
    Put(&out, info.geo.lon_deg);
    Put(&out, info.position.x);
    Put(&out, info.position.y);
  }
  Put<uint64_t>(&out, h.vocabulary().size());
  for (size_t t = 0; t < h.vocabulary().size(); ++t) {
    PutString(&out, h.vocabulary().TermOf(static_cast<TermId>(t)));
  }
  Put(&out, h.timeline_length());
  Put<uint64_t>(&out, h.num_documents());
  for (const stburst::Document& d : h.documents()) {
    Put(&out, d.id);
    Put(&out, d.stream);
    Put(&out, d.time);
    Put(&out, d.event_id);
    PutTerms(&out, d.tokens);
  }
  Put<uint64_t>(&out, feed.ticks.size());
  for (const PackedSnapshot& tick : feed.ticks) {
    Put<uint64_t>(&out, tick.size());
    for (const SnapshotDocument& d : tick.Unpack()) {
      Put(&out, d.stream);
      Put(&out, d.event_id);
      PutTerms(&out, d.tokens);
    }
  }
  Put<uint64_t>(&out, feed.event_queries.size());
  for (const auto& q : feed.event_queries) PutTerms(&out, q);
  return out;
}

}  // namespace perfbench
