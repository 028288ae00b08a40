#ifndef LIMBO_CORE_DCF_STREAM_H_
#define LIMBO_CORE_DCF_STREAM_H_

#include <span>
#include <vector>

#include "core/dcf.h"
#include "obs/counters.h"
#include "relation/row_source.h"
#include "relation/source_stats.h"
#include "util/result.h"

namespace limbo::core {

/// A rewindable stream of clustering objects — what the streamed LIMBO
/// pipeline consumes instead of a materialized std::vector<Dcf>. A
/// consumer pulls bounded chunks until an empty span comes back, then
/// calls Reset before the next scan. Chunking is a memory knob only:
/// every chunk size and every consumer thread count must produce
/// bit-identical results (each object's Dcf is a pure function of its
/// row, and all order-sensitive reductions happen in stream order).
class DcfStream {
 public:
  virtual ~DcfStream() = default;

  /// Total number of objects the stream yields per scan.
  virtual size_t size() const = 0;

  /// The next at-most-`max_objects` objects, or an empty span at end of
  /// scan. The span is valid until the next NextChunk/Reset call.
  virtual util::Result<std::span<const Dcf>> NextChunk(
      size_t max_objects) = 0;

  /// Rewinds to the first object.
  virtual util::Status Reset() = 0;
};

/// Objects per chunk when a scan is asked for chunk size 0.
inline constexpr size_t kDefaultStreamChunk = 4096;

/// One full scan of `objects`: `fn(chunk, base)` sees every chunk of at
/// most `chunk_size` objects (0 = kDefaultStreamChunk) in stream order,
/// `base` being the stream index of the chunk's first object; then the
/// stream rewinds so the next scan starts at object 0. This is the only
/// full pass over a DcfStream: each one that reaches the end of the
/// stream adds 1 to the work counter `dcf_stream.scans`, streamed or
/// materialized, at every chunk size.
template <typename Fn>
util::Status ScanChunks(DcfStream& objects, size_t chunk_size, Fn&& fn) {
  if (chunk_size == 0) chunk_size = kDefaultStreamChunk;
  size_t base = 0;
  while (true) {
    LIMBO_ASSIGN_OR_RETURN(std::span<const Dcf> chunk,
                           objects.NextChunk(chunk_size));
    if (chunk.empty()) break;
    fn(chunk, base);
    base += chunk.size();
  }
  LIMBO_OBS_COUNT("dcf_stream.scans", 1);
  return objects.Reset();
}

/// Zero-copy adapter over a materialized object vector: chunks are
/// subspans of the caller's storage, so the vector entry points pay
/// nothing for routing through the streamed pipeline. `objects` must
/// outlive the stream.
class VectorDcfStream final : public DcfStream {
 public:
  explicit VectorDcfStream(std::span<const Dcf> objects)
      : objects_(objects) {}

  size_t size() const override { return objects_.size(); }
  util::Result<std::span<const Dcf>> NextChunk(size_t max_objects) override;
  util::Status Reset() override {
    next_ = 0;
    return util::Status::Ok();
  }

 private:
  std::span<const Dcf> objects_;
  size_t next_ = 0;
};

/// Decodes tuple objects (Section 5.2: p = 1/n, p(V|t) uniform over the
/// row's value ids) one chunk at a time from a RowSource, given frozen
/// stats (schema + dictionary + row count) from a counting pass or a
/// sidecar file. Only the current chunk of Dcfs plus one text row are
/// resident. Fails if a row holds a value absent from the frozen
/// dictionary or if the source yields a different row count than the
/// stats promise (a stale sidecar). `source` and `stats` must outlive
/// the stream.
class TupleObjectStream final : public DcfStream {
 public:
  TupleObjectStream(relation::RowSource& source,
                    const relation::SourceStats& stats)
      : source_(&source), stats_(&stats) {}

  size_t size() const override { return stats_->num_rows; }
  util::Result<std::span<const Dcf>> NextChunk(size_t max_objects) override;
  util::Status Reset() override;

 private:
  relation::RowSource* source_;
  const relation::SourceStats* stats_;
  size_t yielded_ = 0;  // rows decoded in the current scan
  std::vector<Dcf> chunk_;
  std::vector<std::string> fields_;
  std::vector<uint32_t> ids_;
};

}  // namespace limbo::core

#endif  // LIMBO_CORE_DCF_STREAM_H_
