#include "serving/trace_io.h"

#include <cstring>
#include <vector>

#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/check.h"

namespace hs::serving {

namespace {

constexpr char kMagic[8] = {'H', 'S', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 40;
constexpr size_t kRecordBytes = 16;  // f64 arrival_time + f64 size

}  // namespace

void save_trace_binary(const std::string& path,
                       const RecordedTrace& recorded) {
  const auto& jobs = recorded.trace.jobs();
  util::ByteWriter out;
  out.reserve(kHeaderBytes + kRecordBytes * jobs.size());
  out.bytes(kMagic, sizeof(kMagic));
  out.u32(kVersion);
  out.u32(0);  // reserved
  out.u64(recorded.seed);
  out.u64(recorded.recorded_unix_nanos);
  out.u64(jobs.size());
  for (const auto& job : jobs) {
    out.f64(job.arrival_time);
    out.f64(job.size);
  }

  // Atomic publish (temp + fsync + rename): a crash mid-save leaves
  // either the previous file or the complete new one, never a torn mix.
  const std::vector<uint8_t> bytes = out.take();
  util::write_file_atomic(path, bytes.data(), bytes.size());
}

RecordedTrace load_trace_binary(const std::string& path) {
  const std::vector<uint8_t> bytes = util::read_file(path);
  HS_CHECK(bytes.size() >= kHeaderBytes,
           "trace file too short (" << bytes.size() << " bytes): " << path);
  util::ByteReader in(bytes, path);
  HS_CHECK(std::memcmp(in.bytes(sizeof(kMagic)).data(), kMagic,
                       sizeof(kMagic)) == 0,
           "bad magic — not a hetsched trace file: " << path);
  const uint32_t version = in.u32();
  HS_CHECK(version == kVersion, "unsupported trace format version "
                                    << version << " in " << path);
  (void)in.u32();  // reserved
  RecordedTrace recorded;
  recorded.seed = in.u64();
  recorded.recorded_unix_nanos = in.u64();
  const uint64_t count = in.u64();
  // Bound first so the length identity below cannot wrap on a corrupt
  // (astronomical) count before it is compared.
  HS_CHECK(count <= in.remaining() / kRecordBytes,
           "trace header claims more records than the file could hold: "
               << count << " in " << path);
  HS_CHECK(in.remaining() == kRecordBytes * count,
           "trace payload length mismatch: header claims "
               << count << " records but file holds "
               << in.remaining() / kRecordBytes << ": " << path);

  std::vector<queueing::Job> jobs;
  jobs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const double arrival_time = in.f64();
    jobs.push_back(queueing::Job{i, arrival_time, in.f64()});
  }
  // JobTrace's constructor re-validates ordering and positivity, so a
  // corrupted payload that passes the length check still fails loudly.
  recorded.trace = workload::JobTrace(std::move(jobs));
  return recorded;
}

}  // namespace hs::serving
