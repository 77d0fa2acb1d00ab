#include "delta/delta_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/crc32.h"

namespace asti {

namespace {

Status Bad(const std::string& path, const std::string& msg) {
  return Status::InvalidArgument("delta '" + path + "': " + msg);
}

}  // namespace

Status WriteDeltaBinary(const EdgeDelta& delta, const std::string& path) {
  ASM_RETURN_NOT_OK(ValidateDelta(delta));

  std::vector<DeltaOpRecord> records;
  records.reserve(delta.ops.size());
  for (const DeltaOp& op : delta.ops) {
    DeltaOpRecord record{};
    record.kind = static_cast<uint32_t>(op.kind);
    record.source = op.source;
    record.target = op.target;
    record.probability = op.kind == DeltaOpKind::kDelete ? 0.0 : op.probability;
    records.push_back(record);
  }

  DeltaFileHeader header{};
  std::memcpy(header.magic, kDeltaMagic, sizeof(header.magic));
  header.version = kDeltaVersion;
  header.op_count = records.size();
  header.base_digest = delta.base_digest;
  header.result_digest = delta.result_digest;
  header.ops_crc = Crc32(records.data(), records.size() * sizeof(DeltaOpRecord));
  header.header_crc = 0;
  header.header_crc = Crc32(&header, sizeof(header));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open '" + tmp + "' for writing");
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(records.data()),
              static_cast<std::streamsize>(records.size() * sizeof(DeltaOpRecord)));
    if (!out) return Status::IOError("short write to '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename '" + tmp + "' -> '" + path + "': " + ec.message());
  }
  return Status::OK();
}

StatusOr<EdgeDelta> ReadDeltaBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  if (bytes.size() < sizeof(DeltaFileHeader)) {
    return Bad(path, "only " + std::to_string(bytes.size()) + " bytes, need " +
                         std::to_string(sizeof(DeltaFileHeader)) + " (truncated?)");
  }
  DeltaFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kDeltaMagic, sizeof(header.magic)) != 0) {
    return Bad(path, "bad magic (not an ASMD delta)");
  }
  if (header.version != kDeltaVersion) {
    return Bad(path, "unsupported delta version " + std::to_string(header.version) +
                         " (this build reads version " +
                         std::to_string(kDeltaVersion) + ")");
  }
  DeltaFileHeader crc_check = header;
  crc_check.header_crc = 0;
  if (Crc32(&crc_check, sizeof(crc_check)) != header.header_crc) {
    return Bad(path, "header CRC mismatch");
  }
  // Bound the count by the payload size before multiplying, so a corrupt
  // op_count cannot wrap the size arithmetic below.
  const size_t max_ops = (bytes.size() - sizeof(DeltaFileHeader)) / sizeof(DeltaOpRecord);
  if (header.op_count > max_ops) {
    return Bad(path, "header claims " + std::to_string(header.op_count) +
                         " ops but the payload holds at most " +
                         std::to_string(max_ops));
  }
  const uint64_t want = sizeof(DeltaFileHeader) + header.op_count * sizeof(DeltaOpRecord);
  if (bytes.size() != want) {
    return Bad(path, "file is " + std::to_string(bytes.size()) + " bytes, header says " +
                         std::to_string(want));
  }
  const char* payload = bytes.data() + sizeof(DeltaFileHeader);
  const size_t payload_bytes = header.op_count * sizeof(DeltaOpRecord);
  if (Crc32(payload, payload_bytes) != header.ops_crc) {
    return Bad(path, "op payload CRC mismatch");
  }

  EdgeDelta delta;
  delta.base_digest = header.base_digest;
  delta.result_digest = header.result_digest;
  delta.ops.reserve(header.op_count);
  for (uint64_t i = 0; i < header.op_count; ++i) {
    DeltaOpRecord record;
    std::memcpy(&record, payload + i * sizeof(DeltaOpRecord), sizeof(record));
    if (record.kind > static_cast<uint32_t>(DeltaOpKind::kReweight)) {
      return Bad(path, "op " + std::to_string(i) + " has unknown kind " +
                           std::to_string(record.kind));
    }
    DeltaOp op;
    op.kind = static_cast<DeltaOpKind>(record.kind);
    op.source = record.source;
    op.target = record.target;
    op.probability = record.probability;
    delta.ops.push_back(op);
  }
  const Status valid = ValidateDelta(delta);
  if (!valid.ok()) return Bad(path, valid.message());
  return delta;
}

StatusOr<EdgeDelta> LoadDeltaFile(const std::string& path) {
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open '" + path + "'");
    char magic[4] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() == sizeof(magic) &&
        std::memcmp(magic, kDeltaMagic, sizeof(magic)) == 0) {
      return ReadDeltaBinary(path);
    }
  }
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  StatusOr<EdgeDelta> parsed = ParseDeltaText(buffer.str());
  if (!parsed.ok()) {
    return Status(parsed.status().code(), "delta '" + path + "': " +
                                              parsed.status().message());
  }
  return parsed;
}

}  // namespace asti
