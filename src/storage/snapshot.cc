#include "storage/snapshot.h"

#include <utility>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/fileio.h"
#include "storage/format.h"

namespace sqo::storage {
namespace {

std::string EncodeStoreSection(const engine::ObjectStore& store) {
  BinaryWriter writer;
  writer.PutU64(store.next_oid());
  writer.PutU64(store.object_count());
  store.ForEachObject([&writer](sqo::Oid oid, const std::string& relation,
                                engine::ObjectStore::RowView row) {
    writer.PutU64(oid.raw());
    writer.PutString(relation);
    writer.PutU32(static_cast<uint32_t>(row.size()));
    for (const sqo::Value& v : row) writer.PutValue(v);
  });
  const std::vector<std::string> rels = store.RelationNames();
  writer.PutU64(rels.size());
  for (const std::string& rel : rels) {
    writer.PutString(rel);
    const auto& pairs = store.PairsRaw(rel);
    writer.PutU64(pairs.size());
    for (const auto& [src, dst] : pairs) {
      writer.PutU64(src.raw());
      writer.PutU64(dst.raw());
    }
  }
  return writer.TakeString();
}

sqo::Status DecodeStoreSection(std::string_view section,
                               SnapshotContents* out) {
  BinaryReader reader(section);
  SQO_ASSIGN_OR_RETURN(out->next_oid, reader.GetU64());
  SQO_ASSIGN_OR_RETURN(uint64_t object_count, reader.GetU64());
  if (object_count > reader.remaining()) {
    return sqo::DataCorruptionError("object count " +
                                    std::to_string(object_count) +
                                    " exceeds store section");
  }
  out->objects.reserve(object_count);
  for (uint64_t i = 0; i < object_count; ++i) {
    engine::Mutation m;
    m.kind = engine::Mutation::Kind::kCreate;
    SQO_ASSIGN_OR_RETURN(uint64_t oid, reader.GetU64());
    m.oid = sqo::Oid(oid);
    SQO_ASSIGN_OR_RETURN(m.relation, reader.GetString());
    SQO_ASSIGN_OR_RETURN(uint32_t row_len, reader.GetU32());
    if (row_len > reader.remaining()) {
      return sqo::DataCorruptionError("row length " + std::to_string(row_len) +
                                      " exceeds store section");
    }
    m.row.reserve(row_len);
    for (uint32_t j = 0; j < row_len; ++j) {
      SQO_ASSIGN_OR_RETURN(sqo::Value v, reader.GetValue());
      m.row.push_back(std::move(v));
    }
    out->objects.push_back(std::move(m));
  }
  SQO_ASSIGN_OR_RETURN(uint64_t rel_count, reader.GetU64());
  if (rel_count > reader.remaining()) {
    return sqo::DataCorruptionError("relation count " +
                                    std::to_string(rel_count) +
                                    " exceeds store section");
  }
  for (uint64_t i = 0; i < rel_count; ++i) {
    SQO_ASSIGN_OR_RETURN(std::string rel, reader.GetString());
    SQO_ASSIGN_OR_RETURN(uint64_t pair_count, reader.GetU64());
    if (pair_count > reader.remaining()) {
      return sqo::DataCorruptionError("pair count " +
                                      std::to_string(pair_count) +
                                      " exceeds store section");
    }
    for (uint64_t j = 0; j < pair_count; ++j) {
      engine::Mutation m;
      m.kind = engine::Mutation::Kind::kInsertPair;
      m.relation = rel;
      SQO_ASSIGN_OR_RETURN(uint64_t src, reader.GetU64());
      SQO_ASSIGN_OR_RETURN(uint64_t dst, reader.GetU64());
      m.src = sqo::Oid(src);
      m.dst = sqo::Oid(dst);
      out->pairs.push_back(std::move(m));
    }
  }
  if (!reader.exhausted()) {
    return sqo::DataCorruptionError("trailing bytes in store section");
  }
  return sqo::Status::Ok();
}

std::string EncodeIndexSection(const engine::ObjectStore& store) {
  BinaryWriter writer;
  const auto indexes = store.DumpSecondaryIndexes();
  writer.PutU64(indexes.size());
  for (const auto& index : indexes) {
    writer.PutString(index.relation);
    writer.PutU64(index.pos);
    writer.PutU64(index.entries.size());
    for (const auto& [key, oids] : index.entries) {
      writer.PutValue(key);
      writer.PutU32(static_cast<uint32_t>(oids.size()));
      for (sqo::Oid oid : oids) writer.PutU64(oid.raw());
    }
  }
  const auto asrs = store.AsrStates();
  writer.PutU64(asrs.size());
  for (const auto& asr : asrs) {
    writer.PutString(asr.name);
    writer.PutU8(asr.stale ? 1 : 0);
    writer.PutU32(static_cast<uint32_t>(asr.path.size()));
    for (const std::string& hop : asr.path) writer.PutString(hop);
  }
  return writer.TakeString();
}

sqo::Status DecodeIndexSection(std::string_view section,
                               SnapshotContents* out) {
  BinaryReader reader(section);
  SQO_ASSIGN_OR_RETURN(uint64_t index_count, reader.GetU64());
  if (index_count > reader.remaining()) {
    return sqo::DataCorruptionError("index count " +
                                    std::to_string(index_count) +
                                    " exceeds index section");
  }
  out->indexes.reserve(index_count);
  for (uint64_t i = 0; i < index_count; ++i) {
    engine::ObjectStore::SecondaryIndexDump dump;
    SQO_ASSIGN_OR_RETURN(dump.relation, reader.GetString());
    SQO_ASSIGN_OR_RETURN(uint64_t pos, reader.GetU64());
    dump.pos = static_cast<size_t>(pos);
    SQO_ASSIGN_OR_RETURN(uint64_t entry_count, reader.GetU64());
    if (entry_count > reader.remaining()) {
      return sqo::DataCorruptionError("index entry count " +
                                      std::to_string(entry_count) +
                                      " exceeds index section");
    }
    dump.entries.reserve(entry_count);
    for (uint64_t j = 0; j < entry_count; ++j) {
      SQO_ASSIGN_OR_RETURN(sqo::Value key, reader.GetValue());
      SQO_ASSIGN_OR_RETURN(uint32_t oid_count, reader.GetU32());
      if (oid_count > reader.remaining()) {
        return sqo::DataCorruptionError("index bucket size " +
                                        std::to_string(oid_count) +
                                        " exceeds index section");
      }
      std::vector<sqo::Oid> oids;
      oids.reserve(oid_count);
      for (uint32_t n = 0; n < oid_count; ++n) {
        SQO_ASSIGN_OR_RETURN(uint64_t oid, reader.GetU64());
        oids.push_back(sqo::Oid(oid));
      }
      dump.entries.emplace_back(std::move(key), std::move(oids));
    }
    out->indexes.push_back(std::move(dump));
  }
  SQO_ASSIGN_OR_RETURN(uint64_t asr_count, reader.GetU64());
  if (asr_count > reader.remaining()) {
    return sqo::DataCorruptionError("ASR count " + std::to_string(asr_count) +
                                    " exceeds index section");
  }
  out->asrs.reserve(asr_count);
  for (uint64_t i = 0; i < asr_count; ++i) {
    engine::ObjectStore::AsrState state;
    SQO_ASSIGN_OR_RETURN(state.name, reader.GetString());
    SQO_ASSIGN_OR_RETURN(uint8_t stale, reader.GetU8());
    state.stale = stale != 0;
    SQO_ASSIGN_OR_RETURN(uint32_t hop_count, reader.GetU32());
    if (hop_count > reader.remaining()) {
      return sqo::DataCorruptionError("ASR hop count " +
                                      std::to_string(hop_count) +
                                      " exceeds index section");
    }
    state.path.reserve(hop_count);
    for (uint32_t j = 0; j < hop_count; ++j) {
      SQO_ASSIGN_OR_RETURN(std::string hop, reader.GetString());
      state.path.push_back(std::move(hop));
    }
    out->asrs.push_back(std::move(state));
  }
  if (!reader.exhausted()) {
    return sqo::DataCorruptionError("trailing bytes in index section");
  }
  return sqo::Status::Ok();
}

}  // namespace

sqo::Status WriteSnapshot(const std::string& path,
                          const engine::ObjectStore& store,
                          const sqo::Fingerprint128& schema_hash,
                          uint64_t last_lsn, std::string_view catalog_json) {
  return WriteSnapshot(*fs::Env::Default(), path, store, schema_hash, last_lsn,
                       catalog_json);
}

sqo::Status WriteSnapshot(fs::Env& env, const std::string& path,
                          const engine::ObjectStore& store,
                          const sqo::Fingerprint128& schema_hash,
                          uint64_t last_lsn, std::string_view catalog_json) {
  SQO_FAILPOINT("storage.snapshot_write");
  const std::string store_section = EncodeStoreSection(store);
  const std::string index_section = EncodeIndexSection(store);

  BinaryWriter file;
  file.PutU32(kSnapshotMagic);
  file.PutU32(kSnapshotVersion);
  file.PutU64(schema_hash.lo);
  file.PutU64(schema_hash.hi);
  file.PutU64(last_lsn);
  file.PutU64(store_section.size());
  file.PutU64(catalog_json.size());
  file.PutU64(index_section.size());
  file.PutU32(MaskCrc32c(Crc32c(store_section)));
  file.PutU32(MaskCrc32c(Crc32c(catalog_json)));
  file.PutU32(MaskCrc32c(Crc32c(index_section)));
  file.PutU32(MaskCrc32c(Crc32c(file.str())));
  file.PutBytes(store_section);
  file.PutBytes(catalog_json);
  file.PutBytes(index_section);
  return fs::WriteFileAtomic(env, path, file.str());
}

sqo::Result<SnapshotContents> ReadSnapshot(const std::string& path) {
  SQO_ASSIGN_OR_RETURN(std::string data, fs::ReadFile(path));
  if (data.size() < kSnapshotHeaderSize) {
    return sqo::DataCorruptionError("snapshot header truncated: " +
                                    std::to_string(data.size()) + " bytes");
  }
  BinaryReader header(std::string_view(data).substr(0, kSnapshotHeaderSize));
  SQO_ASSIGN_OR_RETURN(uint32_t magic, header.GetU32());
  if (magic != kSnapshotMagic) {
    return sqo::DataCorruptionError("bad snapshot magic");
  }
  SQO_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kSnapshotVersion) {
    return sqo::DataCorruptionError("unsupported snapshot version " +
                                    std::to_string(version));
  }
  SnapshotContents contents;
  SQO_ASSIGN_OR_RETURN(contents.schema_hash.lo, header.GetU64());
  SQO_ASSIGN_OR_RETURN(contents.schema_hash.hi, header.GetU64());
  SQO_ASSIGN_OR_RETURN(contents.last_lsn, header.GetU64());
  SQO_ASSIGN_OR_RETURN(uint64_t store_len, header.GetU64());
  SQO_ASSIGN_OR_RETURN(uint64_t catalog_len, header.GetU64());
  SQO_ASSIGN_OR_RETURN(uint64_t index_len, header.GetU64());
  SQO_ASSIGN_OR_RETURN(uint32_t store_crc, header.GetU32());
  SQO_ASSIGN_OR_RETURN(uint32_t catalog_crc, header.GetU32());
  SQO_ASSIGN_OR_RETURN(uint32_t index_crc, header.GetU32());
  SQO_ASSIGN_OR_RETURN(uint32_t header_crc, header.GetU32());
  if (UnmaskCrc32c(header_crc) != Crc32c(data.data(), kSnapshotHeaderSize - 4)) {
    return sqo::DataCorruptionError("snapshot header checksum mismatch");
  }
  // Lengths are CRC-protected by the header checksum, but still bound them
  // against the actual file size before slicing.
  const uint64_t body = data.size() - kSnapshotHeaderSize;
  if (store_len > body || catalog_len > body - store_len ||
      index_len > body - store_len - catalog_len) {
    return sqo::DataCorruptionError("snapshot sections exceed file size");
  }
  if (kSnapshotHeaderSize + store_len + catalog_len + index_len !=
      data.size()) {
    return sqo::DataCorruptionError("snapshot has trailing bytes");
  }
  const std::string_view store_section =
      std::string_view(data).substr(kSnapshotHeaderSize, store_len);
  const std::string_view catalog_section =
      std::string_view(data).substr(kSnapshotHeaderSize + store_len,
                                    catalog_len);
  const std::string_view index_section = std::string_view(data).substr(
      kSnapshotHeaderSize + store_len + catalog_len, index_len);
  if (UnmaskCrc32c(store_crc) != Crc32c(store_section)) {
    return sqo::DataCorruptionError("snapshot store section checksum mismatch");
  }
  if (UnmaskCrc32c(catalog_crc) != Crc32c(catalog_section)) {
    return sqo::DataCorruptionError(
        "snapshot catalog section checksum mismatch");
  }
  if (UnmaskCrc32c(index_crc) != Crc32c(index_section)) {
    return sqo::DataCorruptionError("snapshot index section checksum mismatch");
  }
  SQO_RETURN_IF_ERROR(DecodeStoreSection(store_section, &contents));
  SQO_RETURN_IF_ERROR(DecodeIndexSection(index_section, &contents));
  contents.catalog_json = std::string(catalog_section);
  return contents;
}

}  // namespace sqo::storage
