#include "catalog/catalog.h"

#include <bit>

#include "common/hash.h"
#include "common/macros.h"

namespace costsense::catalog {
namespace {

/// FNV-1a accumulation helpers for Catalog::Fingerprint(). Doubles are
/// hashed by IEEE-754 bit pattern, so any statistical perturbation —
/// however small — changes the fingerprint.
void HashU64(uint64_t& h, uint64_t v) { h = Fnv1aU64(h, v); }
void HashDouble(uint64_t& h, double v) {
  HashU64(h, std::bit_cast<uint64_t>(v));
}
void HashString(uint64_t& h, const std::string& s) {
  HashU64(h, s.size());
  h = Fnv1a(h, s);
}

}  // namespace

int Catalog::AddTable(Table table) {
  for (const Table& t : tables_) {
    COSTSENSE_CHECK_MSG(t.name() != table.name(), "duplicate table name");
  }
  tables_.push_back(std::move(table));
  return static_cast<int>(tables_.size()) - 1;
}

int Catalog::AddIndex(std::string name, int table_id,
                      std::vector<size_t> key_columns, bool unique,
                      bool clustered) {
  COSTSENSE_CHECK(table_id >= 0 &&
                  table_id < static_cast<int>(tables_.size()));
  indexes_.push_back(MakeIndex(std::move(name), table_id, tables_[table_id],
                               std::move(key_columns), unique, clustered,
                               config_.page_size_bytes));
  return static_cast<int>(indexes_.size()) - 1;
}

const Table& Catalog::table(int id) const {
  COSTSENSE_CHECK(id >= 0 && id < static_cast<int>(tables_.size()));
  return tables_[id];
}

const Index& Catalog::index(int id) const {
  COSTSENSE_CHECK(id >= 0 && id < static_cast<int>(indexes_.size()));
  return indexes_[id];
}

Result<int> Catalog::TableId(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name() == name) return static_cast<int>(i);
  }
  return Status::NotFound("no table named '" + name + "'");
}

std::vector<int> Catalog::IndexesOn(int table_id) const {
  std::vector<int> out;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].table_id == table_id) out.push_back(static_cast<int>(i));
  }
  return out;
}

uint64_t Catalog::Fingerprint() const {
  uint64_t h = kFnv1aOffsetBasis;
  HashDouble(h, config_.page_size_bytes);
  HashDouble(h, config_.buffer_pool_pages);
  HashDouble(h, config_.sort_heap_pages);
  HashU64(h, static_cast<uint64_t>(config_.degree_of_parallelism));
  HashU64(h, static_cast<uint64_t>(config_.optimization_level));
  HashDouble(h, config_.prefetch_pages);
  HashDouble(h, config_.merge_fan_in);
  HashDouble(h, config_.hash_build_memory_fraction);
  HashDouble(h, config_.cpu_tuple_instructions);
  HashDouble(h, config_.cpu_predicate_instructions);
  HashDouble(h, config_.cpu_probe_instructions);
  HashDouble(h, config_.cpu_hash_build_instructions);
  HashDouble(h, config_.cpu_hash_probe_instructions);
  HashDouble(h, config_.cpu_sort_compare_instructions);
  HashDouble(h, config_.cpu_agg_instructions);
  HashDouble(h, config_.cpu_join_output_instructions);

  HashU64(h, tables_.size());
  for (const Table& t : tables_) {
    HashString(h, t.name());
    HashDouble(h, t.row_count());
    HashDouble(h, t.row_width_bytes());
    HashDouble(h, t.pages());
    HashU64(h, t.num_columns());
    for (const Column& c : t.columns()) {
      HashString(h, c.name);
      HashDouble(h, c.stats.n_distinct);
      HashDouble(h, c.stats.min_value);
      HashDouble(h, c.stats.max_value);
      HashDouble(h, c.stats.avg_width_bytes);
    }
  }

  HashU64(h, indexes_.size());
  for (const Index& idx : indexes_) {
    HashString(h, idx.name);
    HashU64(h, static_cast<uint64_t>(idx.table_id));
    HashU64(h, idx.key_columns.size());
    for (size_t col : idx.key_columns) HashU64(h, col);
    HashU64(h, idx.unique ? 1 : 0);
    HashU64(h, idx.clustered ? 1 : 0);
    HashDouble(h, idx.leaf_pages);
    HashU64(h, static_cast<uint64_t>(idx.levels));
    HashDouble(h, idx.key_width_bytes);
  }

  // Final avalanche so near-identical catalogs don't share low bits.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

int Catalog::FindIndexByLeadingColumn(int table_id, size_t column) const {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].table_id == table_id &&
        indexes_[i].key_columns.front() == column) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace costsense::catalog
