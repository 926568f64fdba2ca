// K-SIMD — hardware-fast sizing kernels (compression/kernels.h) and the
// incremental knapsack bound (advisor/search.h).
//
// Four experiments, three of them gated (the run aborts if a gate fails):
//
//   (a) NS length kernel — TotalNullSuppressedLength over width-8 integer
//       cells, SIMD dispatch vs the scalar reference. Gate: >= 2x when a
//       vector level is active, and bit-identical totals always.
//   (b) RLE run detection — CountRuns over 16-byte cells with ~8-cell
//       runs, SIMD vs scalar. Gate: >= 2x when a vector level is active,
//       and identical run counts always.
//   (c) End-to-end compress, for every CompressionType —
//       CompressedIndexBuilder::AddRows (batched, arena transpose + kernels)
//       vs the per-row Add loop on the same 200k-row sorted string+integer
//       input. Gate: bit-identical page stats (data pages, used bytes, chunk
//       bytes, dictionary entries: the batched path is a pure fast path;
//       see compressor.h). Each scheme's speedup reported.
//   (d) Lazy-search bound — SearchSizedCandidates over 100k candidates,
//       incremental Fenwick bound vs the legacy per-node rescan. Gate:
//       identical selections, total benefit, total bytes, and node counts.
//       Wall-clock for both reported.
//
// MinMaxInts and HashBytes throughputs are reported without gates (their
// wins ride along with (a)/(b); the hash is an internal probe only).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/search.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "compression/compressed_index.h"
#include "compression/kernels.h"
#include "compression/scheme.h"
#include "storage/schema.h"

namespace cfest {
namespace {

void CheckGate(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "GATE FAILED [%s]\n", what);
    std::exit(1);
  }
}

/// Runs fn repeatedly until ~0.2 s of wall clock, returns seconds per call.
template <typename Fn>
double TimePerCall(Fn&& fn) {
  fn();  // warm up (page in buffers, populate thread-local scratch)
  size_t reps = 1;
  for (;;) {
    bench::Timer timer;
    for (size_t r = 0; r < reps; ++r) fn();
    const double elapsed = timer.Seconds();
    if (elapsed >= 0.2) return elapsed / static_cast<double>(reps);
    reps = elapsed > 0.0
               ? std::max(reps + 1, static_cast<size_t>(
                                        0.25 * static_cast<double>(reps) /
                                        elapsed))
               : reps * 8;
  }
}

// ---------------------------------------------------------------------------
// (a) NS length kernel.
// ---------------------------------------------------------------------------

struct KernelOutcome {
  double scalar_seconds = 0;
  double simd_seconds = 0;
  double speedup = 1.0;
  bool identical = false;
};

KernelOutcome RunNsGate(size_t cells) {
  Random rng(101);
  const uint32_t w = 8;
  std::string buf(cells * w, '\0');
  for (size_t i = 0; i < cells; ++i) {
    // Uniform in [0, 2^32): the typical 4-significant-byte int64 column the
    // paper's l_i scan sees; the scalar loop pays ~4 byte-checks per cell.
    const uint64_t v = rng.NextBounded(uint64_t{1} << 32);
    std::memcpy(buf.data() + i * w, &v, w);
  }
  KernelOutcome out;
  volatile uint64_t sink = 0;
  out.scalar_seconds = TimePerCall([&] {
    sink = kernels::scalar::TotalNullSuppressedLength(buf.data(), w, cells,
                                                      /*is_string=*/false);
  });
  const uint64_t scalar_total = sink;
  out.simd_seconds = TimePerCall([&] {
    sink = kernels::TotalNullSuppressedLength(buf.data(), w, cells,
                                              /*is_string=*/false);
  });
  out.identical = sink == scalar_total;
  out.speedup = out.scalar_seconds / out.simd_seconds;
  return out;
}

// ---------------------------------------------------------------------------
// (b) RLE run detection.
// ---------------------------------------------------------------------------

KernelOutcome RunRleGate(size_t cells) {
  Random rng(102);
  const uint32_t w = 16;
  std::string buf(cells * w, '\0');
  size_t i = 0;
  while (i < cells) {
    // Runs of 1..16 cells, average ~8 — scalar pays a 16-byte memcmp per
    // boundary check.
    const size_t run = 1 + rng.NextBounded(16);
    char cell[16];
    for (char& c : cell) c = static_cast<char>(rng.NextBounded(256));
    for (size_t k = 0; k < run && i < cells; ++k, ++i) {
      std::memcpy(buf.data() + i * w, cell, w);
    }
  }
  KernelOutcome out;
  volatile size_t sink = 0;
  out.scalar_seconds = TimePerCall([&] {
    sink = kernels::scalar::CountRuns(buf.data(), w, cells, nullptr);
  });
  const size_t scalar_runs = sink;
  out.simd_seconds = TimePerCall(
      [&] { sink = kernels::CountRuns(buf.data(), w, cells, nullptr); });
  out.identical = sink == scalar_runs;
  out.speedup = out.scalar_seconds / out.simd_seconds;
  return out;
}

// ---------------------------------------------------------------------------
// Ride-along throughputs (no gates).
// ---------------------------------------------------------------------------

double MinMaxGibPerSec(size_t n) {
  Random rng(103);
  std::vector<int64_t> values(n);
  for (int64_t& v : values) v = static_cast<int64_t>(rng.NextU64());
  volatile int64_t sink = 0;
  const double sec = TimePerCall([&] {
    const kernels::MinMax mm = kernels::MinMaxInts(values.data(), n);
    sink = mm.min ^ mm.max;
  });
  (void)sink;
  return static_cast<double>(n * sizeof(int64_t)) / sec / (1 << 30);
}

double HashGibPerSec(size_t bytes) {
  Random rng(104);
  std::string data(bytes, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextBounded(256));
  volatile uint64_t sink = 0;
  const double sec =
      TimePerCall([&] { sink = kernels::HashBytes(data.data(), bytes); });
  (void)sink;
  return static_cast<double>(bytes) / sec / (1 << 30);
}

// ---------------------------------------------------------------------------
// (c) End-to-end compress, per scheme: AddRows vs per-row Add.
// ---------------------------------------------------------------------------

struct CompressOutcome {
  CompressionType type = CompressionType::kNone;
  double per_row_seconds = 0;
  double batched_seconds = 0;
  double speedup = 1.0;
  bool identical = false;
  uint64_t data_pages = 0;
};

/// Sorted int64 keys (small FOR range, short deltas), a char(12) column of
/// ~40-cell runs over few distinct values, and a random int32 column.
Schema CompressSchema() {
  return Schema({{"k", Int64Type()}, {"status", CharType(12)},
                 {"qty", Int32Type()}});
}

std::string CompressInput(const Schema& schema, size_t rows_n) {
  Random rng(105);
  std::string rows;
  rows.reserve(rows_n * schema.row_width());
  for (size_t i = 0; i < rows_n; ++i) {
    const uint64_t k = i / 3;
    rows.append(reinterpret_cast<const char*>(&k), 8);
    std::string v = "s";
    v += std::to_string(i / 40);
    v.append(12 - v.size(), ' ');
    rows += v;
    const uint32_t q = static_cast<uint32_t>(rng.NextBounded(100000));
    rows.append(reinterpret_cast<const char*>(&q), 4);
  }
  return rows;
}

/// `type` on every column; the integer-only schemes (delta, FOR) leave the
/// string column null-suppressed.
CompressionScheme CompressSchemeFor(CompressionType type,
                                    const Schema& schema) {
  CompressionScheme scheme = CompressionScheme::Uniform(type);
  const bool integer_only = type == CompressionType::kDelta ||
                            type == CompressionType::kFrameOfReference;
  if (integer_only) {
    for (const Column& column : schema.columns()) {
      scheme.per_column.push_back(column.type.IsInteger()
                                      ? type
                                      : CompressionType::kNullSuppression);
    }
  }
  return scheme;
}

CompressOutcome RunCompressGate(CompressionType type, const Schema& schema,
                                const std::string& rows, size_t rows_n) {
  const CompressionScheme scheme = CompressSchemeFor(type, schema);
  IndexBuildOptions options;
  options.keep_pages = false;  // size accounting only; this is the what-if path
  auto build = [&](bool batched) {
    auto builder = bench::CheckResult(
        CompressedIndexBuilder::Make(schema, scheme, options),
        "compress builder");
    if (batched) {
      bench::CheckOk(builder->AddRows(rows.data(), rows_n), "AddRows");
    } else {
      for (size_t i = 0; i < rows_n; ++i) {
        bench::CheckOk(builder->Add(Slice(
                           rows.data() + i * schema.row_width(),
                           schema.row_width())),
                       "Add");
      }
    }
    return bench::CheckResult(builder->Finish(), "compress finish");
  };
  CompressOutcome out;
  out.type = type;
  const CompressedIndexStats reference = build(false).stats();
  const CompressedIndexStats batched = build(true).stats();
  out.identical = batched.data_pages == reference.data_pages &&
                  batched.used_bytes == reference.used_bytes &&
                  batched.chunk_bytes == reference.chunk_bytes &&
                  batched.dictionary_entries == reference.dictionary_entries;
  out.data_pages = batched.data_pages;
  // Alternating warm runs, per-mode minimum, as in (d).
  out.per_row_seconds = 1e9;
  out.batched_seconds = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    bench::Timer per_row_timer;
    build(false);
    out.per_row_seconds =
        std::min(out.per_row_seconds, per_row_timer.Seconds());
    bench::Timer batched_timer;
    build(true);
    out.batched_seconds =
        std::min(out.batched_seconds, batched_timer.Seconds());
  }
  out.speedup = out.per_row_seconds / out.batched_seconds;
  return out;
}

// ---------------------------------------------------------------------------
// (d) 100k-candidate lazy search: Fenwick bound vs legacy rescan.
// ---------------------------------------------------------------------------

struct SearchOutcome {
  double legacy_seconds = 0;
  double incremental_seconds = 0;
  double speedup = 1.0;
  bool identical = false;
  uint64_t nodes_visited = 0;
  size_t selected = 0;
};

/// 100k candidates: `real_n` positive-benefit items (random integer
/// benefits, ~1 KB..2 KB footprints) that the search genuinely deliberates
/// over, padded to `total_n` with zero-benefit candidates. The zero pad is
/// what makes the per-node cost visible: the legacy bound rescans the full
/// density order (all `total_n` positions) whenever the remaining real
/// items no longer fill the capacity, while the Fenwick bound descends in
/// O(log total_n) regardless. Benefits are integers, so both bound
/// implementations compute identical doubles and the searches branch
/// identically (see search.h).
std::vector<SizedCandidate> SearchWorkload(size_t real_n, size_t total_n,
                                           uint64_t* real_bytes_total) {
  Random rng(106);
  std::vector<SizedCandidate> candidates(total_n);
  *real_bytes_total = 0;
  for (size_t i = 0; i < total_n; ++i) {
    SizedCandidate& c = candidates[i];
    c.config.table_name = std::string("t");
    c.config.index.name = std::string("ix") + std::to_string(i);
    c.config.scheme =
        CompressionScheme::Uniform(CompressionType::kNullSuppression);
    if (i < real_n) {
      c.config.benefit = static_cast<double>(1 + rng.NextBounded(1000));
      c.estimated_bytes = 1024 + rng.NextBounded(1024);
      *real_bytes_total += c.estimated_bytes;
    } else {
      c.config.benefit = 0.0;
      c.estimated_bytes = 4096;
    }
    c.uncompressed_bytes = c.estimated_bytes * 2;
  }
  return candidates;
}

SearchOutcome RunSearchGate(size_t real_n, size_t total_n,
                            double capacity_fraction) {
  uint64_t real_bytes = 0;
  const std::vector<SizedCandidate> candidates =
      SearchWorkload(real_n, total_n, &real_bytes);
  const std::vector<size_t> order = OrderCandidatesForSelection(candidates);
  const uint64_t bound = static_cast<uint64_t>(
      capacity_fraction * static_cast<double>(real_bytes));
  SearchOutcome out;
  LazyAdvisorStats fast_stats;
  LazyAdvisorStats slow_stats;
  const AdvisorRecommendation fast = SearchSizedCandidates(
      candidates, order, bound, &fast_stats, /*incremental_bound=*/true);
  const AdvisorRecommendation slow = SearchSizedCandidates(
      candidates, order, bound, &slow_stats, /*incremental_bound=*/false);
  // The first calls above double as heap warm-up (copying 100k candidates
  // cold dominates either search); time alternating warm runs and keep the
  // per-mode minimum.
  out.incremental_seconds = 1e9;
  out.legacy_seconds = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    bench::Timer fast_timer;
    SearchSizedCandidates(candidates, order, bound, nullptr,
                          /*incremental_bound=*/true);
    out.incremental_seconds =
        std::min(out.incremental_seconds, fast_timer.Seconds());
    bench::Timer slow_timer;
    SearchSizedCandidates(candidates, order, bound, nullptr,
                          /*incremental_bound=*/false);
    out.legacy_seconds = std::min(out.legacy_seconds, slow_timer.Seconds());
  }
  out.identical = fast.total_benefit == slow.total_benefit &&
                  fast.total_bytes == slow.total_bytes &&
                  fast.selected.size() == slow.selected.size() &&
                  fast_stats.nodes_visited == slow_stats.nodes_visited &&
                  fast_stats.nodes_pruned == slow_stats.nodes_pruned;
  for (size_t i = 0; out.identical && i < fast.selected.size(); ++i) {
    out.identical = fast.selected[i].config.index.name ==
                    slow.selected[i].config.index.name;
  }
  out.nodes_visited = fast_stats.nodes_visited;
  out.selected = fast.selected.size();
  out.speedup = out.legacy_seconds / out.incremental_seconds;
  return out;
}

}  // namespace
}  // namespace cfest

int main() {
  using namespace cfest;
  bench::PrintHeader(
      "K-SIMD: hardware-fast sizing kernels",
      "SIMD column scans >= 2x scalar, bit-identical; batched compress == "
      "per-row pages; Fenwick search bound == legacy rescan selections");

  const SimdLevel active = ActiveSimdLevel();
  const bool vector_active = active > SimdLevel::kScalar;
  std::printf("simd: max %s, active %s\n", SimdLevelName(MaxSimdLevel()),
              SimdLevelName(active));

  constexpr size_t kCells = 1 << 18;
  const KernelOutcome ns = RunNsGate(kCells);
  std::printf(
      "ns lengths (w=8, %zu cells): scalar %.3f us, simd %.3f us, %.2fx, "
      "identical=%d\n",
      kCells, ns.scalar_seconds * 1e6, ns.simd_seconds * 1e6, ns.speedup,
      ns.identical ? 1 : 0);
  CheckGate(ns.identical, "ns totals bit-identical");

  const KernelOutcome rle = RunRleGate(kCells);
  std::printf(
      "rle runs (w=16, %zu cells): scalar %.3f us, simd %.3f us, %.2fx, "
      "identical=%d\n",
      kCells, rle.scalar_seconds * 1e6, rle.simd_seconds * 1e6, rle.speedup,
      rle.identical ? 1 : 0);
  CheckGate(rle.identical, "rle run counts identical");
  if (vector_active) {
    CheckGate(ns.speedup >= 2.0, "ns simd >= 2x scalar");
    CheckGate(rle.speedup >= 2.0, "rle simd >= 2x scalar");
  } else {
    std::printf("(scalar level active: speedup gates skipped)\n");
  }

  const double minmax_gib = MinMaxGibPerSec(1 << 16);
  const double hash_gib = HashGibPerSec(1 << 16);
  std::printf("minmax %.2f GiB/s, hash %.2f GiB/s\n", minmax_gib, hash_gib);

  constexpr size_t kCompressRows = 200000;
  const Schema compress_schema = CompressSchema();
  const std::string compress_rows =
      CompressInput(compress_schema, kCompressRows);
  std::vector<CompressOutcome> compress;
  double per_row_total = 0;
  double batched_total = 0;
  for (const CompressionType type : AllCompressionTypes()) {
    const CompressOutcome c = RunCompressGate(type, compress_schema,
                                              compress_rows, kCompressRows);
    std::printf(
        "compress %s, %zu rows (%llu pages): per-row %.4f s, batched "
        "%.4f s, %.2fx, identical=%d\n",
        CompressionTypeName(type), kCompressRows,
        static_cast<unsigned long long>(c.data_pages), c.per_row_seconds,
        c.batched_seconds, c.speedup, c.identical ? 1 : 0);
    CheckGate(c.identical, "batched compress pages bit-identical");
    per_row_total += c.per_row_seconds;
    batched_total += c.batched_seconds;
    compress.push_back(c);
  }
  std::printf("compress, all schemes: per-row %.4f s, batched %.4f s, %.2fx\n",
              per_row_total, batched_total, per_row_total / batched_total);

  const SearchOutcome search = RunSearchGate(8000, 100000, 0.5);
  std::printf(
      "search 100k candidates (%zu selected, %llu nodes): legacy %.3f s, "
      "incremental %.3f s, %.2fx, identical=%d\n",
      search.selected, static_cast<unsigned long long>(search.nodes_visited),
      search.legacy_seconds, search.incremental_seconds, search.speedup,
      search.identical ? 1 : 0);
  CheckGate(search.identical, "incremental bound selections identical");
  // ~6x on this machine; gate well below that so a loaded CI runner still
  // passes while a regression to parity still trips.
  CheckGate(search.speedup >= 1.5, "incremental bound reduces wall-clock");

  bench::JsonEmitter json("micro_kernels");
  json.AddString("simd_active", SimdLevelName(active));
  json.AddDouble("ns_scalar_us", ns.scalar_seconds * 1e6);
  json.AddDouble("ns_simd_us", ns.simd_seconds * 1e6);
  json.AddDouble("ns_speedup", ns.speedup);
  json.AddDouble("rle_scalar_us", rle.scalar_seconds * 1e6);
  json.AddDouble("rle_simd_us", rle.simd_seconds * 1e6);
  json.AddDouble("rle_speedup", rle.speedup);
  json.AddDouble("minmax_gib_per_sec", minmax_gib);
  json.AddDouble("hash_gib_per_sec", hash_gib);
  json.AddDouble("compress_per_row_seconds", per_row_total);
  json.AddDouble("compress_batched_seconds", batched_total);
  json.AddDouble("compress_speedup", per_row_total / batched_total);
  for (const CompressOutcome& c : compress) {
    json.AddDouble(
        std::string("compress_") + CompressionTypeName(c.type) + "_speedup",
        c.speedup);
  }
  json.AddInt("search_candidates", 100000);
  json.AddInt("search_nodes", static_cast<int64_t>(search.nodes_visited));
  json.AddDouble("search_legacy_seconds", search.legacy_seconds);
  json.AddDouble("search_incremental_seconds", search.incremental_seconds);
  json.AddDouble("search_speedup", search.speedup);
  json.AddBool("gates_passed", true);
  json.Print();
  return 0;
}
