// CSV serialization for NDT datasets.
//
// Lets the synthetic corpus (or records bridged from simulations) be
// exported for external analysis and re-imported — the workflow a user of a
// real M-Lab dump would follow with this toolkit. Real-world dumps are
// messy, so the parser accepts CRLF line endings, RFC-4180-style quoted
// fields (with "" escapes), and trailing blank lines; malformed data rows
// are counted and skipped rather than aborting the whole load (a BigQuery
// export with one truncated row should not discard the other 9,983).
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "mlab/ndt_record.hpp"

namespace ccc::telemetry {
class MetricRegistry;
}

namespace ccc::mlab {

/// What the parser saw: every data row is either parsed or skipped.
struct CsvParseStats {
  std::size_t rows_seen{0};     ///< non-blank data rows (header excluded)
  std::size_t rows_parsed{0};   ///< rows that produced a record
  std::size_t rows_skipped{0};  ///< malformed rows, counted and dropped
};

/// Writes a dataset as CSV with a header row. The throughput series is
/// serialized as a ';'-separated list inside one field. Every double is
/// written in its shortest round-trip form, so read_csv gives back the
/// same values bit for bit.
void write_csv(std::ostream& os, std::span<const NdtRecord> dataset);

/// Writes one data row (no header) — the streaming-export building block.
void write_csv_record(std::ostream& os, const NdtRecord& rec);

/// Streaming parse: invokes `fn` once per well-formed data row, in file
/// order, without materializing the dataset (the ccfs ingest path at
/// millions of flows). Malformed rows — bad shape, garbage or over-range
/// numerics (a 400-digit field), unknown enums — are tallied in `stats`
/// (optional) and skipped; no parse failure aborts the load. Throws
/// ccc::Error{kFormat} only if the header row is wrong (that is a
/// different-file problem, not a bad-row problem). Exceptions from `fn`
/// itself always propagate.
void for_each_csv_record(std::istream& is, const std::function<void(NdtRecord&&)>& fn,
                         CsvParseStats* stats = nullptr);

/// Reads a dataset written by write_csv. Malformed data rows are skipped
/// (and counted in `stats` when given); a missing/wrong header throws.
[[nodiscard]] std::vector<NdtRecord> read_csv(std::istream& is, CsvParseStats* stats = nullptr);

/// As above, but reports parse tallies into `reg`'s counters
/// ("csv.rows_seen", "csv.rows_parsed", "csv.rows_malformed_skipped") so
/// ingest jobs surface data-quality problems through the standard
/// telemetry channel instead of a side channel.
[[nodiscard]] std::vector<NdtRecord> read_csv(std::istream& is,
                                              telemetry::MetricRegistry& reg);

/// The exact header row write_csv emits and the stream parsers demand.
[[nodiscard]] std::string_view csv_header();

/// Parses one data row (header excluded) into `out`; returns false on a
/// malformed row — same accept/skip judgment as for_each_csv_record, but
/// row-granular. This is the building block for line-at-a-time stream
/// sources (the ingest daemon's stdin/socket inputs), which see one record
/// per network read rather than a whole istream. Blank lines are malformed
/// here: stream sources have no trailing-blank-line convention to honor.
[[nodiscard]] bool parse_csv_row(const std::string& line, NdtRecord& out);

/// Enum parsing helpers (exposed for tests).
[[nodiscard]] FlowArchetype archetype_from_string(std::string_view s);
[[nodiscard]] AccessType access_from_string(std::string_view s);

}  // namespace ccc::mlab
