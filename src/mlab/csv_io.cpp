#include "mlab/csv_io.hpp"

#include <array>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"

namespace ccc::mlab {

namespace {
constexpr std::string_view kHeader =
    "id,access,truth,duration_sec,app_limited_sec,rwnd_limited_sec,mean_throughput_mbps,"
    "min_rtt_ms,snapshot_interval_sec,throughput_mbps";

/// Splits one CSV line into cells, honoring RFC-4180 quoting: a field that
/// starts with '"' runs to the matching close quote, with "" as an escaped
/// quote and commas inside taken literally. Returns false on an
/// unterminated quote (the row counts as malformed).
bool split_csv_line(const std::string& line, std::vector<std::string>& cells) {
  cells.clear();
  std::string cell;
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (true) {
    cell.clear();
    if (i < n && line[i] == '"') {
      ++i;
      bool closed = false;
      while (i < n) {
        if (line[i] == '"') {
          if (i + 1 < n && line[i + 1] == '"') {  // escaped quote
            cell.push_back('"');
            i += 2;
          } else {
            ++i;
            closed = true;
            break;
          }
        } else {
          cell.push_back(line[i++]);
        }
      }
      if (!closed) return false;
      // Lenient: any unquoted tail before the comma is taken literally.
      while (i < n && line[i] != ',') cell.push_back(line[i++]);
    } else {
      while (i < n && line[i] != ',') cell.push_back(line[i++]);
    }
    cells.push_back(cell);
    if (i >= n) return true;
    ++i;  // skip the comma; a trailing comma yields a final empty cell
  }
}

/// Strict double parse: the whole cell must be consumed. Throws
/// std::invalid_argument / std::out_of_range (e.g. a 400-digit field) like
/// the std helpers; the caller's catch turns any of it into a skipped row.
double parse_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  if (pos != s.size()) throw std::invalid_argument{"trailing characters"};
  return v;
}

std::uint64_t parse_u64(const std::string& s) {
  // stoull happily wraps "-1" to 2^64-1 with no exception — a sign bit in
  // an id column must be a malformed row, not a silently huge id.
  if (!s.empty() && s.front() == '-') throw std::invalid_argument{"negative id"};
  std::size_t pos = 0;
  const std::uint64_t v = std::stoull(s, &pos);
  if (pos != s.size()) throw std::invalid_argument{"trailing characters"};
  return v;
}

/// Parses one split row into a record; throws on any malformed cell.
NdtRecord parse_row(const std::vector<std::string>& cells) {
  NdtRecord r;
  r.id = parse_u64(cells[0]);
  r.access = access_from_string(cells[1]);
  r.truth = archetype_from_string(cells[2]);
  r.duration_sec = parse_double(cells[3]);
  r.app_limited_sec = parse_double(cells[4]);
  r.rwnd_limited_sec = parse_double(cells[5]);
  r.mean_throughput_mbps = parse_double(cells[6]);
  r.min_rtt_ms = parse_double(cells[7]);
  r.snapshot_interval_sec = parse_double(cells[8]);
  const std::string& series = cells[9];
  std::size_t start = 0;
  while (start <= series.size() && !series.empty()) {
    const std::size_t end = series.find(';', start);
    const std::size_t stop = end == std::string::npos ? series.size() : end;
    if (stop > start) r.throughput_mbps.push_back(parse_double(series.substr(start, stop - start)));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return r;
}

}  // namespace

std::string_view csv_header() { return kHeader; }

bool parse_csv_row(const std::string& line, NdtRecord& out) {
  if (line.empty()) return false;
  std::vector<std::string> cells;
  if (!split_csv_line(line, cells)) return false;
  if (cells.size() == 9) cells.emplace_back();  // empty series field
  if (cells.size() != 10) return false;
  try {
    out = parse_row(cells);
  } catch (const std::exception&) {
    // Same single-handler judgment as for_each_csv_record: any malformed
    // cell (garbage, over-range numeric, unknown enum) skips the row.
    return false;
  }
  return true;
}

FlowArchetype archetype_from_string(std::string_view s) {
  static constexpr std::array all = {
      FlowArchetype::kAppLimitedStreaming, FlowArchetype::kAppLimitedConstant,
      FlowArchetype::kShortFlow,           FlowArchetype::kRwndLimited,
      FlowArchetype::kBulkClean,           FlowArchetype::kBulkContended,
      FlowArchetype::kPoliced};
  for (auto a : all) {
    if (to_string(a) == s) return a;
  }
  throw Error::format("", "unknown archetype: " + std::string{s});
}

AccessType access_from_string(std::string_view s) {
  static constexpr std::array all = {AccessType::kFiber, AccessType::kCable, AccessType::kDsl,
                                     AccessType::kCellular, AccessType::kSatellite};
  for (auto a : all) {
    if (to_string(a) == s) return a;
  }
  throw Error::format("", "unknown access type: " + std::string{s});
}

void write_csv_record(std::ostream& os, const NdtRecord& r) {
  // The shortest text that parses back to the same double, so a CSV round
  // trip preserves every value (the stream's default 6 significant digits
  // kept only 0.01 Mbps of a gigabit rate).
  const auto put = [&os](double x) {
    std::array<char, 32> buf;
    const auto end = std::to_chars(buf.data(), buf.data() + buf.size(), x).ptr;
    os.write(buf.data(), end - buf.data());
  };
  os << r.id << ',' << to_string(r.access) << ',' << to_string(r.truth) << ',';
  for (double x : {r.duration_sec, r.app_limited_sec, r.rwnd_limited_sec,
                   r.mean_throughput_mbps, r.min_rtt_ms, r.snapshot_interval_sec}) {
    put(x);
    os << ',';
  }
  for (std::size_t i = 0; i < r.throughput_mbps.size(); ++i) {
    if (i > 0) os << ';';
    put(r.throughput_mbps[i]);
  }
  os << '\n';
}

void write_csv(std::ostream& os, std::span<const NdtRecord> dataset) {
  os << kHeader << '\n';
  for (const auto& r : dataset) write_csv_record(os, r);
}

void for_each_csv_record(std::istream& is, const std::function<void(NdtRecord&&)>& fn,
                         CsvParseStats* stats) {
  std::string line;
  if (!std::getline(is, line)) return;  // empty input: no header, no rows
  if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF export
  if (line != kHeader) throw Error::format("", "csv: unexpected header", 0);

  CsvParseStats local;
  std::vector<std::string> cells;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // blank separators / trailing blank lines
    ++local.rows_seen;
    bool ok = split_csv_line(line, cells);
    if (ok && cells.size() == 9) cells.emplace_back();  // empty series field
    ok = ok && cells.size() == 10;
    NdtRecord rec;
    if (ok) {
      try {
        rec = parse_row(cells);
      } catch (const std::exception&) {
        // Any malformed cell — invalid_argument (garbage), out_of_range (a
        // 400-digit field), runtime_error (unknown enum) — is the same
        // outcome: this row is skipped and counted, the load continues. An
        // enumerated catch list here once missed classes of parse failure;
        // one handler cannot.
        ok = false;
      }
    }
    if (ok) {
      ++local.rows_parsed;
      fn(std::move(rec));  // outside the catch: callback errors propagate
    } else {
      ++local.rows_skipped;
    }
  }
  if (stats != nullptr) *stats = local;
}

std::vector<NdtRecord> read_csv(std::istream& is, CsvParseStats* stats) {
  std::vector<NdtRecord> out;
  for_each_csv_record(is, [&out](NdtRecord&& r) { out.push_back(std::move(r)); }, stats);
  return out;
}

std::vector<NdtRecord> read_csv(std::istream& is, telemetry::MetricRegistry& reg) {
  CsvParseStats stats;
  auto out = read_csv(is, &stats);
  reg.counter("csv.rows_seen").inc(stats.rows_seen);
  reg.counter("csv.rows_parsed").inc(stats.rows_parsed);
  reg.counter("csv.rows_malformed_skipped").inc(stats.rows_skipped);
  return out;
}

}  // namespace ccc::mlab
