#include "march/engine.hpp"

#include <algorithm>
#include <sstream>

#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace memstress::march {

void FailLog::record(FailRecord fail) { fails_.push_back(fail); }

std::set<std::pair<int, int>> FailLog::failing_cells() const {
  std::set<std::pair<int, int>> cells;
  for (const auto& f : fails_) cells.insert({f.row, f.col});
  return cells;
}

std::set<std::string> FailLog::element_signatures(const MarchTest& test) const {
  std::set<std::string> signatures;
  for (const auto& f : fails_) {
    require(f.element >= 0 &&
                f.element < static_cast<int>(test.elements.size()),
            "FailLog: element index out of range for this test");
    signatures.insert(test.elements[static_cast<std::size_t>(f.element)].signature());
  }
  return signatures;
}

std::string FailLog::summary(const MarchTest& test) const {
  std::ostringstream out;
  if (passed()) {
    out << "PASS (" << test.name << ")";
    return out.str();
  }
  out << "FAIL (" << test.name << "): " << fails_.size() << " miscompares, "
      << failing_cells().size() << " distinct cell(s); elements:";
  for (const auto& sig : element_signatures(test)) out << ' ' << sig;
  out << "; first fail: cell(" << fails_.front().row << ','
      << fails_.front().col << ") read " << (fails_.front().observed ? '1' : '0')
      << " expected " << (fails_.front().expected ? '1' : '0');
  return out.str();
}

namespace {

long rotate_index(long index, int rotate, int bits) {
  if (rotate == 0 || bits == 0) return index;
  const int r = rotate % bits;
  const long mask = (1L << bits) - 1;
  return ((index << r) | (index >> (bits - r))) & mask;
}

/// Iterate all (row, col) addresses of the matrix in the element's order.
template <typename Fn>
void for_each_address(int rows, int cols, AddressOrder order, AddressMap map,
                      int rotate_bits, Fn&& fn) {
  const long total = static_cast<long>(rows) * cols;
  const int bits = ceil_log2(total);
  require(rotate_bits == 0 || (1L << bits) == total,
          "run_march: address rotation requires a power-of-two cell count");
  for (long i = 0; i < total; ++i) {
    const long linear = order == AddressOrder::Descending ? total - 1 - i : i;
    const long index = rotate_index(linear, rotate_bits, bits);
    int row, col;
    if (map == AddressMap::RowMajor) {
      row = static_cast<int>(index / cols);
      col = static_cast<int>(index % cols);
    } else {
      col = static_cast<int>(index / rows);
      row = static_cast<int>(index % rows);
    }
    fn(row, col);
  }
}

}  // namespace

FailLog run_march(sram::BehavioralSram& memory, const MarchTest& test,
                  const RunOptions& options) {
  require(!test.elements.empty(), "run_march: empty march test");
  FailLog log;
  long cycle = 0;
  long recorded = 0;
  for (std::size_t e = 0; e < test.elements.size(); ++e) {
    const MarchElement& element = test.elements[e];
    for_each_address(
        memory.rows(), memory.cols(), element.order, options.address_map,
        options.rotate_bits, [&](int row, int col) {
          // Checkerboard background: odd-parity cells store the complement.
          const bool invert = options.background == DataBackground::Checkerboard &&
                              ((row + col) & 1) != 0;
          for (std::size_t o = 0; o < element.ops.size(); ++o) {
            const MarchOp& op = element.ops[o];
            const bool value = op.value != invert;
            if (op.is_read) {
              const bool observed = memory.read(row, col);
              if (observed != value && recorded < options.max_fail_records) {
                log.record({cycle, static_cast<int>(e), static_cast<int>(o), row,
                            col, value, observed});
                ++recorded;
              }
            } else {
              memory.write(row, col, value);
            }
            ++cycle;
          }
        });
  }
  {
    static metrics::Counter& runs = metrics::counter("march.runs");
    static metrics::Counter& ops = metrics::counter("march.ops");
    static metrics::Counter& fails = metrics::counter("march.fails");
    runs.add(1);
    ops.add(cycle);
    fails.add(static_cast<long long>(log.fails().size()));
  }
  return log;
}

long march_cycles(const MarchTest& test, long cells) {
  return static_cast<long>(test.complexity()) * cells;
}

bool MoviResult::passed() const {
  for (const auto& log : runs)
    if (!log.passed()) return false;
  return true;
}

long MoviResult::fail_count() const {
  long total = 0;
  for (const auto& log : runs) total += static_cast<long>(log.fails().size());
  return total;
}

FailLog run_retention(sram::BehavioralSram& memory, double pause_s,
                      const RunOptions& options) {
  require(pause_s >= 0.0, "run_retention: negative pause");
  // Two passes: background of 1s (catches decay-to-0) then of 0s.
  // Expressed as two 2N marches with the pause in between, so the fail log
  // uses the same machinery and signatures as everything else.
  FailLog combined;
  long recorded = 0;
  long cycle = 0;
  for (const bool background : {true, false}) {
    const MarchTest half =
        parse_march(background ? "retention-1" : "retention-0",
                    background ? "{^(w1)}" : "{^(w0)}");
    run_march(memory, half, options);
    cycle += march_cycles(half, memory.size());
    memory.pause(pause_s);
    const MarchTest verify =
        parse_march(background ? "retention-verify-1" : "retention-verify-0",
                    background ? "{^(r1)}" : "{^(r0)}");
    const FailLog log = run_march(memory, verify, options);
    for (const auto& f : log.fails()) {
      if (recorded >= options.max_fail_records) break;
      FailRecord shifted = f;
      shifted.cycle += cycle;
      shifted.element = background ? 1 : 3;  // global element numbering
      combined.record(shifted);
      ++recorded;
    }
    cycle += march_cycles(verify, memory.size());
  }
  return combined;
}

MoviResult run_movi(sram::BehavioralSram& memory, const MarchTest& base,
                    const RunOptions& options) {
  const long total = memory.size();
  const int bits = ceil_log2(total);
  require((1L << bits) == total,
          "run_movi: requires a power-of-two cell count");
  MoviResult result;
  for (int rotation = 0; rotation < std::max(bits, 1); ++rotation) {
    RunOptions rotated = options;
    rotated.rotate_bits = rotation;
    result.runs.push_back(run_march(memory, base, rotated));
  }
  return result;
}

}  // namespace memstress::march
