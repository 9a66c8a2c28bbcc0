#include "protocol/report.h"

#include <algorithm>
#include <cmath>

namespace hdldp {
namespace protocol {

Status ValidateReport(const UserReport& report, std::size_t num_dims,
                      std::size_t expected_entries, double output_lo,
                      double output_hi) {
  const std::vector<DimensionReport>& entries = report.entries;
  if (entries.size() != expected_entries) {
    return Status::InvalidArgument(
        "report carries " + std::to_string(entries.size()) +
        " entries, expected " + std::to_string(expected_entries));
  }
  // Duplicates without a seen-set: entries [0, ascending) strictly
  // ascend, so an entry that extends that prefix repeats nothing. Decoded
  // wire reports always do; an unordered in-process report falls back,
  // from its first descent on, to a binary search of the prefix plus a
  // scan of the entries since. Entries are checked in order either way,
  // so the first offending entry decides the Status.
  std::size_t ascending = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const DimensionReport& entry = entries[i];
    if (entry.dimension >= num_dims) {
      return Status::OutOfRange("report dimension index out of range");
    }
    if (ascending == i &&
        (i == 0 || entry.dimension > entries[i - 1].dimension)) {
      ascending = i + 1;
    } else {
      const auto prefix_end = entries.begin() + ascending;
      const auto at = std::lower_bound(
          entries.begin(), prefix_end, entry.dimension,
          [](const DimensionReport& e, std::uint32_t d) {
            return e.dimension < d;
          });
      const auto same = [&entry](const DimensionReport& e) {
        return e.dimension == entry.dimension;
      };
      if ((at != prefix_end && same(*at)) ||
          std::any_of(prefix_end, entries.begin() + i, same)) {
        return Status::InvalidArgument("report repeats a dimension");
      }
    }
    if (!std::isfinite(entry.value) || entry.value < output_lo ||
        entry.value > output_hi) {
      return Status::OutOfRange("report value outside mechanism output domain");
    }
  }
  return Status::OK();
}

}  // namespace protocol
}  // namespace hdldp
