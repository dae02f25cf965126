#pragma once
/// \file strings.hpp
/// \brief Small string utilities (splitting, trimming, fixed-point
/// formatting) used by the CSV layer and the table report printers.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcnas {

std::vector<std::string> split(std::string_view s, char delim);

std::string trim(std::string_view s);

/// Formats a double with a fixed number of decimals ("%.2f" style) without
/// locale dependence; the report tables rely on this for stable output.
std::string format_fixed(double value, int decimals);

/// Left-pads or right-pads \p s with spaces to \p width (right-align when
/// \p right is true). Strings longer than width are returned unchanged.
std::string pad(std::string s, std::size_t width, bool right = false);

bool starts_with(std::string_view s, std::string_view prefix);

/// Locale-independent strict double parse (std::from_chars): the whole
/// string must be one finite or inf/nan numeric token. Throws
/// dcnas::InvalidArgument naming \p context ("row 3, column accuracy")
/// — unlike std::stod, which honors the global locale's decimal point and
/// reports nothing about where the bad cell came from.
double parse_double(std::string_view s, std::string_view context);

/// Locale-independent strict integer parse; same contract as parse_double.
long long parse_int(std::string_view s, std::string_view context);

/// FNV-1a 64-bit hash — trial store CRCs and bench parity hashes.
std::uint64_t fnv1a64(std::string_view s);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

}  // namespace dcnas
